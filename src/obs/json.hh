/**
 * @file
 * The one JSON writer: the stats dump, the Chrome trace and the BENCH
 * perf JSON all go through it.
 *
 * Every string is escaped, so a conf-supplied label cannot break the
 * document. Every floating-point number is formatted with the printf
 * format its caller names: the perf gates and the golden artifacts pin
 * fields such as `%.6f` seconds byte for byte, so the writer never
 * picks a precision of its own. A non-finite number, which printf
 * would spell `nan`/`inf`, is written as `null`.
 *
 * Each container chooses its layout when it opens. Lines puts every
 * member on its own line, indented by the writer's indent once per
 * enclosing Lines container (the closing bracket gets a line of its
 * own); Spaced keeps members on one line as `"k": v, "k": v`; Compact
 * as `"k":v,"k":v`. Closing the outermost container ends the document
 * with a newline.
 */

#ifndef XISA_OBS_JSON_HH
#define XISA_OBS_JSON_HH

#include <concepts>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace xisa::obs {

class JsonWriter
{
  public:
    /** How a container separates its members (see the file comment). */
    enum class Layout { Lines, Spaced, Compact };

    /** Write to `os`; `indent` spaces per open Lines container. */
    explicit JsonWriter(std::ostream &os, int indent = 2);

    JsonWriter &beginObject(Layout layout);
    JsonWriter &beginArray(Layout layout);
    /** Close the innermost open container. */
    JsonWriter &end();

    /** Name the next value; only inside an object. */
    JsonWriter &key(std::string_view k);

    JsonWriter &string(std::string_view s);
    /** `v` through printf format `fmt` (one double conversion). */
    JsonWriter &number(double v, const char *fmt);
    JsonWriter &number(std::integral auto v)
    {
        return literal(std::to_string(v));
    }

  private:
    struct Level {
        Layout layout;
        char closer;
        bool first;
    };

    JsonWriter &open(char bracket, char closer, Layout layout);
    /** Write the separator and indentation owed before a member. */
    void beforeValue();
    /** Break the line and indent `depth` Lines levels deep. */
    void newline(int depth);
    JsonWriter &literal(const std::string &text);

    std::ostream &os_;
    int indent_;
    std::vector<Level> open_;
    int linesOpen_ = 0; ///< open containers with Layout::Lines
    bool afterKey_ = false;
};

} // namespace xisa::obs

#endif // XISA_OBS_JSON_HH
