#include "obs/json.hh"

#include <cmath>
#include <ostream>

#include "util/logging.hh"

namespace xisa::obs {

JsonWriter::JsonWriter(std::ostream &os, int indent)
    : os_(os), indent_(indent)
{}

JsonWriter &
JsonWriter::beginObject(Layout layout)
{
    return open('{', '}', layout);
}

JsonWriter &
JsonWriter::beginArray(Layout layout)
{
    return open('[', ']', layout);
}

JsonWriter &
JsonWriter::open(char bracket, char closer, Layout layout)
{
    beforeValue();
    os_ << bracket;
    open_.push_back({layout, closer, true});
    if (layout == Layout::Lines)
        ++linesOpen_;
    return *this;
}

JsonWriter &
JsonWriter::end()
{
    XISA_CHECK(!open_.empty() && !afterKey_,
               "JsonWriter: end() without an open container");
    const Level level = open_.back();
    open_.pop_back();
    if (level.layout == Layout::Lines)
        newline(--linesOpen_);
    os_ << level.closer;
    if (open_.empty())
        os_ << '\n';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    XISA_CHECK(!open_.empty() && open_.back().closer == '}' &&
                   !afterKey_,
               "JsonWriter: key() outside an object");
    string(k);
    os_ << (open_.back().layout == Layout::Compact ? ":" : ": ");
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::string(std::string_view s)
{
    beforeValue();
    os_ << '"';
    for (char c : s) {
        switch (c) {
          case '"': os_ << "\\\""; break;
          case '\\': os_ << "\\\\"; break;
          case '\n': os_ << "\\n"; break;
          case '\r': os_ << "\\r"; break;
          case '\t': os_ << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                os_ << strfmt("\\u%04x", static_cast<unsigned>(c));
            else
                os_ << c;
        }
    }
    os_ << '"';
    return *this;
}

JsonWriter &
JsonWriter::number(double v, const char *fmt)
{
    return literal(std::isfinite(v) ? strfmt(fmt, v) : "null");
}

JsonWriter &
JsonWriter::literal(const std::string &text)
{
    beforeValue();
    os_ << text;
    return *this;
}

void
JsonWriter::beforeValue()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (open_.empty())
        return;
    Level &level = open_.back();
    if (!level.first)
        os_ << (level.layout == Layout::Spaced ? ", " : ",");
    level.first = false;
    if (level.layout == Layout::Lines)
        newline(linesOpen_);
}

void
JsonWriter::newline(int depth)
{
    os_ << '\n' << std::string(static_cast<size_t>(depth * indent_), ' ');
}

} // namespace xisa::obs
