#include "exp/config.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/logging.hh"

namespace xisa::exp {

namespace {

std::string
trim(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
validKey(const std::string &k)
{
    if (k.empty())
        return false;
    for (char c : k) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.' && c != '-' && c != '[' && c != ']')
            return false;
    }
    return true;
}

/** Strip one layer of quotes; "..." processes backslash escapes. */
std::string
unquote(const std::string &v, bool *err)
{
    *err = false;
    if (v.size() >= 2 && v.front() == '\'' && v.back() == '\'')
        return v.substr(1, v.size() - 2);
    if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
        std::string out;
        for (size_t i = 1; i + 1 < v.size(); ++i) {
            char c = v[i];
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (i + 2 >= v.size()) {
                *err = true;
                return out;
            }
            char esc = v[++i];
            switch (esc) {
              case 'n': out.push_back('\n'); break;
              case 't': out.push_back('\t'); break;
              case '\\': out.push_back('\\'); break;
              case '"': out.push_back('"'); break;
              default: *err = true; return out;
            }
        }
        return out;
    }
    return v;
}

} // namespace

std::string
confQuote(const std::string &s)
{
    bool plain = !s.empty();
    for (char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '.' || c == '-' || c == '@' || c == '*' || c == '/')
            continue;
        plain = false;
        break;
    }
    if (plain)
        return s;
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          default: out.push_back(c);
        }
    }
    out += '"';
    return out;
}

void
Config::fail(int line, const std::string &msg) const
{
    if (line > 0)
        throw ConfigError(name_ + ":" + std::to_string(line) + ": " +
                          msg);
    throw ConfigError(name_ + ": " + msg);
}

Config
Config::parseFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw ConfigError(path + ": cannot open config file");
    std::ostringstream ss;
    ss << f.rdbuf();
    return parseString(ss.str(), path);
}

Config
Config::parseString(const std::string &text, const std::string &name)
{
    Config c;
    c.name_ = name;
    c.sections_.push_back({"", {}});
    c.parseLines(text);
    return c;
}

void
Config::parseLines(const std::string &text)
{
    std::istringstream in(text);
    std::string raw;
    int lineNo = 0;
    size_t cur = 0; // current section index
    while (std::getline(in, raw)) {
        ++lineNo;
        // Strip comments, but not inside quotes. Inside "..." a
        // backslash escapes the next character, so \\" is a literal
        // backslash followed by the closing quote.
        std::string line;
        char quote = 0;
        bool esc = false;
        for (size_t i = 0; i < raw.size(); ++i) {
            char ch = raw[i];
            if (quote) {
                line.push_back(ch);
                if (esc)
                    esc = false;
                else if (quote == '"' && ch == '\\')
                    esc = true;
                else if (ch == quote)
                    quote = 0;
                continue;
            }
            if (ch == '\'' || ch == '"') {
                quote = ch;
                line.push_back(ch);
                continue;
            }
            if (ch == '#')
                break;
            line.push_back(ch);
        }
        if (quote)
            fail(lineNo, "unterminated quote");
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']')
                fail(lineNo, "missing ']' in section header");
            std::string sec = trim(line.substr(1, line.size() - 2));
            if (sec.empty() || !validKey(sec))
                fail(lineNo, "bad section name '" + sec + "'");
            if (findSection(sec))
                fail(lineNo, "duplicate section [" + sec + "]");
            sections_.push_back({sec, {}});
            cur = sections_.size() - 1;
            continue;
        }
        size_t eq = line.find('=');
        if (eq == std::string::npos)
            fail(lineNo, "expected 'key = value': '" + line + "'");
        std::string key = trim(line.substr(0, eq));
        if (!validKey(key))
            fail(lineNo, "bad key name '" + key + "'");
        std::string value = trim(line.substr(eq + 1));
        value = expandMacros(value, lineNo, 0);
        bool badEsc = false;
        value = unquote(value, &badEsc);
        if (badEsc)
            fail(lineNo, "bad escape sequence in value of '" + key +
                             "'");
        Section &s = sections_[cur];
        for (const ConfEntry &e : s.entries) {
            if (e.key == key)
                fail(lineNo, "duplicate key '" + key + "' in [" +
                                 s.name + "] (first at line " +
                                 std::to_string(e.line) + ")");
        }
        s.entries.push_back({key, value, lineNo, false});
    }
}

std::string
Config::expandMacros(const std::string &value, int line,
                     int depth) const
{
    if (depth > 8)
        fail(line, "macro expansion too deep (cycle?)");
    std::string out;
    for (size_t i = 0; i < value.size(); ++i) {
        if (value[i] != '$' || i + 1 >= value.size() ||
            value[i + 1] != '(') {
            out.push_back(value[i]);
            continue;
        }
        size_t close = value.find(')', i + 2);
        if (close == std::string::npos)
            fail(line, "unterminated $( in value");
        std::string ref = value.substr(i + 2, close - i - 2);
        const ConfEntry *e = findEntry("", ref);
        if (!e)
            fail(line, "$( " + ref + " ) refers to an undefined "
                                     "global key");
        out += expandMacros(e->value, line, depth + 1);
        i = close;
    }
    return out;
}

Config::Section *
Config::findSection(const std::string &name)
{
    for (Section &s : sections_)
        if (s.name == name)
            return &s;
    return nullptr;
}

const Config::Section *
Config::findSection(const std::string &name) const
{
    for (const Section &s : sections_)
        if (s.name == name)
            return &s;
    return nullptr;
}

const ConfEntry *
Config::findEntry(const std::string &section,
                  const std::string &key) const
{
    const Section *s = findSection(section);
    if (!s)
        return nullptr;
    for (const ConfEntry &e : s->entries)
        if (e.key == key)
            return &e;
    return nullptr;
}

bool
Config::hasSection(const std::string &section) const
{
    return findSection(section) != nullptr;
}

std::vector<std::string>
Config::sectionNames() const
{
    std::vector<std::string> out;
    for (const Section &s : sections_)
        if (!s.name.empty())
            out.push_back(s.name);
    return out;
}

std::vector<std::string>
Config::sectionsWithPrefix(const std::string &prefix) const
{
    std::vector<std::string> out;
    for (const Section &s : sections_)
        if (s.name.rfind(prefix, 0) == 0)
            out.push_back(s.name);
    return out;
}

bool
Config::has(const std::string &section, const std::string &key) const
{
    return findEntry(section, key) != nullptr;
}

std::vector<std::string>
Config::keysOf(const std::string &section) const
{
    std::vector<std::string> out;
    const Section *s = findSection(section);
    if (!s)
        return out;
    for (const ConfEntry &e : s->entries)
        out.push_back(e.key);
    return out;
}

std::string
Config::getString(const std::string &section, const std::string &key,
                  const std::string &def) const
{
    const ConfEntry *e = findEntry(section, key);
    if (!e)
        return def;
    const_cast<ConfEntry *>(e)->used = true;
    return e->value;
}

std::string
Config::requireString(const std::string &section,
                      const std::string &key) const
{
    const ConfEntry *e = findEntry(section, key);
    if (!e) {
        std::string where =
            section.empty() ? "global section" : "[" + section + "]";
        fail(0, "missing required key '" + key + "' in " + where);
    }
    const_cast<ConfEntry *>(e)->used = true;
    return e->value;
}

int64_t
Config::getInt(const std::string &section, const std::string &key,
               int64_t def) const
{
    const ConfEntry *e = findEntry(section, key);
    if (!e)
        return def;
    const_cast<ConfEntry *>(e)->used = true;
    char *end = nullptr;
    long long v = std::strtoll(e->value.c_str(), &end, 0);
    if (!end || *end != '\0' || e->value.empty())
        fail(e->line, "key '" + key + "' wants an integer, got '" +
                          e->value + "'");
    return v;
}

int64_t
Config::requireInt(const std::string &section,
                   const std::string &key) const
{
    requireString(section, key); // existence + diagnostics
    return getInt(section, key, 0);
}

double
Config::getDouble(const std::string &section, const std::string &key,
                  double def) const
{
    const ConfEntry *e = findEntry(section, key);
    if (!e)
        return def;
    const_cast<ConfEntry *>(e)->used = true;
    char *end = nullptr;
    double v = std::strtod(e->value.c_str(), &end);
    if (!end || *end != '\0' || e->value.empty())
        fail(e->line, "key '" + key + "' wants a number, got '" +
                          e->value + "'");
    // No consumer has a use for NaN or an infinity, and both slip
    // through range checks written as `v < lo` (a NaN latency or an
    // infinite oversubscription then stalls the event loop).
    if (!std::isfinite(v))
        fail(e->line, (section.empty() ? "" : "[" + section + "] ") +
                          "key '" + key + "' wants a finite number, got '" +
                          e->value + "'");
    return v;
}

bool
Config::getBool(const std::string &section, const std::string &key,
                bool def) const
{
    const ConfEntry *e = findEntry(section, key);
    if (!e)
        return def;
    const_cast<ConfEntry *>(e)->used = true;
    const std::string &v = e->value;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fail(e->line,
         "key '" + key + "' wants a boolean, got '" + v + "'");
}

std::vector<std::string>
Config::getList(const std::string &section,
                const std::string &key) const
{
    std::vector<std::string> out;
    const ConfEntry *e = findEntry(section, key);
    if (!e)
        return out;
    const_cast<ConfEntry *>(e)->used = true;
    std::string item;
    std::istringstream in(e->value);
    while (std::getline(in, item, ',')) {
        item = trim(item);
        if (item.empty())
            fail(e->line, "empty element in list '" + key + "'");
        out.push_back(item);
    }
    return out;
}

int
Config::lineOf(const std::string &section, const std::string &key) const
{
    const ConfEntry *e = findEntry(section, key);
    return e ? e->line : 0;
}

std::vector<std::string>
Config::unusedKeys() const
{
    std::vector<std::string> out;
    for (const Section &s : sections_) {
        for (const ConfEntry &e : s.entries) {
            if (e.used)
                continue;
            std::string where =
                s.name.empty() ? e.key : s.name + "." + e.key;
            out.push_back(where + " (line " + std::to_string(e.line) +
                          ")");
        }
    }
    return out;
}

void
Config::requireAllUsed() const
{
    std::vector<std::string> unknown = unusedKeys();
    if (unknown.empty())
        return;
    std::string msg = name_ + ": unknown key(s):";
    for (const std::string &k : unknown)
        msg += "\n  " + k;
    throw ConfigError(msg);
}

} // namespace xisa::exp
