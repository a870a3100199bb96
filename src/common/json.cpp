#include "common/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace cobra {

// ---- Writer -------------------------------------------------------------

JsonWriter::JsonWriter(int depth) : lineIndent_(2 * depth)
{
    // The root frame stands for the parent's container: its members
    // sit at 2 * depth columns.
    stack_.push_back({'\0', Block, 2 * depth - 2, 0});
}

void
JsonWriter::newline(int indent)
{
    out_ += '\n';
    lineStart_ = out_.size();
    lineIndent_ = indent;
    out_.append(static_cast<std::size_t>(std::max(indent, 0)), ' ');
}

void
JsonWriter::prefix()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    Frame& f = stack_.back();
    const bool first = f.empty;
    f.empty = false;
    if (!first)
        out_ += ',';
    if (f.layout == Inline) {
        if (f.wrap && !first)
            newline(f.align);
        else if (!first)
            out_ += ' ';
        f.wrap = false;
    } else if (first && stack_.size() == 1) {
        // A fragment's first member: the splice supplies the break.
        out_.append(static_cast<std::size_t>(std::max(lineIndent_, 0)),
                    ' ');
    } else {
        newline(f.indent + 2);
    }
}

JsonWriter&
JsonWriter::open(char opener, Layout layout)
{
    prefix();
    out_ += opener;
    stack_.push_back({opener == '{' ? '}' : ']', layout, lineIndent_,
                      static_cast<int>(out_.size() - lineStart_)});
    return *this;
}

JsonWriter&
JsonWriter::end()
{
    const Frame f = stack_.back();
    stack_.pop_back();
    if (f.layout == Block)
        newline(f.indent);
    else if (f.wrap && !f.empty)
        newline(f.align);
    out_ += f.closer;
    return *this;
}

JsonWriter&
JsonWriter::key(std::string_view k)
{
    value(k);
    out_ += ": ";
    afterKey_ = true;
    return *this;
}

JsonWriter&
JsonWriter::token(std::string_view text)
{
    prefix();
    out_ += text;
    return *this;
}

JsonWriter&
JsonWriter::value(std::string_view s)
{
    prefix();
    out_ += '"';
    for (char c : s) {
        const char* esc = c == '"'    ? "\\\""
                          : c == '\\' ? "\\\\"
                          : c == '\n' ? "\\n"
                          : c == '\t' ? "\\t"
                          : c == '\r' ? "\\r"
                                      : nullptr;
        if (esc != nullptr) {
            out_ += esc;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
        } else {
            out_ += c;
        }
    }
    out_ += '"';
    return *this;
}

JsonWriter&
JsonWriter::value(double d)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", d);
    return token(buf);
}

JsonWriter&
JsonWriter::fixed(double d, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits,
                  std::isfinite(d) ? d : 0.0);
    return token(buf);
}

JsonWriter&
JsonWriter::wrap()
{
    stack_.back().wrap = true;
    return *this;
}

JsonWriter&
JsonWriter::splice(std::string_view members)
{
    if (members.empty())
        return *this;
    Frame& f = stack_.back();
    out_ += f.empty ? "\n" : ",\n";
    f.empty = false;
    out_ += members;
    lineStart_ = out_.rfind('\n') + 1;
    lineIndent_ = static_cast<int>(
        std::min(out_.find_first_not_of(' ', lineStart_), out_.size()) -
        lineStart_);
    return *this;
}

JsonWriter&
JsonWriter::drain(std::ostream& os)
{
    os.write(out_.data(), static_cast<std::streamsize>(lineStart_));
    out_.erase(0, lineStart_);
    lineStart_ = 0;
    return *this;
}

void
writeJsonFile(const std::string& path, const JsonWriter& w)
{
    std::ofstream f(path);
    if (!(f << w.str() << '\n'))
        throw std::runtime_error("cannot write " + path);
}

// ---- Parsed values --------------------------------------------------------

namespace {

const char* const kindNames[] = {"null",   "bool",  "number",
                                 "string", "array", "object"};

} // namespace

const Json&
Json::want(Kind kind) const
{
    if (kind_ != kind)
        throw JsonError(std::string("expected ") +
                        kindNames[static_cast<int>(kind)] + ", have " +
                        kindNames[static_cast<int>(kind_)]);
    return *this;
}

std::int64_t
Json::asInt() const
{
    if (want(Kind::Number).numIsInt_)
        return int_;
    if (std::nearbyint(num_) != num_)
        throw JsonError("expected an integer, have a fraction");
    // Converting a double outside [-2^63, 2^63) is undefined.
    if (!(num_ >= -9223372036854775808.0 && num_ < 9223372036854775808.0))
        throw JsonError("integer out of range");
    return static_cast<std::int64_t>(num_);
}

std::uint64_t
Json::asU64() const
{
    const std::int64_t v = asInt();
    if (v < 0)
        throw JsonError("expected a non-negative integer");
    return static_cast<std::uint64_t>(v);
}

std::uint64_t
Json::asUnsigned(const std::string& name, std::uint64_t max) const
{
    std::string have = kindNames[static_cast<int>(kind_)];
    if (kind_ == Kind::Number) {
        try {
            const std::uint64_t v = asU64();
            if (v <= max)
                return v;
        } catch (const JsonError&) {
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", num_);
        have = numIsInt_ ? std::to_string(int_) : buf;
    }
    throw JsonError("'" + name + "' must be an integer in [0, " +
                    std::to_string(max) + "], have " + have);
}

const Json*
Json::find(const std::string& key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    auto it = obj_.find(key);
    return it == obj_.end() ? nullptr : &it->second;
}

bool
Json::getBool(const std::string& key, bool dflt) const
{
    const Json* v = find(key);
    return v == nullptr ? dflt : v->asBool();
}

double
Json::getDouble(const std::string& key, double dflt) const
{
    const Json* v = find(key);
    return v == nullptr ? dflt : v->asDouble();
}

std::string
Json::getString(const std::string& key, const std::string& dflt) const
{
    const Json* v = find(key);
    return v == nullptr ? dflt : v->asString();
}

// ---- Parser ---------------------------------------------------------------

/** Strict recursive-descent parser over one in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    Json
    parseDocument()
    {
        Json v = parseValue(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after the document");
        return v;
    }

  private:
    static constexpr unsigned kMaxDepth = 64;

    [[noreturn]] void fail(const std::string& msg) const
    {
        throw JsonError(pos_, msg);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() && (text_[pos_] == ' ' ||
                                       text_[pos_] == '\t' ||
                                       text_[pos_] == '\n' ||
                                       text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    /** Consume @p c if it is next. */
    bool
    eat(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    void
    expect(char c)
    {
        if (!eat(c))
            fail(std::string("expected '") + c + "'");
    }

    Json
    parseValue(unsigned depth)
    {
        if (depth > kMaxDepth)
            fail("nesting deeper than 64 levels");
        skipWs();
        const char c = peek();
        if (c == '{')
            return parseObject(depth);
        if (c == '[')
            return parseArray(depth);
        if (c == '"') {
            Json j(Json::Kind::String);
            j.str_ = parseString();
            return j;
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber();
        for (const std::string_view lit : {"true", "false", "null"}) {
            if (text_.compare(pos_, lit.size(), lit) == 0) {
                pos_ += lit.size();
                Json j(lit[0] == 'n' ? Json::Kind::Null : Json::Kind::Bool);
                j.bool_ = lit[0] == 't';
                return j;
            }
        }
        fail("unexpected character");
    }

    Json
    parseObject(unsigned depth)
    {
        expect('{');
        Json j(Json::Kind::Object);
        skipWs();
        if (eat('}'))
            return j;
        do {
            skipWs();
            const std::size_t keyAt = pos_;
            if (peek() != '"')
                fail("object keys must be strings");
            std::string key = parseString();
            if (j.obj_.count(key) != 0)
                throw JsonError(keyAt, "duplicate key '" + key + "'");
            skipWs();
            expect(':');
            j.obj_.emplace(std::move(key), parseValue(depth + 1));
            skipWs();
        } while (eat(','));
        expect('}');
        return j;
    }

    Json
    parseArray(unsigned depth)
    {
        expect('[');
        Json j(Json::Kind::Array);
        skipWs();
        if (eat(']'))
            return j;
        do {
            j.arr_.push_back(parseValue(depth + 1));
            skipWs();
        } while (eat(','));
        expect(']');
        return j;
    }

    unsigned
    hex4()
    {
        unsigned cp = 0;
        const char* p = text_.data() + pos_;
        if (pos_ + 4 > text_.size() ||
            std::from_chars(p, p + 4, cp, 16).ptr != p + 4)
            fail("bad \\u escape");
        pos_ += 4;
        return cp;
    }

    /** The code point after "\u", a surrogate pair combined. */
    unsigned
    codePoint()
    {
        const unsigned cp = hex4();
        if (cp >= 0xDC00 && cp <= 0xDFFF)
            fail("lone low surrogate in \\u escape");
        if (cp < 0xD800 || cp > 0xDBFF)
            return cp;
        if (!eat('\\') || !eat('u'))
            fail("lone high surrogate in \\u escape");
        const unsigned lo = hex4();
        if (lo < 0xDC00 || lo > 0xDFFF)
            fail("high surrogate without a low one");
        return 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }

    static void
    appendUtf8(std::string& out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
            return;
        }
        // Lead byte 110x/1110/11110 for 2/3/4 bytes, then 10xxxxxx.
        const int n = cp < 0x800 ? 2 : cp < 0x10000 ? 3 : 4;
        out += static_cast<char>((0xF00 >> n) | (cp >> (6 * (n - 1))));
        for (int i = n - 2; i >= 0; --i)
            out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            const char e = peek();
            ++pos_;
            static constexpr std::string_view from = "\"\\/bfnrt";
            static constexpr std::string_view to = "\"\\/\b\f\n\r\t";
            if (e == 'u')
                appendUtf8(out, codePoint());
            else if (from.find(e) != std::string_view::npos)
                out += to[from.find(e)];
            else
                fail("unknown escape");
        }
    }

    /** Consume one or more digits; @p what names the missing part. */
    void
    digits(const char* what)
    {
        const std::size_t at = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        if (pos_ == at)
            fail(std::string("malformed number: expected ") + what);
    }

    Json
    parseNumber()
    {
        // RFC 8259: no leading zeros ("01" is two tokens, not a
        // number) and a digit on both sides of '.' and after an
        // exponent ("1.", "1e+" and "-1.e5" are malformed); anything
        // looser makes documents other strict parsers reject.
        const std::size_t start = pos_;
        eat('-');
        const std::size_t intStart = pos_;
        digits("a digit");
        if (pos_ - intStart > 1 && text_[intStart] == '0')
            fail("leading zero in number");
        bool isInt = true;
        if (eat('.')) {
            isInt = false;
            digits("a fraction digit");
        }
        if (eat('e') || eat('E')) {
            isInt = false;
            if (!eat('+'))
                eat('-');
            digits("an exponent digit");
        }
        const std::string tok = text_.substr(start, pos_ - start);
        Json j(Json::Kind::Number);
        try {
            if (isInt) {
                j.int_ = std::stoll(tok);
                j.numIsInt_ = true;
                j.num_ = static_cast<double>(j.int_);
            } else {
                j.num_ = std::stod(tok);
            }
        } catch (const std::exception&) {
            throw JsonError(start, "number out of range: " + tok);
        }
        return j;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

Json
Json::parse(const std::string& text)
{
    return JsonParser(text).parseDocument();
}

} // namespace cobra
