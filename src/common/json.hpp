/**
 * @file
 * COBRA's one JSON module: the writer behind every document the tools
 * emit (stats, sweep results, Chrome traces, design specs, search
 * frontiers, cobra_serve result and status documents, the journal)
 * and the strict parser for every document they read back (design
 * specs, cobra_serve requests, the journal).
 *
 * JsonWriter owns layout and escaping, so no emitter tracks commas,
 * indentation or quoting. Json::parse follows RFC 8259 strictly (no
 * comments, trailing commas or leading zeros; surrogate pairs decode
 * to 4-byte UTF-8 and lone surrogates are rejected), bounds nesting,
 * and reports every syntax error as a JsonError naming the byte
 * offset, so malformed input becomes a structured rejection, never
 * undefined behaviour.
 */

#ifndef COBRA_COMMON_JSON_HPP
#define COBRA_COMMON_JSON_HPP

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cobra {

/**
 * Builds one JSON document (or fragment) in memory. Every container
 * takes one of two layouts:
 *
 *  - Block: one member per line, two spaces deeper than the line the
 *    container opened on; the closer sits on a line of its own, even
 *    when the container is empty.
 *  - Inline: members on one line, separated by ", ". wrap() breaks
 *    the line before the next member (or the closer) and aligns it
 *    one column past the opening bracket.
 *
 * Keys and strings are escaped. Integers print verbatim; value(double)
 * prints the stream default (six significant digits, "%g") and fixed()
 * prints N fraction digits, non-finite values as 0.
 *
 * A writer built with a depth renders a fragment: the members of a
 * block container that a parent document opens @p depth levels in.
 * The first member carries its own indentation; later ones are
 * separated as in any block container. The parent adds the fragment
 * with splice(), so fragments can be rendered where their data lives
 * (say, on a sweep worker) and assembled later. Depth -1 puts a
 * document's top-level members at column 0 (the one-event-per-line
 * Chrome trace array).
 */
class JsonWriter
{
  public:
    enum Layout
    {
        Block,
        Inline,
    };

    explicit JsonWriter(int depth = 0);

    JsonWriter& object(Layout layout = Block) { return open('{', layout); }
    JsonWriter& array(Layout layout = Block) { return open('[', layout); }
    /** Close the innermost open object or array. */
    JsonWriter& end();

    /** Start an object member; the next value call supplies it. */
    JsonWriter& key(std::string_view k);
    JsonWriter& value(std::string_view s);
    JsonWriter& value(const char* s) { return value(std::string_view(s)); }
    JsonWriter& value(bool b) { return token(b ? "true" : "false"); }
    JsonWriter& value(double d);
    template <class T, std::enable_if_t<std::is_integral_v<T> &&
                                            !std::is_same_v<T, bool>,
                                        int> = 0>
    JsonWriter& value(T v)
    {
        char buf[24];
        return token({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
    }
    /** @p d with @p digits fraction digits; non-finite prints as 0. */
    JsonWriter& fixed(double d, int digits);
    template <class T>
    JsonWriter& field(std::string_view k, const T& v)
    {
        return key(k).value(v);
    }

    /** Inline containers: put the next member or the closer on a new
     *  line (a no-op before the first member). */
    JsonWriter& wrap();

    /** Append a fragment writer's members (its str()) to the innermost
     *  open block container; empty text adds nothing. */
    JsonWriter& splice(std::string_view members);

    /** Move every completed line to @p os, so a document too large to
     *  hold twice streams out as it grows; str() keeps the rest. */
    JsonWriter& drain(std::ostream& os);

    const std::string& str() const& { return out_; }
    std::string str() && { return std::move(out_); }

  private:
    struct Frame
    {
        char closer;
        Layout layout;
        int indent; ///< Indentation of the line the opener is on.
        int align;  ///< Column just past the opener (inline wraps).
        bool empty = true;
        bool wrap = false;
    };

    JsonWriter& open(char opener, Layout layout);
    JsonWriter& token(std::string_view text);
    /** Separator and line break (or indentation) before a member. */
    void prefix();
    void newline(int indent);

    std::string out_;
    std::vector<Frame> stack_;
    std::size_t lineStart_ = 0; ///< Offset of the current line.
    int lineIndent_;            ///< Indentation of the current line.
    bool afterKey_ = false;
};

/** Write @p w's document to @p path, newline-terminated; throws
 *  std::runtime_error when the file cannot be written. */
void writeJsonFile(const std::string& path, const JsonWriter& w);

/**
 * Malformed JSON text (what() names the byte offset), or a
 * well-formed value of the wrong kind or range for its reader.
 */
class JsonError : public std::runtime_error
{
  public:
    /** Syntax error at byte @p offset of the parsed text. */
    JsonError(std::size_t offset, const std::string& detail)
        : std::runtime_error("json parse error at byte " +
                             std::to_string(offset) + ": " + detail),
          offset_(offset)
    {
    }

    /** A parsed value its reader cannot accept (offset() is 0). */
    explicit JsonError(const std::string& detail)
        : std::runtime_error("json value error: " + detail)
    {
    }

    std::size_t offset() const { return offset_; }

  private:
    std::size_t offset_ = 0;
};

/**
 * One parsed JSON value. Objects preserve no insertion order (keyed
 * lookup only); numbers keep both a double and, when exactly
 * representable, an integer view so counters survive untruncated.
 */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; throw JsonError on a kind or range mismatch. */
    bool asBool() const { return want(Kind::Bool).bool_; }
    double asDouble() const { return want(Kind::Number).num_; }
    std::int64_t asInt() const;
    std::uint64_t asU64() const;
    const std::string& asString() const { return want(Kind::String).str_; }
    const std::vector<Json>& asArray() const
    {
        return want(Kind::Array).arr_;
    }
    const std::map<std::string, Json>& asObject() const
    {
        return want(Kind::Object).obj_;
    }

    /** Object member, or nullptr when absent / not an object. */
    const Json* find(const std::string& key) const;

    // ---- Typed object-member helpers (defaulted lookups) ------------
    bool getBool(const std::string& key, bool dflt) const;
    double getDouble(const std::string& key, double dflt) const;
    std::string getString(const std::string& key,
                          const std::string& dflt) const;

    /**
     * Member @p key as a non-negative integer that fits @p T, or
     * @p dflt when absent. Throws JsonError naming @p key when the
     * member is not a number, has a fraction, is negative, or is out
     * of @p T's range — never a silently narrowed value.
     */
    template <class T>
    T getUnsigned(const std::string& key, T dflt) const
    {
        const Json* v = find(key);
        return v == nullptr
                   ? dflt
                   : static_cast<T>(v->asUnsigned(
                         key, static_cast<std::uint64_t>(
                                  std::numeric_limits<T>::max())));
    }
    std::uint64_t getU64(const std::string& key,
                         std::uint64_t dflt) const
    {
        return getUnsigned(key, dflt);
    }

    /**
     * Parse @p text as one JSON document (leading/trailing whitespace
     * allowed, anything else after the value is an error). Throws
     * JsonError on malformed input or nesting deeper than 64 levels.
     */
    static Json parse(const std::string& text);

  private:
    explicit Json(Kind kind) : kind_(kind) {}
    const Json& want(Kind kind) const;
    /** This number as an integer in [0, @p max]; @p name labels the
     *  error. */
    std::uint64_t asUnsigned(const std::string& name,
                             std::uint64_t max) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    bool numIsInt_ = false;     ///< num_ was written as an integer.
    std::int64_t int_ = 0;      ///< Integer view (valid iff numIsInt_).
    std::string str_;
    std::vector<Json> arr_;
    std::map<std::string, Json> obj_;

    friend class JsonParser;
};

} // namespace cobra

#endif // COBRA_COMMON_JSON_HPP
