/**
 * @file
 * Minimal JSON support: the writers the observability exporters
 * share (escaping, deterministic number rendering) and a small
 * recursive-descent parser for reading the documents back --
 * perfbench's stats checks and the schema tests.
 *
 * The parser covers RFC 8259 JSON (objects, arrays, strings with
 * escapes incl. \uXXXX and surrogate pairs, numbers, booleans,
 * null). It keeps object keys in document order and is meant for
 * small trusted documents, not adversarial input at scale (depth is
 * bounded to keep the recursion honest).
 */

#ifndef HDHAM_CORE_JSON_HH
#define HDHAM_CORE_JSON_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace hdham::json
{

/** Write @p s as a quoted JSON string, escaping per RFC 8259. */
void writeEscaped(std::ostream &out, const std::string &s);

/**
 * Deterministic number rendering: integers (the common case --
 * counters, bucket hits, power-of-two bounds) print exactly;
 * everything else prints with enough digits to round-trip.
 * Non-finite values render as 0.
 */
void writeNumber(std::ostream &out, double value);

/** A parsed JSON value. */
class Value
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type() const { return kind; }

    bool isNull() const { return kind == Type::Null; }
    bool isBool() const { return kind == Type::Bool; }
    bool isNumber() const { return kind == Type::Number; }
    bool isString() const { return kind == Type::String; }
    bool isArray() const { return kind == Type::Array; }
    bool isObject() const { return kind == Type::Object; }

    /** @throws std::runtime_error unless isBool(). */
    bool asBool() const;

    /** @throws std::runtime_error unless isNumber(). */
    double asNumber() const;

    /** @throws std::runtime_error unless isString(). */
    const std::string &asString() const;

    /** @throws std::runtime_error unless isArray(). */
    const std::vector<Value> &items() const;

    /** Key/value pairs in document order.
     *  @throws std::runtime_error unless isObject(). */
    const std::vector<std::pair<std::string, Value>> &members() const;

    /** First member named @p key, or nullptr.
     *  @throws std::runtime_error unless isObject(). */
    const Value *find(const std::string &key) const;

    /** First member named @p key.
     *  @throws std::runtime_error when absent or not an object. */
    const Value &at(const std::string &key) const;

    /** True when an object has a member named @p key. */
    bool has(const std::string &key) const
    {
        return isObject() && find(key) != nullptr;
    }

  private:
    friend class Parser;

    Type kind = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;
};

/**
 * Parse one JSON document (trailing whitespace allowed, nothing
 * else after the value).
 * @throws std::runtime_error with the byte offset on malformed
 *         input or nesting deeper than 256 levels.
 */
Value parse(const std::string &text);

} // namespace hdham::json

#endif // HDHAM_CORE_JSON_HH
