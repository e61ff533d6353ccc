#include "common/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <ostream>

#include "common/log.hh"

namespace prefsim
{

namespace
{

constexpr bool
needsEscape(char ch)
{
    return ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20;
}

/** Append @p s to @p out, quoted and escaped. */
void
appendEscaped(std::string &out, std::string_view s)
{
    out += '"';
    std::size_t run = 0; // Start of the pending run of plain characters.
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char ch = s[i];
        if (!needsEscape(ch))
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default: {
              static constexpr char kHex[] = "0123456789abcdef";
              const auto c = static_cast<unsigned char>(ch);
              const char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                   kHex[c & 0xf]};
              out.append(esc, sizeof(esc));
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
    out += '"';
}

} // namespace

JsonWriter::JsonWriter(std::ostream &os)
    : os_(os)
{}

JsonWriter::~JsonWriter() { flush(); }

void
JsonWriter::valueDone()
{
    if (state_.empty() || buf_.size() >= kChunkBytes)
        flush();
}

void
JsonWriter::flush()
{
    for (std::size_t at = 0; at < buf_.size(); at += kChunkBytes) {
        const std::size_t n = std::min(kChunkBytes, buf_.size() - at);
        os_.write(buf_.data() + at, static_cast<std::streamsize>(n));
    }
    buf_.clear();
}

void
JsonWriter::separate()
{
    if (pending_key_) {
        pending_key_ = false;
        return; // The key already emitted its separator.
    }
    if (!has_.empty() && has_.back() == '1')
        buf_ += ',';
    if (!has_.empty())
        has_.back() = '1';
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    buf_ += '{';
    state_.push_back('o');
    has_.push_back('0');
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    prefsim_assert(!state_.empty() && state_.back() == 'o',
                   "endObject outside object");
    buf_ += '}';
    state_.pop_back();
    has_.pop_back();
    valueDone();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    buf_ += '[';
    state_.push_back('a');
    has_.push_back('0');
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    prefsim_assert(!state_.empty() && state_.back() == 'a',
                   "endArray outside array");
    buf_ += ']';
    state_.pop_back();
    has_.pop_back();
    valueDone();
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    prefsim_assert(!state_.empty() && state_.back() == 'o',
                   "key outside object");
    separate();
    appendEscaped(buf_, name);
    buf_ += ':';
    pending_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separate();
    appendEscaped(buf_, v);
    valueDone();
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    // General format at precision 6 is specified as printf's "%.6g"
    // (inf and nan included), without its locale and format parsing.
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 6);
    buf_.append(buf, r.ptr);
    valueDone();
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    char buf[20];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    buf_.append(buf, r.ptr);
    valueDone();
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    buf_ += v ? "true" : "false";
    valueDone();
    return *this;
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    appendEscaped(out, s);
    return out;
}

bool
JsonValue::asBool() const
{
    prefsim_assert(kind_ == Kind::Bool, "JSON value is not a bool");
    return bool_;
}

double
JsonValue::asDouble() const
{
    prefsim_assert(kind_ == Kind::Number, "JSON value is not a number");
    return std::strtod(scalar_.c_str(), nullptr);
}

std::uint64_t
JsonValue::asU64() const
{
    prefsim_assert(kind_ == Kind::Number, "JSON value is not a number");
    return std::strtoull(scalar_.c_str(), nullptr, 10);
}

const std::string &
JsonValue::asString() const
{
    prefsim_assert(kind_ == Kind::String, "JSON value is not a string");
    return scalar_;
}

const std::vector<JsonValue> &
JsonValue::array() const
{
    prefsim_assert(kind_ == Kind::Array, "JSON value is not an array");
    return elems_;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    prefsim_assert(kind_ == Kind::Object, "JSON value is not an object");
    return members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members_) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

/** Recursive-descent parser over an in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text)
        : text_(text)
    {}

    std::optional<JsonValue>
    parse()
    {
        JsonValue v;
        if (!parseValue(v))
            return std::nullopt;
        skipSpace();
        if (pos_ != text_.size()) // Trailing garbage.
            return std::nullopt;
        return v;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{':
            return parseObject(out);
          case '[':
            return parseArray(out);
          case '"':
            out.kind_ = JsonValue::Kind::String;
            return parseString(out.scalar_);
          case 't':
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = true;
            return literal("true");
          case 'f':
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = false;
            return literal("false");
          case 'n':
            out.kind_ = JsonValue::Kind::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind_ = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipSpace();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"' ||
                !parseString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return false;
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.members_.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            const char c = text_[pos_++];
            if (c == '}')
                return true;
            if (c != ',')
                return false;
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind_ = JsonValue::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue elem;
            if (!parseValue(elem))
                return false;
            out.elems_.push_back(std::move(elem));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            const char c = text_[pos_++];
            if (c == ']')
                return true;
            if (c != ',')
                return false;
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  if (pos_ + 4 > text_.size())
                      return false;
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      const char h = text_[pos_++];
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code |= static_cast<unsigned>(h - 'A' + 10);
                      else
                          return false;
                  }
                  // The writer only escapes control characters; decode
                  // BMP code points as UTF-8.
                  if (code < 0x80) {
                      out += static_cast<char>(code);
                  } else if (code < 0x800) {
                      out += static_cast<char>(0xc0 | (code >> 6));
                      out += static_cast<char>(0x80 | (code & 0x3f));
                  } else {
                      out += static_cast<char>(0xe0 | (code >> 12));
                      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                      out += static_cast<char>(0x80 | (code & 0x3f));
                  }
                  break;
              }
              default:
                return false;
            }
        }
        return false; // Unterminated string.
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        auto digits = [&] {
            const std::size_t before = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            return pos_ > before;
        };
        if (!digits())
            return false;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return false;
        }
        out.kind_ = JsonValue::Kind::Number;
        out.scalar_ = text_.substr(start, pos_ - start);
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

std::optional<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

} // namespace prefsim
