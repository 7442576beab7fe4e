#include "util/json.h"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/fault_injection.h"
#include "util/strings.h"

namespace gqa {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("Json: " + what);
}

}  // namespace

Json Json::array_of(const std::vector<double>& values) {
  Json j = Json::array();
  for (double v : values) j.push_back(Json(v));
  return j;
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) fail("operator[] on non-object");
  return object_[key];
}

const Json& Json::at(const std::string& key) const {
  if (type_ != Type::kObject) fail("at(key) on non-object");
  const auto it = object_.find(key);
  if (it == object_.end()) fail("missing key '" + key + "'");
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::kObject && object_.count(key) > 0;
}

void Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) fail("push_back on non-array");
  array_.push_back(std::move(value));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  fail("size() on scalar");
}

const Json& Json::at(std::size_t index) const {
  if (type_ != Type::kArray) fail("at(index) on non-array");
  if (index >= array_.size()) fail("array index out of range");
  return array_[index];
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) fail("as_bool on non-bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) fail("as_number on non-number");
  return number_;
}

std::int64_t Json::as_int() const {
  const double n = as_number();
  return static_cast<std::int64_t>(std::llround(n));
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) fail("as_string on non-string");
  return string_;
}

std::vector<double> Json::as_double_array() const {
  if (type_ != Type::kArray) fail("as_double_array on non-array");
  std::vector<double> out;
  out.reserve(array_.size());
  for (const Json& v : array_) out.push_back(v.as_number());
  return out;
}

namespace {

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  out += '"';
}

std::string number_repr(double n) {
  if (n == std::floor(n) && std::abs(n) < 1e15) {
    return format("%lld", static_cast<long long>(n));
  }
  return format("%.17g", n);
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent < 0 ? "" : std::string(static_cast<std::size_t>(indent) * (depth + 1), ' ');
  const std::string pad_close =
      indent < 0 ? "" : std::string(static_cast<std::size_t>(indent) * depth, ' ');
  const char* nl = indent < 0 ? "" : "\n";
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: out += number_repr(number_); break;
    case Type::kString: escape_into(out, string_); break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        out += pad;
        array_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < array_.size()) out += ',';
        out += nl;
      }
      out += pad_close;
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      std::size_t i = 0;
      for (const auto& [key, value] : object_) {
        out += pad;
        escape_into(out, key);
        out += indent < 0 ? ":" : ": ";
        value.dump_to(out, indent, depth + 1);
        if (++i < object_.size()) out += ',';
        out += nl;
      }
      out += pad_close;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(format("Json parse error at %zu: %s", pos_,
                                    what.c_str()));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': expect_word("true"); return Json(true);
      case 'f': expect_word("false"); return Json(false);
      case 'n': expect_word("null"); return Json();
      default: return parse_number();
    }
  }

  void expect_word(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') break;
      if (c == '\\') {
        const char esc = next();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: fail("unsupported escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("invalid number");
    const std::string token = text_.substr(start, pos_ - start);
    try {
      return Json(std::stod(token));
    } catch (const std::exception&) {
      fail("invalid number '" + token + "'");
    }
  }

  // Bounds the recursion: input nested past the limit throws instead of
  // overflowing the stack. A throw abandons the parser, so no unwinding of
  // depth_ is needed.
  void enter_container() {
    if (++depth_ > Json::kMaxParseDepth) {
      fail(format("nesting deeper than %d", Json::kMaxParseDepth));
    }
  }

  Json parse_array() {
    expect('[');
    enter_container();
    Json out = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return out;
    }
    while (true) {
      out.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    --depth_;
    return out;
  }

  Json parse_object() {
    expect('{');
    enter_container();
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return out;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      out[key] = parse_value();
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    --depth_;
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse_document(); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file for reading: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open file for writing: " + path);
  out << content;
}

void write_file_atomic(const std::string& path, const std::string& content) {
  // The temp name must be unique per (process, call) so concurrent writers
  // of the same path never stomp each other's temp file, and must live in
  // the same directory as `path` so the rename stays within one filesystem
  // (cross-device rename is not atomic — it is not even a rename).
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid())) +
      "." + std::to_string(counter.fetch_add(1, std::memory_order_relaxed));

  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    throw std::runtime_error("cannot open temp file for writing: " + tmp);
  }
  const std::size_t written =
      content.empty() ? 0 : std::fwrite(content.data(), 1, content.size(), out);
  // Flush through the stdio buffer and the page cache before the rename:
  // publishing a name that points at un-flushed data would reopen the torn
  // window the temp+rename dance exists to close.
  const bool flushed = written == content.size() && std::fflush(out) == 0 &&
                       ::fsync(::fileno(out)) == 0;
  if (std::fclose(out) != 0 || !flushed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("failed writing temp file: " + tmp);
  }

  // The torn-write chaos point: a fault here models a crash after the data
  // hit the temp file but before it was published. The contract the chaos
  // suite asserts — no visible artifact, no leaked temp — is exactly what
  // this branch does.
  if (fault::triggered(fault::Point::kCacheWrite)) {
    std::remove(tmp.c_str());
    fault::throw_injected(fault::Point::kCacheWrite);
  }

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot publish file (rename failed): " + path);
  }
}

}  // namespace gqa
