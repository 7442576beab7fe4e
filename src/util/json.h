// Minimal JSON value model, writer, and parser — just enough to serialize
// fitted LUT tables and experiment metadata without external dependencies.
// Supports objects, arrays, strings, numbers, booleans, and null.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace gqa {

/// A JSON document node. Construction helpers keep call sites terse:
///   Json j = Json::object(); j["name"] = Json("gelu"); j["lambda"] = Json(5.0);
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  explicit Json(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Json(double n) : type_(Type::kNumber), number_(n) {}
  explicit Json(int n) : type_(Type::kNumber), number_(n) {}
  explicit Json(std::int64_t n)
      : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  explicit Json(const char* s) : type_(Type::kString), string_(s) {}
  explicit Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json array_of(const std::vector<double>& values);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }

  // Object access. operator[] inserts for non-const (object only).
  Json& operator[](const std::string& key);
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;

  // Array access.
  void push_back(Json value);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Json& at(std::size_t index) const;

  // Typed getters; throw std::runtime_error on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] std::vector<double> as_double_array() const;

  /// Serializes; `indent` < 0 means compact single-line output.
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Deepest array/object nesting parse() accepts; the parser recurses
  /// once per level (an approximator artifact nests 5 deep).
  static constexpr int kMaxParseDepth = 512;

  /// Parses a JSON document; throws std::runtime_error on malformed input,
  /// including nesting deeper than kMaxParseDepth.
  static Json parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  // std::map keeps key order deterministic for golden-file tests.
  std::map<std::string, Json> object_;
};

/// Reads an entire file into a string; throws std::runtime_error on failure.
[[nodiscard]] std::string read_file(const std::string& path);

/// Writes a string to a file; throws std::runtime_error on failure.
/// NOT crash-safe: a crash mid-write leaves a truncated file at `path`.
/// Artifact writers must use write_file_atomic instead.
void write_file(const std::string& path, const std::string& content);

/// Crash-safe publish: writes to a unique temp file in the same directory,
/// flushes it to disk, then atomically renames it over `path`. Readers
/// never observe a torn file — they see either the old content or the new
/// content, and concurrent writers of the same path are last-writer-wins.
/// Throws std::runtime_error on I/O failure (the temp file is removed, so
/// a failed publish leaves no visible artifact). Carries the `cache_write`
/// fault-injection point (util/fault_injection.h) between the temp write
/// and the rename: under an armed chaos spec this throws a transient
/// ServingError with the temp file already unlinked — the torn-write
/// simulation the chaos suite asserts on.
void write_file_atomic(const std::string& path, const std::string& content);

}  // namespace gqa
