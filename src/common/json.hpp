// Minimal streaming JSON writer for the observability pipeline (spaden-prof
// reports, Chrome traces, BENCH_*.json).
//
// Deterministic by construction: keys are emitted in call order, doubles are
// formatted with a fixed shortest-round-trip format, and the writer never
// consults locale or clock state — two runs that record the same values
// produce byte-identical documents, which is what the profiler determinism
// tests and the CI bench-diffing rely on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace spaden {

class JsonWriter {
 public:
  /// `pretty` inserts newlines and two-space indentation (reports meant for
  /// humans and diffs); compact form is used for large trace event streams.
  explicit JsonWriter(bool pretty = true) : pretty_(pretty) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Key inside the current object; must be followed by a value or a
  /// begin_object/begin_array.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(bool v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }

  /// Shorthand: key + scalar value.
  template <typename T>
  void field(std::string_view k, T v) {
    key(k);
    value(v);
  }

  /// Finish and take the document. The writer must be balanced (every
  /// begin_* closed); asserts otherwise.
  [[nodiscard]] std::string take();

 private:
  enum class Scope : std::uint8_t { Object, Array };

  void before_value();
  void newline_indent();
  void append_escaped(std::string_view s);

  std::string out_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;
  bool pretty_ = true;
  bool pending_key_ = false;
};

/// Write `content` to `path` atomically enough for CI consumption (truncate +
/// write + close). Throws spaden::Error on IO failure.
void write_text_file(const std::string& path, std::string_view content);

/// True when `dir` is an existing directory this process may create files
/// in. Output paths are checked with it before any work starts, so a typo
/// fails in milliseconds instead of after the computation.
[[nodiscard]] bool writable_directory(const std::string& dir);

/// The directory a file written at `path` lands in ("." for a bare name).
[[nodiscard]] std::string parent_directory(const std::string& path);

}  // namespace spaden
