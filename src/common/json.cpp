#include "common/json.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "common/error.hpp"

namespace spaden {

void JsonWriter::newline_indent() {
  if (!pretty_) {
    return;
  }
  out_.push_back('\n');
  out_.append(stack_.size() * 2, ' ');
}

void JsonWriter::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (stack_.empty()) {
    SPADEN_REQUIRE(out_.empty(), "JSON document already has a root value");
    return;
  }
  SPADEN_REQUIRE(stack_.back() == Scope::Array, "JSON value inside object requires a key");
  if (has_items_.back()) {
    out_.push_back(',');
  }
  has_items_.back() = true;
  newline_indent();
}

void JsonWriter::begin_object() {
  before_value();
  out_.push_back('{');
  stack_.push_back(Scope::Object);
  has_items_.push_back(false);
}

void JsonWriter::end_object() {
  SPADEN_REQUIRE(!stack_.empty() && stack_.back() == Scope::Object && !pending_key_,
                 "unbalanced JSON end_object");
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) {
    newline_indent();
  }
  out_.push_back('}');
}

void JsonWriter::begin_array() {
  before_value();
  out_.push_back('[');
  stack_.push_back(Scope::Array);
  has_items_.push_back(false);
}

void JsonWriter::end_array() {
  SPADEN_REQUIRE(!stack_.empty() && stack_.back() == Scope::Array && !pending_key_,
                 "unbalanced JSON end_array");
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) {
    newline_indent();
  }
  out_.push_back(']');
}

void JsonWriter::key(std::string_view k) {
  SPADEN_REQUIRE(!stack_.empty() && stack_.back() == Scope::Object && !pending_key_,
                 "JSON key outside object");
  if (has_items_.back()) {
    out_.push_back(',');
  }
  has_items_.back() = true;
  newline_indent();
  out_.push_back('"');
  append_escaped(k);
  out_.append(pretty_ ? "\": " : "\":");
  pending_key_ = true;
}

void JsonWriter::append_escaped(std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out_.append("\\\"");
        break;
      case '\\':
        out_.append("\\\\");
        break;
      case '\n':
        out_.append("\\n");
        break;
      case '\r':
        out_.append("\\r");
        break;
      case '\t':
        out_.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_.append(buf);
        } else {
          out_.push_back(c);
        }
    }
  }
}

void JsonWriter::value(std::string_view s) {
  before_value();
  out_.push_back('"');
  append_escaped(s);
  out_.push_back('"');
}

void JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    // JSON has no Infinity/NaN; null keeps the document parseable and the
    // anomaly visible.
    out_.append("null");
    return;
  }
  // Shortest representation that round-trips a double: try increasing
  // precision until parsing back gives the same bits.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) {
      break;
    }
  }
  out_.append(buf);
}

void JsonWriter::value(bool v) {
  before_value();
  out_.append(v ? "true" : "false");
}

void JsonWriter::value(std::uint64_t v) {
  before_value();
  out_.append(std::to_string(v));
}

void JsonWriter::value(std::int64_t v) {
  before_value();
  out_.append(std::to_string(v));
}

std::string JsonWriter::take() {
  SPADEN_REQUIRE(stack_.empty() && !pending_key_, "unbalanced JSON document");
  out_.push_back('\n');
  return std::move(out_);
}

void write_text_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  SPADEN_REQUIRE(f != nullptr, "cannot open '%s' for writing", path.c_str());
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int rc = std::fclose(f);
  SPADEN_REQUIRE(written == content.size() && rc == 0, "short write to '%s'", path.c_str());
}

bool writable_directory(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::is_directory(dir, ec) && ::access(dir.c_str(), W_OK | X_OK) == 0;
}

std::string parent_directory(const std::string& path) {
  const std::string parent = std::filesystem::path(path).parent_path().string();
  return parent.empty() ? "." : parent;
}

}  // namespace spaden
