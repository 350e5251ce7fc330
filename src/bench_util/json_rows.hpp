// The one writer of every BENCH_*.json artifact.
//
// An artifact is a JSON array of flat objects, one per line. Each object
// names its kind in "row"; the first is always the "meta" row, carrying
// the bench name, the host's hardware thread count and the run's
// configuration. A row that reports counters appends every counter of
// each stats struct it is given (core::OpStats, store::RebalanceStats)
// under its field name, through the struct's for_each_counter, so a new
// counter reaches every artifact without touching a bench. Non-finite
// doubles are written as null.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <type_traits>

#include "bench_util/runner.hpp"

namespace pathcopy::bench {

/// One "key": value pair of a row, encoded when built.
struct JsonField {
  std::string text;

  JsonField(const char* key, const char* value)
      : text(quote(key) + ": " + quote(value)) {}

  template <class T>
    requires std::is_arithmetic_v<T>
  JsonField(const char* key, T value) : text(quote(key) + ": ") {
    if constexpr (std::is_integral_v<T>) {
      text += std::to_string(value);
    } else if (!std::isfinite(value)) {
      text += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.10g", static_cast<double>(value));
      text += buf;
    }
  }

  static std::string quote(const char* s) {
    std::string q = "\"";
    for (; *s != '\0'; ++s) {
      if (*s == '"' || *s == '\\') q += '\\';
      q += *s;
    }
    return q + '"';
  }
};

/// Streams rows to `path` as they complete; a null path writes nothing.
/// The array is closed when the writer is destroyed.
class JsonRows {
 public:
  /// Opens `path` (exits 2 when it cannot) and writes the meta row.
  JsonRows(const char* path, const char* bench,
           std::initializer_list<JsonField> config) {
    if (path == nullptr) return;
    f_ = std::fopen(path, "w");
    if (f_ == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      std::exit(2);
    }
    std::fprintf(f_, "[");
    emit("meta",
         join({{"bench", bench}, {"hw_threads", hardware_threads()}}) +
             join(config));
  }

  ~JsonRows() {
    if (f_ == nullptr) return;
    std::fprintf(f_, "\n]\n");
    std::fclose(f_);
  }

  JsonRows(const JsonRows&) = delete;
  JsonRows& operator=(const JsonRows&) = delete;

  /// Writes {"row": kind, fields..., every counter of each of `stats`}.
  template <class... Stats>
  void row(const char* kind, std::initializer_list<JsonField> fields,
           const Stats&... stats) {
    if (f_ == nullptr) return;
    std::string rest = join(fields);
    const auto add = [&rest](const char* name, auto value) {
      rest += ", " + JsonField(name, value).text;
    };
    (stats.for_each_counter(add), ...);
    emit(kind, rest);
  }

 private:
  static std::string join(std::initializer_list<JsonField> fields) {
    std::string s;
    for (const JsonField& f : fields) s += ", " + f.text;
    return s;
  }

  void emit(const char* kind, const std::string& rest) {
    std::fprintf(f_, "%s\n  {%s%s}", first_ ? "" : ",",
                 JsonField("row", kind).text.c_str(), rest.c_str());
    first_ = false;
  }

  std::FILE* f_ = nullptr;
  bool first_ = true;
};

}  // namespace pathcopy::bench
