// Shared helpers for the paper-figure bench binaries: a tiny flag parser and table
// printers. Every binary runs with sensible defaults (so `for b in build/bench/*; do
// $b; done` regenerates everything) and accepts --duration_ms / --runs / --quick.
#ifndef CLOF_BENCH_BENCH_UTIL_H_
#define CLOF_BENCH_BENCH_UTIL_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace clof::bench {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  // Numeric flags parse their whole value: no digits (--jobs=x), trailing garbage
  // (--H=12abc) or an out-of-range value is a usage error naming the flag (exit 2),
  // never an exception or a silently truncated read.
  double GetDouble(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : ParseOrExit<double>(name, it->second, "a number");
  }

  int GetInt(const std::string& name, int fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : ParseOrExit<int>(name, it->second, "an integer");
  }

  std::string GetString(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  bool GetBool(const std::string& name) const {
    auto it = values_.find(name);
    return it != values_.end() && it->second != "false";
  }

  // Flags the caller did not declare, in parse order lost to the map but
  // deterministic (sorted). A binary lists its full flag vocabulary once and turns a
  // non-empty result into a usage error, so a typo like --thread=8 fails loudly
  // instead of silently benchmarking the default.
  std::vector<std::string> UnknownKeys(std::initializer_list<std::string_view> known) const {
    std::vector<std::string> unknown;
    for (const auto& [key, value] : values_) {
      bool found = false;
      for (std::string_view k : known) {
        if (key == k) {
          found = true;
          break;
        }
      }
      if (!found) {
        unknown.push_back(key);
      }
    }
    return unknown;
  }

 private:
  template <class T>
  static T ParseOrExit(const std::string& name, const std::string& value, const char* what) {
    T parsed{};
    const char* last = value.data() + value.size();
    const auto [end, ec] = std::from_chars(value.data(), last, parsed);
    if (ec != std::errc() || end != last) {
      std::fprintf(stderr, "error: --%s expects %s, got --%s=%s\n", name.c_str(), what,
                   name.c_str(), value.c_str());
      std::exit(2);
    }
    return parsed;
  }

  std::map<std::string, std::string> values_;
};

// Prints a "series" table like the paper's figures: one row per lock, one column per
// thread count.
inline void PrintCurveTable(const std::string& title, const std::vector<int>& thread_counts,
                            const std::vector<std::pair<std::string, std::vector<double>>>& rows,
                            const char* unit = "iter/us") {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-22s", ("lock \\ threads (" + std::string(unit) + ")").c_str());
  for (int t : thread_counts) {
    std::printf("%9d", t);
  }
  std::printf("\n");
  for (const auto& [name, values] : rows) {
    std::printf("%-22s", name.c_str());
    for (double v : values) {
      std::printf("%9.3f", v);
    }
    std::printf("\n");
  }
}

}  // namespace clof::bench

#endif  // CLOF_BENCH_BENCH_UTIL_H_
