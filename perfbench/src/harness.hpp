// Measurement plumbing shared by the benchmark binary and its tests: clocks,
// order statistics, the in-memory span recorder, the host fingerprint and
// the one-line JSON result the runner relays.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        bench_clock::now().time_since_epoch())
                                        .count());
}

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]); 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Spans kept in memory while the benchmark runs and written out once at the
/// end: name, start, end and the enclosing span (0 = none; ids are 1-based
/// positions in the record). Opening pushes onto a stack, so a span's parent
/// is whatever was open when it started - the benchmark opens spans only
/// around the public calls it makes into each layer.
class tracer {
 public:
  struct span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  [[nodiscard]] std::uint32_t intern(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// Opens a span now; returns its id for close().
  std::uint32_t open(std::uint32_t name) {
    const std::uint32_t parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back({name, parent, now_ns(), 0});
    const auto id = static_cast<std::uint32_t>(spans_.size());
    stack_.push_back(id);
    return id;
  }

  /// Closes the innermost open span; returns its duration in nanoseconds.
  std::uint64_t close() {
    span& s = spans_[stack_.back() - 1];
    stack_.pop_back();
    s.end_ns = now_ns();
    return s.end_ns - s.start_ns;
  }

  /// Records an already-timed leaf span under the innermost open span.
  void leaf(std::uint32_t name, std::uint64_t start_ns, std::uint64_t end_ns) {
    spans_.push_back({name, stack_.empty() ? 0 : stack_.back(), start_ns, end_ns});
  }

  void reserve(std::size_t n) { spans_.reserve(n); }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Writes one tab-separated line per span: id, parent, name, start_ns,
  /// end_ns (start times relative to the first span). False on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      std::fprintf(f, "%zu\t%u\t%s\t%llu\t%llu\n", i + 1, s.parent, names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.start_ns - base),
                   static_cast<unsigned long long>(s.end_ns - base));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::string> names_;
  std::vector<span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// CPUs this process may run on (the affinity mask, which is what a
/// container actually grants), falling back to hardware_concurrency.
[[nodiscard]] inline unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

struct host_fingerprint {
  unsigned nproc = 0;
  std::string simd;
  std::string compiler;
  std::string build_type;
};

[[nodiscard]] inline host_fingerprint fingerprint() {
  return {usable_cpus(), memento::simd::tier_name(memento::simd::active()), __VERSION__,
          PERFBENCH_BUILD_TYPE};
}

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The runner's contract line: {"correct", "attempted", "failed", "metrics"}.
inline void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                         const std::vector<metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
