// Shared plumbing of the end-to-end benchmark: clocks, sample statistics,
// the operation tally, the result line, the span recorder and the seeded
// input generator.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }
inline double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

// Median (mean of the middle pair for even counts). Empty -> 0.
double median(std::vector<double> values);
// Mean of the middle half of the values (between the first and third
// quartile, by rank). Empty -> 0.
double interquartile_mean(std::vector<double> values);
// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> values, double p);

// Input generator of the benchmark itself (splitmix64), kept apart from the
// program's own Rng so that a change to the program cannot change the
// inputs it is measured on.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  // An independent stream for one named purpose.
  Gen fork(std::uint64_t salt) { return Gen(next() ^ (salt * 0xD1B54A32D192ED03ull)); }

 private:
  std::uint64_t state_;
};

// Operations attempted and failed. A failed check marks its operation
// failed; it never aborts the run.
class Tally {
 public:
  void op(bool ok) {
    op(ok, [] { return std::string("check failed"); });
  }
  // `describe` says what went wrong; the first failures are logged to
  // stderr.
  template <typename Describe>
  void op(bool ok, Describe&& describe) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok && failed_.fetch_add(1, std::memory_order_relaxed) < kLogged)
      std::fprintf(stderr, "perfbench: failed operation: %s\n", describe().c_str());
  }
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  static constexpr std::uint64_t kLogged = 20;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Prints the result object as one JSON line on stdout (the last line the
// benchmark prints).
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

// Peak resident set size of this process, in MB.
double rss_peak_mb();

// CPU model, core count, compiler and build type, as one line.
std::string host_fingerprint();

// In-memory span recorder of the traced run. A span names a layer's entry
// point; spans of one replayed input share a request id, and `parent`
// points at the span of the layer above for the same input (0 = none).
// Written out as JSON lines when the run ends.
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::string name;
    double start_us = 0.0;  // since the tracer was created
    double end_us = 0.0;
    double us() const { return end_us - start_us; }
  };

  Tracer() : epoch_(Clock::now()) {}

  // Records a finished span and returns its id.
  std::uint64_t record(const std::string& name, std::uint64_t request, std::uint64_t parent,
                       Clock::time_point start, Clock::time_point end);

  // Durations (us) of every span with this name, in recording order.
  std::vector<double> durations(const std::string& name) const;
  // Per-request self time of `name` against `child`: the span of `name`
  // minus the span of `child` for the same request (us), over the requests
  // that have both.
  std::vector<double> self_times(const std::string& name, const std::string& child) const;

  bool write(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  mutable std::mutex mutex_;
};

}  // namespace perfbench
