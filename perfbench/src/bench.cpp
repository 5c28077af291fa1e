#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sstream>
#include <thread>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t lo = values.size() / 4, hi = values.size() - values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

double rss_peak_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string host_fingerprint() {
  // The CPU's brand string, from CPUID leaves 0x80000002-4.
  std::string cpu = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string text = brand;
    auto first = text.find_first_not_of(' ');
    if (first != std::string::npos) cpu = text.substr(first, text.find_last_not_of(' ') - first + 1);
  }
#endif
  std::ostringstream out;
  out << "cpu=\"" << cpu << "\" cores=" << std::thread::hardware_concurrency()
      << " compiler=\"" << __VERSION__ << "\" build=" << PERFBENCH_BUILD_TYPE;
  return out.str();
}

std::uint64_t Tracer::record(const std::string& name, std::uint64_t request,
                             std::uint64_t parent, Clock::time_point start,
                             Clock::time_point end) {
  std::lock_guard lock(mutex_);
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_us = std::chrono::duration<double, std::micro>(start - epoch_).count();
  span.end_us = std::chrono::duration<double, std::micro>(end - epoch_).count();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name) out.push_back(s.us());
  return out;
}

std::vector<double> Tracer::self_times(const std::string& name,
                                       const std::string& child) const {
  std::lock_guard lock(mutex_);
  std::map<std::uint64_t, double> child_us;
  for (const auto& s : spans_)
    if (s.name == child) child_us[s.request] = s.us();
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name != name) continue;
    auto it = child_us.find(s.request);
    if (it != child_us.end()) out.push_back(s.us() - it->second);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& s : spans_) {
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.name.c_str(), s.start_us,
                  s.end_us);
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
