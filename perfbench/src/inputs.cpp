#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "workloads/workloads.h"

namespace perfbench {

namespace dfl = deflection;

namespace {

int round16(int n) { return (n + 15) / 16 * 16; }

Bytes le64(std::uint64_t v) {
  Bytes out(8);
  for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(i)] = (v >> (8 * i)) & 0xFF;
  return out;
}

std::uint64_t large_coefficient(int i, std::uint64_t salt) {
  return (static_cast<std::uint64_t>(i) * 7 + salt) % 249 + 2;
}

// Reply epilogue shared by the echo and large services: v as 8 LE bytes.
const char* kSendV = R"(
    byte* out = alloc(8);
    for (int i = 0; i < 8; i += 1) { out[i] = (v >> (i * 8)) & 255; }
    ocall_send(out, 8);
    return 0;
  }
)";

}  // namespace

std::string echo_source(int t) {
  return R"(
  int main() {
    byte* buf = alloc(64);
    int n = ocall_recv(buf, 64);
    if (n < 1) { return 1; }
    int acc = 0;
    for (int i = 0; i < n; i += 1) { acc += buf[i] * buf[i]; }
    int v = acc % )" + std::to_string(251 - t) + ";" + kSendV;
}

std::string large_source(int t, std::uint64_t salt) {
  std::string body;
  for (int i = 0; i < kLargeStatements; ++i)
    body += "    acc += buf[" + std::to_string(i % 64) + "] * " +
            std::to_string(large_coefficient(i, salt)) + ";\n";
  return R"(
  int main() {
    byte* buf = alloc(64);
    int n = ocall_recv(buf, 64);
    if (n < 1) { return 1; }
    int acc = 0;
)" + body + "    int v = acc % " + std::to_string(251 - t) + ";" + kSendV;
}

std::string image_source(int bufcap) {
  return dfl::workloads::with_params(dfl::workloads::image_editing_source(),
                                     {{"BUFCAP", std::to_string(bufcap)}});
}

std::size_t nbench_count() { return dfl::workloads::nbench_kernels().size(); }

std::string nbench_source(std::size_t k, Gen& gen) {
  const auto& kernel = dfl::workloads::nbench_kernels().at(k);
  auto params = kernel.bench_params;
  const std::string& key = params.begin()->first;
  long lo = std::atol(kernel.test_params.at(key).c_str());
  long hi = std::atol(params.at(key).c_str());
  if (lo > hi) std::swap(lo, hi);
  params[key] = std::to_string(gen.range(lo, hi));
  return dfl::workloads::with_params(kernel.source, params);
}

dfl::codegen::Dxo compile_or_die(const std::string& source, PolicySet policies,
                                 double* compile_ms) {
  auto t0 = Clock::now();
  auto compiled = dfl::codegen::compile(source, policies);
  if (compile_ms != nullptr) *compile_ms = ms_since(t0);
  if (!compiled.is_ok()) {
    std::fprintf(stderr, "perfbench: service does not compile: %s: %s\n",
                 compiled.code().c_str(), compiled.message().c_str());
    std::exit(1);
  }
  return compiled.take().dxo;
}

Bytes echo_request(Gen& gen) {
  Bytes out(static_cast<std::size_t>(gen.range(1, 64)));
  for (auto& b : out) b = static_cast<std::uint8_t>(gen.next());
  return out;
}

Bytes large_request(Gen& gen) {
  Bytes out(64);
  for (auto& b : out) b = static_cast<std::uint8_t>(gen.next());
  return out;
}

Bytes image_request(Shape shape, Gen& gen) {
  Bytes out = le64(static_cast<std::uint64_t>(shape.w));
  Bytes h = le64(static_cast<std::uint64_t>(shape.h));
  out.insert(out.end(), h.begin(), h.end());
  // A bright disc on dark noise, so the threshold splits the image.
  int cx = static_cast<int>(gen.range(0, shape.w - 1));
  int cy = static_cast<int>(gen.range(0, shape.h - 1));
  int r2 = static_cast<int>(gen.range(16, 400));
  for (int y = 0; y < shape.h; ++y)
    for (int x = 0; x < shape.w; ++x) {
      int base = (x - cx) * (x - cx) + (y - cy) * (y - cy) < r2 ? 180 : 30;
      out.push_back(static_cast<std::uint8_t>(base + static_cast<int>(gen.next() % 64)));
    }
  return out;
}

Bytes echo_expected(const Bytes& request, int t) {
  std::uint64_t acc = 0;
  for (std::uint8_t b : request) acc += static_cast<std::uint64_t>(b) * b;
  return le64(acc % static_cast<std::uint64_t>(251 - t));
}

Bytes large_expected(const Bytes& request, int t, std::uint64_t salt) {
  std::uint64_t acc = 0;
  for (int i = 0; i < kLargeStatements; ++i)
    acc += request.at(static_cast<std::size_t>(i % 64)) * large_coefficient(i, salt);
  return le64(acc % static_cast<std::uint64_t>(251 - t));
}

Bytes image_expected(const Bytes& request) {
  auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | request.at(off + static_cast<std::size_t>(i));
    return static_cast<int>(v);
  };
  const int w = u64_at(0), h = u64_at(8);
  auto src = [&](int x, int y) { return static_cast<int>(request.at(16 + static_cast<std::size_t>(y * w + x))); };
  std::vector<int> blur(static_cast<std::size_t>(w * h));
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      int v = src(x, y);
      if (x > 0 && y > 0 && x < w - 1 && y < h - 1) {
        int sum = 0;
        for (int dy = -1; dy <= 1; ++dy)
          for (int dx = -1; dx <= 1; ++dx) sum += src(x + dx, y + dy);
        v = sum / 9;
      }
      blur[static_cast<std::size_t>(y * w + x)] = v;
    }
  long total = 0;
  for (int v : blur) total += v;
  long mean = total / (w * h);
  Bytes out;
  out.reserve(blur.size());
  for (int v : blur) out.push_back(v >= mean ? 255 : 0);
  return out;
}

bool response_ok(const dfl::registry::TenantRouter::Response& response,
                 const Bytes& expected) {
  return response.is_ok() && response.value().size() == 1 &&
         response.value()[0] == expected;
}

std::string response_problem(const std::string& tenant,
                             const dfl::registry::TenantRouter::Response& response) {
  if (!response.is_ok()) return tenant + ": " + response.code() + ": " + response.message();
  if (response.value().size() != 1)
    return tenant + ": " + std::to_string(response.value().size()) + " outputs";
  return tenant + ": output differs from the host's answer";
}

ImagePlan plan_image_heap(std::uint64_t heap_bytes) {
  const std::uint64_t buffers = 2 * static_cast<std::uint64_t>(round16(kImageBufcap));
  const std::uint64_t min_request = round16(kImageBufcap) + 256;
  ImagePlan plan;
  plan.heap_bytes = heap_bytes;
  // Search outward from the middle of the area range for a pair size that
  // leaves less heap over than the smallest request needs: then no request
  // after the last whole pair can fit, whichever shape it has.
  for (int step = 0; step <= 160; ++step) {
    int offset = (step + 1) / 2 * 16 * (step % 2 == 1 ? 1 : -1);
    int area = 3328 + offset;
    std::uint64_t pair_bytes = buffers + static_cast<std::uint64_t>(area);
    if (heap_bytes % pair_bytes < min_request) {
      plan.pair_area = area;
      plan.pair_bytes = pair_bytes;
      plan.pairs_ok = heap_bytes / pair_bytes;
      return plan;
    }
  }
  std::fprintf(stderr, "perfbench: no image pair size fits a heap of %llu bytes\n",
               static_cast<unsigned long long>(heap_bytes));
  std::exit(1);
}

std::pair<Shape, Shape> image_pair(int pair_area, Gen& gen) {
  for (;;) {
    Shape a{static_cast<int>(gen.range(16, 64)), static_cast<int>(gen.range(16, 48))};
    int rest = pair_area - round16(a.w * a.h);
    if (rest < 256 || rest > 64 * 48) continue;
    // A partner shape whose area rounds up to exactly `rest`.
    int h0 = static_cast<int>(gen.range(16, 48));
    for (int k = 0; k < 33; ++k) {
      int h = 16 + (h0 - 16 + k) % 33;
      int w = rest / h;
      if (w < 16 || w > 64 || round16(w * h) != rest) continue;
      Shape b{w, h};
      return gen.next() % 2 == 0 ? std::make_pair(a, b) : std::make_pair(b, a);
    }
  }
}

}  // namespace perfbench
