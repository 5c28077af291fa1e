// Inputs of the benchmark and the checks on the program's outputs.
//
// Every service binary is compiled from MiniC here; every request is made
// by the benchmark's own seeded generator; every expected response is
// computed on the host by code that shares nothing with the program (no
// VM, no compiler, no MiniC interpreter).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "codegen/compile.h"
#include "registry/router.h"

namespace perfbench {

using deflection::Bytes;
using deflection::PolicySet;

// Platform policy floor of every workload; every service is compiled with
// P1-P6 annotations.
inline constexpr PolicySet kPolicies = PolicySet::p1to6();

// Unrolled-reduction statements of a large service: 1024 fits the
// 256 KB text region at P1-P6 (~155 KB); 2048 is refused as too large.
inline constexpr int kLargeStatements = 1024;

// The image service's input buffer (MiniC BUFCAP), as in the paper's
// image-editing scenario.
inline constexpr int kImageBufcap = 16384;

// --- service sources ---
// Echo: Σ b² mod (251 - t) over the request bytes, sent back as 8 LE bytes.
std::string echo_source(int t);
// Large: Σ buf[i mod 64] · c_i mod (251 - t) over kLargeStatements unrolled
// statements, c_i = (7 i + salt) mod 249 + 2.
std::string large_source(int t, std::uint64_t salt);
// The paper's image-editing service (3x3 box blur, threshold at the mean).
std::string image_source(int bufcap);
// Table II nBench kernel `k` with its first parameter set to a seeded value
// between the kernel's test and bench values.
std::string nbench_source(std::size_t k, Gen& gen);
std::size_t nbench_count();

// --- one service as the benchmark drives it ---
struct Service {
  std::string id;              // tenant id
  deflection::codegen::Dxo dxo;
  double compile_ms = 0.0;
  int t = 0;                   // modulus index: answers are mod (251 - t)
  std::uint64_t salt = 0;      // large services: coefficient salt
  Bytes request;               // a seeded request, sent as the first request
  Bytes expected;              // the host's answer to `request`
};

// Compiles `source` at `policies`; fails the process on a compile error
// (an input the benchmark cannot build is a broken benchmark).
deflection::codegen::Dxo compile_or_die(const std::string& source, PolicySet policies,
                                        double* compile_ms);

// --- seeded requests ---
Bytes echo_request(Gen& gen);       // 1-64 bytes
Bytes large_request(Gen& gen);      // exactly 64 bytes
struct Shape {
  int w = 0;
  int h = 0;
};
Bytes image_request(Shape shape, Gen& gen);  // [u64 w][u64 h][w*h pixels]

// --- host references ---
Bytes echo_expected(const Bytes& request, int t);
Bytes large_expected(const Bytes& request, int t, std::uint64_t salt);
Bytes image_expected(const Bytes& request);

// A response is correct when it is exactly one output equal to `expected`.
bool response_ok(const deflection::registry::TenantRouter::Response& response,
                 const Bytes& expected);
// What is wrong with a response that is not correct.
std::string response_problem(const std::string& tenant,
                             const deflection::registry::TenantRouter::Response& response);

// --- image heap plan ---
// The image service allocates its 16 KB input buffer and a w*h output
// buffer from the slot's bump heap on every request, and the heap is never
// reclaimed between requests, so a slot serves a bounded number of images
// and then answers every further request through the OOM stub. To make the
// number of failed requests identical on every run, images come in pairs
// whose rounded areas sum to `pair_area`; every pair then takes exactly
// pair_bytes of heap and exactly `pairs_ok` pairs fit, whatever the seed.
struct ImagePlan {
  std::uint64_t heap_bytes = 0;
  int pair_area = 3328;  // the middle of the range; any value in it is valid

  std::uint64_t pair_bytes = 0;
  std::uint64_t pairs_ok = 0;
};
ImagePlan plan_image_heap(std::uint64_t heap_bytes);
// Two seeded shapes in 16-64 x 16-48 whose rounded areas sum to pair_area.
std::pair<Shape, Shape> image_pair(int pair_area, Gen& gen);

}  // namespace perfbench
