// The three workloads and the traced replay.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "stack.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch files (sealed stores, span dumps)
};

// Seeded request stream of one served tenant: request and host answer.
class RequestStream {
 public:
  virtual ~RequestStream() = default;
  virtual std::pair<Bytes, Bytes> next() = 0;
};

// Everything one workload runs on, made from the seed.
struct Inputs {
  std::string workload;
  std::vector<Service> tenants;  // the served tenants (serve-*)
  std::deque<Service> cold, large, stream;  // admission cycle sets
  std::optional<deflection::codegen::Dxo> overclaim;
  std::vector<std::pair<Bytes, Bytes>> burst;  // warm requests after the binds
  std::vector<double> compile_ms;              // one per compiled service
  std::uint64_t seed = 0;

  // The request stream of served tenant `i` (or, for admit, of the last
  // streamed tenant), for the stream id `which` (0 = measured traffic).
  std::unique_ptr<RequestStream> requests(std::size_t i, std::uint64_t which) const;
  CycleSets cycle_sets() const;
  // The tenant whose requests the serve chain replays.
  const Service& served() const;
  // Only for serve-image: the slot heap plan.
  ImagePlan image_plan;
};

Inputs make_inputs(const std::string& workload, std::uint64_t seed);

// Runs the workload with tracing off and prints the end-to-end result.
int run_workload(const Args& args);
// Replays the workload's inputs at each layer and prints the per-layer
// result.
int run_traced(const Args& args);
// Shows that the output checks catch a corrupted response byte and a wrong
// expected value.
int run_selftest();

}  // namespace perfbench
