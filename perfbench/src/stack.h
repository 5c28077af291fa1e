// How the benchmark builds the system under test: one platform
// configuration for every workload, the front-end shapes, the admission
// cycle every workload runs, and a bare consumer for the traced replay.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/bootstrap.h"
#include "frontend/frontend.h"
#include "inputs.h"
#include "verifier/loader.h"

namespace perfbench {

namespace dfl = deflection;

// Sealed streaming delivery is paced in chunks of this many bytes.
inline constexpr std::uint64_t kStreamChunk = 64 * 1024;

// The platform every workload runs: default consumer layout and VM, P1-P6
// required, serial verification (VerifyConfig::workers = 1).
dfl::core::BootstrapConfig platform_config();

// A front end of `shards` x `slots`, sealing its admission cache to
// `store_path` only when asked (save_sealed / stop), not on every
// registration.
dfl::frontend::FrontEndOptions front_end_options(int shards, int slots,
                                                 const std::string& store_path = "");

std::unique_ptr<dfl::frontend::ShardedFrontEnd> create_front_end(
    const dfl::frontend::FrontEndOptions& options);

// The CPUs the calling thread may run on, lowest first.
std::vector<int> allowed_cpus();
// Confines the calling thread to `cpus`. Threads it starts afterwards
// inherit the confinement.
void confine_thread(const std::vector<int>& cpus);

// `count` tenant ids with `prefix`, each homed on its own shard of `fe`.
std::vector<std::string> ids_on_distinct_shards(const dfl::frontend::ShardedFrontEnd& fe,
                                                const std::string& prefix, int count);

// The consumer's loader without the rest of the bootstrap enclave: an
// address space and enclave built at the slot layout, into which binaries
// are loaded, disassembled, verified and rewritten one call at a time.
class BareConsumer {
 public:
  explicit BareConsumer(const dfl::core::BootstrapConfig& config);
  dfl::sgx::AddressSpace& space() { return *space_; }
  dfl::Result<dfl::verifier::LoadedBinary> load(const dfl::codegen::Dxo& dxo);
  dfl::Result<dfl::verifier::LoadedBinary> resolve(const dfl::codegen::Dxo& dxo) const;

 private:
  std::unique_ptr<dfl::sgx::AddressSpace> space_;
  std::unique_ptr<dfl::sgx::Enclave> enclave_;
  dfl::verifier::EnclaveLayout layout_;
};

// --- the admission cycle ---
// One cycle on a fresh 1-shard x 1-slot front end, so every binary is new
// to it:
//   (a) one over-claiming binary, which must be refused with verify_*,
//       then cold register_tenant of each `cold` service;
//   (b) cold register_tenant of each `large` service;
//   (c) streamed registration of each `stream` service;
//   (d) the first submit to each large and streamed tenant (slot bind +
//       serve), checked against the host;
//       then `burst` warm requests to the last bound tenant, one ServeWindow;
//   audit: full verifications == distinct binaries admitted cold + 1 refused;
//   (e) seal, drop the front end, and boot a fresh one from the sealed
//       store, re-registering every tenant: zero verifications, every
//       record loaded, none discarded.
struct CycleSets {
  std::vector<const Service*> cold;
  std::vector<const Service*> large;
  std::vector<const Service*> stream;
  const dfl::codegen::Dxo* overclaim = nullptr;
  std::vector<std::pair<Bytes, Bytes>> burst;  // (request, expected)
};

// Serving figures of one measurement window (or one burst): correct
// responses per second and the latency percentiles of the correct ones.
struct ServeWindow {
  double rps = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
};

struct CycleSamples {
  std::vector<double> cold_ms, large_ms, stream_ms, bind_ms, boot_ms;
  std::vector<ServeWindow> serve;  // one per burst
};

void run_cycle(const CycleSets& sets, const std::string& store_path, Tally& tally,
               CycleSamples& samples);

}  // namespace perfbench
