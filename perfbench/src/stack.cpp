#include "stack.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

namespace perfbench {

dfl::core::BootstrapConfig platform_config() {
  dfl::core::BootstrapConfig config;
  config.verify.required = kPolicies;
  return config;
}

dfl::frontend::FrontEndOptions front_end_options(int shards, int slots,
                                                 const std::string& store_path) {
  dfl::frontend::FrontEndOptions options;
  options.shards = shards;
  options.slots_per_shard = slots;
  options.shard.config = platform_config();
  options.sealed_store_path = store_path;
  options.platform.platform_id = "perfbench-platform";
  options.seal_on_register = false;
  return options;
}

std::unique_ptr<dfl::frontend::ShardedFrontEnd> create_front_end(
    const dfl::frontend::FrontEndOptions& options) {
  auto fe = dfl::frontend::ShardedFrontEnd::create(options);
  if (!fe.is_ok()) {
    std::fprintf(stderr, "perfbench: front end create failed: %s: %s\n", fe.code().c_str(),
                 fe.message().c_str());
    std::exit(1);
  }
  return fe.take();
}

std::vector<std::string> ids_on_distinct_shards(const dfl::frontend::ShardedFrontEnd& fe,
                                                const std::string& prefix, int count) {
  std::vector<std::string> ids;
  std::set<int> used;
  for (int i = 0; static_cast<int>(ids.size()) < std::min(count, fe.shards()); ++i) {
    std::string id = prefix + std::to_string(i);
    if (used.insert(fe.home_shard(id)).second) ids.push_back(id);
  }
  return ids;
}

BareConsumer::BareConsumer(const dfl::core::BootstrapConfig& config) {
  layout_ = dfl::verifier::EnclaveLayout::compute(config.enclave_base, config.layout);
  space_ = std::make_unique<dfl::sgx::AddressSpace>(config.host_base, config.host_size,
                                                    config.enclave_base, layout_.enclave_size);
  enclave_ = std::make_unique<dfl::sgx::Enclave>(*space_, layout_.ssa_addr);
  auto built = dfl::verifier::Loader::build_enclave(
      *enclave_, config.enclave_base, config.layout,
      dfl::core::BootstrapEnclave::consumer_image(config));
  if (!built.is_ok()) {
    std::fprintf(stderr, "perfbench: bare consumer build failed: %s\n",
                 built.message().c_str());
    std::exit(1);
  }
  layout_ = built.value();
}

dfl::Result<dfl::verifier::LoadedBinary> BareConsumer::load(const dfl::codegen::Dxo& dxo) {
  dfl::verifier::Loader loader(*enclave_, layout_);
  return loader.load(dxo);
}

dfl::Result<dfl::verifier::LoadedBinary> BareConsumer::resolve(
    const dfl::codegen::Dxo& dxo) const {
  dfl::verifier::Loader loader(*enclave_, layout_);
  return loader.resolve(dxo);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

void confine_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void run_cycle(const CycleSets& sets, const std::string& store_path, Tally& tally,
               CycleSamples& samples) {
  std::filesystem::remove(store_path);
  auto options = front_end_options(1, 1, store_path);
  // The burst client and the front end's serving thread share one CPU on
  // every cycle: threads inherit the affinity of the thread that starts
  // them, so the front end is created, and the burst sent, from the first
  // CPU. Left to the scheduler, whether the two share a CPU changes from
  // cycle to cycle, and with it the burst latency; apart, every request
  // waits for a wake-up across CPUs, which a busy host delays most.
  const std::vector<int> cpus = allowed_cpus();
  const std::vector<int> first = {cpus.empty() ? 0 : cpus.front()};
  confine_thread(first);
  auto fe = create_front_end(options);
  confine_thread(cpus);

  auto register_all = [&](const std::vector<const Service*>& services,
                          std::vector<double>& out) {
    for (const Service* s : services) {
      auto t0 = Clock::now();
      auto r = fe->register_tenant(s->id, s->dxo);
      double ms = ms_since(t0);
      if (r.is_ok()) out.push_back(ms);
      tally.op(r.is_ok(), [&] { return "register " + s->id + ": " + r.code() + ": " + r.message(); });
    }
  };

  // (a) the over-claiming binary, then cold registrations. The refusal
  // goes first so that it, not a timed registration, pays for creating the
  // registry's scratch consumer: every timed one then resets a used one.
  std::uint64_t refused = 0;
  if (sets.overclaim != nullptr) {
    auto r = fe->register_tenant("overclaim", *sets.overclaim);
    bool ok = !r.is_ok() && r.code().rfind("verify_", 0) == 0;
    tally.op(ok, [&] { return "over-claiming binary not refused with verify_*: " +
                              (r.is_ok() ? std::string("admitted") : r.code()); });
    refused = 1;
  }
  register_all(sets.cold, samples.cold_ms);
  // (b) large services, cold.
  register_all(sets.large, samples.large_ms);
  // (c) streamed registrations.
  for (const Service* s : sets.stream) {
    auto t0 = Clock::now();
    dfl::Status status = dfl::Status::ok();
    auto handle = fe->register_tenant_stream_begin(s->id, s->dxo);
    if (!handle.is_ok()) status = handle.status();
    for (std::uint64_t left = 1; status.is_ok() && left > 0;) {
      auto fed = fe->register_tenant_stream_feed(handle.value(), kStreamChunk);
      if (fed.is_ok()) left = fed.value();
      else status = fed.status();
    }
    if (status.is_ok()) status = fe->register_tenant_stream_commit(handle.value()).status();
    double ms = ms_since(t0);
    if (status.is_ok()) samples.stream_ms.push_back(ms);
    tally.op(status.is_ok(), [&] {
      return "streamed registration of " + s->id + ": " + status.code() + ": " + status.message();
    });
  }
  // (d) requests that bind the slot: with one slot, each submit to the next
  // tenant evicts the one before it (enclave reset, handshake, delivery,
  // cached verdict, rewrite, serve). The first pass, each tenant's first
  // request, is untimed: it binds the pristine slot and lets the fresh
  // front end's memory settle. The second pass is timed.
  std::vector<const Service*> bound = sets.large;
  bound.insert(bound.end(), sets.stream.begin(), sets.stream.end());
  for (int pass = 0; pass < 2; ++pass)
    for (const Service* s : bound) {
      auto t0 = Clock::now();
      auto response = fe->submit(s->id, s->request);
      double ms = ms_since(t0);
      bool ok = response_ok(response, s->expected);
      if (ok && pass == 1) samples.bind_ms.push_back(ms);
      tally.op(ok, [&] { return response_problem(s->id, response); });
    }
  if (!sets.burst.empty() && !bound.empty()) {
    confine_thread(first);
    std::vector<double> latency_us;
    auto b0 = Clock::now();
    for (const auto& [request, expected] : sets.burst) {
      auto t0 = Clock::now();
      auto response = fe->submit(bound.back()->id, request);
      double us = us_since(t0);
      bool ok = response_ok(response, expected);
      if (ok) latency_us.push_back(us);
      tally.op(ok, [&] { return response_problem(bound.back()->id, response); });
    }
    double s = seconds_since(b0);
    samples.serve.push_back(ServeWindow{static_cast<double>(latency_us.size()) / s,
                                        percentile(latency_us, 50),
                                        percentile(latency_us, 90)});
    confine_thread(cpus);
  }
  // Audit: one full verification per distinct binary admitted cold, plus
  // the refused one.
  const std::uint64_t admitted = sets.cold.size() + sets.large.size() + sets.stream.size();
  const std::uint64_t misses = fe->stats().total.cache.misses;
  tally.op(misses == admitted + refused, [&] {
    return "full verifications " + std::to_string(misses) + ", expected " +
           std::to_string(admitted + refused);
  });

  // (e) warm boot from the sealed store.
  bool saved = fe->save_sealed().is_ok();
  fe.reset();
  auto t0 = Clock::now();
  auto warm = create_front_end(options);
  bool ok = saved;
  std::string refused_warm;
  for (const auto* set : {&sets.cold, &sets.large, &sets.stream})
    for (const Service* s : *set)
      if (auto r = warm->register_tenant(s->id, s->dxo); !r.is_ok()) {
        ok = false;
        refused_warm += " " + s->id + " (" + r.code() + ")";
      }
  double ms = ms_since(t0);
  auto stats = warm->stats();
  ok = ok && stats.total.cache.misses == 0 && stats.sealed_records_loaded == admitted &&
       stats.sealed_records_discarded == 0;
  if (ok) samples.boot_ms.push_back(ms);
  tally.op(ok, [&] {
    return "warm boot: saved " + std::to_string(saved) + ", refused" + refused_warm +
           ", verifications " +
           std::to_string(stats.total.cache.misses) + ", records loaded " +
           std::to_string(stats.sealed_records_loaded) + " discarded " +
           std::to_string(stats.sealed_records_discarded);
  });
  warm.reset();
  std::filesystem::remove(store_path);
}

}  // namespace perfbench
