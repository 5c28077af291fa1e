// The traced run: the workload's own inputs replayed at each layer's public
// entry points, one layer at a time, with a span around every call.
//
//   serve chain (per request r):  ShardedFrontEnd::submit
//                                 -> TenantRouter::submit
//                                 -> ServiceWorker::serve
//                                 -> ecall_receive_userdata, ecall_run
//   admission chain (per binary): ServiceWorker(), reset, handshake,
//                                 delivery, prepare; then load, disassemble,
//                                 verify, rewrite on a bare consumer; the
//                                 cache, the sealed store and the front end
//                                 booted from it.
//
// A layer's self time is its span minus the span of the layer below for
// the same input.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/protocol.h"
#include "core/worker.h"
#include "crypto/cipher.h"
#include "verifier/disasm.h"
#include "verifier/sealed_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = deflection::core;
namespace verifier = deflection::verifier;
namespace crypto = deflection::crypto;

constexpr int kRepeats = 3;  // repetitions of each admission-chain call

// Requests replayed per layer.
int replay_requests(const std::string& workload) {
  if (workload == "serve-image") return 150;
  return workload == "admit" ? 1000 : 2000;
}

// Timed call: returns the duration in `unit_scale` units (1e3 = ms, 1e6 = us).
template <typename F>
double timed(double unit_scale, F&& f) {
  auto t0 = Clock::now();
  f();
  return seconds_since(t0) * unit_scale;
}

// The attested channel handshake of both remote parties.
bool handshake(core::BootstrapEnclave& enclave, core::DataOwner& owner,
               core::CodeProvider& provider) {
  auto o = enclave.open_channel(core::Role::DataOwner, owner.dh_public());
  if (!owner.accept(o).is_ok()) return false;
  auto p = enclave.open_channel(core::Role::CodeProvider, provider.dh_public());
  return provider.accept(p).is_ok();
}

bool outputs_ok(const core::DataOwner& owner, const core::RunOutcome& outcome,
                const Bytes& expected) {
  if (outcome.sealed_output.size() != 1) return false;
  auto plain = owner.open_output(deflection::BytesView(outcome.sealed_output[0]));
  return plain.is_ok() && plain.value() == expected;
}

}  // namespace

int run_traced(const Args& args) {
  Tally tally;
  Tracer tracer;
  Inputs in = make_inputs(args.workload, args.seed);
  const core::BootstrapConfig config = platform_config();
  const bool serve = args.workload != "admit";
  if (args.workload == "serve-image") {
    BareConsumer consumer(config);
    auto loaded = consumer.resolve(in.tenants[0].dxo);
    if (loaded.is_ok())
      in.image_plan = plan_image_heap(loaded.value().heap_end - loaded.value().heap_base);
  }
  const Service& served = in.served();
  std::vector<std::pair<Bytes, Bytes>> requests;
  {
    auto stream = in.requests(0, 0);
    for (int i = 0; i < replay_requests(args.workload); ++i) requests.push_back(stream->next());
  }
  const std::size_t n = requests.size();
  std::vector<std::uint64_t> fe_span(n), reg_span(n), serve_span(n);
  // The replay runs on one CPU, and so do the serving threads of the front
  // ends and routers it creates (they inherit the confinement): every layer
  // runs on the same core, so that one layer's span minus the next one's
  // is that layer's own cost, not a difference between two cores.
  if (auto cpus = allowed_cpus(); !cpus.empty()) confine_thread({cpus.front()});

  // --- frontend: the workload's own front-end shape, untraced and traced ---
  std::vector<double> plain_us, traced_us;
  std::uint64_t binds = 0;
  {
    auto fe = create_front_end(serve ? front_end_options(2, 1) : front_end_options(1, 1));
    tally.op(fe->register_tenant("served", served.dxo).is_ok());
    tally.op(response_ok(fe->submit("served", requests[0].first), requests[0].second));
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [request, expected] = requests[i];
      auto t0 = Clock::now();
      auto r = fe->submit("served", request);
      plain_us.push_back(us_since(t0));
      tally.op(response_ok(r, expected));
      t0 = Clock::now();
      r = fe->submit("served", request);
      auto t1 = Clock::now();
      fe_span[i] = tracer.record("frontend.submit", i, 0, t0, t1);
      tally.op(response_ok(r, expected));
    }
    binds = fe->stats().total.scheduler.binds;
  }
  traced_us = tracer.durations("frontend.submit");

  // --- registry: a router with the shard's options ---
  {
    auto options = front_end_options(1, 1).shard;
    options.slots = 1;
    auto router = deflection::registry::TenantRouter::create(options);
    if (!router.is_ok()) {
      std::fprintf(stderr, "perfbench: router create failed: %s\n", router.message().c_str());
      return 1;
    }
    tally.op(router.value()->register_tenant("served", served.dxo).is_ok());
    tally.op(response_ok(router.value()->submit("served", requests[0].first), requests[0].second));
    for (std::size_t i = 0; i < n; ++i) {
      auto t0 = Clock::now();
      auto r = router.value()->submit("served", requests[i].first);
      reg_span[i] = tracer.record("registry.submit", i, fe_span[i], t0, Clock::now());
      tally.op(response_ok(r, requests[i].second));
    }
  }

  // --- core: one worker, then one bare bootstrap enclave ---
  deflection::sgx::AttestationService as;
  {
    core::ServiceWorker worker(as, config, 0, "perfbench-replay-", "replay");
    tally.op(worker.provision(served.dxo, false, true).is_ok());
    tally.op(response_ok(worker.serve(requests[0].first), requests[0].second));
    for (std::size_t i = 0; i < n; ++i) {
      auto t0 = Clock::now();
      auto r = worker.serve(requests[i].first);
      serve_span[i] = tracer.record("core.serve", i, reg_span[i], t0, Clock::now());
      tally.op(response_ok(r, requests[i].second));
    }
  }
  auto quoting = as.provision("perfbench-enclave", 77);
  const auto mrenclave = core::BootstrapEnclave::expected_mrenclave(config);
  std::vector<double> instructions, run_us;
  {
    core::BootstrapEnclave enclave(quoting, config);
    core::DataOwner owner(as, mrenclave, 0xDA7A);
    core::CodeProvider provider(as, mrenclave, 0xC0DE);
    bool ready = handshake(enclave, owner, provider) &&
                 enclave.ecall_receive_binary(provider.seal_binary(served.dxo)).is_ok() &&
                 enclave.ecall_prepare().is_ok();
    tally.op(ready);
    for (std::size_t i = 0; ready && i < n; ++i) {
      Bytes sealed = owner.seal_input(requests[i].first);
      auto t0 = Clock::now();
      bool ok = enclave.ecall_receive_userdata(sealed).is_ok();
      auto t1 = Clock::now();
      tracer.record("core.userdata", i, serve_span[i], t0, t1);
      auto outcome = enclave.ecall_run();
      auto t2 = Clock::now();
      tracer.record("core.run", i, serve_span[i], t1, t2);
      ok = ok && outcome.is_ok() && outputs_ok(owner, outcome.value(), requests[i].second);
      if (outcome.is_ok()) {
        instructions.push_back(static_cast<double>(outcome.value().result.instructions));
        run_us.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
      }
      tally.op(ok);
    }
  }

  // --- admission chain over the workload's cold binaries ---
  std::vector<const Service*> cold;
  for (const auto& s : in.cold) cold.push_back(&s);
  if (serve) cold.push_back(&in.tenants[0]);
  std::vector<const Service*> large;
  for (const auto* set : {&in.large, &in.stream})
    for (const auto& s : *set) large.push_back(&s);

  std::vector<double> worker_new_ms, reset_ms, handshake_us, deliver_ms, prepare_ms,
      prepare_hit_ms;
  for (int r = 0; r < kRepeats; ++r)
    worker_new_ms.push_back(timed(1e3, [&] {
      core::ServiceWorker w(as, config, 1 + r, "perfbench-new-", "new");
    }));
  {
    core::BootstrapConfig cached = config;
    cached.verify_cache = std::make_shared<verifier::VerificationCache>();
    core::BootstrapEnclave enclave(quoting, cached);
    core::DataOwner owner(as, mrenclave, 0xDA7B);
    core::CodeProvider provider(as, mrenclave, 0xC0DF);
    for (const Service* s : cold)
      for (int r = 0; r < kRepeats; ++r) {
        bool ok = true;
        reset_ms.push_back(timed(1e3, [&] { ok = enclave.reset().is_ok(); }));
        handshake_us.push_back(timed(1e6, [&] { ok = ok && handshake(enclave, owner, provider); }));
        Bytes sealed = provider.seal_binary(s->dxo);
        deliver_ms.push_back(timed(1e3, [&] {
          ok = ok && enclave.ecall_receive_binary(sealed).is_ok();
        }));
        double ms = timed(1e3, [&] { ok = ok && enclave.ecall_prepare().is_ok(); });
        (r == 0 ? prepare_ms : prepare_hit_ms).push_back(ms);
        tally.op(ok);
      }
  }

  std::vector<double> load_ms, disasm_ms, verify_ms, rewrite_us, disasm_large_ms,
      verify_large_ms, cache_hit_us;
  {
    BareConsumer bare(config);
    verifier::VerificationCache cache;
    auto chain = [&](const Service* s, std::vector<double>* load, std::vector<double>& disasm,
                     std::vector<double>& verify, std::vector<double>* rewrite) {
      deflection::Result<verifier::LoadedBinary> loaded = verifier::LoadedBinary{};
      double ms = timed(1e3, [&] { loaded = bare.load(s->dxo); });
      if (load != nullptr) load->push_back(ms);
      bool ok = loaded.is_ok();
      if (!ok) return tally.op(false);
      disasm.push_back(timed(1e3, [&] { ok = verifier::disassemble(bare.space(), loaded.value()).is_ok(); }));
      deflection::Result<verifier::VerifyReport> report = verifier::VerifyReport{};
      verify.push_back(timed(1e3, [&] { report = verifier::verify(bare.space(), loaded.value(), config.verify); }));
      ok = ok && report.is_ok();
      if (ok && rewrite != nullptr)
        rewrite->push_back(timed(1e6, [&] {
          ok = verifier::rewrite_immediates(bare.space(), loaded.value(), report.value()).is_ok();
        }));
      tally.op(ok);
    };
    for (const Service* s : cold)
      for (int r = 0; r < kRepeats; ++r) chain(s, &load_ms, disasm_ms, verify_ms, &rewrite_us);
    for (const Service* s : large) chain(s, nullptr, disasm_large_ms, verify_large_ms, nullptr);
    // A resident verdict, then admissions that hit it.
    for (const Service* s : cold) {
      auto loaded = bare.load(s->dxo);
      if (!loaded.is_ok()) {
        tally.op(false);
        continue;
      }
      auto digest = crypto::Sha256::hash(s->dxo.serialize());
      auto leader = cache.begin_admission(digest, loaded.value(), config.verify);
      auto report = verifier::verify(bare.space(), loaded.value(), config.verify);
      if (report.is_ok()) leader.ticket.publish(loaded.value(), report.value(), 0);
      bool ok = report.is_ok();
      for (int r = 0; r < kRepeats; ++r) {
        using Role = verifier::VerificationCache::Admission::Role;
        Role role = Role::Bypass;
        cache_hit_us.push_back(timed(1e6, [&] {
          role = cache.begin_admission(digest, loaded.value(), config.verify).role;
        }));
        ok = ok && role == Role::Hit;
      }
      tally.op(ok);
    }
  }

  // --- registry and front end: cold registration, the sealed store, boot ---
  std::vector<double> register_ms, fe_register_ms, create_ms, sealed_load_ms;
  std::uint64_t full_verifications = 0;
  {
    auto options = front_end_options(1, 1).shard;
    options.slots = 1;
    auto router = deflection::registry::TenantRouter::create(options);
    for (const Service* s : cold) {
      bool ok = router.is_ok();
      if (ok) register_ms.push_back(timed(1e3, [&] {
        ok = router.value()->register_tenant(s->id, s->dxo).is_ok();
      }));
      tally.op(ok);
    }
  }
  const std::string store = args.work_dir + "/replay-store.sealed";
  std::filesystem::remove(store);
  auto fe_options = front_end_options(1, 1, store);
  {
    auto fe = create_front_end(fe_options);
    for (const Service* s : cold) {
      bool ok = true;
      fe_register_ms.push_back(timed(1e3, [&] { ok = fe->register_tenant(s->id, s->dxo).is_ok(); }));
      tally.op(ok);
    }
    full_verifications = fe->stats().total.cache.misses;
    tally.op(full_verifications == cold.size());
    tally.op(fe->save_sealed().is_ok());
  }
  for (int r = 0; r < kRepeats; ++r) {
    create_ms.push_back(timed(1e3, [&] { create_front_end(fe_options); }));
    verifier::SealedCacheStore sealed(fe_options.platform);
    verifier::VerificationCache cache;
    verifier::SealedCacheStore::LoadStats loaded;
    sealed_load_ms.push_back(timed(1e3, [&] { loaded = sealed.load(store, config.verify, cache); }));
    tally.op(loaded.records_loaded == cold.size() && loaded.records_discarded == 0);
  }
  std::filesystem::remove(store);

  // --- sgx, crypto, codegen ---
  std::vector<double> space_ms, quote_us, seal_us, open_us;
  for (int r = 0; r < kRepeats; ++r) {
    auto layout = verifier::EnclaveLayout::compute(config.enclave_base, config.layout);
    space_ms.push_back(timed(1e3, [&] {
      deflection::sgx::AddressSpace space(config.host_base, config.host_size,
                                          config.enclave_base, layout.enclave_size);
    }));
  }
  {
    core::BootstrapEnclave enclave(quoting, config);
    auto offer = enclave.open_channel(core::Role::DataOwner, 12345);
    for (int r = 0; r < 200; ++r) {
      bool ok = false;
      quote_us.push_back(timed(1e6, [&] { ok = as.verify(offer.quote).valid; }));
      if (r == 0) tally.op(ok);
    }
  }
  crypto::Key256 key{};
  crypto::Nonce96 nonce{};
  Gen gen(args.seed);
  for (auto& b : key) b = static_cast<std::uint8_t>(gen.next());
  Bytes frame(static_cast<std::size_t>(config.output_pad_block));
  for (auto& b : frame) b = static_cast<std::uint8_t>(gen.next());
  Bytes sealed_frame;
  for (int r = 0; r < 500; ++r)
    seal_us.push_back(timed(1e6, [&] { sealed_frame = crypto::aead_seal(key, nonce, frame); }));
  for (int r = 0; r < 500; ++r) {
    std::optional<Bytes> opened;
    open_us.push_back(timed(1e6, [&] { opened = crypto::aead_open(key, sealed_frame); }));
    if (r == 0) tally.op(opened.has_value() && *opened == frame);
  }
  const Service* biggest = &served;
  double text_kb = 0.0;
  for (const auto* set : {&in.cold, &in.large, &in.stream})
    for (const auto& s : *set)
      if (s.dxo.text.size() > biggest->dxo.text.size()) biggest = &s;
  text_kb = static_cast<double>(biggest->dxo.text.size()) / 1024.0;
  Bytes blob = biggest->dxo.serialize();
  std::vector<double> aead_s, sha_s;
  for (int r = 0; r < 5; ++r) {
    aead_s.push_back(timed(1.0, [&] { crypto::aead_seal(key, nonce, blob); }));
    sha_s.push_back(timed(1.0, [&] { crypto::Sha256::hash(blob); }));
  }
  const double mb = static_cast<double>(blob.size()) / 1e6;

  // --- roll-up ---
  auto self_med = [&](const char* name, const char* child) {
    return median(tracer.self_times(name, child));
  };
  double sum_instr = 0, sum_run_us = 0;
  for (double v : instructions) sum_instr += v;
  for (double v : run_us) sum_run_us += v;
  const double route = self_med("frontend.submit", "registry.submit");
  const double dispatch = self_med("registry.submit", "core.serve");
  const double userdata = median(tracer.durations("core.userdata"));
  const double run = median(tracer.durations("core.run"));
  const double open = median(open_us);
  // The part of a served request no named layer accounts for: per request,
  // the worker's serve minus the enclave calls, then minus the output
  // frame's open.
  std::vector<double> serve_rest;
  {
    auto serve = tracer.durations("core.serve");
    auto user = tracer.durations("core.userdata");
    auto ran = tracer.durations("core.run");
    for (std::size_t i = 0; i < std::min({serve.size(), user.size(), ran.size()}); ++i)
      serve_rest.push_back(serve[i] - user[i] - ran[i]);
  }
  const double accounted_admit = median(reset_ms) + median(handshake_us) / 1e3 +
                                 median(deliver_ms) + median(load_ms) + median(verify_ms) +
                                 median(rewrite_us) / 1e3;
  std::vector<Metric> metrics = {
      {"frontend.submit_us", median(traced_us), "us"},
      {"frontend.route_us", route, "us"},
      {"frontend.create_ms", median(create_ms), "ms"},
      {"registry.submit_us", median(tracer.durations("registry.submit")), "us"},
      {"registry.dispatch_us", dispatch, "us"},
      {"registry.register_ms", median(register_ms), "ms"},
      {"registry.binds", static_cast<double>(binds), "count"},
      {"core.serve_us", median(tracer.durations("core.serve")), "us"},
      {"core.userdata_us", userdata, "us"},
      {"core.run_us", run, "us"},
      {"core.worker_new_ms", median(worker_new_ms), "ms"},
      {"core.reset_ms", median(reset_ms), "ms"},
      {"core.handshake_us", median(handshake_us), "us"},
      {"core.deliver_ms", median(deliver_ms), "ms"},
      {"core.prepare_ms", median(prepare_ms), "ms"},
      {"core.prepare_hit_ms", median(prepare_hit_ms), "ms"},
      {"crypto.seal_frame_us", median(seal_us), "us"},
      {"crypto.open_frame_us", open, "us"},
      {"crypto.aead_mbps", mb / median(aead_s), "MB/s"},
      {"crypto.sha256_mbps", mb / median(sha_s), "MB/s"},
      {"sgx.space_new_ms", median(space_ms), "ms"},
      {"sgx.quote_verify_us", median(quote_us), "us"},
      {"verifier.load_ms", median(load_ms), "ms"},
      {"verifier.disasm_ms", median(disasm_ms), "ms"},
      {"verifier.verify_ms", median(verify_ms), "ms"},
      {"verifier.rewrite_us", median(rewrite_us), "us"},
      {"verifier.disasm_large_ms", median(disasm_large_ms), "ms"},
      {"verifier.verify_large_ms", median(verify_large_ms), "ms"},
      {"verifier.cache_hit_us", median(cache_hit_us), "us"},
      {"verifier.sealed_load_ms", median(sealed_load_ms), "ms"},
      {"verifier.full_verifications", static_cast<double>(full_verifications), "count"},
      {"vm.instr_per_req", median(instructions), "count"},
      {"vm.mips", sum_run_us > 0 ? sum_instr / sum_run_us : 0.0, "M/s"},
      {"codegen.compile_ms", median(in.compile_ms), "ms"},
      {"codegen.text_kb", text_kb, "KB"},
      {"unaccounted.serve_us", median(serve_rest) - open, "us"},
      {"unaccounted.admit_ms", median(fe_register_ms) - accounted_admit, "ms"},
      {"trace.overhead_us", median(traced_us) - median(plain_us), "us"},
      {"trace.spans", static_cast<double>(tracer.size()), "count"},
  };
  const std::string spans = args.work_dir + "/spans-" + args.workload + "-seed" +
                            std::to_string(args.seed) + ".jsonl";
  if (tracer.write(spans)) std::fprintf(stderr, "perfbench: spans written to %s\n", spans.c_str());
  print_result(true, tally.attempted(), tally.failed(), metrics);
  return 0;
}

}  // namespace perfbench
