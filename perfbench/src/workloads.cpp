#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <tuple>

namespace perfbench {

namespace {

constexpr int kSetups = 5;            // set-ups per run; setup_s is their median
constexpr int kCompanionCycles = 20;  // timed admission cycles of a serving run
constexpr int kWarmupCycles = 3;      // untimed admission cycles first
constexpr int kEchoWarmup = 32;       // warm-up requests per tenant
constexpr int kImageWarmup = 2;
constexpr std::uint64_t kImageFailPairs = 4;  // image pairs sent past heap exhaustion
constexpr int kBurst = 200;           // warm requests per admission cycle

// Heap-lifetime rounds per serve-image client: one round is ~1,400 images,
// about 10 s on the reference host.
int image_rounds(double seconds) { return std::max(1, static_cast<int>(seconds / 10.0 + 0.5)); }

class EchoStream : public RequestStream {
 public:
  EchoStream(Gen gen, int t) : gen_(gen), t_(t) {}
  std::pair<Bytes, Bytes> next() override {
    Bytes request = echo_request(gen_);
    Bytes expected = echo_expected(request, t_);
    return {std::move(request), std::move(expected)};
  }

 private:
  Gen gen_;
  int t_;
};

class LargeStream : public RequestStream {
 public:
  LargeStream(Gen gen, int t, std::uint64_t salt) : gen_(gen), t_(t), salt_(salt) {}
  std::pair<Bytes, Bytes> next() override {
    Bytes request = large_request(gen_);
    Bytes expected = large_expected(request, t_, salt_);
    return {std::move(request), std::move(expected)};
  }

 private:
  Gen gen_;
  int t_;
  std::uint64_t salt_;
};

// Images in heap-balanced pairs (see ImagePlan).
class ImageStream : public RequestStream {
 public:
  ImageStream(Gen gen, int pair_area) : gen_(gen), pair_area_(pair_area) {}
  std::pair<Bytes, Bytes> next() override {
    if (pending_.empty()) {
      auto [a, b] = image_pair(pair_area_, gen_);
      pending_.push_back(image_request(a, gen_));
      pending_.push_back(image_request(b, gen_));
    }
    Bytes request = std::move(pending_.front());
    pending_.pop_front();
    Bytes expected = image_expected(request);
    return {std::move(request), std::move(expected)};
  }

 private:
  Gen gen_;
  int pair_area_;
  std::deque<Bytes> pending_;
};

constexpr Shape kBindShape{32, 32};  // images of set-up and bind requests

// Compiles a service and records its compile time.
Service make_service(Inputs& in, const std::string& id, const std::string& source, int t) {
  Service s;
  s.id = id;
  s.t = t;
  s.dxo = compile_or_die(source, kPolicies, &s.compile_ms);
  in.compile_ms.push_back(s.compile_ms);
  return s;
}

// A binary compiled without P6 whose header still claims P1-P6.
deflection::codegen::Dxo overclaiming(const std::string& source) {
  auto dxo = compile_or_die(source, PolicySet::p1to5(), nullptr);
  dxo.policies = kPolicies;
  return dxo;
}

// Untimed admission cycles before the timed ones: the first cycles of a
// process run on a cold allocator heap (fresh pages for every enclave
// address space) and are markedly slower than the steady state a serving
// process reaches. Their operations still count.
void warm_up_cycles(const CycleSets& sets, const std::string& store, Tally& tally) {
  CycleSamples discarded;
  for (int c = 0; c < kWarmupCycles; ++c) run_cycle(sets, store, tally, discarded);
}

void fail_setup(const std::string& what, const std::string& code, const std::string& message) {
  std::fprintf(stderr, "perfbench: set-up failed: %s: %s: %s\n", what.c_str(), code.c_str(),
               message.c_str());
  std::exit(1);
}

}  // namespace

Inputs make_inputs(const std::string& workload, std::uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  Gen gen(seed);
  if (workload == "serve-echo") {
    for (int t = 0; t < 2; ++t)
      in.tenants.push_back(make_service(in, "tenant-" + std::to_string(t), echo_source(t), t));
    auto variant = [&](std::deque<Service>& set, const std::string& id, int t) {
      Service s = make_service(in, id, echo_source(t), t);
      s.request = echo_request(gen);
      s.expected = echo_expected(s.request, t);
      set.push_back(std::move(s));
    };
    for (int k = 0; k < 2; ++k) {
      variant(in.cold, "cold-" + std::to_string(k), 2 + k);
      variant(in.large, "large-" + std::to_string(k), 4 + k);
      variant(in.stream, "stream-" + std::to_string(k), 6 + k);
    }
    in.overclaim = overclaiming(echo_source(8));
  } else if (workload == "serve-image") {
    Service tenant = make_service(in, "tenant-0", image_source(kImageBufcap), 0);
    in.tenants = {tenant, tenant};
    in.tenants[1].id = "tenant-1";
    // Companion admissions: the same service in distinct buffer sizes. The
    // request that binds each is a 32x32 image, so that bind_ms does not
    // move with the seeded size of four images.
    auto variant = [&](std::deque<Service>& set, const std::string& id, int k) {
      Service s = make_service(in, id, image_source(kImageBufcap + 16 * k), 0);
      s.request = image_request(kBindShape, gen);
      s.expected = image_expected(s.request);
      set.push_back(std::move(s));
    };
    for (int k = 0; k < 2; ++k) {
      variant(in.cold, "cold-" + std::to_string(k), 1 + k);
      variant(in.large, "large-" + std::to_string(k), 3 + k);
      variant(in.stream, "stream-" + std::to_string(k), 5 + k);
    }
    in.overclaim = overclaiming(image_source(kImageBufcap));
  } else if (workload == "admit") {
    for (std::size_t k = 0; k < nbench_count(); ++k)
      in.cold.push_back(make_service(in, "nbench-" + std::to_string(k), nbench_source(k, gen), 0));
    auto large = [&](std::deque<Service>& set, const std::string& id, int t) {
      std::uint64_t salt = static_cast<std::uint64_t>(gen.range(0, 248));
      Service s = make_service(in, id, large_source(t, salt), t);
      s.salt = salt;
      s.request = large_request(gen);
      s.expected = large_expected(s.request, t, salt);
      set.push_back(std::move(s));
    };
    for (int k = 0; k < 4; ++k) large(in.large, "large-" + std::to_string(k), k);
    for (int k = 0; k < 4; ++k) large(in.stream, "stream-" + std::to_string(k), 4 + k);
    in.overclaim = overclaiming(large_source(8, static_cast<std::uint64_t>(gen.range(0, 248))));
    auto burst = in.requests(0, 0);
    for (int i = 0; i < kBurst; ++i) in.burst.push_back(burst->next());
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
    std::exit(2);
  }
  return in;
}

std::unique_ptr<RequestStream> Inputs::requests(std::size_t i, std::uint64_t which) const {
  Gen gen = Gen(seed).fork(0x5E7E + 131 * i + 7919 * which);
  if (workload == "serve-echo") return std::make_unique<EchoStream>(gen, tenants.at(i).t);
  if (workload == "serve-image") return std::make_unique<ImageStream>(gen, image_plan.pair_area);
  const Service& s = served();
  return std::make_unique<LargeStream>(gen, s.t, s.salt);
}

const Service& Inputs::served() const {
  return workload == "admit" ? stream.back() : tenants.front();
}

CycleSets Inputs::cycle_sets() const {
  CycleSets sets;
  for (const auto& s : cold) sets.cold.push_back(&s);
  for (const auto& s : large) sets.large.push_back(&s);
  for (const auto& s : stream) sets.stream.push_back(&s);
  sets.overclaim = overclaim.has_value() ? &*overclaim : nullptr;
  sets.burst = burst;
  return sets;
}

int run_workload(const Args& args) {
  const bool serve = args.workload != "admit";
  const bool image = args.workload == "serve-image";
  Tally tally;
  std::vector<double> setup_s;
  std::unique_ptr<dfl::frontend::ShardedFrontEnd> fe;
  Inputs in;

  // --- set-up, several times; the last one is measured ---
  for (int round = 0; round < kSetups; ++round) {
    fe.reset();
    auto t0 = Clock::now();
    in = make_inputs(args.workload, args.seed);
    if (serve) {
      fe = create_front_end(front_end_options(2, 1));
      auto ids = ids_on_distinct_shards(*fe, "tenant-", 2);
      for (std::size_t i = 0; i < in.tenants.size(); ++i) {
        in.tenants[i].id = ids.at(i);
        auto r = fe->register_tenant(ids[i], in.tenants[i].dxo);
        if (!r.is_ok()) fail_setup("register " + ids[i], r.code(), r.message());
      }
      // Warm-up: the first request binds each tenant's slot. Warm-up
      // images are 32x32, so set-up does not move with seeded sizes.
      for (std::size_t i = 0; i < in.tenants.size(); ++i) {
        auto echo = in.requests(i, 1);
        Gen pixels = Gen(args.seed).fork(i);
        for (int k = 0; k < (image ? kImageWarmup : kEchoWarmup); ++k) {
          Bytes request = image ? image_request(kBindShape, pixels) : Bytes{};
          Bytes expected = image ? image_expected(request) : Bytes{};
          if (!image) std::tie(request, expected) = echo->next();
          auto response = fe->submit(in.tenants[i].id, request);
          if (!response_ok(response, expected))
            fail_setup("warm-up of " + in.tenants[i].id,
                       response.is_ok() ? "wrong_response" : response.code(),
                       response.is_ok() ? "response differs from the host" : response.message());
        }
      }
    }
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<ServeWindow> serve_windows;
  CycleSamples cycles;
  const std::string store = args.work_dir + "/admission-store.sealed";

  if (serve) {
    // --- the admission metrics, on this workload's own service ---
    CycleSets sets = in.cycle_sets();
    warm_up_cycles(sets, store, tally);
    for (int c = 0; c < kCompanionCycles; ++c) run_cycle(sets, store, tally, cycles);
    if (image) {
      BareConsumer consumer(platform_config());
      auto loaded = consumer.resolve(in.tenants[0].dxo);
      if (!loaded.is_ok()) fail_setup("resolve image service", loaded.code(), loaded.message());
      in.image_plan = plan_image_heap(loaded.value().heap_end - loaded.value().heap_base);
      std::fprintf(stderr,
                   "perfbench: slot heap %llu bytes; image pairs of area %d take %llu bytes; "
                   "%llu pairs fit, %llu more are sent per round\n",
                   static_cast<unsigned long long>(in.image_plan.heap_bytes),
                   in.image_plan.pair_area,
                   static_cast<unsigned long long>(in.image_plan.pair_bytes),
                   static_cast<unsigned long long>(in.image_plan.pairs_ok),
                   static_cast<unsigned long long>(kImageFailPairs));
    }
    // --- closed loop: one client per tenant, each waits for its reply ---
    struct Sample {
      double end_s;  // completion, since the start of the measured phase
      double us;
    };
    std::vector<std::vector<Sample>> per_client(in.tenants.size());
    std::vector<double> done_at(in.tenants.size(), 0.0);
    std::vector<std::thread> clients;
    std::mutex rebind_mutex;
    auto start = Clock::now();
    for (std::size_t i = 0; i < in.tenants.size(); ++i) {
      clients.emplace_back([&, i] {
        const Service& tenant = in.tenants[i];
        auto requests = in.requests(i, 0);
        auto one = [&] {
          auto [request, expected] = requests->next();
          auto t0 = Clock::now();
          auto response = fe->submit(tenant.id, request);
          double us = us_since(t0);
          bool ok = response_ok(response, expected);
          if (ok) per_client[i].push_back(Sample{seconds_since(start), us});
          tally.op(ok, [&] { return response_problem(tenant.id, response); });
        };
        if (!image) {
          while (seconds_since(start) < args.seconds) one();
        } else {
          // Rounds of one slot-heap lifetime each: re-registering the
          // tenant unbinds its slot, so the next request binds a fresh
          // enclave; then pairs_ok pairs fit and kImageFailPairs pairs
          // exhaust the heap. The round count depends on --seconds only,
          // never on speed, so every run fails the same share.
          // The two clients rebind one at a time: a rebind holds the old
          // and the new address space at once, and two at once would make
          // the peak RSS depend on timing.
          for (int round = 0; round < image_rounds(args.seconds); ++round) {
            {
              std::lock_guard lock(rebind_mutex);
              bool ok = fe->unregister_tenant(tenant.id).is_ok() &&
                        fe->register_tenant(tenant.id, tenant.dxo).is_ok();
              tally.op(ok, [&] { return "re-registration of " + tenant.id; });
              one();
            }
            for (std::uint64_t k = 1; k < 2 * (in.image_plan.pairs_ok + kImageFailPairs); ++k)
              one();
          }
        }
        done_at[i] = seconds_since(start);
      });
    }
    for (auto& c : clients) c.join();
    fe.reset();
    // Serving figures per window while every client was running.
    const double window_s = image ? 1.0 : 0.5;
    const double horizon = *std::min_element(done_at.begin(), done_at.end());
    const int windows = std::max(1, static_cast<int>(horizon / window_s));
    std::vector<std::vector<double>> in_window(static_cast<std::size_t>(windows));
    for (const auto& samples : per_client)
      for (const auto& sample : samples) {
        auto w = static_cast<std::size_t>(sample.end_s / window_s);
        if (w < in_window.size()) in_window[w].push_back(sample.us);
      }
    for (const auto& lat : in_window)
      serve_windows.push_back(ServeWindow{static_cast<double>(lat.size()) / window_s,
                                          percentile(lat, 50), percentile(lat, 90)});
  } else {
    CycleSets sets = in.cycle_sets();
    warm_up_cycles(sets, store, tally);
    auto start = Clock::now();
    do {
      run_cycle(sets, store, tally, cycles);
    } while (seconds_since(start) < args.seconds);
    serve_windows = cycles.serve;
  }

  // Serving figures: the mean of the middle half of the windows (serve-*)
  // or bursts (admit), so a window or burst hit by a host stall moves the
  // result by its share only.
  auto serve_figure = [&](double ServeWindow::*field) {
    std::vector<double> values;
    for (const auto& w : serve_windows) values.push_back(w.*field);
    return interquartile_mean(values);
  };
  std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"rss_peak_mb", rss_peak_mb(), "MB"},
      {"serve_rps", serve_figure(&ServeWindow::rps), "1/s"},
      {"serve_p50_us", serve_figure(&ServeWindow::p50_us), "us"},
      {"serve_p90_us", serve_figure(&ServeWindow::p90_us), "us"},
      {"admit_cold_ms", median(cycles.cold_ms), "ms"},
      {"admit_large_ms", median(cycles.large_ms), "ms"},
      {"admit_stream_ms", median(cycles.stream_ms), "ms"},
      {"bind_ms", median(cycles.bind_ms), "ms"},
      {"boot_warm_ms", median(cycles.boot_ms), "ms"},
  };
  bool correct = true;
  for (const auto& m : metrics)
    if (!(m.value > 0)) {
      std::fprintf(stderr, "perfbench: no correct sample for %s\n", m.name.c_str());
      correct = false;
    }
  std::fprintf(stderr, "perfbench: %zu serving windows; %zu admission cycles\n",
               serve_windows.size(), cycles.boot_ms.size());
  print_result(correct, tally.attempted(), tally.failed(), metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
