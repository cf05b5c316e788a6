// pb_world: builds, runs and checks ONE generated world, then prints one
// JSON result line. perfbench/run.py starts one process per timed world,
// so ru_maxrss (per process, never shrinking) is that world's own peak.
//
//   pb_world --workload city|city-x4|served --seed N
//            [--role timed|run|reference|setup] [--trace-out PATH]
//
// role timed      the workload's world, timed phase by phase:
//                 setup -> run to the horizon -> checkpoint save, parse,
//                 verify;
// role run        the same world, set up and run only (served keeps the
//                 scrapes that run beside its run): the untraced base of a
//                 traced run, and city's 4-shard twin;
// role reference  the monolithic, unserved twin of the same spec and seed
//                 (city for city-x4, a quiet served world for served); run
//                 only for its summary fingerprint;
// role setup      the workload's world built and torn down, nothing else:
//                 one more sample of set-up time.
//
// Every layer is timed from outside, around calls into public functions.
// Built as pb_world_traced (PB_TRACED), the same run also keeps spans in
// memory (written to --trace-out at exit), installs the engine's profile
// hook, runs the horizon in windows and counts heap allocations.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/state.hpp"
#include "gen/scenario.hpp"
#include "gen/spec.hpp"
#include "http_client.hpp"
#include "serve/bridge.hpp"
#include "serve/server.hpp"
#include "shard/world.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/telemetry.hpp"

#ifdef PB_TRACED
#include "alloc_count.hpp"
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

namespace {

using namespace sa;
using Clock = std::chrono::steady_clock;

// -- Workloads ---------------------------------------------------------------

/// The composite city: 100 camera districts x 128 cameras, 250 CPN grids
/// x 500 flows, a 32-node cloud, 4 multicore edge nodes, standing faults.
constexpr const char* kCitySpec =
    "world:horizon=80,exchange=20;"
    "cameras:count=128,objects=24,clusters=4,districts=100,epoch=10;"
    "cpn:rows=4,cols=6,shortcuts=4,flows=500,grids=250;"
    "cloud:nodes=32;multicore:nodes=4;faults";
/// A small city behind the serve plane: 4 districts x 128 cameras, 4 grids.
/// A shorter horizon than the city's: nearly all of its run is the
/// bridge's publishes, and one world's run time moves with its process's
/// memory layout and with the host (the same seed ran 1.2-2.2 s at
/// horizon 40 from one process to the next), so a run takes the median
/// of many short worlds.
constexpr const char* kServedSpec =
    "world:horizon=20,exchange=20;"
    "cameras:count=128,objects=24,clusters=4,districts=4,epoch=10;"
    "cpn:rows=4,cols=6,shortcuts=4,flows=500,grids=4;"
    "cloud:nodes=32;multicore:nodes=4;faults";
constexpr std::size_t kShards = 4;
/// Sim-seconds per run_until window in the traced run; the first window
/// is the warm-up.
constexpr double kWindow = 10.0;

// Scrape schedule of `served`: open loop, Poisson arrivals, /metrics or
// /status with equal odds, for the whole run. The cities have no serve
// plane.
constexpr double kServedRate = 200.0;  // requests/s during the run
constexpr double kLatencyLimit = 1.0;  // s; slower scrapes count as failed

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- Process memory ----------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::uint64_t allocations() {
#ifdef PB_TRACED
  return pb::allocations();
#else
  return 0;
#endif
}

// -- Spans -------------------------------------------------------------------

/// In-memory span log of the traced run; written once at exit. A span has
/// a name, start and end (seconds since process start) and a parent id
/// (0 = root). Only the main thread opens spans; scrape spans are added
/// after the client threads are joined.
class Spans {
 public:
  using Id = std::uint32_t;
  explicit Spans(Clock::time_point origin) : origin_(origin) {
    if (kTraced) spans_.reserve(1 << 16);
  }

  Id open(const char* name, Id parent) {
    if (!kTraced) return 0;
    spans_.push_back({name, parent, now(), -1.0});
    return static_cast<Id>(spans_.size());
  }
  void close(Id id) {
    if (kTraced && id != 0) spans_[id - 1].end = now();
  }
  void add(const char* name, Id parent, double start, double end) {
    if (kTraced) spans_.push_back({name, parent, start, end});
  }
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  [[nodiscard]] double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  /// One JSON object per line: {"id","parent","name","start_s","end_s"}.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\","
                   "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   i + 1, s.parent, s.name, s.start, s.end);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;  // string literals only
    Id parent;
    double start, end;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Engine profile-hook accounting: handler seconds and counts by engine
/// order, plus one span per event under the current window span.
struct OrderCost {
  static constexpr std::array<int, 5> kOrders = {-1, 0, 1, 2, 1000};
  static constexpr std::array<const char*, 6> kNames = {
      "event.order-1", "event.order0", "event.order1",
      "event.order2",  "event.order1000", "event.other"};
  std::array<double, 6> seconds{};
  std::array<std::uint64_t, 6> count{};

  static std::size_t slot(int order) {
    for (std::size_t i = 0; i < kOrders.size(); ++i) {
      if (kOrders[i] == order) return i;
    }
    return kOrders.size();
  }
  double of(int order) const { return seconds[slot(order)]; }
  double total() const {
    double s = 0.0;
    for (double v : seconds) s += v;
    return s;
  }
};

void install_profile_hook(sim::Engine& engine, OrderCost& cost, Spans& spans,
                          const Spans::Id& parent) {
  if (!kTraced) return;
  engine.set_profile_hook([&cost, &spans, &parent](double, int order,
                                                   double wall_s) {
    const std::size_t i = OrderCost::slot(order);
    cost.seconds[i] += wall_s;
    ++cost.count[i];
    const double end = spans.now();
    spans.add(OrderCost::kNames[i], parent, end - wall_s, end);
  });
}

// -- Output check ------------------------------------------------------------

/// The world's summary as exact hexfloats: equal strings <=> bit-equal
/// trajectories' summaries.
std::string fingerprint(const gen::Scenario& world) {
  std::string out;
  char buf[64];
  for (const auto& [name, value] : world.summary()) {
    std::snprintf(buf, sizeof buf, "%a", value);
    out += name;
    out += '=';
    out += buf;
    out += ';';
  }
  return out;
}

std::string hash_hex(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// -- Scrape generator --------------------------------------------------------

struct Scrapes {
  std::vector<double> latency_ms;  // from each request's due time
  std::vector<double> late_ms;     // send time - due time
  std::uint64_t failed = 0;
  double status_bytes = 0.0, metrics_bytes = 0.0;
  std::uint64_t status_n = 0, metrics_n = 0;
  std::vector<std::string> errors;  // first few
};

/// Open-loop scrape generator. The schedule (Poisson arrivals, route per
/// request) is drawn up front from the benchmark seed; min(nproc, 2)
/// client threads, one keep-alive connection each, send every request at
/// its due time whatever the server's state, so a stall delays the
/// requests behind it and shows in their latency. Two clients keep up
/// with the schedule (a scrape takes about 1 ms against a 5 ms mean gap)
/// without adding runnable threads beside the server's.
class ScrapeGen {
 public:
  ScrapeGen(std::uint16_t port, std::uint64_t seed, double rate,
            std::size_t max_requests)
      : port_(port) {
    sim::Rng rng(sim::mix64(seed ^ 0x5c7a'9e00'0000'0001ULL));
    double t = 0.0;
    due_.reserve(max_requests);
    for (std::size_t i = 0; i < max_requests; ++i) {
      t += rng.exponential(1.0 / rate);
      due_.push_back(t);
      status_.push_back(rng.uniform() < 0.5);
    }
    lat_.assign(max_requests, 0.0);
    late_.assign(max_requests, 0.0);
    code_.assign(max_requests, 0);
    bytes_.assign(max_requests, 0);
    err_.resize(max_requests);
    start_end_.assign(max_requests, {0.0, 0.0});
  }
  ~ScrapeGen() { stop_now(); }
  ScrapeGen(const ScrapeGen&) = delete;
  ScrapeGen& operator=(const ScrapeGen&) = delete;

  /// Connects every client (one GET /healthz each, so connection set-up
  /// is not in the schedule), then starts the schedule clock.
  void start() {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned threads = std::min(2u, hw);
    std::atomic<unsigned> ready{0};
    for (unsigned i = 0; i < threads; ++i) {
      threads_.emplace_back([this, &ready] {
        pb::HttpConnection conn(port_, 5000);
        std::size_t bytes = 0;
        std::string error;
        conn.get("/healthz", bytes, error);  // a failure shows on reuse
        ready.fetch_add(1);
        while (!go_.load(std::memory_order_acquire)) std::this_thread::yield();
        client_loop(conn);
      });
    }
    while (ready.load() < threads) std::this_thread::yield();
    start_ = Clock::now();
    go_.store(true, std::memory_order_release);
  }
  /// No request due after now is sent; returns after in-flight ones end.
  void stop_now() {
    stop_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count(),
        std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  [[nodiscard]] Scrapes result() const {
    Scrapes r;
    const std::size_t n = std::min(sent_.load(), due_.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (code_[i] == 0) continue;  // never sent (past the stop time)
      r.latency_ms.push_back(lat_[i] * 1e3);
      r.late_ms.push_back(late_[i] * 1e3);
      const bool ok = code_[i] >= 200 && code_[i] < 300 &&
                      lat_[i] <= kLatencyLimit;
      if (!ok) {
        ++r.failed;
        if (r.errors.size() < 3) {
          r.errors.push_back(code_[i] < 0 ? err_[i]
                                          : "status " +
                                                std::to_string(code_[i]) +
                                                " after " +
                                                std::to_string(lat_[i]) + " s");
        }
      }
      if (status_[i]) {
        r.status_bytes += static_cast<double>(bytes_[i]);
        ++r.status_n;
      } else {
        r.metrics_bytes += static_cast<double>(bytes_[i]);
        ++r.metrics_n;
      }
    }
    return r;
  }

  /// (send start, response end) per sent request, as Clock time points.
  template <typename F>
  void for_each_sent(F&& f) const {
    const std::size_t n = std::min(sent_.load(), due_.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (code_[i] != 0) f(start_ + dur(start_end_[i].first),
                           start_ + dur(start_end_[i].second));
    }
  }

 private:
  static Clock::duration dur(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  void client_loop(pb::HttpConnection& conn) {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= due_.size()) return;
      const auto due = start_ + dur(due_[i]);
      std::this_thread::sleep_until(due);
      const auto due_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(due - start_)
              .count();
      if (due_ns > stop_ns_.load(std::memory_order_relaxed)) return;
      const auto t_send = Clock::now();
      std::size_t bytes = 0;
      std::string error;
      const int code =
          conn.get(status_[i] ? "/status" : "/metrics", bytes, error);
      const auto t_done = Clock::now();
      lat_[i] = std::chrono::duration<double>(t_done - due).count();
      late_[i] = std::chrono::duration<double>(t_send - due).count();
      start_end_[i] = {std::chrono::duration<double>(t_send - start_).count(),
                       std::chrono::duration<double>(t_done - start_).count()};
      bytes_[i] = bytes;
      err_[i] = std::move(error);
      code_[i] = code;
      // Indices are claimed in order, so every index below the highest
      // claimed one was claimed too.
      std::size_t seen = sent_.load(std::memory_order_relaxed);
      while (seen < i + 1 && !sent_.compare_exchange_weak(seen, i + 1)) {
      }
    }
  }

  std::uint16_t port_;
  std::vector<double> due_;
  std::vector<bool> status_;  // read-only once the threads start
  std::vector<double> lat_, late_;
  std::vector<int> code_;  // 0 = not sent; -1 = transport error
  std::vector<std::size_t> bytes_;
  std::vector<std::string> err_;
  std::vector<std::pair<double, double>> start_end_;
  Clock::time_point start_{};
  std::atomic<bool> go_{false};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> sent_{0};
  std::atomic<std::int64_t> stop_ns_{INT64_MAX};
  std::vector<std::thread> threads_;
};

// -- Result ------------------------------------------------------------------

/// Flat name -> number map printed as the "values" object, in insertion
/// order.
struct Values {
  std::vector<std::pair<std::string, double>> kv;
  void set(const std::string& k, double v) {
    for (auto& [name, value] : kv) {
      if (name == k) {
        value = v;
        return;
      }
    }
    kv.emplace_back(k, v);
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_result(const std::string& workload, const std::string& role,
                  std::uint64_t seed, const std::string& spec,
                  const std::string& fp, const Values& v, const Scrapes* sc,
                  const std::string& error) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"workload\":\"" << workload << "\",\"role\":\"" << role
    << "\",\"seed\":" << seed << ",\"traced\":" << (kTraced ? "true" : "false")
    << ",\"spec\":\"" << json_escape(spec) << "\",\"fingerprint\":\""
    << json_escape(fp) << "\",\"fingerprint_hash\":\"" << hash_hex(fp)
    << "\",\"error\":\"" << json_escape(error) << "\",\"values\":{";
  for (std::size_t i = 0; i < v.kv.size(); ++i) {
    o << (i ? "," : "") << "\"" << v.kv[i].first << "\":" << v.kv[i].second;
  }
  o << "}";
  if (sc != nullptr) {
    o << ",\"scrapes\":{\"failed\":" << sc->failed << ",\"latency_ms\":[";
    for (std::size_t i = 0; i < sc->latency_ms.size(); ++i) {
      o << (i ? "," : "") << sc->latency_ms[i];
    }
    o << "],\"late_ms\":[";
    for (std::size_t i = 0; i < sc->late_ms.size(); ++i) {
      o << (i ? "," : "") << sc->late_ms[i];
    }
    o << "],\"errors\":[";
    for (std::size_t i = 0; i < sc->errors.size(); ++i) {
      o << (i ? "," : "") << "\"" << json_escape(sc->errors[i]) << "\"";
    }
    o << "]}";
  }
  o << "}\n";
  std::cout << o.str() << std::flush;
}

// -- Phases ------------------------------------------------------------------

/// save -> parse -> verify of every component the world registers, each
/// step timed; records checkpoint_s and the ckpt.* values.
void checkpoint(gen::Scenario& world, std::uint64_t seed, Values& v,
                Spans& spans, Spans::Id root) {
  const Spans::Id parent = spans.open("ckpt", root);
  ckpt::WorldCheckpoint wc;
  world.register_checkpoint(wc);
  ckpt::WorldCheckpoint::Meta meta;
  meta.t = world.engine().now();
  meta.seed = seed;
  meta.recipe = world.spec().to_string();
  meta.fault_plan = world.fault_plan().to_string();

  std::string image;
  auto t0 = Clock::now();
  Spans::Id s = spans.open("ckpt.save", parent);
  if (const ckpt::Status st = wc.save(meta, image); !st.ok()) {
    throw std::runtime_error("checkpoint save: " + st.to_string());
  }
  spans.close(s);
  const double save_s = since(t0);
  v.set("ckpt.image_mb", static_cast<double>(image.size()) / (1024.0 * 1024.0));

  ckpt::Reader reader;
  t0 = Clock::now();
  s = spans.open("ckpt.parse", parent);
  if (const ckpt::Status st = ckpt::Reader::parse(std::move(image), reader);
      !st.ok()) {
    throw std::runtime_error("checkpoint parse: " + st.to_string());
  }
  spans.close(s);
  const double parse_s = since(t0);

  t0 = Clock::now();
  s = spans.open("ckpt.verify", parent);
  if (const ckpt::Status st = wc.verify(reader); !st.ok()) {
    throw std::runtime_error("checkpoint verify: " + st.to_string());
  }
  spans.close(s);
  const double verify_s = since(t0);
  spans.close(parent);
  v.set("checkpoint_s", save_s + parse_s + verify_s);
  v.set("ckpt.save_s", save_s);
  v.set("ckpt.parse_s", parse_s);
  v.set("ckpt.verify_s", verify_s);
}

void record_scrapes(const ScrapeGen& gen, Spans& spans, Spans::Id parent) {
  if (!kTraced) return;
  gen.for_each_sent([&](Clock::time_point a, Clock::time_point b) {
    spans.add("scrape", parent, spans.at(a), spans.at(b));
  });
}

/// Server-side view plus client-side sizes, from outside the bridge.
void serve_values(const serve::Server& server, const Scrapes& sc, Values& v) {
  const serve::ServerStats::Snapshot snap = server.stats().snapshot();
  serve::LatencyHistogram::Snapshot both =
      snap.routes[static_cast<std::size_t>(serve::RouteClass::Metrics)];
  both.merge(snap.routes[static_cast<std::size_t>(serve::RouteClass::Status)]);
  v.set("serve.server_p99_ms", both.quantile(0.99) * 1e3);
  v.set("serve.requests", static_cast<double>(server.requests()));
  v.set("serve.status_kb",
        sc.status_n ? sc.status_bytes / sc.status_n / 1024.0 : 0.0);
  v.set("serve.metrics_kb",
        sc.metrics_n ? sc.metrics_bytes / sc.metrics_n / 1024.0 : 0.0);
  std::vector<double> late = sc.late_ms;
  std::sort(late.begin(), late.end());
  v.set("serve.gen_late_ms",
        late.empty() ? 0.0
                     : late[std::min(late.size() - 1,
                                     static_cast<std::size_t>(
                                         0.99 * static_cast<double>(
                                                    late.size())))]);
}

/// Runs `run_until` to the horizon: in one call untraced, in kWindow
/// sim-second windows traced (warm-up = first window).
template <typename World>
void run_world(World& w, double horizon, Values& v, Spans& spans,
               Spans::Id parent, Spans::Id& window_span) {
  if (!kTraced) {
    w.run_until(horizon);
    return;
  }
  double warm = 0.0, rest = 0.0;
  for (double t = kWindow;; t += kWindow) {
    const double end = std::min(t, horizon);
    const auto t0 = Clock::now();
    window_span = spans.open("run.window", parent);
    w.run_until(end);
    spans.close(window_span);
    (t == kWindow ? warm : rest) += since(t0);
    if (end >= horizon) break;
  }
  v.set("sim.warmup_s", warm);
  v.set("sim.steady_s_per_sim_s",
        horizon > kWindow ? rest / (horizon - kWindow) : 0.0);
}

/// Values every run reports: wall time, peak RSS and the engine's work.
void report_run(Values& v, double run_s, double events,
                std::uint64_t run_allocs, const OrderCost& cost) {
  v.set("run_s", run_s);
  v.set("peak_rss_mb", peak_rss_mb());
  v.set("sim.events", events);
  v.set("sim.allocs_per_event",
        events > 0 ? static_cast<double>(run_allocs) / events : 0.0);
  v.set("sim.dispatch_s", run_s - cost.total());
  v.set("sim.order0_s", cost.of(0));
  v.set("sim.order1_s", cost.of(1));
  v.set("sim.order2_s", cost.of(2));
}

/// Agent counts and memory growth per camera since the world was built.
void report_agents(Values& v, gen::Scenario& w, double rss_built) {
  std::size_t steps = 0;
  for (core::SelfAwareAgent* a : w.agents()) steps += a->steps();
  v.set("core.agents", static_cast<double>(w.agents().size()));
  v.set("core.agent_steps", static_cast<double>(steps));
  const gen::CameraSection& cams = w.spec().cameras;
  const double cameras = static_cast<double>(cams.count * cams.districts);
  v.set("svc.rss_per_camera_kb",
        cameras > 0 ? (peak_rss_mb() - rss_built) * 1024.0 / cameras : 0.0);
}

struct Args {
  std::string workload;
  std::string role = "timed";
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::string trace_out;
};

int usage() {
  std::cerr << "usage: pb_world --workload city|city-x4|served --seed N "
               "[--role timed|run|reference|setup] [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (k == "--workload") {
      a.workload = val;
    } else if (k == "--role") {
      a.role = val;
    } else if (k == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(val.c_str(), &end, 10);
      a.seed_set = end != nullptr && *end == '\0' && !val.empty();
    } else if (k == "--trace-out") {
      a.trace_out = val;
    } else {
      return usage();
    }
  }
  const bool city_x4 = a.workload == "city-x4";
  const bool served = a.workload == "served";
  if ((a.workload != "city" && !city_x4 && !served) || !a.seed_set ||
      (a.role != "timed" && a.role != "run" && a.role != "reference" &&
       a.role != "setup")) {
    return usage();
  }
  const bool reference = a.role == "reference";
  const bool setup_only = a.role == "setup";
  const bool run_only = a.role == "run";
  const gen::ScenarioSpec spec =
      gen::ScenarioSpec::parse(served ? kServedSpec : kCitySpec);
  const double horizon = spec.world.horizon;

  Spans spans(origin);
  Values v;
  std::string fp;
  std::optional<Scrapes> scrapes;
  std::string error;
  OrderCost cost;
  Spans::Id window_span = 0;
  const auto finish = [&] {
    if (kTraced && !a.trace_out.empty() && !spans.write(a.trace_out)) {
      error += (error.empty() ? "" : "; ") + std::string("cannot write ") +
               a.trace_out;
    }
    print_result(a.workload, a.role, a.seed, spec.to_string(), fp, v,
                 scrapes ? &*scrapes : nullptr, error);
    return error.empty() ? 0 : 1;
  };
  try {
    const double rss0 = current_rss_mb();
    const std::uint64_t allocs0 = allocations();
    const Spans::Id root = spans.open("world", 0);

    if (reference || a.workload == "city") {
      // --- One engine: city, or a reference twin ----------------------------
      auto t0 = Clock::now();
      Spans::Id s = spans.open("gen.build", root);
      gen::Scenario world(spec, a.seed);
      spans.close(s);
      const double build_s = since(t0);
      v.set("setup_s", build_s);
      v.set("gen.build_s", build_s);
      v.set("gen.build_rss_mb", current_rss_mb() - rss0);
      v.set("gen.build_allocs", static_cast<double>(allocations() - allocs0));
      if (setup_only) return finish();
      const double rss_built = current_rss_mb();

      install_profile_hook(world.engine(), cost, spans, window_span);
      const std::uint64_t allocs1 = allocations();
      t0 = Clock::now();
      s = spans.open("run", root);
      run_world(world, horizon, v, spans, s, window_span);
      spans.close(s);
      const double run_s = since(t0);
      world.engine().set_profile_hook(nullptr);
      report_run(v, run_s, static_cast<double>(world.engine().executed()),
                 allocations() - allocs1, cost);
      report_agents(v, world, rss_built);
      fp = fingerprint(world);
      if (!reference && !run_only) checkpoint(world, a.seed, v, spans, root);
    } else if (city_x4) {
      // --- The same city on kShards engine shards ---------------------------
      shard::ShardedWorld::Options opts;
      opts.shards = kShards;
      auto t0 = Clock::now();
      Spans::Id s = spans.open("shard.build", root);
      shard::ShardedWorld world(spec, a.seed, opts);
      spans.close(s);
      const double build_s = since(t0);
      v.set("setup_s", build_s);
      v.set("shard.build_s", build_s);
      v.set("gen.build_rss_mb", current_rss_mb() - rss0);
      v.set("gen.build_allocs", static_cast<double>(allocations() - allocs0));
      if (setup_only) return finish();
      const double rss_built = current_rss_mb();

      // Only the coordinator engine is reachable from outside.
      install_profile_hook(world.world().engine(), cost, spans, window_span);
      const std::uint64_t allocs1 = allocations();
      t0 = Clock::now();
      s = spans.open("run", root);
      run_world(world, horizon, v, spans, s, window_span);
      spans.close(s);
      const double run_s = since(t0);
      world.world().engine().set_profile_hook(nullptr);
      const std::vector<std::uint64_t> per_shard = world.shard_events();
      double events = 0.0, max_shard = 0.0, sum_shard = 0.0;
      for (std::size_t i = 0; i < per_shard.size(); ++i) {
        const double e = static_cast<double>(per_shard[i]);
        events += e;
        if (i + 1 < per_shard.size()) {
          max_shard = std::max(max_shard, e);
          sum_shard += e;
        }
      }
      report_run(v, run_s, events, allocations() - allocs1, cost);
      v.set("shard.barriers", static_cast<double>(per_shard.back()));
      v.set("shard.lag_s", world.lag_seconds());
      v.set("shard.lag_share", run_s > 0 ? world.lag_seconds() / run_s : 0.0);
      const double shards = static_cast<double>(per_shard.size() - 1);
      v.set("shard.imbalance",
            sum_shard > 0 ? max_shard / (sum_shard / shards) : 0.0);
      report_agents(v, world.world(), rss_built);
      fp = fingerprint(world.world());
      if (run_only) return finish();
      // The image holds every agent, the runtime, injector, ladders and
      // the coordinator's timeline; shard timelines are not in it (a
      // sharded world restores by replay).
      checkpoint(world.world(), a.seed, v, spans, root);
    } else {
      // --- served: the serve plane attached for the whole run ---------------
      auto t0 = Clock::now();
      Spans::Id s = spans.open("gen.build", root);
      sim::TelemetryBus bus;
      sim::MetricsRegistry metrics;
      gen::Scenario::Options opts;
      opts.telemetry = &bus;
      opts.metrics = &metrics;
      gen::Scenario world(spec, a.seed, opts);
      spans.close(s);
      const double gen_s = since(t0);
      v.set("gen.build_s", gen_s);
      v.set("gen.build_rss_mb", current_rss_mb() - rss0);
      v.set("gen.build_allocs", static_cast<double>(allocations() - allocs0));
      s = spans.open("serve.build", root);
      serve::SimBridge bridge;
      bridge.set_metrics(&metrics);
      bridge.set_telemetry(&bus);
      for (core::SelfAwareAgent* ag : world.agents()) bridge.add_agent(ag);
      bridge.set_injector(&world.injector());
      serve::Server server;
      bridge.install(server);
      if (!server.start()) throw std::runtime_error("serve: " + server.error());
      bridge.attach(world.engine());
      spans.close(s);
      v.set("setup_s", since(t0));
      if (setup_only) return finish();
      const double rss_built = current_rss_mb();

      install_profile_hook(world.engine(), cost, spans, window_span);
      // Generous cap: the schedule is cut at the end of the run.
      ScrapeGen gen(server.port(), a.seed, kServedRate,
                    static_cast<std::size_t>(kServedRate * 170.0));
      gen.start();
      const std::uint64_t allocs1 = allocations();
      t0 = Clock::now();
      s = spans.open("run", root);
      run_world(world, horizon, v, spans, s, window_span);
      const double run_s = since(t0);
      gen.stop_now();
      spans.close(s);
      world.engine().set_profile_hook(nullptr);
      record_scrapes(gen, spans, s);
      report_run(v, run_s, static_cast<double>(world.engine().executed()),
                 allocations() - allocs1, cost);
      const std::size_t pub = OrderCost::slot(1000);
      v.set("serve.publishes", static_cast<double>(cost.count[pub]));
      v.set("serve.publish_ms",
            cost.count[pub] ? cost.seconds[pub] * 1e3 / cost.count[pub] : 0.0);
      v.set("serve.publish_share", run_s > 0 ? cost.seconds[pub] / run_s : 0.0);
      report_agents(v, world, rss_built);
      fp = fingerprint(world);
      scrapes = gen.result();
      serve_values(server, *scrapes, v);
      if (run_only) return finish();

      checkpoint(world, a.seed, v, spans, root);
    }
    spans.close(root);
  } catch (const std::exception& e) {
    error = e.what();
  }
  return finish();
}
