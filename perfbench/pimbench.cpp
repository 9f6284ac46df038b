// pimbench — end-to-end, stage-by-stage host benchmark of pimsim-nn.
//
// Runs one named workload as a closed loop for --seconds, checks every
// evaluation's simulated outputs against goldens captured at the seed commit
// (goldens.json), and prints one JSON result line last on stdout. Every layer
// is reached through its public functions and timed from outside; nothing is
// instrumented inside the program. See perfbench/README.md for the workloads,
// the metrics and what each layer metric should move.
//
//   pimbench --workload zoo_timing --seed 1 --seconds 10 --trace 0
//            --goldens perfbench/goldens.json --pimserved PATH --out-dir DIR
//   pimbench --capture-goldens perfbench/goldens.json
//
// Host times are the measurement; simulated latency, energy, instruction
// counts and functional outputs are equality checks only.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <poll.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/chip.h"
#include "artifact/artifact.h"
#include "cli.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "config/arch_config.h"
#include "dse/evaluator.h"
#include "dse/sampler.h"
#include "dse/search_space.h"
#include "json/json.h"
#include "nn/executor.h"
#include "runtime/batch_runner.h"
#include "runtime/simulator.h"
#include "workload/workload.h"

// ---------------------------------------------------------------------------
// Allocation-counting hook. Replaces the global operator new/delete of this
// binary (pimlib is linked statically, so its allocations come through here).
// Counting is off unless a single-threaded stage or a traced round switches
// it on, so the untraced end-to-end run pays one relaxed load per allocation.
// ---------------------------------------------------------------------------
namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace pim;
using Clock = std::chrono::steady_clock;

constexpr int32_t kInputHw = 32;
/// Functional inputs per network with a captured output golden; a run picks
/// one of them per network from its seed.
constexpr uint64_t kInputPool = 16;
/// Set-up is repeated at least kSetupReps times per run, and more (up to
/// kSetupMaxReps) while the repetitions together take under kSetupBudgetS,
/// so a set-up of a millisecond is not judged on three noisy samples. The
/// median is reported.
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 31;
constexpr double kSetupBudgetS = 1.0;
constexpr const char* kDseSpace = "configs/dse_paper.json";
constexpr const char* kDseNetwork = "resnet18";

const std::vector<std::string> kTimingNets = {"resnet18", "googlenet", "vgg16", "squeezenet"};
const std::vector<std::string> kFunctionalNets = {"squeezenet", "vgg8", "alexnet"};
const std::vector<std::string> kServeNets = {"squeezenet", "alexnet", "vgg16"};

// Round modes of a traced run: rounds rotate through them so the tracing and
// hook overheads are measured on interleaved rounds of the same run.
enum Mode { kPlain = 0, kSpans = 1, kSpansAllocs = 2 };

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb(const rusage& ru) { return static_cast<double>(ru.ru_maxrss) / 1024.0; }

/// Harrell-Davis estimate of quantile `q`: a Beta((n+1)q, (n+1)(1-q))-weighted
/// average of all order statistics. Used for the request latency percentiles
/// only: a zoo run's p50 falls between the latency modes of two networks,
/// where the plain median jumps between their extremes (ten zoo_timing runs
/// on a 4-vCPU shared VM: spread 0.068 plain, 0.030 Harrell-Davis). 0 when
/// empty.
double hd_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = (n + 1) * q, b = (n + 1) * (1 - q);
  const double log_beta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  const auto pdf = [&](double t) {
    return t <= 0 || t >= 1 ? 0.0
                            : std::exp((a - 1) * std::log(t) + (b - 1) * std::log1p(-t) - log_beta);
  };
  // Weight of order statistic i: the Beta mass on [i/n, (i+1)/n] (Simpson).
  constexpr int kSteps = 16;
  const double h = 1.0 / (n * kSteps);
  double sum = 0, weights = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    double w = 0;
    for (int k = 0; k <= kSteps; ++k) {
      w += (k == 0 || k == kSteps ? 1 : k % 2 ? 4 : 2) * pdf(static_cast<double>(i) / n + k * h);
    }
    sum += w * v[i];
    weights += w;
  }
  return weights > 0 ? sum / weights : v[v.size() / 2];
}
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}
double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex(uint64_t v) { return strformat("%016llx", static_cast<unsigned long long>(v)); }

/// Derive an independent stream from the workload seed.
Rng seeded(uint64_t seed, const std::string& salt) { return Rng(seed ^ fnv1a64(salt)); }

template <typename T>
void shuffle(std::vector<T>* v, Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng.uniform(0, static_cast<int64_t>(i) - 1))]);
  }
}

// ---------------------------------------------------------------------------
// Host-speed calibration. A shared host's speed drifts by tens of percent over
// seconds as other tenants load the same cores, which swamps the changes this
// benchmark is meant to resolve. A fixed kernel owned by this file is timed
// next to every evaluation (zoo) or between rounds (dse, serve), and host
// times are reported scaled to a host on which that kernel takes kCalibMs.
// The kernel mimics the simulator's event loop — random inserts, lookups and
// erases on a small ordered map plus short-lived heap blocks — so contention
// slows both alike (on a 4-vCPU shared VM, back-to-back squeezenet
// simulations varied with CV 10.8% over 90 s, 4.0% after scaling). The
// kernel never changes with the program, so a program change moves the
// scaled times as it moves the raw ones; raw figures are printed on stderr.
// ---------------------------------------------------------------------------
constexpr double kCalibMs = 6.0;
constexpr int kCalibIters = 60000;
std::atomic<uint64_t> g_calib_sink{0};

double calibration_ms() {
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 88172645463325252ull, acc = 0;
  std::map<uint32_t, uint32_t> table;
  std::vector<std::unique_ptr<char[]>> live;
  for (int i = 0; i < kCalibIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint32_t key = static_cast<uint32_t>(x & 4095);
    if (x & 1) {
      table[key] += static_cast<uint32_t>(i);
    } else if (auto it = table.find(key); it != table.end()) {
      acc += it->second;
      if (x & 2) table.erase(it);
    }
    if ((x & 7) == 0) live.emplace_back(new char[32 + (x & 127)]);
    if (live.size() > 64) live.erase(live.begin());
  }
  g_calib_sink.fetch_add(acc, std::memory_order_relaxed);
  return secs_since(t0) * 1e3;
}

/// Factor that scales a host time measured now to the calibrated host.
double host_scale() {
  return kCalibMs / median({calibration_ms(), calibration_ms(), calibration_ms()});
}

// ---------------------------------------------------------------------------
// Spans: host-time intervals recorded by this file around each layer call.
// Spans of one evaluation share its id; written as Chrome trace JSON at exit.
// ---------------------------------------------------------------------------
class Spans {
 public:
  void add(const std::string& name, uint64_t eval, uint32_t tid, Clock::time_point start,
           Clock::time_point end) {
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - epoch_).count();
    };
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, eval, tid, us(start), us(end) - us(start)});
  }

  /// Self time per span name in ms: duration minus the part covered by
  /// direct children (spans of the same evaluation and thread nested inside).
  std::map<std::string, std::pair<double, double>> total_and_self_ms() const {
    std::vector<Span> s = spans_;
    std::sort(s.begin(), s.end(), [](const Span& a, const Span& b) {
      if (a.eval != b.eval) return a.eval < b.eval;
      if (a.tid != b.tid) return a.tid < b.tid;
      if (a.start_us != b.start_us) return a.start_us < b.start_us;
      return a.dur_us > b.dur_us;
    });
    std::vector<double> self(s.size());
    std::vector<size_t> stack;
    for (size_t i = 0; i < s.size(); ++i) {
      self[i] = s[i].dur_us;
      while (!stack.empty()) {
        const Span& top = s[stack.back()];
        const bool same = top.eval == s[i].eval && top.tid == s[i].tid;
        if (same && s[i].start_us < top.start_us + top.dur_us) break;
        stack.pop_back();
      }
      if (!stack.empty()) self[stack.back()] -= s[i].dur_us;
      stack.push_back(i);
    }
    std::map<std::string, std::pair<double, double>> out;
    for (size_t i = 0; i < s.size(); ++i) {
      out[s[i].name].first += s[i].dur_us * 1e-3;
      out[s[i].name].second += self[i] * 1e-3;
    }
    return out;
  }

  /// Chrome trace JSON: name metadata first, then the spans in start order
  /// (an enclosing span before the spans it contains).
  void write_chrome(const std::string& path) const {
    std::vector<Span> s = spans_;
    std::stable_sort(s.begin(), s.end(), [](const Span& a, const Span& b) {
      return a.start_us != b.start_us ? a.start_us < b.start_us : a.dur_us > b.dur_us;
    });
    json::Array events;
    const auto event = [](const char* name, const char* ph, uint32_t tid) {
      json::Value e;
      e["name"] = json::Value(name);
      e["ph"] = json::Value(ph);
      e["pid"] = json::Value(1);
      e["tid"] = json::Value(tid);
      return e;
    };
    const auto meta = [&](const char* kind, uint32_t tid, const std::string& label) {
      json::Value e = event(kind, "M", tid);
      e["args"]["name"] = json::Value(label);
      events.push_back(std::move(e));
    };
    meta("process_name", 0, "pimbench");
    std::set<uint32_t> tids;
    for (const Span& sp : s) tids.insert(sp.tid);
    for (uint32_t tid : tids) {
      meta("thread_name", tid, tid == 0 ? "bench" : strformat("client %u", tid - 1));
    }
    for (const Span& sp : s) {
      json::Value e = event(sp.name.c_str(), "X", sp.tid);
      e["ts"] = json::Value(sp.start_us);
      e["dur"] = json::Value(sp.dur_us);
      e["args"]["eval"] = json::Value(sp.eval);
      events.push_back(std::move(e));
    }
    json::Value root;
    root["traceEvents"] = json::Value(std::move(events));
    json::write_file(path, root, -1);
  }

 private:
  struct Span {
    std::string name;
    uint64_t eval;
    uint32_t tid;
    double start_us;
    double dur_us;
  };
  Clock::time_point epoch_ = Clock::now();
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Time `fn` in ms, recording a span when `spans` is non-null.
template <typename Fn>
double timed(Spans* spans, const char* name, uint64_t eval, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  if (spans != nullptr) spans->add(name, eval, 0, t0, t1);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Heap allocations made while `fn` runs (counting is process-wide: call
/// only where no other thread allocates).
template <typename Fn>
std::pair<uint64_t, uint64_t> count_allocs(bool on, Fn&& fn) {
  if (!on) {
    fn();
    return {0, 0};
  }
  g_allocs.store(0, std::memory_order_relaxed);
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  fn();
  g_count_allocs.store(false, std::memory_order_relaxed);
  return {g_allocs.load(std::memory_order_relaxed), g_alloc_bytes.load(std::memory_order_relaxed)};
}

// ---------------------------------------------------------------------------
// Goldens and the output oracle.
// ---------------------------------------------------------------------------
std::string golden_key(const std::string& net, bool functional) {
  return net + (functional ? "/functional" : "/timing");
}

/// Digest of a report's JSON without the simulator-internal kernel event
/// count: latency, energy by component, instructions and per-layer stats.
uint64_t report_digest(json::Value report) {
  report.as_object().erase("kernel_events");
  return fnv1a64(report.dump());
}

uint64_t bytes_digest(const std::vector<int8_t>& bytes) {
  return fnv1a64(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

struct Oracle {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few mismatch messages

  /// Count one evaluation; `error` empty means it matched.
  void record(const std::string& what, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(what + ": " + error);
  }
};

/// Compare a served or simulated report JSON with its golden.
std::string check_report_json(const json::Value& golden, const json::Value& report) {
  if (!report.get_or("finished", false)) return "simulation did not finish";
  if (report.at("instructions").as_int() != golden.at("instructions").as_int()) {
    return strformat("instructions %lld, golden %lld",
                     static_cast<long long>(report.at("instructions").as_int()),
                     static_cast<long long>(golden.at("instructions").as_int()));
  }
  if (hex(report_digest(report)) != golden.at("report_fnv").as_string()) {
    return "report differs from golden (latency, energy or per-layer stats)";
  }
  return {};
}

/// Full check of a locally simulated report (zoo workloads and probes).
std::string check_report(const json::Value& golden, const runtime::Report& r,
                         const json::Value& report_json, const std::vector<int8_t>* reference,
                         uint64_t input_seed) {
  if (const std::string e = check_report_json(golden, report_json); !e.empty()) return e;
  if (static_cast<int64_t>(r.stats.total_ps) != golden.at("total_ps").as_int()) {
    return "total_ps differs from golden";
  }
  if (static_cast<int64_t>(r.stats.total_bytes_on_noc()) != golden.at("noc_bytes").as_int()) {
    return "NoC bytes differ from golden";
  }
  if (reference != nullptr) {
    if (r.output != *reference) return "functional output differs from the reference executor";
    const json::Value& outs = golden.at("outputs");
    if (hex(bytes_digest(r.output)) != outs.at(std::to_string(input_seed)).as_string()) {
      return "functional output differs from golden";
    }
  }
  return {};
}

json::Value golden_of(const runtime::Report& r, const json::Value& report_json,
                      uint64_t graph_fp) {
  json::Value g;
  g["graph_fnv"] = json::Value(hex(graph_fp));
  g["total_ps"] = json::Value(static_cast<uint64_t>(r.stats.total_ps));
  g["instructions"] = json::Value(r.stats.total_instructions());
  g["noc_bytes"] = json::Value(r.stats.total_bytes_on_noc());
  g["report_fnv"] = json::Value(hex(report_digest(report_json)));
  return g;
}

/// DSE goldens carry what dse::Metrics exposes for a point.
json::Value dse_golden_of(const dse::Metrics& m) {
  json::Array a;
  a.emplace_back(m.total_ps);
  a.emplace_back(m.instructions);
  a.emplace_back(m.noc_bytes);
  a.emplace_back(m.energy_uj);
  return json::Value(std::move(a));
}

/// A DSE point simulated outside the evaluator, in the shape check_point reads.
dse::EvaluatedPoint point_of(const std::string& label, bool ok, const runtime::Report& r) {
  dse::EvaluatedPoint ep;
  ep.label = label;
  ep.feasible = true;
  ep.ok = ok;
  ep.metrics.total_ps = static_cast<uint64_t>(r.stats.total_ps);
  ep.metrics.instructions = r.stats.total_instructions();
  ep.metrics.noc_bytes = r.stats.total_bytes_on_noc();
  ep.metrics.energy_uj = r.energy_uj();
  return ep;
}

std::string check_point(const json::Value& goldens, const dse::EvaluatedPoint& ep) {
  if (!ep.feasible || !ep.ok) return "point failed: " + ep.error;
  if (ep.from_cache) return "answered from a cache; the benchmark runs without one";
  if (!goldens.contains(ep.label)) return "no golden for this point";
  if (!(dse_golden_of(ep.metrics) == goldens.at(ep.label))) {
    return "simulated metrics differ from golden " + goldens.at(ep.label).dump();
  }
  return {};
}

// ---------------------------------------------------------------------------
// One evaluation on the `pimsim --workload` path, either through the public
// facade (untraced) or split into its stages with a span around each call.
// ---------------------------------------------------------------------------
struct EvalInput {
  std::string net;
  bool functional = false;
  workload::WorkloadSpec spec;
  config::ArchConfig cfg;
  compiler::CompileOptions copts;
  uint64_t input_seed = 0;
  nn::Tensor input;                ///< functional only
  std::vector<int8_t> reference;   ///< reference-executor output (functional)
  json::Value golden;              ///< null when none was captured
};

EvalInput make_input(const std::string& net, bool functional, const json::Value& goldens) {
  EvalInput in;
  in.net = net;
  in.functional = functional;
  in.spec = workload::parse_workload_token(net, kInputHw);
  in.cfg = config::ArchConfig::paper_default();
  in.cfg.sim.functional = functional;
  in.copts.include_weights = functional;
  if (goldens.contains(golden_key(net, functional))) in.golden = goldens.at(golden_key(net, functional));
  return in;
}

/// Host cost of one staged evaluation.
struct Stage {
  int mode = kSpans;
  double build_ms = 0, compile_ms = 0, chip_build_ms = 0, run_ms = 0, report_ms = 0;
  bool cold_build = false, cold_compile = false;
  uint64_t compile_allocs = 0, run_allocs = 0, run_alloc_bytes = 0;
  uint64_t instructions = 0, events = 0;
};

/// What a cold `pimsim --workload` run does, through runtime::simulate_compiled.
runtime::Report facade_eval(artifact::Store& store, const EvalInput& in, json::Value* json_out) {
  const artifact::GraphHandle h = store.graph(in.spec, in.functional);
  const auto net = store.program(h, in.cfg, in.copts);
  runtime::Report r =
      runtime::simulate_compiled(*net, in.cfg, in.functional ? &in.input : nullptr);
  *json_out = r.to_json();
  const std::string text = json_out->dump(2);
  if (text.empty()) throw std::runtime_error("empty report");
  return r;
}

/// The same evaluation split at the layer boundaries: build, compile, chip
/// build (which verifies), run, report. Allocations are counted around
/// compile and run in kSpansAllocs mode. `verify_targets` collects each
/// (program, arch) pair for the one extra timed Program::verify call.
using VerifyTargets =
    std::map<std::string, std::pair<std::shared_ptr<const runtime::CompiledNetwork>,
                                    config::ArchConfig>>;

runtime::Report staged_eval(artifact::Store& store, const EvalInput& in, Spans* spans,
                            uint64_t eval, Stage* st, json::Value* json_out,
                            VerifyTargets* verify_targets) {
  const bool allocs = st->mode == kSpansAllocs;
  const artifact::StoreStats s0 = store.stats();
  artifact::GraphHandle h;
  st->build_ms = timed(spans, "workload.build", eval, [&] { h = store.graph(in.spec, in.functional); });
  std::shared_ptr<const runtime::CompiledNetwork> net;
  st->compile_ms = timed(spans, "compiler.compile", eval, [&] {
    st->compile_allocs = count_allocs(allocs, [&] { net = store.program(h, in.cfg, in.copts); }).first;
  });
  const artifact::StoreStats s1 = store.stats();
  st->cold_build = s1.graph_misses > s0.graph_misses;
  st->cold_compile = s1.program_misses > s0.program_misses;
  (*verify_targets)[in.net] = {net, in.cfg};

  if (net->copts.batch > 1) throw std::runtime_error("staged evaluation supports batch 1 only");
  std::optional<arch::Chip> chip;
  st->chip_build_ms = timed(spans, "arch.chip_build", eval, [&] {
    chip.emplace(in.cfg, net->program);
    if (in.functional) {
      chip->write_global(net->copts.input_gaddr,
                         std::span<const uint8_t>(
                             reinterpret_cast<const uint8_t*>(in.input.data.data()),
                             in.input.data.size()));
    }
  });
  arch::RunStats stats;
  st->run_ms = timed(spans, "arch.run", eval, [&] {
    std::tie(st->run_allocs, st->run_alloc_bytes) =
        count_allocs(allocs, [&] { stats = chip->run(); });
  });
  runtime::Report r;
  st->report_ms = timed(spans, "stats.report", eval, [&] {
    r.network = net->program.network_name;
    r.policy = net->program.mapping_policy;
    r.stats = std::move(stats);
    r.finished = chip->finished();
    r.wall_timed_out = chip->wall_expired();
    if (net->output_elems_per_image > 0) {
      const std::vector<uint8_t> raw =
          chip->read_global(net->copts.output_gaddr, net->output_elems_per_image);
      r.output.assign(raw.begin(), raw.end());
    }
    r.compile = net->compile;
    *json_out = r.to_json();
    if (json_out->dump(2).empty()) throw std::runtime_error("empty report");
  });
  st->instructions = r.stats.total_instructions();
  st->events = r.stats.kernel_events;
  return r;
}

// ---------------------------------------------------------------------------
// Measurements shared by all workloads.
// ---------------------------------------------------------------------------
struct Round {
  int mode = kPlain;
  double scale = 1.0;  ///< host_scale() measured next to the round
  double wall_s = 0, cpu_s = 0;
  uint64_t evals = 0, instructions = 0;
};

struct Measure {
  std::vector<Round> rounds;
  std::vector<double> request_ms;       ///< per evaluation, kPlain rounds only
  std::vector<double> request_scale;    ///< host_scale() of each request_ms
  std::vector<Stage> stages;
  VerifyTargets verify_targets;
  std::vector<double> setup_s, setup_scale;
  double peak_rss_mb = 0;
  artifact::StoreStats artifacts;       ///< store activity of the timed loop
  double parallel_efficiency = 0, scenario_ms_p50 = 0;
  std::vector<double> service_ms, overhead_ms;  ///< serve only
  Oracle oracle;
  Spans spans;
  std::atomic<uint64_t> evals{0};  ///< span ids: one per evaluation

  uint64_t new_eval() { return evals.fetch_add(1, std::memory_order_relaxed) + 1; }
};

/// Stage each input once per traced mode, on a fresh store per pass so that
/// builds and compiles are cold. `check` returns the mismatch, if any.
template <typename Check>
void staged_probe(Measure* m, const std::vector<EvalInput>& inputs, Check&& check) {
  for (int mode : {kSpans, kSpansAllocs}) {
    artifact::Store store;
    for (const EvalInput& in : inputs) {
      Stage s;
      s.mode = mode;
      json::Value report_json;
      std::string error;
      try {
        const runtime::Report r = staged_eval(store, in, &m->spans, m->new_eval(), &s,
                                              &report_json, &m->verify_targets);
        error = check(in, r, report_json);
        m->stages.push_back(s);
      } catch (const std::exception& e) {
        error = e.what();
      }
      m->oracle.record(in.net + " (staged probe)", error);
    }
  }
}

/// Evaluations per scaled host second over the rounds run in `mode`.
double rate_of(const std::vector<Round>& rounds, int mode) {
  double evals = 0, wall = 0;
  for (const Round& x : rounds) {
    if (x.mode != mode) continue;
    evals += static_cast<double>(x.evals);
    wall += x.wall_s * x.scale;
  }
  return ratio(evals, wall);
}

json::Value metric(double value, const char* unit) {
  json::Value m;
  m["value"] = json::Value(value);
  m["unit"] = json::Value(unit);
  return m;
}

/// Scaled (or `raw`) request latencies of the plain rounds.
std::vector<double> request_latencies(const Measure& m, bool raw) {
  std::vector<double> out;
  for (size_t i = 0; i < m.request_ms.size(); ++i) {
    out.push_back(m.request_ms[i] * (raw ? 1.0 : m.request_scale[i]));
  }
  return out;
}

/// The end-to-end metrics; host times scaled to the calibrated host unless
/// `raw`.
json::Value end_to_end_metrics(const Measure& m, bool raw) {
  // Sums over the rounds, not a median of per-round rates: a DSE generation's
  // cost depends on which points it drew, and only whole passes over the
  // grid weigh every point equally.
  double evals = 0, instructions = 0, wall = 0, cpu = 0;
  for (const Round& r : m.rounds) {
    if (r.mode != kPlain) continue;
    const double scale = raw ? 1.0 : r.scale;
    evals += static_cast<double>(r.evals);
    instructions += static_cast<double>(r.instructions);
    wall += r.wall_s * scale;
    cpu += r.cpu_s * scale;
  }
  std::vector<double> setup;
  for (size_t i = 0; i < m.setup_s.size(); ++i) {
    setup.push_back(m.setup_s[i] * (raw ? 1.0 : m.setup_scale[i]));
  }
  json::Value out;
  out["evals_per_s"] = metric(ratio(evals, wall), "1/s");
  out["sim_mips"] = metric(ratio(instructions * 1e-6, wall), "Minstr/s");
  out["cpu_ms_per_eval"] = metric(ratio(cpu * 1e3, evals), "ms");
  out["request_ms.p50"] = metric(hd_quantile(request_latencies(m, raw), 0.50), "ms");
  out["peak_rss_mb"] = metric(m.peak_rss_mb, "MB");
  out["setup_s"] = metric(median(setup), "s");
  return out;
}

json::Value per_layer_metrics(const Measure& m) {
  std::vector<double> build, compile, compile_allocs, chip, report;
  double run_ms = 0, run_instr = 0, run_events = 0, alloc_n = 0, alloc_b = 0, alloc_instr = 0;
  for (const Stage& s : m.stages) {
    if (s.mode == kSpans) {
      if (s.cold_build) build.push_back(s.build_ms);
      if (s.cold_compile) compile.push_back(s.compile_ms);
      chip.push_back(s.chip_build_ms);
      report.push_back(s.report_ms);
      run_ms += s.run_ms;
      run_instr += static_cast<double>(s.instructions);
      run_events += static_cast<double>(s.events);
    } else {
      if (s.cold_compile) compile_allocs.push_back(static_cast<double>(s.compile_allocs));
      alloc_n += static_cast<double>(s.run_allocs);
      alloc_b += static_cast<double>(s.run_alloc_bytes);
      alloc_instr += static_cast<double>(s.instructions);
    }
  }
  const artifact::StoreStats& a = m.artifacts;
  const double plain = rate_of(m.rounds, kPlain);
  const double spans = rate_of(m.rounds, kSpans);
  const double hooked = rate_of(m.rounds, kSpansAllocs);
  json::Value out;
  out["workload.build_ms"] = metric(mean(build), "ms");
  out["compiler.compile_ms"] = metric(mean(compile), "ms");
  out["compiler.allocs"] = metric(mean(compile_allocs), "count");
  out["artifact.graph_hit_ratio"] =
      metric(ratio(static_cast<double>(a.graph_hits), static_cast<double>(a.graph_hits + a.graph_misses)), "ratio");
  out["artifact.program_hit_ratio"] =
      metric(ratio(static_cast<double>(a.program_hits),
                   static_cast<double>(a.program_hits + a.program_misses)), "ratio");
  out["arch.chip_build_ms"] = metric(mean(chip), "ms");
  out["arch.run_ms"] = metric(chip.empty() ? 0.0 : run_ms / static_cast<double>(chip.size()), "ms");
  out["arch.ns_per_instr"] = metric(ratio(run_ms * 1e6, run_instr), "ns");
  out["arch.allocs_per_instr"] = metric(ratio(alloc_n, alloc_instr), "count");
  out["arch.alloc_bytes_per_instr"] = metric(ratio(alloc_b, alloc_instr), "B");
  out["sim.ns_per_event"] = metric(ratio(run_ms * 1e6, run_events), "ns");
  out["sim.events_per_instr"] = metric(ratio(run_events, run_instr), "count");
  out["stats.report_ms"] = metric(mean(report), "ms");
  out["runtime.parallel_efficiency"] = metric(m.parallel_efficiency, "ratio");
  out["runtime.scenario_ms.p50"] = metric(m.scenario_ms_p50, "ms");
  out["serve.service_ms.p50"] = metric(median(m.service_ms), "ms");
  out["serve.overhead_ms.p50"] = metric(median(m.overhead_ms), "ms");
  out["trace.evals_per_s_delta"] = metric(spans - plain, "1/s");
  out["alloc_hook.evals_per_s_delta"] = metric(hooked - spans, "1/s");
  return out;
}

/// The one extra timed Program::verify per (program, arch) pair.
double verify_probe(Measure* m) {
  std::vector<double> ms;
  for (const auto& [label, target] : m->verify_targets) {
    std::vector<std::string> problems;
    ms.push_back(timed(&m->spans, "isa.verify", m->new_eval(), [&] {
      problems = target.first->program.verify(target.second);
    }));
    m->oracle.record(label + " verify", problems.empty() ? "" : problems.front());
  }
  return mean(ms);
}

int mode_of(size_t round, bool trace) { return trace ? static_cast<int>(round % 3) : kPlain; }

/// Run `setup` repeatedly (see kSetupReps), recording each duration; keeps
/// the last.
template <typename Fn>
auto timed_setup(Measure* m, Fn&& setup) {
  std::optional<decltype(setup())> state;
  double total = 0;
  for (int i = 0; i < kSetupMaxReps && (i < kSetupReps || total < kSetupBudgetS); ++i) {
    state.reset();
    m->setup_scale.push_back(host_scale());
    const Clock::time_point t0 = Clock::now();
    state.emplace(setup());
    m->setup_s.push_back(secs_since(t0));
    total += m->setup_s.back();
  }
  return std::move(*state);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string goldens_path;
  std::string pimserved;
  std::string out_dir;
};

// ---------------------------------------------------------------------------
// zoo_timing / zoo_functional: single-threaded closed loop of cold
// evaluations, each with a fresh artifact::Store. A round is one
// seed-shuffled pass over the networks.
// ---------------------------------------------------------------------------
std::vector<EvalInput> zoo_setup(const std::vector<std::string>& nets, bool functional,
                                 uint64_t seed, const std::string& goldens_path) {
  const json::Value goldens = json::parse_file(goldens_path).at("zoo");
  std::vector<EvalInput> inputs;
  for (const std::string& net : nets) {
    EvalInput in = make_input(net, functional, goldens);
    if (in.golden.is_null()) throw std::runtime_error("no golden for " + golden_key(net, functional));
    const workload::BuiltWorkload built = workload::build(in.spec, functional);
    if (hex(workload::graph_fingerprint(built.graph)) != in.golden.at("graph_fnv").as_string()) {
      throw std::runtime_error(net + ": graph fingerprint differs from golden");
    }
    if (functional) {
      Rng rng = seeded(seed, "input/" + net);
      in.input_seed = static_cast<uint64_t>(rng.uniform(0, kInputPool - 1));
      in.input = nn::random_input(built.input_shape, in.input_seed);
      in.reference = nn::execute_reference_output(built.graph, in.input).data;
    }
    inputs.push_back(std::move(in));
  }
  return inputs;
}

void run_zoo(const Options& o, bool functional, Measure* m) {
  const std::vector<std::string>& nets = functional ? kFunctionalNets : kTimingNets;
  std::vector<EvalInput> inputs =
      timed_setup(m, [&] { return zoo_setup(nets, functional, o.seed, o.goldens_path); });
  Rng order_rng = seeded(o.seed, o.workload);
  std::vector<size_t> order(inputs.size());
  const Clock::time_point start = Clock::now();
  for (size_t round = 0; secs_since(start) < o.seconds; ++round) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(&order, order_rng);
    Round rd;
    rd.mode = mode_of(round, o.trace);
    double scaled_wall = 0;
    std::vector<double> lat, lat_scale;
    for (size_t idx : order) {
      const EvalInput& in = inputs[idx];
      const uint64_t eval = m->new_eval();
      json::Value report_json;
      std::optional<runtime::Report> r;
      std::string error;
      // Calibrate next to each evaluation: the host drifts within a round.
      lat_scale.push_back(host_scale());
      const double cpu0 = cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      try {
        artifact::Store store;
        if (rd.mode == kPlain) {
          r = facade_eval(store, in, &report_json);
        } else {
          Stage st;
          st.mode = rd.mode;
          const Clock::time_point e0 = Clock::now();
          r = staged_eval(store, in, &m->spans, eval, &st, &report_json, &m->verify_targets);
          m->spans.add("eval", eval, 0, e0, Clock::now());
          m->stages.push_back(st);
        }
        const artifact::StoreStats s = store.stats();
        m->artifacts.graph_hits += s.graph_hits;
        m->artifacts.graph_misses += s.graph_misses;
        m->artifacts.program_hits += s.program_hits;
        m->artifacts.program_misses += s.program_misses;
      } catch (const std::exception& e) {
        error = e.what();
      }
      const double wall = secs_since(t0);
      rd.cpu_s += cpu_seconds() - cpu0;
      rd.wall_s += wall;
      scaled_wall += wall * lat_scale.back();
      lat.push_back(wall * 1e3);
      if (r) {
        rd.instructions += r->stats.total_instructions();
        error = check_report(in.golden, *r, report_json, functional ? &in.reference : nullptr,
                             in.input_seed);
      }
      m->oracle.record(in.net, error);
      ++rd.evals;
      if (secs_since(start) >= o.seconds) break;
    }
    // Only whole passes count: a partial one would weight the networks
    // unequally and make the rate depend on where the deadline fell.
    if (rd.evals == order.size()) {
      rd.scale = scaled_wall / rd.wall_s;
      m->rounds.push_back(rd);
      if (rd.mode == kPlain) {
        m->request_ms.insert(m->request_ms.end(), lat.begin(), lat.end());
        m->request_scale.insert(m->request_scale.end(), lat_scale.begin(), lat_scale.end());
      }
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m->peak_rss_mb = peak_rss_mb(ru);
}

// ---------------------------------------------------------------------------
// dse_sweep: dse::Evaluator (no result cache, jobs = min(4, nproc)) over a
// seed-shuffled pass through configs/dse_paper.json with the network set to
// resnet18. A round is one evaluate() call on a generation of points.
// ---------------------------------------------------------------------------
struct DseState {
  dse::SearchSpace space;
  std::vector<dse::Point> points;  ///< every constraint-feasible grid point
  json::Value goldens;             ///< point label -> dse_golden_of
};

DseState dse_setup(const std::string& goldens_path) {
  DseState s;
  if (!goldens_path.empty()) s.goldens = json::parse_file(goldens_path).at("dse");
  s.space = dse::SearchSpace::load(kDseSpace);
  s.space.workload = s.space.workload.with_network(kDseNetwork);
  s.points = dse::make_sampler("grid", s.space)->propose(SIZE_MAX, {});
  return s;
}

unsigned dse_jobs() { return std::max(1u, std::min(4u, std::thread::hardware_concurrency())); }

void run_dse(const Options& o, Measure* m) {
  DseState st = timed_setup(m, [&] { return dse_setup(o.goldens_path); });
  const json::Value& dse_goldens = st.goldens;
  const unsigned jobs = dse_jobs();
  dse::EvalOptions eo;
  eo.jobs = jobs;
  dse::Evaluator evaluator(st.space, eo);
  // Generations are cut from seed-shuffled passes over the grid, never across
  // two passes: every point is drawn equally often and no generation holds a
  // point twice (the evaluator would alias the copy instead of simulating it).
  Rng rng = seeded(o.seed, o.workload);
  std::vector<dse::Point> order;
  const size_t generation = 4 * jobs;
  const auto next_generation = [&] {
    if (order.empty()) {
      order = st.points;
      shuffle(&order, rng);
    }
    const size_t n = std::min(generation, order.size());
    std::vector<dse::Point> batch(order.begin(), order.begin() + n);
    order.erase(order.begin(), order.begin() + n);
    return batch;
  };
  const artifact::StoreStats a0 = evaluator.artifact_stats();
  const Clock::time_point start = Clock::now();
  for (size_t round = 0; secs_since(start) < o.seconds; ++round) {
    const std::vector<dse::Point> batch = next_generation();
    Round rd;
    rd.mode = mode_of(round, o.trace);
    rd.scale = host_scale();
    std::vector<double> lat;
    const Clock::time_point t0 = Clock::now();
    evaluator.set_progress([&](const dse::EvaluatedPoint&, size_t, size_t) {
      lat.push_back(secs_since(t0) * 1e3);
    });
    const double cpu0 = cpu_seconds();
    std::vector<dse::EvaluatedPoint> res;
    if (rd.mode == kSpansAllocs) {
      count_allocs(true, [&] { res = evaluator.evaluate(batch); });
    } else {
      res = evaluator.evaluate(batch);
    }
    const Clock::time_point t1 = Clock::now();
    rd.wall_s = std::chrono::duration<double>(t1 - t0).count();
    rd.cpu_s = cpu_seconds() - cpu0;
    if (rd.mode != kPlain) m->spans.add("dse.evaluate", m->new_eval(), 0, t0, t1);
    for (const dse::EvaluatedPoint& ep : res) {
      m->oracle.record(ep.label, check_point(dse_goldens, ep));
      rd.instructions += ep.metrics.instructions;
      ++rd.evals;
    }
    m->rounds.push_back(rd);
    if (rd.mode == kPlain) {
      m->request_ms.insert(m->request_ms.end(), lat.begin(), lat.end());
      m->request_scale.resize(m->request_ms.size(), rd.scale);
    }
  }
  evaluator.set_progress(nullptr);
  m->artifacts = evaluator.artifact_stats() - a0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m->peak_rss_mb = peak_rss_mb(ru);
  if (!o.trace) return;

  // Traced probes, after the timed loop: one BatchRunner::run over a
  // generation of the same sample on the evaluator's hot store (parallel
  // efficiency, per-scenario time), then the first points staged one by one.
  std::vector<runtime::Scenario> scenarios;
  std::vector<std::string> labels;
  for (const dse::Point& p : next_generation()) {
    scenarios.push_back(dse::materialize(st.space, p).scenario);
    labels.push_back(dse::point_label(p));
  }
  runtime::BatchRunner runner(jobs);
  runner.set_artifacts(evaluator.artifacts());
  const Clock::time_point b0 = Clock::now();
  const runtime::BatchResult br = runner.run(scenarios);
  m->spans.add("runtime.batch_run", m->new_eval(), 0, b0, Clock::now());
  m->parallel_efficiency = ratio(br.serial_ms(), jobs * br.wall_ms);
  std::vector<double> scen;
  for (size_t i = 0; i < br.results.size(); ++i) {
    const runtime::ScenarioResult& r = br.results[i];
    scen.push_back(r.wall_ms);
    dse::EvaluatedPoint ep = point_of(labels[i], r.ok, r.report);
    ep.error = r.error;
    m->oracle.record(labels[i] + " (batch probe)", check_point(dse_goldens, ep));
  }
  m->scenario_ms_p50 = median(scen);

  std::vector<EvalInput> probes;
  for (size_t i = 0; i < 3 && i < scenarios.size(); ++i) {
    EvalInput in;
    in.net = labels[i];
    in.spec = scenarios[i].workload;
    in.cfg = scenarios[i].arch;
    in.copts = scenarios[i].copts;
    probes.push_back(std::move(in));
  }
  staged_probe(m, probes, [&](const EvalInput& in, const runtime::Report& r, const json::Value&) {
    return check_point(dse_goldens, point_of(in.net, r.finished, r));
  });
}

// ---------------------------------------------------------------------------
// serve_hot: pimserved on a Unix socket (no --cache-dir), two closed-loop
// client connections from this process sending seed-ordered `evaluate`
// requests. Set-up is daemon start plus a warm-up round.
// ---------------------------------------------------------------------------
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& sock, unsigned jobs) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const std::string jobs_arg = std::to_string(jobs);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execl(bin.c_str(), bin.c_str(), "--listen", sock.c_str(), "--jobs", jobs_arg.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    // Wait for the readiness line.
    std::string out;
    const Clock::time_point t0 = Clock::now();
    while (out.find("listening on unix:") == std::string::npos) {
      pollfd p{fds[0], POLLIN, 0};
      if (secs_since(t0) > 60 || poll(&p, 1, 1000) < 0) break;
      char buf[256];
      const ssize_t n = (p.revents & (POLLIN | POLLHUP)) ? read(fds[0], buf, sizeof buf) : 0;
      if (n < 0 || ((p.revents & POLLHUP) && n == 0)) break;
      out.append(buf, static_cast<size_t>(std::max<ssize_t>(n, 0)));
    }
    close(fds[0]);
    if (out.find("listening on unix:") == std::string::npos) {
      throw std::runtime_error("pimserved did not start: " + bin);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  double cpu_s() const {
    clockid_t c;
    if (clock_getcpuclockid(pid_, &c) != 0) return 0.0;
    return cpu_seconds(c);
  }

  /// SIGINT drain; returns the daemon's resource usage. Throws unless it
  /// exited 0.
  rusage stop() {
    kill(pid_, SIGINT);
    int status = 0;
    rusage ru{};
    wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("pimserved did not drain cleanly");
    }
    return ru;
  }

 private:
  pid_t pid_ = -1;
};

class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("bad socket");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close(fd_);
      throw std::runtime_error("cannot connect to " + path);
    }
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { close(fd_); }

  std::string call(const std::string& line) {
    const std::string msg = line + "\n";
    for (size_t off = 0; off < msg.size();) {
      const ssize_t n = send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<size_t>(n);
    }
    size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      char tmp[65536];
      const ssize_t n = recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) throw std::runtime_error("connection closed");
      buf_.append(tmp, static_cast<size_t>(n));
    }
    std::string reply = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return reply;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

std::string evaluate_request(uint64_t id, const std::string& net) {
  return strformat(R"({"id":%llu,"kind":"evaluate","workload":"%s","arch":"paper","input_hw":%d})",
                   static_cast<unsigned long long>(id), net.c_str(), kInputHw);
}

artifact::StoreStats served_store_stats(Conn& c) {
  const json::Value v = json::parse(c.call(R"({"kind":"stats"})"));
  const json::Value& k = v.at("stats").at("counters");
  artifact::StoreStats s;
  s.graph_hits = static_cast<size_t>(k.at("artifact.graph_hits").as_int());
  s.graph_misses = static_cast<size_t>(k.at("artifact.graph_misses").as_int());
  s.program_hits = static_cast<size_t>(k.at("artifact.program_hits").as_int());
  s.program_misses = static_cast<size_t>(k.at("artifact.program_misses").as_int());
  return s;
}

struct Served {
  std::string net;
  size_t round = 0;
  double rtt_ms = 0;
  std::string reply;
};

struct ServeState {
  json::Value goldens;  ///< the zoo goldens
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Conn>> conns;
};

constexpr size_t kClients = 2;
constexpr size_t kPassesPerRound = 3;

void run_serve(const Options& o, Measure* m) {
  std::filesystem::create_directories(o.out_dir);
  const std::string sock = o.out_dir + strformat("/serve-%d.sock", static_cast<int>(getpid()));
  uint64_t id = 0;
  ServeState st = timed_setup(m, [&] {
    ServeState s;
    s.goldens = json::parse_file(o.goldens_path).at("zoo");
    s.daemon = std::make_unique<Daemon>(o.pimserved, sock, dse_jobs());
    for (size_t c = 0; c < kClients; ++c) s.conns.push_back(std::make_unique<Conn>(sock));
    for (const std::string& net : kServeNets) {
      const json::Value v = json::parse(s.conns[0]->call(evaluate_request(++id, net)));
      if (!v.get_or("ok", false)) throw std::runtime_error("warm-up failed: " + v.dump());
    }
    return s;
  });
  const artifact::StoreStats a0 = served_store_stats(*st.conns[0]);
  const json::Value& goldens = st.goldens;

  // Rounds: each connection sends kPassesPerRound seed-shuffled passes over
  // the networks. The host is calibrated between rounds, while the daemon is
  // idle; calibrations taken beside a busy daemon scatter more than its
  // throughput drifts.
  std::vector<Served> log;
  std::vector<std::string> errors(kClients);
  std::vector<Rng> rngs;
  for (size_t c = 0; c < kClients; ++c) rngs.push_back(seeded(o.seed, strformat("serve/%zu", c)));
  std::atomic<uint64_t> next_id{id};
  const Clock::time_point start = Clock::now();
  for (size_t round = 0; secs_since(start) < o.seconds; ++round) {
    Round rd;
    rd.mode = mode_of(round, o.trace);
    rd.scale = host_scale();
    std::vector<std::vector<Served>> sent(kClients);
    std::vector<double> client_cpu(kClients);
    const double daemon_cpu0 = st.daemon->cpu_s();
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
        try {
          for (size_t pass = 0; pass < kPassesPerRound; ++pass) {
            std::vector<std::string> order = kServeNets;
            shuffle(&order, rngs[c]);
            for (const std::string& net : order) {
              Served s;
              s.net = net;
              s.round = round;
              const uint64_t rid = next_id.fetch_add(1) + 1;
              const Clock::time_point r0 = Clock::now();
              s.reply = st.conns[c]->call(evaluate_request(rid, net));
              const Clock::time_point r1 = Clock::now();
              s.rtt_ms = std::chrono::duration<double, std::milli>(r1 - r0).count();
              if (rd.mode != kPlain) {
                m->spans.add("serve.request", m->new_eval(), static_cast<uint32_t>(c + 1), r0, r1);
              }
              sent[c].push_back(std::move(s));
            }
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
        client_cpu[c] = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
      });
    }
    for (std::thread& t : clients) t.join();
    rd.wall_s = secs_since(t0);
    rd.cpu_s = st.daemon->cpu_s() - daemon_cpu0;
    for (double c : client_cpu) rd.cpu_s += c;
    for (std::vector<Served>& conn : sent) {
      rd.evals += conn.size();
      for (Served& x : conn) log.push_back(std::move(x));
    }
    m->rounds.push_back(rd);
    if (std::any_of(errors.begin(), errors.end(), [](const std::string& e) { return !e.empty(); })) break;
  }
  m->artifacts = served_store_stats(*st.conns[0]) - a0;
  st.conns.clear();
  const rusage daemon_ru = st.daemon->stop();
  rusage self_ru{};
  getrusage(RUSAGE_SELF, &self_ru);
  m->peak_rss_mb = peak_rss_mb(daemon_ru) + peak_rss_mb(self_ru);
  for (const std::string& e : errors) {
    if (!e.empty()) m->oracle.record("client", e);
  }

  // Replies are checked after the loop so the check does not delay requests.
  for (const Served& s : log) {
    Round& rd = m->rounds[s.round];
    std::string error;
    try {
      const json::Value v = json::parse(s.reply);
      if (!v.get_or("ok", false)) {
        error = "served error " + v.at("error").dump();
      } else if (v.get_or("cached", true)) {
        error = "served from a cache; the benchmark runs without one";
      } else {
        const json::Value& report = v.at("report");
        error = check_report_json(goldens.at(golden_key(s.net, false)), report);
        const double service = v.at("wall_ms").as_double();
        m->service_ms.push_back(service);
        m->overhead_ms.push_back(s.rtt_ms - service);
        rd.instructions += static_cast<uint64_t>(report.at("instructions").as_int());
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    m->oracle.record(s.net + " (served)", error);
    if (rd.mode == kPlain) {
      m->request_ms.push_back(s.rtt_ms);
      m->request_scale.push_back(rd.scale);
    }
  }
  if (o.trace) {
    // The served networks staged cold, as the daemon's warm-up round runs them.
    std::vector<EvalInput> probes;
    for (const std::string& net : kServeNets) probes.push_back(make_input(net, false, goldens));
    staged_probe(m, probes, [](const EvalInput& in, const runtime::Report& r, const json::Value& rj) {
      return check_report(in.golden, r, rj, nullptr, 0);
    });
  }
  std::filesystem::remove(sock);
}

// ---------------------------------------------------------------------------
// Golden capture: evaluate every input any workload can draw and record its
// simulated outputs. Run once at a commit whose model is the reference.
// ---------------------------------------------------------------------------
int capture_goldens(const std::string& path) {
  json::Value zoo;
  std::set<std::string> timing(kTimingNets.begin(), kTimingNets.end());
  timing.insert(kServeNets.begin(), kServeNets.end());
  const json::Value none;
  for (const std::string& net : timing) {
    EvalInput in = make_input(net, false, none);
    artifact::Store store;
    json::Value rj;
    const runtime::Report r = facade_eval(store, in, &rj);
    if (!r.finished) throw std::runtime_error(net + " did not finish");
    const auto h = store.graph(in.spec, false);
    zoo[golden_key(net, false)] = golden_of(r, rj, workload::graph_fingerprint(h.built->graph));
    std::fprintf(stderr, "captured %s\n", golden_key(net, false).c_str());
  }
  for (const std::string& net : kFunctionalNets) {
    EvalInput in = make_input(net, true, none);
    artifact::Store store;
    const auto h = store.graph(in.spec, true);
    json::Value golden, outputs;
    for (uint64_t seed = 0; seed < kInputPool; ++seed) {
      in.input_seed = seed;
      in.input = nn::random_input(h.built->input_shape, seed);
      json::Value rj;
      const runtime::Report r = facade_eval(store, in, &rj);
      if (r.output != nn::execute_reference_output(h.built->graph, in.input).data) {
        throw std::runtime_error(net + ": simulated output differs from the reference executor");
      }
      const json::Value g = golden_of(r, rj, workload::graph_fingerprint(h.built->graph));
      if (seed == 0) golden = g;
      if (!(g == golden)) throw std::runtime_error(net + ": timing depends on the input");
      outputs[std::to_string(seed)] = json::Value(hex(bytes_digest(r.output)));
    }
    golden["outputs"] = std::move(outputs);
    zoo[golden_key(net, true)] = std::move(golden);
    std::fprintf(stderr, "captured %s\n", golden_key(net, true).c_str());
  }
  const DseState st = dse_setup("");
  dse::EvalOptions eo;
  eo.jobs = dse_jobs();
  dse::Evaluator evaluator(st.space, eo);
  json::Value dse_goldens;
  for (const dse::EvaluatedPoint& ep : evaluator.evaluate(st.points)) {
    if (!ep.feasible || !ep.ok) throw std::runtime_error(ep.label + " failed: " + ep.error);
    dse_goldens[ep.label] = dse_golden_of(ep.metrics);
  }
  std::fprintf(stderr, "captured %zu dse points\n", st.points.size());
  json::Value root;
  root["zoo"] = std::move(zoo);
  root["dse"] = std::move(dse_goldens);
  json::write_file(path, root, 1);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::ArgParser args("pimbench", "end-to-end host benchmark of pimsim-nn");
  args.option("--workload", "NAME", "", "zoo_timing | zoo_functional | dse_sweep | serve_hot");
  args.option("--seed", "N", "1", "workload seed");
  args.option("--seconds", "N", "10", "length of the timed loop");
  args.option("--trace", "0|1", "0", "1 = traced run reporting the per-layer metrics");
  args.option("--goldens", "FILE", "perfbench/goldens.json", "golden outputs");
  args.option("--pimserved", "FILE", "", "pimserved binary (serve_hot)");
  args.option("--out-dir", "DIR", ".bench_build/out", "socket and trace directory");
  args.option("--capture-goldens", "FILE", "", "record goldens at this commit and exit");
  args.parse(argc, argv);
  // Mapping fall-backs on small DSE meshes warn by design; keep stderr to
  // the benchmark's own lines.
  log::set_level(log::Level::Error);

  try {
    if (!args.get("--capture-goldens").empty()) return capture_goldens(args.get("--capture-goldens"));

    Options o;
    o.workload = args.get("--workload");
    o.seed = static_cast<uint64_t>(args.get_int("--seed"));
    o.seconds = static_cast<double>(args.get_int("--seconds"));
    o.trace = args.get_int("--trace") != 0;
    o.pimserved = args.get("--pimserved");
    o.out_dir = args.get("--out-dir");
    o.goldens_path = args.get("--goldens");

    Measure m;
    if (o.workload == "zoo_timing") {
      run_zoo(o, false, &m);
    } else if (o.workload == "zoo_functional") {
      run_zoo(o, true, &m);
    } else if (o.workload == "dse_sweep") {
      run_dse(o, &m);
    } else if (o.workload == "serve_hot") {
      run_serve(o, &m);
    } else {
      std::fprintf(stderr, "pimbench: unknown --workload '%s'\n", o.workload.c_str());
      return 2;
    }

    json::Value metrics;
    if (o.trace) {
      const double verify_ms = verify_probe(&m);
      metrics = per_layer_metrics(m);
      metrics["isa.verify_ms"] = metric(verify_ms, "ms");
      std::filesystem::create_directories(o.out_dir);
      const std::string trace_path =
          o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
      m.spans.write_chrome(trace_path);
      std::fprintf(stderr, "pimbench: wrote %s\npimbench: %-22s %12s %12s\n", trace_path.c_str(),
                   "span", "total_ms", "self_ms");
      for (const auto& [name, ts] : m.spans.total_and_self_ms()) {
        std::fprintf(stderr, "pimbench: %-22s %12.2f %12.2f\n", name.c_str(), ts.first, ts.second);
      }
    } else {
      metrics = end_to_end_metrics(m, false);
      std::vector<double> scales;
      for (const Round& r : m.rounds) scales.push_back(r.scale);
      std::fprintf(stderr, "pimbench: host scale %.4f, unscaled %s\n", median(scales),
                   end_to_end_metrics(m, true).dump().c_str());
      // Not a BENCHMARK.json metric: on serve_hot it swings with the host's
      // load by more than any bound allows (see README.md).
      std::fprintf(stderr, "pimbench: request_ms.p95 %.3f ms (unscaled %.3f ms)\n",
                   hd_quantile(request_latencies(m, false), 0.95),
                   hd_quantile(request_latencies(m, true), 0.95));
    }
    const Oracle& oc = m.oracle;
    std::fprintf(stderr, "pimbench: %s seed %llu: %llu evaluations, %llu failed, error_rate %.6f\n",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                 static_cast<unsigned long long>(oc.attempted),
                 static_cast<unsigned long long>(oc.failed),
                 ratio(static_cast<double>(oc.failed), static_cast<double>(oc.attempted)));
    for (const std::string& e : oc.errors) std::fprintf(stderr, "pimbench: FAIL %s\n", e.c_str());
    const bool correct = oc.failed == 0 && oc.attempted > 0;
    json::Value result;
    result["correct"] = json::Value(correct);
    result["attempted"] = json::Value(oc.attempted);
    result["failed"] = json::Value(oc.failed);
    result["metrics"] = std::move(metrics);
    std::printf("%s\n", result.dump().c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pimbench: %s\n", e.what());
    return 1;
  }
}
