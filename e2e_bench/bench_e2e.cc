// bgc_e2e_bench — end-to-end benchmark of the BGC pipeline. The workloads,
// metrics and the layer -> end-to-end mapping are documented in README.md
// next to this file; run.py builds this binary and is the entry point.
//
//   bgc_e2e_bench --workload reddit-attack --seed 1 --seconds 30 --trace 0
//                 --workdir DIR [--result FILE] [--source-id ID] [--smoke]
//
// The library is driven in-process through each module's public entry
// points; every timing here is the benchmark's own span around one of those
// calls. End-to-end numbers come from requests run with obs collection off.
// With --trace 1, traced requests (obs::SetMetricsEnabled(true)) alternate
// with untraced ones; the registry's phase timers and kernel counters give
// the per-layer numbers and the traced/untraced gap gives the tracing
// overhead.
//
// Output: one "metric <name> = <value> <unit>" line per metric, CTA/ASR and
// fingerprint lines, and as the last stdout line one JSON object
//   {"correct":b,"attempted":n,"failed":n,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). --result writes the full result (every metric, samples,
// checks, fingerprint) as JSON.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/attack/bgc.h"
#include "src/condense/condenser.h"
#include "src/core/fs.h"
#include "src/core/parse.h"
#include "src/core/rng.h"
#include "src/core/thread_pool.h"
#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/defense/defenses.h"
#include "src/eval/pipeline.h"
#include "src/obs/json.h"
#include "src/obs/obs.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/store/artifact_cache.h"
#include "src/store/serialize.h"
#include "src/tensor/simd/simd.h"

extern char** environ;

namespace {

using namespace bgc;  // NOLINT
using Clock = std::chrono::steady_clock;
using obs::JsonValue;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile (p in [0,1]) of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendString(std::string& out, const std::string& s) {
  serve::AppendJsonString(out, s);
}

// ---------------------------------------------------------------------------
// Options and workload definitions

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir;
  std::string result_path;
  std::string source_id = "unknown";
};

/// Shape of one attack request (RunBgc, then a victim, then CTA/ASR).
struct AttackShape {
  std::string preset;
  double scale = 1.0;
  int n = 35;
  int epochs = 150;
  int threads = 1;
  int victim_epochs = 200;
  /// A working backdoor keeps ASR above this floor. A victim without one
  /// scores its error rate into the target class (under 0.15 on these
  /// graphs); BGC here measures 0.47 to 1.0 over 15 seeds per graph. The
  /// margin leaves room for a stricter per-host ASR protocol.
  double asr_floor = 0.25;
};

AttackShape CoraAttack(bool smoke) {
  if (smoke) return {"tiny-sim", 1.0, 6, 3, 1, 20, 0.0};
  return {"cora-sim", 1.0, 35, 150, 1, 200, 0.25};
}

/// 1 thread on the 4-vCPU reference host, which other tenants share. There
/// 3 threads beat 1 by at most 15% when the host is quiet, but while the
/// host steals CPU time a stalled worker holds up every pool dispatch it
/// has a task of, and requests stretched up to 2x (1 thread: 1.2x).
AttackShape RedditAttack(bool smoke) {
  if (smoke) return {"tiny-sim", 1.0, 6, 3, 1, 20, 0.0};
  return {"reddit-sim", 1.0, 160, 30, 1, 200, 0.25};
}

const std::vector<std::string> kVictimArchs = {"gcn",   "sgc",   "sage",
                                               "appnp", "cheby", "mlp"};
constexpr int kRandsmoothSamples = 9;
constexpr double kRandsmoothKeep = 0.7;
constexpr double kPruneRatio = 0.2;

/// serve-mixed: job shape on reduced cora-sim, as tools/bgc_loadgen submits.
/// One kernel thread per slot: on the reference host 2 threads per slot made
/// jobs 25% slower and stretched them further while the host stole CPU time.
struct ServeShape {
  std::string preset = "cora-sim";
  double scale = 0.2;
  int n = 8;
  int epochs = 6;
  int victim_epochs = 40;
  int clients = 2;
  int slots = 2;
  int threads = 2;
  int min_jobs = 100;
};

ServeShape ServeMixed(bool smoke) {
  ServeShape s;
  if (smoke) {
    s.preset = "tiny-sim";
    s.scale = 1.0;
    s.n = 6;
    s.epochs = 2;
    s.victim_epochs = 10;
    s.min_jobs = 6;
  }
  return s;
}

/// Set-up is repeated before the measured requests and again after them,
/// so its median spans the run rather than one moment of a shared host.
/// Each half runs at least its minimum of repeats, and again while that
/// half has taken under kSetupBudgetS (at most kMaxSetups), so cheap
/// set-ups report a median of many and costly ones (victim-eval's
/// poisoning) a median of three.
constexpr int kMinSetupsBefore = 2;
constexpr int kMinSetupsAfter = 1;
constexpr int kMaxSetups = 100;
constexpr double kSetupBudgetS = 0.5;

/// Untimed requests an attack run makes before its --seconds window.
constexpr int kAttackWarmups = 1;

// ---------------------------------------------------------------------------
// Metrics, checks and the result

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  /// Per-request samples (seconds) and CTA/ASR, kept for the result file.
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::pair<std::string, std::pair<double, double>>> scores;

  /// One operation of the workload; `ok` false counts it as failed.
  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
};

double FailedFrac(const Result& r) {
  return Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted));
}

bool IsProbability(double v) { return std::isfinite(v) && v >= 0 && v <= 1; }

/// Checks one CTA/ASR pair; returns a failure description or "".
std::string CheckScores(const eval::AttackMetrics& m, double asr_floor) {
  if (!IsProbability(m.cta)) return "CTA not in [0,1]";
  if (!IsProbability(m.asr)) return "ASR not in [0,1]";
  if (m.asr < asr_floor) {
    return "ASR " + FormatNumber(m.asr) + " below floor " +
           FormatNumber(asr_floor);
  }
  return "";
}

/// The condensed graph has the configured shape and valid labels.
std::string CheckCondensed(const condense::CondensedGraph& g, int n,
                           int num_classes) {
  if (g.features.rows() != n) return "condensed rows != n";
  if (g.adj.rows() != n || g.adj.cols() != n) return "condensed adj shape";
  if (static_cast<int>(g.labels.size()) != n) return "condensed labels size";
  if (g.num_classes != num_classes) return "condensed class count";
  for (int y : g.labels) {
    if (y < 0 || y >= num_classes) return "condensed label out of range";
  }
  for (int i = 0; i < g.features.size(); ++i) {
    if (!std::isfinite(g.features.data()[i])) return "condensed feature NaN";
  }
  return "";
}

/// Bit-equality of two condensed graphs' features and labels.
bool SameCondensed(const condense::CondensedGraph& a,
                   const condense::CondensedGraph& b) {
  return a.labels == b.labels && a.features.size() == b.features.size() &&
         std::memcmp(a.features.data(), b.features.data(),
                     sizeof(float) * static_cast<size_t>(a.features.size())) ==
             0;
}

// ---------------------------------------------------------------------------
// obs registry snapshots (traced requests only)

struct ObsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> timers;  // count, ns
};

ObsSnapshot TakeSnapshot() {
  ObsSnapshot snap;
  obs::JsonParseResult parsed =
      obs::ParseJson(obs::Registry::Global().MetricsJson());
  if (!parsed.ok) throw std::runtime_error("obs report: " + parsed.error);
  if (const JsonValue* c = parsed.value.Find("counters")) {
    for (const auto& [name, v] : c->object) snap.counters[name] = v.number;
  }
  if (const JsonValue* t = parsed.value.Find("timers")) {
    for (const auto& [name, v] : t->object) {
      snap.timers[name] = {v.Find("count")->number,
                           v.Find("total_ns")->number};
    }
  }
  return snap;
}

/// Sums of registry deltas over traced requests.
struct ObsDelta {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> timers;

  void Add(const ObsSnapshot& before, const ObsSnapshot& after) {
    for (const auto& [name, v] : after.counters) {
      const auto it = before.counters.find(name);
      counters[name] += v - (it == before.counters.end() ? 0 : it->second);
    }
    for (const auto& [name, v] : after.timers) {
      const auto it = before.timers.find(name);
      auto& slot = timers[name];
      slot.first += v.first - (it == before.timers.end() ? 0 : it->second.first);
      slot.second +=
          v.second - (it == before.timers.end() ? 0 : it->second.second);
    }
  }

  double Counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
  double TimerSeconds(const std::string& name) const {
    const auto it = timers.find(name);
    return it == timers.end() ? 0.0 : it->second.second * 1e-9;
  }
  double TimerCount(const std::string& name) const {
    const auto it = timers.find(name);
    return it == timers.end() ? 0.0 : it->second.first;
  }
  /// Seconds of phase `phase` ("attack.select"): the shared
  /// "phase.attack.select" timer plus the per-job "serve.<id>.attack.select"
  /// timers the server's phase tags redirect it into.
  double PhaseSeconds(const std::string& phase) const {
    double total = TimerSeconds("phase." + phase);
    for (const auto& [name, v] : timers) {
      if (name.rfind("serve.", 0) != 0) continue;
      const size_t dot = name.find('.', 6);
      if (dot != std::string::npos && name.compare(dot + 1, std::string::npos,
                                                   phase) == 0) {
        total += v.second * 1e-9;
      }
    }
    return total;
  }
  double KernelSeconds() const {
    return TimerSeconds("tensor.gemm") + TimerSeconds("graph.spmm") +
           TimerSeconds("graph.spmm_t") + TimerSeconds("graph.normalize");
  }
  double PoolBusySeconds() const {
    double ns = 0.0;
    for (const auto& [name, v] : counters) {
      if (name.rfind("pool.thread.", 0) == 0) ns += v;
    }
    return ns * 1e-9;
  }
};

/// Runs `fn` with obs metrics on, folds the registry delta into `total`
/// and returns the GEMM/SpMM/normalize seconds spent inside `fn`.
template <typename Fn>
double Traced(ObsDelta& total, Fn&& fn) {
  obs::SetMetricsEnabled(true);
  const ObsSnapshot before = TakeSnapshot();
  fn();
  const ObsSnapshot after = TakeSnapshot();
  obs::SetMetricsEnabled(false);
  total.Add(before, after);
  ObsDelta call;
  call.Add(before, after);
  return call.KernelSeconds();
}

/// Per-layer numbers shared by every workload, from the traced requests'
/// registry deltas, divided by the number of requests they cover.
struct LayerInputs {
  ObsDelta all;             // everything the traced requests ran
  double requests = 0;      // traced requests (attack runs, sweeps, jobs)
  double request_wall_s = 0;
  double attack_run_s = 0;     // benchmark span around RunBgc
  double attack_kernel_s = 0;  // GEMM/SpMM/normalize time inside RunBgc
  double victim_train_s = 0;
  double eval_score_s = 0;
  double prune_s = 0;
  double randsmooth_s = 0;
  int threads = 1;
};

// ---------------------------------------------------------------------------
// Set-up: dataset generation, bgcbin write, bgcbin read

struct SetupOut {
  data::GraphDataset dataset;  // as read back from the bgcbin file
  std::vector<double> total_s, generate_s, load_s;
  double file_mib = 0.0;
};

struct SetupPlan {
  std::string preset;
  double scale = 1.0;
  uint64_t seed = 1;
  /// One more set-up step timed inside each repeat, when set; it receives
  /// the dataset that repeat read back.
  std::function<void(const data::GraphDataset&)> extra;
};

/// Runs one half of the set-up repeats into `out`; `out.dataset` is the
/// first repeat's.
void RunSetups(const Options& opts, const SetupPlan& plan, int min_reps,
               Result& result, SetupOut& out) {
  const std::string path = opts.workdir + "/dataset.bgcbin";
  double spent = 0;
  for (int r = 0; r < kMaxSetups && (r < min_reps || spent < kSetupBudgetS);
       ++r) {
    const auto t0 = Clock::now();
    data::GraphDataset ds = data::MakeDataset(plan.preset, plan.seed, plan.scale);
    const double gen = SecondsSince(t0);
    const Status saved = store::SaveDatasetBinary(ds, path);
    const auto t1 = Clock::now();
    StatusOr<data::GraphDataset> loaded = store::TryLoadDatasetBinary(path);
    const double load = SecondsSince(t1);
    const bool ok = saved.ok() && loaded.ok() &&
                    loaded.value().num_nodes() == ds.num_nodes() &&
                    loaded.value().labels == ds.labels;
    result.Expect(ok, "set-up: dataset bgcbin round trip");
    if (!ok) throw std::runtime_error("dataset set-up failed");
    if (plan.extra) plan.extra(loaded.value());
    out.total_s.push_back(SecondsSince(t0));
    spent += out.total_s.back();
    out.generate_s.push_back(gen);
    out.load_s.push_back(load);
    if (out.total_s.size() == 1) out.dataset = loaded.take();
  }
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  out.file_mib = static_cast<double>(f.tellg()) / (1024.0 * 1024.0);
}

void AddSetupLayers(const SetupOut& s, Result& r) {
  const double load = Median(s.load_s);
  r.per_layer.push_back({"data.generate_s", "s", Median(s.generate_s)});
  r.per_layer.push_back({"store.load_s", "s", load});
  r.per_layer.push_back(
      {"store.load_mib_per_s", "MiB/s", Ratio(s.file_mib, load)});
  r.samples["setup_s"] = s.total_s;
}

// ---------------------------------------------------------------------------
// Request loop: `warmups` untimed requests, then untraced requests,
// interleaved with traced ones under --trace 1, until the next request
// would overrun --seconds. The --seconds window starts after the warm-ups.

struct RequestLoop {
  RequestLoop(double seconds, bool trace, int warmups = 0)
      : seconds(seconds), trace(trace), warmups(warmups) {}

  Clock::time_point start = Clock::now();
  double seconds;
  bool trace;
  int warmups;
  int untraced = 0;
  int traced = 0;
  std::vector<double> durations;

  /// True while the current request is a warm-up, whose time is not kept.
  bool warming() const { return warmups > 0; }

  /// True when another request should run; `next_traced` says how.
  /// Traced requests follow untraced ones in turn, so a traced run has at
  /// least one of each.
  bool Next(bool& next_traced) {
    if (warming()) {
      next_traced = false;
      return true;
    }
    const bool have_all = untraced > 0 && (!trace || traced > 0);
    if (have_all && SecondsSince(start) + Median(durations) > seconds) {
      return false;
    }
    next_traced = trace && untraced > traced;
    return true;
  }
  void Done(bool was_traced, double duration) {
    if (warming()) {
      warmups -= 1;
      start = Clock::now();
      return;
    }
    durations.push_back(duration);
    (was_traced ? traced : untraced) += 1;
  }
};

// ---------------------------------------------------------------------------
// Fingerprint

std::vector<std::pair<std::string, std::string>> Fingerprint(
    const Options& opts, int threads) {
  std::vector<std::pair<std::string, std::string>> fp;
  fp.emplace_back("source", opts.source_id);
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  fp.emplace_back("cpu_model", cpu);
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
  fp.emplace_back("nproc", std::to_string(nproc));
  fp.emplace_back("simd_backend", simd::BackendName(simd::Active()));
  fp.emplace_back("build_type", BGC_E2E_BUILD_TYPE);
  fp.emplace_back("compiler", __VERSION__);
  fp.emplace_back("threads", std::to_string(threads));
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "BGC_", 4) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    fp.emplace_back("env." + std::string(*e, static_cast<size_t>(eq - *e)), eq + 1);
  }
  return fp;
}

/// CPU seconds the hypervisor has stolen from this machine's vCPUs (the
/// steal column of /proc/stat), or -1 where that cannot be read. Timings
/// on a shared host track it, so each result records it for the run.
double HostStealSeconds() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return -1;
  for (double& t : ticks) {
    if (!(f >> t)) return -1;
  }
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// ---------------------------------------------------------------------------
// Per-layer metric set (every name in BENCHMARK.json "per_layer")

std::vector<Metric> LayerMetrics(const LayerInputs& in, double overhead_frac,
                                 double failed_frac) {
  const double k = in.requests > 0 ? 1.0 / in.requests : 0.0;
  const ObsDelta& d = in.all;
  std::vector<Metric> m;
  m.push_back({"attack.run_s", "s", in.attack_run_s * k});
  m.push_back({"attack.select_s", "s", d.PhaseSeconds("attack.select") * k});
  m.push_back({"attack.trigger_s", "s", d.PhaseSeconds("attack.trigger") * k});
  m.push_back(
      {"attack.surrogate_s", "s", d.PhaseSeconds("attack.surrogate") * k});
  m.push_back({"attack.attach_s", "s", d.PhaseSeconds("attack.attach") * k});
  m.push_back({"condense.epoch_s", "s", d.PhaseSeconds("condense.epoch") * k});
  m.push_back(
      {"condense.gm_inner_s", "s", d.TimerSeconds("condense.gm.inner") * k});
  m.push_back({"victim.train_s", "s", in.victim_train_s * k});
  m.push_back({"eval.score_s", "s", in.eval_score_s * k});
  m.push_back({"defense.prune_s", "s", in.prune_s * k});
  m.push_back({"defense.randsmooth_s", "s", in.randsmooth_s * k});
  const double gemm_calls = d.Counter("tensor.gemm.calls");
  const double gemm_gflop = d.Counter("tensor.gemm.flops") * 1e-9;
  const double gemm_s = d.TimerSeconds("tensor.gemm");
  m.push_back({"tensor.gemm.calls", "count", gemm_calls * k});
  m.push_back({"tensor.gemm.gflop", "GFLOP", gemm_gflop * k});
  m.push_back({"tensor.gemm.s", "s", gemm_s * k});
  m.push_back({"tensor.gemm.gflops", "GFLOP/s", Ratio(gemm_gflop, gemm_s)});
  m.push_back({"tensor.gemm.packed_frac", "frac",
               Ratio(d.Counter("tensor.gemm.packed"), gemm_calls)});
  m.push_back({"graph.spmm.calls", "count", d.Counter("graph.spmm.calls") * k});
  m.push_back(
      {"graph.spmm.gflop", "GFLOP", d.Counter("graph.spmm.flops") * 1e-9 * k});
  m.push_back({"graph.spmm.s", "s",
               (d.TimerSeconds("graph.spmm") + d.TimerSeconds("graph.spmm_t")) *
                   k});
  m.push_back(
      {"graph.normalize.calls", "count", d.TimerCount("graph.normalize") * k});
  m.push_back(
      {"graph.normalize_s", "s", d.TimerSeconds("graph.normalize") * k});
  m.push_back({"kernel.unattributed_s", "s",
               std::max(0.0, in.attack_run_s - in.attack_kernel_s) *
                   k});
  const double busy = d.PoolBusySeconds();
  m.push_back({"pool.dispatches", "count", d.Counter("pool.dispatches") * k});
  m.push_back({"pool.busy_s", "s", busy * k});
  m.push_back(
      {"pool.util", "frac", Ratio(busy, in.threads * in.request_wall_s)});
  m.push_back({"tracing.overhead_frac", "frac", overhead_frac});
  m.push_back({"failed_frac", "frac", failed_frac});
  return m;
}

/// The obs-derived layer metrics exist only in traced runs; an untraced
/// run reports the set-up and serve layers and failed_frac alone.
void AddLayerMetrics(const Options& opts, const LayerInputs& layers,
                     double overhead_frac, Result& r) {
  if (!opts.trace) {
    r.per_layer.push_back({"failed_frac", "frac", FailedFrac(r)});
    return;
  }
  for (Metric& m : LayerMetrics(layers, overhead_frac, FailedFrac(r))) {
    r.per_layer.push_back(std::move(m));
  }
}

/// Serve-layer metrics; zero on workloads that never start a server.
struct ServeLayer {
  double jobs_per_s = 0, job_ms_p50 = 0, job_ms_p90 = 0, submit_ms_p50 = 0;
  double rejected = 0, cache_reuse_frac = 0, eval_cache_hit_frac = 0;
};

void AddServeLayers(const ServeLayer& s, std::vector<Metric>& m) {
  m.push_back({"serve.jobs_per_s", "1/s", s.jobs_per_s});
  m.push_back({"serve.job_ms.p50", "ms", s.job_ms_p50});
  m.push_back({"serve.job_ms.p90", "ms", s.job_ms_p90});
  m.push_back({"serve.submit_ms.p50", "ms", s.submit_ms_p50});
  m.push_back({"serve.rejected", "count", s.rejected});
  m.push_back({"serve.cache.reuse_frac", "frac", s.cache_reuse_frac});
  m.push_back({"serve.eval_cache.hit_frac", "frac", s.eval_cache_hit_frac});
}

/// The end-to-end set (every name in BENCHMARK.json "end_to_end").
void AddEndToEnd(Result& r, double setup_s, double time_to_asr_s,
                 double cells_per_s, double peak_rss_bytes) {
  r.end_to_end.push_back({"setup_s", "s", setup_s});
  r.end_to_end.push_back({"time_to_asr_s", "s", time_to_asr_s});
  r.end_to_end.push_back({"victim_cells_per_s", "1/s", cells_per_s});
  r.end_to_end.push_back(
      {"peak_rss_mib", "MiB", peak_rss_bytes / (1024.0 * 1024.0)});
}

// ---------------------------------------------------------------------------
// cora-attack / reddit-attack

void RunAttackWorkload(const Options& opts, const AttackShape& shape,
                       Result& result) {
  ThreadPool::SetGlobalNumThreads(shape.threads);
  const SetupPlan plan{shape.preset, shape.scale, opts.seed, {}};
  SetupOut setup;
  RunSetups(opts, plan, kMinSetupsBefore, result, setup);
  const data::GraphDataset& ds = setup.dataset;
  const condense::SourceGraph clean =
      condense::FromTrainView(data::MakeTrainView(ds));
  condense::CondenseConfig ccfg;
  ccfg.num_condensed = shape.n;
  ccfg.epochs = shape.epochs;
  const attack::AttackConfig acfg;
  eval::VictimConfig vcfg;
  vcfg.epochs = shape.victim_epochs;

  LayerInputs layers;
  layers.threads = shape.threads;
  std::vector<double> untraced_s, traced_s, victim_s;
  eval::AttackMetrics first{-1.0, -1.0};
  result.Expect(obs::ResetPeakRss(), "peak-RSS watermark reset");
  // The first RunBgc of a process is often 10-25% slower than the next ones
  // (victim-eval's poisoning repeats show it), so one request warms up.
  RequestLoop loop(opts.seconds, opts.trace, kAttackWarmups);
  bool traced = false;
  while (loop.Next(traced)) {
    // The same seed every request: identical work, and the CTA/ASR of
    // every request (the warm-up too) must reproduce the first one
    // bit-for-bit.
    const bool warmup = loop.warming();
    Rng rng(opts.seed);
    auto condenser = condense::MakeCondenser("gcond");
    attack::AttackResult attacked;
    std::unique_ptr<nn::GnnModel> victim;
    eval::AttackMetrics m;
    double run_s = 0, train_s = 0, score_s = 0;
    const auto t0 = Clock::now();
    auto run = [&] {
      attacked =
          attack::RunBgc(clean, ds.num_classes, *condenser, ccfg, acfg, rng);
      run_s = SecondsSince(t0);
    };
    auto score = [&] {
      const auto t1 = Clock::now();
      victim = eval::TrainVictim(attacked.condensed, vcfg, rng);
      train_s = SecondsSince(t1);
      const auto t2 = Clock::now();
      m = eval::EvaluateVictim(*victim, ds, attacked.generator.get(),
                               acfg.target_class);
      score_s = SecondsSince(t2);
    };
    if (traced) {
      layers.attack_kernel_s += Traced(layers.all, run);
      Traced(layers.all, score);
    } else {
      run();
      score();
    }
    const double total = SecondsSince(t0);
    loop.Done(traced, total);
    if (warmup) {
      // Checked below like every request; its time is not kept.
    } else if (traced) {
      layers.requests += 1;
      layers.request_wall_s += total;
      layers.attack_run_s += run_s;
      layers.victim_train_s += train_s;
      layers.eval_score_s += score_s;
      traced_s.push_back(total);
    } else {
      untraced_s.push_back(total);
      victim_s.push_back(train_s + score_s);
    }
    std::string why = CheckScores(m, shape.asr_floor);
    if (why.empty()) {
      why = CheckCondensed(attacked.condensed, shape.n, ds.num_classes);
    }
    if (why.empty() && first.cta >= 0 &&
        (m.cta != first.cta || m.asr != first.asr)) {
      why = "CTA/ASR differ from the first request with the same seed";
    }
    if (first.cta < 0) first = m;
    result.Expect(why.empty(), "attack request: " + why);
    result.scores.push_back({"gcn", {m.cta, m.asr}});
  }
  const double rss = static_cast<double>(obs::ReadPeakRssBytes());
  RunSetups(opts, plan, kMinSetupsAfter, result, setup);
  result.samples["time_to_asr_s"] = untraced_s;
  result.samples["victim_cell_s"] = victim_s;
  result.samples["traced_request_s"] = traced_s;
  // One CTA/ASR cell per request.
  AddEndToEnd(result, Median(setup.total_s), Median(untraced_s),
              Ratio(1.0, Median(untraced_s)), rss);
  AddSetupLayers(setup, result);
  const double overhead =
      traced_s.empty() ? 0.0 : Median(traced_s) / Median(untraced_s) - 1.0;
  AddLayerMetrics(opts, layers, overhead, result);
  AddServeLayers({}, result.per_layer);
}

// ---------------------------------------------------------------------------
// victim-eval

void RunVictimEvalWorkload(const Options& opts, Result& result) {
  const AttackShape shape = RedditAttack(opts.smoke);
  ThreadPool::SetGlobalNumThreads(shape.threads);
  // Each set-up repeat also poisons the graph with the reddit-attack
  // request; the repeats must agree bit for bit.
  attack::AttackResult poisoned;
  std::vector<double> poison_s;
  auto poison = [&](const data::GraphDataset& d) {
    const auto t0 = Clock::now();
    Rng rng(opts.seed);
    auto condenser = condense::MakeCondenser("gcond");
    condense::CondenseConfig ccfg;
    ccfg.num_condensed = shape.n;
    ccfg.epochs = shape.epochs;
    attack::AttackResult r = attack::RunBgc(
        condense::FromTrainView(data::MakeTrainView(d)), d.num_classes,
        *condenser, ccfg, attack::AttackConfig{}, rng);
    poison_s.push_back(SecondsSince(t0));
    std::string why = CheckCondensed(r.condensed, shape.n, d.num_classes);
    if (why.empty() && poisoned.generator != nullptr &&
        !SameCondensed(r.condensed, poisoned.condensed)) {
      why = "condensed graph differs from the first poisoning";
    }
    result.Expect(why.empty(), "set-up poisoning: " + why);
    if (poisoned.generator == nullptr) poisoned = std::move(r);
  };
  const SetupPlan plan{shape.preset, shape.scale, opts.seed, poison};
  SetupOut setup;
  RunSetups(opts, plan, kMinSetupsBefore, result, setup);
  const data::GraphDataset& ds = setup.dataset;
  const attack::TriggerGenerator* gen = poisoned.generator.get();
  const int target = attack::AttackConfig{}.target_class;

  LayerInputs layers;
  layers.threads = shape.threads;
  std::vector<double> untraced_s, traced_s;
  std::map<std::string, std::vector<double>> cell_s;  // untraced sweeps
  std::map<std::string, eval::AttackMetrics> first;
  result.Expect(obs::ResetPeakRss(), "peak-RSS watermark reset");
  RequestLoop loop(opts.seconds, opts.trace);
  bool traced = false;
  while (loop.Next(traced)) {
    double train_s = 0, score_s = 0, prune_s = 0, smooth_s = 0;
    struct Cell {
      std::string name;
      eval::AttackMetrics m;
      double seconds = 0;
    };
    std::vector<Cell> cells;
    const auto t0 = Clock::now();
    auto sweep = [&] {
      uint64_t cell_seed = opts.seed;
      std::unique_ptr<nn::GnnModel> gcn;
      // Trains `arch` on `g` and scores it; the cell started at `cell_t0`.
      auto train_and_score = [&](const std::string& name,
                                 const condense::CondensedGraph& g,
                                 const std::string& arch,
                                 Clock::time_point cell_t0) {
        Rng rng(cell_seed++);
        eval::VictimConfig vcfg;
        vcfg.arch = arch;
        vcfg.epochs = shape.victim_epochs;
        const auto a = Clock::now();
        std::unique_ptr<nn::GnnModel> victim = eval::TrainVictim(g, vcfg, rng);
        train_s += SecondsSince(a);
        const auto b = Clock::now();
        const eval::AttackMetrics m =
            eval::EvaluateVictim(*victim, ds, gen, target);
        score_s += SecondsSince(b);
        cells.push_back({name, m, SecondsSince(cell_t0)});
        return victim;
      };
      for (const std::string& arch : kVictimArchs) {
        auto victim =
            train_and_score(arch, poisoned.condensed, arch, Clock::now());
        if (arch == "gcn") gcn = std::move(victim);
      }
      const auto a = Clock::now();
      const condense::CondensedGraph pruned =
          defense::Prune(poisoned.condensed, kPruneRatio);
      prune_s += SecondsSince(a);
      train_and_score("prune", pruned, "gcn", a);
      Rng rng(cell_seed++);
      const auto b = Clock::now();
      const eval::PredictFn smoothed = [&](const graph::CsrMatrix& adj,
                                           const Matrix& x) {
        return defense::RandsmoothPredict(*gcn, adj, x, kRandsmoothSamples,
                                          kRandsmoothKeep, rng);
      };
      const eval::AttackMetrics m =
          eval::EvaluateWithPredict(smoothed, ds, gen, target);
      smooth_s += SecondsSince(b);
      cells.push_back({"randsmooth", m, SecondsSince(b)});
    };
    if (traced) {
      Traced(layers.all, sweep);
    } else {
      sweep();
    }
    const double total = SecondsSince(t0);
    loop.Done(traced, total);
    if (traced) {
      layers.requests += 1;
      layers.request_wall_s += total;
      layers.victim_train_s += train_s;
      layers.eval_score_s += score_s;
      layers.prune_s += prune_s;
      layers.randsmooth_s += smooth_s;
      traced_s.push_back(total);
    } else {
      untraced_s.push_back(total);
      for (const Cell& c : cells) cell_s[c.name].push_back(c.seconds);
    }
    for (const auto& [name, m, seconds] : cells) {
      // Defenses are meant to lower ASR, so only the range is checked.
      std::string why = CheckScores(m, 0.0);
      const auto it = first.find(name);
      if (why.empty() && it != first.end() &&
          (m.cta != it->second.cta || m.asr != it->second.asr)) {
        why = "CTA/ASR differ from the first sweep";
      }
      if (it == first.end()) first[name] = m;
      result.Expect(why.empty(), "cell " + name + ": " + why);
      result.scores.push_back({name, {m.cta, m.asr}});
    }
  }
  const double rss = static_cast<double>(obs::ReadPeakRssBytes());
  RunSetups(opts, plan, kMinSetupsAfter, result, setup);
  result.samples["sweep_s"] = untraced_s;
  result.samples["traced_request_s"] = traced_s;
  result.samples["poison_s"] = poison_s;
  // A sweep's time is the sum of its cells' medians: each cell's outliers
  // are filtered on their own.
  double sweep_s = 0;
  for (const auto& [name, times] : cell_s) {
    sweep_s += Median(times);
    result.samples["cell_s." + name] = times;
  }
  AddEndToEnd(result, Median(setup.total_s), sweep_s,
              Ratio(static_cast<double>(cell_s.size()), sweep_s), rss);
  AddSetupLayers(setup, result);
  const double overhead =
      traced_s.empty() ? 0.0 : Median(traced_s) / Median(untraced_s) - 1.0;
  AddLayerMetrics(opts, layers, overhead, result);
  AddServeLayers({}, result.per_layer);
}

// ---------------------------------------------------------------------------
// serve-mixed

enum class JobKind { kCondense, kAttack, kEval };

struct JobOutcome {
  JobKind kind = JobKind::kCondense;
  bool ok = false;
  double latency_ms = 0;
  double submit_ms = 0;
  std::string detail;
};

/// The j-th job of client c: condense, attack, eval in turn, one round
/// of three. As in tools/bgc_loadgen, condense and eval seeds depend only
/// on the round, so every client submits each such spec once: one
/// submission computes (a cache write or memo fill) and the other client's
/// coalesces or hits. Attack seeds are unique to (client, round).
std::string JobSpec(const ServeShape& s, uint64_t seed, int client, int j,
                    JobKind kind, const std::string& out) {
  const uint64_t round = static_cast<uint64_t>(j / 3);
  uint64_t job_seed = seed + round;
  if (kind == JobKind::kEval) job_seed += 1000000;
  if (kind == JobKind::kAttack) {
    job_seed += 2000000 + static_cast<uint64_t>(client) * 1000000;
  }
  std::string spec = "{\"dataset\":";
  AppendString(spec, s.preset);
  spec += ",\"scale\":";
  serve::AppendJsonNumber(spec, s.scale);
  spec += ",\"seed\":" + std::to_string(job_seed);
  spec += ",\"method\":\"gcond\",\"n\":" + std::to_string(s.n);
  spec += ",\"epochs\":" + std::to_string(s.epochs);
  if (kind != JobKind::kCondense) {
    spec += ",\"attack\":\"bgc\",\"target\":0,\"victim-epochs\":" +
            std::to_string(s.victim_epochs);
  }
  if (kind == JobKind::kEval) {
    spec += ",\"repeats\":1,\"clean-baseline\":false";
  }
  if (!out.empty()) {
    spec += ",\"out\":";
    AppendString(spec, out);
  }
  spec += '}';
  return spec;
}

/// Checks a DONE job's result object; returns a failure or "".
std::string CheckJobResult(JobKind kind, const JsonValue& reply,
                           const ServeShape& s, int num_classes) {
  const JsonValue* r = reply.Find("result");
  if (r == nullptr || !r->is_object()) return "no result";
  auto number = [&](const JsonValue* v) {
    return v != nullptr && v->is_number() ? v->number : -1.0;
  };
  if (kind == JobKind::kCondense) {
    if (number(r->Find("rows")) != s.n) return "condensed rows != n";
    if (number(r->Find("classes")) != num_classes) return "class count";
    return "";
  }
  const JsonValue* cta = r->Find("cta");
  const JsonValue* asr = r->Find("asr");
  if (kind == JobKind::kEval) {  // {"mean":..,"std":..} cells
    cta = cta != nullptr ? cta->Find("mean") : nullptr;
    asr = asr != nullptr ? asr->Find("mean") : nullptr;
  }
  if (!IsProbability(number(cta)) || !IsProbability(number(asr))) {
    return "CTA/ASR not in [0,1]";
  }
  return "";
}

struct ServeWindow {
  std::vector<JobOutcome> jobs;
  double wall_s = 0;
  serve::ServerStats server;
  store::ArtifactCacheStats cache;
  double peak_rss_bytes = 0;
  bool rss_reset = false;  // the peak-RSS watermark was reset at the start
};

/// One measured window: a fresh state dir, artifact cache and server, and
/// `shape.clients` closed-loop clients submitting until `seconds` have
/// passed and at least `min_jobs` jobs are done. A non-null `delta` makes
/// the window traced and receives its registry delta.
ServeWindow RunServeWindow(const Options& opts, const ServeShape& shape,
                           const std::string& dir, double seconds,
                           int min_jobs, ObsDelta* delta,
                           const std::string& artifact_out) {
  const bool traced = delta != nullptr;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/state");
  store::ArtifactCache cache(dir + "/cache");
  serve::ServerOptions so;
  so.jobs = shape.slots;
  so.total_threads = shape.threads;
  so.state_dir = dir + "/state";
  so.cache = &cache;
  serve::Server server(so);
  if (Status s = server.Start(); !s.ok()) {
    throw std::runtime_error("server start: " + s.message());
  }
  // Server::Start switches obs metrics on (its progress streaming reads
  // the phase timers). Untraced windows switch them back off so the
  // end-to-end numbers are measured with obs off like every workload.
  obs::SetMetricsEnabled(traced);
  const ObsSnapshot before = traced ? TakeSnapshot() : ObsSnapshot{};
  ServeWindow w;
  w.rss_reset = obs::ResetPeakRss();
  std::atomic<int> done{0};
  std::vector<std::vector<JobOutcome>> per_client(shape.clients);
  const auto t0 = Clock::now();
  auto client_main = [&](int c) {
    StatusOr<serve::Client> conn = serve::Client::Connect(
        "127.0.0.1", server.port(), "bench-" + std::to_string(c));
    if (!conn.ok()) {
      per_client[c].push_back({JobKind::kCondense, false, 0, 0,
                               conn.status().message()});
      return;
    }
    for (int j = 0;; ++j) {
      if (SecondsSince(t0) >= seconds && done.load() >= min_jobs) break;
      JobOutcome o;
      o.kind = static_cast<JobKind>(j % 3);
      const char* kind = o.kind == JobKind::kCondense ? "condense"
                         : o.kind == JobKind::kAttack ? "attack"
                                                      : "eval";
      const std::string spec =
          JobSpec(shape, opts.seed, c, j, o.kind,
                  c == 0 && j == 0 ? artifact_out : std::string());
      const auto a = Clock::now();
      StatusOr<std::string> id = conn.value().Submit(kind, spec);
      o.submit_ms = SecondsSince(a) * 1e3;
      if (!id.ok()) {
        o.detail = "submit: " + id.status().message();
      } else {
        StatusOr<JsonValue> reply = conn.value().Wait(id.value());
        o.latency_ms = SecondsSince(a) * 1e3;
        if (!reply.ok()) {
          o.detail = "wait: " + reply.status().message();
        } else {
          const JsonValue* state = reply.value().Find("state");
          if (state == nullptr || state->str != "DONE") {
            const JsonValue* err = reply.value().Find("error");
            o.detail = "job not DONE: " +
                       (err != nullptr ? err->str : std::string("?"));
          } else {
            o.detail = CheckJobResult(o.kind, reply.value(), shape,
                                      data::PresetConfig(shape.preset)
                                          .num_classes);
            o.ok = o.detail.empty();
          }
        }
      }
      per_client[c].push_back(o);
      done.fetch_add(1);
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < shape.clients; ++c) clients.emplace_back(client_main, c);
  for (std::thread& t : clients) t.join();
  w.wall_s = SecondsSince(t0);
  w.peak_rss_bytes = static_cast<double>(obs::ReadPeakRssBytes());
  w.server = server.stats();
  server.Stop();
  w.cache = cache.stats();
  if (traced) delta->Add(before, TakeSnapshot());
  obs::SetMetricsEnabled(false);
  for (auto& jobs : per_client) {
    for (JobOutcome& o : jobs) w.jobs.push_back(std::move(o));
  }
  return w;
}

ServeLayer SummarizeServe(const ServeWindow& w) {
  ServeLayer s;
  std::vector<double> latency, submit;
  double condense_jobs = 0;
  for (const JobOutcome& o : w.jobs) {
    latency.push_back(o.latency_ms);
    submit.push_back(o.submit_ms);
    if (o.kind == JobKind::kCondense) condense_jobs += 1;
  }
  s.jobs_per_s = Ratio(static_cast<double>(w.jobs.size()), w.wall_s);
  s.job_ms_p50 = Percentile(latency, 0.50);
  s.job_ms_p90 = Percentile(latency, 0.90);
  s.submit_ms_p50 = Percentile(submit, 0.50);
  s.rejected = static_cast<double>(w.server.rejected);
  s.cache_reuse_frac =
      Ratio(static_cast<double>(w.cache.hits + w.cache.coalesced),
            condense_jobs);
  s.eval_cache_hit_frac =
      Ratio(static_cast<double>(w.server.eval_hits),
            static_cast<double>(w.server.eval_hits + w.server.eval_misses));
  return s;
}

void RunServeWorkload(const Options& opts, Result& result) {
  const ServeShape shape = ServeMixed(opts.smoke);
  ThreadPool::SetGlobalNumThreads(shape.threads);
  // Set-up: the dataset of the condense spec every client submits first,
  // round-tripped through bgcbin, plus a server start/stop on a fresh state
  // dir. The dataset backs the artifact byte-equality check.
  auto start_server = [&](const data::GraphDataset&) {
    const std::string dir = opts.workdir + "/start";
    std::filesystem::create_directories(dir);
    serve::ServerOptions so;
    so.jobs = shape.slots;
    so.total_threads = shape.threads;
    so.state_dir = dir;
    serve::Server server(so);
    const Status started = server.Start();
    server.Stop();
    obs::SetMetricsEnabled(false);
    std::filesystem::remove_all(dir);
    result.Expect(started.ok(), "set-up: server start");
  };
  const SetupPlan plan{shape.preset, shape.scale, opts.seed, start_server};
  SetupOut setup;
  RunSetups(opts, plan, kMinSetupsBefore, result, setup);

  const std::string artifact = opts.workdir + "/artifact.bgcbin";
  ServeWindow w;
  ServeWindow traced_w;
  ObsDelta delta;
  if (opts.trace) {
    w = RunServeWindow(opts, shape, opts.workdir + "/w0", opts.seconds / 2,
                       shape.min_jobs / 2, nullptr, artifact);
    traced_w = RunServeWindow(opts, shape, opts.workdir + "/w1",
                              opts.seconds / 2, shape.min_jobs / 2, &delta,
                              std::string());
  } else {
    w = RunServeWindow(opts, shape, opts.workdir + "/w0", opts.seconds,
                       shape.min_jobs, nullptr, artifact);
  }
  RunSetups(opts, plan, kMinSetupsAfter, result, setup);

  // Every job ends DONE with valid results.
  std::vector<double> attack_ms;
  double cells = 0;
  for (const ServeWindow* win : {&w, &traced_w}) {
    if (win->wall_s > 0) {
      result.Expect(win->rss_reset, "peak-RSS watermark reset");
    }
    for (const JobOutcome& o : win->jobs) {
      result.Expect(o.ok, "serve job: " + o.detail);
    }
  }
  for (const JobOutcome& o : w.jobs) {
    if (o.kind == JobKind::kAttack) attack_ms.push_back(o.latency_ms);
    if (o.kind != JobKind::kCondense) cells += 1;
  }
  // One condense job's artifact is byte-equal to the same spec condensed
  // directly through the library.
  {
    condense::CondenseConfig ccfg;
    ccfg.num_condensed = shape.n;
    ccfg.epochs = shape.epochs;
    auto condenser = condense::MakeCondenser("gcond");
    Rng rng(opts.seed);
    const condense::CondensedGraph direct = condense::RunCondensation(
        *condenser,
        condense::FromTrainView(data::MakeTrainView(setup.dataset)),
        setup.dataset.num_classes, ccfg, rng);
    const std::string direct_path = opts.workdir + "/direct.bgcbin";
    const Status saved = store::SaveCondensedBinary(direct, direct_path);
    StatusOr<std::string> a = ReadFileToString(artifact);
    StatusOr<std::string> b = ReadFileToString(direct_path);
    result.Expect(saved.ok() && a.ok() && b.ok() && a.value() == b.value(),
                  "serve condense artifact byte-equal to RunCondensation");
  }

  const ServeLayer served = SummarizeServe(w);
  result.samples["job_ms"] = {};
  for (const JobOutcome& o : w.jobs) {
    result.samples["job_ms"].push_back(o.latency_ms);
  }
  result.samples["attack_job_ms"] = attack_ms;
  AddEndToEnd(result, Median(setup.total_s),
              Median(attack_ms) * 1e-3, Ratio(cells, w.wall_s),
              w.peak_rss_bytes);
  AddSetupLayers(setup, result);

  LayerInputs layers;
  layers.threads = shape.threads;
  const ServeWindow& lw = opts.trace ? traced_w : w;
  layers.all = delta;
  layers.requests = static_cast<double>(lw.jobs.size());
  layers.request_wall_s = lw.wall_s;
  layers.victim_train_s = delta.PhaseSeconds("victim");
  layers.eval_score_s = delta.PhaseSeconds("eval");
  // Per-job request time: wall time per job in each window.
  const double overhead =
      opts.trace ? Ratio(traced_w.wall_s, traced_w.jobs.size()) /
                           Ratio(w.wall_s, w.jobs.size()) -
                       1.0
                 : 0.0;
  AddLayerMetrics(opts, layers, overhead, result);
  AddServeLayers(opts.trace ? SummarizeServe(traced_w) : served,
                 result.per_layer);
}

// ---------------------------------------------------------------------------
// Output

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  metric %-26s = %-14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    AppendString(out, metrics[i].name);
    out += ":{\"value\":" + FormatNumber(metrics[i].value) + ",\"unit\":";
    AppendString(out, metrics[i].unit);
    out += '}';
  }
  return out + "}";
}

std::string ResultJson(
    const Options& opts, const Result& r,
    const std::vector<std::pair<std::string, std::string>>& fingerprint) {
  std::string out = "{\"schema\":\"bgc-e2e-bench-v1\",\"workload\":";
  AppendString(out, opts.workload);
  out += ",\"seed\":" + std::to_string(opts.seed);
  out += ",\"seconds\":" + FormatNumber(opts.seconds);
  out += ",\"trace\":" + std::string(opts.trace ? "true" : "false");
  out += ",\"smoke\":" + std::string(opts.smoke ? "true" : "false");
  out += ",\"fingerprint\":{";
  for (size_t i = 0; i < fingerprint.size(); ++i) {
    if (i > 0) out += ',';
    AppendString(out, fingerprint[i].first);
    out += ':';
    AppendString(out, fingerprint[i].second);
  }
  out += "},\"correct\":" + std::string(r.failed == 0 ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) out += ',';
    AppendString(out, r.failures[i]);
  }
  out += "],\"end_to_end\":" + MetricsObject(r.end_to_end);
  out += ",\"per_layer\":" + MetricsObject(r.per_layer);
  out += ",\"samples\":{";
  bool first = true;
  for (const auto& [name, values] : r.samples) {
    if (!first) out += ',';
    first = false;
    AppendString(out, name);
    out += ":[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ',';
      out += FormatNumber(values[i]);
    }
    out += ']';
  }
  out += "},\"scores\":[";
  for (size_t i = 0; i < r.scores.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"cell\":";
    AppendString(out, r.scores[i].first);
    out += ",\"cta\":" + FormatNumber(r.scores[i].second.first);
    out += ",\"asr\":" + FormatNumber(r.scores[i].second.second) + "}";
  }
  return out + "]}\n";
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "%s\nusage: bgc_e2e_bench --workload "
               "cora-attack|reddit-attack|victim-eval|serve-mixed --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--result FILE] "
               "[--source-id ID] [--smoke]\n",
               why.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      StatusOr<long long> s = ParseIntInRange(v, 0, 1LL << 40);
      if (!s.ok()) Usage("bad --seed: " + s.status().message());
      o.seed = static_cast<uint64_t>(s.value());
    } else if (flag == "--seconds") {
      StatusOr<double> s = ParseDoubleInRange(v, 0.0, 3600.0);
      if (!s.ok()) Usage("bad --seconds: " + s.status().message());
      o.seconds = s.value();
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--workdir") {
      o.workdir = v;
    } else if (flag == "--result") {
      o.result_path = v;
    } else if (flag == "--source-id") {
      o.source_id = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (o.workdir.empty()) Usage("--workdir is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = ParseOptions(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(opts.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "workdir: %s\n", ec.message().c_str());
    return 1;
  }
  Result result;
  int threads = RedditAttack(opts.smoke).threads;
  if (opts.workload == "cora-attack") threads = CoraAttack(opts.smoke).threads;
  if (opts.workload == "serve-mixed") threads = ServeMixed(opts.smoke).threads;
  const double steal0 = HostStealSeconds();
  try {
    if (opts.workload == "cora-attack") {
      RunAttackWorkload(opts, CoraAttack(opts.smoke), result);
    } else if (opts.workload == "reddit-attack") {
      RunAttackWorkload(opts, RedditAttack(opts.smoke), result);
    } else if (opts.workload == "victim-eval") {
      RunVictimEvalWorkload(opts, result);
    } else if (opts.workload == "serve-mixed") {
      RunServeWorkload(opts, result);
    } else {
      Usage("unknown --workload \"" + opts.workload + "\"");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }

  const double steal1 = HostStealSeconds();
  result.samples["host_steal_s"] = {steal0 < 0 || steal1 < 0 ? -1.0
                                                             : steal1 - steal0};
  const auto fingerprint = Fingerprint(opts, threads);
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  for (const auto& [k, v] : fingerprint) {
    std::printf("  fingerprint %-14s %s\n", k.c_str(), v.c_str());
  }
  std::printf("  host steal   %.2f CPU-s during the run\n",
              result.samples["host_steal_s"][0]);
  std::map<std::string, std::pair<double, double>> last_scores;
  for (const auto& [cell, s] : result.scores) last_scores[cell] = s;
  for (const auto& [cell, s] : last_scores) {
    std::printf("  %-12s CTA %.4f  ASR %.4f\n", cell.c_str(), s.first,
                s.second);
  }
  PrintMetrics("end-to-end:", result.end_to_end);
  PrintMetrics("per-layer:", result.per_layer);
  std::printf("  checks: %lld attempted, %lld failed (failed_frac %.4g)\n",
              result.attempted, result.failed, FailedFrac(result));
  if (!opts.result_path.empty()) {
    std::ofstream f(opts.result_path);
    f << ResultJson(opts, result, fingerprint);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opts.result_path.c_str());
      return 1;
    }
  }
  std::string line = "{\"correct\":";
  line += result.failed == 0 ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(result.attempted);
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"metrics\":";
  line += MetricsObject(opts.trace ? result.per_layer : result.end_to_end);
  std::printf("%s}\n", line.c_str());
  return 0;
}
