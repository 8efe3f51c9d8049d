// perfbench: the repository's benchmark program (see NOTES.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--out-dir <dir>]
//
// Runs one workload in this process, checks every output, and prints as its
// last stdout line one JSON object {correct, attempted, failed, metrics}.
// With --trace 0 the metrics are the end-to-end ones, measured with the
// self-profiler off. With --trace 1 they are the per-layer ones, measured by
// alternating untraced and traced repetitions, and the profiler's
// flexmr.profile.v1 document is written to --out-dir.
//
// Every layer is timed from outside, through its public entry points
// (workloads::run_job, workloads::make_layout, the ClusterService
// constructor and run(), rt::Dataset::generate_text, MapReduceEngine::
// run_fixed/run_elastic). The benchmark's own profiler scopes (bench.*) wrap
// those calls, so the program's scopes nest beneath them.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "cluster/interference.hpp"
#include "cluster/presets.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/profiler.hpp"
#include "rt/engine.hpp"
#include "service/service.hpp"
#include "simcore/simulator.hpp"

namespace {

using namespace flexmr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (the rule SampleSet::quantile uses).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// splitmix64 of (seed, tag): independent input streams from one seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

// Every per-layer metric, in output order. A traced run emits all of them,
// zero where its workload does not exercise the layer.
const std::vector<std::pair<std::string, const char*>> kLayerMetrics = {
    {"sched.skewtune_argmax.self_ms", "ms"},
    {"sched.skewtune_argmax.calls", "count"},
    {"sched.late_speculate.self_ms", "ms"},
    {"sched.flexmap_sizing.self_ms", "ms"},
    {"sched.flexmap_sizing.ns_per_call", "ns"},
    {"rm.offer_all.self_ms", "ms"},
    {"rm.offer_node.calls", "count"},
    {"mr.running_maps.self_ms", "ms"},
    {"mr.running_maps.calls", "count"},
    {"mr.heartbeat.self_ms", "ms"},
    {"bench.run_job.Hadoop-128m_s", "s"},
    {"bench.run_job.Hadoop-64m_s", "s"},
    {"bench.run_job.SkewTune-64m_s", "s"},
    {"bench.run_job.FlexMap_s", "s"},
    {"sim.dispatch.self_ms", "ms"},
    {"sim.compact.self_ms", "ms"},
    {"simcore.events_fired", "count"},
    {"simcore.events_cancelled", "count"},
    {"simcore.queue_peak", "count"},
    {"simcore.host_ns_per_event", "ns"},
    {"hdfs.replica_pump.self_ms", "ms"},
    {"hdfs.finish_copy.calls", "count"},
    {"hdfs.repair_read_mib", "MiB"},
    {"hdfs.degraded_reads", "count"},
    {"hdfs.parts_reconstructed", "count"},
    {"bench.make_layout_ms", "ms"},
    {"faults.events", "count"},
    {"recover.am_restarts", "count"},
    {"recover.replay_share", "ratio"},
    {"mr.wasted_slot_s", "s"},
    {"bench.service_ctor_s", "s"},
    {"bench.service_run_s", "s"},
    {"service.preemption_kills", "count"},
    {"service.queue_delay_p95_s", "s"},
    {"service.fairness_index", "ratio"},
    {"rt.generate_text_s", "s"},
    {"rt.run_fixed_s", "s"},
    {"rt.run_elastic_s", "s"},
    {"rt.serial_map_mib_per_s", "MiB/s"},
    {"rt.map_tasks", "count"},
    {"rt.mean_productivity", "ratio"},
    {"jct.p50_s", "s"},
    {"jct.p95_s", "s"},
    {"trace.overhead_share", "ratio"},
    {"trace.unattributed_share", "ratio"},
    {"host.alu_s", "s"},
    {"host.chase_ns_per_hop", "ns"},
    {"host.ref_kernel_ms", "ms"},
};

/// What one run prints: the result line, and the output checks behind it.
class Report {
 public:
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    if (problems_.size() < 20) problems_.push_back(what);
  }
  /// Counts one attempted job (sim job, service job or rt engine run).
  void job(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }
  void metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value) { layers_[name] = value; }

  /// Moves the per-layer values into the metric list, in kLayerMetrics
  /// order, with a zero for every layer the workload left untouched.
  void emit_layers() {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = layers_.find(name);
      metric(name, it == layers_.end() ? 0.0 : it->second, unit);
      if (it != layers_.end()) layers_.erase(it);
    }
    for (const auto& [name, value] : layers_) {
      check(false, "per-layer metric " + name + " is not in kLayerMetrics");
    }
  }

  std::string json() const {
    JsonWriter writer;
    writer.begin_object();
    writer.field("correct", correct_);
    writer.field("attempted", attempted_);
    writer.field("failed", failed_);
    writer.key("metrics").begin_object();
    for (const auto& m : metrics_) {
      writer.key(m.name).begin_object();
      writer.field("value", std::isfinite(m.value) ? m.value : 0.0);
      writer.field("unit", m.unit);
      writer.end_object();
    }
    writer.end_object();
    writer.end_object();
    return writer.str();
  }

  void print_problems() const {
    for (const auto& p : problems_) {
      std::fprintf(stderr, "check failed: %s\n", p.c_str());
    }
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::map<std::string, double> layers_;
  std::vector<std::string> problems_;
};

// ---- Host-noise probe -------------------------------------------------------
//
// Never gated: printed beside every run and reported as host.* per-layer
// metrics, so a reader can tell host drift from a code change. It runs in a
// forked child so its 64 MiB buffer never shows in the workload's peak RSS.

struct Probe {
  double alu_s = 0;
  double chase_ns_per_hop = 0;
};

Probe measure_probe() {
  Probe probe;
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto alu_start = Clock::now();
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  probe.alu_s = seconds_since(alu_start);

  // Sattolo's algorithm: a single cycle through 8 Mi slots (64 MiB), so
  // every hop is a dependent load with no useful locality.
  const std::size_t slots = std::size_t{8} << 20;
  std::vector<std::uint64_t> next(slots);
  std::iota(next.begin(), next.end(), std::uint64_t{0});
  Rng rng(sink);
  for (std::size_t i = slots - 1; i > 0; --i) {
    std::swap(next[i], next[rng.uniform_int(i)]);
  }
  const std::size_t hops = std::size_t{1} << 20;
  std::uint64_t at = 0;
  const auto chase_start = Clock::now();
  for (std::size_t i = 0; i < hops; ++i) at = next[at];
  sink = at;
  probe.chase_ns_per_hop =
      seconds_since(chase_start) * 1e9 / static_cast<double>(hops);
  return probe;
}

Probe probe_in_child() {
  int fds[2];
  if (pipe(fds) != 0) return {};
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    const Probe probe = measure_probe();
    const ssize_t n = write(fds[1], &probe, sizeof probe);
    _exit(n == static_cast<ssize_t>(sizeof probe) ? 0 : 1);
  }
  close(fds[1]);
  Probe probe;
  const ssize_t n = read(fds[0], &probe, sizeof probe);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (n != static_cast<ssize_t>(sizeof probe)) return {};
  return probe;
}

// ---- Reference kernel -------------------------------------------------------
//
// The host's memory speed drifts by itself, in phases of seconds to minutes
// (other tenants' load on the shared cache and memory). A simulator job
// slows down with it by up to 1.9x while an ALU loop hardly moves. So every
// timed unit of work is followed by one pass of a fixed reference kernel, a
// random read-modify-write sweep over a 24 MiB table, and the end-to-end
// host times are given in reference seconds: a repetition's host seconds
// times kReferenceNominalS ÷ the mean kernel time in that repetition. The
// kernel runs in a helper process, so its table never shows in
// peak_rss_mib, on the CPU the benchmark last ran on, so it sees the same
// core's neighbours. Its code is the benchmark's own, so a change to the
// program moves only the work it is divided into.

/// The kernel's time on the reference host (NOTES.md, "Host speed").
constexpr double kReferenceNominalS = 0.014;

double reference_kernel_s() {
  struct Slot {
    std::uint64_t word[8];  // one cache line
  };
  static std::vector<Slot> table(std::size_t{24} << 20 >> 6);
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  std::uint64_t acc = 0;
  const auto start = Clock::now();
  for (std::uint32_t i = 0; i < 600'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    Slot& slot = table[(x >> 33) % table.size()];
    slot.word[i & 7] += acc;
    acc += slot.word[(i + 3) & 7];
  }
  const double seconds = seconds_since(start);
  volatile std::uint64_t sink = acc;
  (void)sink;
  return seconds;
}

/// The helper process that runs the reference kernel on request, and the
/// samples of the current window (one repetition).
class HostReference {
 public:
  HostReference() {
    int requests[2];
    int replies[2];
    if (pipe(requests) != 0) throw std::runtime_error("pipe failed");
    if (pipe(replies) != 0) {
      close(requests[0]);
      close(requests[1]);
      throw std::runtime_error("pipe failed");
    }
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = fork();
    if (pid_ == 0) {
      close(requests[1]);
      close(replies[0]);
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      reference_kernel_s();  // fault the table in
      int cpu = 0;
      while (read(requests[0], &cpu, sizeof cpu) ==
             static_cast<ssize_t>(sizeof cpu)) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        sched_setaffinity(0, sizeof set, &set);
        const double seconds = reference_kernel_s();
        if (write(replies[1], &seconds, sizeof seconds) !=
            static_cast<ssize_t>(sizeof seconds)) {
          break;
        }
      }
      _exit(0);
    }
    close(requests[0]);
    close(replies[1]);
    request_ = requests[1];
    reply_ = replies[0];
    if (pid_ < 0) {
      close(request_);
      close(reply_);
      throw std::runtime_error("fork failed");
    }
  }
  ~HostReference() {
    close(request_);  // the helper reads end-of-file and exits
    close(reply_);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  HostReference(const HostReference&) = delete;
  HostReference& operator=(const HostReference&) = delete;

  /// Runs one kernel pass in the helper and records its time.
  void sample() {
    const int cpu = std::max(0, sched_getcpu());
    double seconds = 0;
    if (write(request_, &cpu, sizeof cpu) !=
            static_cast<ssize_t>(sizeof cpu) ||
        read(reply_, &seconds, sizeof seconds) !=
            static_cast<ssize_t>(sizeof seconds)) {
      throw std::runtime_error("the reference kernel's helper stopped");
    }
    window_.push_back(seconds);
    all_.push_back(seconds);
  }

  /// Reference seconds per host second over the window, which it then
  /// empties.
  double take_scale() {
    if (window_.empty()) sample();
    const double mean =
        std::accumulate(window_.begin(), window_.end(), 0.0) /
        static_cast<double>(window_.size());
    window_.clear();
    return kReferenceNominalS / mean;
  }

  double median_ms() const { return 1e3 * median(all_); }

 private:
  pid_t pid_ = -1;
  int request_ = -1;
  int reply_ = -1;
  std::vector<double> window_;
  std::vector<double> all_;
};

// ---- Profiler plumbing ------------------------------------------------------

/// A program scope summed over every place it appears in the tree (identity
/// is (parent, name), so one call site can sit under several callers).
struct ScopeTotals {
  double self_ms = 0;
  double calls = 0;
};

ScopeTotals scope_totals(const obs::Profiler& prof, const char* name) {
  ScopeTotals totals;
  for (const auto& scope : prof.scopes()) {
    if (std::strcmp(scope.name, name) != 0) continue;
    totals.self_ms += static_cast<double>(scope.exclusive_ns) / 1e6;
    totals.calls += static_cast<double>(scope.count);
  }
  return totals;
}

/// Share of the time inside the benchmark's bench.* scopes that no program
/// scope beneath them claims.
double unattributed_share(const obs::Profiler& prof) {
  double bench_self = 0;
  double bench_total = 0;
  for (const auto& scope : prof.scopes()) {
    if (std::strncmp(scope.name, "bench.", 6) != 0) continue;
    bench_self += static_cast<double>(scope.exclusive_ns);
    if (scope.parent == obs::Profiler::kNoParent) {
      bench_total += static_cast<double>(scope.inclusive_ns);
    }
  }
  return bench_total > 0 ? bench_self / bench_total : 0.0;
}

/// Profiler control for one run. End-to-end runs keep the profiler off
/// (whatever FLEXMR_PROFILE says). Traced runs alternate untraced and traced
/// repetitions, so both are timed under the same host conditions.
class Tracing {
 public:
  explicit Tracing(bool enabled) : enabled_(enabled) {
    obs::Profiler::deactivate();
  }
  ~Tracing() { obs::Profiler::deactivate(); }
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;

  bool enabled() const { return enabled_; }
  /// Odd repetitions of a traced run are profiled.
  bool traced_rep(std::size_t rep) const { return enabled_ && rep % 2 == 1; }

  /// Runs fn() with the profiler active when `on`.
  template <typename Fn>
  void run(bool on, Fn&& fn) {
    struct Off {
      bool on;
      ~Off() {
        if (on) obs::Profiler::deactivate();
      }
    } off{on};
    if (on) obs::Profiler::activate(profiler_);
    fn();
  }

  void record_rep(bool traced, double wall_s) {
    (traced ? traced_walls_ : untraced_walls_).push_back(wall_s);
  }

  /// Emits the per-layer metrics read from the profiler: every shipped
  /// program scope, per traced repetition, plus the obs.* shares.
  void emit(Report& report) const {
    const double reps = std::max<double>(
        1.0, static_cast<double>(traced_walls_.size()));
    auto self_ms = [&](const char* scope, const std::string& name) {
      report.layer(name + ".self_ms",
                   scope_totals(profiler_, scope).self_ms / reps);
    };
    auto calls = [&](const char* scope, const std::string& name) {
      report.layer(name + ".calls",
                   scope_totals(profiler_, scope).calls / reps);
    };
    self_ms("sched/skewtune_argmax", "sched.skewtune_argmax");
    calls("sched/skewtune_argmax", "sched.skewtune_argmax");
    self_ms("sched/late_speculate", "sched.late_speculate");
    self_ms("sched/flexmap_sizing", "sched.flexmap_sizing");
    const ScopeTotals sizing = scope_totals(profiler_, "sched/flexmap_sizing");
    report.layer("sched.flexmap_sizing.ns_per_call",
                 sizing.calls > 0 ? sizing.self_ms * 1e6 / sizing.calls : 0.0);
    self_ms("rm/offer_all", "rm.offer_all");
    calls("rm/offer_node", "rm.offer_node");
    self_ms("mr/running_maps", "mr.running_maps");
    calls("mr/running_maps", "mr.running_maps");
    self_ms("mr/heartbeat", "mr.heartbeat");
    self_ms("sim/dispatch", "sim.dispatch");
    self_ms("sim/compact", "sim.compact");
    self_ms("hdfs/replica_pump", "hdfs.replica_pump");
    calls("hdfs/finish_copy", "hdfs.finish_copy");

    const double untraced = median(untraced_walls_);
    report.layer("trace.overhead_share",
                 untraced > 0 ? median(traced_walls_) / untraced - 1.0 : 0.0);
    report.layer("trace.unattributed_share", unattributed_share(profiler_));
  }

  void write_profile(const std::string& path) const {
    std::ofstream out(path);
    out << profiler_.json() << "\n";
    if (!out) std::fprintf(stderr, "could not write %s\n", path.c_str());
  }

 private:
  bool enabled_;
  obs::Profiler profiler_;
  std::vector<double> traced_walls_;
  std::vector<double> untraced_walls_;
};

/// Calls fn(rep) at least `min_reps` times, then while one more repetition
/// of the mean length so far still ends within `seconds`.
template <typename Fn>
void repeat_for(double seconds, std::size_t min_reps, Fn&& fn) {
  const auto start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    const double elapsed = seconds_since(start);
    if (rep >= min_reps &&
        (rep == 0 || elapsed * static_cast<double>(rep + 1) /
                             static_cast<double>(rep) >
                         seconds)) {
      return;
    }
    fn(rep);
  }
}

/// `sets` sets of `per_set` input seeds, independent streams of `seed`.
std::vector<std::vector<std::uint64_t>> input_sets(std::uint64_t seed,
                                                   std::uint64_t tag,
                                                   std::size_t sets,
                                                   std::size_t per_set) {
  std::vector<std::vector<std::uint64_t>> out(sets);
  for (std::size_t s = 0; s < sets; ++s) {
    for (std::size_t k = 0; k < per_set; ++k) {
      out[s].push_back(derive_seed(seed, tag + s * per_set + k));
    }
  }
  return out;
}

/// Wall seconds of one call of fn().
template <typename Fn>
double timed(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

void print_rep(std::size_t rep, bool traced, double host_s, double scale,
               double mib) {
  std::printf("rep %zu%s: %.3f s host, %.3f s reference, %.1f MiB/s\n", rep,
              traced ? " (traced)" : "", host_s, host_s * scale,
              mib / (host_s * scale));
}

/// The end-to-end metrics every workload reports, and the job completion
/// times behind the per-layer jct.* metrics.
struct EndToEnd {
  /// Per input set: its input MiB, and the reference seconds of every
  /// untraced repetition that ran it.
  std::map<std::size_t, double> set_mib;
  std::map<std::size_t, std::vector<double>> set_ref_s;
  std::vector<double> setup_s;        ///< One per set-up sample.
  double flexmap_speedup = 0;
  std::vector<double> jcts;           ///< Jobs of one repetition.

  /// Records one untraced repetition of input set `set`, its host times
  /// converted to reference seconds by `scale` (HostReference::take_scale).
  void add_rep(std::size_t set, double mib, double host_s,
               const std::vector<double>& setups, double scale) {
    set_mib[set] = mib;
    set_ref_s[set].push_back(host_s * scale);
    for (const double s : setups) setup_s.push_back(s * scale);
  }

  /// The input of every set ÷ the sum of each set's median time.
  double input_mib_per_s() const {
    double mib = 0;
    double seconds = 0;
    for (const auto& [set, times] : set_ref_s) {
      mib += set_mib.at(set);
      seconds += median(times);
    }
    return seconds > 0 ? mib / seconds : 0.0;
  }

  void emit(Report& report) const {
    report.metric("input_mib_per_s", input_mib_per_s(), "MiB/s");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mib",
                  static_cast<double>(bench::peak_rss_kib()) / 1024.0, "MiB");
    report.metric("flexmap_speedup", flexmap_speedup, "x");
  }
  void emit_jct_layers(Report& report) const {
    report.layer("jct.p50_s", quantile(jcts, 0.5));
    report.layer("jct.p95_s", quantile(jcts, 0.95));
  }
};

// ---- Simulator job results --------------------------------------------------

/// Input MiB credited by completed (or partially completed) map work.
double credited_map_mib(const mr::JobResult& result) {
  double mib = 0;
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap && task.credited()) {
      mib += task.input_mib;
    }
  }
  return mib;
}

bool same_mib(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max(1.0, std::fabs(b));
}

/// Per-layer counts read from job results (hdfs, faults, recover, mr).
struct JobCounters {
  double repair_read_mib = 0;
  double degraded_reads = 0;
  double parts_reconstructed = 0;
  double fault_events = 0;
  double am_restarts = 0;
  double replayed_units = 0;
  double redone_units = 0;
  double wasted_slot_s = 0;

  void add(const mr::JobResult& result) {
    repair_read_mib += result.repair_read_mib;
    degraded_reads += static_cast<double>(result.degraded_reads);
    parts_reconstructed += static_cast<double>(result.parts_reconstructed);
    fault_events += static_cast<double>(result.fault_events.size());
    am_restarts += result.am_restarts;
    for (const auto& attempt : result.am_attempts) {
      replayed_units += static_cast<double>(attempt.replayed_units);
    }
    redone_units += static_cast<double>(result.redone_work_units);
    wasted_slot_s += result.wasted_slot_time();
  }

  void emit(Report& report) const {
    report.layer("hdfs.repair_read_mib", repair_read_mib);
    report.layer("hdfs.degraded_reads", degraded_reads);
    report.layer("hdfs.parts_reconstructed", parts_reconstructed);
    report.layer("faults.events", fault_events);
    report.layer("recover.am_restarts", am_restarts);
    const double base = replayed_units + redone_units;
    report.layer("recover.replay_share",
                 base > 0 ? replayed_units / base : 0.0);
    report.layer("mr.wasted_slot_s", wasted_slot_s);
  }
};

/// Simulator counters of one repetition.
struct SimCounts {
  double fired = 0;
  double cancelled = 0;
  double queue_peak = 0;

  void emit(Report& report, double rep_host_s) const {
    report.layer("simcore.events_fired", fired);
    report.layer("simcore.events_cancelled", cancelled);
    report.layer("simcore.queue_peak", queue_peak);
    report.layer("simcore.host_ns_per_event",
                 fired > 0 ? rep_host_s * 1e9 / fired : 0.0);
  }
};

// ---- wide-cluster and fault-churn -------------------------------------------

// bench_scale's heterogeneous fleet: a fast-server minority, a slow
// desktop-class third, and bursty interference on a fifth of the nodes.
cluster::Cluster make_fleet(std::uint32_t nodes) {
  cluster::MachineSpec fast{.model = "fast server", .base_ips = 14.0,
                            .slots = 4, .nic_bandwidth = 1192.0,
                            .memory_gb = 128.0};
  cluster::MachineSpec mid{.model = "mid server", .base_ips = 11.0,
                           .slots = 4, .nic_bandwidth = 1192.0,
                           .memory_gb = 24.0};
  cluster::MachineSpec slow{.model = "slow desktop", .base_ips = 4.0,
                            .slots = 4, .nic_bandwidth = 1192.0,
                            .memory_gb = 8.0};
  cluster::OnOffInterference::Params bursty;
  bursty.mean_idle_s = 120.0;
  bursty.mean_busy_s = 90.0;
  bursty.busy_lo = 0.35;
  bursty.busy_hi = 0.8;

  const std::uint32_t n_fast = std::max(1u, nodes / 8);
  const std::uint32_t n_bursty = std::max(1u, nodes / 5);
  const std::uint32_t n_slow = std::max(1u, (nodes * 3) / 10);
  const std::uint32_t n_mid = nodes - n_fast - n_bursty - n_slow;
  return cluster::ClusterBuilder()
      .add(fast, n_fast)
      .add(mid, n_mid)
      .add(slow, n_slow)
      .add(mid, n_bursty, cluster::on_off_interference(bursty))
      .build();
}

// bench_scale's synthetic wordcount-like job: Hadoop-64m launches
// tasks_per_node × nodes map tasks.
workloads::Benchmark make_fleet_job(std::uint32_t nodes,
                                    std::uint32_t tasks_per_node) {
  workloads::Benchmark job;
  job.code = "SCALE";
  job.name = "synthetic scaling workload";
  job.input_data = "synthetic";
  job.small_input = static_cast<MiB>(nodes) * tasks_per_node * kDefaultBlockMiB;
  job.large_input = job.small_input;
  job.map_cost = 1.0;
  job.shuffle_ratio = 0.1;
  job.reduce_cost = 0.5;
  job.record_skew = 0.4;
  return job;
}

/// fault-churn's composition: silent crashes that rejoin, rs(6,3) storage,
/// transient attempt failures and one AM crash. Disk faults and fetch
/// failures are left out (NOTES.md, defects 1 and 3).
workloads::RunConfig fault_churn_config(std::uint32_t nodes,
                                        std::uint64_t seed) {
  workloads::RunConfig config;
  config.storage.kind = hdfs::StoragePolicy::Kind::kErasure;
  config.storage.rs_k = 6;
  config.storage.rs_m = 3;
  faults::FaultPlan& plan = config.faults;
  Rng rng(derive_seed(seed, 0xfa17));
  std::vector<NodeId> victims;
  const std::uint32_t crashes = std::max(2u, nodes / 32);
  while (victims.size() < crashes) {
    const auto node = static_cast<NodeId>(rng.uniform_int(nodes));
    if (std::find(victims.begin(), victims.end(), node) == victims.end()) {
      victims.push_back(node);
    }
  }
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const SimTime at = 40.0 + 25.0 * static_cast<double>(i);
    plan.crashes.push_back(faults::NodeCrash{victims[i], at, at + 150.0, true});
  }
  plan.attempt_failure_prob = 0.01;
  plan.am_crashes = {150.0};
  // The rs(6,3) goldens run at max_attempts=8: the stock budget of 4 aborts
  // SkewTune under 1/k-locality mitigation churn (DESIGN.md §14).
  plan.max_attempts = 8;
  return config;
}

struct FleetShape {
  std::uint32_t nodes;
  std::uint32_t tasks_per_node;
  bool faults;
  /// Inputs per repetition: each repetition runs all four schedulers on
  /// each of these, so one input's host cost does not set the result.
  std::size_t inputs;
  /// Repetitions cycle through this many sets of `inputs` inputs, and an
  /// untraced run covers every set, so flexmap_speedup averages them all.
  std::size_t input_sets;
};

void run_fleet_jobs(const Options& opt, const FleetShape& shape,
                    HostReference& ref, Report& report) {
  Tracing tracing(opt.trace);
  const auto points = bench::paper_comparison_points();
  // Profiler scope names must be literals; order follows the points.
  const char* const scopes[] = {"bench.run_job.Hadoop-128m",
                                "bench.run_job.Hadoop-64m",
                                "bench.run_job.SkewTune-64m",
                                "bench.run_job.FlexMap"};
  const workloads::Benchmark job =
      make_fleet_job(shape.nodes, shape.tasks_per_node);
  const auto sets =
      input_sets(opt.seed, 100, shape.input_sets, shape.inputs);

  auto make_config = [&](std::uint64_t seed) {
    workloads::RunConfig config =
        shape.faults ? fault_churn_config(shape.nodes, seed)
                     : workloads::RunConfig{};
    config.params.seed = seed;
    return config;
  };

  EndToEnd e2e;

  std::vector<std::vector<double>> set_jcts(sets.size());
  std::vector<std::vector<double>> point_s(points.size());
  std::vector<double> layout_ms;
  JobCounters counters;
  SimCounts sim;
  repeat_for(opt.seconds, opt.trace ? 2 : sets.size(), [&](std::size_t rep) {
    const bool traced = tracing.traced_rep(rep);
    const std::vector<std::uint64_t>& seeds = sets[rep % sets.size()];
    double rep_s = 0;
    double rep_mib = 0;
    std::vector<double> jcts;
    std::vector<double> rep_point_s(points.size(), 0.0);
    std::vector<double> rep_setup_s;
    tracing.run(traced, [&] {
      for (const std::uint64_t seed : seeds) {
        for (std::size_t p = 0; p < points.size(); ++p) {
          // Set-up, as bench_scale does it: a fresh cluster and run
          // configuration (fault plan) for every job. Sampling it job by
          // job spreads the samples over the whole window.
          std::optional<cluster::Cluster> cluster;
          workloads::RunConfig run;
          const double setup = timed([&] {
            cluster.emplace(make_fleet(shape.nodes));
            run = make_config(seed);
          });
          if (!traced) rep_setup_s.push_back(setup);
          run.block_size = points[p].block_size;
          bool failed = false;
          const double wall = timed([&] {
            try {
              const obs::ProfScope scope(scopes[p]);
              const mr::JobResult result = workloads::run_job(
                  *cluster, job, workloads::InputScale::kSmall,
                  points[p].kind, run);
              const double credited = credited_map_mib(result);
              report.check(same_mib(credited, job.small_input),
                           points[p].label + ": credited map input " +
                               std::to_string(credited) + " MiB, job input " +
                               std::to_string(job.small_input) + " MiB");
              failed = result.aborted;
              rep_mib += credited;
              jcts.push_back(result.jct());
              if (rep == 0) {
                counters.add(result);
                sim.fired += static_cast<double>(result.sim_events_fired);
                sim.cancelled +=
                    static_cast<double>(result.sim_events_cancelled);
                sim.queue_peak =
                    std::max(sim.queue_peak,
                             static_cast<double>(result.sim_queue_peak));
              }
            } catch (const std::exception& e) {
              failed = true;
              jcts.push_back(0);
              report.check(false, points[p].label + " threw: " + e.what());
            }
          });
          report.job(failed);
          rep_s += wall;
          rep_point_s[p] += wall;
          ref.sample();
        }
      }
      if (traced) {
        // run_job builds this same layout inside; timing it alone isolates
        // the layout builder.
        layout_ms.push_back(1e3 * timed([&] {
          const obs::ProfScope scope("bench.make_layout");
          const workloads::RunConfig config = make_config(sets[0][0]);
          const hdfs::FileLayout layout = workloads::make_layout(
              job, workloads::InputScale::kSmall, shape.nodes,
              kDefaultBlockMiB, config.replication, sets[0][0],
              config.storage);
          report.check(!layout.blocks.empty(), "make_layout built no blocks");
        }));
      }
    });
    const double scale = ref.take_scale();
    tracing.record_rep(traced, rep_s);
    if (rep == 0) e2e.jcts = jcts;
    if (rep < sets.size()) {
      set_jcts[rep] = jcts;
    } else {
      report.check(jcts == set_jcts[rep % sets.size()],
                   "simulated JCTs differ between repetitions of one input");
    }
    if (!traced) {
      e2e.add_rep(rep % sets.size(), rep_mib, rep_s, rep_setup_s, scale);
      for (std::size_t p = 0; p < points.size(); ++p) {
        point_s[p].push_back(rep_point_s[p]);
      }
    }
    print_rep(rep, traced, rep_s, scale, rep_mib);
  });

  if (!opt.trace) {
    // Mean JCT of Hadoop-64m ÷ mean JCT of FlexMap over the inputs of
    // every set: the paper's headline, in simulated time.
    double stock = 0;
    double elastic = 0;
    for (const auto& jcts : set_jcts) {
      for (std::size_t i = 0; i + 3 < jcts.size(); i += points.size()) {
        stock += jcts[i + 1];
        elastic += jcts[i + 3];
      }
    }
    e2e.flexmap_speedup = elastic > 0 ? stock / elastic : 0.0;
    e2e.emit(report);
    return;
  }
  tracing.emit(report);
  e2e.emit_jct_layers(report);
  double rep_host_s = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const double s = median(point_s[p]);
    report.layer(std::string(scopes[p]) + "_s", s);
    rep_host_s += s;
  }
  sim.emit(report, rep_host_s);
  counters.emit(report);
  report.layer("bench.make_layout_ms", median(layout_ms));
  tracing.write_profile(opt.out_dir + "/PROFILE_" + opt.workload + ".json");
}

// ---- tenant-stream ----------------------------------------------------------

// bench_service's three-tenant mix under weighted-fair sharing with
// preemption. With `stock`, every tenant runs Hadoop-64m instead: the same
// arrival stream without elastic tasks, for flexmap_speedup.
service::ServiceConfig tenant_stream_config(std::uint64_t seed,
                                            std::size_t jobs, bool stock) {
  using workloads::SchedulerKind;
  const SchedulerKind elastic =
      stock ? SchedulerKind::kHadoop : SchedulerKind::kFlexMap;
  service::ServiceConfig config;
  config.tenants = {
      {"analytics", 2.0, 60.0, {"WC", "II"}, workloads::InputScale::kSmall,
       elastic},
      {"reporting", 1.0, 40.0, {"GR", "HR"}, workloads::InputScale::kSmall,
       elastic},
      {"batch", 1.0, 20.0, {"TS"}, workloads::InputScale::kSmall,
       SchedulerKind::kHadoop},
  };
  config.total_jobs = jobs;
  config.max_concurrent_jobs = 4;
  config.policy = mr::SharePolicy::kWeightedFair;
  config.preemption.enabled = true;
  config.params.seed = seed;
  return config;
}

/// The PUMA benchmark behind a service job named "<benchmark> #<id> (...)".
const workloads::Benchmark* benchmark_named(const std::string& job_name) {
  const std::string name = job_name.substr(0, job_name.find(" #"));
  for (const auto& bench : workloads::puma_suite()) {
    if (bench.name == name) return &bench;
  }
  return nullptr;
}

void run_tenant_stream(const Options& opt, HostReference& ref,
                       Report& report) {
  Tracing tracing(opt.trace);
  // Many short streams rather than a few long ones: a stream's backlog
  // sets its host cost, which swings far from seed to seed (NOTES.md).
  // Repetitions cycle through three sets of streams.
  const std::size_t jobs = opt.smoke ? 12 : 50;
  const auto sets = input_sets(opt.seed, 200, 3, opt.smoke ? 1 : 32);

  struct Stream {
    cluster::Cluster cluster;
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<service::ClusterService> svc;
  };

  EndToEnd e2e;
  std::vector<double> ctor_s;
  std::vector<double> run_s;
  std::vector<std::vector<double>> set_elastic_jcts(sets.size());
  std::vector<std::vector<double>> set_stock_jcts(sets.size());
  std::optional<service::ServiceResult> first;
  SimCounts sim;
  JobCounters counters;
  repeat_for(opt.seconds, sets.size(), [&](std::size_t rep) {
    const bool traced = tracing.traced_rep(rep);
    const std::vector<std::uint64_t>& seeds = sets[rep % sets.size()];
    double rep_s = 0;
    double rep_mib = 0;
    std::vector<double> elastic_jcts;
    std::vector<double> rep_stock_jcts;
    std::vector<double> rep_setup_s;
    tracing.run(traced, [&] {
      for (std::size_t k = 0; k < seeds.size(); ++k) {
        for (const bool stock : {false, true}) {
          // Set-up: the cluster plus the service constructor, which
          // pre-generates the arrivals and every job's layout.
          std::optional<Stream> stream;
          const double setup = timed([&] {
            const obs::ProfScope scope("bench.service_ctor");
            stream.emplace(Stream{cluster::presets::multitenant40(0.0),
                                  std::make_unique<Simulator>(), nullptr});
            stream->svc = std::make_unique<service::ClusterService>(
                *stream->sim, stream->cluster,
                tenant_stream_config(seeds[k], jobs, stock));
          });
          rep_setup_s.push_back(setup);
          std::optional<service::ServiceResult> result;
          const double wall = timed([&] {
            const obs::ProfScope scope("bench.service_run");
            result.emplace(stream->svc->run());
          });
          rep_s += wall;
          ref.sample();
          if (!stock && !traced) {
            ctor_s.push_back(setup);
            run_s.push_back(wall);
          }

          std::size_t completed = 0;
          std::size_t aborted = 0;
          for (const auto& tenant : result->tenants) {
            completed += tenant.jobs_completed;
            aborted += tenant.jobs_aborted;
          }
          report.check(completed + aborted == jobs,
                       "completed + aborted jobs " +
                           std::to_string(completed + aborted) +
                           " != total_jobs " + std::to_string(jobs));
          for (const auto& record : result->jobs) report.job(record.aborted);
          const mr::MultiJobCoordinator& coord = stream->svc->coordinator();
          for (std::size_t j = 0; j < coord.num_jobs(); ++j) {
            const mr::JobResult job = coord.result(j);
            if (job.aborted) continue;
            const workloads::Benchmark* bench = benchmark_named(job.benchmark);
            const double credited = credited_map_mib(job);
            report.check(
                bench != nullptr &&
                    same_mib(credited,
                             bench->input(workloads::InputScale::kSmall)),
                "service job " + std::to_string(j) + " (" + job.benchmark +
                    "): credited map input " + std::to_string(credited) +
                    " MiB");
            rep_mib += credited;
            if (rep == 0 && k == 0 && !stock) counters.add(job);
          }

          auto& jcts = stock ? rep_stock_jcts : elastic_jcts;
          for (const auto& record : result->jobs) jcts.push_back(record.jct());
          if (rep == 0 && k == 0 && !stock) {
            first = std::move(result);
            const SimCounters c = stream->sim->counters();
            sim.fired = static_cast<double>(c.fired);
            sim.cancelled = static_cast<double>(c.cancelled);
            sim.queue_peak = static_cast<double>(c.queue_peak);
          }
        }
      }
    });
    const double scale = ref.take_scale();
    if (rep == 0) e2e.jcts = elastic_jcts;
    if (rep < sets.size()) {
      set_elastic_jcts[rep] = elastic_jcts;
      set_stock_jcts[rep] = rep_stock_jcts;
    } else {
      report.check(elastic_jcts == set_elastic_jcts[rep % sets.size()] &&
                       rep_stock_jcts == set_stock_jcts[rep % sets.size()],
                   "service JCTs differ between repetitions of one input");
    }
    tracing.record_rep(traced, rep_s);
    if (!traced) {
      e2e.add_rep(rep % sets.size(), rep_mib, rep_s, rep_setup_s, scale);
    }
    print_rep(rep, traced, rep_s, scale, rep_mib);
  });

  if (!opt.trace) {
    // p50 service JCT of the all-stock streams ÷ that of the mixed ones,
    // over every set.
    std::vector<double> elastic_all;
    std::vector<double> stock_all;
    for (std::size_t s = 0; s < sets.size(); ++s) {
      elastic_all.insert(elastic_all.end(), set_elastic_jcts[s].begin(),
                         set_elastic_jcts[s].end());
      stock_all.insert(stock_all.end(), set_stock_jcts[s].begin(),
                       set_stock_jcts[s].end());
    }
    const double elastic_p50 = quantile(elastic_all, 0.5);
    e2e.flexmap_speedup =
        elastic_p50 > 0 ? quantile(stock_all, 0.5) / elastic_p50 : 0.0;
    e2e.emit(report);
    return;
  }
  tracing.emit(report);
  e2e.emit_jct_layers(report);
  report.layer("bench.service_ctor_s", median(ctor_s));
  report.layer("bench.service_run_s", median(run_s));
  sim.emit(report, median(run_s));
  counters.emit(report);
  std::vector<double> delays;
  for (const auto& record : first->jobs) delays.push_back(record.queue_delay());
  report.layer("service.preemption_kills",
               static_cast<double>(first->preemption_kills));
  report.layer("service.queue_delay_p95_s", quantile(delays, 0.95));
  report.layer("service.fairness_index", first->fairness_index);
  tracing.write_profile(opt.out_dir + "/PROFILE_" + opt.workload + ".json");
}

// ---- rt-wordcount -----------------------------------------------------------

void run_rt_wordcount(const Options& opt, HostReference& ref,
                      Report& report) {
  Tracing tracing(opt.trace);
  const std::size_t chunks = opt.smoke ? 32 : 1024;
  const std::size_t chunk_bytes = opt.smoke ? 8 * 1024 : 64 * 1024;
  const std::uint64_t seed = derive_seed(opt.seed, 3);

  // Set-up is dataset generation, repeated; the last dataset is used.
  EndToEnd e2e;
  std::optional<rt::Dataset> dataset;
  std::vector<double> generate_s;
  for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
    tracing.run(tracing.enabled() && i == 0, [&] {
      generate_s.push_back(timed([&] {
        const obs::ProfScope scope("bench.rt.generate_text");
        dataset.emplace(rt::Dataset::generate_text(chunks, chunk_bytes, seed));
      }));
    });
    ref.sample();
  }
  const double generate_scale = ref.take_scale();
  for (const double s : generate_s) e2e.setup_s.push_back(s * generate_scale);
  const double mib = static_cast<double>(dataset->total_bytes()) / (1 << 20);

  // One-thread reference from the same UDFs: map every chunk into one
  // combiner, then reduce each key's combined count.
  std::map<std::string, rt::Value> reference;
  const double serial_s = timed([&] {
    const rt::MapFn map_fn = rt::wordcount_map();
    const rt::ReduceFn reduce_fn = rt::sum_reduce();
    rt::Emitter emitter;
    for (std::size_t c = 0; c < dataset->num_chunks(); ++c) {
      map_fn(dataset->chunk(c), emitter);
    }
    for (const auto& [key, count] : emitter.take()) {
      reference[key] = reduce_fn(key, {count});
    }
  });

  // At most one worker per hardware thread; the last runs at quarter speed.
  const std::size_t workers = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 2, 4);
  std::vector<rt::WorkerSpec> specs(workers, rt::WorkerSpec{1.0});
  specs.back() = rt::WorkerSpec{0.25};
  rt::MapReduceEngine engine(specs, rt::EngineConfig{});

  std::vector<double> fixed_s;
  std::vector<double> elastic_s;
  std::vector<double> speedups;
  std::vector<double> map_tasks;
  std::vector<double> productivity;
  repeat_for(opt.seconds, opt.trace ? 2 : 1, [&](std::size_t rep) {
    const bool traced = tracing.traced_rep(rep);
    std::optional<rt::RtResult> fixed;
    std::optional<rt::RtResult> elastic;
    double fixed_wall = 0;
    double elastic_wall = 0;
    tracing.run(traced, [&] {
      fixed_wall = timed([&] {
        const obs::ProfScope scope("bench.rt.run_fixed");
        fixed.emplace(engine.run_fixed(*dataset, rt::wordcount_map(),
                                       rt::sum_reduce(),
                                       /*chunks_per_task=*/8));
      });
      ref.sample();
      elastic_wall = timed([&] {
        const obs::ProfScope scope("bench.rt.run_elastic");
        elastic.emplace(engine.run_elastic(*dataset, rt::wordcount_map(),
                                           rt::sum_reduce()));
      });
      ref.sample();
    });
    const double scale = ref.take_scale();
    const bool fixed_ok = fixed->output == reference;
    const bool elastic_ok = elastic->output == reference;
    report.check(fixed_ok, "run_fixed output differs from the reference");
    report.check(elastic_ok, "run_elastic output differs from the reference");
    report.job(!fixed_ok);
    report.job(!elastic_ok);
    const double rep_s = fixed_wall + elastic_wall;
    tracing.record_rep(traced, rep_s);
    if (!traced) {
      e2e.add_rep(0, 2 * mib, rep_s, {}, scale);
      fixed_s.push_back(fixed_wall);
      elastic_s.push_back(elastic_wall);
      speedups.push_back(fixed->total_wall_seconds /
                         elastic->total_wall_seconds);
      e2e.jcts.push_back(fixed->total_wall_seconds);
      e2e.jcts.push_back(elastic->total_wall_seconds);
      map_tasks.push_back(static_cast<double>(elastic->map_tasks()));
      double prod = 0;
      for (const auto& task : elastic->tasks) prod += task.productivity();
      const auto tasks = static_cast<double>(elastic->tasks.size());
      productivity.push_back(tasks > 0 ? prod / tasks : 0.0);
    }
    std::printf("fixed %.3f s, elastic %.3f s; ", fixed_wall, elastic_wall);
    print_rep(rep, traced, rep_s, scale, 2 * mib);
  });

  if (!opt.trace) {
    // Fixed ÷ elastic job time on real threads: the headline's rt analogue.
    e2e.flexmap_speedup = median(speedups);
    e2e.emit(report);
    return;
  }
  tracing.emit(report);
  e2e.emit_jct_layers(report);
  report.layer("rt.generate_text_s", median(generate_s));
  report.layer("rt.run_fixed_s", median(fixed_s));
  report.layer("rt.run_elastic_s", median(elastic_s));
  report.layer("rt.serial_map_mib_per_s", mib / serial_s);
  report.layer("rt.map_tasks", median(map_tasks));
  report.layer("rt.mean_productivity", median(productivity));
  tracing.write_profile(opt.out_dir + "/PROFILE_" + opt.workload + ".json");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <wide-cluster|fault-churn|tenant-stream|"
               "rt-wordcount> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--out-dir <dir>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.seconds <= 0) return usage(argv[0]);

  const Probe probe = probe_in_child();
  std::printf("host probe: alu %.4f s, 64 MiB pointer chase %.2f ns/hop\n",
              probe.alu_s, probe.chase_ns_per_hop);

  Report report;
  double ref_kernel_ms = 0;
  try {
    // Started before any worker thread, so the fork copies one thread.
    HostReference ref;
    if (opt.workload == "wide-cluster") {
      run_fleet_jobs(opt, {opt.smoke ? 64u : 500u, opt.smoke ? 10u : 25u,
                           false, opt.smoke ? 1u : 8u, 3},
                     ref, report);
    } else if (opt.workload == "fault-churn") {
      run_fleet_jobs(opt, {opt.smoke ? 32u : 128u, opt.smoke ? 10u : 100u,
                           true, opt.smoke ? 1u : 6u, 3},
                     ref, report);
    } else if (opt.workload == "tenant-stream") {
      run_tenant_stream(opt, ref, report);
    } else if (opt.workload == "rt-wordcount") {
      run_rt_wordcount(opt, ref, report);
    } else {
      return usage(argv[0]);
    }
    ref_kernel_ms = ref.median_ms();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("reference kernel: median %.3f ms\n", ref_kernel_ms);
  if (opt.trace) {
    report.layer("host.alu_s", probe.alu_s);
    report.layer("host.chase_ns_per_hop", probe.chase_ns_per_hop);
    report.layer("host.ref_kernel_ms", ref_kernel_ms);
    report.emit_layers();
  }
  report.print_problems();
  std::printf("%s\n", report.json().c_str());
  return 0;
}
