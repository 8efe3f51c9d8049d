// AM-crash recovery sweep: cost of losing the AppMaster, for all four
// comparison systems. Not a paper figure — the paper's AM never dies —
// but the journaled replay-don't-redo recovery makes the robustness cost
// measurable in three axes:
//   1. crash point: how much JCT one AM loss adds at 25/50/75% of the
//      crash-free job, and what fraction of the work is redone vs
//      replayed from the journal;
//   2. crash rate: JCT inflation under exponential AM lifetimes (MTTF);
//   3. snapshot cadence: journal compaction must not change the result —
//      only the replay length at restart shrinks.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "cluster/presets.hpp"

namespace flexmr::bench {
namespace {

const std::vector<workloads::SchedulerKind>& systems() {
  static const std::vector<workloads::SchedulerKind> kinds = {
      workloads::SchedulerKind::kHadoop,
      workloads::SchedulerKind::kHadoopNoSpec,
      workloads::SchedulerKind::kSkewTune,
      workloads::SchedulerKind::kFlexMap,
  };
  return kinds;
}

workloads::Benchmark recovery_bench() {
  auto bench = workloads::benchmark("WC");
  bench.small_input = 4096.0;
  return bench;
}

std::uint64_t credited_units(const mr::JobResult& result) {
  std::uint64_t units = 0;
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap && task.credited()) {
      units += task.num_bus;
    }
  }
  return units;
}

mr::JobResult run_one(workloads::SchedulerKind kind, std::uint64_t seed,
                      const faults::FaultPlan& plan) {
  auto cluster = cluster::presets::physical12();
  workloads::RunConfig config;
  config.params.seed = seed;
  config.faults = plan;
  return workloads::run_job(cluster, recovery_bench(),
                            workloads::InputScale::kSmall, kind, config);
}

/// One AM crash at 25/50/75% of each run's own crash-free JCT: the later
/// the crash, the more the journal replays and the less is redone.
void run_crash_point_sweep(BenchArtifact& artifact,
                           const std::vector<std::uint64_t>& seeds) {
  print_header(
      "AM crash point: one AM loss at a fraction of the crash-free JCT",
      "JCT inflation stays well under 2x at every crash point: committed "
      "work replays from the journal instead of re-running, so only the "
      "in-flight containers plus the restart delay are lost");

  const std::vector<double> fractions = {0.25, 0.5, 0.75};
  TextTable table({"System", "healthy", "f=0.25", "f=0.50", "f=0.75",
                   "redone@0.50", "replayed@0.50"});
  for (const auto kind : systems()) {
    const std::string label = workloads::scheduler_label(kind);
    OnlineStats healthy;
    std::vector<OnlineStats> jct(fractions.size());
    std::vector<OnlineStats> inflation(fractions.size());
    std::vector<OnlineStats> redone(fractions.size());
    std::vector<OnlineStats> replayed(fractions.size());
    for (const auto seed : seeds) {
      const auto base = run_one(kind, seed, faults::FaultPlan{});
      healthy.add(base.jct());
      const double total =
          static_cast<double>(credited_units(base));
      for (std::size_t f = 0; f < fractions.size(); ++f) {
        faults::FaultPlan plan;
        plan.am_crashes = {fractions[f] * base.jct()};
        const auto result = run_one(kind, seed, plan);
        jct[f].add(result.jct());
        inflation[f].add(result.jct() / base.jct());
        redone[f].add(static_cast<double>(result.redone_work_units) / total);
        const double rep =
            result.am_attempts.empty()
                ? 0.0
                : static_cast<double>(result.am_attempts[0].replayed_units);
        replayed[f].add(rep / total);
      }
    }
    std::vector<std::string> row = {label, TextTable::num(healthy.mean(), 1)};
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      row.push_back(TextTable::num(jct[f].mean(), 1));
      const std::string series =
          "crash_point/" + label + "/f" + TextTable::num(fractions[f], 2);
      artifact.add_metric(series, "jct", jct[f]);
      artifact.add_metric(series, "jct_vs_crashfree", inflation[f]);
      artifact.add_metric(series, "redone_fraction", redone[f]);
      artifact.add_metric(series, "replayed_fraction", replayed[f]);
    }
    artifact.add_metric("crash_point/" + label + "/healthy", "jct", healthy);
    row.push_back(TextTable::num(redone[1].mean(), 3));
    row.push_back(TextTable::num(replayed[1].mean(), 3));
    table.add_row(row);
  }
  std::printf("%s\n", table.str().c_str());
}

/// Exponential AM lifetimes: the shorter the MTTF relative to the job,
/// the more restarts pile up; journal replay keeps the inflation roughly
/// linear in the restart count instead of geometric.
void run_mttf_sweep(BenchArtifact& artifact,
                    const std::vector<std::uint64_t>& seeds) {
  print_header(
      "AM crash rate: JCT inflation vs AM MTTF (exponential lifetimes)",
      "inflation grows as MTTF shrinks toward the job length but the job "
      "always completes within the attempt budget; redone work per crash "
      "stays bounded by the in-flight container set");

  const std::vector<double> mttfs = {0.0, 600.0, 240.0, 120.0};
  TextTable table({"System", "no crash", "mttf=600", "mttf=240", "mttf=120",
                   "x120/x0", "restarts@120"});
  for (const auto kind : systems()) {
    const std::string label = workloads::scheduler_label(kind);
    std::vector<OnlineStats> jct(mttfs.size());
    std::vector<OnlineStats> restarts(mttfs.size());
    std::vector<OnlineStats> redone(mttfs.size());
    for (const auto seed : seeds) {
      for (std::size_t m = 0; m < mttfs.size(); ++m) {
        faults::FaultPlan plan;
        plan.am_crash_mttf_s = mttfs[m];
        plan.am_max_attempts = 100;
        const auto result = run_one(kind, seed, plan);
        jct[m].add(result.jct());
        restarts[m].add(static_cast<double>(result.am_restarts));
        redone[m].add(static_cast<double>(result.redone_work_units) /
                      static_cast<double>(credited_units(result)));
      }
    }
    std::vector<std::string> row = {label};
    for (std::size_t m = 0; m < mttfs.size(); ++m) {
      row.push_back(TextTable::num(jct[m].mean(), 1));
      const std::string series =
          "mttf/" + label + "/" +
          (mttfs[m] > 0 ? TextTable::num(mttfs[m], 0) : "off");
      artifact.add_metric(series, "jct", jct[m]);
      artifact.add_metric(series, "jct_vs_crashfree",
                          jct[0].mean() > 0 ? jct[m].mean() / jct[0].mean()
                                            : 0.0);
      artifact.add_metric(series, "am_restarts", restarts[m]);
      artifact.add_metric(series, "redone_fraction", redone[m]);
    }
    row.push_back(TextTable::num(jct.back().mean() / jct[0].mean(), 2));
    row.push_back(TextTable::num(restarts.back().mean(), 1));
    table.add_row(row);
  }
  std::printf("%s\n", table.str().c_str());
}

/// Snapshot cadence: runs the same mid-job AM crash under different
/// journal snapshot intervals through an AmAttempts chain it holds, so the
/// journal itself is inspectable. The job's JCT is byte-stable across
/// intervals; only the log tail the restart replays shrinks.
void run_snapshot_sweep(BenchArtifact& artifact, std::uint64_t seed) {
  print_header(
      "Journal snapshot cadence: compaction is behavior-neutral",
      "identical JCT at every interval; shorter intervals take more "
      "snapshots and leave fewer log records to replay at restart");

  const std::vector<double> intervals = {0.0, 15.0, 60.0, 240.0};
  const auto bench = recovery_bench();
  TextTable table({"interval_s", "jct", "snapshots", "log_records",
                   "restarts"});
  for (const double interval : intervals) {
    auto cluster = cluster::presets::physical12();
    Simulator sim;
    const auto layout = workloads::make_layout(
        bench, workloads::InputScale::kSmall, cluster.num_nodes(),
        kDefaultBlockMiB, 3, seed);
    const auto spec = workloads::to_job_spec(bench,
                                             workloads::InputScale::kSmall);
    const auto scheduler =
        workloads::make_scheduler(workloads::SchedulerKind::kFlexMap, seed);
    faults::FaultPlan plan;
    plan.am_crashes = {30.0};
    plan.am_snapshot_interval_s = interval;
    mr::SimParams params;
    params.seed = seed;
    mr::AmAttempts chain(sim, cluster, layout, spec, params, *scheduler);
    const auto result = workloads::run_attempts(sim, chain, plan);
    const std::string label =
        interval > 0 ? TextTable::num(interval, 0) : "off";
    table.add_row({label, TextTable::num(result.jct(), 2),
                   TextTable::num(
                       static_cast<double>(chain.journal().snapshots_taken()),
                       0),
                   TextTable::num(
                       static_cast<double>(chain.journal().log_records()), 0),
                   TextTable::num(static_cast<double>(result.am_restarts),
                                  0)});
    const std::string series = "snapshot/" + label;
    artifact.add_metric(series, "jct", result.jct());
    artifact.add_metric(
        series, "snapshots",
        static_cast<double>(chain.journal().snapshots_taken()));
    artifact.add_metric(series, "log_records",
                        static_cast<double>(chain.journal().log_records()));
    // One full journal document rides along for shape-checking (the
    // 15 s-interval run actually exercises the snapshot fold).
    if (interval == 15.0) {
      artifact.attach("journal", chain.journal().to_json());
    }
  }
  std::printf("%s\n", table.str().c_str());
}

}  // namespace
}  // namespace flexmr::bench

int main() {
  using namespace flexmr;
  bench::BenchArtifact artifact(
      "recovery", "AM crash recovery: replay-don't-redo cost model");
  const auto seeds = bench::default_seeds();
  artifact.record_seeds(seeds);
  bench::run_crash_point_sweep(artifact, seeds);
  bench::run_mttf_sweep(artifact, seeds);
  bench::run_snapshot_sweep(artifact, seeds.front());
  artifact.write();
  return 0;
}
