#include "workloads/experiment.hpp"

#include "common/error.hpp"
#include "obs/session.hpp"
#include "simcore/simulator.hpp"

namespace flexmr::workloads {

std::string scheduler_label(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kHadoop: return "Hadoop";
    case SchedulerKind::kHadoopNoSpec: return "Hadoop-nospec";
    case SchedulerKind::kSkewTune: return "SkewTune";
    case SchedulerKind::kFlexMap: return "FlexMap";
    case SchedulerKind::kFlexMapNoVertical: return "FlexMap-noV";
    case SchedulerKind::kFlexMapNoHorizontal: return "FlexMap-noH";
    case SchedulerKind::kFlexMapNoReduceBias: return "FlexMap-noRB";
  }
  throw ConfigError("unknown scheduler kind");
}

std::unique_ptr<mr::Scheduler> make_scheduler(SchedulerKind kind,
                                              std::uint64_t seed) {
  using sched::SkewTuneScheduler;
  using sched::StockHadoopScheduler;
  using sched::StockOptions;
  switch (kind) {
    case SchedulerKind::kHadoop:
      return std::make_unique<StockHadoopScheduler>();
    case SchedulerKind::kHadoopNoSpec:
      return std::make_unique<StockHadoopScheduler>(
          StockOptions{.speculation = false, .late = {}});
    case SchedulerKind::kSkewTune:
      return std::make_unique<SkewTuneScheduler>();
    case SchedulerKind::kFlexMap: {
      flexmap::FlexMapOptions options;
      options.seed = seed;
      return std::make_unique<flexmap::FlexMapScheduler>(options);
    }
    case SchedulerKind::kFlexMapNoVertical: {
      flexmap::FlexMapOptions options;
      options.seed = seed;
      options.sizing.vertical = false;
      return std::make_unique<flexmap::FlexMapScheduler>(options);
    }
    case SchedulerKind::kFlexMapNoHorizontal: {
      flexmap::FlexMapOptions options;
      options.seed = seed;
      options.sizing.horizontal = false;
      return std::make_unique<flexmap::FlexMapScheduler>(options);
    }
    case SchedulerKind::kFlexMapNoReduceBias: {
      flexmap::FlexMapOptions options;
      options.seed = seed;
      options.reduce_bias = false;
      return std::make_unique<flexmap::FlexMapScheduler>(options);
    }
  }
  throw ConfigError("unknown scheduler kind");
}

mr::JobResult run_job(cluster::Cluster& cluster, const Benchmark& bench,
                      InputScale scale, mr::Scheduler& scheduler,
                      const RunConfig& config) {
  cluster.reset();
  Simulator sim;
  // Admission check: rs(k,m) needs k+m distinct holders among the nodes
  // that are actually up when the file is written (t=0). Nodes crashing
  // later degrade reads; nodes already down shrink the placement domain.
  std::uint32_t alive0 = cluster.num_nodes();
  for (const auto& crash : config.faults.crashes) {
    if (crash.at <= 0.0) --alive0;
  }
  config.storage.validate(alive0);
  const auto layout =
      make_layout(bench, scale, cluster.num_nodes(), config.block_size,
                  config.replication, config.params.seed, config.storage);
  mr::AmAttempts chain(sim, cluster, layout, to_job_spec(bench, scale),
                       config.params, scheduler);
  auto result = run_attempts(sim, chain, config.faults, config.trace);
  result.scheduler = scheduler.name();
  return result;
}

mr::JobResult run_attempts(Simulator& sim, mr::AmAttempts& chain,
                           const faults::FaultPlan& plan,
                           obs::TraceSession* trace) {
  if (!plan.empty()) chain.live().install_faults(plan);
  if (plan.has_am_faults()) {
    chain.enable_recovery({plan.am_max_attempts, plan.am_restart_delay_s});
  }
  if (trace != nullptr) chain.set_trace(trace);
  chain.live().start();

  // Fixed crash times kill whichever attempt is live then; a crash landing
  // in AM downtime (or after the job finished) finds no AM to kill.
  for (const SimTime at : plan.am_crashes) {
    sim.schedule_at(at, [&chain]() { chain.crash(); });
  }
  if (plan.am_crash_mttf_s > 0.0) {
    // AM-lifetime draws come from a stream of their own, so arming MTTF
    // crashes never perturbs the driver/injector sequences.
    auto rng = std::make_shared<Rng>(chain.live().params().seed ^
                                     0x5ec0feed0a11fa17ULL);
    auto arm = [&sim, &chain, rng, mttf = plan.am_crash_mttf_s]() {
      const std::uint32_t attempt = chain.live().am_attempt();
      sim.schedule_at(sim.now() + rng->exponential(mttf),
                      [&chain, attempt]() {
                        // The draw was this attempt's lifetime; if a fixed
                        // crash already took it, the successor drew its own.
                        if (chain.live().am_attempt() == attempt) {
                          chain.crash();
                        }
                      });
    };
    arm();
    chain.set_restart_hook(std::move(arm));
  }

  while (!chain.done()) {
    if (!sim.step()) {
      throw InvariantError("simulation ran dry before job completion");
    }
    // Pull-based sampling: never schedules events, so the event-queue
    // counters in the golden hashes stay identical with tracing on/off.
    if (trace != nullptr) trace->metrics().maybe_sample(sim.now());
  }
  mr::JobResult result = chain.result();
  if (result.aborted) {
    // Copy the reason out first: argument evaluation order is unspecified,
    // so passing result.abort_reason alongside std::move(result) could bind
    // the reference to a moved-from (empty) string.
    const std::string reason = result.abort_reason;
    if (!result.lost_blocks.empty()) {
      throw mr::DataLossError(reason, std::move(result));
    }
    throw mr::JobAbortedError(reason, std::move(result));
  }
  return result;
}

std::vector<mr::JobResult> run_iterations(cluster::Cluster& cluster,
                                          const Benchmark& bench,
                                          InputScale scale,
                                          mr::Scheduler& scheduler,
                                          RunConfig config,
                                          std::uint32_t iterations) {
  FLEXMR_ASSERT(iterations > 0);
  std::vector<mr::JobResult> results;
  results.reserve(iterations);
  const std::uint64_t base_seed = config.params.seed;
  for (std::uint32_t i = 0; i < iterations; ++i) {
    config.params.seed = base_seed + 7919ull * i;
    results.push_back(run_job(cluster, bench, scale, scheduler, config));
  }
  return results;
}

mr::JobResult run_job(cluster::Cluster& cluster, const Benchmark& bench,
                      InputScale scale, SchedulerKind kind,
                      const RunConfig& config) {
  const auto scheduler = make_scheduler(kind, config.params.seed);
  auto result = run_job(cluster, bench, scale, *scheduler, config);
  result.scheduler = scheduler_label(kind);
  return result;
}

}  // namespace flexmr::workloads
