// MultiJobCoordinator: concurrent jobs sharing a cluster under FIFO and
// fair arbitration.
#include <gtest/gtest.h>

#include "cluster/presets.hpp"
#include "mr/multi_job.hpp"
#include "obs/session.hpp"
#include "workloads/experiment.hpp"

namespace flexmr::mr {
namespace {

struct Fixture {
  Fixture() : cluster(cluster::presets::homogeneous6()) {}

  hdfs::FileLayout make_layout(MiB size, std::uint64_t seed) {
    auto bench = workloads::benchmark("WC");
    bench.small_input = size;
    return workloads::make_layout(bench, workloads::InputScale::kSmall,
                                  cluster.num_nodes(), 64.0, 3, seed);
  }

  JobSpec wc_spec(MiB size, double shuffle = 0.0) {
    auto bench = workloads::benchmark("WC");
    bench.small_input = size;
    bench.shuffle_ratio = shuffle;
    return workloads::to_job_spec(bench, workloads::InputScale::kSmall);
  }

  Simulator sim;
  cluster::Cluster cluster;
};

void check_exactly_once(const JobResult& result, std::size_t total_bus) {
  std::size_t credited = 0;
  for (const auto& task : result.tasks) {
    if (task.kind == TaskKind::kMap && task.credited()) {
      credited += task.num_bus;
    }
  }
  EXPECT_EQ(credited, total_bus);
}

TEST(MultiJob, TwoJobsBothCompleteWithInvariants) {
  Fixture f;
  MultiJobCoordinator coordinator(f.sim, f.cluster, SharePolicy::kFair);
  const auto layout1 = f.make_layout(1024.0, 1);
  const auto layout2 = f.make_layout(1024.0, 2);
  auto sched1 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  auto sched2 = workloads::make_scheduler(workloads::SchedulerKind::kFlexMap);
  coordinator.submit(layout1, f.wc_spec(1024.0), SimParams{}, *sched1, 0.0);
  coordinator.submit(layout2, f.wc_spec(1024.0), SimParams{}, *sched2, 0.0);
  const auto results = coordinator.run_all();
  ASSERT_EQ(results.size(), 2u);
  check_exactly_once(results[0], 128);
  check_exactly_once(results[1], 128);
}

TEST(MultiJob, FifoPrioritizesEarlierJob) {
  Fixture f;
  MultiJobCoordinator coordinator(f.sim, f.cluster, SharePolicy::kFifo);
  const auto layout1 = f.make_layout(2048.0, 1);
  const auto layout2 = f.make_layout(2048.0, 2);
  auto sched1 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  auto sched2 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  coordinator.submit(layout1, f.wc_spec(2048.0), SimParams{}, *sched1, 0.0);
  coordinator.submit(layout2, f.wc_spec(2048.0), SimParams{}, *sched2, 0.0);
  const auto results = coordinator.run_all();
  // Job 1 finishes its map phase before job 2 does (it gets first pick of
  // every container until it has nothing left to launch).
  EXPECT_LT(results[0].map_phase_end, results[1].map_phase_end);
  EXPECT_LT(results[0].finish_time, results[1].finish_time);
}

TEST(MultiJob, FairSharesSlotsBetweenConcurrentJobs) {
  Fixture f;
  MultiJobCoordinator coordinator(f.sim, f.cluster, SharePolicy::kFair);
  const auto layout1 = f.make_layout(2048.0, 1);
  const auto layout2 = f.make_layout(2048.0, 2);
  auto sched1 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  auto sched2 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  coordinator.submit(layout1, f.wc_spec(2048.0), SimParams{}, *sched1, 0.0);
  coordinator.submit(layout2, f.wc_spec(2048.0), SimParams{}, *sched2, 0.0);
  const auto results = coordinator.run_all();
  // Equal jobs under fair sharing finish at roughly the same time.
  const double ratio = results[0].finish_time / results[1].finish_time;
  EXPECT_GT(ratio, 0.75);
  EXPECT_LT(ratio, 1.33);
}

TEST(MultiJob, StaggeredSubmissionStartsAtSubmitTime) {
  Fixture f;
  MultiJobCoordinator coordinator(f.sim, f.cluster, SharePolicy::kFifo);
  const auto layout1 = f.make_layout(1024.0, 1);
  const auto layout2 = f.make_layout(1024.0, 2);
  auto sched1 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  auto sched2 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  coordinator.submit(layout1, f.wc_spec(1024.0), SimParams{}, *sched1, 0.0);
  coordinator.submit(layout2, f.wc_spec(1024.0), SimParams{}, *sched2,
                     30.0);
  const auto results = coordinator.run_all();
  EXPECT_DOUBLE_EQ(results[1].submit_time, 30.0);
  for (const auto& task : results[1].tasks) {
    EXPECT_GE(task.dispatch_time, 30.0);
  }
}

TEST(MultiJob, LateJobUsesSlotsFreedByEarlyJobsReducePhase) {
  Fixture f;
  MultiJobCoordinator coordinator(f.sim, f.cluster, SharePolicy::kFifo);
  // Job 1 is reduce-heavy: once its maps finish, few reducers occupy the
  // cluster and job 2's maps backfill the idle slots.
  const auto layout1 = f.make_layout(1024.0, 1);
  const auto layout2 = f.make_layout(1024.0, 2);
  auto sched1 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  auto sched2 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  coordinator.submit(layout1, f.wc_spec(1024.0, 1.0), SimParams{}, *sched1,
                     0.0);
  coordinator.submit(layout2, f.wc_spec(1024.0, 0.0), SimParams{}, *sched2,
                     0.0);
  const auto results = coordinator.run_all();
  // Job 2's map phase overlaps job 1's reduce phase.
  EXPECT_LT(results[1].map_phase_start, results[0].finish_time);
  check_exactly_once(results[1], 128);
  // Job 1's last reducer hands its container back to the shared RM too.
  EXPECT_EQ(coordinator.resource_manager().total_free(),
            coordinator.resource_manager().total_slots());
}

TEST(MultiJob, NodeFailureAffectsEveryJob) {
  Fixture f;
  MultiJobCoordinator coordinator(f.sim, f.cluster, SharePolicy::kFair);
  const auto layout1 = f.make_layout(2048.0, 1);
  const auto layout2 = f.make_layout(2048.0, 2);
  auto sched1 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  auto sched2 = workloads::make_scheduler(workloads::SchedulerKind::kFlexMap);
  coordinator.submit(layout1, f.wc_spec(2048.0, 0.25), SimParams{}, *sched1,
                     0.0);
  coordinator.submit(layout2, f.wc_spec(2048.0, 0.25), SimParams{}, *sched2,
                     0.0);
  coordinator.schedule_node_failure(1, 25.0);
  const auto results = coordinator.run_all();
  for (const auto& result : results) {
    check_exactly_once(result, 256);
    // Neither job dispatches anything on the dead node afterwards — and
    // no task keeps computing on it either: every job's containers there
    // die at the failure instant (a regression here means one driver
    // skipped cleanup because another had already marked the RM).
    for (const auto& task : result.tasks) {
      if (task.node != 1) continue;
      EXPECT_LT(task.dispatch_time, 25.0 + 1e-9);
      EXPECT_LE(task.end_time, 25.0 + 1e-9);
      if (task.end_time >= 25.0 - 1e-9) {
        EXPECT_EQ(task.status, mr::TaskStatus::kKilled);
      }
    }
  }
}

TEST(MultiJob, FailureBeforeLateSubmission) {
  Fixture f;
  MultiJobCoordinator coordinator(f.sim, f.cluster, SharePolicy::kFifo);
  const auto layout1 = f.make_layout(1024.0, 1);
  const auto layout2 = f.make_layout(1024.0, 2);
  auto sched1 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  auto sched2 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  coordinator.submit(layout1, f.wc_spec(1024.0), SimParams{}, *sched1, 0.0);
  // Job 2 enters after node 4 is already gone.
  coordinator.submit(layout2, f.wc_spec(1024.0), SimParams{}, *sched2,
                     20.0);
  coordinator.schedule_node_failure(4, 5.0);
  const auto results = coordinator.run_all();
  check_exactly_once(results[1], 128);
  for (const auto& task : results[1].tasks) {
    EXPECT_NE(task.node, 4u);
  }
}

TEST(MultiJob, ManyJobsFifoCompleteInOrder) {
  Fixture f;
  MultiJobCoordinator coordinator(f.sim, f.cluster, SharePolicy::kFifo);
  std::vector<hdfs::FileLayout> layouts;
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  layouts.reserve(4);
  for (std::uint64_t j = 0; j < 4; ++j) {
    layouts.push_back(f.make_layout(512.0, j + 1));
  }
  for (std::size_t j = 0; j < 4; ++j) {
    schedulers.push_back(workloads::make_scheduler(
        workloads::SchedulerKind::kHadoopNoSpec));
    coordinator.submit(layouts[j], f.wc_spec(512.0), SimParams{},
                       *schedulers[j], 0.0);
  }
  const auto results = coordinator.run_all();
  for (const auto& result : results) check_exactly_once(result, 64);
  // Adjacent jobs may swap by execution noise when everything fits in one
  // wave, but the first job strictly precedes the last: job 4 only gets
  // leftovers after three 8-map jobs claimed 24 slots.
  EXPECT_LT(results[0].map_phase_end, results[3].map_phase_end);
  EXPECT_LT(results[0].finish_time, results[3].finish_time);
}

TEST(MultiJob, FairConvergesUnderUnequalDemand) {
  Fixture f;
  MultiJobCoordinator coordinator(f.sim, f.cluster, SharePolicy::kFair);
  // Job 1 wants far more than its fair share (64 maps on 24 slots); job 2
  // only ever needs 8. Fair arbitration must give job 2 its full demand
  // while job 1 is still hungry — demand-limited max-min, not starvation.
  const auto layout1 = f.make_layout(4096.0, 1);
  const auto layout2 = f.make_layout(512.0, 2);
  auto sched1 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  auto sched2 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  coordinator.submit(layout1, f.wc_spec(4096.0), SimParams{}, *sched1, 0.0);
  coordinator.submit(layout2, f.wc_spec(512.0), SimParams{}, *sched2, 0.0);
  coordinator.start();
  bool small_job_reached_demand = false;
  while (!coordinator.all_done() && f.sim.step()) {
    if (!coordinator.driver(0).done() && !coordinator.driver(1).done() &&
        coordinator.driver(1).slots_in_use() >= 8) {
      small_job_reached_demand = true;
    }
  }
  EXPECT_TRUE(small_job_reached_demand);
  check_exactly_once(coordinator.driver(0).result(), 512);
  check_exactly_once(coordinator.driver(1).result(), 64);
}

TEST(MultiJob, SubmitWhileRunningAndSaturated) {
  Fixture f;
  MultiJobCoordinator coordinator(f.sim, f.cluster, SharePolicy::kFair);
  const auto layout1 = f.make_layout(8192.0, 1);
  const auto layout2 = f.make_layout(512.0, 2);
  auto sched1 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  auto sched2 = workloads::make_scheduler(
      workloads::SchedulerKind::kHadoopNoSpec);
  coordinator.submit(layout1, f.wc_spec(8192.0), SimParams{}, *sched1, 0.0);
  coordinator.start();

  // Step until job 1 holds every container in the cluster.
  const std::uint32_t total_slots = 6 * 4;
  while (coordinator.driver(0).slots_in_use() < total_slots) {
    ASSERT_TRUE(f.sim.step());
  }
  const SimTime submit_time = f.sim.now();

  // Incremental submission against a saturated, already-running cluster.
  coordinator.submit(layout2, f.wc_spec(512.0), SimParams{}, *sched2,
                     submit_time);
  while (!coordinator.all_done()) {
    ASSERT_TRUE(f.sim.step());
  }
  ASSERT_TRUE(coordinator.driver(1).done());
  check_exactly_once(coordinator.driver(1).result(), 64);
  for (const auto& task : coordinator.driver(1).result().tasks) {
    EXPECT_GE(task.dispatch_time, submit_time);
  }
}

// A traced batch whose jobs start after metrics sampling began (the first
// preemption pass at t=5 s emits the first rows; the jobs arrive at 10 s
// and 30 s, as in the service): the coordinator registers every driver
// instrument up front, so the late jobs find the column layout complete
// instead of tripping "register instruments before sampling starts".
TEST(MultiJob, TracedLateSubmissionKeepsTheMetricsLayout) {
  Fixture f;
  MultiJobCoordinator coordinator(f.sim, f.cluster, SharePolicy::kFair);
  PreemptionConfig preemption;
  preemption.enabled = true;
  preemption.period_s = 5.0;
  coordinator.set_preemption(preemption);
  const auto layout1 = f.make_layout(2048.0, 1);
  const auto layout2 = f.make_layout(1024.0, 2);
  auto sched1 = workloads::make_scheduler(workloads::SchedulerKind::kHadoop);
  auto sched2 = workloads::make_scheduler(workloads::SchedulerKind::kFlexMap);
  coordinator.submit(layout1, f.wc_spec(2048.0, 0.25), SimParams{}, *sched1,
                     10.0);
  coordinator.submit(layout2, f.wc_spec(1024.0, 0.25), SimParams{}, *sched2,
                     30.0);
  obs::TraceSession trace;
  coordinator.set_trace(&trace);
  const auto results = coordinator.run_all();
  ASSERT_EQ(results.size(), 2u);
  check_exactly_once(results[0], 256);
  check_exactly_once(results[1], 128);
  EXPECT_GT(trace.metrics().num_rows(), 30u);
  const std::string header =
      trace.metrics_csv().substr(0, trace.metrics_csv().find('\n'));
  for (const char* column :
       {"maps_dispatched", "degraded_reads", "parts_reconstructed",
        "preemptions", "active_jobs"}) {
    EXPECT_NE(header.find(column), std::string::npos) << column;
  }
}

TEST(MultiJob, PreemptionReclaimsFromOverShareJob) {
  Fixture f;
  MultiJobCoordinator coordinator(f.sim, f.cluster,
                                  SharePolicy::kWeightedFair);
  PreemptionConfig preemption;
  preemption.enabled = true;
  preemption.period_s = 5.0;
  preemption.over_share_factor = 1.05;
  preemption.max_kills_per_round = 4;
  coordinator.set_preemption(preemption);

  // Job 1 (weight 1, stock Hadoop) has the cluster to itself; job 2
  // (weight 3) arrives once it is saturated, so preemption must claw
  // containers back. Stock Hadoop as the victim also regression-covers
  // the partial-block re-pend path: a preempted map credits its consumed
  // prefix and the remainder must be relaunched, not orphaned.
  const auto layout1 = f.make_layout(16384.0, 1);
  const auto layout2 = f.make_layout(2048.0, 2);
  auto sched1 = workloads::make_scheduler(workloads::SchedulerKind::kHadoop);
  auto sched2 = workloads::make_scheduler(workloads::SchedulerKind::kFlexMap);
  coordinator.submit(layout1, f.wc_spec(16384.0, 0.25), SimParams{}, *sched1,
                     0.0, 1.0);
  coordinator.submit(layout2, f.wc_spec(2048.0, 0.25), SimParams{}, *sched2,
                     12.0, 3.0);
  const auto results = coordinator.run_all();
  EXPECT_GT(coordinator.preemption_kills(), 0u);
  check_exactly_once(results[0], 2048);
  check_exactly_once(results[1], 256);
}

}  // namespace
}  // namespace flexmr::mr
