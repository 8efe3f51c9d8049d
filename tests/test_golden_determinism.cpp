// Golden-output determinism regression for the hot-path optimizations.
//
// The simulator's core property is bit-reproducibility: the event-queue
// slot table, heap compaction, SpeedMonitor extrema caching and the
// heartbeat/offer-loop rewrites must not change a single byte of the
// JobResult JSON for a fixed seed. The golden hashes (tests/
// golden_cases.hpp, shared with the profiler and erasure suites) were
// captured from the pre-optimization implementation (lazy-cancel
// unordered_map queue, scan-based SpeedMonitor, O(all-tasks) heartbeat
// scans) on the paper's 20-node virtual cluster — bursty interference there keeps
// completion re-estimation (schedule/cancel churn) and speed re-rating in
// the exercised path.
//
// To regenerate after an *intentional* output change, run with
// FLEXMR_REGEN_GOLDEN=1 in the environment: the test prints the current
// hashes and fails, and the constants in golden_cases.hpp must be updated
// by hand. Goldens assume IEEE-754 doubles and one libm (FP results feed
// the JSON); they are tied to the CI/dev toolchain, not to a particular
// machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include "obs/session.hpp"
#include "tests/golden_cases.hpp"

namespace flexmr {
namespace {

using golden::fnv1a;
using golden::GoldenCase;
using golden::golden_fault_plan;
using golden::kCases;
using golden::kFaultCases;
using golden::kOracleFaultCases;
using golden::oracle_fault_plan;
using golden::run_case;

bool regenerating() { return std::getenv("FLEXMR_REGEN_GOLDEN") != nullptr; }

/// Compares one run's hash with its pinned constant, or prints it when
/// regenerating. Returns whether it matched.
bool check_golden(const GoldenCase& c, const std::string& json) {
  const std::uint64_t hash = fnv1a(json);
  if (regenerating()) {
    std::printf("    {workloads::SchedulerKind::k..., ..., \"%s\",\n"
                "     0x%016llxull},\n",
                c.label, static_cast<unsigned long long>(hash));
    return false;
  }
  EXPECT_EQ(hash, c.expected) << c.label;
  return hash == c.expected;
}

void finish_check(bool all_match) {
  if (regenerating()) {
    FAIL() << "FLEXMR_REGEN_GOLDEN set: hashes printed above; update "
              "the golden cases and re-run without the env var";
  }
  EXPECT_TRUE(all_match);
}

void check_goldens(const GoldenCase* cases, std::size_t n,
                   const faults::FaultPlan& plan) {
  bool all_match = true;
  for (std::size_t i = 0; i < n; ++i) {
    all_match = check_golden(cases[i], run_case(cases[i], plan)) && all_match;
  }
  finish_check(all_match);
}

TEST(GoldenDeterminism, JobResultJsonMatchesPreOptimizationGolden) {
  check_goldens(kCases, std::size(kCases), faults::FaultPlan{});
}

TEST(GoldenDeterminism, FaultTimelineMatchesGolden) {
  check_goldens(kFaultCases, std::size(kFaultCases), golden_fault_plan());
}

// The oracle plan must actually reach the paths it exists to pin: launch
// failures, the disk fault, and map outputs lost to a crash detected after
// the reduce phase began (the map-phase re-open).
void expect_oracle_paths_hit(const golden::OracleFaultCase& c,
                             const mr::JobResult& result) {
  const char* label = c.golden.label;
  bool launch_failure = false;
  bool disk_fault = false;
  SimTime shuffle_crash_detected = -1;
  for (const auto& event : result.fault_events) {
    launch_failure |= event.type == faults::FaultEventType::kLaunchFailure;
    disk_fault |= event.type == faults::FaultEventType::kDiskFault;
    if (event.type == faults::FaultEventType::kDetected &&
        event.node == golden::kOracleShuffleCrashNode) {
      shuffle_crash_detected = event.time;
    }
  }
  EXPECT_TRUE(launch_failure) << label;
  EXPECT_TRUE(disk_fault) << label;
  EXPECT_DOUBLE_EQ(shuffle_crash_detected, c.shuffle_crash_at) << label;
  SimTime reduce_phase_began = result.finish_time;
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kReduce) {
      reduce_phase_began = std::min(reduce_phase_began, task.dispatch_time);
    }
  }
  EXPECT_LT(reduce_phase_began, shuffle_crash_detected) << label;
  bool lost_in_shuffle = false;
  for (const auto& task : result.tasks) {
    lost_in_shuffle |= task.status == mr::TaskStatus::kLostOutput &&
                       task.node == golden::kOracleShuffleCrashNode;
  }
  EXPECT_TRUE(lost_in_shuffle) << label;
}

TEST(GoldenDeterminism, OracleFaultTimelineMatchesGolden) {
  bool all_match = true;
  for (const auto& c : kOracleFaultCases) {
    mr::JobResult result;
    const std::string json = run_case(
        c.golden, oracle_fault_plan(c.shuffle_crash_at), nullptr, &result);
    all_match = check_golden(c.golden, json) && all_match;
    expect_oracle_paths_hit(c, result);
  }
  finish_check(all_match);
}

// The tracer observes, never perturbs: attaching a live TraceSession must
// leave every pinned hash untouched (no RNG draws, no event-queue
// changes, same sim_events_fired/cancelled/queue_peak). Covers both the
// clean and the fault-plan cases.
TEST(GoldenDeterminism, TracingOnLeavesGoldenHashesUnchanged) {
  for (const auto& c : kCases) {
    obs::TraceSession trace;
    EXPECT_EQ(fnv1a(run_case(c, faults::FaultPlan{}, &trace)), c.expected)
        << c.label << " with tracing enabled";
    EXPECT_FALSE(trace.tracer().empty()) << c.label;
    EXPECT_GT(trace.metrics().num_rows(), 0u) << c.label;
  }
  const auto plan = golden_fault_plan();
  for (const auto& c : kFaultCases) {
    obs::TraceSession trace;
    EXPECT_EQ(fnv1a(run_case(c, plan, &trace)), c.expected)
        << c.label << " with tracing enabled";
    EXPECT_GT(trace.metrics().counter_value("fault_events"), 0u) << c.label;
  }
  for (const auto& c : kOracleFaultCases) {
    obs::TraceSession trace;
    EXPECT_EQ(fnv1a(run_case(c.golden, oracle_fault_plan(c.shuffle_crash_at),
                             &trace)),
              c.golden.expected)
        << c.golden.label << " with tracing enabled";
  }
}

// The trace itself is an artifact: two identical traced runs must produce
// byte-identical flexmr.trace.v1 documents.
TEST(GoldenDeterminism, TraceDocumentIsByteStable) {
  const auto plan = golden_fault_plan();
  obs::TraceSession first;
  obs::TraceSession second;
  run_case(kFaultCases[3], plan, &first);
  run_case(kFaultCases[3], plan, &second);
  EXPECT_EQ(first.trace_json(), second.trace_json());
  EXPECT_EQ(first.metrics_csv(), second.metrics_csv());
}

// Independent of the golden constants: the same seed must give the same
// bytes on a second in-process run (fresh cluster + scheduler instances).
TEST(GoldenDeterminism, RepeatedRunsAreByteIdentical) {
  for (const auto& c : kCases) {
    EXPECT_EQ(run_case(c, faults::FaultPlan{}), run_case(c, faults::FaultPlan{}))
        << c.label;
  }
  const auto plan = golden_fault_plan();
  for (const auto& c : kFaultCases) {
    EXPECT_EQ(run_case(c, plan), run_case(c, plan)) << c.label;
  }
}

}  // namespace
}  // namespace flexmr
