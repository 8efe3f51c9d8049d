// AmAttempts — one job's chain of MRAppMaster attempts.
//
// YARN restarts a dead ApplicationMaster as a new attempt, up to
// am.max-attempts, and the successor resumes from the job journal instead
// of starting over (DESIGN.md §12). This chain is the one place that plays
// YARN's part, for single-job runs (workloads::run_job) and for every job
// of a MultiJobCoordinator alike:
//
//   * attempt 1 is built with the chain: the single-job driver that owns
//     the RM (and arms cluster interference), or a shared-RM driver when a
//     coordinator owns the RM,
//   * crash() kills the live attempt. A crash on attempt `max_attempts`
//     aborts the job; otherwise, after `restart_delay_s`, the crashed
//     attempt's baton (fault plan, armed injector, NameNode view, journal
//     replay) moves into a fresh shared-RM driver that re-registers with
//     the surviving RM and replays the journal, re-running only
//     uncommitted work,
//   * result() is the live attempt's result with every earlier attempt's
//     task records and fault events stitched in chronologically and the
//     per-attempt crash/replay timeline attached. JCT spans first submit
//     to final finish, so AM downtime counts against the job.
//
// When crashes happen is the caller's business (fixed times, MTTF draws,
// service offsets). Crashed attempts stay alive until the chain is
// destroyed: their pending simulator events capture `this` and are
// done()-gated, and attempt 1 owns the single-job ResourceManager every
// successor allocates from.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "mr/driver.hpp"

namespace flexmr::mr {

/// The AM restart budget (YARN's yarn.resourcemanager.am.max-attempts and
/// the container re-allocation delay).
struct AmRecoveryConfig {
  /// A crash on this attempt aborts the job.
  std::uint32_t max_attempts = 2;
  /// Downtime between an AM death and its successor's registration.
  SimDuration restart_delay_s = 10.0;
};

class AmAttempts {
 public:
  /// Builds attempt 1. Without `shared_rm` it is the single-job driver: it
  /// owns an RM over the whole cluster, whose offers the chain routes to
  /// the live attempt. With `shared_rm` the RM's offers belong to the
  /// caller, which hands them to live(). `layout` and `scheduler` must
  /// outlive the chain.
  AmAttempts(Simulator& sim, cluster::Cluster& cluster,
             const hdfs::FileLayout& layout, JobSpec job, SimParams params,
             Scheduler& scheduler, yarn::ResourceManager* shared_rm = nullptr);
  AmAttempts(const AmAttempts&) = delete;
  AmAttempts& operator=(const AmAttempts&) = delete;

  /// Makes the AM killable: installs the job journal on attempt 1 and sets
  /// the restart budget. Before start().
  void enable_recovery(AmRecoveryConfig budget);
  bool recoverable() const { return journal_.has_value(); }

  /// Records attempt 1 into `trace` under `ns`; each successor records
  /// under the same namespace with its task tokens shifted by 1e7 per
  /// attempt. A single-job chain also registers the job gauges, which read
  /// the live attempt. Before start().
  void set_trace(obs::TraceSession* trace, TraceNamespace ns = {});

  /// Runs right after each successor attempt starts.
  void set_restart_hook(std::function<void()> hook) {
    restart_hook_ = std::move(hook);
  }

  /// Kills the live attempt; inert unless it is running (not yet started,
  /// finished, aborted, or already down). Aborts the job when the budget
  /// is spent, else schedules the successor.
  void crash();

  JobDriver& live() { return *live_; }
  const JobDriver& live() const { return *live_; }
  /// Crashed, and the successor has not started yet: live() reads done(),
  /// but the job is NOT finished.
  bool recovering() const { return recovering_; }
  /// The AM crashed with no attempts left.
  bool aborted() const { return aborted_; }
  /// Finished: the live attempt is done and no successor is coming.
  bool done() const { return live_->done() && !recovering_; }

  /// AM attempts constructed so far (1 in a crash-free run).
  std::uint32_t attempts_started() const {
    return static_cast<std::uint32_t>(attempts_.size());
  }
  /// The journal every attempt shares. Requires enable_recovery().
  const recover::JobJournal& journal() const { return *journal_; }

  /// The job's result: exactly live().result() for one attempt that was
  /// not aborted, else the merged cross-attempt timeline, with the abort
  /// reason and a kAbort event when the budget ran out.
  JobResult result() const;

 private:
  /// Builds the successor from the crashed attempt's baton and starts it.
  void restart();

  Simulator* sim_;
  cluster::Cluster* cluster_;
  Scheduler* scheduler_;
  /// Attempt 1 is the single-job driver that owns the RM.
  bool owns_rm_;
  /// Declared before the attempts, which append to it.
  std::optional<recover::JobJournal> journal_;
  /// Every attempt ever started, in order; live_ is back().
  std::vector<std::unique_ptr<JobDriver>> attempts_;
  JobDriver* live_ = nullptr;
  AmRecoveryConfig budget_;
  /// Crash/replay records across attempts (restart_time and
  /// replayed_units are filled in when the successor is built).
  std::vector<AmAttemptRecord> records_;
  obs::TraceSession* trace_ = nullptr;
  TraceNamespace trace_ns_;
  std::function<void()> restart_hook_;
  bool recovering_ = false;
  bool aborted_ = false;
  /// When the budget ran out, and the simulator's counters then.
  SimTime abort_time_ = 0;
  SimCounters abort_counters_;
};

}  // namespace flexmr::mr
