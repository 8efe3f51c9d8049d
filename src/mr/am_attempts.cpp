#include "mr/am_attempts.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "common/error.hpp"

namespace flexmr::mr {

namespace {
/// Trace-token spacing between AM attempts: each attempt numbers its tasks
/// from 0 again (reduce tokens at 1'000'000), so successors record under
/// disjoint token ranges (room for 10 attempts inside one service job's
/// kServiceTokenStride-wide window).
constexpr std::uint64_t kAttemptTokenStride = 10'000'000ULL;

/// Stitches the attempts (oldest first) into one result: the last
/// attempt's result with every attempt's task records and fault events in
/// order, attempt 1's submit and map-phase start, the attempt records and
/// their redone work. A map a successor replayed and then lost is
/// relabeled in the attempt that ran it, so every BU stays credited
/// exactly once.
JobResult merge_attempts(
    const std::vector<std::unique_ptr<JobDriver>>& attempts,
    const std::vector<AmAttemptRecord>& records) {
  JobResult merged = attempts.back()->result();
  if (attempts.size() > 1) {
    // Attempts are disjoint in time and internally chronological, so
    // concatenation preserves order. `begin[i]` is where attempt i+1's
    // task records start in the merged list.
    std::vector<TaskRecord> tasks;
    std::vector<faults::FaultEvent> events;
    std::vector<std::size_t> begin;
    for (const auto& attempt : attempts) {
      const JobResult& r = attempt->result();
      begin.push_back(tasks.size());
      tasks.insert(tasks.end(), r.tasks.begin(), r.tasks.end());
      events.insert(events.end(), r.fault_events.begin(),
                    r.fault_events.end());
    }
    begin.push_back(tasks.size());
    for (const auto& attempt : attempts) {
      for (const recover::MapOrigin& origin : attempt->lost_replayed_maps()) {
        FLEXMR_ASSERT(origin.attempt >= 1 && origin.attempt < begin.size());
        const std::size_t from = begin[origin.attempt - 1];
        relabel_lost_output(
            std::span(tasks).subspan(from, begin[origin.attempt] - from),
            origin.task);
      }
    }
    merged.tasks = std::move(tasks);
    merged.fault_events = std::move(events);
    // The job began when attempt 1 did; AM downtime counts against JCT.
    const JobResult& first = attempts.front()->result();
    merged.submit_time = first.submit_time;
    merged.map_phase_start = first.map_phase_start;
    for (const auto& attempt : attempts) {
      merged.map_phase_end =
          std::max(merged.map_phase_end, attempt->result().map_phase_end);
    }
  }
  merged.am_attempts = records;
  merged.redone_work_mib = 0;
  merged.redone_work_units = 0;
  for (const AmAttemptRecord& rec : records) {
    merged.redone_work_mib += rec.wasted_mib;
    merged.redone_work_units += rec.wasted_units;
  }
  return merged;
}
}  // namespace

AmAttempts::AmAttempts(Simulator& sim, cluster::Cluster& cluster,
                       const hdfs::FileLayout& layout, JobSpec job,
                       SimParams params, Scheduler& scheduler,
                       yarn::ResourceManager* shared_rm)
    : sim_(&sim),
      cluster_(&cluster),
      scheduler_(&scheduler),
      owns_rm_(shared_rm == nullptr) {
  attempts_.push_back(std::make_unique<JobDriver>(
      sim, cluster, layout, std::move(job), params, scheduler, shared_rm));
  if (owns_rm_) {
    // YARN outlives the application attempt: the RM keeps offering to
    // whichever attempt is registered now.
    attempts_.front()->resource_manager().set_offer_handler(
        [this](NodeId node) { return live_->offer(node); });
  }
  live_ = attempts_.front().get();
}

void AmAttempts::enable_recovery(AmRecoveryConfig budget) {
  // The journal must be writing from the job's first commit on.
  FLEXMR_ASSERT_MSG(!live_->started(), "enable_recovery before start()");
  budget_ = budget;
  journal_.emplace();
  live_->set_journal(&*journal_);
}

void AmAttempts::set_trace(obs::TraceSession* trace, TraceNamespace ns) {
  trace_ = trace;
  trace_ns_ = ns;
  live_->set_trace(trace, std::move(ns));
  if (trace != nullptr && owns_rm_) {
    JobDriver::register_gauges(*trace, &live_);
  }
}

void AmAttempts::crash() {
  if (!live_->started() || live_->done()) return;
  live_->crash_am();
  records_.push_back(live_->result().am_attempts.back());
  if (live_->am_attempt() >= budget_.max_attempts) {
    // crash_am leaves no finish_time and no abort record: the chain is the
    // authority that declares the job dead.
    aborted_ = true;
    abort_time_ = sim_->now();
    abort_counters_ = sim_->counters();
    return;
  }
  recovering_ = true;
  sim_->schedule_after(budget_.restart_delay_s, [this]() { restart(); });
}

void AmAttempts::restart() {
  AmRecoveryBaton baton = live_->release_recovery();
  records_.back().restart_time = sim_->now();
  records_.back().replayed_units =
      static_cast<std::uint64_t>(baton.recovered.replayed_units());

  // Every successor allocates from the surviving RM.
  auto next = std::make_unique<JobDriver>(
      *sim_, *cluster_, live_->layout(), live_->job(), live_->params(),
      *scheduler_, &attempts_.front()->resource_manager());
  const std::uint32_t attempt_no = baton.next_attempt;
  next->adopt_recovery(std::move(baton));
  if (trace_ != nullptr) {
    TraceNamespace ns = trace_ns_;
    ns.token_base += kAttemptTokenStride * (attempt_no - 1);
    next->set_trace(trace_, std::move(ns));
  }
  live_ = next.get();
  attempts_.push_back(std::move(next));
  recovering_ = false;
  // RM-dead nodes need no re-notification: restore_from_journal reconciles
  // every one of them during start().
  live_->start();
  if (restart_hook_) restart_hook_();
}

JobResult AmAttempts::result() const {
  if (attempts_.size() == 1 && !aborted_) return live_->result();
  JobResult merged = merge_attempts(attempts_, records_);
  if (aborted_) {
    merged.aborted = true;
    merged.abort_reason = "AM crashed on attempt " +
                          std::to_string(live_->am_attempt()) + " of " +
                          std::to_string(budget_.max_attempts) +
                          " (am_max_attempts exhausted)";
    faults::FaultEvent ev;
    ev.time = abort_time_;
    ev.type = faults::FaultEventType::kAbort;
    ev.attempts = live_->am_attempt();
    merged.fault_events.push_back(ev);
    merged.sim_events_fired = abort_counters_.fired;
    merged.sim_events_cancelled = abort_counters_.cancelled;
    merged.sim_queue_peak = abort_counters_.queue_peak;
  }
  return merged;
}

}  // namespace flexmr::mr
