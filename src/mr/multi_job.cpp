#include "mr/multi_job.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace flexmr::mr {

const char* to_string(SharePolicy policy) {
  switch (policy) {
    case SharePolicy::kFifo:
      return "fifo";
    case SharePolicy::kFair:
      return "fair";
    case SharePolicy::kWeightedFair:
      return "weighted-fair";
  }
  return "unknown";
}

MultiJobCoordinator::MultiJobCoordinator(Simulator& sim,
                                         cluster::Cluster& cluster,
                                         SharePolicy policy)
    : sim_(&sim),
      cluster_(&cluster),
      policy_(policy),
      rm_(cluster),
      rng_(0x5eedc0ffee123ULL) {}

std::size_t MultiJobCoordinator::submit(const hdfs::FileLayout& layout,
                                        JobSpec spec, SimParams params,
                                        Scheduler& scheduler,
                                        SimTime submit_time, double weight) {
  if (!(weight > 0.0)) {
    throw ConfigError("job weight must be positive");
  }
  Entry entry;
  entry.attempts = std::make_unique<AmAttempts>(
      *sim_, *cluster_, layout, std::move(spec), params, scheduler, &rm_);
  entry.submit_time = submit_time;
  entry.weight = weight;
  jobs_.push_back(std::move(entry));
  const std::size_t j = jobs_.size() - 1;
  if (started_) {
    // Submit-while-running: the cluster is live, so register the job's
    // start directly (a submit time already in the past starts it now).
    sim_->schedule_at(std::max(submit_time, sim_->now()),
                      [this, j]() { start_job(j); });
  }
  return j;
}

void MultiJobCoordinator::schedule_node_failure(NodeId node, SimTime time) {
  FLEXMR_ASSERT_MSG(!started_, "schedule failures before start");
  if (node >= cluster_->num_nodes()) {
    throw ConfigError("failure injected on unknown node " +
                      std::to_string(node));
  }
  if (time < 0) {
    throw ConfigError("failure time must be non-negative");
  }
  failures_.emplace_back(node, time);
}

void MultiJobCoordinator::set_am_recovery(AmRecoveryConfig config) {
  FLEXMR_ASSERT_MSG(!started_, "set_am_recovery before start");
  FLEXMR_ASSERT_MSG(std::none_of(jobs_.begin(), jobs_.end(),
                                 [](const Entry& e) {
                                   return e.attempts->recoverable();
                                 }),
                    "set_am_recovery before schedule_am_crash");
  if (config.max_attempts == 0) {
    throw ConfigError("AM max_attempts must be > 0");
  }
  if (!(config.restart_delay_s >= 0)) {
    throw ConfigError("AM restart delay must be non-negative");
  }
  am_recovery_ = config;
}

void MultiJobCoordinator::schedule_am_crash(std::size_t job, SimTime time) {
  if (job >= jobs_.size()) {
    throw ConfigError("AM crash scheduled for unknown job " +
                      std::to_string(job));
  }
  if (time < 0) {
    throw ConfigError("AM crash time must be non-negative");
  }
  AmAttempts& chain = *jobs_[job].attempts;
  if (!chain.recoverable()) chain.enable_recovery(am_recovery_);
  if (started_) {
    sim_->schedule_at(std::max(time, sim_->now()),
                      [&chain]() { chain.crash(); });
  } else {
    am_crashes_.emplace_back(job, time);
  }
}

void MultiJobCoordinator::set_trace(obs::TraceSession* trace) {
  FLEXMR_ASSERT_MSG(!started_, "set_trace before start");
  trace_ = trace;
}

void MultiJobCoordinator::set_preemption(PreemptionConfig config) {
  FLEXMR_ASSERT_MSG(!started_, "set_preemption before start");
  if (config.enabled) {
    if (!(config.period_s > 0)) {
      throw ConfigError("preemption period must be positive");
    }
    if (config.over_share_factor < 1.0) {
      throw ConfigError("over_share_factor must be >= 1");
    }
  }
  preemption_ = config;
}

void MultiJobCoordinator::start() {
  FLEXMR_ASSERT_MSG(!started_, "start is one-shot");
  started_ = true;

  cluster_->start(*sim_, rng_);
  rm_.set_offer_handler([this](NodeId node) { return handle_offer(node); });
  rm_.set_preemption_handler(
      [this](std::uint32_t want) { return handle_preemption(want); });
  trace_setup();

  for (const auto& [node, time] : failures_) {
    sim_->schedule_at(time, [this, node]() { on_node_failure(node); });
  }
  for (const auto& [job, time] : am_crashes_) {
    AmAttempts& chain = *jobs_[job].attempts;
    sim_->schedule_at(time, [&chain]() { chain.crash(); });
  }
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    sim_->schedule_at(jobs_[j].submit_time, [this, j]() { start_job(j); });
  }
  if (preemption_.enabled) {
    sim_->schedule_after(preemption_.period_s,
                         [this]() { preemption_pass(); });
  }
}

void MultiJobCoordinator::start_job(std::size_t j) {
  AmAttempts& chain = *jobs_[j].attempts;
  FLEXMR_ASSERT(!chain.live().started());
  if (trace_ != nullptr) {
    // Gauges are service-level and live on the coordinator (trace_setup).
    TraceNamespace ns;
    ns.job_pid = obs::service_job_pid(j);
    ns.token_base = static_cast<std::uint64_t>(j) * obs::kServiceTokenStride;
    ns.label = "job " + std::to_string(j) + ": " + chain.live().job().name;
    chain.set_trace(trace_, std::move(ns));
  }
  chain.live().start();
  // A job admitted after a crash still has the dead node in its static
  // layout; inform it before any offer can try to place work there.
  for (const NodeId node : dead_nodes_) {
    chain.live().notify_node_failure(node);
  }
}

bool MultiJobCoordinator::handle_offer(NodeId node) {
  // Candidate jobs: started, unfinished — ordered by policy.
  std::vector<std::size_t> order;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (running(j)) order.push_back(j);
  }
  if (policy_ == SharePolicy::kFair) {
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return driver(a).slots_in_use() <
                              driver(b).slots_in_use();
                     });
  } else if (policy_ == SharePolicy::kWeightedFair) {
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return weighted_usage(a) < weighted_usage(b);
                     });
  }
  for (const std::size_t j : order) {
    if (driver(j).offer(node)) return true;
  }
  return false;
}

double MultiJobCoordinator::weighted_usage(std::size_t j) const {
  return static_cast<double>(driver(j).slots_in_use()) / jobs_[j].weight;
}

void MultiJobCoordinator::on_node_failure(NodeId node) {
  // Cluster-level, exactly once: repeated injections (or overlapping
  // schedules) of the same node are collapsed here, not forwarded N times.
  if (dead_nodes_.count(node) > 0) return;
  dead_nodes_.insert(node);
  if (!rm_.is_dead(node)) rm_.mark_dead(node);
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (running(j)) driver(j).notify_node_failure(node);
  }
  // One deferred re-offer for the whole cluster (drivers suppress theirs):
  // survivors pick up the reclaimed work in policy order.
  sim_->schedule_after(0.0, [this]() { rm_.offer_all(); });
}

void MultiJobCoordinator::preemption_pass() {
  // Weighted fair share of each active job; a job under its share with
  // work still pending files a demand, and the RM claws containers back
  // from whoever is furthest over share.
  std::vector<std::size_t> active;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (running(j)) active.push_back(j);
  }
  if (active.size() >= 2) {
    double sum_w = 0.0;
    for (const std::size_t j : active) sum_w += jobs_[j].weight;
    const double total = static_cast<double>(rm_.total_slots());
    std::uint32_t deficit = 0;
    for (const std::size_t j : active) {
      const JobDriver& d = driver(j);
      const bool demand =
          d.unassigned_bus() > 0 || d.next_reducer_input() > 0;
      if (!demand) continue;
      const double share = total * jobs_[j].weight / sum_w;
      const double gap = std::floor(share) -
                         static_cast<double>(d.slots_in_use());
      if (gap > 0) deficit += static_cast<std::uint32_t>(gap);
    }
    if (deficit > 0) {
      rm_.preempt(std::min(deficit, preemption_.max_kills_per_round));
    }
  }
  sim_->schedule_after(preemption_.period_s, [this]() { preemption_pass(); });
}

std::uint32_t MultiJobCoordinator::handle_preemption(std::uint32_t want) {
  std::vector<std::size_t> active;
  double sum_w = 0.0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (running(j)) {
      active.push_back(j);
      sum_w += jobs_[j].weight;
    }
  }
  if (active.size() < 2 || sum_w <= 0.0) return 0;
  // Most-over-share victims first.
  std::stable_sort(active.begin(), active.end(),
                   [this](std::size_t a, std::size_t b) {
                     return weighted_usage(a) > weighted_usage(b);
                   });
  const double total = static_cast<double>(rm_.total_slots());
  std::uint32_t reclaimed = 0;
  for (const std::size_t j : active) {
    if (reclaimed >= want) break;
    JobDriver& d = driver(j);
    const double share = total * jobs_[j].weight / sum_w;
    const double limit = share * preemption_.over_share_factor;
    while (reclaimed < want &&
           static_cast<double>(d.slots_in_use()) > limit) {
      if (!d.preempt_one_map()) break;  // Only reducers left: exempt.
      ++reclaimed;
      ++preemption_kills_;
      if (ctr_preemptions_ != nullptr) ctr_preemptions_->inc();
    }
  }
  return reclaimed;
}

void MultiJobCoordinator::trace_setup() {
  if (trace_ == nullptr) return;
  obs::EventTracer& tracer = trace_->tracer();
  tracer.set_clock([this]() { return sim_->now(); });
  if (!failures_.empty()) {
    // Drivers only name the fault track when they own an injector; the
    // coordinator's centralized crashes still record there.
    tracer.set_process_name(obs::kFaultsPid, "fault injector");
    tracer.set_thread_name(obs::kFaultsPid, 0, "ground truth");
  }

  // The metrics column layout freezes at the first sampled row, but jobs
  // register their instruments only when they start — possibly long after
  // sampling began — so every driver instrument is registered here first.
  auto& metrics = trace_->metrics();
  JobInstruments::register_in(metrics);
  ctr_preemptions_ = &metrics.counter("preemptions");

  // Service-level gauges, registered once (gauges do not dedupe). The
  // coordinator must outlive every sample taken from the session.
  register_rm_gauges(metrics, rm_);
  metrics.register_gauge("active_jobs", [this]() {
    std::size_t count = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (running(j)) ++count;
    }
    return static_cast<double>(count);
  });
}

void MultiJobCoordinator::check_containers() const {
  std::uint32_t held = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    held += driver(j).slots_in_use() - driver(j).slots_on_dead_nodes();
  }
  if (rm_.total_free() + held != rm_.total_slots()) {
    throw InvariantError(
        "containers not conserved: " + std::to_string(rm_.total_free()) +
        " free + " + std::to_string(held) + " held != " +
        std::to_string(rm_.total_slots()) + " alive slots");
  }
}

std::size_t MultiJobCoordinator::finished_jobs() const {
  std::size_t finished = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (job_finished(j)) ++finished;
  }
  return finished;
}

std::vector<JobResult> MultiJobCoordinator::run_all() {
  FLEXMR_ASSERT_MSG(!ran_ && !started_, "run_all is one-shot");
  FLEXMR_ASSERT_MSG(!jobs_.empty(), "no jobs submitted");
  ran_ = true;

  start();
  for (std::size_t finished = 0; finished < jobs_.size();) {
    if (!sim_->step()) {
      throw InvariantError("simulation ran dry with unfinished jobs");
    }
    if (trace_ != nullptr) trace_->metrics().maybe_sample(sim_->now());
    const std::size_t now_finished = finished_jobs();
    if (now_finished != finished) check_containers();
    finished = now_finished;
  }
  if (trace_ != nullptr) trace_->metrics().sample_now(sim_->now());

  std::vector<JobResult> results;
  results.reserve(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    results.push_back(result(j));
  }
  return results;
}

}  // namespace flexmr::mr
