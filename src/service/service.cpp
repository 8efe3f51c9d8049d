#include "service/service.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "obs/session.hpp"

namespace flexmr::service {

namespace {

/// Stream-splitting seed mix: one master seed, independent per-purpose
/// streams (splitmix-seeded xoshiro warmup, so nearby tags decorrelate).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed ^ (0x9e3779b97f4a7c15ULL * (tag + 1)));
  return r();
}

void validate(const ServiceConfig& config) {
  if (config.tenants.empty()) {
    throw ConfigError("service needs at least one tenant");
  }
  for (const TenantSpec& tenant : config.tenants) {
    if (tenant.name.empty()) {
      throw ConfigError("tenant name must be non-empty");
    }
    if (!(tenant.weight > 0.0)) {
      throw ConfigError("tenant " + tenant.name + ": weight must be > 0");
    }
    if (!(tenant.arrivals_per_hour > 0.0)) {
      throw ConfigError("tenant " + tenant.name +
                        ": arrivals_per_hour must be > 0");
    }
    if (tenant.benchmarks.empty()) {
      throw ConfigError("tenant " + tenant.name +
                        ": needs at least one benchmark code");
    }
    for (const std::string& code : tenant.benchmarks) {
      workloads::benchmark(code);  // Throws on unknown codes.
    }
  }
  if (config.total_jobs == 0) {
    throw ConfigError("total_jobs must be > 0");
  }
  if (config.max_concurrent_jobs == 0) {
    throw ConfigError("max_concurrent_jobs must be > 0");
  }
  if (!(config.share_sample_period_s > 0)) {
    throw ConfigError("share_sample_period_s must be > 0");
  }
  for (const auto& [job, offset] : config.am_crashes) {
    if (job >= config.total_jobs) {
      throw ConfigError("AM crash targets unknown job " +
                        std::to_string(job));
    }
    if (offset < 0) {
      throw ConfigError("AM crash offset must be non-negative");
    }
  }
  if (config.am_max_attempts == 0) {
    throw ConfigError("am_max_attempts must be > 0");
  }
  if (config.am_restart_delay_s < 0) {
    throw ConfigError("am_restart_delay_s must be non-negative");
  }
}

void write_sample_set(JsonWriter& w, const SampleSet& s) {
  w.begin_object();
  w.field("count", static_cast<std::uint64_t>(s.count()));
  if (!s.empty()) {
    w.field("mean", s.mean());
    w.field("p50", s.quantile(0.5));
    w.field("p99", s.quantile(0.99));
    w.field("max", s.max());
  }
  w.end_object();
}

}  // namespace

ClusterService::ClusterService(Simulator& sim, cluster::Cluster& cluster,
                               ServiceConfig config)
    : sim_(&sim),
      cluster_(&cluster),
      config_(std::move(config)),
      coord_(sim, cluster, config_.policy),
      tenant_running_(config_.tenants.size(), 0),
      tenant_share_samples_(config_.tenants.size()) {
  validate(config_);
  generate_arrivals();
}

void ClusterService::set_trace(obs::TraceSession* trace) {
  FLEXMR_ASSERT_MSG(!ran_, "set_trace before run");
  trace_ = trace;
}

void ClusterService::generate_arrivals() {
  // Each tenant gets an independent Poisson stream from its own seed
  // stream; the merged sequence is truncated to total_jobs in time order.
  // Everything about an arrival (time, benchmark, layout, scheduler,
  // noise seed) is fixed here, before any simulation state exists.
  struct Candidate {
    SimTime time;
    std::size_t tenant;
    std::size_t seq;  ///< Per-tenant arrival index (benchmark rotation).
  };
  std::vector<Candidate> candidates;
  candidates.reserve(config_.tenants.size() * config_.total_jobs);
  for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
    Rng rng(mix_seed(config_.params.seed, 0xA441'0000 + t));
    const double mean_gap_s = 3600.0 / config_.tenants[t].arrivals_per_hour;
    SimTime at = 0;
    for (std::size_t k = 0; k < config_.total_jobs; ++k) {
      at += rng.exponential(mean_gap_s);
      candidates.push_back({at, t, k});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.tenant != b.tenant) return a.tenant < b.tenant;
              return a.seq < b.seq;
            });
  candidates.resize(std::min(candidates.size(), config_.total_jobs));

  pending_.reserve(candidates.size());
  records_.reserve(candidates.size());
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    const Candidate& c = candidates[j];
    const TenantSpec& tenant = config_.tenants[c.tenant];
    const workloads::Benchmark& bench = workloads::benchmark(
        tenant.benchmarks[c.seq % tenant.benchmarks.size()]);

    PendingJob job;
    job.tenant = c.tenant;
    job.bench = &bench;
    job.arrival = c.time;
    job.seed = mix_seed(config_.params.seed, 0xB0B'0000 + j);
    job.layout = workloads::make_layout(
        bench, tenant.scale, cluster_->num_nodes(), config_.block_size,
        config_.replication, job.seed);
    job.scheduler = workloads::make_scheduler(tenant.scheduler, job.seed);
    pending_.push_back(std::move(job));

    JobRecord record;
    record.job = j;
    record.tenant = c.tenant;
    record.benchmark = bench.code;
    record.arrival = c.time;
    records_.push_back(std::move(record));
  }
}

void ClusterService::on_arrival(std::size_t job) {
  queue_.push_back(job);
  try_admit();
}

void ClusterService::try_admit() {
  while (active_.size() < config_.max_concurrent_jobs && !queue_.empty()) {
    // The free admission slot goes to the queued job of the tenant with
    // the least weighted running work; ties to the earliest arrival (the
    // queue is in arrival order, so the first minimum wins both ties).
    std::size_t best = 0;
    double best_key = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const std::size_t t = pending_[queue_[i]].tenant;
      const double key = static_cast<double>(tenant_running_[t]) /
                         config_.tenants[t].weight;
      if (key < best_key) {
        best_key = key;
        best = i;
      }
    }
    const std::size_t j = queue_[best];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));

    PendingJob& job = pending_[j];
    const TenantSpec& tenant = config_.tenants[job.tenant];
    records_[j].admitted = sim_->now();
    ++tenant_running_[job.tenant];
    FLEXMR_LOG(Debug, "svc") << "admitted job #" << j << " (tenant "
                             << tenant.name << ") at t=" << sim_->now()
                             << ", queue=" << queue_.size()
                             << ", active=" << active_.size() + 1;

    mr::JobSpec spec = workloads::to_job_spec(*job.bench, tenant.scale);
    spec.name += " #" + std::to_string(j) + " (" + tenant.name + ")";
    mr::SimParams params = config_.params;
    params.seed = job.seed;
    const std::size_t ci =
        coord_.submit(job.layout, std::move(spec), params, *job.scheduler,
                      sim_->now(), tenant.weight);
    // AM kills are configured as offsets from admission; the journal is
    // installed here, before the job's start event fires.
    for (const auto& [target, offset] : config_.am_crashes) {
      if (target == j) coord_.schedule_am_crash(ci, sim_->now() + offset);
    }
    active_.emplace_back(j, ci);
  }
}

void ClusterService::poll_completions() {
  bool freed = false;
  for (std::size_t i = 0; i < active_.size();) {
    const auto [j, ci] = active_[i];
    // A job in AM-restart limbo keeps its admission slot: its successor is
    // coming, and releasing the slot would over-admit past the cap.
    if (!coord_.job_finished(ci)) {
      ++i;
      continue;
    }
    const mr::JobResult result = coord_.result(ci);
    records_[j].finish = sim_->now();
    records_[j].aborted = result.aborted;
    records_[j].am_restarts = result.am_restarts;
    --tenant_running_[pending_[j].tenant];
    ++completed_;
    freed = true;
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  if (freed) {
    coord_.check_containers();
    try_admit();
  }
}

void ClusterService::sample_shares() {
  if (completed_ >= records_.size()) return;  // Stream drained: stop.
  const double total =
      static_cast<double>(coord_.resource_manager().total_slots());
  if (total > 0) {
    for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
      std::uint32_t held = 0;
      for (const auto& [j, ci] : active_) {
        if (pending_[j].tenant == t) held += coord_.driver(ci).slots_in_use();
      }
      tenant_share_samples_[t].add(static_cast<double>(held) / total);
    }
  }
  sim_->schedule_after(config_.share_sample_period_s,
                       [this]() { sample_shares(); });
}

ServiceResult ClusterService::run() {
  FLEXMR_ASSERT_MSG(!ran_, "run is one-shot");
  ran_ = true;

  for (const auto& [node, time] : config_.node_failures) {
    coord_.schedule_node_failure(node, time);
  }
  if (!config_.am_crashes.empty()) {
    coord_.set_am_recovery({config_.am_max_attempts,
                            config_.am_restart_delay_s});
  }
  coord_.set_preemption(config_.preemption);
  if (trace_ != nullptr) coord_.set_trace(trace_);
  coord_.start();

  for (std::size_t j = 0; j < pending_.size(); ++j) {
    sim_->schedule_at(pending_[j].arrival, [this, j]() { on_arrival(j); });
  }
  sim_->schedule_after(config_.share_sample_period_s,
                       [this]() { sample_shares(); });

  while (completed_ < pending_.size()) {
    if (!sim_->step()) {
      throw InvariantError("service ran dry with unfinished jobs");
    }
    if (trace_ != nullptr) trace_->metrics().maybe_sample(sim_->now());
    poll_completions();
  }
  if (trace_ != nullptr) trace_->metrics().sample_now(sim_->now());

  ServiceResult out;
  out.policy = mr::to_string(config_.policy);
  out.seed = config_.params.seed;
  out.total_jobs = records_.size();
  out.preemption_kills = coord_.preemption_kills();
  out.tenants.reserve(config_.tenants.size());
  for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
    TenantStats stats;
    stats.name = config_.tenants[t].name;
    stats.weight = config_.tenants[t].weight;
    stats.slot_share = tenant_share_samples_[t];
    out.tenants.push_back(std::move(stats));
  }
  for (const JobRecord& record : records_) {
    TenantStats& stats = out.tenants[record.tenant];
    out.makespan = std::max(out.makespan, record.finish);
    out.am_restarts += record.am_restarts;
    if (record.aborted) {
      ++stats.jobs_aborted;
    } else {
      ++stats.jobs_completed;
      stats.jct.add(record.jct());
    }
    stats.queue_delay.add(record.queue_delay());
  }
  // Jain's index over mean slot shares: (Σx)² / (n·Σx²).
  double sum = 0, sum_sq = 0;
  for (const TenantStats& stats : out.tenants) {
    const double x = stats.slot_share.empty() ? 0.0 : stats.slot_share.mean();
    sum += x;
    sum_sq += x * x;
  }
  out.fairness_index =
      sum_sq > 0 ? (sum * sum) / (static_cast<double>(out.tenants.size()) *
                                  sum_sq)
                 : 1.0;
  out.jobs = records_;
  return out;
}

std::string ServiceResult::json() const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "flexmr.service.v1");
  w.field("policy", policy);
  w.field("seed", seed);
  w.field("total_jobs", static_cast<std::uint64_t>(total_jobs));
  w.field("makespan_s", makespan);
  w.field("preemption_kills", preemption_kills);
  // Gated on non-zero so crash-free documents (and their pinned golden
  // hashes) stay byte-identical to builds without AM recovery.
  if (am_restarts > 0) w.field("am_restarts", am_restarts);
  w.field("fairness_index", fairness_index);
  w.key("tenants").begin_array();
  for (const TenantStats& stats : tenants) {
    w.begin_object();
    w.field("name", stats.name);
    w.field("weight", stats.weight);
    w.field("jobs_completed", static_cast<std::uint64_t>(stats.jobs_completed));
    w.field("jobs_aborted", static_cast<std::uint64_t>(stats.jobs_aborted));
    w.key("jct_s");
    write_sample_set(w, stats.jct);
    w.key("queue_delay_s");
    write_sample_set(w, stats.queue_delay);
    w.key("slot_share");
    write_sample_set(w, stats.slot_share);
    w.end_object();
  }
  w.end_array();
  w.key("jobs").begin_array();
  for (const JobRecord& record : jobs) {
    w.begin_object();
    w.field("id", static_cast<std::uint64_t>(record.job));
    w.field("tenant", static_cast<std::uint64_t>(record.tenant));
    w.field("benchmark", record.benchmark);
    w.field("arrival_s", record.arrival);
    w.field("admitted_s", record.admitted);
    w.field("finish_s", record.finish);
    w.field("jct_s", record.jct());
    w.field("queue_delay_s", record.queue_delay());
    w.field("aborted", record.aborted);
    if (record.am_restarts > 0) {
      w.field("am_restarts", static_cast<std::uint64_t>(record.am_restarts));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace flexmr::service
