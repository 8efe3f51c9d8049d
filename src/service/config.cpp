#include "service/config.hpp"

#include <cctype>

#include "common/error.hpp"

namespace flexmr::service {

namespace {

/// Splits "WC, II, TS" into trimmed tokens.
std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    std::size_t lo = pos, hi = comma;
    while (lo < hi && std::isspace(static_cast<unsigned char>(value[lo]))) {
      ++lo;
    }
    while (hi > lo &&
           std::isspace(static_cast<unsigned char>(value[hi - 1]))) {
      --hi;
    }
    if (hi > lo) out.push_back(value.substr(lo, hi - lo));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

cluster::Cluster build_cluster(const Config& config) {
  cluster::ClusterBuilder builder;
  bool any = false;
  for (int g = 1;; ++g) {
    const std::string section = "group" + std::to_string(g);
    if (!config.has(section + ".count")) break;
    any = true;
    cluster::MachineSpec spec;
    spec.model = config.get_string(section + ".model", section);
    spec.base_ips = config.require_double(section + ".ips");
    spec.slots = config.get_count(section + ".slots", 4);
    const double slowdown = config.get_double(section + ".slowdown", 1.0);
    builder.add(spec, config.get_count(section + ".count", 0),
                slowdown < 1.0 ? cluster::static_slowdown(slowdown)
                               : cluster::no_interference());
  }
  if (!any) {
    throw ConfigError("config defines no [groupN] cluster sections");
  }
  return builder.build();
}

workloads::SchedulerKind parse_scheduler_kind(const std::string& name) {
  using workloads::SchedulerKind;
  if (name == "hadoop") return SchedulerKind::kHadoop;
  if (name == "hadoop-nospec") return SchedulerKind::kHadoopNoSpec;
  if (name == "skewtune") return SchedulerKind::kSkewTune;
  if (name == "flexmap") return SchedulerKind::kFlexMap;
  if (name == "flexmap-nov") return SchedulerKind::kFlexMapNoVertical;
  if (name == "flexmap-noh") return SchedulerKind::kFlexMapNoHorizontal;
  if (name == "flexmap-norb") return SchedulerKind::kFlexMapNoReduceBias;
  throw ConfigError("unknown scheduler: " + name);
}

std::vector<std::pair<NodeId, SimTime>> parse_node_failures(
    const Config& config) {
  std::vector<std::pair<NodeId, SimTime>> failures;
  for (int i = 1;; ++i) {
    const auto spec = config.get_id_at("failures.node" + std::to_string(i));
    if (!spec) break;
    failures.emplace_back(spec->first, spec->second);
  }
  return failures;
}

mr::SharePolicy parse_share_policy(const std::string& name) {
  if (name == "fifo") return mr::SharePolicy::kFifo;
  if (name == "fair") return mr::SharePolicy::kFair;
  if (name == "weighted-fair") return mr::SharePolicy::kWeightedFair;
  throw ConfigError("unknown share policy: " + name);
}

ServiceConfig parse_service_config(const Config& config) {
  ServiceConfig out;
  out.total_jobs = config.get_count("service.total_jobs", 100);
  out.max_concurrent_jobs = config.get_count("service.max_concurrent_jobs", 4);
  out.policy = parse_share_policy(
      config.get_string("service.policy", "weighted-fair"));
  out.block_size = config.get_double("service.block_mb", kDefaultBlockMiB);
  out.replication = config.get_count("service.replication", 3);
  out.params.seed =
      static_cast<std::uint64_t>(config.get_int("service.seed", 42));
  out.share_sample_period_s =
      config.get_double("service.share_sample_period_s", 30.0);

  out.preemption.enabled = config.get_bool("preemption.enabled", false);
  out.preemption.period_s = config.get_double("preemption.period_s", 30.0);
  out.preemption.over_share_factor =
      config.get_double("preemption.over_share_factor", 1.25);
  out.preemption.max_kills_per_round =
      config.get_count("preemption.max_kills_per_round", 2);

  for (int t = 1;; ++t) {
    const std::string section = "tenant" + std::to_string(t);
    if (!config.has(section + ".name")) break;
    TenantSpec tenant;
    tenant.name = config.require_string(section + ".name");
    tenant.weight = config.get_double(section + ".weight", 1.0);
    tenant.arrivals_per_hour =
        config.get_double(section + ".arrivals_per_hour", 30.0);
    tenant.benchmarks =
        split_csv(config.get_string(section + ".benchmarks", "WC"));
    const std::string scale = config.get_string(section + ".scale", "small");
    if (scale == "small") {
      tenant.scale = workloads::InputScale::kSmall;
    } else if (scale == "large") {
      tenant.scale = workloads::InputScale::kLarge;
    } else {
      throw ConfigError("tenant scale must be small or large: " + scale);
    }
    tenant.scheduler = parse_scheduler_kind(
        config.get_string(section + ".scheduler", "flexmap"));
    out.tenants.push_back(std::move(tenant));
  }

  out.node_failures = parse_node_failures(config);

  // [am] — AM-crash injection: crashN = '<job> @ <seconds after admission>'.
  out.am_max_attempts = config.get_count("am.max_attempts", 2);
  out.am_restart_delay_s = config.get_double("am.restart_delay_s", 10.0);
  for (int i = 1;; ++i) {
    const auto spec = config.get_id_at("am.crash" + std::to_string(i));
    if (!spec) break;
    out.am_crashes.emplace_back(spec->first, spec->second);
  }
  return out;
}

const char* demo_config() {
  return R"(
# Built-in demo: mixed 10-node cluster, three tenants, preemption on.
[group1]
model = rack server
count = 6
ips = 12
slots = 4

[group2]
model = legacy box
count = 4
ips = 6
slots = 4

[service]
total_jobs = 24
max_concurrent_jobs = 4
policy = weighted-fair
seed = 42

[preemption]
enabled = true
period_s = 30

[tenant1]
name = analytics
weight = 2
arrivals_per_hour = 60
benchmarks = WC, II
scheduler = flexmap

[tenant2]
name = reporting
weight = 1
arrivals_per_hour = 40
benchmarks = GR, HR
scheduler = flexmap

[tenant3]
name = batch
weight = 1
arrivals_per_hour = 20
benchmarks = TS
scheduler = hadoop
)";
}

}  // namespace flexmr::service
