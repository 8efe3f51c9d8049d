// INI front end for the cluster service: tools, benches and examples
// describe a multi-tenant scenario in a flat config file instead of code.
//
//   [group1]            # cluster node groups, as in examples/custom_cluster
//   model = rack server
//   count = 8
//   ips = 12
//   slots = 4
//
//   [service]
//   total_jobs = 100
//   max_concurrent_jobs = 4
//   policy = weighted-fair     # fifo | fair | weighted-fair
//   seed = 42
//   block_mb = 64
//   replication = 3
//
//   [preemption]
//   enabled = true
//   period_s = 30
//   over_share_factor = 1.25
//   max_kills_per_round = 2
//
//   [tenant1]                  # tenant2, tenant3, ... — at least one
//   name = analytics
//   weight = 2
//   arrivals_per_hour = 40
//   benchmarks = WC, II, TS    # PUMA codes, cycled per arrival
//   scale = small              # small | large
//   scheduler = flexmap        # hadoop | skewtune | flexmap | ...
//
//   [failures]
//   node1 = 3 @ 500            # node 3 dies at t=500s
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/config.hpp"
#include "service/service.hpp"

namespace flexmr::service {

/// Builds the cluster from [groupN] sections. Throws ConfigError when no
/// group is defined.
cluster::Cluster build_cluster(const Config& config);

/// Parses [service], [preemption], [tenantN] and [failures] sections.
ServiceConfig parse_service_config(const Config& config);

/// "hadoop" | "hadoop-nospec" | "skewtune" | "flexmap" | "flexmap-nov" |
/// "flexmap-noh" | "flexmap-norb".
workloads::SchedulerKind parse_scheduler_kind(const std::string& name);

/// [failures] nodeN = '<node> @ <seconds>' entries, N = 1, 2, ... until
/// the first gap. Throws ConfigError on a malformed entry.
std::vector<std::pair<NodeId, SimTime>> parse_node_failures(
    const Config& config);

/// "fifo" | "fair" | "weighted-fair".
mr::SharePolicy parse_share_policy(const std::string& name);

/// Built-in demo scenario: mixed 10-node cluster, three tenants with
/// unequal weights and rates, preemption on.
const char* demo_config();

}  // namespace flexmr::service
