// Scenario: describe an experiment in an INI file instead of C++.
//
//   ./build/examples/custom_cluster examples/cluster.ini
//
// The file declares machine groups, a workload, a scheduler, optional
// node failures, and output options; this program builds it all through
// the public API and runs it. With no argument it uses a built-in demo
// config. Supported keys (see examples/cluster.ini for a walkthrough):
//
//   [groupN]  model, count, ips, slots, slowdown
//   [job]     benchmark (PUMA code), input_gib, block_mb, repeats
//   [run]     seed, scheduler (hadoop | hadoop-nospec | skewtune |
//             flexmap | flexmap-nov | flexmap-noh | flexmap-norb),
//             gantt (bool), csv (bool)
//   [failures] nodeN = <node_id> @ <time_s>      (e.g. node1 = 3 @ 25)
#include <cstdio>
#include <optional>
#include <string>

#include "cluster/cluster.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "mr/trace.hpp"
#include "service/config.hpp"
#include "workloads/experiment.hpp"

namespace {

constexpr const char* kDemoConfig = R"(
# Demo experiment: small mixed cluster, wordcount under FlexMap.
[group1]
model = rack server
count = 4
ips = 12
slots = 4
slowdown = 1.0

[group2]
model = legacy box
count = 4
ips = 5
slots = 4
slowdown = 1.0

[job]
benchmark = WC
input_gib = 4
block_mb = 64
repeats = 3

[run]
seed = 9
scheduler = flexmap
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace flexmr;
  try {
    const Config config = argc > 1 ? Config::load(argv[1])
                                   : Config::parse(kDemoConfig);

    auto cluster = service::build_cluster(config);
    auto bench =
        workloads::benchmark(config.get_string("job.benchmark", "WC"));
    bench.small_input = gib_to_mib(config.get_double("job.input_gib", 4));

    workloads::RunConfig run;
    run.block_size = config.get_double("job.block_mb", 64.0);
    run.params.seed =
        static_cast<std::uint64_t>(config.get_int("run.seed", 1));
    for (const auto& [node, at] : service::parse_node_failures(config)) {
      run.faults.crashes.push_back(
          faults::NodeCrash{node, at, std::nullopt, /*silent=*/false});
    }
    const auto kind = service::parse_scheduler_kind(
        config.get_string("run.scheduler", "flexmap"));
    const std::uint64_t repeats = config.get_count("job.repeats", 1);

    std::printf("cluster: %u nodes, %u slots; job: %s (%.0f GiB); "
                "scheduler: %s; repeats: %llu%s\n",
                cluster.num_nodes(), cluster.total_slots(),
                bench.name.c_str(), mib_to_gib(bench.small_input),
                workloads::scheduler_label(kind).c_str(),
                static_cast<unsigned long long>(repeats),
                run.faults.crashes.empty() ? "" : "; with failures");

    OnlineStats jct;
    OnlineStats efficiency;
    mr::JobResult last;
    for (std::uint64_t r = 0; r < repeats; ++r) {
      run.params.seed += r * 31;
      last = workloads::run_job(cluster, bench, workloads::InputScale::kSmall,
                                kind, run);
      jct.add(last.jct());
      efficiency.add(last.efficiency());
    }
    std::printf("JCT %.1fs (±%.1f) | efficiency %.3f | %zu map tasks | "
                "%zu reducers\n",
                jct.mean(), jct.stddev(), efficiency.mean(),
                last.map_tasks_launched(),
                last.count(mr::TaskKind::kReduce,
                           mr::TaskStatus::kCompleted));

    if (config.get_bool("run.gantt", false)) {
      std::printf("\n%s", mr::gantt(last, cluster, 100).c_str());
    }
    if (config.get_bool("run.csv", false)) {
      std::printf("\n%s", mr::trace_csv(last).c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
