// JobDriver: executes one MapReduce job on a simulated cluster under a
// pluggable Scheduler. It plays the roles the paper assigns to the YARN
// AppMaster and MRAppMaster JobImpl: requesting containers, dispatching
// tasks, tracking progress, running the heartbeat loop, and enforcing the
// exactly-once block-unit invariant.
//
// Mechanism/policy split: ALL state machines live here; Scheduler only
// decides what to launch where (see mr/scheduler.hpp).
//
// One driver is one AM attempt: crash_am() kills it for good, and
// mr::AmAttempts (mr/am_attempts.hpp) chains a job's attempts across AM
// crashes. Every caller runs drivers through that chain.
//
// Task timeline (maps):
//   dispatch ──(container_alloc + jvm_startup [+ extra])──▶ compute start
//   compute ──(rate-integrated at node speed / cost)──▶ completion
// Interference changes re-rate the integrator and re-schedule the
// cancellable completion event.
//
// Reduce phase: starts when the last BU is credited. Reducer r gets weight
// w_r of every map output; its fetch moves the non-node-local share over
// the NIC (discounted by shuffle_overlap for the early-shuffle Hadoop
// performs), then reduce compute is rate-integrated like a map.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "hdfs/block_index.hpp"
#include "hdfs/replica_manager.hpp"
#include "mr/job.hpp"
#include "mr/metrics.hpp"
#include "mr/params.hpp"
#include "mr/scheduler.hpp"
#include "obs/session.hpp"
#include "recover/journal.hpp"
#include "simcore/rate_integrator.hpp"
#include "simcore/simulator.hpp"
#include "yarn/resource_manager.hpp"

namespace flexmr::mr {

/// Per-job namespace inside a *shared* TraceSession: several drivers can
/// record into one Perfetto document when each gets a distinct control pid
/// and a distinct task-token range, while the node / NameNode / fault
/// tracks stay shared (process naming is idempotent per pid). The
/// defaults reproduce the single-job layout byte for byte.
struct TraceNamespace {
  /// Pid of this job's control track (phases, job-level counters).
  std::uint32_t job_pid = obs::kJobPid;
  /// Added to every task token so concurrent jobs' task ids (both starting
  /// from 0) cannot collide inside the tracer's open-task map.
  std::uint64_t token_base = 0;
  /// Process name for the control track; empty = "job <name> [<sched>]".
  std::string label;
};

/// The driver's trace counters. register_in() is the one list of driver
/// instruments (these counters plus the task histograms): every driver
/// registers through it, and a coordinator calls it up front, because the
/// metrics column layout freezes at the first sampled row and jobs may
/// start long after that. Instruments dedupe by name, so drivers sharing a
/// session aggregate into service-wide instruments.
struct JobInstruments {
  using Counter = obs::MetricsRegistry::Counter;
  Counter* maps_dispatched = nullptr;
  Counter* maps_completed = nullptr;
  Counter* maps_killed = nullptr;
  Counter* speculative_kills = nullptr;
  Counter* reduces_dispatched = nullptr;
  Counter* reduces_completed = nullptr;
  Counter* fetch_failures = nullptr;
  Counter* fault_events = nullptr;
  Counter* heartbeats = nullptr;
  Counter* am_restarts = nullptr;
  Counter* redone_units = nullptr;
  Counter* degraded_reads = nullptr;
  Counter* parts_reconstructed = nullptr;

  static JobInstruments register_in(obs::MetricsRegistry& metrics);
};

/// Everything a crashed AM attempt hands its successor: the durable
/// cluster-level state that outlives one AM (fault plan, armed injector,
/// NameNode live view) plus the journal replay the successor resumes
/// from. The unique_ptr moves keep the injector and replica manager at
/// stable addresses — their pending simulator events capture raw
/// pointers — and the new driver re-points their handlers at itself in
/// start().
struct AmRecoveryBaton {
  faults::FaultPlan plan;
  std::unique_ptr<faults::FaultInjector> injector;
  std::unique_ptr<hdfs::ReplicaManager> replica_mgr;
  recover::JobJournal* journal = nullptr;
  std::uint32_t next_attempt = 2;
  recover::RecoveredState recovered;
};

class JobDriver final : public DriverContext {
 public:
  /// Without `shared_rm` the driver owns an RM over the whole cluster and
  /// arms the interference models (attempt 1 of a single job). With it —
  /// a coordinator's job, or an AM successor — offers arrive through
  /// `shared_rm`, whose owner arms the cluster.
  JobDriver(Simulator& sim, cluster::Cluster& cluster,
            const hdfs::FileLayout& layout, JobSpec job, SimParams params,
            Scheduler& scheduler, yarn::ResourceManager* shared_rm = nullptr);

  /// Unregisters this driver's machine speed listeners: the cluster may
  /// outlive the driver (sequential jobs, a coordinator dropping a
  /// finished job), and a stale [this] callback is a use-after-free.
  ~JobDriver();

  /// Registers the job (heartbeats, failures, initial offers) without
  /// stepping the simulator. One-shot; the owner routes the RM's offers to
  /// offer() and steps until done() (workloads::run_attempts for a single
  /// job, MultiJobCoordinator for a shared cluster).
  void start();
  bool started() const { return started_; }
  bool done() const { return done_; }
  const JobResult& result() const { return result_; }

  /// Offers one free container on `node`; returns true if consumed.
  /// (The RM's offer handler calls this for the live attempt: installed by
  /// the AmAttempts chain in single-job mode, by the coordinator in shared
  /// mode.)
  bool offer(NodeId node);

  /// Containers currently held by this job (running maps + reduces).
  std::uint32_t slots_in_use() const {
    return static_cast<std::uint32_t>(running_map_count_ +
                                      running_reduce_count_);
  }

  /// The part of slots_in_use() on nodes the RM has marked dead: attempts
  /// this driver was never told to stop there hold slots the RM no longer
  /// counts (a done driver hears of no later node death).
  std::uint32_t slots_on_dead_nodes() const;

  /// Cluster-level failure notification from a shared-RM coordinator: the
  /// coordinator has already marked the node dead on the RM (exactly once,
  /// cluster-wide) and schedules the single post-failure re-offer itself.
  /// This driver records the crash/detection events, kills its containers
  /// on the node, reclaims their work, and never touches the node again.
  /// Idempotent per node; also used to inform a job that starts *after*
  /// the node died. Requires start().
  void notify_node_failure(NodeId node);

  /// Container preemption (an over-share job releasing a slot to the
  /// cluster scheduler): kills this job's youngest running non-speculative
  /// map attempt, crediting its consumed BU prefix as PartialCompleted
  /// (FlexMap's elastic tasks make the checkpoint free) and returning the
  /// rest to the pool. Reducers are never preempted — their fetched data
  /// would be lost. Returns false when no preemptible map is running.
  bool preempt_one_map();

  /// Installs the run's declarative fault plan (crashes with optional
  /// rejoin, silent death with heartbeat-expiry detection, degradation
  /// windows, per-attempt transient/launch failures, retry/blacklist
  /// knobs). Must be called before start(); single-job mode only. The plan
  /// is validated (ConfigError) at start().
  void install_faults(faults::FaultPlan plan);

  // ---- AM crash + journaled recovery (mr::AmAttempts) -------------------

  /// Arms journaled recovery: the driver appends to `journal` at every
  /// commit point (map/reduce commits, output losses, attempt-failure
  /// charges) and snapshots it on the heartbeat cadence. Required
  /// (ConfigError at start()) when the installed plan has AM faults — the
  /// job's AmAttempts chain owns the journal and the restart loop. Must be
  /// set before start(). Null journal + no AM faults keeps every commit
  /// site on a pointer-test fast path (byte-identical runs).
  void set_journal(recover::JobJournal* journal);

  /// 1-based AM attempt number this driver represents.
  std::uint32_t am_attempt() const { return am_attempt_; }

  /// Kills this AM attempt: every in-flight container is torn down (its
  /// consumed input is wasted simulated time, matching MRAppMaster
  /// semantics — YARN kills the whole application's containers), held
  /// slots return to the RM, the trace closes, and the driver goes
  /// permanently done() WITHOUT a finish_time. Records kAmCrash and the
  /// attempt's teardown accounting. No-op once done().
  void crash_am();

  /// Hands the crashed attempt's durable state (plan, armed injector,
  /// NameNode view, journal replay) to the successor. Only valid after
  /// crash_am().
  AmRecoveryBaton release_recovery();

  /// Makes this not-yet-started driver AM attempt N+1: adopts the dead
  /// attempt's baton, and start() replays the journal — re-pending only
  /// uncommitted work — instead of starting from scratch. Shared-RM form
  /// only (the successor allocates from the surviving RM).
  void adopt_recovery(AmRecoveryBaton baton);

  /// Origins of journal-replayed maps whose output this attempt lost: their
  /// task records live in earlier attempts, which AmAttempts::result()
  /// relabels kLostOutput.
  const std::vector<recover::MapOrigin>& lost_replayed_maps() const {
    return lost_replayed_maps_;
  }

  /// The RM this driver allocates from (a single-job attempt 1 owns it;
  /// every successor allocates from it).
  yarn::ResourceManager& resource_manager() { return rm_; }

  /// Opt-in tracing: spans/instants for every task lifecycle plus the job
  /// instruments, recorded under the given per-job namespace (the default
  /// is the single-job layout; distinct namespaces let several jobs merge
  /// into one document). Must be installed before start(); the session
  /// must outlive the driver. Null (the default) keeps every
  /// instrumentation site on a pointer-test fast path.
  void set_trace(obs::TraceSession* trace, TraceNamespace ns = {});

  /// Registers the single-job gauges (RM occupancy, pending and running
  /// work, fetches, repair backlog, per-node IPS) in `trace`. Each reads
  /// `*live` at sample time, so the gauges follow an AM-attempt chain to
  /// whichever attempt is live; `*live` and the session must outlive every
  /// sample.
  static void register_gauges(obs::TraceSession& trace,
                              const JobDriver* const* live);

  // --- DriverContext ---
  SimTime now() const override { return sim_->now(); }
  const JobSpec& job() const override { return job_; }
  const SimParams& params() const override { return params_; }
  const hdfs::FileLayout& layout() const override { return *layout_; }
  hdfs::BlockLocationIndex& index() override { return index_; }
  std::uint32_t num_nodes() const override { return cluster_->num_nodes(); }
  const cluster::MachineSpec& machine_spec(NodeId node) const override {
    return cluster_->machine(node).spec();
  }
  std::uint32_t free_slots(NodeId node) const override {
    return rm_.free_slots(node);
  }
  std::uint32_t total_free_slots() const override { return rm_.total_free(); }
  std::uint32_t total_slots() const override { return rm_.total_slots(); }
  std::vector<RunningMapInfo> running_maps() const override;
  std::optional<MiBps> observed_ips(NodeId node) const override;
  double map_phase_progress() const override;
  std::size_t total_bus() const override { return layout_->bus.size(); }
  std::size_t processed_bus() const override { return processed_bus_; }
  std::size_t unassigned_bus() const override {
    return index_.unprocessed();
  }
  std::uint32_t total_reducers() const override {
    return static_cast<std::uint32_t>(reduce_tasks_.size());
  }
  MiB next_reducer_input() const override {
    if (!reduce_requeue_.empty()) {
      return reduce_tasks_[reduce_requeue_.front()]->input;
    }
    if (next_reducer_ < reduce_tasks_.size()) {
      return reduce_tasks_[next_reducer_]->input;
    }
    return 0;
  }
  MiB mean_reducer_input() const override {
    return reduce_tasks_.empty()
               ? 0.0
               : total_intermediate_ /
                     static_cast<double>(reduce_tasks_.size());
  }
  bool node_alive(NodeId node) const override {
    return !rm_.is_dead(node);
  }
  bool node_blacklisted(NodeId node) const override {
    return !blacklisted_.empty() && blacklisted_[node] != 0 &&
           !blacklist_saturated();
  }
  bool block_readable(std::uint32_t block) const override {
    // Readable = enough live holders to serve (or decode) the data: one
    // whole replica, or any k of the k+m parts under rs(k,m).
    return !replica_mgr_ ||
           replica_mgr_->live_holder_count(block) >= layout_->min_live();
  }
  obs::EventTracer* tracer() const override { return tracer_; }
  recover::JobJournal* journal() const override { return journal_; }
  std::vector<BlockUnitId> kill_and_reclaim(TaskId task) override;

 private:
  enum class TaskPhase { kStarting, kFetching, kComputing, kDone };

  /// Attempt-level fate drawn at dispatch from the fault injector: the
  /// container launch fails during startup, or the attempt dies a
  /// fraction of the way through its compute.
  enum class PlannedFault { kNone, kLaunchFail, kAttemptFail };

  /// One attempt's lifecycle state, shared by maps and reduces.
  struct Attempt {
    TaskId id = 0;
    NodeId node = kInvalidNode;  ///< Assigned at dispatch.
    /// Per-attempt execution-time multiplier (GC pauses, I/O variance —
    /// lognormal with unit mean). Twins draw independently.
    double exec_noise = 1.0;
    SimTime dispatch_time = 0;
    SimTime compute_start = 0;
    TaskPhase phase = TaskPhase::kStarting;
    PlannedFault planned_fault = PlannedFault::kNone;
    double fail_frac = 0;  ///< Compute fraction at which it dies.
    std::optional<RateIntegrator> integrator;
    EventId pending_event = kInvalidEvent;
  };

  struct MapTask : Attempt {
    std::vector<BlockUnitId> bus;
    MiB size = 0;
    double avg_cost = 1.0;       ///< Size-weighted mean BU cost.
    double local_fraction = 1.0; ///< Bytes with a replica on `node`.
    bool speculative = false;
    TaskId twin = kInvalidTask;  ///< Original/copy counterpart, if any.
    bool credited = false;       ///< Counted; cleared if output is lost.
    std::uint32_t fetch_reports = 0;  ///< Hadoop's per-mapper counter.
    /// Exactly one task of an original/copy pair owns the BU list (both
    /// hold duplicates): the owner returns it to the index if the work
    /// dies. Ownership transfers to a surviving twin when the owner is
    /// killed — without the transfer, a second failure hitting the twin
    /// would silently drop the BUs (exactly-once violation).
    bool owns_bus = true;
  };

  /// Reducers bind to a node at dispatch (late binding).
  struct ReduceTask : Attempt {
    double share = 0;  ///< Fraction of intermediate data.
    MiB input = 0;
    MiB remote = 0;
    /// Map-output hosts whose fetch failed this attempt, FIFO. The reducer
    /// retries the front source with exponential backoff and reports each
    /// failure to the AM (Hadoop's fetch-failure notification).
    std::vector<NodeId> failed_fetch_sources;
    std::uint32_t fetch_attempt = 0;  ///< Retries against the front source.
  };

  /// An attempt's event handlers, keyed by task index (the map id, or
  /// the reducer's index).
  using Step = void (JobDriver::*)(std::size_t);
  struct Steps {
    Step start;     ///< Container started.
    Step complete;  ///< Compute finished.
    Step fail;      ///< Launch failure or planned attempt failure.
  };
  static const Steps kMapSteps;
  static const Steps kReduceSteps;

  /// Draws a freshly dispatched attempt's exec noise from rng_, then its
  /// planned launch/attempt failure from the injector.
  void draw_fate(Attempt& task);
  /// Schedules container startup: nothing on a silently-dead node (the
  /// container never comes up), the launch failure, or `steps.start`.
  void schedule_startup(Attempt& task, std::size_t key, SimDuration startup,
                        const Steps& steps);
  /// (Re)schedules the end of compute from the integrator's ETA: the
  /// planned attempt failure, or `steps.complete`.
  void schedule_compute_end(Attempt& task, std::size_t key,
                            const Steps& steps);
  /// Cancels the attempt's pending event, marks it done, decrements
  /// `running` and returns the MiB it consumed.
  MiB stop_attempt(Attempt& task, std::size_t& running);
  /// Stops reacting to a silently-dead node's attempt: no pending event,
  /// progress frozen at rate 0.
  void freeze_attempt(Attempt& task);
  /// Deferred offer round, dropped once the job is done.
  void reoffer_soon();

  void dispatch_map(NodeId node, MapLaunch launch);
  void map_compute_start(std::size_t id);
  void map_complete(std::size_t id);
  /// Stops a map attempt without credit, records `status`, closes its span
  /// with `reason`, bumps `counter` (if any); returns the MiB consumed.
  MiB end_map(MapTask& task, TaskStatus status, const char* reason,
              obs::MetricsRegistry::Counter* counter);
  const TaskRecord& record_map(const MapTask& task, TaskStatus status,
                               MiB consumed, std::uint32_t credited_bus);
  /// Appends the attempt's task record (a map's extra fields: record_map).
  TaskRecord& record_attempt(const Attempt& task, TaskKind kind,
                             TaskStatus status, MiB input,
                             double phase_progress);
  /// Returns a dead map attempt's BU list: a surviving twin takes over the
  /// work (and the ownership duty); otherwise the owner puts the BUs back
  /// in the index and appends them to `reclaimed`.
  void release_bus(MapTask& task, bool twin_survives,
                   std::vector<BlockUnitId>& reclaimed);
  /// Ends the map phase once every BU is credited; no-op otherwise.
  void finish_map_phase();

  /// Plans the reduce phase. `forced_total` > 0 pins the reducer count to
  /// a journaled plan (auto-sizing reads *live* slots, which may differ
  /// after an AM restart); 0 = plan fresh (and journal the result).
  void enqueue_reducers(std::uint32_t forced_total = 0);
  bool dispatch_reduce(NodeId node);
  void reduce_fetch_start(std::size_t idx);
  void reduce_fetch_done(std::size_t idx);
  void handle_fetch_failure(std::size_t idx);
  void retry_fetch(std::size_t idx);
  void report_fetch_failure(NodeId host);
  void reduce_compute_start(std::size_t idx);
  void reduce_complete(std::size_t idx);
  /// Stops reducer `idx` (recording it kFailed if `failed`), closes its
  /// span and requeues it unbound; returns the node it ran on.
  NodeId requeue_reducer(std::size_t idx, const char* reason,
                         bool failed = false);

  void heartbeat();
  void on_speed_change(NodeId node);

  // Fault machinery. fail_node is the *detection* path (oracle crash,
  // heartbeat expiry, or re-registration resync); on_node_silent is the
  // ground-truth crash of a node the AM has not noticed yet. A coordinator
  // delivering a cluster-level crash suppresses the per-driver re-offer
  // (it schedules one itself, instead of one per job).
  void fail_node(NodeId node, bool schedule_reoffer = true);
  void on_node_silent(NodeId node);
  void on_node_rejoin(NodeId node);
  void map_attempt_fail(std::size_t id);
  void reduce_attempt_fail(std::size_t idx);
  /// Charges one failed attempt to every BU in `bus`; returns the most-
  /// failed BU and its failure count.
  std::pair<BlockUnitId, std::uint32_t> charge_bu_attempts(
      const std::vector<BlockUnitId>& bus);
  /// Charges a failed attempt to `node`'s blacklist score, then aborts the
  /// job when `unit` `id` has failed max_attempts times.
  void charge_failure(NodeId node, const char* unit, std::uint64_t id,
                      std::uint32_t attempts);
  bool blacklist_saturated() const;
  void abort_job(const std::string& reason);
  void record_fault(faults::FaultEventType type, NodeId node,
                    TaskId task = kInvalidTask, std::uint32_t attempts = 0,
                    std::uint32_t block = faults::kInvalidBlock);

  // The credit ledger (the only writers of processed_bus_, bu_done_ and
  // intermediate_on_node_) throws InvariantError on a double (un)credit.
  /// Credits `task`'s BUs and output; `commit` journals it (not on replay).
  void credit(MapTask& task, bool commit);
  /// Voids `task`'s credit and commit: its BUs return to the index (and
  /// `reclaimed`), its record is relabeled kLostOutput.
  void uncredit(MapTask& task, std::vector<BlockUnitId>& reclaimed);
  /// Loses the credited output of every map that ran on `node`.
  void lose_outputs_on(NodeId node, std::vector<BlockUnitId>& reclaimed);

  // Data-plane fault machinery (HDFS replica loss + shuffle recovery).
  /// Records a replica (or rs(k,m) part) of `block` lost on `node`.
  void record_replica_lost(NodeId node, std::uint32_t block);
  /// Re-opens the map phase after output loss: stalls every reducer that
  /// has not started computing and requeues it for redispatch.
  void reopen_map_phase_for_lost_outputs();
  /// Aborts with DataLossError semantics if any suspect block (these plus
  /// those of the unread-again `reclaimed` BUs) lacks read quorum, has
  /// unread BUs, and has no dead holder with a rejoin pending.
  void check_data_loss(std::vector<std::uint32_t> suspect_blocks,
                       const std::vector<BlockUnitId>& reclaimed);
  /// NameNode re-replication pipeline callback: a copy of `block` (or a
  /// reconstructed rs(k,m) part) landed on `target`.
  void on_block_re_replicated(std::uint32_t block, NodeId target);
  /// Ground-truth single-disk failure on a live node: the disk's
  /// replicas/parts are destroyed (kPartLost / kReplicaLost per block),
  /// the live view and index shrink, and repair work is queued.
  void on_disk_fault(NodeId node, std::uint32_t disk);

  /// Replays the adopted RecoveredState into driver state: node liveness
  /// reconciliation, committed maps re-credited (synthetic Done tasks in
  /// original commit order for FP-identical bookkeeping), the reduce plan
  /// and committed reducers restored, uncommitted reducers re-pended.
  void restore_from_journal();

  double map_rate(const MapTask& task) const;
  double reduce_rate(const ReduceTask& task) const;
  void finish_job();

  /// Shared core of kill_and_reclaim / preempt_one_map: stop `id`, credit
  /// its consumed prefix, put the rest back. `reason` labels the trace.
  std::vector<BlockUnitId> reclaim_map(TaskId id, const char* reason);

  // Tracing helpers (all no-ops when trace_ is null).
  void trace_setup();
  void trace_begin_phase(const char* name);
  void trace_end_phase();
  /// Ends `id`'s span if it is open (a null `reason` adds none).
  void trace_task_closed(TaskId id, const char* status = "unfinished",
                         const char* reason = nullptr,
                         std::optional<MiB> consumed = std::nullopt);
  void trace_finish();
  /// Task id → tracer token under this job's namespace.
  std::uint64_t ttok(TaskId id) const { return trace_ns_.token_base + id; }

  Simulator* sim_;
  cluster::Cluster* cluster_;
  const hdfs::FileLayout* layout_;
  JobSpec job_;
  SimParams params_;
  Scheduler* scheduler_;

  hdfs::BlockLocationIndex index_;
  std::unique_ptr<yarn::ResourceManager> owned_rm_;  ///< Single-job mode.
  yarn::ResourceManager& rm_;
  Rng rng_;

  std::vector<std::unique_ptr<MapTask>> map_tasks_;   // id == index
  /// Ids of map tasks not yet Done, ascending (dispatch appends; finished
  /// ids are skipped by readers and swept out during the heartbeat walk).
  /// Keeps the heartbeat sampling scan, speed re-rating and running_maps()
  /// proportional to in-flight work instead of every task ever launched.
  std::vector<TaskId> live_map_ids_;
  /// Heartbeat per-node sample accumulators (members so a heartbeat wave
  /// allocates nothing).
  std::vector<double> hb_ips_sum_;
  std::vector<std::uint32_t> hb_ips_cnt_;
  std::vector<std::unique_ptr<ReduceTask>> reduce_tasks_;
  std::size_t next_reducer_ = 0;  ///< Global FIFO dispatch cursor.
  MiB total_intermediate_ = 0;
  std::vector<MiB> intermediate_on_node_;
  std::vector<std::optional<MiBps>> round_ips_;
  /// IPS samples from maps that completed since the last heartbeat round
  /// (Eq. 3 evaluated at task end — the reliable reading for tasks shorter
  /// than a heartbeat period).
  std::vector<std::vector<double>> pending_ips_samples_;

  std::size_t processed_bus_ = 0;
  std::size_t reducers_done_ = 0;
  std::size_t running_reduce_count_ = 0;
  bool reduce_reoffer_pending_ = false;
  bool reduce_ready_ = false;
  /// Consecutive reduce re-offer rounds where every slot declined; after
  /// a few, placement bias is bypassed so a buggy/stale policy can never
  /// wedge the reduce phase (e.g. quotas computed before a node failure).
  std::uint32_t reduce_declined_rounds_ = 0;
  std::size_t reducers_started_ = 0;
  std::size_t reducers_started_snapshot_ = 0;
  bool reduce_force_dispatch_ = false;
  std::vector<std::size_t> reduce_requeue_;  ///< Reducers lost to failures.
  /// Fault plan installed before start() and validated there. Empty plan
  /// == no fault machinery at all.
  faults::FaultPlan plan_;
  std::unique_ptr<faults::FaultInjector> injector_;
  /// Live NameNode view (created iff the fault plan is non-empty): per-
  /// block replica liveness plus the bandwidth-modeled re-replication
  /// pipeline. Without faults the static layout is the truth and the
  /// driver skips all replica bookkeeping.
  std::unique_ptr<hdfs::ReplicaManager> replica_mgr_;
  /// BU read state (1 == credited to a completed/partial map). Data loss
  /// is only fatal for blocks with unread BUs.
  std::vector<char> bu_done_;
  /// Nodes that are dead (ground truth) but not yet declared lost by the
  /// AM: their tasks are frozen, their heartbeats stopped.
  std::set<NodeId> silent_nodes_;
  /// Transient-failure counts per map BU / per reduce task; hitting
  /// FaultPlan::max_attempts aborts the job.
  std::vector<std::uint32_t> bu_attempt_failures_;
  std::vector<std::uint32_t> reduce_attempt_failures_;
  /// Failed attempts per node, and the AM blacklist they feed.
  std::vector<std::uint32_t> node_failed_attempts_;
  std::vector<char> blacklisted_;
  /// Per-node speed-listener handles registered in start(), removed in the
  /// destructor (node == index).
  std::vector<cluster::Machine::SpeedListenerId> speed_listener_ids_;
  std::set<NodeId> failed_nodes_;  ///< Failures this driver has handled.
  std::size_t running_map_count_ = 0;
  bool map_phase_done_ = false;
  bool done_ = false;
  bool started_ = false;

  /// AM-recovery state: the journal this attempt appends to (null = no
  /// recovery armed), this driver's 1-based attempt number, the replayed
  /// state a restarted attempt resumes from, and whether crash_am() ran.
  recover::JobJournal* journal_ = nullptr;
  std::uint32_t am_attempt_ = 1;
  std::optional<recover::RecoveredState> recovered_;
  std::vector<recover::MapOrigin> lost_replayed_maps_;
  bool am_crashed_ = false;

  /// Opt-in observability (null unless set_trace was called). tracer_
  /// caches &trace_->tracer() so hot paths test one pointer; the counter
  /// pointers are registered in trace_setup() and stay valid for the
  /// session's lifetime.
  obs::TraceSession* trace_ = nullptr;
  obs::EventTracer* tracer_ = nullptr;
  TraceNamespace trace_ns_;
  bool trace_phase_open_ = false;
  JobInstruments ctr_;

  JobResult result_;
};

/// Registers the RM occupancy gauges (cluster_utilization,
/// rm_free_containers); `rm` must outlive every sample.
void register_rm_gauges(obs::MetricsRegistry& metrics,
                        const yarn::ResourceManager& rm);

/// Relabels the latest map record of `task` in `tasks` as kLostOutput with
/// no credited BUs: its work no longer counts.
void relabel_lost_output(std::span<TaskRecord> tasks, TaskId task);

}  // namespace flexmr::mr
