#include "recover/journal.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/json.hpp"

namespace flexmr::recover {

void JobJournal::record_map_commit(TaskId task, std::uint32_t attempt,
                                   NodeId node,
                                   const std::vector<BlockUnitId>& bus,
                                   MiB size) {
  Record r;
  r.op = Op::kMapCommit;
  r.map = CommittedMap{task, node, bus, size, 0, MapOrigin{attempt, task}};
  log_.push_back(std::move(r));
  ++total_appends_;
}

void JobJournal::record_map_output_lost(TaskId task) {
  Record r;
  r.op = Op::kMapOutputLost;
  r.task = task;
  log_.push_back(std::move(r));
  ++total_appends_;
}

void JobJournal::record_reduce_plan(std::uint32_t num_reducers) {
  Record r;
  r.op = Op::kReducePlan;
  r.index = num_reducers;
  log_.push_back(std::move(r));
  ++total_appends_;
}

void JobJournal::record_reduce_commit(std::uint32_t index, NodeId node,
                                      MiB input) {
  Record r;
  r.op = Op::kReduceCommit;
  r.index = index;
  r.node = node;
  r.input = input;
  log_.push_back(std::move(r));
  ++total_appends_;
}

void JobJournal::record_bu_attempt_failure(BlockUnitId bu) {
  Record r;
  r.op = Op::kBuAttemptFailure;
  r.bu = bu;
  log_.push_back(std::move(r));
  ++total_appends_;
}

void JobJournal::record_reduce_attempt_failure(std::uint32_t index) {
  Record r;
  r.op = Op::kReduceAttemptFailure;
  r.index = index;
  log_.push_back(std::move(r));
  ++total_appends_;
}

void JobJournal::record_node_attempt_failure(NodeId node) {
  Record r;
  r.op = Op::kNodeAttemptFailure;
  r.node = node;
  log_.push_back(std::move(r));
  ++total_appends_;
}

void JobJournal::record_fetch_report(TaskId task) {
  Record r;
  r.op = Op::kFetchReport;
  r.task = task;
  log_.push_back(std::move(r));
  ++total_appends_;
}

void JobJournal::record_scheduler_note(const SchedulerNote& note) {
  Record r;
  r.op = Op::kSchedulerNote;
  r.note = note;
  log_.push_back(std::move(r));
  ++total_appends_;
}

void JobJournal::apply(RecoveredState& state, const Record& r) {
  switch (r.op) {
    case Op::kMapCommit:
      state.committed_maps.push_back(r.map);
      break;
    case Op::kMapOutputLost: {
      // A voided commit disappears entirely: its BUs are uncommitted, its
      // fetch-report count dies with it (the re-run gets a fresh task id).
      auto& maps = state.committed_maps;
      maps.erase(std::remove_if(maps.begin(), maps.end(),
                                [&](const CommittedMap& m) {
                                  return m.task == r.task;
                                }),
                 maps.end());
      break;
    }
    case Op::kReducePlan:
      state.reduce_planned = true;
      state.num_reducers = r.index;
      break;
    case Op::kReduceCommit:
      state.committed_reduces.push_back(
          RecoveredState::CommittedReduce{r.index, r.node, r.input});
      break;
    case Op::kBuAttemptFailure:
      ++state.bu_attempt_failures[r.bu];
      break;
    case Op::kReduceAttemptFailure:
      ++state.reduce_attempt_failures[r.index];
      break;
    case Op::kNodeAttemptFailure:
      ++state.node_failed_attempts[r.node];
      break;
    case Op::kFetchReport:
      for (CommittedMap& m : state.committed_maps) {
        if (m.task == r.task) {
          ++m.fetch_reports;
          break;
        }
      }
      break;
    case Op::kSchedulerNote:
      state.scheduler_notes.push_back(r.note);
      break;
  }
}

void JobJournal::snapshot(SimTime now) {
  for (const Record& r : log_) apply(snapshot_state_, r);
  log_.clear();
  ++snapshots_taken_;
  last_snapshot_at_ = now;
}

void JobJournal::rebase(RecoveredState state) {
  snapshot_state_ = std::move(state);
  log_.clear();
}

RecoveredState JobJournal::replay() const {
  RecoveredState state = snapshot_state_;
  for (const Record& r : log_) apply(state, r);
  return state;
}

std::string JobJournal::to_json() const {
  const RecoveredState state = replay();
  JsonWriter w;
  w.begin_object();
  w.field("schema", "flexmr.journal.v1");
  w.field("snapshots_taken", snapshots_taken_);
  w.field("last_snapshot_s", last_snapshot_at_);
  w.field("total_appends", total_appends_);
  w.field("pending_log_records", static_cast<std::uint64_t>(log_.size()));
  w.field("replayed_units",
          static_cast<std::uint64_t>(state.replayed_units()));
  w.field("replayed_mib", state.replayed_mib());
  w.key("committed_maps").begin_array();
  for (const CommittedMap& m : state.committed_maps) {
    w.begin_object();
    w.field("task", m.task);
    w.field("node", m.node);
    w.field("num_bus", static_cast<std::uint64_t>(m.bus.size()));
    w.field("size_mib", m.size);
    if (m.fetch_reports > 0) w.field("fetch_reports", m.fetch_reports);
    w.end_object();
  }
  w.end_array();
  if (state.reduce_planned) {
    w.field("num_reducers", state.num_reducers);
    w.key("committed_reduces").begin_array();
    for (const auto& r : state.committed_reduces) {
      w.begin_object();
      w.field("index", r.index);
      w.field("node", r.node);
      w.field("input_mib", r.input);
      w.end_object();
    }
    w.end_array();
  }
  w.key("attempt_failures").begin_object();
  w.field("bus", static_cast<std::uint64_t>(state.bu_attempt_failures.size()));
  w.field("reducers",
          static_cast<std::uint64_t>(state.reduce_attempt_failures.size()));
  w.field("nodes",
          static_cast<std::uint64_t>(state.node_failed_attempts.size()));
  w.end_object();
  w.field("scheduler_notes",
          static_cast<std::uint64_t>(state.scheduler_notes.size()));
  w.end_object();
  return w.str();
}

}  // namespace flexmr::recover
