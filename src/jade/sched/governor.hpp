// Task-lifecycle services shared by every engine.
//
// Jade has one task lifecycle (Sections 3.3, 4.2, 5): a task is created from
// its declaration, enabled in serial order, converts or retires rights at
// with-cont, and completes.  The steps of it that do not depend on how an
// engine parks, dispatches, places or moves data live here, once:
//
//   * CommuteTokenTable — commuting-update exclusivity (the Section 4.3
//     extension): commuters may execute in any order but their accesses are
//     mutually exclusive, so a task takes an object's token at its first
//     commute accessor and holds it until completion (or an early no_cm).
//     SimEngine and ClusterEngine queue waiters FIFO and hand the token
//     over explicitly; ThreadEngine's waiters sleep on a condition variable
//     and race for the freed token, so it never enqueues.  Token release at
//     with-cont and at completion/kill goes through the table's two release
//     methods, each caller supplying its own hand-off.
//   * ThrottleGate — suppression of excess task creation (Section 3.3,
//     Figure 7(e)): the global and per-tenant water-mark decisions plus the
//     suspension/give-up accounting, folded into RuntimeStats at the end of
//     run().
//   * SpeculationGovernor — Specx-style run-ahead (SchedPolicy::spec): the
//     candidate list and its scan, snapshot capture, the shadow accessor,
//     the write-epoch commit check, commit write-back and abort rewind, over
//     one SpecAttempt type.  SimEngine is its one user: it keeps only where
//     a bet runs (a sim process on a placed machine) and what its
//     completion wakes.  The other engines ignore SchedPolicy::spec.
//
// None of these synchronizes: the caller brings its own discipline
// (SimEngine is single-threaded; ThreadEngine and ClusterEngine call under
// their mu_).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "jade/core/access.hpp"
#include "jade/core/object.hpp"
#include "jade/core/queues.hpp"
#include "jade/core/stats.hpp"
#include "jade/core/tenant.hpp"
#include "jade/sched/policies.hpp"

namespace jade {

/// Thrown inside a speculatively executing body (SchedPolicy::spec) when it
/// reaches an operation the snapshot-isolated path cannot perform — spawn,
/// with-cont, a commuting acquisition, an undeclared access.  The engine
/// catches it, aborts the speculation, and the task later runs normally,
/// where a genuine error reproduces deterministically.
struct SpeculationUnwind {};

/// Ownership + FIFO wait queues for commute tokens.  Holders are tracked
/// per object and per task (a completing or killed task returns every token
/// it still holds); the per-task held list preserves acquisition order.
class CommuteTokenTable {
 public:
  /// The current holder of `obj`'s token, or nullptr when free.
  TaskNode* holder(ObjectId obj) const;

  /// Takes the token if it is free (true), confirms an existing hold
  /// (true), or reports another holder (false — the caller waits).
  bool try_acquire(ObjectId obj, TaskNode* task);

  /// Queues `task` for `obj`'s token; release() hands it over FIFO.
  void enqueue_waiter(ObjectId obj, TaskNode* task);

  /// Returns `task`'s hold on `obj`.  False (a no-op) when `task` is not
  /// the holder.  The token passes to the oldest waiter, if any — reported
  /// through `next_holder` so the caller can resume it — and is freed
  /// otherwise.
  bool release(ObjectId obj, TaskNode* task, TaskNode** next_holder = nullptr);

  /// Drops `task` from every wait queue (a killed task's unwind path).
  void remove_waiter(TaskNode* task);

  /// Returns the tokens a with-cont's no_cm requests retire, in request
  /// order; a no-op for objects `task` does not hold.  Each hand-off to a
  /// queued waiter is reported as `on_handoff(next_holder, obj)`.
  template <class Requests, class Handoff>
  void release_retired(TaskNode* task, const Requests& requests,
                       Handoff&& on_handoff) {
    for (const auto& req : requests) {
      if (!(req.remove & access::kCommute)) continue;
      TaskNode* next = nullptr;
      if (release(req.obj, task, &next) && next != nullptr)
        on_handoff(next, req.obj);
    }
  }

  /// Returns every token `task` still holds — in acquisition order, or
  /// newest first (a killed attempt's unwind) — reporting hand-offs like
  /// release_retired.
  template <class Handoff>
  void release_all(TaskNode* task, Handoff&& on_handoff,
                   bool newest_first = false) {
    for (;;) {
      const std::vector<ObjectId>& owned = held(task);
      if (owned.empty()) return;
      const ObjectId obj = newest_first ? owned.back() : owned.front();
      TaskNode* next = nullptr;
      release(obj, task, &next);
      if (next != nullptr) on_handoff(next, obj);
    }
  }

 private:
  /// The tokens `task` holds, in acquisition order (empty when none).
  const std::vector<ObjectId>& held(TaskNode* task) const;

  std::unordered_map<ObjectId, TaskNode*> holder_;
  std::unordered_map<ObjectId, std::deque<TaskNode*>> waiters_;
  std::unordered_map<TaskNode*, std::vector<ObjectId>> held_;
};

/// Water-mark predicates and accounting for task-creation throttling.  The
/// gate owns the suspension/give-up counters (the engines publish them into
/// RuntimeStats when run() ends); the engine owns the waiting itself, which
/// is engine-specific (SimEngine parks a sim process, ThreadEngine sleeps
/// on a condition variable with a deadlock-escape give-up).
class ThrottleGate {
 public:
  explicit ThrottleGate(ThrottleConfig config) : config_(config) {}

  bool enabled() const { return config_.enabled; }

  /// True when creation must pause: throttling is on and the unstarted
  /// backlog exceeds the high-water mark.
  bool should_throttle(std::uint64_t backlog) const {
    return config_.enabled && backlog > config_.high_water;
  }

  /// True once the backlog has drained to the low-water mark (the resume
  /// condition for a suspended creator).
  bool backlog_drained(std::uint64_t backlog) const {
    return backlog <= config_.low_water;
  }

  /// Per-tenant analogue of should_throttle: creation by a tenant task must
  /// pause while the tenant's live-task count exceeds its quota window.
  /// Quota 0 disables the gate for that tenant.  Works even when global
  /// throttling is off — quotas are the server's lever, not the program's.
  bool tenant_gated(const TenantCtl& ctl) const {
    const std::uint64_t hi = ctl.quota_hi.load(std::memory_order_relaxed);
    return hi != 0 && ctl.live.load(std::memory_order_relaxed) > hi;
  }

  /// Per-tenant analogue of backlog_drained.
  bool tenant_drained(const TenantCtl& ctl) const {
    return ctl.live.load(std::memory_order_relaxed) <=
           ctl.quota_lo.load(std::memory_order_relaxed);
  }

  /// The gates a creator must wait on after creating a task: the global
  /// backlog, and its tenant's live-task window.
  struct Gates {
    bool global = false;
    bool tenant = false;
    bool any() const { return global || tenant; }
  };
  Gates gates(std::uint64_t backlog, const TenantCtl* creator) const {
    return {should_throttle(backlog),
            creator != nullptr && tenant_gated(*creator)};
  }

  /// True when a suspended creator of tenant `ctl` (nullptr: a host task)
  /// may resume as far as its tenant is concerned: no tenant, a cancelled
  /// one (it unwinds on resume), no quota, or a drained window.
  bool tenant_clear(const TenantCtl* ctl) const {
    return ctl == nullptr || ctl->cancelled.load(std::memory_order_relaxed) ||
           ctl->quota_hi.load(std::memory_order_relaxed) == 0 ||
           tenant_drained(*ctl);
  }

  void note_suspension() { ++suspensions_; }
  void note_giveup() { ++giveups_; }
  /// Folds the accounting into the run's stats.
  void publish(RuntimeStats& stats) const {
    stats.throttle_suspensions = suspensions_;
    stats.throttle_giveups = giveups_;
  }

  /// Zeroes the accounting for a fresh run on a reused engine.
  void reset_counters() {
    suspensions_ = 0;
    giveups_ = 0;
  }

 private:
  ThrottleConfig config_;
  std::uint64_t suspensions_ = 0;
  std::uint64_t giveups_ = 0;
};

/// One speculative attempt's private state (SchedPolicy::spec).  A
/// speculation never needs pre-write snapshots: its writes land in the
/// shadow buffers, so discarding them IS the rollback, which is also why a
/// speculative task stays restartable by construction.
struct SpecAttempt {
  TaskNode* task = nullptr;
  bool active = false;     ///< live (uncommitted)
  bool body_done = false;  ///< the speculative body finished executing
  bool failed = false;     ///< body hit an unsupported op or threw
  double charge_base = 0;  ///< charged_work at speculative dispatch
  /// Snapshot-isolated buffers, one per declared non-pure-commute immediate
  /// object, in declaration order.
  std::vector<std::pair<ObjectId, std::vector<std::byte>>> shadows;
  /// Objects the body wrote (subset of shadows, first-write order).
  std::vector<ObjectId> dirty;
  /// Per-object serializer write epochs captured at snapshot time; the
  /// commit check compares them against the current epochs.
  std::vector<std::pair<ObjectId, std::uint64_t>> epochs;
  /// Objects whose unexercised-writer predecessors the speculation bets
  /// on — the conflict-history throttle's accounting key.
  std::vector<ObjectId> contested;
};

/// Outcome of the commit check.
enum class SpecVerdict : std::uint8_t {
  kCommit,    ///< clean body, unchanged epochs: the buffered writes stand
  kFailed,    ///< the body failed (or the engine doomed it): plain abort
  kConflict,  ///< a contested write materialized: abort, charge history
};

/// The speculation lifecycle (SchedPolicy::spec), engine-independent.  Owns
/// the candidate list and the pending commit decisions, the live budget,
/// the per-object abort history that stops re-speculating past objects that
/// keep conflicting, and the counters engines publish into RuntimeStats.
/// Decisions never touch unordered iteration (the abort history is keyed
/// lookups only), so they are deterministic.
class SpeculationGovernor {
 public:
  explicit SpeculationGovernor(SpecConfig config) : config_(config) {}

  bool enabled() const { return config_.enabled; }

  /// True while the live-speculation budget has room.
  bool can_start() const {
    return config_.enabled && live_ < config_.max_live;
  }

  /// Registers a just-created task as a run-ahead target when it can be
  /// one — pending, a host task, and not explicitly placed; true if so.
  bool offer(TaskNode* task) {
    if (!config_.enabled || task->state() != TaskState::kPending ||
        task->tenant() != nullptr || task->placement >= 0)
      return false;
    candidates_.push_back(task);
    return true;
  }
  bool has_candidates() const { return !candidates_.empty(); }

  /// Scans the oldest kWindow live candidates in creation order, dropping
  /// stale entries and denying (for good) those whose contested objects
  /// keep conflicting.  Returns the first eligible candidate `accept(task)`
  /// takes — removed from the list, its contested objects in `contested` —
  /// or nullptr.  `accept` is the engine's own filter (placement, fault
  /// risk); a task it refuses stays a candidate.
  template <class Accept>
  TaskNode* pick(const Serializer& ser, std::vector<ObjectId>* contested,
                 Accept&& accept) {
    std::size_t i = 0;
    std::size_t examined = 0;
    while (i < candidates_.size() && examined < kWindow) {
      TaskNode* task = candidates_[i];
      const auto at = candidates_.begin() + static_cast<std::ptrdiff_t>(i);
      if (task->state() != TaskState::kPending || task->speculating()) {
        candidates_.erase(at);
        continue;
      }
      ++examined;
      if (!ser.spec_eligible(task, contested)) {
        ++i;  // may become eligible once a predecessor weakens
        continue;
      }
      if (any_throttled(*contested)) {
        // This object keeps conflicting; stop betting on it.  The task is
        // dropped from the candidate list for good — it runs normally.
        ++denied_;
        candidates_.erase(at);
        continue;
      }
      if (!accept(task)) {
        ++i;
        continue;
      }
      candidates_.erase(at);
      return task;
    }
    return nullptr;
  }

  /// Starts `task` speculatively into `att`: flips it in the serializer,
  /// books the start, and captures snapshot-isolated copies of every
  /// declared immediate object (`read(obj)` returns its current bytes) with
  /// its write epoch.  Pure-commute rights are excluded: exercising one
  /// aborts the attempt.  The caller makes the bytes+epoch capture atomic
  /// with respect to conflicting writers.
  template <class Read>
  void start(SpecAttempt& att, TaskNode* task, Serializer& ser,
             std::vector<ObjectId> contested, Read&& read) {
    ser.spec_start(task);
    ++live_;
    ++started_;
    att = SpecAttempt{};
    att.task = task;
    att.active = true;
    att.charge_base = task->charged_work;
    att.contested = std::move(contested);
    for (const DeclRecord& rec : task->ordered_records()) {
      if (rec.immediate == 0 || rec.immediate == access::kCommute) continue;
      att.epochs.emplace_back(rec.obj(), ser.write_epoch(rec.obj()));
      att.shadows.emplace_back(rec.obj(), read(rec.obj()));
    }
  }

  /// The speculative body's accessor: the shadow buffer for `obj`, marking
  /// it dirty on a write.  An undeclared, commuting or pure-commute access
  /// throws SpeculationUnwind — the normal re-run raises the real error (or
  /// takes the commute token) at the same deterministic point.
  static std::byte* shadow_bytes(SpecAttempt& att, ObjectId obj,
                                 std::uint8_t mode);

  /// A speculating task the serializer enabled: its commit check is due.
  /// Queued rather than decided inline — serializer listeners must not
  /// re-enter the serializer.
  void defer_decision(TaskNode* task) { decide_.push_back(task); }
  /// The next queued decision still speculating (serial enable order), or
  /// nullptr.
  TaskNode* next_decision();

  /// The commit check, at serial enable time of a finished body.  `doomed`
  /// lets the engine veto a clean body (SimEngine: an object's owner died).
  SpecVerdict verdict(const SpecAttempt& att, const Serializer& ser,
                      bool doomed) const;

  /// Commit write-back: the task runs in serial order now, and each dirty
  /// shadow becomes the canonical bytes — `write(obj, bytes)`, before
  /// complete_task can enable any successor — with a new write epoch.
  /// Releases the buffers; `att.dirty` stays for the caller's trace.
  template <class Write>
  void commit(SpecAttempt& att, Serializer& ser, Write&& write) {
    ser.spec_commit(att.task);  // kReady -> kRunning, in serial order
    --live_;
    ++committed_;
    att.active = false;
    for (ObjectId obj : att.dirty) {
      for (const auto& [sobj, bytes] : att.shadows) {
        if (sobj != obj) continue;
        write(obj, bytes);
        break;
      }
      ser.bump_write_epoch(obj);
    }
    att.shadows.clear();
    att.epochs.clear();
  }

  /// Abort rewind: books the discarded shadow bytes and charge as waste
  /// (and, for a data conflict, the contested objects' history), rewinds
  /// the task's charge and serializer state, and clears `att`.  Returns
  /// the wasted charge units.
  double abort(SpecAttempt& att, Serializer& ser, bool charge_history);

  /// Folds the accounting into the run's stats.
  void publish(RuntimeStats& stats) const;

  /// Zeroes accounting, history and queues for a fresh run on a reused
  /// engine.
  void reset();

 private:
  bool any_throttled(const std::vector<ObjectId>& objs) const;

  /// How far down the pending backlog the candidate scan looks.
  static constexpr std::size_t kWindow = 32;

  SpecConfig config_;
  int live_ = 0;
  std::uint64_t started_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t denied_ = 0;
  std::uint64_t wasted_bytes_ = 0;
  double wasted_work_ = 0;
  std::unordered_map<ObjectId, int> conflict_history_;
  /// Pending tasks in creation order — the candidate scan window.
  std::deque<TaskNode*> candidates_;
  /// Speculating tasks the serializer enabled, awaiting their commit check.
  std::deque<TaskNode*> decide_;
};

/// Splits a pool of live-task slots among tenants in proportion to their
/// weights, returning one (quota_hi, quota_lo) window per weight.  Every
/// window is at least `min_window` slots — a starvation floor: the sum may
/// then exceed the pool, which only means the engine's backlog arbitrates
/// at the margin, never that a tenant stops dead.  quota_lo is half of
/// quota_hi (clamped to the floor), mirroring the global gate's hysteresis.
/// Zero/negative weights get the floor.  Empty input returns empty.
std::vector<std::pair<std::uint64_t, std::uint64_t>> fair_share_windows(
    std::uint64_t pool, const std::vector<double>& weights,
    std::uint64_t min_window);

}  // namespace jade
