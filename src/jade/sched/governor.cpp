#include "jade/sched/governor.hpp"

#include <algorithm>

#include "jade/support/error.hpp"

namespace jade {

TaskNode* CommuteTokenTable::holder(ObjectId obj) const {
  auto it = holder_.find(obj);
  return it == holder_.end() ? nullptr : it->second;
}

bool CommuteTokenTable::try_acquire(ObjectId obj, TaskNode* task) {
  auto it = holder_.find(obj);
  if (it == holder_.end()) {
    holder_.emplace(obj, task);
    held_[task].push_back(obj);
    return true;
  }
  return it->second == task;
}

void CommuteTokenTable::enqueue_waiter(ObjectId obj, TaskNode* task) {
  waiters_[obj].push_back(task);
}

bool CommuteTokenTable::release(ObjectId obj, TaskNode* task,
                                TaskNode** next_holder) {
  if (next_holder != nullptr) *next_holder = nullptr;
  auto h = holder_.find(obj);
  if (h == holder_.end() || h->second != task) return false;
  auto held = held_.find(task);
  JADE_ASSERT(held != held_.end());
  auto pos = std::find(held->second.begin(), held->second.end(), obj);
  JADE_ASSERT(pos != held->second.end());
  held->second.erase(pos);
  if (held->second.empty()) held_.erase(held);
  auto w = waiters_.find(obj);
  if (w != waiters_.end() && !w->second.empty()) {
    TaskNode* next = w->second.front();
    w->second.pop_front();
    h->second = next;
    held_[next].push_back(obj);
    if (next_holder != nullptr) *next_holder = next;
  } else {
    holder_.erase(h);
  }
  return true;
}

const std::vector<ObjectId>& CommuteTokenTable::held(TaskNode* task) const {
  static const std::vector<ObjectId> kNone;
  auto it = held_.find(task);
  return it == held_.end() ? kNone : it->second;
}

void CommuteTokenTable::remove_waiter(TaskNode* task) {
  for (auto& [obj, waiters] : waiters_) {
    auto it = std::find(waiters.begin(), waiters.end(), task);
    if (it != waiters.end()) waiters.erase(it);
  }
}

std::byte* SpeculationGovernor::shadow_bytes(SpecAttempt& att, ObjectId obj,
                                             std::uint8_t mode) {
  JADE_ASSERT(att.active);
  const DeclRecord* rec = att.task->find_record(obj);
  if (rec == nullptr ||
      (mode & static_cast<std::uint8_t>(~rec->immediate)) ||
      (mode & access::kCommute)) {
    throw SpeculationUnwind{};
  }
  for (auto& [sobj, bytes] : att.shadows) {
    if (sobj != obj) continue;
    if ((mode & access::kWrite) &&
        std::find(att.dirty.begin(), att.dirty.end(), obj) == att.dirty.end())
      att.dirty.push_back(obj);
    return bytes.data();
  }
  throw SpeculationUnwind{};  // no shadow (pure-commute record)
}

TaskNode* SpeculationGovernor::next_decision() {
  while (!decide_.empty()) {
    TaskNode* task = decide_.front();
    decide_.pop_front();
    if (task->speculating()) return task;  // else already decided
  }
  return nullptr;
}

SpecVerdict SpeculationGovernor::verdict(const SpecAttempt& att,
                                         const Serializer& ser,
                                         bool doomed) const {
  JADE_ASSERT(att.active && att.body_done &&
              att.task->state() == TaskState::kReady);
  if (att.failed || doomed) return SpecVerdict::kFailed;
  // The serializer is the commit check: the task is enabled in serial
  // order, and unchanged write epochs prove no conflicting write
  // materialized since the snapshot.
  for (const auto& [obj, epoch] : att.epochs)
    if (ser.write_epoch(obj) != epoch) return SpecVerdict::kConflict;
  return SpecVerdict::kCommit;
}

double SpeculationGovernor::abort(SpecAttempt& att, Serializer& ser,
                                  bool charge_history) {
  TaskNode* task = att.task;
  std::uint64_t wasted_bytes = 0;
  for (const auto& [obj, bytes] : att.shadows) wasted_bytes += bytes.size();
  const double wasted_work = task->charged_work - att.charge_base;
  --live_;
  ++aborted_;
  wasted_bytes_ += wasted_bytes;
  wasted_work_ += wasted_work;
  if (charge_history)
    for (ObjectId obj : att.contested) ++conflict_history_[obj];
  // The attempt's charge never happened (engines that keep a running total
  // count it as wasted work, mirroring ft kills).
  task->charged_work = att.charge_base;
  ser.spec_abort(task);
  att = SpecAttempt{};
  return wasted_work;
}

void SpeculationGovernor::publish(RuntimeStats& stats) const {
  stats.spec_started = started_;
  stats.spec_committed = committed_;
  stats.spec_aborted = aborted_;
  stats.spec_denied = denied_;
  stats.spec_wasted_bytes = wasted_bytes_;
  stats.spec_wasted_work = wasted_work_;
}

void SpeculationGovernor::reset() {
  live_ = 0;
  started_ = committed_ = aborted_ = denied_ = 0;
  wasted_bytes_ = 0;
  wasted_work_ = 0;
  conflict_history_.clear();
  candidates_.clear();
  decide_.clear();
}

bool SpeculationGovernor::any_throttled(
    const std::vector<ObjectId>& objs) const {
  for (ObjectId obj : objs) {
    auto it = conflict_history_.find(obj);
    if (it != conflict_history_.end() && it->second >= config_.conflict_limit)
      return true;
  }
  return false;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> fair_share_windows(
    std::uint64_t pool, const std::vector<double>& weights,
    std::uint64_t min_window) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(weights.size());
  if (weights.empty()) return out;
  if (min_window == 0) min_window = 1;
  double total = 0;
  for (double w : weights) total += std::max(w, 0.0);
  for (double w : weights) {
    std::uint64_t hi = min_window;
    if (total > 0 && w > 0) {
      const double share = static_cast<double>(pool) * (w / total);
      hi = std::max(min_window, static_cast<std::uint64_t>(share));
    }
    const std::uint64_t lo = std::max(min_window, hi / 2);
    out.emplace_back(hi, lo);
  }
  return out;
}

}  // namespace jade
