#include "jade/engine/thread_engine.hpp"

#include <algorithm>
#include <optional>

#include "jade/core/tenant.hpp"
#include "jade/support/error.hpp"
#include "jade/support/log.hpp"

namespace jade {

namespace {
/// Unwinds a waiting task after another task failed; never escapes.
struct EngineAborting {};

/// True inside a handler whose exception is EngineAborting.
bool engine_aborting_in_flight() {
  try {
    throw;
  } catch (const EngineAborting&) {
    return true;
  } catch (...) {
    return false;
  }
}
}  // namespace

struct ThreadEngine::Running : IntrusiveNode {
  enum class Park : std::uint8_t {
    kRunning,  ///< on its fiber
    kParking,  ///< wait registered; the fiber is switching out
    kParked,   ///< switched out; a wake pushes it onto a ready deque
    kWoken,    ///< woken; a native loop switches its fiber back in
  };

  Running(TaskNode* task, Fiber* fiber, MachineId lane)
      : task(task), fiber(fiber), lane(lane) {}

  TaskNode* const task;
  Fiber* const fiber;    ///< the carrier the body runs on
  const MachineId lane;  ///< where the task span began
  // Guarded by mu_ once the task may have waited:
  Wait wait = Wait::kNone;
  Park park = Park::kRunning;
  bool unblocked = false;  ///< the serializer's unblock notice arrived
  bool took_commute_token = false;
  ThrottleGate::Gates gates;  ///< what a suspended creator waits on
};

ThreadEngine::Running& ThreadEngine::running(TaskNode* task) {
  return *static_cast<Running*>(task->engine_data);
}

thread_local ThreadEngine* ThreadEngine::tls_engine_ = nullptr;
thread_local ThreadEngine::ThreadSlot* ThreadEngine::tls_slot_ = nullptr;

__attribute__((noinline)) ThreadEngine::ThreadSlot*
ThreadEngine::current_slot() const {
  asm volatile("");  // not a pure function: no caller may reuse its result
  return tls_engine_ == this ? tls_slot_ : nullptr;
}

ThreadEngine::ThreadEngine(int workers, ThrottleConfig throttle)
    : workers_requested_(workers), throttle_(throttle), serializer_(this) {
  JADE_ASSERT_MSG(workers >= 1, "ThreadEngine needs at least one worker");
  // Tenant-isolation oracle, called from create_task; objects_mu_ is a leaf.
  serializer_.set_tenant_oracle([this](ObjectId obj) {
    std::lock_guard<std::mutex> lock(objects_mu_);
    return objects_.info(obj).tenant;
  });
}

ThreadEngine::~ThreadEngine() {
  stop();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
}

// --- objects: none of these touch mu_ --------------------------------------

ObjectId ThreadEngine::allocate(TypeDescriptor type, std::string name,
                                MachineId /*home*/) {
  ObjectId id;
  std::size_t size;
  {
    std::lock_guard<std::mutex> lock(objects_mu_);
    id = objects_.add(std::move(type), std::move(name));
    size = objects_.info(id).byte_size();
  }
  buffers_.create(id, size);
  return id;
}

void ThreadEngine::put_bytes(ObjectId obj, std::span<const std::byte> data) {
  buffers_.put(obj, data);
}

std::vector<std::byte> ThreadEngine::get_bytes(ObjectId obj) {
  return buffers_.get(obj);
}

const ObjectInfo& ThreadEngine::object_info(ObjectId obj) const {
  std::lock_guard<std::mutex> lock(objects_mu_);
  return objects_.info(obj);
}

void ThreadEngine::set_object_tenant(ObjectId obj, TenantId tenant) {
  std::lock_guard<std::mutex> lock(objects_mu_);
  objects_.set_tenant(obj, tenant);
}

void ThreadEngine::release_object(ObjectId obj) {
  // The bytes and the (empty) queue go; the metadata stays, so a stale id
  // fails as one (StaleHandleError).
  buffers_.destroy(obj);
  serializer_.retire_queue(obj);
}

void ThreadEngine::notify_external() {
  external_.store(true, std::memory_order_seq_cst);
  wake_one();
}

// --- idle threads ----------------------------------------------------------

void ThreadEngine::wake_one() {
  // seq_cst pairs with idle_park's register-then-recheck: either we see the
  // thread registered, or it sees our work.  No idle thread costs one load.
  if (idle_count_.load(std::memory_order_seq_cst) == 0) return;
  ThreadSlot* victim = nullptr;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    if (!idle_stack_.empty()) {
      victim = idle_stack_.back();
      idle_stack_.pop_back();
      idle_count_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
  if (victim) victim->parker.unpark();
}

void ThreadEngine::idle_park(ThreadSlot* slot) {
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle_stack_.push_back(slot);
    idle_count_.fetch_add(1, std::memory_order_seq_cst);
  }
  bool wake_now = stop_.load(std::memory_order_seq_cst) ||
                  ready_count_.load(std::memory_order_seq_cst) > 0 ||
                  external_.load(std::memory_order_seq_cst);
  // Every thread idle: no task runs that could clear a throttle gate.
  if (!wake_now && throttle_waiters_.load(std::memory_order_seq_cst) > 0 &&
      idle_count_.load(std::memory_order_seq_cst) ==
          static_cast<int>(slots_.size())) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!throttled_.empty() &&
        ready_count_.load(std::memory_order_seq_cst) == 0) {
      // Only a suspended creator can make progress: the oldest gives up.
      Running* r = throttled_.front();
      throttled_.pop_front();
      throttle_waiters_.fetch_sub(1, std::memory_order_seq_cst);
      throttle_.note_giveup();
      tracer_.instant(obs::Subsystem::kEngine, "throttle.giveup",
                      r->task->id(), machine_of(r->task),
                      static_cast<double>(serializer_.backlog()));
      wake_locked(*r);
      wake_now = true;
    }
  }
  if (wake_now) {
    // Leave the idle set, unless a producer claimed the slot already: its
    // unpark is in flight, and park() consumes it.
    std::lock_guard<std::mutex> lock(idle_mu_);
    auto it = std::find(idle_stack_.begin(), idle_stack_.end(), slot);
    if (it != idle_stack_.end()) {
      idle_stack_.erase(it);
      idle_count_.fetch_sub(1, std::memory_order_seq_cst);
      return;
    }
  }
  ++slot->parks;
  slot->parker.park();
}

// --- dispatch --------------------------------------------------------------

void ThreadEngine::push_ready(TaskNode* task) {
  ThreadSlot* slot = current_slot();
  JADE_ASSERT_MSG(slot != nullptr, "task made ready on an unbound thread");
  slot->deque.push(task);
  slot->max_queue_depth =
      std::max(slot->max_queue_depth, slot->deque.size_estimate());
  ready_count_.fetch_add(1, std::memory_order_seq_cst);
  if (slot->local_grants > 0) {
    --slot->local_grants;  // the pushing thread will pop this one itself
    return;
  }
  wake_one();
}

void ThreadEngine::on_task_ready(TaskNode* task) { push_ready(task); }

void ThreadEngine::on_task_created(TaskNode* task) {
  // On the creator's thread, before a worker can run (and release) it.
  if (tracer_.enabled())
    tracer_.instant(obs::Subsystem::kEngine, "task.created", task->id(),
                    current_slot()->machine, 0, task->name());
}

void ThreadEngine::on_task_unblocked(TaskNode* task) {
  // The notice may arrive before the task parks; the flag then keeps it
  // from parking at all.
  std::lock_guard<std::mutex> lock(mu_);
  auto* r = static_cast<Running*>(task->engine_data);
  if (r == nullptr) return;  // a late notice for a wait a failure unwound
  r->unblocked = true;
  if (r->wait == Wait::kUnblock) wake_locked(*r);
}

TaskNode* ThreadEngine::find_task(ThreadSlot* self) {
  if (std::optional<TaskNode*> task = self->deque.pop()) {
    ready_count_.fetch_sub(1, std::memory_order_seq_cst);
    return *task;
  }
  const int n = static_cast<int>(slots_.size());
  // Two sweeps: ready_count_ > 0 after a failed sweep means an enqueue is in
  // flight; one yield-and-retry usually catches it.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int k = 1; k < n; ++k) {
      ThreadSlot* victim = slots_[static_cast<std::size_t>(
                                      (self->index + k) % n)]
                               .get();
      if (std::optional<TaskNode*> task = victim->deque.steal()) {
        ready_count_.fetch_sub(1, std::memory_order_seq_cst);
        ++self->stolen;
        if (tracer_.enabled())
          tracer_.instant(obs::Subsystem::kEngine, "steal", (*task)->id(),
                          self->machine, victim->machine);
        return *task;
      }
    }
    if (ready_count_.load(std::memory_order_seq_cst) <= 0) break;
    std::this_thread::yield();
  }
  return nullptr;
}

bool ThreadEngine::spin_for_work() {
  constexpr int kIdleSpins = 32;
  for (int i = 0; i < kIdleSpins; ++i) {
    if (stop_.load(std::memory_order_acquire) ||
        ready_count_.load(std::memory_order_seq_cst) > 0)
      return true;
    std::this_thread::yield();
  }
  return false;
}

// --- threads and fibers ----------------------------------------------------

Fiber* ThreadEngine::new_carrier() {
  std::unique_lock<std::mutex> lock(stacks_mu_);
  Fiber* f = stacks_.acquire();
  lock.unlock();
  fiber_start(
      f, [](void* self) { static_cast<ThreadEngine*>(self)->carrier_loop(); },
      this);
  return f;
}

void ThreadEngine::thread_main(ThreadSlot* slot) {
  // Restored at the end, for a task body that runs a nested Runtime.
  ThreadEngine* const outer_engine = tls_engine_;
  ThreadSlot* const outer_slot = tls_slot_;
  tls_engine_ = this;
  tls_slot_ = slot;
  Fiber* f = new_carrier();
  while (f != nullptr) {
    slot->current = f;
    if (fiber_resume(f)) {  // a carrier ended: stop, or a woken task
      {
        std::lock_guard<std::mutex> lock(stacks_mu_);
        stacks_.release(f);
      }
      f = std::exchange(slot->next, nullptr);
      if (f != nullptr) unsuspend();
      continue;
    }
    // The task on `f` parked.  Only now, with its fiber out, may a waker
    // hand it to any thread; one woken meanwhile goes straight back in.
    Running* r = std::exchange(slot->parking, nullptr);
    std::unique_lock<std::mutex> lock(mu_);
    if (r->park == Running::Park::kWoken) {
      lock.unlock();
      unsuspend();
    } else {
      r->park = Running::Park::kParked;
      lock.unlock();
      f = new_carrier();
    }
  }
  tls_engine_ = outer_engine;
  tls_slot_ = outer_slot;
}

void ThreadEngine::carrier_loop() {
  // The caller's thread's first carrier runs the original task.
  if (current_slot()->index == 0 && root_body_) run_root();
  for (;;) {
    // Re-read every pass: the task executed last may have moved threads.
    ThreadSlot* slot = current_slot();
    if (stop_.load(std::memory_order_acquire)) return;
    if (external_.load(std::memory_order_relaxed) &&
        external_.exchange(false, std::memory_order_seq_cst)) {
      // Cancelled tenants' creators and commute waiters unwind.
      std::lock_guard<std::mutex> lock(mu_);
      wake_parked_locked([](const Running& r) {
        const TenantCtl* ctl = r.task->tenant();
        return r.wait != Wait::kUnblock && ctl != nullptr &&
               ctl->cancelled.load(std::memory_order_relaxed);
      });
    }
    TaskNode* task = find_task(slot);
    if (task == nullptr) {
      if (!spin_for_work()) idle_park(slot);
      continue;
    }
    if (task->engine_data != nullptr) {  // woken: its fiber takes over
      slot->next = running(task).fiber;
      return;
    }
    execute(task, slot);
  }
}

void ThreadEngine::unsuspend() {
  if (suspended_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
      failed_.load(std::memory_order_seq_cst))
    stop();
}

void ThreadEngine::stop() {
  stop_.store(true, std::memory_order_seq_cst);
  std::vector<ThreadSlot*> idle;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle.swap(idle_stack_);
    idle_count_.store(0, std::memory_order_seq_cst);
  }
  for (ThreadSlot* slot : idle) slot->parker.unpark();
}

void ThreadEngine::stop_if_drained() {
  // seq_cst: the root's completion and the last task's see each other.
  if (root_done_.load() && serializer_.outstanding() == 0) stop();
}

// --- waiting ---------------------------------------------------------------

void ThreadEngine::park_locked(std::unique_lock<std::mutex>& lock,
                               Running& r, Wait why) {
  r.wait = why;
  r.park = Running::Park::kParking;
  parked_.push_back(&r);
  suspended_.fetch_add(1, std::memory_order_seq_cst);
  current_slot()->parking = &r;
  lock.unlock();
  fiber_yield(r.fiber);
  lock.lock();  // resumed, maybe on another thread
  r.park = Running::Park::kRunning;
  r.wait = Wait::kNone;
  r.task->assigned_machine = current_slot()->machine;
}

void ThreadEngine::wake_locked(Running& r) {
  switch (r.park) {
    case Running::Park::kParking:  // its own thread switches it back in
      r.park = Running::Park::kWoken;
      break;
    case Running::Park::kParked:
      r.park = Running::Park::kWoken;
      push_ready(r.task);
      break;
    default:
      return;  // running, or already woken
  }
  IntrusiveList<Running>::unlink(&r);
}

void ThreadEngine::wait_unblocked(Running& r,
                                  std::unique_lock<std::mutex>& lock) {
  // Every wait edge points to a record strictly ahead in some queue: the
  // waits-for graph is acyclic, and the unblock arrives unless a task fails.
  if (!r.unblocked) {
    if (first_error_) throw EngineAborting{};
    park_locked(lock, r, Wait::kUnblock);
    if (!r.unblocked) throw EngineAborting{};  // woken by a failure
  }
  r.unblocked = false;
}

bool ThreadEngine::gates_clear(const Running& r) const {
  return (!r.gates.global || throttle_.backlog_drained(serializer_.backlog())) &&
         (!r.gates.tenant || throttle_.tenant_clear(r.task->tenant()));
}

void ThreadEngine::maybe_release_throttled_locked() {
  for (auto it = throttled_.begin(); it != throttled_.end();) {
    Running* r = *it;
    if (!gates_clear(*r)) {
      ++it;
      continue;
    }
    it = throttled_.erase(it);
    throttle_waiters_.fetch_sub(1, std::memory_order_seq_cst);
    wake_locked(*r);
  }
}

template <class Pick>
void ThreadEngine::wake_parked_locked(Pick&& pick) {
  parked_.for_each([&](Running* r) {
    if (!pick(*r)) return;
    if (r->wait == Wait::kThrottle) {
      std::erase(throttled_, r);
      throttle_waiters_.fetch_sub(1, std::memory_order_seq_cst);
    }
    if (r->wait == Wait::kCommute) commute_.remove_waiter(r->task);
    wake_locked(*r);
  });
}

void ThreadEngine::record_error(std::exception_ptr err) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = err;
    failed_.store(true, std::memory_order_seq_cst);
    // Every parked task unwinds before the run ends; none parks from now on.
    wake_parked_locked([](const Running&) { return true; });
  }
  if (suspended_.load(std::memory_order_seq_cst) == 0) stop();
}

void ThreadEngine::enable_tracing(const ObsConfig& cfg) {
  Engine::enable_tracing(cfg);
  trace_epoch_ = std::chrono::steady_clock::now();
}

// --- running the graph -----------------------------------------------------

void ThreadEngine::run(std::function<void(TaskContext&)> root_body) {
  if (ran_) {
    // Sequential reuse: reset the quiescent scheduling state for a fresh
    // graph; objects and buffers persist (allocate-once semantics).
    JADE_ASSERT_MSG(workers_.empty(),
                    "run() re-entered while a previous run is active");
    serializer_.reset();
    commute_ = CommuteTokenTable{};
    throttle_.reset_counters();
    first_error_ = nullptr;
    failed_.store(false);
    root_done_.store(false);
    stats_ = RuntimeStats{};
    ready_count_.store(0);
    idle_stack_.clear();
    idle_count_.store(0);
    stop_.store(false);
  }
  ran_ = true;
  root_body_ = std::move(root_body);
  // The pool's slots report machines 0..workers-1, the caller's thread 0.
  slots_.clear();
  for (int i = 0; i <= workers_requested_; ++i)
    slots_.push_back(std::make_unique<ThreadSlot>(i, i == 0 ? 0 : i - 1));
  for (std::size_t i = 1; i < slots_.size(); ++i)
    workers_.emplace_back(&ThreadEngine::thread_main, this, slots_[i].get());
  // The caller's thread runs the original task (Figure 7(a)) first.
  thread_main(slots_[0].get());
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  // Fold the per-thread stat cells now that every owner thread is joined.
  std::vector<std::uint64_t> executed(
      static_cast<std::size_t>(workers_requested_), 0);
  std::vector<std::uint64_t> stolen(executed.size(), 0);
  std::vector<std::size_t> depth(executed.size(), 0);
  for (const std::unique_ptr<ThreadSlot>& s : slots_) {
    stats_.total_charged_work += s->charged;
    stats_.tasks_stolen += s->stolen;
    stats_.worker_parks += s->parks;
    const auto m = static_cast<std::size_t>(s->machine);
    executed[m] += s->executed;
    stolen[m] += s->stolen;
    depth[m] = std::max(depth[m], s->max_queue_depth);
  }
  for (std::size_t m = 0; m < executed.size(); ++m) {
    const std::string prefix = "engine.worker" + std::to_string(m);
    metrics_.counter(prefix + ".executed").set(executed[m]);
    metrics_.counter(prefix + ".stolen").set(stolen[m]);
    metrics_.gauge(prefix + ".max_queue_depth")
        .set(static_cast<double>(depth[m]));
  }
  stats_.tasks_created = serializer_.tasks_created();
  throttle_.publish(stats_);
  publish_runtime_stats();
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadEngine::run_root() {
  const std::function<void(TaskContext&)> body = std::move(root_body_);
  root_body_ = nullptr;
  TaskNode* root = serializer_.root();
  ThreadSlot* slot = current_slot();
  root->assigned_machine = slot->machine;
  Running r(root, slot->current, slot->machine);
  TaskContext ctx(this, root);
  if (run_task(r, [&] { body(ctx); })) serializer_.complete_task(root);
  root_done_.store(true, std::memory_order_seq_cst);
  stop_if_drained();
}

template <class Body>
bool ThreadEngine::run_task(Running& r, Body&& body) {
  r.task->engine_data = &r;
  bool failed = false;
  try {
    body();
  } catch (const EngineAborting&) {
    failed = true;  // unwound because another task already failed
  } catch (...) {
    record_error(std::current_exception());
    failed = true;
  }
  // A failed task may still get a notice, read under mu_.
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (r.took_commute_token || failed) {
    lock.lock();
    commute_.release_all(r.task, [this](TaskNode* next, ObjectId) {
      wake_locked(running(next));
    });
  }
  r.task->engine_data = nullptr;
  return !failed;
}

void ThreadEngine::execute(TaskNode* task, ThreadSlot* slot) {
  // A failing run only unwinds its parked tasks; new ones stay unstarted.
  if (failed_.load(std::memory_order_relaxed)) return;
  serializer_.task_started(task);
  // Starting a task shrinks the backlog suspended creators watch.  Both
  // sides are seq_cst (creator: register, read backlog; here the reverse).
  if (throttle_waiters_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    maybe_release_throttled_locked();
  }
  task->assigned_machine = slot->machine;
  if (tracer_.enabled()) {
    // The "placement" is which worker claimed the task: the candidates are
    // the slots with their queue depths, so sched.place has one shape.
    std::vector<int> depths;
    for (const std::unique_ptr<ThreadSlot>& s : slots_)
      depths.push_back(static_cast<int>(s->deque.size_estimate()));
    PlacementExplain explain;
    explain_claim(depths, slot->machine, &explain);
    tracer_.instant(obs::Subsystem::kSched, "sched.place", task->id(),
                    slot->machine,
                    static_cast<double>(explain.candidates.size()),
                    format_placement_explain(explain));
    tracer_.instant(obs::Subsystem::kEngine, "task.dispatched", task->id(),
                    slot->machine);
    tracer_.span_begin(obs::Subsystem::kEngine, "task", task->id(),
                       slot->machine, task->name());
  }
  JADE_TRACE("exec-start " << task->name());
  Running r(task, slot->current, slot->machine);
  TaskContext ctx(this, task);
  const bool failed = !run_task(
      r, [&] { run_body(task, ctx, engine_aborting_in_flight); });
  slot = current_slot();  // the body may have parked and moved threads
  task->body = nullptr;
  bool drained = false;
  if (!failed) {
    // Newly enabled tasks land in this thread's deque, the first without a
    // wakeup (see ThreadSlot::local_grants).
    slot->local_grants = 1;
    serializer_.complete_task(task);
    slot->local_grants = 0;
    drained = serializer_.outstanding() == 0;
  }
  // Completions shrink tenant windows.  The fence pairs with spawn()'s:
  // either its gate check sees this completion or this sees the creator.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (throttle_waiters_.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    maybe_release_throttled_locked();
  }
  if (drained) stop_if_drained();
  if (failed) return;  // leave incomplete; run() aborts on first_error_
  ++slot->executed;
  // Nothing else holds a completed task: read it, then recycle it.
  tracer_.span_end(obs::Subsystem::kEngine, "task", task->id(), r.lane,
                   task->charged_work);
  JADE_TRACE("exec-done " << task->name()
             << " backlog=" << slot->deque.size_estimate());
  serializer_.release(task);
}

// --- TaskContext backend ---------------------------------------------------

void ThreadEngine::spawn(TaskNode* parent,
                         const std::vector<AccessRequest>& requests,
                         TaskContext::BodyFn body, std::string name,
                         MachineId /*placement*/, TenantCtl* tenant) {
  // The creator's own tenant (not the child's): the dispatcher launching a
  // program root is a host task and is never gated or unwound.
  TenantCtl* pctl = spawn_prologue(parent);
  // The new task may run, complete and be recycled before create_task
  // returns, so its node is not read here (on_task_created traces it).
  serializer_.create_task(parent, requests, std::move(body), std::move(name),
                          tenant);
  const ThrottleGate::Gates gate =
      throttle_.gates(serializer_.backlog(), pctl);
  if (!gate.any()) return;

  // Too much exploited concurrency — globally (Section 3.3) or against this
  // tenant's quota window: suspend the creator until the pressure drains.
  std::unique_lock<std::mutex> lock(mu_);
  if (first_error_) throw EngineAborting{};
  throttle_.note_suspension();
  tracer_.instant(obs::Subsystem::kEngine, "throttle.suspend", parent->id(),
                  machine_of(parent),
                  static_cast<double>(serializer_.backlog()));
  JADE_TRACE("throttle-enter " << parent->name()
             << " backlog=" << serializer_.backlog());
  Running& r = running(parent);
  r.gates = gate;
  throttle_waiters_.fetch_add(1, std::memory_order_seq_cst);
  // Pairs with execute()'s fence.  Should every thread go idle meanwhile,
  // idle_park gives the oldest creator up.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (gates_clear(r)) {
    throttle_waiters_.fetch_sub(1, std::memory_order_seq_cst);
  } else {
    throttled_.push_back(&r);
    park_locked(lock, r, Wait::kThrottle);
    if (first_error_) throw EngineAborting{};
  }
  tracer_.instant(obs::Subsystem::kEngine, "throttle.resume", parent->id(),
                  machine_of(parent),
                  static_cast<double>(serializer_.backlog()));
  // A tenant torn down while its creator slept unwinds at this edge.
  if (pctl != nullptr && pctl->cancelled.load(std::memory_order_relaxed))
    throw TenantUnwind{};
}

void ThreadEngine::with_cont(TaskNode* task,
                             const std::vector<AccessRequest>& requests) {
  const bool must_block = serializer_.update_spec(task, requests);
  std::unique_lock<std::mutex> lock(mu_);
  // no_cm hands the commute token on early.
  commute_.release_retired(task, requests, [this](TaskNode* next, ObjectId) {
    wake_locked(running(next));
  });
  if (must_block) wait_unblocked(running(task), lock);
}

std::byte* ThreadEngine::acquire_bytes(TaskNode* task, ObjectId obj,
                                       std::uint8_t mode) {
  // The access check takes no engine lock (nor, for an unshadowed
  // non-commute record, a queue lock); mu_ only for a wait or a token.  The
  // stable pointer comes first, so a stale id fails before any change.
  std::byte* bytes = buffers_.data(obj);
  const bool must_block = serializer_.acquire(task, obj, mode);
  if (!must_block && !(mode & access::kCommute)) return bytes;
  std::unique_lock<std::mutex> lock(mu_);
  Running& r = running(task);
  if (must_block) wait_unblocked(r, lock);
  if (mode & access::kCommute) {
    // Queue for the token until the holder completes (or retires it via
    // no_cm) and hands it over.  A task holding a commute accessor must not
    // block on a deferred conversion, or holder and waiter could form a
    // cycle the serial order does not rank (see DESIGN.md).
    TenantCtl* ctl = task->tenant();
    const auto cancelled = [ctl] {
      return ctl != nullptr && ctl->cancelled.load(std::memory_order_relaxed);
    };
    if (cancelled()) throw TenantUnwind{};
    if (!commute_.try_acquire(obj, task)) {
      if (first_error_) throw EngineAborting{};
      commute_.enqueue_waiter(obj, task);
      park_locked(lock, r, Wait::kCommute);
      // Not handed the token: dequeued by a failure or a cancellation.
      if (commute_.holder(obj) != task) {
        if (cancelled()) throw TenantUnwind{};
        throw EngineAborting{};
      }
    }
    r.took_commute_token = true;
  }
  return bytes;
}

void ThreadEngine::charge(TaskNode* task, double units) {
  // No lock: the executing thread owns the task and its slot's cell.
  task->charged_work += units;
  if (ThreadSlot* slot = current_slot()) {
    slot->charged += units;
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.total_charged_work += units;
  }
}

}  // namespace jade
