#include "jade/core/queues.hpp"

#include <new>
#include <sstream>

#include "jade/core/tenant.hpp"
#include "jade/support/error.hpp"

namespace jade {

DeclRecord* TaskNode::find_record(ObjectId obj) {
  DeclRecord* recs = records();
  for (std::uint32_t i = 0; i < nrecords_; ++i)
    if (recs[i].queue->obj == obj) return &recs[i];
  return nullptr;
}

Serializer::Serializer(SerializerListener* listener) : listener_(listener) {
  JADE_ASSERT(listener != nullptr);
  make_root();
}

void Serializer::make_root() {
  root_ = std::make_unique<TaskNode>();
  root_->id_ = 0;
  root_->name_ = "root";
  root_->root_ = true;
  root_->state_ = TaskState::kRunning;
}

TaskNode* Serializer::alloc_node() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (spare_ == nullptr)
    spare_ = released_.exchange(nullptr, std::memory_order_acquire);
  if (spare_ == nullptr) {
    TaskNode* chunk =
        chunks_.emplace_back(std::make_unique<TaskNode[]>(kChunkNodes)).get();
    for (std::size_t i = kChunkNodes; i-- > 0;) {
      chunk[i].next_free_ = spare_;
      spare_ = &chunk[i];
    }
  }
  TaskNode* node = spare_;
  spare_ = node->next_free_;
  node->next_free_ = nullptr;
  return node;
}

void Serializer::release(TaskNode* task) {
  JADE_ASSERT_MSG(task->state_ == TaskState::kCompleted && !task->root_,
                  "release of a task that has not completed");
  // A recycled node must be indistinguishable from a fresh one.
  task->~TaskNode();
  auto* node = new (task) TaskNode();
  node->next_free_ = released_.load(std::memory_order_relaxed);
  while (!released_.compare_exchange_weak(node->next_free_, node,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
  }
}

std::size_t Serializer::live_tasks() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (TaskNode* got = released_.exchange(nullptr, std::memory_order_acquire)) {
    TaskNode* tail = got;
    while (tail->next_free_ != nullptr) tail = tail->next_free_;
    tail->next_free_ = spare_;
    spare_ = got;
  }
  std::size_t free = 0;
  for (TaskNode* n = spare_; n != nullptr; n = n->next_free_) ++free;
  return chunks_.size() * kChunkNodes - free;
}

std::size_t Serializer::queue_count() const {
  std::size_t n = 0;
  for (QueueShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.queues.size();
  }
  return n;
}

void Serializer::retire_queue(ObjectId obj) {
  ObjectQueue* q = find_queue(obj);
  if (q == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(q->mu);
    JADE_ASSERT_MSG(q->records.empty(),
                    "retiring a declaration queue that still holds records");
  }
  QueueShard& shard = shards_[obj % kQueueShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.queues.erase(obj);
}

void Serializer::reset() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    chunks_.clear();
    spare_ = nullptr;
    released_.store(nullptr, std::memory_order_relaxed);
  }
  for (QueueShard& shard : shards_) shard.queues.clear();
  next_task_id_.store(1);
  outstanding_.store(0);
  unstarted_.store(0);
  make_root();
}

Serializer::~Serializer() = default;

ObjectQueue& Serializer::queue_for(ObjectId obj) {
  QueueShard& shard = shards_[obj % kQueueShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.queues.try_emplace(obj);
  if (inserted) it->second.obj = obj;
  return it->second;
}

ObjectQueue* Serializer::find_queue(ObjectId obj) const {
  QueueShard& shard = shards_[obj % kQueueShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.queues.find(obj);
  return it == shard.queues.end() ? nullptr : &it->second;
}

void Serializer::deliver(Notices& notices) {
  for (TaskNode* t : notices.ready) listener_->on_task_ready(t);
  for (TaskNode* t : notices.unblocked) listener_->on_task_unblocked(t);
  notices.ready.clear();
  notices.unblocked.clear();
}

void Serializer::check_coverage(TaskNode* parent,
                                const AccessRequest& req) const {
  const std::uint8_t need =
      static_cast<std::uint8_t>(req.add_immediate | req.add_deferred);
  DeclRecord* rec = parent->find_record(req.obj);
  const std::uint8_t have = rec ? rec->effective() : 0;
  if (need & static_cast<std::uint8_t>(~have)) {
    std::ostringstream os;
    os << "task '" << parent->name() << "' (id " << parent->id()
       << ") creates a child declaring '" << access::bits_name(need)
       << "' on object " << req.obj << " but holds only '"
       << access::bits_name(have)
       << "' — a parent's specification must cover its children's accesses";
    throw HierarchyViolationError(os.str());
  }
}

TaskNode* Serializer::create_task(TaskNode* parent,
                                  const std::vector<AccessRequest>& requests,
                                  std::function<void(TaskContext&)> body,
                                  std::string name, TenantCtl* tenant) {
  JADE_ASSERT(parent != nullptr);
  JADE_ASSERT_MSG(parent->state_ == TaskState::kRunning,
                  "tasks can only be created from a running task");

  TenantCtl* ctl = tenant != nullptr ? tenant : parent->tenant_;
  if (ctl != nullptr && tenant_oracle_) {
    // Isolation pre-pass, before any state changes: a tenant task may only
    // declare accesses to its own or shared objects.  Failing here leaves
    // the serializer exactly as it was — only the offending tenant suffers.
    for (const AccessRequest& req : requests) {
      const TenantId owner = tenant_oracle_(req.obj);
      if (owner != kSharedTenant && owner != ctl->id) {
        std::ostringstream os;
        os << "tenant " << ctl->id << " task '" << name
           << "' declares an access to object " << req.obj
           << " owned by tenant " << owner
           << " — tenants may only access their own or shared objects";
        throw TenantIsolationError(os.str());
      }
    }
  }

  // Specification pre-pass, also before any state changes.  Program roots
  // are exempt from the coverage rule the way root children are: they begin
  // a fresh program whose accesses their host parent (the server
  // dispatcher, which declares nothing) never made.
  const bool needs_cover = !parent->is_root() && !parent->program_root_;
  for (const AccessRequest& req : requests) {
    if (req.remove != 0) {
      throw SpecUpdateError(
          "no_rd/no_wr/no_cm are with-cont statements; they cannot appear in "
          "a withonly declaration");
    }
    if (needs_cover && (req.add_immediate | req.add_deferred) != 0)
      check_coverage(parent, req);
  }

  TaskNode* task = alloc_node();
  task->id_ = next_task_id_.fetch_add(1, std::memory_order_relaxed);
  task->name_ = name.empty() ? "task#" + std::to_string(task->id_)
                             : std::move(name);
  task->tenant_ = ctl;
  task->program_root_ = tenant != nullptr;
  task->body = std::move(body);
  // Creation guard: the task cannot be reported ready while its records
  // are being linked and checked, whatever other threads retire meanwhile.
  task->start_pending_.store(1, std::memory_order_relaxed);
  if (requests.size() > TaskNode::kInlineRecords)
    task->overflow_records_ = std::make_unique<DeclRecord[]>(requests.size());
  DeclRecord* recs = task->records();

  for (const AccessRequest& req : requests) {
    const std::uint8_t bits =
        static_cast<std::uint8_t>(req.add_immediate | req.add_deferred);
    if (bits == 0) continue;
    JADE_ASSERT_MSG(task->find_record(req.obj) == nullptr,
                    "duplicate declaration for one object in one withonly");

    DeclRecord* rec = &recs[task->nrecords_];
    rec->task = task;
    rec->immediate = req.add_immediate;
    rec->deferred = req.add_deferred;

    DeclRecord* parent_rec = parent->find_record(req.obj);
    ObjectQueue& q =
        parent_rec != nullptr ? *parent_rec->queue : queue_for(req.obj);
    rec->queue = &q;
    {
      std::lock_guard<std::mutex> lock(q.mu);
      if (parent_rec != nullptr && parent_rec->linked()) {
        link_before(q, parent_rec, rec);
        parent_rec->shadowed = true;
      } else {
        link_back(q, rec);
      }
    }
    ++task->nrecords_;
  }

  // Determine which immediate records are not yet enabled.
  for (std::uint32_t i = 0; i < task->nrecords_; ++i) {
    DeclRecord& rec = recs[i];
    if (rec.immediate == 0) continue;
    ObjectQueue& q = *rec.queue;
    std::lock_guard<std::mutex> lock(q.mu);
    if (!is_enabled(q, &rec, rec.immediate)) {
      set_counted(q, &rec, true);
      rec.wait_bits = rec.immediate;
      task->start_pending_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  outstanding_.fetch_add(1);
  unstarted_.fetch_add(1);
  if (ctl != nullptr) {
    ctl->tasks_created.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t live =
        ctl->live.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t peak = ctl->max_live.load(std::memory_order_relaxed);
    while (live > peak &&
           !ctl->max_live.compare_exchange_weak(peak, live,
                                                std::memory_order_relaxed)) {
    }
  }
  listener_->on_task_created(task);
  if (task->start_pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    task->state_ = TaskState::kReady;
    listener_->on_task_ready(task);
  }
  return task;
}

void Serializer::task_started(TaskNode* task) {
  JADE_ASSERT_MSG(task->state_ == TaskState::kReady,
                  "task_started on a task that is not ready");
  task->state_ = TaskState::kRunning;
  JADE_ASSERT(unstarted_.fetch_sub(1) > 0);
}

bool Serializer::update_spec(TaskNode* task,
                             const std::vector<AccessRequest>& requests) {
  JADE_ASSERT_MSG(task->state_ == TaskState::kRunning,
                  "with-cont outside a running task");
  JADE_ASSERT(task->block_pending_.load(std::memory_order_relaxed) == 0);
  // Conversion guard: a concurrent reevaluation cannot report this task
  // unblocked while its records convert; the return value carries it.
  task->block_pending_.store(1, std::memory_order_relaxed);

  std::vector<ObjectQueue*> touched_queues;
  try {
    for (const AccessRequest& req : requests) {
      DeclRecord* rec = task->find_record(req.obj);
      if (rec == nullptr) {
        std::ostringstream os;
        os << "with-cont names object " << req.obj << " which task '"
           << task->name()
           << "' never declared; new rights cannot be added mid-task (their "
              "queue position would violate the serial order)";
        throw SpecUpdateError(os.str());
      }
      ObjectQueue& q = *rec->queue;
      std::lock_guard<std::mutex> lock(q.mu);

      // Retirements first, so `no_rd(o); ...` frees successors even when the
      // same update also converts other bits of the same object.
      if (req.remove != 0) {
        if (weaken_record(q, rec, req.remove)) touched_queues.push_back(&q);
      }

      const std::uint8_t held = rec->effective();
      const std::uint8_t want_imm = req.add_immediate;
      const std::uint8_t want_def = req.add_deferred;
      if ((want_imm | want_def) & static_cast<std::uint8_t>(~held)) {
        std::ostringstream os;
        os << "with-cont on object " << req.obj << " requests '"
           << access::bits_name(
                  static_cast<std::uint8_t>(want_imm | want_def))
           << "' but task '" << task->name() << "' holds only '"
           << access::bits_name(held)
           << "' — with-cont may only convert previously deferred rights or "
              "retire rights";
        throw SpecUpdateError(os.str());
      }

      // Convert deferred -> immediate (rd/wr/cm on a df_* right); converting
      // an already-immediate bit is a harmless no-op.
      rec->deferred &= static_cast<std::uint8_t>(~want_imm);
      rec->immediate |= want_imm;
      // Downgrade immediate -> deferred (documented extension: release the
      // right now, reconvert later; other tasks are unaffected since the
      // effective bits do not change).
      const std::uint8_t downgrade =
          static_cast<std::uint8_t>(want_def & rec->immediate);
      rec->immediate &= static_cast<std::uint8_t>(~downgrade);
      rec->deferred |= downgrade;

      if (want_imm != 0) {
        JADE_ASSERT(!rec->counted);
        if (rec->linked() && !is_enabled(q, rec, rec->immediate)) {
          set_counted(q, rec, true);
          rec->wait_bits = rec->immediate;
          task->block_pending_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  } catch (...) {
    task->block_pending_.fetch_sub(1, std::memory_order_acq_rel);
    throw;
  }

  Notices notices;
  for (ObjectQueue* q : touched_queues) {
    {
      std::lock_guard<std::mutex> lock(q->mu);
      reevaluate(*q, notices);
    }
    deliver(notices);
  }
  return task->block_pending_.fetch_sub(1, std::memory_order_acq_rel) != 1;
}

bool Serializer::acquire(TaskNode* task, ObjectId obj, std::uint8_t mode) {
  JADE_ASSERT_MSG(task->state_ == TaskState::kRunning,
                  "accessor acquired outside a running task");
  JADE_ASSERT(mode != 0);
  if (task->is_root()) {
    // The main task implicitly owns all data, but may only touch an object
    // directly when that cannot race with the task graph: any access while
    // no created task holds a declaration, or a read while only readers do
    // (the object is immutable for as long as those records live — this is
    // how Figure 6's driver loop reads r[j] while update tasks hold rd(r)).
    ObjectQueue* q = find_queue(obj);
    if (q == nullptr) return false;
    {
      std::lock_guard<std::mutex> lock(q->mu);
      if (q->records.empty()) return false;
      if (mode == access::kRead && q->cnt_wc == 0) return false;
    }
    throw UndeclaredAccessError(
        "the main task may not perform a '" +
        std::string(access::bits_name(mode)) + "' access to object " +
        std::to_string(obj) +
        " while created tasks hold conflicting declarations; access it "
        "from a task with a declared right instead");
  }
  // The rights check reads only fields this task's own thread writes.
  DeclRecord* rec = task->find_record(obj);
  if (rec == nullptr || (mode & static_cast<std::uint8_t>(~rec->immediate))) {
    std::ostringstream os;
    os << "task '" << task->name() << "' performs an undeclared '"
       << access::bits_name(mode) << "' access to object " << obj;
    if (rec != nullptr && (rec->deferred & mode)) {
      os << " (the right was declared deferred; convert it with a with-cont "
            "before accessing)";
    } else if (rec != nullptr) {
      os << " (task holds only '" << access::bits_name(rec->immediate)
         << "')";
    }
    throw UndeclaredAccessError(os.str());
  }

  ObjectQueue& q = *rec->queue;
  // Book the exercise before the enabledness check: a blocked acquisition
  // will touch the bytes as soon as it unblocks, so treating it as touched
  // already is the conservative direction for the speculation commit check
  // (spurious aborts, never missed conflicts).
  rec->exercised |= mode;
  if (mode & (access::kWrite | access::kCommute))
    q.write_epoch.fetch_add(1, std::memory_order_relaxed);
  // The record was enabled for its immediate rights when they became
  // immediate (task start or with-cont conversion), and since then only
  // this task's own children can have linked ahead of it — which sets
  // `shadowed`.  An unshadowed record is therefore still enabled.
  if (!rec->shadowed && !(mode & access::kCommute)) return false;

  std::lock_guard<std::mutex> lock(q.mu);
  if (!rec->linked() || is_enabled(q, rec, mode)) return false;

  // Records ahead of us can only belong to our own earlier-created children
  // (everything else was ahead at our start and has been waited out); block
  // until they retire.
  JADE_ASSERT(!rec->counted);
  set_counted(q, rec, true);
  rec->wait_bits = mode;
  task->block_pending_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Serializer::complete_task(TaskNode* task) {
  JADE_ASSERT_MSG(task->state_ == TaskState::kRunning,
                  "complete_task on a task that is not running");
  JADE_ASSERT_MSG(task->block_pending_.load(std::memory_order_relaxed) == 0,
                  "complete_task on a blocked task");
  task->state_ = TaskState::kCompleted;

  Notices notices;
  DeclRecord* recs = task->records();
  for (std::uint32_t i = 0; i < task->nrecords_; ++i) {
    DeclRecord* rec = &recs[i];
    ObjectQueue& q = *rec->queue;
    {
      std::lock_guard<std::mutex> lock(q.mu);
      if (!rec->linked()) continue;
      unlink(q, rec);
      reevaluate(q, notices);
    }
    deliver(notices);
  }
  if (!task->is_root()) outstanding_.fetch_sub(1);

  if (TenantCtl* ctl = task->tenant_) {
    ctl->tasks_completed.fetch_add(1, std::memory_order_relaxed);
    // `live` can never transiently hit 0 while the tenant still has work:
    // every creator of a tenant task is itself a live tenant task (or the
    // program root being created right now, counted before this runs).
    // acq_rel: tasks of one tenant complete on several threads, and the
    // owner may free `ctl` once quiesced, so every other completion's
    // touches of `ctl` must happen before on_quiesce.
    if (ctl->live.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        ctl->on_quiesce) {
      ctl->on_quiesce(*ctl);
    }
  }
}

void Serializer::abort_attempt(TaskNode* task) {
  JADE_ASSERT_MSG(task->state_ == TaskState::kRunning,
                  "abort_attempt on a task that is not running");
  JADE_ASSERT(!task->is_root());
  DeclRecord* recs = task->records();
  for (std::uint32_t i = 0; i < task->nrecords_; ++i) {
    DeclRecord& rec = recs[i];
    ObjectQueue& q = *rec.queue;
    std::lock_guard<std::mutex> lock(q.mu);
    if (rec.counted) {
      set_counted(q, &rec, false);
      rec.wait_bits = 0;
    }
  }
  task->block_pending_.store(0, std::memory_order_relaxed);
  task->state_ = TaskState::kReady;
  unstarted_.fetch_add(1);
}

bool Serializer::spec_eligible(TaskNode* task,
                               std::vector<ObjectId>* contested) const {
  if (task->state_ != TaskState::kPending || task->speculating_) return false;
  if (contested != nullptr) contested->clear();
  for (const DeclRecord& rec : task->ordered_records()) {
    ObjectQueue& q = *rec.queue;
    std::lock_guard<std::mutex> lock(q.mu);
    if (!rec.counted) continue;
    // A waiting commute right needs the token machinery; never speculate it.
    if (rec.wait_bits & access::kCommute) return false;
    bool contested_here = false;
    for (const DeclRecord* p = q.records.front(); p != nullptr && p != &rec;
         p = q.records.next_of(p)) {
      if (!access::conflicts(p->effective(), rec.wait_bits)) continue;
      const std::uint8_t eff = p->effective();
      // A commuting predecessor writes at an unpredictable point in its
      // token-ordered turn; bytes can change under the snapshot silently.
      if (eff & access::kCommute) return false;
      if (eff & access::kWrite) {
        // An exercised write already changed (or is changing) the bytes;
        // the snapshot would start out stale.  Unexercised writes are the
        // speculation target: bet they complete without writing, and let
        // the write-epoch check catch the bet going wrong.
        if (p->exercised & (access::kWrite | access::kCommute)) return false;
        // A *speculating* writer ahead is a doomed bet: its shadow write is
        // invisible now but bumps the epoch at commit.  Wait it out.
        if (p->task->speculating()) return false;
        contested_here = true;
      }
      // A pure-read predecessor only delays the task; it cannot change the
      // bytes, so it never invalidates a snapshot.
    }
    if (contested_here && contested != nullptr)
      contested->push_back(q.obj);
  }
  return true;
}

void Serializer::spec_start(TaskNode* task) {
  JADE_ASSERT_MSG(task->state_ == TaskState::kPending,
                  "spec_start on a task that is not pending");
  JADE_ASSERT(!task->speculating_);
  task->speculating_ = true;
}

void Serializer::spec_abort(TaskNode* task) {
  JADE_ASSERT_MSG(task->speculating_, "spec_abort on a non-speculation");
  task->speculating_ = false;
}

void Serializer::spec_commit(TaskNode* task) {
  JADE_ASSERT_MSG(task->speculating_, "spec_commit on a non-speculation");
  JADE_ASSERT_MSG(task->state_ == TaskState::kReady,
                  "spec_commit before the serializer enabled the task");
  task->speculating_ = false;
  task_started(task);
}

std::uint64_t Serializer::write_epoch(ObjectId obj) const {
  const ObjectQueue* q = find_queue(obj);
  return q == nullptr ? 0 : q->write_epoch.load(std::memory_order_relaxed);
}

void Serializer::bump_write_epoch(ObjectId obj) {
  queue_for(obj).write_epoch.fetch_add(1, std::memory_order_relaxed);
}

bool Serializer::is_enabled(ObjectQueue& q, DeclRecord* rec,
                            std::uint8_t bits) const {
  // O(1) fast paths via the queue counters (self-contributions excluded).
  const std::uint8_t eff = rec->linked() ? rec->effective() : 0;
  if (bits & access::kWrite) {
    // A write conflicts with any predecessor: enabled iff first.
    return q.records.front() == rec;
  }
  if (bits == access::kRead) {
    const std::size_t self = (eff & (access::kWrite | access::kCommute)) ? 1 : 0;
    if (q.cnt_wc == self) return true;  // no writer/commuter anywhere
  } else if (bits == access::kCommute) {
    const std::size_t self = (eff & (access::kRead | access::kWrite)) ? 1 : 0;
    if (q.cnt_rw == self) return true;  // only pure commuters anywhere
  }
  for (DeclRecord* p = q.records.front(); p != nullptr && p != rec;
       p = q.records.next_of(p)) {
    if (access::conflicts(p->effective(), bits)) return false;
  }
  return true;
}

void Serializer::reevaluate(ObjectQueue& q, Notices& out) {
  if (q.cnt_counted == 0) return;  // nobody is waiting on this queue
  std::uint8_t prior = 0;
  for (DeclRecord* p = q.records.front(); p != nullptr;
       p = q.records.next_of(p)) {
    // Once the scanned prefix holds a write — or both a read and a commute —
    // every remaining waiter conflicts with it (see access::conflicts), so
    // the scan can stop.  This keeps retirement O(changed prefix) instead of
    // O(queue length): a deep chain of writers on one object costs O(1) per
    // completion rather than a full-queue walk.
    if ((prior & access::kWrite) ||
        ((prior & access::kRead) && (prior & access::kCommute))) {
      break;
    }
    if (p->counted && !access::conflicts(prior, p->wait_bits)) {
      set_counted(q, p, false);
      TaskNode* t = p->task;
      // Whoever drops a counter to 0 (here, or a guard's holder) notifies.
      if (t->state_ == TaskState::kPending) {
        const std::uint32_t before =
            t->start_pending_.fetch_sub(1, std::memory_order_acq_rel);
        JADE_ASSERT(before > 0);
        if (before == 1) {
          t->state_ = TaskState::kReady;
          out.ready.push_back(t);
        }
      } else {
        JADE_ASSERT(t->state_ == TaskState::kRunning);
        const std::uint32_t before =
            t->block_pending_.fetch_sub(1, std::memory_order_acq_rel);
        JADE_ASSERT(before > 0);
        if (before == 1) out.unblocked.push_back(t);
      }
    }
    prior |= p->effective();
  }
}

bool Serializer::weaken_record(ObjectQueue& q, DeclRecord* rec,
                               std::uint8_t bits) {
  const std::uint8_t before = rec->effective();
  rec->immediate &= static_cast<std::uint8_t>(~bits);
  rec->deferred &= static_cast<std::uint8_t>(~bits);
  const std::uint8_t after = rec->effective();
  if (after == before) return false;
  if (rec->linked()) {
    count_effect(q, before, -1);
    if (after == 0) {
      JADE_ASSERT(!rec->counted);
      IntrusiveList<DeclRecord>::unlink(rec);
    } else {
      count_effect(q, after, +1);
    }
  }
  return true;
}

void Serializer::link_before(ObjectQueue& q, DeclRecord* pos,
                             DeclRecord* rec) {
  q.records.insert_before(pos, rec);
  count_effect(q, rec->effective(), +1);
}

void Serializer::link_back(ObjectQueue& q, DeclRecord* rec) {
  q.records.push_back(rec);
  count_effect(q, rec->effective(), +1);
}

void Serializer::unlink(ObjectQueue& q, DeclRecord* rec) {
  JADE_ASSERT(!rec->counted);
  count_effect(q, rec->effective(), -1);
  IntrusiveList<DeclRecord>::unlink(rec);
}

void Serializer::count_effect(ObjectQueue& q, std::uint8_t bits, int delta) {
  if (bits & (access::kWrite | access::kCommute)) {
    q.cnt_wc = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(q.cnt_wc) + delta);
  }
  if (bits & (access::kRead | access::kWrite)) {
    q.cnt_rw = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(q.cnt_rw) + delta);
  }
}

void Serializer::set_counted(ObjectQueue& q, DeclRecord* rec, bool counted) {
  JADE_ASSERT(rec->counted != counted);
  rec->counted = counted;
  q.cnt_counted = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(q.cnt_counted) + (counted ? 1 : -1));
}

std::vector<std::pair<std::uint64_t, std::uint8_t>>
Serializer::queue_snapshot(ObjectId obj) const {
  std::vector<std::pair<std::uint64_t, std::uint8_t>> out;
  ObjectQueue* q = find_queue(obj);
  if (q == nullptr) return out;
  std::lock_guard<std::mutex> lock(q->mu);
  for (DeclRecord* p = q->records.front(); p != nullptr;
       p = q->records.next_of(p)) {
    out.emplace_back(p->task->id(), p->effective());
  }
  return out;
}

}  // namespace jade
