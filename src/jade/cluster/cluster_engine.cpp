#include "jade/cluster/cluster_engine.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "jade/cluster/worker.hpp"
#include "jade/support/error.hpp"

namespace jade::cluster {

namespace {

/// Dispatch-window depth when matching ready tasks to an idle worker; deep
/// enough for locality to matter, shallow enough to stay serial-order-ish.
constexpr std::size_t kPickWindow = 32;

std::exception_ptr capture_error(ErrorCode code, const std::string& what) {
  try {
    rethrow_error(code, what);
  } catch (...) {
    return std::current_exception();
  }
}

/// Queues a failed acquire / with-cont ack for `task`.
void nak_acquire(Channel& ch, const TaskNode* task, ObjectId obj,
                 ErrorCode code, std::string what) {
  AcquireAckMsg nak;
  nak.task = task->id();
  nak.obj = obj;
  nak.ok = false;
  nak.error_code = code;
  nak.error = std::move(what);
  ch.queue(FrameType::kAcquireAck, pack(nak));
}
void nak_with_cont(Channel& ch, const TaskNode* task, ErrorCode code,
                   std::string what) {
  WithContAckMsg nak;
  nak.task = task->id();
  nak.ok = false;
  nak.error_code = code;
  nak.error = std::move(what);
  ch.queue(FrameType::kWithContAck, pack(nak));
}

}  // namespace

ClusterEngine::ClusterEngine(Options options, SchedPolicy sched)
    : options_(options),
      sched_(sched),
      serializer_(this),
      directory_(options.workers),
      transport_([this] { return wall_now(); }, &tracer_),
      throttle_(sched.throttle),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.spares < 0)
    throw ConfigError("cluster spares must be non-negative");
  if (options_.heartbeat_interval <= 0)
    throw ConfigError("cluster heartbeat_interval must be positive");
  if (options_.miss_threshold < 1)
    throw ConfigError("cluster miss_threshold must be at least 1");
  // Workers run on one homogeneous host, so conversions never fire; the
  // protocol still wants the endian table shaped like the cluster.
  coherence_ = std::make_unique<CoherenceProtocol>(
      transport_, directory_, objects_,
      std::vector<Endian>(static_cast<std::size_t>(options_.workers),
                          Endian::kLittle),
      CoherenceConfig{64, 0.0}, stats_, &tracer_);
  serializer_.set_tenant_oracle(
      [this](ObjectId obj) { return objects_.info(obj).tenant; });
  // A worker can die with coordinator frames still queued toward it.
  ::signal(SIGPIPE, SIG_IGN);
}

ClusterEngine::~ClusterEngine() {
  shutdown_workers();
  if (self_pipe_[0] >= 0) ::close(self_pipe_[0]);
  if (self_pipe_[1] >= 0) ::close(self_pipe_[1]);
}

double ClusterEngine::wall_now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void ClusterEngine::wake_event_loop() {
  if (self_pipe_[1] >= 0) {
    const char b = 'w';
    [[maybe_unused]] ssize_t n = ::write(self_pipe_[1], &b, 1);
  }
}

// --- lifecycle --------------------------------------------------------------

void ClusterEngine::ensure_workers_started() {
  if (started_) return;
  if (::pipe2(self_pipe_, O_NONBLOCK | O_CLOEXEC) != 0)
    throw ConfigError("cluster: pipe2 failed");

  const int total = options_.workers + options_.spares;
  slots_.resize(static_cast<std::size_t>(total));
  std::vector<int> parent_fds;
  for (int i = 0; i < total; ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
      throw ConfigError("cluster: socketpair failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw ConfigError("cluster: fork failed");
    if (pid == 0) {
      // Child: drop every coordinator-side fd we inherited, then become a
      // worker.  worker_main never returns (it _exit()s).
      ::close(sv[0]);
      for (int fd : parent_fds) ::close(fd);
      ::close(self_pipe_[0]);
      ::close(self_pipe_[1]);
      worker_main(sv[1]);
    }
    ::close(sv[1]);
    parent_fds.push_back(sv[0]);
    slots_[static_cast<std::size_t>(i)].pid = pid;
    slots_[static_cast<std::size_t>(i)].channel =
        std::make_unique<Channel>(sv[0]);
  }

  // Handshake while the channels still block: every worker says Hello.
  for (WorkerSlot& slot : slots_) {
    const auto hello = slot.channel->recv();
    if (!hello || hello->type != FrameType::kHello)
      throw ConfigError("cluster: worker failed to start");
    const HelloMsg msg = unpack<HelloMsg>(hello->payload);
    if (msg.pid != static_cast<std::int64_t>(slot.pid))
      throw ProtocolError("cluster: worker hello pid mismatch");
    slot.channel->set_nonblocking();
  }

  // The first `workers` processes become machines 0..W-1; the rest are
  // spares that stay parked in their pre-activation wait loop.
  for (int m = 0; m < options_.workers; ++m) {
    WorkerSlot& slot = slots_[static_cast<std::size_t>(m)];
    slot.machine = m;
    ActivateMsg act;
    act.machine = m;
    act.machines = options_.workers;
    act.heartbeat_interval = options_.heartbeat_interval;
    slot.channel->queue(FrameType::kActivate, pack(act));
    while (slot.channel->want_write())
      if (!slot.channel->flush())
        throw ConfigError("cluster: worker died during activation");
    transport_.set_channel(m, slot.channel.get());
  }

  // Detector slot 0 is the coordinator itself (never suspected); worker m
  // reports as detector machine m + 1.
  detector_ = std::make_unique<FailureDetector>(options_.workers + 1,
                                                options_.heartbeat_interval,
                                                options_.miss_threshold);
  started_ = true;
}

void ClusterEngine::shutdown_workers() {
  if (!started_) return;
  for (WorkerSlot& slot : slots_) {
    if (slot.channel && !slot.channel->closed() && !slot.dead) {
      slot.channel->queue(FrameType::kShutdown, pack(ShutdownMsg{}));
      slot.channel->flush();  // best effort; EOF also makes workers exit
    }
    if (slot.channel) slot.channel->close();
  }
  for (WorkerSlot& slot : slots_) {
    if (slot.pid <= 0 || slot.dead) continue;
    int st = 0;
    bool reaped = false;
    for (int i = 0; i < 200 && !reaped; ++i) {
      if (::waitpid(slot.pid, &st, WNOHANG) == slot.pid) reaped = true;
      else ::usleep(5000);
    }
    if (!reaped) {
      ::kill(slot.pid, SIGKILL);
      ::waitpid(slot.pid, &st, 0);
    }
    slot.dead = true;
  }
  started_ = false;
}

int ClusterEngine::slot_of_machine(MachineId m) const {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const WorkerSlot& slot = slots_[s];
    if (slot.machine == m && !slot.dead && !slot.eof && slot.channel &&
        !slot.channel->closed())
      return static_cast<int>(s);
  }
  return -1;
}

std::vector<std::uint8_t> ClusterEngine::machine_up_mask() const {
  std::vector<std::uint8_t> up(static_cast<std::size_t>(options_.workers), 0);
  for (const WorkerSlot& slot : slots_)
    if (slot.machine >= 0 && !slot.dead && !slot.eof)
      up[static_cast<std::size_t>(slot.machine)] = 1;
  return up;
}

// --- Engine: objects --------------------------------------------------------

ObjectId ClusterEngine::allocate(TypeDescriptor type, std::string name,
                                 MachineId home) {
  std::lock_guard<std::mutex> lock(mu_);
  const ObjectId id = objects_.add(type, std::move(name));
  const MachineId h = home >= 0 ? home % options_.workers
                                : (alloc_rr_++ % options_.workers);
  directory_.add_object(objects_.info(id), h);
  return id;
}

void ClusterEngine::put_bytes(ObjectId obj, std::span<const std::byte> data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!directory_.known(obj))
    throw ConfigError("put_bytes on unknown object " + std::to_string(obj));
  if (data.size() != directory_.object_bytes(obj))
    throw ConfigError("put_bytes size mismatch on object " +
                      std::to_string(obj));
  directory_.invalidate_replicas(obj);
  std::memcpy(directory_.data(obj), data.data(), data.size());
  // The data version advances, so every worker's shipped copy goes stale
  // and the next dispatch re-ships the payload.
  directory_.mark_dirty(obj);
}

std::vector<std::byte> ClusterEngine::get_bytes(ObjectId obj) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto view = directory_.data_view(obj);
  return std::vector<std::byte>(view.begin(), view.end());
}

const ObjectInfo& ClusterEngine::object_info(ObjectId obj) const {
  return objects_.info(obj);
}

void ClusterEngine::set_object_tenant(ObjectId obj, TenantId tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  objects_.set_tenant(obj, tenant);
}

// --- Engine: execution ------------------------------------------------------

void ClusterEngine::run(std::function<void(TaskContext&)> root_body) {
  ensure_workers_started();
  double run_start = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    serializer_.reset();
    ready_.clear();
    unblock_notices_.clear();
    recs_.clear();
    pending_.clear();
    tokens_ = CommuteTokenTable{};
    throttle_.reset_counters();
    aborting_ = false;
    first_error_ = nullptr;
    root_done_ = false;
    root_unblock_noticed_ = false;
    stats_ = RuntimeStats{};
    stats_.machine_busy_seconds.assign(
        static_cast<std::size_t>(options_.workers), 0.0);
    dispatches_ = payload_bytes_shipped_ = writeback_bytes_ = 0;
    rpc_acquires_ = rpc_with_conts_ = rpc_spawns_ = heartbeats_ = 0;
    run_start = wall_now();
    // Heartbeats queued up between runs were never drained; reset the
    // detector's idea of "recently heard" so a stale table cannot suspect
    // the whole cluster at the first sweep.
    for (const WorkerSlot& slot : slots_)
      if (slot.machine >= 0 && !slot.dead && !slot.eof)
        detector_->heartbeat_received(slot.machine + 1, run_start);
  }

  std::thread root_thread([&] {
    try {
      TaskContext ctx(this, serializer_.root());
      root_body(ctx);
      std::lock_guard<std::mutex> lock(mu_);
      release_tokens_locked(serializer_.root());
      if (!aborting_) {
        serializer_.complete_task(serializer_.root());
        drain_unblock_notices_locked();
        pump_locked();
      }
      root_done_ = true;
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      abort_run_locked(std::current_exception());
      root_done_ = true;
    }
    wake_event_loop();
  });

  event_loop();
  root_thread.join();

  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.finish_time = wall_now() - run_start;
    stats_.tasks_created = serializer_.tasks_created();
    throttle_.publish(stats_);
    stats_.heartbeats_sent = heartbeats_;
    // Real wire accounting replaces the protocol's modeled counts: frames
    // and bytes that actually crossed the sockets, both directions.
    stats_.messages = 0;
    stats_.bytes_sent = 0;
    for (const WorkerSlot& slot : slots_) {
      if (!slot.channel) continue;
      stats_.messages += slot.channel->tx_frames() + slot.channel->rx_frames();
      stats_.bytes_sent += slot.channel->tx_bytes() + slot.channel->rx_bytes();
    }
    stats_.payload_bytes = payload_bytes_shipped_ + writeback_bytes_;
    publish_runtime_stats();
    metrics_.counter("cluster.dispatches").set(dispatches_);
    metrics_.counter("cluster.payload_bytes_shipped")
        .set(payload_bytes_shipped_);
    metrics_.counter("cluster.writeback_bytes").set(writeback_bytes_);
    metrics_.counter("cluster.rpc_acquires").set(rpc_acquires_);
    metrics_.counter("cluster.rpc_with_conts").set(rpc_with_conts_);
    metrics_.counter("cluster.rpc_spawns").set(rpc_spawns_);
    metrics_.counter("cluster.heartbeats").set(heartbeats_);
    metrics_.counter("cluster.worker_deaths").set(worker_deaths_);
    metrics_.counter("cluster.workers_respawned").set(workers_respawned_);
    metrics_.counter("cluster.control_frames").set(transport_.control_frames());
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

// --- event loop -------------------------------------------------------------

bool ClusterEngine::exit_condition_locked() const {
  if (!root_done_) return false;
  if (aborting_) {
    for (const WorkerSlot& slot : slots_)
      if (slot.running != nullptr && !slot.eof && !slot.dead) return false;
    return true;
  }
  return serializer_.outstanding() == 0;
}

void ClusterEngine::event_loop() {
  std::vector<pollfd> pfds;
  std::vector<int> pslot;
  const int timeout_ms = std::max(
      1, static_cast<int>(options_.heartbeat_interval * 1000.0 / 2.0));
  for (;;) {
    pfds.clear();
    pslot.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (exit_condition_locked()) return;
      pfds.push_back({self_pipe_[0], POLLIN, 0});
      pslot.push_back(-1);
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        WorkerSlot& slot = slots_[s];
        if (slot.dead || slot.eof || !slot.channel || slot.channel->closed())
          continue;
        short events = POLLIN;
        if (slot.channel->want_write()) events |= POLLOUT;
        pfds.push_back({slot.channel->fd(), events, 0});
        pslot.push_back(static_cast<int>(s));
      }
    }

    ::poll(pfds.data(), pfds.size(), timeout_ms);

    std::lock_guard<std::mutex> lock(mu_);
    if (pfds[0].revents & POLLIN) {
      char buf[256];
      while (::read(self_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      const int s = pslot[i];
      WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
      if (slot.dead || !slot.channel || slot.channel->closed()) continue;
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        std::vector<Frame> frames;
        bool open = true;
        try {
          open = slot.channel->drain(frames);
        } catch (...) {
          // Garbage from a babbling worker: surface the ProtocolError and
          // treat the link as dead.
          abort_run_locked(std::current_exception());
          slot.eof = true;
        }
        for (const Frame& f : frames) {
          try {
            handle_frame_locked(s, f);
          } catch (...) {
            abort_run_locked(std::current_exception());
            slot.eof = true;
            break;
          }
        }
        if (!open) slot.eof = true;
      }
      if (!slot.eof && slot.channel->want_write())
        if (!slot.channel->flush()) slot.eof = true;
    }
    sweep_locked();
  }
}

void ClusterEngine::sweep_locked() {
  const double now = wall_now();
  // sweep() flags newly silent machines; we then act on every standing
  // suspicion (not just new ones) so a death whose waitpid was not yet
  // conclusive is retried next sweep instead of being lost.
  const std::vector<MachineId> fresh = detector_->sweep(now);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    WorkerSlot& slot = slots_[s];
    if (slot.dead || slot.pid <= 0) continue;
    const bool suspected =
        slot.machine >= 0 && detector_->suspected(slot.machine + 1);
    if (!slot.eof && !suspected) continue;
    int st = 0;
    const pid_t r = ::waitpid(slot.pid, &st, WNOHANG);
    if (r == slot.pid) {
      handle_worker_death_locked(static_cast<int>(s));
    } else if (slot.eof) {
      // The socket closed but the process lingers (wedged or exiting):
      // finish the job and recover.
      ::kill(slot.pid, SIGKILL);
      ::waitpid(slot.pid, &st, 0);
      handle_worker_death_locked(static_cast<int>(s));
    } else if (std::find(fresh.begin(), fresh.end(), slot.machine + 1) !=
               fresh.end()) {
      ++stats_.false_suspicions;  // alive, just late — congestion
    }
  }
}

// --- frame handling ---------------------------------------------------------

void ClusterEngine::handle_frame_locked(int s, const Frame& f) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  switch (f.type) {
    case FrameType::kHeartbeat: {
      const HeartbeatMsg msg = unpack<HeartbeatMsg>(f.payload);
      if (slot.machine >= 0 && msg.machine == slot.machine) {
        detector_->heartbeat_received(slot.machine + 1, wall_now());
        ++heartbeats_;
      }
      return;
    }
    case FrameType::kDone:
      handle_done_locked(s, unpack<DoneMsg>(f.payload));
      return;
    case FrameType::kTaskError:
      handle_task_error_locked(s, unpack<TaskErrorMsg>(f.payload));
      return;
    case FrameType::kSpawn:
      handle_spawn_locked(s, unpack<SpawnMsg>(f.payload));
      return;
    case FrameType::kWithCont:
      handle_with_cont_locked(s, unpack<WithContMsg>(f.payload));
      return;
    case FrameType::kAcquire:
      handle_acquire_locked(s, unpack<AcquireMsg>(f.payload));
      return;
    case FrameType::kObjData:
      return;  // late debug-probe reply; stale, drop
    default:
      throw ProtocolError("unexpected frame type " +
                          std::to_string(static_cast<int>(f.type)) +
                          " from worker machine " +
                          std::to_string(slot.machine));
  }
}

void ClusterEngine::handle_spawn_locked(int s, const SpawnMsg& msg) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskNode* parent = slot.running;
  if (parent == nullptr || parent->id() != msg.parent)
    throw ProtocolError("spawn for a task not running on machine " +
                        std::to_string(slot.machine));
  ++rpc_spawns_;
  // A task that spawned can no longer be transparently re-executed: a
  // re-run would create its children twice.
  recs_[parent].restartable = false;
  if (aborting_) return;
  std::vector<AccessRequest> requests;
  requests.reserve(msg.requests.size());
  for (const ReqMsg& r : msg.requests)
    requests.push_back({r.obj, r.add_immediate, r.add_deferred, r.remove});
  try {
    create_registered_locked(parent, requests, msg.body, msg.args, msg.name,
                             msg.placement);
  } catch (...) {
    // Bad body indices and hierarchy/tenant violations from a remote spawn
    // have no ack channel to ride back on; they end the run, like a
    // root-thread throw.
    abort_run_locked(std::current_exception());
    return;
  }
  drain_unblock_notices_locked();
  pump_locked();
}

TaskNode* ClusterEngine::create_registered_locked(
    TaskNode* parent, const std::vector<AccessRequest>& requests, int body,
    std::vector<std::byte> args, std::string name, MachineId placement) {
  if (body < 0 || body >= BodyRegistry::instance().size())
    throw ConfigError("spawn names unregistered body index " +
                      std::to_string(body));
  if (placement >= options_.workers)
    throw ConfigError("task placement " + std::to_string(placement) +
                      " exceeds the cluster's " +
                      std::to_string(options_.workers) + " workers");
  TaskNode* child =
      serializer_.create_task(parent, requests, {}, std::move(name));
  child->placement = placement;
  TaskRec& rec = recs_[child];
  rec.body = body;
  rec.args = std::move(args);
  return child;
}

void ClusterEngine::handle_with_cont_locked(int s, const WithContMsg& msg) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskNode* task = slot.running;
  if (task == nullptr || task->id() != msg.task)
    throw ProtocolError("with_cont for a task not running on machine " +
                        std::to_string(slot.machine));
  ++rpc_with_conts_;
  TaskRec& rec = recs_[task];
  // Payload flushes mutated canonical state mid-task; a re-run would apply
  // read-modify-write effects twice.
  rec.restartable = false;

  if (aborting_) {
    nak_with_cont(*slot.channel, task, ErrorCode::kUnrecoverable,
                  "run aborted");
    return;
  }

  // 1. Writebacks land before anything the retire might enable can read.
  for (const WithContItem& item : msg.items)
    if (item.has_payload)
      apply_writeback_locked(item.req.obj, item.payload, slot.machine);

  // 2. The substantive requests; zero-bit items are pure payload flushes
  //    (the pre-spawn flush) and must not reach update_spec.
  PendingRpc rpc;
  rpc.kind = PendingRpc::Kind::kWithCont;
  rpc.worker = slot.machine;
  for (const WithContItem& item : msg.items)
    if (item.req.add_immediate | item.req.add_deferred | item.req.remove)
      rpc.requests.push_back({item.req.obj, item.req.add_immediate,
                              item.req.add_deferred, item.req.remove});

  // 3. Retired commute rights return their tokens (possibly handing them
  //    to the oldest waiter) before the serializer sees the removal.
  release_retired_tokens_locked(task, rpc.requests);

  bool must_block = false;
  if (!rpc.requests.empty()) {
    try {
      must_block = serializer_.update_spec(task, rpc.requests);
    } catch (const std::exception& e) {
      nak_with_cont(*slot.channel, task, classify_error(e), e.what());
      drain_unblock_notices_locked();
      pump_locked();
      return;
    }
  }
  drain_unblock_notices_locked();
  if (must_block) {
    rpc.stage = PendingRpc::Stage::kSerializer;
    pending_[task] = std::move(rpc);
  } else {
    finish_with_cont_locked(task, rpc);
  }
  pump_locked();
}

void ClusterEngine::finish_with_cont_locked(TaskNode* task,
                                            const PendingRpc& rpc) {
  const int s = slot_of_machine(rpc.worker);
  if (s < 0) return;  // the worker died; recovery already owns the task
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskRec& rec = recs_[task];
  const MachineId w = rpc.worker;

  std::vector<FetchItem> items;
  for (const AccessRequest& req : rpc.requests)
    if (req.add_immediate & (access::kRead | access::kWrite))
      items.push_back(
          {req.obj, (req.add_immediate & access::kWrite) != 0, true});
  if (!items.empty()) coherence_->fetch(w, items);

  // Conversions to rd/wr need a current local copy; cm conversions get
  // theirs at the accessor RPC, after the token serializes them.
  WithContAckMsg ack;
  ack.task = task->id();
  for (const AccessRequest& req : rpc.requests)
    ack.objects.push_back(
        make_ship_locked(task, req.obj, w, rec, req.add_immediate));
  slot.channel->queue(FrameType::kWithContAck, pack(ack));
}

void ClusterEngine::handle_acquire_locked(int s, const AcquireMsg& msg) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskNode* task = slot.running;
  if (task == nullptr || task->id() != msg.task)
    throw ProtocolError("acquire for a task not running on machine " +
                        std::to_string(slot.machine));
  ++rpc_acquires_;

  if (aborting_) {
    nak_acquire(*slot.channel, task, msg.obj, ErrorCode::kUnrecoverable,
                "run aborted");
    return;
  }
  bool must_block = false;
  try {
    must_block = serializer_.acquire(task, msg.obj, msg.mode);
  } catch (const std::exception& e) {
    nak_acquire(*slot.channel, task, msg.obj, classify_error(e), e.what());
    return;
  }
  PendingRpc rpc;
  rpc.kind = PendingRpc::Kind::kAcquire;
  rpc.worker = slot.machine;
  rpc.obj = msg.obj;
  rpc.mode = msg.mode;
  if (must_block) {
    rpc.stage = PendingRpc::Stage::kSerializer;
    pending_[task] = rpc;
    return;
  }
  continue_acquire_locked(task, rpc);
}

void ClusterEngine::continue_acquire_locked(TaskNode* task, PendingRpc& rpc) {
  if (rpc.mode & access::kCommute) {
    if (!tokens_.try_acquire(rpc.obj, task)) {
      tokens_.enqueue_waiter(rpc.obj, task);
      rpc.stage = PendingRpc::Stage::kToken;
      pending_[task] = rpc;
      return;
    }
  }
  grant_acquire_locked(task, rpc);
}

void ClusterEngine::grant_acquire_locked(TaskNode* task,
                                         const PendingRpc& rpc) {
  const int s = slot_of_machine(rpc.worker);
  if (s < 0) return;  // worker died while parked
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskRec& rec = recs_[task];
  const MachineId w = rpc.worker;
  const bool writes = (rpc.mode & (access::kWrite | access::kCommute)) != 0;

  coherence_->fetch(w, {{rpc.obj, writes, true}});

  AcquireAckMsg ack;
  ack.task = task->id();
  ack.obj = rpc.obj;
  ack.has_payload =
      attach_payload_locked(rpc.obj, w, writes, rec, ack.payload);
  slot.channel->queue(FrameType::kAcquireAck, pack(ack));
}

void ClusterEngine::handle_done_locked(int s, const DoneMsg& msg) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskNode* task = slot.running;
  if (task == nullptr || task->id() != msg.task)
    throw ProtocolError("done for a task not running on machine " +
                        std::to_string(slot.machine));
  if (slot.machine >= 0)
    stats_.machine_busy_seconds[static_cast<std::size_t>(slot.machine)] +=
        wall_now() - slot.busy_since;
  slot.running = nullptr;
  if (tracer_.enabled())
    tracer_.span_end_at(wall_now(), obs::Subsystem::kEngine, "task",
                        task->id(), slot.machine);
  if (aborting_) {
    release_tokens_locked(task);
    root_cv_.notify_all();
    return;  // the serializer's state is already off the success path
  }
  // Writebacks land before the commute tokens return: a token handoff
  // ships the canonical bytes, which must already include this task's
  // updates or the next commuter starts from a stale value.
  for (const DoneMsg::Write& wbk : msg.writes)
    apply_writeback_locked(wbk.obj, wbk.payload, slot.machine);
  task->charged_work = msg.charged;
  stats_.total_charged_work += msg.charged;
  release_tokens_locked(task);
  finish_task_locked(task);
}

void ClusterEngine::handle_task_error_locked(int s, const TaskErrorMsg& msg) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskNode* task = slot.running;
  if (task == nullptr || task->id() != msg.task)
    throw ProtocolError("task-error for a task not running on machine " +
                        std::to_string(slot.machine));
  slot.running = nullptr;
  release_tokens_locked(task);
  abort_run_locked(capture_error(
      msg.code, msg.what + " (in task '" + task->name() + "')"));
}

// --- dispatch / completion --------------------------------------------------

void ClusterEngine::on_task_ready(TaskNode* task) { ready_.push_back(task); }

void ClusterEngine::on_task_unblocked(TaskNode* task) {
  unblock_notices_.push_back(task);
}

void ClusterEngine::drain_unblock_notices_locked() {
  while (!unblock_notices_.empty()) {
    std::vector<TaskNode*> batch;
    batch.swap(unblock_notices_);
    for (TaskNode* task : batch) {
      if (task == serializer_.root()) {
        root_unblock_noticed_ = true;
        root_cv_.notify_all();
        continue;
      }
      auto it = pending_.find(task);
      if (it == pending_.end()) continue;
      PendingRpc rpc = std::move(it->second);
      pending_.erase(it);
      if (rpc.kind == PendingRpc::Kind::kAcquire)
        continue_acquire_locked(task, rpc);
      else
        finish_with_cont_locked(task, rpc);
    }
  }
}

void ClusterEngine::release_tokens_locked(TaskNode* task) {
  tokens_.release_all(task, [this](TaskNode* next, ObjectId) {
    grant_token_locked(next);
  });
}

void ClusterEngine::release_retired_tokens_locked(
    TaskNode* task, const std::vector<AccessRequest>& requests) {
  tokens_.release_retired(task, requests,
                          [this](TaskNode* next, ObjectId) {
                            grant_token_locked(next);
                          });
}

void ClusterEngine::grant_token_locked(TaskNode* next) {
  // Only worker tasks queue for a token: the root takes tokens through
  // acquire_bytes, which never waits (no conflicting records can exist).
  auto it = pending_.find(next);
  if (it == pending_.end()) return;
  JADE_ASSERT(it->second.stage == PendingRpc::Stage::kToken);
  const PendingRpc rpc = std::move(it->second);
  pending_.erase(it);
  grant_acquire_locked(next, rpc);
}

void ClusterEngine::finish_task_locked(TaskNode* task) {
  serializer_.complete_task(task);
  recs_.erase(task);
  drain_unblock_notices_locked();
  pump_locked();
  root_cv_.notify_all();  // backlog changed: throttled creators re-check
}

void ClusterEngine::pump_locked() {
  if (aborting_) return;
  bool dispatched = true;
  while (dispatched && !ready_.empty()) {
    dispatched = false;
    for (std::size_t s = 0; s < slots_.size() && !ready_.empty(); ++s) {
      WorkerSlot& slot = slots_[s];
      if (slot.machine < 0 || slot.dead || slot.eof || !slot.channel ||
          slot.channel->closed() || slot.running != nullptr)
        continue;
      // Candidate window: placement-compatible ready tasks, oldest first.
      std::vector<std::vector<ObjectId>> lists;
      std::vector<std::size_t> index_of;
      for (std::size_t i = 0; i < ready_.size() && lists.size() < kPickWindow;
           ++i) {
        TaskNode* t = ready_[i];
        if (t->placement >= 0) {
          if (slot_of_machine(t->placement) < 0) {
            abort_run_locked(std::make_exception_ptr(UnrecoverableError(
                "task '" + t->name() + "' is pinned to machine " +
                std::to_string(t->placement) + ", which died irrecoverably")));
            return;
          }
          if (t->placement != slot.machine) continue;
        }
        std::vector<ObjectId> objs;
        objs.reserve(t->record_count());
        for (const DeclRecord& r : t->ordered_records())
          objs.push_back(r.obj());
        lists.push_back(std::move(objs));
        index_of.push_back(i);
      }
      if (lists.empty()) continue;
      // Tracing also captures the scored window, so the selection can be
      // audited from the trace (the SimEngine "sched.place" counterpart).
      const bool tracing = tracer_.enabled();
      PlacementExplain explain;
      std::size_t pick =
          pick_task_for_machine(directory_, lists, slot.machine,
                                sched_.locality, tracing ? &explain : nullptr);
      if (tracing && pick != SIZE_MAX) {
        std::vector<std::uint64_t> ids;
        ids.reserve(index_of.size());
        for (std::size_t idx : index_of) ids.push_back(ready_[idx]->id());
        tracer_.instant_at(
            wall_now(), obs::Subsystem::kSched, "sched.place",
            ids[explain.chosen_index], slot.machine,
            static_cast<double>(explain.task_candidates.size()),
            format_task_select_explain(explain, slot.machine, ids));
      }
      if (pick == SIZE_MAX) pick = 0;
      TaskNode* task = ready_[static_cast<std::ptrdiff_t>(index_of[pick])];
      ready_.erase(ready_.begin() +
                   static_cast<std::ptrdiff_t>(index_of[pick]));
      dispatch_locked(task, static_cast<int>(s));
      dispatched = true;
    }
  }
  wake_event_loop();  // queued frames need a POLLOUT-aware poll set
}

void ClusterEngine::dispatch_locked(TaskNode* task, int s) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  const MachineId w = slot.machine;
  serializer_.task_started(task);
  TaskRec& rec = recs_[task];

  std::vector<FetchItem> items;
  for (const DeclRecord& r : task->ordered_records())
    if (r.immediate & (access::kRead | access::kWrite))
      items.push_back({r.obj(), (r.immediate & access::kWrite) != 0, true});
  if (!items.empty()) coherence_->fetch(w, items);

  DispatchMsg msg;
  msg.task = task->id();
  msg.body = rec.body;
  msg.name = task->name();
  msg.args = rec.args;  // copied: a crash re-dispatch sends them again
  for (const DeclRecord& r : task->ordered_records())
    msg.objects.push_back(
        make_ship_locked(task, r.obj(), w, rec, r.immediate));
  slot.channel->queue(FrameType::kDispatch, pack(msg));

  slot.running = task;
  slot.busy_since = wall_now();
  task->assigned_machine = w;
  ++dispatches_;
  if (tracer_.enabled())
    tracer_.span_begin_at(wall_now(), obs::Subsystem::kEngine, "task",
                          task->id(), w, task->name());
}

// --- data movement ----------------------------------------------------------

ObjectShip ClusterEngine::make_ship_locked(TaskNode* task, ObjectId obj,
                                           MachineId w, TaskRec& rec,
                                           std::uint8_t granted) {
  const DeclRecord* r = task->find_record(obj);
  ObjectShip ship;
  ship.obj = obj;
  ship.immediate = r != nullptr ? r->immediate : 0;
  ship.deferred = r != nullptr ? r->deferred : 0;
  ship.bytes = directory_.object_bytes(obj);
  // Commute-only rights ship their payload at the accessor RPC, after the
  // token orders this task among the commuters; deferred-only rights ship
  // at conversion.  Granted rd/wr rights ship now, iff the worker's copy is
  // stale under the shipped-version protocol.
  const std::uint8_t ships = granted & ship.immediate;
  if (ships & (access::kRead | access::kWrite))
    ship.has_payload = attach_payload_locked(
        obj, w, (ships & access::kWrite) != 0, rec, ship.payload);
  return ship;
}

bool ClusterEngine::attach_payload_locked(ObjectId obj, MachineId w,
                                          bool writes, TaskRec& rec,
                                          std::vector<std::byte>& payload) {
  const bool current = shipped_current(obj, w);
  if (writes) coherence_->first_write_invalidate(w, obj, rec.dirtied);
  set_shipped(obj, w);
  if (current) return false;
  const auto view = directory_.data_view(obj);
  payload.assign(view.begin(), view.end());
  payload_bytes_shipped_ += payload.size();
  return true;
}

bool ClusterEngine::shipped_current(ObjectId obj, MachineId m) const {
  const auto it = shipped_.find({obj, m});
  return it != shipped_.end() && it->second == directory_.data_version(obj);
}

void ClusterEngine::set_shipped(ObjectId obj, MachineId m) {
  shipped_[{obj, m}] = directory_.data_version(obj);
}

void ClusterEngine::apply_writeback_locked(ObjectId obj,
                                           std::span<const std::byte> data,
                                           MachineId from) {
  if (!directory_.known(obj))
    throw ProtocolError("writeback for unknown object " + std::to_string(obj));
  if (data.size() != directory_.object_bytes(obj))
    throw ProtocolError("writeback size mismatch on object " +
                        std::to_string(obj));
  // The writer held exclusivity, so it should be the sole holder already;
  // invalidate defensively so mark_dirty's precondition always holds.
  directory_.invalidate_replicas(obj);
  std::memcpy(directory_.data(obj), data.data(), data.size());
  directory_.mark_dirty(obj);
  // The writer's copy *is* the new canonical content; everyone else's
  // entry silently went stale when the data version advanced.
  set_shipped(obj, from);
  writeback_bytes_ += data.size();
}

void ClusterEngine::root_write_locked(ObjectId obj) {
  // The root writes the canonical buffer in place.  Unlike a task, the
  // root has no bracketed attempt, so every acquisition dirties: a stale
  // worker copy must never satisfy a later dispatch.
  const std::vector<MachineId> dropped = directory_.invalidate_replicas(obj);
  if (!dropped.empty())
    transport_.multicast(-1, dropped, 64, wall_now());
  directory_.mark_dirty(obj);
}

// --- TaskContext backend (root thread) --------------------------------------

void ClusterEngine::spawn(TaskNode* parent,
                          const std::vector<AccessRequest>& requests,
                          TaskContext::BodyFn body, std::string name,
                          MachineId placement, TenantCtl* tenant) {
  (void)parent;
  (void)requests;
  (void)body;
  (void)name;
  (void)placement;
  (void)tenant;
  throw ConfigError(
      "ClusterEngine cannot ship closures to worker processes; register the "
      "task body (BodyRegistry) and create children with cluster::spawn()");
}

void ClusterEngine::spawn_registered(TaskNode* parent,
                                     const std::vector<AccessRequest>& requests,
                                     int body, std::vector<std::byte> args,
                                     std::string name, MachineId placement) {
  std::unique_lock<std::mutex> lock(mu_);
  JADE_ASSERT_MSG(parent == serializer_.root(),
                  "coordinator-side spawn from a non-root task");
  if (throttle_.should_throttle(serializer_.backlog())) {
    throttle_.note_suspension();
    root_cv_.wait(lock, [&] {
      return throttle_.backlog_drained(serializer_.backlog()) || aborting_;
    });
  }
  rethrow_if_aborting_locked();
  create_registered_locked(parent, requests, body, std::move(args),
                           std::move(name), placement);
  drain_unblock_notices_locked();
  pump_locked();
  wake_event_loop();
}

void ClusterEngine::with_cont(TaskNode* task,
                              const std::vector<AccessRequest>& requests) {
  std::unique_lock<std::mutex> lock(mu_);
  release_retired_tokens_locked(task, requests);
  const bool must_block = serializer_.update_spec(task, requests);
  drain_unblock_notices_locked();
  pump_locked();
  wake_event_loop();
  if (must_block) {
    root_cv_.wait(lock, [&] { return root_unblock_noticed_ || aborting_; });
    root_unblock_noticed_ = false;
    rethrow_if_aborting_locked();
  }
}

std::byte* ClusterEngine::acquire_bytes(TaskNode* task, ObjectId obj,
                                        std::uint8_t mode) {
  std::unique_lock<std::mutex> lock(mu_);
  JADE_ASSERT_MSG(task == serializer_.root(),
                  "coordinator-side accessor from a non-root task");
  rethrow_if_aborting_locked();
  // The root never blocks here: the serializer either admits the access
  // (no conflicting task records) or throws.
  const bool must_block = serializer_.acquire(task, obj, mode);
  JADE_ASSERT(!must_block);
  if (mode & access::kCommute) {
    // No conflicting records exist (or acquire would have thrown), so no
    // task can hold the token.
    const bool got = tokens_.try_acquire(obj, task);
    JADE_ASSERT_MSG(got, "commute token held with no conflicting records");
  }
  if (mode & (access::kWrite | access::kCommute)) root_write_locked(obj);
  return directory_.data(obj);
}

void ClusterEngine::rethrow_if_aborting_locked() const {
  if (!aborting_) return;
  if (first_error_) std::rethrow_exception(first_error_);
  throw UnrecoverableError("run aborted");
}

void ClusterEngine::charge(TaskNode* task, double units) {
  std::lock_guard<std::mutex> lock(mu_);
  task->charged_work += units;
  stats_.total_charged_work += units;
}

MachineId ClusterEngine::machine_of(TaskNode* task) const {
  return task->assigned_machine >= 0 ? task->assigned_machine : 0;
}

void ClusterEngine::enable_tracing(const ObsConfig& config) {
  Engine::enable_tracing(config);
  directory_.set_observer(&tracer_, [this] { return wall_now(); });
}

// --- failure handling -------------------------------------------------------

void ClusterEngine::handle_worker_death_locked(int s) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  const MachineId w = slot.machine;
  slot.dead = true;
  slot.machine = -1;
  slot.channel->close();
  if (w < 0) return;  // a spare died; nothing was running there

  ++worker_deaths_;
  ++stats_.machine_crashes;
  transport_.set_channel(w, nullptr);
  if (tracer_.enabled())
    tracer_.instant_at(wall_now(), obs::Subsystem::kFt, "worker.death",
                       static_cast<std::uint64_t>(slot.pid), w);

  // The running attempt died with the process.
  TaskNode* victim = slot.running;
  slot.running = nullptr;
  if (victim != nullptr) {
    ++stats_.tasks_killed;
    stats_.wasted_charged_work += victim->charged_work;
    pending_.erase(victim);
    tokens_.remove_waiter(victim);
    release_tokens_locked(victim);
    const auto rec_it = recs_.find(victim);
    const bool restartable =
        rec_it != recs_.end() && rec_it->second.restartable;
    if (aborting_) {
      // Nothing to recover; the run is already failing.
    } else if (restartable) {
      // A pure leaf: rewind and requeue.  Its acquire-time data-version
      // bumps are remembered in rec.dirtied, so the re-run re-ships
      // payloads without double-bumping.
      serializer_.abort_attempt(victim);
      victim->assigned_machine = -1;
      ready_.push_front(victim);
      ++stats_.tasks_requeued;
    } else {
      abort_run_locked(std::make_exception_ptr(UnrecoverableError(
          "worker machine " + std::to_string(w) + " died while task '" +
          victim->name() +
          "' had visible effects (spawned children or ran a with-cont); "
          "the run cannot be transparently recovered")));
    }
  }

  // Directory surgery: the machine's copies are gone.  The coordinator's
  // canonical buffer is the stable store, so nothing is ever lost — a sole
  // copy "restores" (metadata-only) to a survivor and the shipped-version
  // map re-ships actual bytes on the next dispatch that needs them.
  const std::vector<std::uint8_t> up = machine_up_mask();
  const bool any_up =
      std::find(up.begin(), up.end(), std::uint8_t{1}) != up.end();
  for (ObjectId obj : directory_.objects_on(w)) {
    if (directory_.sole_holder(obj, w)) {
      directory_.drop_copy(obj, w);
      if (any_up) {
        directory_.restore_to(obj, pick_restore_machine(up, obj));
        ++stats_.objects_restored;
      }
    } else if (directory_.owner(obj) == w) {
      const MachineId nh = pick_rehome_machine(directory_, obj, up);
      JADE_ASSERT_MSG(nh >= 0, "replicas of a dead owner must be live");
      directory_.set_owner(obj, nh);
      directory_.drop_copy(obj, w);
      ++stats_.objects_rehomed;
    } else {
      directory_.drop_copy(obj, w);
    }
  }
  coherence_->forget_machine(w);
  directory_.forget_last_seen(w);
  for (auto it = shipped_.begin(); it != shipped_.end();)
    it = it->first.machine == w ? shipped_.erase(it) : std::next(it);

  // A pre-forked spare takes over the machine id.
  for (WorkerSlot& spare : slots_) {
    if (spare.machine != -1 || spare.dead || spare.eof || !spare.channel ||
        spare.channel->closed())
      continue;
    spare.machine = w;
    ActivateMsg act;
    act.machine = w;
    act.machines = options_.workers;
    act.heartbeat_interval = options_.heartbeat_interval;
    spare.channel->queue(FrameType::kActivate, pack(act));
    spare.channel->flush();
    transport_.set_channel(w, spare.channel.get());
    detector_->heartbeat_received(w + 1, wall_now());
    ++workers_respawned_;
    if (tracer_.enabled())
      tracer_.instant_at(wall_now(), obs::Subsystem::kFt, "worker.respawn",
                         static_cast<std::uint64_t>(spare.pid), w);
    break;
  }

  if (!any_up && slot_of_machine(w) < 0 && !aborting_ &&
      (serializer_.outstanding() > 0 || !ready_.empty())) {
    abort_run_locked(std::make_exception_ptr(
        UnrecoverableError("every worker process died")));
  }
  pump_locked();
}

void ClusterEngine::abort_run_locked(std::exception_ptr error) {
  if (!first_error_) first_error_ = error;
  if (aborting_) {
    root_cv_.notify_all();
    return;
  }
  aborting_ = true;
  // Fail every parked RPC so blocked workers unwind their task bodies
  // (which report TaskError, idling their machines — the exit condition).
  for (auto& [task, rpc] : pending_) {
    const int s = slot_of_machine(rpc.worker);
    if (s < 0) continue;
    Channel& ch = *slots_[static_cast<std::size_t>(s)].channel;
    if (rpc.kind == PendingRpc::Kind::kAcquire)
      nak_acquire(ch, task, rpc.obj, ErrorCode::kUnrecoverable, "run aborted");
    else
      nak_with_cont(ch, task, ErrorCode::kUnrecoverable, "run aborted");
    tokens_.remove_waiter(task);
  }
  pending_.clear();
  root_cv_.notify_all();
  wake_event_loop();
}

// --- introspection ----------------------------------------------------------

pid_t ClusterEngine::worker_pid(MachineId m) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int s = slot_of_machine(m);
  return s < 0 ? -1 : slots_[static_cast<std::size_t>(s)].pid;
}

bool ClusterEngine::debug_probe(ObjectId obj) {
  std::lock_guard<std::mutex> lock(mu_);
  int s = -1;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const WorkerSlot& slot = slots_[i];
    if (slot.machine >= 0 && !slot.dead && !slot.eof && slot.channel &&
        !slot.channel->closed() && shipped_current(obj, slot.machine)) {
      s = static_cast<int>(i);
      break;
    }
  }
  if (s < 0) return true;  // no worker claims a current copy: nothing to check
  Channel& ch = *slots_[static_cast<std::size_t>(s)].channel;
  ObjFetchMsg req;
  req.obj = obj;
  ch.queue(FrameType::kObjFetch, pack(req));
  const double deadline = wall_now() + 10.0;
  while (wall_now() < deadline) {
    if (!ch.flush()) return false;
    pollfd p{ch.fd(), POLLIN, 0};
    ::poll(&p, 1, 50);
    std::vector<Frame> frames;
    if (!ch.drain(frames)) return false;
    for (const Frame& f : frames) {
      if (f.type == FrameType::kHeartbeat) {
        const HeartbeatMsg hb = unpack<HeartbeatMsg>(f.payload);
        detector_->heartbeat_received(hb.machine + 1, wall_now());
      } else if (f.type == FrameType::kObjData) {
        const ObjDataMsg data = unpack<ObjDataMsg>(f.payload);
        if (data.obj != obj) continue;
        const auto view = directory_.data_view(obj);
        return data.payload.size() == view.size() &&
               std::memcmp(data.payload.data(), view.data(), view.size()) == 0;
      }
    }
  }
  return false;  // probe timed out
}

}  // namespace jade::cluster
