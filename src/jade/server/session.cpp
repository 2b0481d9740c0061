#include "jade/server/session.hpp"

#include "jade/server/server.hpp"

namespace jade::server {

const char* session_state_name(SessionState s) {
  switch (s) {
    case SessionState::kQueued: return "queued";
    case SessionState::kAdmitted: return "admitted";
    case SessionState::kRunning: return "running";
    case SessionState::kCompleted: return "completed";
    case SessionState::kFailed: return "failed";
    case SessionState::kCancelled: return "cancelled";
  }
  return "unknown";
}

Session::Session(JadeServer& server, Engine& engine, TenantId id,
                 std::string name, double weight, std::size_t expected_bytes)
    : server_(&server),
      engine_(&engine),
      ctl_(id),
      name_(std::move(name)),
      weight_(weight),
      expected_bytes_(expected_bytes) {}

ObjectId Session::alloc_raw(TypeDescriptor type, std::string name) {
  if (session_terminal(state()))
    throw ConfigError("alloc on session '" + name_ + "' after " +
                      session_state_name(state()));
  const std::size_t size = type.byte_size();
  std::string qualified = "t" + std::to_string(id()) + "/" + name;
  const ObjectId obj =
      engine_->allocate(std::move(type), std::move(qualified), -1);
  engine_->set_object_tenant(obj, id());
  std::lock_guard<std::mutex> lock(mu_);
  owned_objects_.push_back(obj);
  bytes_allocated_ += size;
  return obj;
}

void Session::check_owned(ObjectId obj) const {
  const TenantId owner = engine_->object_info(obj).tenant;
  if (owner != ctl_.id && owner != kSharedTenant)
    throw TenantIsolationError(
        "session '" + name_ + "' (tenant " + std::to_string(ctl_.id) +
        ") accessed object '" + engine_->object_info(obj).name +
        "' owned by tenant " + std::to_string(owner));
}

void Session::submit(TaskContext::BodyFn body) {
  server_->submit(*this, std::move(body));
}

SessionState Session::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return session_terminal(state()); });
  return state();
}

void Session::cancel() { server_->cancel(*this); }

void Session::close() { server_->close(*this); }

SessionStats Session::stats() const {
  SessionStats out;
  out.tasks_created = ctl_.tasks_created.load(std::memory_order_relaxed);
  out.tasks_completed = ctl_.tasks_completed.load(std::memory_order_relaxed);
  out.tasks_cancelled = ctl_.tasks_cancelled.load(std::memory_order_relaxed);
  out.max_live = ctl_.max_live.load(std::memory_order_relaxed);
  out.latency_seconds = latency_seconds_.load(std::memory_order_relaxed);
  return out;
}

void Session::rethrow_failure() const {
  if (std::exception_ptr err = ctl_.failure()) std::rethrow_exception(err);
}

void Session::on_quiesce() {
  // Engine context (the thread that completed the tenant's last task):
  // record and notify only — never back into the engine.
  const double latency =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    submit_time_)
          .count();
  latency_seconds_.store(latency, std::memory_order_relaxed);
  SessionState outcome = SessionState::kCompleted;
  if (ctl_.failure() != nullptr) {
    outcome = SessionState::kFailed;
  } else if (ctl_.cancelled.load(std::memory_order_relaxed)) {
    outcome = SessionState::kCancelled;
  }
  m_created_->set(ctl_.tasks_created.load(std::memory_order_relaxed));
  m_completed_->set(ctl_.tasks_completed.load(std::memory_order_relaxed));
  m_cancelled_->set(ctl_.tasks_cancelled.load(std::memory_order_relaxed));
  m_max_live_->set(ctl_.max_live.load(std::memory_order_relaxed));
  server_->note_quiesced(outcome, latency);
  finish_as(outcome);
}

void Session::finish_as(SessionState s) {
  // Notify while holding mu_: a wait()er may destroy this Session the
  // moment it observes a terminal state, so the broadcast must complete
  // before any waiter can get past the mutex.
  std::lock_guard<std::mutex> lock(mu_);
  state_.store(s, std::memory_order_release);
  cv_.notify_all();
}

}  // namespace jade::server
