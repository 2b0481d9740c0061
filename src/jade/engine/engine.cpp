// Engine is an interface; shared helpers live here.
#include "jade/engine/engine.hpp"

#include "jade/sched/governor.hpp"

namespace jade {

void Engine::enable_tracing(const ObsConfig& config) {
  if (!config.trace) {
    tracer_.detach();
    recorder_.reset();
    return;
  }
  recorder_ = std::make_unique<obs::TraceRecorder>(config.trace_capacity);
  tracer_.attach(recorder_.get(), [this] { return trace_now(); });
  tracer_.set_wall_clock(config.wall_clock);
}

TenantCtl* Engine::spawn_prologue(const TaskNode* parent) {
  if (parent->speculating()) throw SpeculationUnwind{};
  TenantCtl* ctl = parent->tenant();
  if (ctl != nullptr && ctl->cancelled.load(std::memory_order_relaxed))
    throw TenantUnwind{};
  return ctl;
}

void Engine::publish_runtime_stats() {
  const RuntimeStats& s = stats_;
  obs::MetricsRegistry& m = metrics_;
  m.counter("engine.tasks_created").set(s.tasks_created);
  m.counter("engine.tasks_migrated").set(s.tasks_migrated);
  m.counter("engine.throttle_suspensions").set(s.throttle_suspensions);
  m.counter("engine.throttle_giveups").set(s.throttle_giveups);
  m.counter("engine.tasks_stolen").set(s.tasks_stolen);
  m.counter("engine.worker_parks").set(s.worker_parks);
  m.counter("net.messages").set(s.messages);
  m.counter("net.bytes_sent").set(s.bytes_sent);
  m.counter("net.payload_bytes").set(s.payload_bytes);
  m.counter("comm.requests_combined").set(s.requests_combined);
  m.counter("comm.replicas_reused").set(s.replicas_reused);
  m.counter("comm.invalidations_coalesced").set(s.invalidations_coalesced);
  m.counter("comm.conversions_cached").set(s.conversions_cached);
  m.counter("comm.bytes_avoided").set(s.bytes_avoided);
  m.counter("spec.started").set(s.spec_started);
  m.counter("spec.committed").set(s.spec_committed);
  m.counter("spec.aborted").set(s.spec_aborted);
  m.counter("spec.denied").set(s.spec_denied);
  m.counter("spec.wasted_bytes").set(s.spec_wasted_bytes);
  m.gauge("spec.wasted_work").set(s.spec_wasted_work);
  m.counter("store.object_moves").set(s.object_moves);
  m.counter("store.object_copies").set(s.object_copies);
  m.counter("store.invalidations").set(s.invalidations);
  m.counter("store.scalars_converted").set(s.scalars_converted);
  m.gauge("engine.total_charged_work").set(s.total_charged_work);
  m.gauge("engine.finish_time").set(s.finish_time);
  m.counter("ft.machine_crashes").set(s.machine_crashes);
  m.counter("ft.tasks_killed").set(s.tasks_killed);
  m.counter("ft.tasks_requeued").set(s.tasks_requeued);
  m.counter("ft.messages_dropped").set(s.messages_dropped);
  m.counter("ft.message_retries").set(s.message_retries);
  m.counter("ft.heartbeats_sent").set(s.heartbeats_sent);
  m.counter("ft.false_suspicions").set(s.false_suspicions);
  m.counter("ft.objects_rehomed").set(s.objects_rehomed);
  m.counter("ft.objects_restored").set(s.objects_restored);
  m.counter("ft.objects_lost").set(s.objects_lost);
  m.gauge("ft.wasted_charged_work").set(s.wasted_charged_work);
  m.gauge("ft.detection_latency_total").set(s.detection_latency_total);
}

}  // namespace jade
