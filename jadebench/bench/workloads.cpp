#include "workloads.hpp"

#include "jade/mach/presets.hpp"

namespace jadebench {

jade::RuntimeConfig sim_config() {
  jade::RuntimeConfig cfg;
  cfg.engine = jade::EngineKind::kSim;
  cfg.cluster = jade::presets::hetero_workstations(8);
  return cfg;
}

void put_program_metrics(const ProgramSamples& ps, Result& r) {
  const double programs = static_cast<double>(ps.run_s.size());
  r.samples["session_p50_s"] = ps.run_s.size();
  if (ps.probe_s.empty()) {
    r.metrics["tasks_per_s"] = median(ps.tasks_per_s);
    r.metrics["sessions_per_s"] = ps.wall_s > 0 ? programs / ps.wall_s : 0;
    r.metrics["session_p50_s"] = median(ps.run_s);
    return;
  }
  std::vector<double> run_s;
  std::vector<double> tasks_per_s;
  double whole_s = 0;
  double unscaled_whole_s = 0;
  for (std::size_t i = 0; i < ps.run_s.size(); ++i) {
    const double ref_s = to_ref_s(ps.run_s[i], ps.probe_s[i]);
    run_s.push_back(ref_s);
    tasks_per_s.push_back(ps.tasks_per_s[i] * ps.run_s[i] / ref_s);
    whole_s += to_ref_s(ps.whole_s[i], ps.probe_s[i]);
    unscaled_whole_s += ps.whole_s[i];
  }
  r.metrics["tasks_per_s"] = median(tasks_per_s);
  r.metrics["sessions_per_s"] = programs / whole_s;
  r.metrics["session_p50_s"] = median(run_s);
  r.notes["probe_s"] = median(ps.probe_s);
  r.notes["unscaled_tasks_per_s"] = median(ps.tasks_per_s);
  r.notes["unscaled_sessions_per_s"] = programs / unscaled_whole_s;
  r.notes["unscaled_session_p50_s"] = median(ps.run_s);
}

void put_program_p99(const ProgramSamples& ps, Result& r) {
  r.samples["session_p99_s"] = ps.run_s.size();
  if (ps.instance_p99.empty()) {
    r.metrics["session_p99_s"] = percentile(ps.run_s, 0.99);
    r.samples["session_p99_s.beyond"] = samples_beyond(ps.run_s.size(), 0.99);
  } else {
    r.metrics["session_p99_s"] = median(ps.instance_p99);
    r.samples["instances"] = ps.instance_p99.size();
    r.samples["session_p99_s.beyond"] =
        samples_beyond(ps.run_s.size() / ps.instance_p99.size(), 0.99);
  }
}

void StatsSum::add(const jade::RuntimeStats& s) {
  programs += 1;
  tasks_created += static_cast<double>(s.tasks_created);
  tasks_stolen += static_cast<double>(s.tasks_stolen);
  worker_parks += static_cast<double>(s.worker_parks);
  throttle_suspensions += static_cast<double>(s.throttle_suspensions);
  messages += static_cast<double>(s.messages);
  payload_bytes += static_cast<double>(s.payload_bytes);
  object_moves += static_cast<double>(s.object_moves);
  object_copies += static_cast<double>(s.object_copies);
  invalidations += static_cast<double>(s.invalidations);
  scalars_converted += static_cast<double>(s.scalars_converted);
  replicas_reused += static_cast<double>(s.replicas_reused);
  bytes_avoided += static_cast<double>(s.bytes_avoided);
}

double machine_util(const jade::RuntimeStats& s) {
  if (s.finish_time <= 0 || s.machine_busy_seconds.empty()) return 0;
  return mean(s.machine_busy_seconds) / s.finish_time;
}

void put_spine_layers(const std::vector<Span>& all, const StatsSum& sum,
                      Result& r) {
  auto& m = r.metrics;
  const double spawn_ns = mean(durations_ns(all, "spawn"));
  const std::vector<double> waits = dispatch_waits_ns(all);
  if (!waits.empty()) {
    m["engine.dispatch_wait_ns_p50"] = median(waits);
    m["engine.dispatch_wait_ns_p99"] = percentile(waits, 0.99);
    r.samples["engine.dispatch_wait_ns"] = waits.size();
  }
  if (spawn_ns > 0) m["engine.spawn_ns"] = spawn_ns;
  const std::vector<double> acquire = durations_ns(all, "acquire");
  if (!acquire.empty()) m["core.acquire_ns"] = mean(acquire);
  const std::vector<double> body = durations_ns(all, "body");
  if (!body.empty()) m["engine.body_ns"] = mean(body);
  const std::vector<double> drain = durations_ns(all, "drain");
  if (!drain.empty()) m["engine.drain_s"] = mean(drain) * 1e-9;

  const double run_ns = mean(durations_ns(all, "run"));
  const double programs = sum.programs > 0 ? sum.programs : 1;
  const double tasks_per_program = sum.tasks_created / programs;
  if (run_ns > 0 && tasks_per_program > 0) {
    m["engine.spawn_share"] = m["engine.spawn_ns"] * tasks_per_program / run_ns;
    m["sim.run_ns_per_task"] = run_ns / tasks_per_program;
  }
  m["engine.tasks_stolen"] = sum.tasks_stolen / programs;
  m["engine.steal_ratio"] =
      sum.tasks_created > 0 ? sum.tasks_stolen / sum.tasks_created : 0;
  m["engine.worker_parks"] = sum.worker_parks / programs;
  m["engine.throttle_suspensions"] = sum.throttle_suspensions / programs;
  m["net.messages"] = sum.messages / programs;
  m["net.payload_bytes"] = sum.payload_bytes / programs;
  m["store.object_moves"] = sum.object_moves / programs;
  m["store.object_copies"] = sum.object_copies / programs;
  m["store.invalidations"] = sum.invalidations / programs;
  m["types.scalars_converted"] = sum.scalars_converted / programs;
  m["comm.replicas_reused"] = sum.replicas_reused / programs;
  m["comm.bytes_avoided"] = sum.bytes_avoided / programs;
}

double overhead_frac(double untraced_tasks_per_s, double traced_tasks_per_s) {
  if (untraced_tasks_per_s <= 0) return 0;
  return 1.0 - traced_tasks_per_s / untraced_tasks_per_s;
}

}  // namespace jadebench
