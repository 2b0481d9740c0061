// relax_sim: the pipelined relax solver on the simulated heterogeneous
// workstation network (presets::hetero_workstations(8)).
//
// Halo rows are read through df_rd declarations that each sweep converts
// and retires with with-continuations, so the simulator, network, store
// and coherence protocol and the type layer's endian conversion do the
// work, and the serializer is used through deferred rights and partial
// retirement rather than plain rd_wr chains.  Each program is one solve on
// a fresh Runtime (the simulated clock keeps running across runs of one
// engine), so makespan_vs is the solve's own virtual time.
//
// The run is pinned to one CPU.  The simulator runs one thread per simulated
// process and hands off between them; on a virtual machine a hand-off to
// another vCPU costs whatever the hypervisor takes to wake it, which swings
// several-fold from minute to minute, while on one CPU the wall time is the
// simulator's own cost.
#include <memory>

#include "jade/apps/relax.hpp"
#include "workloads.hpp"

namespace jadebench {

namespace {

using jade::Runtime;
using jade::TaskContext;
namespace apps = jade::apps;

apps::RelaxConfig relax_config(const Options& opt) {
  apps::RelaxConfig c;
  c.rows = opt.tiny ? 32 : 256;
  c.cols = c.rows;
  c.strips = opt.tiny ? 4 : 32;
  c.iterations = opt.tiny ? 4 : 200;
  c.seed = opt.seed;
  c.pipelined = true;
  return c;
}

struct Solve {
  double setup_s = 0;
  double run_s = 0;
  bool ok = false;
  jade::RuntimeStats stats;
};

Solve solve(const apps::RelaxConfig& c, const apps::RelaxState& input,
            const apps::RelaxState& expect, std::uint64_t id) {
  Solve s;
  const double t0 = now_s();
  Runtime rt(sim_config());
  const apps::JadeRelax w = apps::upload_relax(rt, c, input);
  const std::int64_t r0 = now_ns();
  s.setup_s = static_cast<double>(r0) * 1e-9 - t0;
  std::int64_t root0 = 0;
  std::int64_t root1 = 0;
  rt.run([&](TaskContext& ctx) {
    root0 = now_ns();
    apps::relax_run_jade(ctx, w);
    root1 = now_ns();
  });
  const std::int64_t r1 = now_ns();
  s.run_s = static_cast<double>(r1 - r0) * 1e-9;
  s.stats = rt.stats();
  if (spans().on()) {
    spans().record("run", id, r0, r1);
    spans().record("root", id, root0, root1);
    spans().record("drain", id, root1, r1);
  }
  s.ok = apps::download_relax(rt, w).grid == expect.grid;
  return s;
}

}  // namespace

Result run_relax_sim(const Options& opt) {
  Result r;
  const OneCpu pin;
  const apps::RelaxConfig c = relax_config(opt);
  const apps::RelaxState input = apps::make_relax(c);
  apps::RelaxState expect = input;
  const double serial0 = now_s();
  apps::relax_run_serial(c, expect);
  const double serial_s = now_s() - serial0;

  std::vector<double> setups;  // reference-host seconds
  std::vector<double> unscaled_setups;
  double makespan = -1;
  std::uint64_t next_id = 0;
  auto phase = [&](double seconds, StatsSum* stats, double* util) {
    ProgramSamples ps;
    const double t0 = now_s();
    do {
      const double probe = probe_s();
      const double w0 = now_s();
      const Solve s = solve(c, input, expect, next_id++);
      ++r.attempted;
      // Bit-identical grid, and the same virtual makespan every solve.
      const bool same_time =
          makespan < 0 || s.stats.finish_time == makespan;
      if (!s.ok || !same_time) {
        ++r.failed;
        r.correct = false;
      }
      if (makespan < 0) makespan = s.stats.finish_time;
      setups.push_back(to_ref_s(s.setup_s, probe));
      unscaled_setups.push_back(s.setup_s);
      ps.run_s.push_back(s.run_s);
      ps.tasks_per_s.push_back(static_cast<double>(s.stats.tasks_created) /
                               s.run_s);
      if (stats != nullptr) stats->add(s.stats);
      if (util != nullptr) *util += machine_util(s.stats);
      ps.probe_s.push_back(probe);
      ps.whole_s.push_back(now_s() - w0);
    } while (now_s() - t0 < seconds);
    ps.wall_s = now_s() - t0;
    return ps;
  };
  // Solves take about a second, so set-up is also timed on its own until
  // there are kSetupReps samples.
  auto more_setups = [&] {
    while (setups.size() < kSetupReps) {
      const double probe = probe_s();
      const double t0 = now_s();
      Runtime rt(sim_config());
      apps::upload_relax(rt, c, input);
      const double secs = now_s() - t0;
      setups.push_back(to_ref_s(secs, probe));
      unscaled_setups.push_back(secs);
    }
  };

  if (!opt.trace) {
    const ProgramSamples ps = phase(opt.seconds, nullptr, nullptr);
    more_setups();
    put_program_metrics(ps, r);
    r.metrics["makespan_vs"] = makespan;
    r.metrics["setup_s"] = median(setups);
    r.notes["unscaled_setup_s"] = median(unscaled_setups);
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    return r;
  }

  const ProgramSamples plain = phase(opt.seconds / 2, nullptr, nullptr);
  spans().enable();
  StatsSum stats;
  double util = 0;
  const ProgramSamples traced = phase(opt.seconds / 2, &stats, &util);
  const std::vector<Span> all = spans().collect();
  put_spine_layers(all, stats, r);
  // The solver's tasks are created inside the library's relax_run_jade, so
  // the spawn cost is the root body's wall time per task it created.
  const double root_ns = mean(durations_ns(all, "root"));
  const double tasks = stats.tasks_created / stats.programs;
  r.metrics["engine.spawn_ns"] = root_ns / tasks;
  r.metrics["engine.spawn_share"] = root_ns / mean(durations_ns(all, "run"));
  r.metrics["sim.machine_util"] = util / stats.programs;
  r.metrics["apps.serial_s"] = serial_s;
  put_program_p99(plain, r);
  r.metrics["trace.overhead_frac"] =
      overhead_frac(median(plain.tasks_per_s), median(traced.tasks_per_s));
  return r;
}

}  // namespace jadebench
