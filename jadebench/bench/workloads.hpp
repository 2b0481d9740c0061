// The four jadebench workloads and the helpers they share.
//
// Each workload builds its inputs from the seed, times its set-up several
// times, measures whole programs (or server sessions) for the requested
// seconds, verifies every output against the serial reference, and fills a
// Result.  A traced run measures half the time untraced and half traced, so
// the per-layer figures come with the tracing overhead beside them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "jade/core/runtime.hpp"
#include "jade/core/stats.hpp"

namespace jadebench {

Result run_fanout_thread(const Options& opt);
Result run_relax_sim(const Options& opt);
Result run_cholesky_cluster(const Options& opt);
Result run_churn_server(const Options& opt);

/// Set-ups timed per run (setup_s is their median); fanout_thread and
/// churn_server also spread their seconds over this many engine instances.
inline constexpr int kSetupReps = 9;

/// The simulated platform every workload's program is also run on for
/// makespan_vs: the paper's heterogeneous network of workstations.
jade::RuntimeConfig sim_config();

/// Whole programs measured in one phase of a run.
struct ProgramSamples {
  std::vector<double> run_s;        ///< Runtime::run wall time per program
  std::vector<double> tasks_per_s;  ///< per program
  double wall_s = 0;                ///< the phase, host work included
  /// p99 of run_s per engine instance, when the phase used several; the
  /// session p99 is then their median (one instance's stall moves only its
  /// own figure).
  std::vector<double> instance_p99;
  /// The one-CPU workloads' programs, each timed beside its own probe:
  /// probe_s() taken just before the program, and the program's wall time
  /// with its host work (set-up, upload, check) included.
  std::vector<double> probe_s;
  std::vector<double> whole_s;
};

/// tasks_per_s, sessions_per_s and session_p50_s of a program loop (a
/// "session" is one whole program there).  With probes, each program's
/// timing is scaled to reference-host seconds by its own probe, and the
/// unscaled medians go to the stamp line.
void put_program_metrics(const ProgramSamples& ps, Result& r);

/// session_p99_s of a program loop, with its sample counts.
void put_program_p99(const ProgramSamples& ps, Result& r);

/// RuntimeStats summed over the programs of a traced phase.
struct StatsSum {
  double programs = 0;
  double tasks_created = 0;
  double tasks_stolen = 0;
  double worker_parks = 0;
  double throttle_suspensions = 0;
  double messages = 0;
  double payload_bytes = 0;
  double object_moves = 0;
  double object_copies = 0;
  double invalidations = 0;
  double scalars_converted = 0;
  double replicas_reused = 0;
  double bytes_avoided = 0;

  void add(const jade::RuntimeStats& s);
};

/// Mean busy share of the simulated machines over the run's makespan.
double machine_util(const jade::RuntimeStats& s);

/// Fills the spine and counter layers shared by every workload from the
/// traced phase's spans and summed stats: spawn, dispatch wait, accessor,
/// body, drain, steal and network/store counters (per program).
void put_spine_layers(const std::vector<Span>& all, const StatsSum& sum,
                      Result& r);

/// 1 - traced / untraced task throughput.
double overhead_frac(double untraced_tasks_per_s, double traced_tasks_per_s);

}  // namespace jadebench
