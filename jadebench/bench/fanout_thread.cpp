// fanout_thread: the task spine on real cores.
//
// ThreadEngine with one worker per core but one: the root body runs on the
// host thread that calls Runtime::run, so the run uses every core without
// oversubscribing them.  Each program is one root that
// creates `tasks` near-empty rd_wr tasks, each adding a seeded increment to
// one of `objects` small objects chosen in seeded order.  With four tasks
// per object the per-object queues stay short, so task creation, serializer
// insert, enable/retire, deque push/steal and the access check do nearly
// all the work; nothing crosses a wire or advances virtual time.  (Deep
// queues, e.g. 1M tasks over 16 objects, measure queue scanning instead.)
#include <algorithm>
#include <memory>
#include <random>

#include "workloads.hpp"

namespace jadebench {

namespace {

using jade::AccessDecl;
using jade::Runtime;
using jade::SharedRef;
using jade::TaskContext;

/// Record spans for one task in this many (the traced phase).
constexpr std::uint64_t kSampleEvery = 64;

/// Programs run so far in this process: span ids stay unique across the
/// engine instances of a run.
std::uint64_t g_programs = 0;

struct Inputs {
  int objects = 0;
  int tasks = 0;
  std::vector<std::uint32_t> target;  ///< object of task i
  std::vector<std::int64_t> inc;      ///< increment of task i
  std::vector<std::int64_t> initial;  ///< object start values
};

Inputs make_inputs(const Options& opt) {
  Inputs in;
  in.objects = opt.tiny ? 64 : 4096;
  in.tasks = opt.tiny ? 256 : 16384;
  std::mt19937_64 rng(opt.seed);
  in.initial.resize(static_cast<std::size_t>(in.objects));
  for (auto& v : in.initial) v = static_cast<std::int64_t>(rng() % 1000);
  in.target.resize(static_cast<std::size_t>(in.tasks));
  in.inc.resize(static_cast<std::size_t>(in.tasks));
  for (int i = 0; i < in.tasks; ++i) {
    in.target[static_cast<std::size_t>(i)] =
        static_cast<std::uint32_t>(rng() % static_cast<std::uint64_t>(in.objects));
    in.inc[static_cast<std::size_t>(i)] = 1 + static_cast<std::int64_t>(rng() % 7);
  }
  return in;
}

/// The serial program: every task's increment applied in creation order.
std::vector<std::int64_t> serial_sums(const Inputs& in) {
  std::vector<std::int64_t> sums(static_cast<std::size_t>(in.objects), 0);
  for (int i = 0; i < in.tasks; ++i)
    sums[in.target[static_cast<std::size_t>(i)]] += in.inc[static_cast<std::size_t>(i)];
  return sums;
}

struct Instance {
  std::unique_ptr<Runtime> rt;
  std::vector<SharedRef<std::int64_t>> objs;
  std::uint64_t programs_run = 0;  ///< programs applied to the objects
};

Instance set_up(const Inputs& in, jade::RuntimeConfig cfg) {
  Instance inst;
  inst.rt = std::make_unique<Runtime>(std::move(cfg));
  inst.objs.reserve(static_cast<std::size_t>(in.objects));
  for (int o = 0; o < in.objects; ++o) {
    const std::int64_t v = in.initial[static_cast<std::size_t>(o)];
    inst.objs.push_back(inst.rt->alloc_init<std::int64_t>(
        std::span<const std::int64_t>(&v, 1)));
  }
  return inst;
}

/// One task's inputs, addressed by the task body.  The body captures only a
/// pointer to this and the program number, so std::function keeps it inline
/// and the benchmark adds no allocation per task to the spine it measures.
struct TaskArgs {
  SharedRef<std::int64_t> obj;
  std::int64_t inc = 0;
  std::uint64_t index = 0;
};

/// Runs one program; returns Runtime::run wall seconds.  Spans are taken
/// for every kSampleEvery-th task when tracing is on.
double run_program(Instance& inst, const Inputs& in, std::uint64_t program) {
  const bool traced = spans().on();
  const auto tasks = static_cast<std::uint64_t>(in.tasks);
  std::vector<TaskArgs> args(tasks);
  for (std::uint64_t i = 0; i < tasks; ++i)
    args[i] = {inst.objs[in.target[i]], in.inc[i], i};
  std::int64_t root_end = 0;
  const std::int64_t r0 = now_ns();
  inst.rt->run([&](TaskContext& ctx) {
    for (const TaskArgs& a : args) {
      const std::uint64_t id = program * tasks + a.index;
      const bool sampled = traced && id % kSampleEvery == 0;
      const std::int64_t s0 = sampled ? now_ns() : 0;
      const TaskArgs* task = &a;
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(task->obj); },
                   [task, id](TaskContext& t) {
                     if (id % kSampleEvery != 0 || !spans().on()) {
                       t.read_write(task->obj)[0] += task->inc;
                       return;
                     }
                     const std::int64_t b0 = now_ns();
                     auto v = t.read_write(task->obj);
                     const std::int64_t a1 = now_ns();
                     v[0] += task->inc;
                     const std::int64_t b1 = now_ns();
                     spans().record("acquire", id, b0, a1);
                     spans().record("body", id, b0, b1);
                   });
      if (sampled) spans().record("spawn", id, s0, now_ns());
    }
    root_end = now_ns();
  });
  const std::int64_t r1 = now_ns();
  ++inst.programs_run;
  if (traced) {
    spans().record("run", program, r0, r1);
    spans().record("drain", program, root_end, r1);
  }
  return static_cast<double>(r1 - r0) * 1e-9;
}

bool verify(Instance& inst, const Inputs& in, const std::vector<std::int64_t>& sums) {
  const auto k = static_cast<std::int64_t>(inst.programs_run);
  for (int o = 0; o < in.objects; ++o) {
    const auto idx = static_cast<std::size_t>(o);
    if (inst.rt->get(inst.objs[idx])[0] != in.initial[idx] + k * sums[idx])
      return false;
  }
  return true;
}

/// Runs programs for `seconds` (at least one) on one instance, verifying
/// each, and appends them to `ps`.
void measure(Instance& inst, const Inputs& in, const std::vector<std::int64_t>& sums,
             double seconds, Result& r, StatsSum* stats, ProgramSamples& ps) {
  const double t0 = now_s();
  do {
    const double secs = run_program(inst, in, g_programs++);
    ++r.attempted;
    if (!verify(inst, in, sums)) {
      ++r.failed;
      r.correct = false;
    }
    ps.run_s.push_back(secs);
    ps.tasks_per_s.push_back(in.tasks / secs);
    if (stats != nullptr) stats->add(inst.rt->stats());
  } while (now_s() - t0 < seconds);
  ps.wall_s += now_s() - t0;
}

/// Measures `seconds` spread over kSetupReps engine instances, each set up
/// afresh (timed into `setups`) and warmed up by one program.  A ThreadEngine
/// instance tends to keep one dispatch regime for its life (now and then one
/// runs several times faster than the rest), so pooling the programs of
/// several instances keeps a run's medians steady.
ProgramSamples measure_instances(const Inputs& in, const jade::RuntimeConfig& cfg,
                                 const std::vector<std::int64_t>& sums, double seconds,
                                 Result& r, StatsSum* stats, std::vector<double>& setups) {
  ProgramSamples ps;
  ProgramSamples warm_up;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = now_s();
    Instance inst = set_up(in, cfg);
    setups.push_back(now_s() - t0);
    measure(inst, in, sums, 0, r, nullptr, warm_up);
    const std::size_t first = ps.run_s.size();
    measure(inst, in, sums, seconds / kSetupReps, r, stats, ps);
    ps.instance_p99.push_back(percentile(
        std::vector<double>(ps.run_s.begin() + static_cast<std::ptrdiff_t>(first),
                            ps.run_s.end()),
        0.99));
  }
  return ps;
}

}  // namespace

Result run_fanout_thread(const Options& opt) {
  Result r;
  const Inputs in = make_inputs(opt);
  const double serial0 = now_s();
  const std::vector<std::int64_t> sums = serial_sums(in);
  const double serial_s = now_s() - serial0;

  jade::RuntimeConfig cfg;
  cfg.engine = jade::EngineKind::kThread;
  cfg.threads = std::max(1, opt.cores - 1);
  std::vector<double> setups;

  // The same program on the simulated platform gives makespan_vs.  The
  // simulator hands off between threads of its own, which stay on one CPU
  // as in relax_sim; this workload's ThreadEngine is not pinned.
  jade::RuntimeStats sim_stats;
  {
    const OneCpu pin;
    Instance sim = set_up(in, sim_config());
    run_program(sim, in, g_programs++);
    ++r.attempted;
    if (!verify(sim, in, sums)) {
      ++r.failed;
      r.correct = false;
    }
    sim_stats = sim.rt->stats();
  }

  if (!opt.trace) {
    const ProgramSamples ps = measure_instances(in, cfg, sums, opt.seconds, r, nullptr, setups);
    put_program_metrics(ps, r);
    r.metrics["makespan_vs"] = sim_stats.finish_time;
    r.metrics["setup_s"] = median(setups);
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    return r;
  }

  const ProgramSamples plain =
      measure_instances(in, cfg, sums, opt.seconds / 2, r, nullptr, setups);
  spans().enable();
  StatsSum stats;
  const ProgramSamples traced =
      measure_instances(in, cfg, sums, opt.seconds / 2, r, &stats, setups);
  put_spine_layers(spans().collect(), stats, r);
  r.metrics["sim.machine_util"] = machine_util(sim_stats);
  r.metrics["apps.serial_s"] = serial_s;
  put_program_p99(plain, r);
  r.metrics["trace.overhead_frac"] =
      overhead_frac(median(plain.tasks_per_s), median(traced.tasks_per_s));
  return r;
}

}  // namespace jadebench
