// cholesky_cluster: dense per-column Cholesky across forked worker
// processes (ClusterEngine, one worker per core but one).
//
// Each column is one object.  cmod(j, k) reads column k and updates column
// j; cdiv(j) scales column j.  Every column is read by every later column
// (read fan-out) alongside rd_wr chains on each column (writebacks), so
// frame encode/decode, socket I/O and the shipped-version coherence
// protocol dominate.  Forking the workers is part of set-up.  The task
// bodies run in other processes, so they stamp their entry, accessor and
// exit times into a MAP_SHARED region the coordinator reads after each run.
//
// The coordinator and its workers share one CPU (affinity set before the
// fork).  Spread over vCPUs, every frame wakes a process on another vCPU and
// the run mostly times the hypervisor's wake-ups, which swing two- to
// threefold from minute to minute on a shared host; on one CPU it times the
// engine's own per-task cost.
#include <unistd.h>

#include <cmath>
#include <memory>
#include <random>

#include "jade/cluster/registry.hpp"
#include "workloads.hpp"

namespace jadebench {

namespace {

using jade::AccessDecl;
using jade::Runtime;
using jade::SharedRef;
using jade::TaskContext;
using jade::WireReader;
using jade::WireWriter;
using jade::cluster::get_ref;
using jade::cluster::put_ref;

constexpr std::uint32_t kSampleEvery = 8;

/// Mapped before the engine forks, so every worker process inherits it.
SharedStamps* g_stamps = nullptr;

/// Body prologue/epilogue for sampled tasks: the slot index and a sampled
/// flag lead every argument blob.
struct BodyStamp {
  explicit BodyStamp(WireReader& r)
      : slot(r.get_u32()), sampled(r.get_u32() != 0 && g_stamps != nullptr) {
    if (sampled) (*g_stamps)[slot].body_start.store(now_ns());
  }
  void acquired(std::int64_t a0) const {
    if (!sampled) return;
    (*g_stamps)[slot].acquire_start.store(a0);
    (*g_stamps)[slot].acquire_end.store(now_ns());
  }
  ~BodyStamp() {
    if (!sampled) return;
    (*g_stamps)[slot].pid.store(static_cast<std::int32_t>(::getpid()));
    (*g_stamps)[slot].body_end.store(now_ns());
  }
  BodyStamp(const BodyStamp&) = delete;
  BodyStamp& operator=(const BodyStamp&) = delete;

  std::uint32_t slot;
  bool sampled;
};

/// cmod(j, k): column j -= L[j][k] * column k (rows j..n-1).
const int kCmod = jade::cluster::BodyRegistry::instance().ensure(
    "jadebench.cmod", [](TaskContext& t, WireReader& r) {
      const BodyStamp stamp(r);
      const auto ck = get_ref<double>(r);
      const auto cj = get_ref<double>(r);
      const std::uint32_t j = r.get_u32();
      const std::int64_t a0 = stamp.sampled ? now_ns() : 0;
      const auto colk = t.read(ck);
      auto colj = t.read_write(cj);
      stamp.acquired(a0);
      const double ljk = colk[j];
      for (std::size_t i = j; i < colj.size(); ++i) colj[i] -= ljk * colk[i];
      t.charge(2.0 * static_cast<double>(colj.size() - j));
    });

/// cdiv(j): scale column j by the square root of its diagonal.
const int kCdiv = jade::cluster::BodyRegistry::instance().ensure(
    "jadebench.cdiv", [](TaskContext& t, WireReader& r) {
      const BodyStamp stamp(r);
      const auto cj = get_ref<double>(r);
      const std::uint32_t j = r.get_u32();
      const std::int64_t a0 = stamp.sampled ? now_ns() : 0;
      auto colj = t.read_write(cj);
      stamp.acquired(a0);
      const double d = std::sqrt(colj[j]);
      colj[j] = d;
      for (std::size_t i = j + 1; i < colj.size(); ++i) colj[i] /= d;
      t.charge(1.0 + static_cast<double>(colj.size() - j));
    });

/// Seeded, strictly diagonally dominant (hence SPD) symmetric matrix,
/// column-major: a[j] is column j.
std::vector<std::vector<double>> make_matrix(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> off(-0.5, 0.5);
  std::vector<std::vector<double>> a(static_cast<std::size_t>(n),
                                     std::vector<double>(static_cast<std::size_t>(n)));
  for (int j = 0; j < n; ++j) {
    const auto uj = static_cast<std::size_t>(j);
    a[uj][uj] = n + 1.0 + (off(rng) + 0.5);
    for (int i = j + 1; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      a[uj][ui] = a[ui][uj] = off(rng);
    }
  }
  return a;
}

/// The serial program: the same cmod/cdiv sequence on host arrays.
void factor_serial(std::vector<std::vector<double>>& a) {
  const std::size_t n = a.size();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < j; ++k) {
      const double ljk = a[k][j];
      for (std::size_t i = j; i < n; ++i) a[j][i] -= ljk * a[k][i];
    }
    const double d = std::sqrt(a[j][j]);
    a[j][j] = d;
    for (std::size_t i = j + 1; i < n; ++i) a[j][i] /= d;
  }
}

struct Instance {
  std::unique_ptr<Runtime> rt;
  std::vector<SharedRef<double>> cols;
  std::uint64_t messages_seen = 0;  ///< the engine's message count is cumulative
};

std::uint64_t task_count(int n) {
  return static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n + 1) / 2;
}

/// Creates the factorization's tasks; spans for every kSampleEvery-th.
void factor_program(TaskContext& ctx, const std::vector<SharedRef<double>>& cols,
                    std::uint64_t program, bool traced) {
  const int n = static_cast<int>(cols.size());
  std::uint32_t slot = 0;
  auto spawn = [&](int body, const SharedRef<double>* src,
                   const SharedRef<double>& dst, int j) {
    const bool sampled = traced && slot % kSampleEvery == 0;
    const std::uint64_t id = program * task_count(n) + slot;
    const std::int64_t e0 = sampled ? now_ns() : 0;
    WireWriter args;
    args.put_u32(slot);
    args.put_u32(sampled ? 1 : 0);
    if (src != nullptr) put_ref(args, *src);
    put_ref(args, dst);
    args.put_u32(static_cast<std::uint32_t>(j));
    const std::int64_t e1 = sampled ? now_ns() : 0;
    jade::cluster::spawn(ctx, body, std::move(args), [&](AccessDecl& d) {
      if (src != nullptr) d.rd(*src);
      d.rd_wr(dst);
    });
    if (sampled) {
      spans().record("encode", id, e0, e1);
      spans().record("spawn", id, e1, now_ns());
    }
    ++slot;
  };
  for (int j = 0; j < n; ++j) {
    const auto& cj = cols[static_cast<std::size_t>(j)];
    for (int k = 0; k < j; ++k) spawn(kCmod, &cols[static_cast<std::size_t>(k)], cj, j);
    spawn(kCdiv, nullptr, cj, j);
  }
}

void upload(Instance& inst, const std::vector<std::vector<double>>& a) {
  for (std::size_t j = 0; j < a.size(); ++j) inst.rt->put<double>(inst.cols[j], a[j]);
}

Instance set_up(jade::RuntimeConfig cfg, const std::vector<std::vector<double>>& a) {
  Instance inst;
  inst.rt = std::make_unique<Runtime>(std::move(cfg));
  for (const auto& col : a) inst.cols.push_back(inst.rt->alloc_init<double>(col));
  return inst;
}

bool verify(Instance& inst, const std::vector<std::vector<double>>& expect) {
  for (std::size_t j = 0; j < expect.size(); ++j) {
    const std::vector<double> got = inst.rt->get(inst.cols[j]);
    for (std::size_t i = j; i < got.size(); ++i)
      if (std::abs(got[i] - expect[j][i]) > 1e-9 * std::max(1.0, std::abs(expect[j][i])))
        return false;
  }
  return true;
}

/// One program: upload the input, run, verify.  Returns run wall seconds.
double run_program(Instance& inst, const std::vector<std::vector<double>>& input,
                   const std::vector<std::vector<double>>& expect,
                   std::uint64_t program, Result& r, StatsSum* stats) {
  const bool traced = spans().on();
  const int n = static_cast<int>(inst.cols.size());
  upload(inst, input);
  std::int64_t root_end = 0;
  const std::int64_t r0 = now_ns();
  inst.rt->run([&](TaskContext& ctx) {
    factor_program(ctx, inst.cols, program, traced);
    root_end = now_ns();
  });
  const std::int64_t r1 = now_ns();
  ++r.attempted;
  if (!verify(inst, expect)) {
    ++r.failed;
    r.correct = false;
  }
  if (traced) {
    spans().record("run", program, r0, r1);
    spans().record("drain", program, root_end, r1);
    for (std::uint32_t slot = 0; slot < task_count(n); slot += kSampleEvery) {
      auto& s = (*g_stamps)[slot];
      if (s.body_end.load() == 0) continue;
      const std::uint64_t id = program * task_count(n) + slot;
      const int tid = -s.pid.load();
      spans().record("body", id, s.body_start.load(), s.body_end.load(), tid);
      spans().record("acquire", id, s.acquire_start.load(), s.acquire_end.load(), tid);
    }
    g_stamps->clear();
  }
  if (stats != nullptr) {
    jade::RuntimeStats st = inst.rt->stats();
    const std::uint64_t total = st.messages;
    st.messages = total - inst.messages_seen;
    stats->add(st);
  }
  inst.messages_seen = inst.rt->stats().messages;
  return static_cast<double>(r1 - r0) * 1e-9;
}

}  // namespace

Result run_cholesky_cluster(const Options& opt) {
  Result r;
  const OneCpu pin;
  const int n = opt.tiny ? 8 : 64;
  const auto input = make_matrix(n, opt.seed);
  auto expect = input;
  const double serial0 = now_s();
  factor_serial(expect);
  const double serial_s = now_s() - serial0;

  SharedStamps stamps(task_count(n));
  g_stamps = &stamps;

  jade::RuntimeConfig cfg;
  cfg.engine = jade::EngineKind::kCluster;
  cfg.cluster_proc.workers = std::max(1, opt.cores - 1);
  cfg.cluster_proc.spares = 0;
  // Set-up timings in reference-host seconds, as the programs' below.
  std::vector<double> setups;
  std::vector<double> unscaled_setups;
  std::vector<double> forks;
  std::vector<double> uploads;
  Instance inst;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inst = Instance{};  // reaps the previous workers outside the timing
    const double probe = probe_s();
    const double t0 = now_s();
    inst.rt = std::make_unique<Runtime>(cfg);
    inst.rt->run([](TaskContext&) {});  // forks the workers
    const double t1 = now_s();
    for (const auto& col : input) inst.cols.push_back(inst.rt->alloc_init<double>(col));
    const double t2 = now_s();
    forks.push_back(to_ref_s(t1 - t0, probe));
    uploads.push_back(to_ref_s(t2 - t1, probe));
    setups.push_back(to_ref_s(t2 - t0, probe));
    unscaled_setups.push_back(t2 - t0);
  }
  inst.messages_seen = inst.rt->stats().messages;

  std::uint64_t program = 0;
  run_program(inst, input, expect, program++, r, nullptr);  // warm-up

  // The same program on the simulated platform gives makespan_vs.
  jade::RuntimeStats sim_stats;
  {
    Instance sim = set_up(sim_config(), input);
    run_program(sim, input, expect, 0, r, nullptr);
    sim_stats = sim.rt->stats();
  }

  auto phase = [&](double seconds, StatsSum* stats) {
    ProgramSamples ps;
    const double t0 = now_s();
    do {
      ps.probe_s.push_back(probe_s());
      const double w0 = now_s();
      const double secs = run_program(inst, input, expect, program++, r, stats);
      ps.whole_s.push_back(now_s() - w0);
      ps.run_s.push_back(secs);
      ps.tasks_per_s.push_back(static_cast<double>(task_count(n)) / secs);
    } while (now_s() - t0 < seconds);
    ps.wall_s = now_s() - t0;
    return ps;
  };

  if (!opt.trace) {
    const ProgramSamples ps = phase(opt.seconds, nullptr);
    put_program_metrics(ps, r);
    r.metrics["makespan_vs"] = sim_stats.finish_time;
    r.metrics["setup_s"] = median(setups);
    r.notes["unscaled_setup_s"] = median(unscaled_setups);
    inst = Instance{};
    g_stamps = nullptr;
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    return r;
  }

  const ProgramSamples plain = phase(opt.seconds / 2, nullptr);
  spans().enable();
  StatsSum stats;
  const ProgramSamples traced = phase(opt.seconds / 2, &stats);
  inst = Instance{};
  g_stamps = nullptr;
  const std::vector<Span> all = spans().collect();
  put_spine_layers(all, stats, r);
  const double tasks = static_cast<double>(task_count(n));
  r.metrics["cluster.spawn_ns"] = r.metrics["engine.spawn_ns"];
  r.metrics["types.encode_ns"] = mean(durations_ns(all, "encode"));
  r.metrics["cluster.messages_per_task"] = r.metrics["net.messages"] / tasks;
  r.metrics["cluster.payload_bytes_per_task"] = r.metrics["net.payload_bytes"] / tasks;
  r.metrics["cluster.drain_s"] = r.metrics["engine.drain_s"];
  r.metrics["cluster.fork_s"] = median(forks);
  r.metrics["cluster.upload_s"] = median(uploads);
  r.metrics["sim.machine_util"] = machine_util(sim_stats);
  r.metrics["apps.serial_s"] = serial_s;
  put_program_p99(plain, r);
  r.metrics["trace.overhead_frac"] =
      overhead_frac(median(plain.tasks_per_s), median(traced.tasks_per_s));
  return r;
}

}  // namespace jadebench
