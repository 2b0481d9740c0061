// CostModel — a compositional analytical performance model, trace-fitted.
//
// Extra-P's compositional idea, specialized to this runtime: completion time
// decomposes into a handful of analytically derived terms — critical-path
// floor, aggregate-compute floor, task-management overhead, interconnect
// occupancy — each computed from *per-pattern features* (WorkloadFeatures,
// measured once on a cheap profile platform) and the *target*
// (ClusterConfig, SchedPolicy) pair.  Coefficients calibrating the terms
// against reality are fitted from recorded runs by deterministic weighted
// least squares (relative-error weighting, Gaussian elimination with partial
// pivoting) — the same observations always produce bit-identical
// coefficients, so a fitted model is as reproducible as the traces it came
// from.
//
//   T(f, cluster, policy) ≈ c0·max(compute, comm)
//                         + c1·min(compute, comm)   [contexts == 1]
//                         + c2·min(compute, comm)   [contexts >= 2]
//                         + c3
//
// where compute = max(critical path / spec speedup, work / aggregate ops)
//                 + dispatch & creation overheads,
//       comm    = topology-aware occupancy of the bytes/messages the
//                 profile says the workload moves (locality-dependent).
// With one task context per machine nothing overlaps, so the smaller of the
// two terms is paid nearly in full (c1 ≈ 1); with latency hiding it mostly
// disappears (c2 ≈ small).  The fit learns exactly these weights.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "jade/mach/machine.hpp"
#include "jade/model/features.hpp"
#include "jade/sched/policies.hpp"

namespace jade::model {

/// One calibration point: a really-executed run and what the model will be
/// asked to reproduce.
struct Observation {
  WorkloadFeatures features;
  ClusterConfig cluster;
  SchedPolicy policy;
  double actual_seconds = 0;  ///< SimEngine virtual completion time
};

class CostModel {
 public:
  static constexpr std::size_t kTerms = 4;

  /// The analytic basis for one (features, platform, policy) triple, in
  /// seconds (see the header comment for the terms).
  static std::array<double, kTerms> basis(const WorkloadFeatures& f,
                                          const ClusterConfig& cluster,
                                          const SchedPolicy& policy);

  /// Interconnect occupancy (seconds) of moving `bytes` in `messages` over
  /// the config's topology — a throughput-style bound with a per-topology
  /// concurrency factor (shared media serialize, switched fabrics spread).
  static double comm_seconds(const ClusterConfig& cluster, double bytes,
                             double messages);

  /// Fits the coefficients against recorded runs.  Deterministic: the same
  /// observation list yields bit-identical coefficients.  Observations with
  /// non-positive actual time are ignored; throws ConfigError when fewer
  /// observations than terms remain.
  void fit(std::span<const Observation> observations);

  bool fitted() const { return fitted_; }
  std::span<const double> coefficients() const { return coef_; }

  /// Predicted completion time (virtual seconds) for the triple.  Requires
  /// a fitted model (ConfigError otherwise).
  double predict(const WorkloadFeatures& f, const ClusterConfig& cluster,
                 const SchedPolicy& policy) const;

 private:
  std::array<double, kTerms> coef_{};
  bool fitted_ = false;
};

// --- policy auto-tuning ------------------------------------------------------
// tune_policy enumerates a deterministic candidate grid (task contexts,
// locality scoring, speculation) around the caller's base SchedPolicy,
// predicts each candidate's completion time on the target platform with the
// fitted model, and returns the winner — but only when the predicted gain
// clears kTuneMargin; within the margin the hand-set base policy passes
// through untouched, so the tuner never loses to the defaults by trusting a
// borderline prediction.  Per-task placement stays with the locality
// heuristics (sched/policies.hpp): the model works at whole-run granularity,
// where its features live.

/// The fractional predicted improvement a candidate must clear to replace
/// the base policy.
inline constexpr double kTuneMargin = 0.10;

/// The candidate grid tune_policy scores, in its deterministic search order
/// (the base policy is always candidate 0).
std::vector<SchedPolicy> candidate_policies(const SchedPolicy& base);

/// The policy to run `cluster` with.  `model` must be fitted and `features`
/// valid — otherwise `base` passes through (the identity).
SchedPolicy tune_policy(const CostModel& model,
                        const WorkloadFeatures& features,
                        const ClusterConfig& cluster, const SchedPolicy& base);

}  // namespace jade::model
