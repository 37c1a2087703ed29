//===- Workloads.h - The benchmark's named workloads -----------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads — campaign (Engine::run), stream (PredictSession
/// driven directly) and serve (isopredict_server over loopback) — and
/// what they share: the run configuration, the run's outcome, and the
/// traced pipeline of one Predict job.
///
/// Every workload has two modes. Untraced, it drives its entry point as
/// a user would and fills the end-to-end metrics. Traced, it first runs
/// a shorter untraced loop (one pass; half the walk for serve), then
/// replays the same operations by calling each layer's public functions
/// itself (Layers.h) — the difference in wall-clock between the two is
/// the trace overhead, and the verdicts of the two must agree.
///
/// A run's work is fixed by its length, never by the clock: every run of
/// a workload does the same operations and the seed only orders them
/// (see perfbench/README.md for why).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Checks.h"
#include "Layers.h"
#include "Ledger.h"

#include "engine/Campaign.h"

#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  /// Measured seconds of one run.
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory of the benchmark (cache dirs, repeat logs).
  std::string StateDir;
  /// Path of the isopredict_server binary (serve).
  std::string ServerBin;
  /// Campaign workers, serve's client connections and server workers:
  /// min(2, nproc). More would measure how the host shares its cores:
  /// on a shared 4-vCPU VM, four of each made throughput swing by 20-40%
  /// between runs.
  unsigned Threads = 1;
};

struct RunOutcome {
  Ledger L;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  Checks Chk;
  RepeatLog Repeat;
  /// Extra lines for the human-readable report.
  std::vector<std::string> Notes;
};

void runCampaign(const RunConfig &Cfg, RunOutcome &Out);
void runStream(const RunConfig &Cfg, RunOutcome &Out);
void runServe(const RunConfig &Cfg, RunOutcome &Out);

/// A deterministic 64-bit mix of \p A and \p B (splitmix64 finalizer).
uint64_t mixSeed(uint64_t A, uint64_t B);

/// Observes one execution of \p App as Engine::runJob does: a
/// serial-observed store, seeded by the workload's seed.
isopredict::RunResult observeExecution(isopredict::Application &App,
                                       const isopredict::WorkloadConfig &Cfg);

/// Outcome of one Predict job run through the layers directly.
struct DirectJob {
  isopredict::Prediction P;
  isopredict::ValidationResult::Status Val =
      isopredict::ValidationResult::Status::NoPrediction;
  double Wall = 0;
};

/// Observe → predict → validate for \p Spec, exactly as Engine::runJob
/// does it, timing each layer into \p T. The caller books the job's
/// wall-clock (DirectJob::Wall) as the operation it belongs to.
DirectJob runDirectPredict(const isopredict::engine::JobSpec &Spec,
                           LayerTally &T);

/// A short, stable name of a Predict spec: app, shape, seed, level,
/// strategy.
std::string specLabel(const isopredict::engine::JobSpec &Spec);

/// The key naming a spec's observed history and level, for the
/// Exact-Strict / Approx-Strict implication check.
std::string historyLevelKey(const isopredict::engine::JobSpec &Spec);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
