//===- Workloads.cpp - What the benchmark's workloads share ---------------===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "apps/AppFramework.h"
#include "engine/JobIo.h"
#include "store/Store.h"

using namespace perfbench;
using namespace isopredict;

uint64_t perfbench::mixSeed(uint64_t A, uint64_t B) {
  uint64_t Z = A * 0x9e3779b97f4a7c15ULL + B + 0x632be59bd9b4e019ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::string perfbench::specLabel(const engine::JobSpec &Spec) {
  return Spec.App + "/" + engine::workloadLabel(Spec.Cfg) + "/" +
         std::to_string(Spec.Cfg.Seed) + "/" + toString(Spec.Level) + "/" +
         toString(Spec.Strat);
}

std::string perfbench::historyLevelKey(const engine::JobSpec &Spec) {
  return Spec.App + "/" + engine::workloadLabel(Spec.Cfg) + "/" +
         std::to_string(Spec.Cfg.Seed) + "/" + toString(Spec.Level);
}

RunResult perfbench::observeExecution(Application &App,
                                      const WorkloadConfig &Cfg) {
  DataStore::Options SO;
  SO.Mode = StoreMode::SerialObserved;
  SO.Level = IsolationLevel::Serializable;
  SO.Seed = Cfg.Seed;
  DataStore Store(SO);
  return WorkloadRunner::run(App, Store, Cfg);
}

DirectJob perfbench::runDirectPredict(const engine::JobSpec &Spec,
                                      LayerTally &T) {
  DirectJob J;
  double Start = nowSeconds();
  std::unique_ptr<Application> App = makeApplication(Spec.App);

  double T0 = nowSeconds();
  RunResult Observed = observeExecution(*App, Spec.Cfg);
  T.addObserve(nowSeconds() - T0, Observed.Hist.numTxns() - 1);

  PredictOptions Opts;
  Opts.Level = Spec.Level;
  Opts.Strat = Spec.Strat;
  Opts.Pco = Spec.Pco;
  Opts.TimeoutMs = Spec.TimeoutMs;
  Opts.PruneFormula = Spec.Prune;
  T0 = nowSeconds();
  J.P = predict(Observed.Hist, Opts);
  T.addQuery(J.P, nowSeconds() - T0);

  if (J.P.Result == SmtResult::Sat && Spec.Validate) {
    std::unique_ptr<Application> Replay = makeApplication(Spec.App);
    T0 = nowSeconds();
    ValidationResult V = validatePrediction(*Replay, Spec.Cfg, Observed.Hist,
                                            J.P, Spec.Level, Spec.TimeoutMs);
    T.addValidate(V, nowSeconds() - T0);
    J.Val = V.St;
  }
  J.Wall = nowSeconds() - Start;
  return J;
}
