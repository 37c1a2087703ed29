//===- StreamWorkload.cpp - The "stream" workload -------------------------===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PredictSession in streaming mode, driven directly: one windowed
/// session per observed execution (the four applications at 3×11, in an
/// order shuffled by the run's seed), each fed one transaction per
/// extend() and then asked one read-committed Exact-Strict query. A run
/// streams the executions one after the other, each to its end, in whole
/// passes, at least three; each step's time is its median over the
/// passes. One stream at a time: concurrent solver calls in one process
/// make each other's times noisy (the median step of the same inputs
/// moved ±15% between runs on four concurrent streams, ±3% on one).
/// Many small queries on a reused base, with eviction and epoch
/// rebuilds; no validation, cache or server. A step (the operation) is
/// extend() plus query(); the query is timed here because StreamStep
/// does not record its generation.
///
//===----------------------------------------------------------------------===//

#include "SolverBudget.h"
#include "Workloads.h"

#include "apps/AppFramework.h"
#include "store/Store.h"
#include "support/Rng.h"

#include <algorithm>
#include <map>
#include <memory>

using namespace perfbench;
using namespace isopredict;

namespace {

constexpr unsigned Window = 4;
constexpr unsigned Sessions = 3, TxnsPerSession = 11;
/// Workload seed of every streamed execution: the run's seed only
/// shuffles their order, so every pass streams the same steps.
constexpr uint64_t WorkloadSeed = 1;
/// Set-ups of every session before each pass, the last one streamed;
/// setup_s is the median over the run, so that its samples span the run
/// rather than one moment of the host's load. The first few of a process
/// take about twice as long as the rest (2-4 of them on a 4-vCPU VM);
/// the median must not land among them.
constexpr unsigned SetupsPerPass = 9;
/// Passes of an untraced run, at least: each step's median over them is
/// its time.
constexpr unsigned MinPasses = 3;

const char *const Apps[] = {"smallbank", "tpcc", "voter", "wikipedia"};

/// One streamed observed execution.
struct StreamSession {
  std::string App;
  uint64_t WorkloadSeed = 0;
  History Full;
  std::unique_ptr<PredictSession> S;
  TxnId Cut = 0; ///< Transactions fed so far (t0 included).
  std::string label() const {
    return "stream/" + App + "/" + std::to_string(WorkloadSeed);
  }
};

struct StepRecord {
  size_t Exec = 0; ///< Index of the execution in the pass's queue.
  size_t Step = 0;
  double StepSeconds = 0;
  double ExtendSeconds = 0;
  SmtResult Result = SmtResult::Unknown;
};

/// Observes the execution and encodes its first transaction's base:
/// everything before the first timed step.
void startSession(StreamSession &SS, const std::string &App, uint64_t Seed,
                  LayerTally *T) {
  SS.App = App;
  SS.WorkloadSeed = Seed;
  double T0 = nowSeconds();
  std::unique_ptr<Application> A = makeApplication(App);
  DataStore::Options SO;
  SO.Mode = StoreMode::SerialObserved;
  SO.Level = IsolationLevel::Serializable;
  SO.Seed = Seed;
  DataStore Store(SO);
  WorkloadConfig Cfg{Sessions, TxnsPerSession, Seed};
  SS.Full = WorkloadRunner::run(*A, Store, Cfg).Hist;
  double T1 = nowSeconds();
  PredictSession::Options O;
  O.Streaming = true;
  O.Window = Window;
  O.TimeoutMs = WallBudgetMs;
  SS.Cut = std::min<TxnId>(2, static_cast<TxnId>(SS.Full.numTxns()));
  SS.S = std::make_unique<PredictSession>(historyPrefix(SS.Full, SS.Cut), O);
  double T2 = nowSeconds();
  SS.S->ensureBase();
  double T3 = nowSeconds();
  if (T) {
    T->addObserve(T1 - T0, SS.Full.numTxns() - 1);
    T->addBase(T3 - T2, SS.S->baseLiterals());
    T->addLayer("predict", T2 - T1); // Session construction.
    T->addOp(T3 - T0);
  }
}

bool exhausted(const StreamSession &SS) {
  return SS.Cut >= SS.Full.numTxns();
}

/// Feeds the next transaction and asks the step's query.
StepRecord step(StreamSession &SS, RunOutcome &Out, LayerTally *T) {
  TxnId Next = SS.Cut + 1;
  History Delta =
      historyDelta(SS.S->observed(), historyPrefix(SS.Full, Next), SS.Cut);
  StepRecord Rec;
  double T0 = nowSeconds();
  PredictSession::ExtendStats ES = SS.S->extend(Delta);
  double T1 = nowSeconds();
  PredictSession::QueryOptions Q;
  Q.Level = IsolationLevel::ReadCommitted;
  Q.Strat = Strategy::ExactStrict;
  Prediction P = SS.S->query(Q);
  double T2 = nowSeconds();
  SS.Cut = Next;
  Rec.ExtendSeconds = T1 - T0;
  Rec.StepSeconds = T2 - T0;
  Rec.Result = P.Result;

  std::string Label = SS.label() + "/" + std::to_string(Next - 1);
  noteQueryFingerprint(Out.Repeat, Label, P);
  Out.Repeat.note(Label + "/extend_literals", std::to_string(ES.NumLiterals));
  Out.Repeat.note(Label + "/epoch_rebuild", ES.EpochRebuild ? "1" : "0");
  if (P.Result == SmtResult::Sat)
    Out.Chk.queuePrediction(Label, P.Predicted, IsolationLevel::ReadCommitted);
  if (T) {
    T->addExtend(ES, T1 - T0);
    T->addQuery(P, T2 - T1);
    T->addOp(T2 - T0);
  }
  return Rec;
}

/// The executions a pass streams, in the order the run's seed shuffles.
using Queue = std::vector<std::pair<std::string, uint64_t>>;

Queue makeQueue(uint64_t Seed) {
  Queue Q;
  for (const char *App : Apps)
    Q.emplace_back(App, WorkloadSeed);
  Rng R(Seed);
  for (size_t I = Q.size(); I > 1; --I)
    std::swap(Q[I - 1], Q[R.below(I)]);
  return Q;
}

/// Sets up one session per execution of \p Q; returns the seconds it
/// took.
double setUp(std::vector<StreamSession> &Sessions, const Queue &Q,
             LayerTally *T) {
  Sessions.clear(); // Tearing down the last pass is not set-up.
  double T0 = nowSeconds();
  Sessions.resize(Q.size());
  for (size_t I = 0; I < Q.size(); ++I)
    startSession(Sessions[I], Q[I].first, Q[I].second, T);
  return nowSeconds() - T0;
}

/// Streams every set-up session to its end, one after the other.
void runPass(std::vector<StreamSession> &Sessions,
             std::vector<StepRecord> &Records, RunOutcome &Out,
             LayerTally *T) {
  for (size_t I = 0; I < Sessions.size(); ++I)
    for (size_t K = 0; !exhausted(Sessions[I]); ++K) {
      Records.push_back(step(Sessions[I], Out, T));
      Records.back().Exec = I;
      Records.back().Step = K;
    }
}

} // namespace

void perfbench::runStream(const RunConfig &Cfg, RunOutcome &Out) {
  Queue Q = makeQueue(Cfg.Seed);
  std::vector<StreamSession> Sessions;
  std::vector<double> Setups;

  // Whole passes, at least MinPasses and then as many as end nearest to
  // --seconds; traced: one pass, then the same pass layer by layer.
  std::vector<StepRecord> Records;
  std::vector<double> PassPeakRss;
  double Start = nowSeconds(), PassWall = 0;
  unsigned Passes = 0;
  do {
    double PassStart = nowSeconds();
    for (unsigned I = 0; I < SetupsPerPass; ++I)
      Setups.push_back(setUp(Sessions, Q, nullptr));
    resetPeakRssSelf();
    runPass(Sessions, Records, Out, nullptr);
    PassPeakRss.push_back(peakRssMbSelf());
    PassWall = nowSeconds() - PassStart;
    ++Passes;
  } while (!Cfg.Trace &&
           (Passes < MinPasses ||
            nowSeconds() - Start + PassWall / 2 < Cfg.Seconds));
  Out.L.set("setup_s", "s", median(Setups),
            "median of " + std::to_string(Setups.size()) + " set-ups of " +
                std::to_string(Q.size()) + " sessions");

  // Every pass runs the same steps with the same solver work (the
  // budget is Z3 work, not time), so a step's median over the passes is
  // its time, and a pass is the sum of those.
  std::map<std::pair<size_t, size_t>, std::vector<double>> StepWalls,
      ExtendWalls;
  uint64_t Decided = 0, Steps = Records.size();
  double UntracedBusy = 0;
  for (const StepRecord &R : Records) {
    StepWalls[{R.Exec, R.Step}].push_back(R.StepSeconds);
    ExtendWalls[{R.Exec, R.Step}].push_back(R.ExtendSeconds);
    UntracedBusy += R.StepSeconds;
    Decided += R.Result != SmtResult::Unknown;
  }
  Samples Step, Extend;
  double PassSeconds = 0;
  for (const auto &[Key, Walls] : StepWalls) {
    Step.add(median(Walls));
    PassSeconds += median(Walls);
    Extend.add(median(ExtendWalls[Key]));
  }
  Out.Attempted = Steps;
  Ledger &L = Out.L;
  L.set("ops_per_s", "1/s", static_cast<double>(StepWalls.size()) / PassSeconds,
        std::to_string(StepWalls.size()) + " extend+query steps in " +
            formatNumber(PassSeconds) + " s: each step's median over " +
            std::to_string(Passes) + " pass(es), one stream");
  L.setPercentile("query_p50_s", "s", Step, 0.5, 1);
  L.setPercentile("query_p90_s", "s", Step, 0.9, 1);
  L.na("cached_p50_ms", "ms", "stream has no result cache");
  L.na("cached_p90_ms", "ms", "stream has no result cache");
  L.setPercentile("extend_p50_ms", "ms", Extend, 0.5, 1000);
  L.setShare("decided_share", static_cast<double>(Decided),
             static_cast<double>(Steps));
  L.na("validated_share", "ratio",
       "stream skips replay: a windowed witness speaks for the window");
  L.setShare("failed_share", 0, static_cast<double>(Steps));

  if (Cfg.Trace) {
    LayerTally T;
    std::vector<StreamSession> Replay;
    setUp(Replay, Q, &T);
    std::vector<StepRecord> Traced;
    runPass(Replay, Traced, Out, &T);
    std::map<std::pair<size_t, size_t>, const StepRecord *> ByStep;
    for (const StepRecord &R : Records)
      ByStep[{R.Exec, R.Step}] = &R;
    double TracedBusy = 0;
    for (const StepRecord &R : Traced) {
      TracedBusy += R.StepSeconds;
      if (const StepRecord *U = ByStep[{R.Exec, R.Step}])
        Out.Chk.crossCheck("stream " + Q[R.Exec].first + "/" +
                               std::to_string(Q[R.Exec].second) + " step " +
                               std::to_string(R.Step),
                           U->Result, R.Result);
    }
    T.report(L);
    if (std::optional<double> U = T.split().unattributedShare())
      L.set("bench.unattributed_share", "ratio", *U);
    if (std::optional<double> R = share(TracedBusy, UntracedBusy))
      L.set("bench.trace_overhead_share", "ratio", *R - 1,
            "traced vs untraced steps, same inputs");
  }
  L.set("peak_rss_mb", "MB", median(PassPeakRss),
        "benchmark process, median pass");
}
