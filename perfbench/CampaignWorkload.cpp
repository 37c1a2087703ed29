//===- CampaignWorkload.cpp - The "campaign" workload ---------------------===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's evaluation use: a share-nothing Engine::run over a
/// predict grid with validation on and a fixed per-query budget: the
/// four applications × causal/rc × exact/strict/relaxed at the small
/// shape, plus the large shape for smallbank and tpcc, × workload seeds
/// 1-3 (108 jobs), rotated by the run's seed. A run makes
/// whole passes over the grid until its time is up, at least three, so
/// every run measures the same jobs: each job's outcome is binary, and a
/// sample of a hundred freshly drawn executions moves decided_share by
/// 10-35% between seeds. Throughput is the median over the passes, a
/// job's time its median over them. The grid keeps the queries that run
/// out of budget, and never touches the result cache or the server.
///
//===----------------------------------------------------------------------===//

#include "SolverBudget.h"
#include "Workloads.h"

#include "engine/Engine.h"
#include "engine/JobIo.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>

using namespace perfbench;
using namespace isopredict;
using namespace isopredict::engine;

namespace {

/// Workload seeds of the grid, as in the paper's tables.
constexpr unsigned GridSeeds = 3;
/// Set-ups of the campaign before each pass; setup_s is the median over
/// the run, so that its samples span the run rather than one moment of
/// the host's load.
constexpr unsigned SetupsPerPass = 31;
/// Engine::run passes of an untraced run, at least.
constexpr unsigned MinPasses = 3;

/// The grid, rotated by \p Seed.
Campaign buildCampaign(uint64_t Seed) {
  static const char *const Apps[] = {"smallbank", "tpcc", "voter",
                                     "wikipedia"};
  Campaign C;
  C.Name = "perfbench-campaign";
  for (uint64_t WorkloadSeed = 1; WorkloadSeed <= GridSeeds; ++WorkloadSeed)
    for (const char *App : Apps)
      for (bool Large : {false, true}) {
        if (Large && std::string(App) != "smallbank" &&
            std::string(App) != "tpcc")
          continue;
        for (IsolationLevel L :
             {IsolationLevel::Causal, IsolationLevel::ReadCommitted})
          for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                             Strategy::ApproxRelaxed}) {
            JobSpec J;
            J.Kind = JobKind::Predict;
            J.App = App;
            J.Cfg = Large ? WorkloadConfig::large(WorkloadSeed)
                          : WorkloadConfig::small(WorkloadSeed);
            J.Level = L;
            J.Strat = S;
            J.TimeoutMs = WallBudgetMs;
            J.Validate = true;
            C.Jobs.push_back(std::move(J));
          }
      }
  // The seed rotates the grid rather than shuffling it: neighbouring
  // jobs — the ones that run side by side on the workers, and whose
  // solver memory adds up to the peak RSS — stay the same.
  std::rotate(C.Jobs.begin(), C.Jobs.begin() + Seed % C.Jobs.size(),
              C.Jobs.end());
  return C;
}

/// Whole Engine::run passes over the campaign: at least \p MinRuns,
/// then as many as end nearest to \p Seconds.
struct EnginePass {
  std::vector<JobResult> Done;
  double Wall = 0;
  /// Each pass's wall-clock and this process's peak RSS during it.
  std::vector<double> PassWalls, PassPeakRss;
  unsigned Workers = 1;
  unsigned Passes = 0;
  /// Summed over passes: wall after the first worker went idle.
  double TailSeconds = 0;
};

EnginePass runEnginePasses(const Campaign &C, unsigned Workers,
                           unsigned MinRuns, double Seconds,
                           const std::function<void()> &BeforePass) {
  EnginePass Pass;
  Pass.Workers = Workers;
  double Start = nowSeconds(), PassWall = 0;
  do {
    BeforePass();
    resetPeakRssSelf();
    std::vector<double> DoneAt;
    double PassStart = nowSeconds(), LastStart = 0;
    EngineOptions O;
    O.NumWorkers = Workers;
    O.OnJobDone = [&](size_t, size_t, const JobResult &R) {
      // Serialized by the engine.
      DoneAt.push_back(nowSeconds() - PassStart);
      LastStart = std::max(LastStart, DoneAt.back() - R.WallSeconds);
    };
    Report R = Engine(O).run(C);
    PassWall = nowSeconds() - PassStart;
    // The tail starts at the first completion after the last job
    // started: from then on a worker finds the queue empty.
    double TailFrom = PassWall;
    for (double At : DoneAt)
      if (At >= LastStart)
        TailFrom = std::min(TailFrom, At);
    Pass.TailSeconds += PassWall - TailFrom;
    Pass.Done.insert(Pass.Done.end(), R.results().begin(), R.results().end());
    Pass.PassWalls.push_back(PassWall);
    Pass.PassPeakRss.push_back(peakRssMbSelf());
    ++Pass.Passes;
  } while (Pass.Passes < MinRuns ||
           nowSeconds() - Start + PassWall / 2 < Seconds);
  Pass.Wall = nowSeconds() - Start;
  return Pass;
}

void noteJobFingerprint(RepeatLog &Log, const JobResult &R) {
  std::string Q = "campaign/" + specLabel(R.Spec);
  Log.note(Q + "/verdict", toString(R.Outcome));
  Log.note(Q + "/literals", std::to_string(R.Stats.NumLiterals));
  for (const PassStats &Pass : R.Stats.Passes)
    Log.note(Q + "/pass/" + Pass.Name, std::to_string(Pass.Literals));
  if (R.Outcome != SmtResult::Unknown && R.SolverStats.Collected) {
    Log.note(Q + "/conflicts", std::to_string(R.SolverStats.Conflicts));
    Log.note(Q + "/decisions", std::to_string(R.SolverStats.Decisions));
  }
}

/// End-to-end metrics and engine.* layer metrics of an engine pass.
void reportPass(const EnginePass &Pass, RunOutcome &Out) {
  uint64_t Decided = 0, Sat = 0, Validated = 0, Failed = 0;
  double Busy = 0;
  // A job's time is its median over the passes; one that failed in any
  // pass is a miss.
  std::map<std::string, std::vector<double>> JobWalls;
  std::set<std::string> FailedJobs;
  for (const JobResult &R : Pass.Done) {
    if (!R.Ok) {
      ++Failed;
      FailedJobs.insert(specLabel(R.Spec));
      continue;
    }
    JobWalls[specLabel(R.Spec)].push_back(R.WallSeconds);
    Busy += R.WallSeconds;
    Decided += R.Outcome != SmtResult::Unknown;
    if (R.Outcome == SmtResult::Sat) {
      ++Sat;
      Validated += R.validatedUnserializable();
    }
    Out.Chk.noteVerdict(historyLevelKey(R.Spec), R.Spec.Strat, R.Outcome);
    noteJobFingerprint(Out.Repeat, R);
  }
  Samples Query;
  for (const auto &[Label, Walls] : JobWalls)
    if (!FailedJobs.count(Label))
      Query.add(median(Walls));
  for (size_t I = 0; I < FailedJobs.size(); ++I)
    Query.addMiss();
  uint64_t Attempted = Pass.Done.size();
  Out.Attempted = Attempted;
  Out.Failed = Failed;
  std::vector<double> Throughputs;
  for (double Wall : Pass.PassWalls)
    Throughputs.push_back(
        static_cast<double>(Attempted - Failed) / Pass.Passes / Wall);
  Ledger &L = Out.L;
  std::string Walls;
  for (double Wall : Pass.PassWalls)
    Walls += (Walls.empty() ? "" : "/") + formatNumber(Wall);
  L.set("ops_per_s", "1/s", median(Throughputs),
        "median over " + std::to_string(Pass.Passes) + " pass(es) of " +
            std::to_string((Attempted - Failed) / Pass.Passes) +
            " queries (" + Walls + " s), " + std::to_string(Pass.Workers) +
            " workers");
  L.setPercentile("query_p50_s", "s", Query, 0.5, 1);
  L.setPercentile("query_p90_s", "s", Query, 0.9, 1);
  L.na("cached_p50_ms", "ms", "campaign never consults the result cache");
  L.na("cached_p90_ms", "ms", "campaign never consults the result cache");
  L.na("extend_p50_ms", "ms", "campaign jobs are one-shot");
  L.setShare("decided_share", static_cast<double>(Decided),
             static_cast<double>(Attempted));
  L.setShare("validated_share", static_cast<double>(Validated),
             static_cast<double>(Sat));
  L.setShare("failed_share", static_cast<double>(Failed),
             static_cast<double>(Attempted));

  L.setShare("engine.busy_share", Busy,
             static_cast<double>(Pass.Workers) * Pass.Wall);
  L.set("engine.tail_s", "s", Pass.TailSeconds / Pass.Passes,
        "per pass: wall after the first worker went idle");
}

/// One set-up of the campaign: the grid with its jobs' identities (spec
/// hashes) and the engine's schedule, and one observation of each
/// execution the grid predicts on — the input every query needs before
/// it can run. (Share-nothing, each job then observes its own copy.)
/// Returns a fingerprint of what was set up.
uint64_t setUp(uint64_t Seed, Campaign &C) {
  C = buildCampaign(Seed);
  uint64_t Identity = Engine::planGroups(C, false).size();
  std::set<std::string> Observed;
  for (const JobSpec &J : C.Jobs) {
    Identity = mixSeed(Identity, specHash(J));
    if (!Observed
             .insert(J.App + "/" + workloadLabel(J.Cfg) + "/" +
                     std::to_string(J.Cfg.Seed))
             .second)
      continue;
    std::unique_ptr<Application> App = makeApplication(J.App);
    Identity = mixSeed(Identity, observeExecution(*App, J.Cfg).Hist.numTxns());
  }
  return Identity;
}

} // namespace

void perfbench::runCampaign(const RunConfig &Cfg, RunOutcome &Out) {
  std::vector<double> Setups;
  Campaign C;
  auto SetUpBatch = [&] {
    uint64_t Identity = 0;
    for (unsigned I = 0; I < SetupsPerPass; ++I) {
      double T0 = nowSeconds();
      Identity = setUp(Cfg.Seed, C);
      Setups.push_back(nowSeconds() - T0);
    }
    Out.Repeat.note("campaign/identity", std::to_string(Identity));
  };

  // Traced: one pass untraced, then the same jobs layer by layer.
  EnginePass A =
      runEnginePasses(C, Cfg.Threads, Cfg.Trace ? 1 : MinPasses,
                      Cfg.Trace ? 0 : Cfg.Seconds, SetUpBatch);
  Out.L.set("setup_s", "s", median(Setups),
            "median of " + std::to_string(Setups.size()) +
                " campaign builds, each observing the grid's executions");
  reportPass(A, Out);

  if (Cfg.Trace) {
    // Replay the completed jobs layer by layer with as many workers.
    LayerTally T;
    std::vector<DirectJob> Direct(A.Done.size());
    std::atomic<size_t> Next{0};
    auto Worker = [&] {
      for (size_t I; (I = Next++) < A.Done.size();) {
        Direct[I] = runDirectPredict(A.Done[I].Spec, T);
        T.addOp(Direct[I].Wall);
      }
    };
    std::vector<std::thread> Pool;
    for (unsigned W = 0; W < Cfg.Threads; ++W)
      Pool.emplace_back(Worker);
    for (std::thread &Th : Pool)
      Th.join();

    double UntracedBusy = 0;
    for (size_t I = 0; I < A.Done.size(); ++I) {
      const JobResult &R = A.Done[I];
      const DirectJob &D = Direct[I];
      UntracedBusy += R.WallSeconds;
      std::string Label = "campaign/" + specLabel(R.Spec);
      Out.Chk.crossCheck(Label, R.Outcome, D.P.Result);
      noteQueryFingerprint(Out.Repeat, Label, D.P);
      Out.Chk.noteVerdict(historyLevelKey(R.Spec), R.Spec.Strat, D.P.Result);
      if (D.P.Result == SmtResult::Sat)
        Out.Chk.queuePrediction(Label, D.P.Predicted, R.Spec.Level);
    }
    T.report(Out.L);
    if (std::optional<double> U = T.split().unattributedShare())
      Out.L.set("bench.unattributed_share", "ratio", *U);
    else
      Out.L.na("bench.unattributed_share", "ratio", "no traced operations");
    if (std::optional<double> R = share(T.split().opSeconds(), UntracedBusy))
      Out.L.set("bench.trace_overhead_share", "ratio", *R - 1,
                "direct layer calls vs Engine::run, same jobs");
    else
      Out.L.na("bench.trace_overhead_share", "ratio", "no jobs completed");
  }
  Out.Chk.checkImplications();
  Out.L.set("peak_rss_mb", "MB", median(A.PassPeakRss),
            "benchmark process, median pass");
}
