//===- Layers.cpp - Per-layer tally of the traced run ---------------------===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include <algorithm>

using namespace perfbench;
using namespace isopredict;

const std::vector<std::string> &perfbench::trackedPasses() {
  static const std::vector<std::string> Passes = {
      "declare",      "feasibility", "boundary-link", "window",
      "exact-strict", "approx-rank", "causal",        "read-committed"};
  return Passes;
}

void LayerTally::addLayer(const std::string &Layer, double Seconds) {
  Split.add(Layer, Seconds);
}

void LayerTally::addObserve(double Seconds, size_t Txns) {
  Split.add("store", Seconds);
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Observe.Calls;
  Observe.Seconds += Seconds;
  Observe.Amount += Txns;
}

void LayerTally::addParse(double Seconds) {
  Split.add("history", Seconds);
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Parse.Calls;
  Parse.Seconds += Seconds;
}

void LayerTally::addBase(double Seconds, uint64_t Literals) {
  Split.add("encode", Seconds);
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Base.Calls;
  Base.Seconds += Seconds;
  Base.Amount += Literals;
}

void LayerTally::addExtend(const PredictSession::ExtendStats &ES,
                           double Seconds) {
  Split.add("encode", Seconds);
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Extend.Calls;
  Extend.Seconds += Seconds;
  Extend.Amount += ES.NumLiterals;
  EpochRebuilds += ES.EpochRebuild;
  WindowTxns += ES.WindowTxns;
  ++WindowSamples;
}

void LayerTally::addQuery(const Prediction &P, double CallSeconds) {
  double Gen = P.Stats.GenSeconds, SolveSecs = P.Stats.SolveSeconds;
  double Rest = std::max(0.0, CallSeconds - Gen - SolveSecs);
  Split.add("encode", Gen);
  Split.add("smt", SolveSecs);
  Split.add("predict", Rest);
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Query.Calls;
  Query.Seconds += Gen;
  Query.Amount += P.Stats.NumLiterals;
  ++Solve.Calls;
  Solve.Seconds += SolveSecs;
  ++Extract.Calls;
  Extract.Seconds += Rest;
  for (const PassStats &Pass : P.Stats.Passes)
    PassLiterals[Pass.Name] += Pass.Literals;
  // Out of budget: Z3 reports the work limit as "unknown", not as a
  // timeout (SolverBudget.h).
  Timeouts += P.Result == SmtResult::Unknown && !P.Canceled;
  // Z3's counters are unreliable on timeout: sum decided queries only.
  if (P.Result != SmtResult::Unknown && P.SolverStats.Collected) {
    Conflicts += P.SolverStats.Conflicts;
    Decisions += P.SolverStats.Decisions;
    Propagations += P.SolverStats.Propagations;
  }
}

void LayerTally::addValidate(const ValidationResult &V, double Seconds) {
  Split.add("validate", Seconds);
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Validate.Calls;
  Validate.Seconds += Seconds;
  Diverged += V.Diverged;
}

void LayerTally::addCacheLookup(bool Hit, double Seconds) {
  Split.add("cache", Seconds);
  std::lock_guard<std::mutex> Lock(Mutex);
  ++CacheLookup.Calls;
  CacheLookup.Seconds += Seconds;
  CacheHits += Hit;
}

void LayerTally::addCacheStore(double Seconds) {
  Split.add("cache", Seconds);
  std::lock_guard<std::mutex> Lock(Mutex);
  ++CacheStore.Calls;
  CacheStore.Seconds += Seconds;
}

void LayerTally::report(Ledger &L) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto Mean = [&](const char *Name, const char *Unit, double Total,
                  uint64_t Calls) {
    if (Calls == 0)
      L.na(Name, Unit, "layer not entered by this workload");
    else
      L.set(Name, Unit, Total / static_cast<double>(Calls),
            "mean of " + std::to_string(Calls) + " calls");
  };
  auto Count = [&](const char *Name, uint64_t V, uint64_t Calls) {
    if (Calls == 0)
      L.na(Name, "count", "layer not entered by this workload");
    else
      L.set(Name, "count", static_cast<double>(V),
            "total over " + std::to_string(Calls) + " calls");
  };

  Mean("store.observe_s", "s", Observe.Seconds, Observe.Calls);
  Count("store.txns", Observe.Amount, Observe.Calls);
  Mean("history.parse_s", "s", Parse.Seconds, Parse.Calls);
  Mean("history.window_txns", "count", static_cast<double>(WindowTxns),
       WindowSamples);
  Mean("encode.base_s", "s", Base.Seconds, Base.Calls);
  Mean("encode.base_literals", "count", static_cast<double>(Base.Amount),
       Base.Calls);
  Mean("encode.query_s", "s", Query.Seconds, Query.Calls);
  Mean("encode.query_literals", "count", static_cast<double>(Query.Amount),
       Query.Calls);
  for (const std::string &P : trackedPasses()) {
    auto It = PassLiterals.find(P);
    std::string Name = "encode.pass_literals." + P;
    if (It == PassLiterals.end())
      L.na(Name, "count", "pass did not run");
    else
      L.set(Name, "count",
            static_cast<double>(It->second) / static_cast<double>(Query.Calls),
            "mean per query over " + std::to_string(Query.Calls));
  }
  for (const auto &[P, Lits] : PassLiterals)
    if (std::find(trackedPasses().begin(), trackedPasses().end(), P) ==
        trackedPasses().end())
      L.set("encode.pass_literals." + P, "count",
            static_cast<double>(Lits) / static_cast<double>(Query.Calls),
            "untracked pass");
  Mean("encode.extend_s", "s", Extend.Seconds, Extend.Calls);
  Mean("encode.extend_literals", "count", static_cast<double>(Extend.Amount),
       Extend.Calls);
  Count("encode.epoch_rebuilds", EpochRebuilds, Extend.Calls);
  Mean("smt.solve_s", "s", Solve.Seconds, Solve.Calls);
  Count("smt.timeouts", Timeouts, Solve.Calls);
  Count("smt.conflicts", Conflicts, Solve.Calls);
  Count("smt.decisions", Decisions, Solve.Calls);
  Count("smt.propagations", Propagations, Solve.Calls);
  Mean("predict.extract_s", "s", Extract.Seconds, Extract.Calls);
  Mean("validate.replay_s", "s", Validate.Seconds, Validate.Calls);
  if (Validate.Calls)
    L.setShare("validate.diverged_share", static_cast<double>(Diverged),
               static_cast<double>(Validate.Calls));
  else
    L.na("validate.diverged_share", "ratio",
         "layer not entered by this workload");
  if (CacheLookup.Calls)
    L.setShare("cache.hit_share", static_cast<double>(CacheHits),
               static_cast<double>(CacheLookup.Calls));
  else
    L.na("cache.hit_share", "ratio", "layer not entered by this workload");
  Mean("cache.lookup_s", "s", CacheLookup.Seconds, CacheLookup.Calls);
  Mean("cache.store_s", "s", CacheStore.Seconds, CacheStore.Calls);
}
