//===- Layers.h - Per-layer tally of the traced run ------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run calls each module's public functions itself and times
/// them from outside: WorkloadRunner::run (store), readTrace /
/// parseTraceDelta (history), PredictSession::ensureBase / extend and
/// the query's generation (encode), Z3's check (smt), the rest of the
/// query call (predict: extraction, push/pop), validatePrediction
/// (validate) and ResultStore::lookup / store (cache). LayerTally sums
/// what those calls cost and count, and writes the per-layer metrics.
///
/// Seconds metrics are the mean per call of the layer; literal metrics
/// are means per query; event counts (txns, timeouts, epoch rebuilds,
/// solver counters) are totals over the traced pass.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Ledger.h"

#include "predict/PredictSession.h"
#include "validate/Validate.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Encoding passes with a fixed per-layer metric
/// (encode.pass_literals.<pass>).
const std::vector<std::string> &trackedPasses();

class LayerTally {
public:
  /// One timed call of a layer that has no other counters.
  void addLayer(const std::string &Layer, double Seconds);
  /// WorkloadRunner::run over \p Txns committed transactions.
  void addObserve(double Seconds, size_t Txns);
  /// readTrace / parseTraceDelta.
  void addParse(double Seconds);
  /// PredictSession::ensureBase of a fresh session.
  void addBase(double Seconds, uint64_t Literals);
  /// PredictSession::extend.
  void addExtend(const isopredict::PredictSession::ExtendStats &ES,
                 double Seconds);
  /// A query call that took \p CallSeconds and answered \p P: its
  /// generation goes to encode, its solve to smt, the rest to predict.
  void addQuery(const isopredict::Prediction &P, double CallSeconds);
  /// validatePrediction of a Sat prediction.
  void addValidate(const isopredict::ValidationResult &V, double Seconds);
  /// ResultStore::lookup / store.
  void addCacheLookup(bool Hit, double Seconds);
  void addCacheStore(double Seconds);

  /// Wall-clock of one traced operation (the split's denominator).
  void addOp(double Seconds) { Split.addOp(Seconds); }
  const LayerSplit &split() const { return Split; }

  /// Writes every per-layer metric this tally measured; layers the
  /// workload never entered become n/a. The engine.*, server.* and
  /// bench.* metrics are the caller's.
  void report(Ledger &L) const;

private:
  struct Counter {
    uint64_t Calls = 0;
    double Seconds = 0;
    uint64_t Amount = 0; ///< Literals, txns: whatever the call counts.
  };
  mutable std::mutex Mutex;
  LayerSplit Split;
  Counter Observe, Parse, Base, Extend, Query, Solve, Extract, Validate,
      CacheLookup, CacheStore;
  uint64_t CacheHits = 0, EpochRebuilds = 0, WindowTxns = 0, WindowSamples = 0;
  uint64_t Timeouts = 0, Conflicts = 0, Decisions = 0, Propagations = 0;
  uint64_t Diverged = 0;
  std::map<std::string, uint64_t> PassLiterals;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
