//===- Checks.h - Verdict checks of the IsoPredict benchmark ---*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What makes a verdict "wrong" (the benchmark's wrong_verdicts count)
/// and what must repeat exactly between runs of the same code:
///
///  - Oracle: every Sat prediction the benchmark holds is re-checked with
///    the checker module — the predicted history must satisfy the
///    query's isolation level and be unserializable (brute force on
///    small histories, the SMT ∃co check otherwise).
///  - Strategy implication: Approx-Strict sat implies Exact-Strict sat
///    on the same history and level; the converse pair is flagged.
///  - Cross-check: the traced run (layers called directly) and the
///    untraced run (Engine::run or the server) must agree on every
///    spec both decided.
///  - Exact repeat: verdicts, literal counts and solver counters of
///    decided queries must repeat between runs of the same code. These
///    are reported, not counted as wrong verdicts.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "checker/Checkers.h"
#include "predict/Predict.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Checks {
public:
  /// Records one wrong verdict. Thread-safe.
  void wrong(const std::string &Why);
  size_t wrongCount() const;
  std::vector<std::string> messages() const;

  /// Notes the verdict of one strategy on \p HistoryLevel (a key naming
  /// the observed history and the isolation level).
  void noteVerdict(const std::string &HistoryLevel, isopredict::Strategy S,
                   isopredict::SmtResult R);
  /// Flags every history-level where Exact-Strict said unsat and
  /// Approx-Strict said sat.
  void checkImplications();

  /// Flags a spec both runs decided differently.
  void crossCheck(const std::string &What, isopredict::SmtResult Untraced,
                  isopredict::SmtResult Traced);

  /// Queues the predicted history of a Sat prediction for the oracle.
  void queuePrediction(const std::string &What,
                       const isopredict::History &Predicted,
                       isopredict::IsolationLevel Level);
  /// Runs the oracle over the queue, spending at most \p BudgetSeconds;
  /// predictions left unchecked are counted, not flagged.
  void runOracle(double BudgetSeconds);

  size_t oracleChecked() const { return OracleChecked; }
  size_t oracleUndecided() const { return OracleUndecided; }
  size_t oracleSkipped() const { return OracleSkipped; }

private:
  struct Queued {
    std::string What;
    isopredict::History Predicted;
    isopredict::IsolationLevel Level;
  };
  mutable std::mutex Mutex;
  std::vector<std::string> Wrong;
  std::map<std::string, std::pair<isopredict::SmtResult, isopredict::SmtResult>>
      ExactApprox; ///< HistoryLevel -> (Exact-Strict, Approx-Strict).
  std::vector<Queued> Oracle;
  size_t OracleChecked = 0, OracleUndecided = 0, OracleSkipped = 0;
};

/// Values that must repeat exactly between runs of the same code, keyed
/// by what they describe ("<query>/verdict", "<query>/pass/<name>", ...).
/// A key noted twice with different values — within one run, or against
/// the log an earlier run of the same workload and seed left behind —
/// is a mismatch.
class RepeatLog {
public:
  /// Thread-safe.
  void note(const std::string &Key, const std::string &Value);
  /// Compares with the log at \p Path (if any), then writes the union.
  void syncWithFile(const std::string &Path);

  size_t compared() const { return Compared; }
  size_t mismatched() const { return Mismatched; }
  /// The first mismatches, for printing.
  const std::vector<std::string> &examples() const { return Examples; }

private:
  void compare(const std::string &Key, const std::string &Old,
               const std::string &New);
  std::mutex Mutex;
  std::map<std::string, std::string> Values;
  size_t Compared = 0, Mismatched = 0;
  std::vector<std::string> Examples;
};

/// Notes the deterministic fingerprint of one query: the verdict
/// (unknown included: the solver's work limit is deterministic, see
/// SolverBudget.h), the literal counts (total and per pass) and, for a
/// decided query, Z3's conflicts and decisions.
void noteQueryFingerprint(RepeatLog &Log, const std::string &Query,
                          const isopredict::Prediction &P);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
