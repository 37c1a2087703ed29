//===- Checks.cpp - Verdict checks of the IsoPredict benchmark ------------===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Ledger.h"

#include <fstream>

using namespace perfbench;
using namespace isopredict;

/// Largest predicted history (t0 excluded) the brute-force
/// serializability check enumerates; larger ones use the SMT check.
static constexpr size_t BruteForceMaxTxns = 8;
/// Solver budget of one oracle SMT call.
static constexpr unsigned OracleTimeoutMs = 5000;
/// Mismatch and wrong-verdict messages kept for printing.
static constexpr size_t MaxMessages = 20;

void Checks::wrong(const std::string &Why) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Wrong.push_back(Why);
}

size_t Checks::wrongCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Wrong.size();
}

std::vector<std::string> Checks::messages() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Wrong;
}

void Checks::noteVerdict(const std::string &HistoryLevel, Strategy S,
                         SmtResult R) {
  if (S == Strategy::ApproxRelaxed || R == SmtResult::Unknown)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto &Pair = ExactApprox
                   .try_emplace(HistoryLevel, SmtResult::Unknown,
                                SmtResult::Unknown)
                   .first->second;
  (S == Strategy::ExactStrict ? Pair.first : Pair.second) = R;
}

void Checks::checkImplications() {
  std::vector<std::string> Bad;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const auto &[Key, Pair] : ExactApprox)
      if (Pair.first == SmtResult::Unsat && Pair.second == SmtResult::Sat)
        Bad.push_back(Key);
  }
  for (const std::string &Key : Bad)
    wrong(Key + ": Exact-Strict unsat but Approx-Strict sat");
}

void Checks::crossCheck(const std::string &What, SmtResult Untraced,
                        SmtResult Traced) {
  if (Untraced == SmtResult::Unknown || Traced == SmtResult::Unknown ||
      Untraced == Traced)
    return;
  wrong(What + ": untraced run said " + toString(Untraced) +
        ", traced run said " + toString(Traced));
}

void Checks::queuePrediction(const std::string &What, const History &Predicted,
                             IsolationLevel Level) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Oracle.push_back(Queued{What, Predicted, Level});
}

void Checks::runOracle(double BudgetSeconds) {
  std::vector<Queued> Todo;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Todo.swap(Oracle);
  }
  double Deadline = nowSeconds() + BudgetSeconds;
  for (const Queued &Q : Todo) {
    if (nowSeconds() >= Deadline) {
      ++OracleSkipped;
      continue;
    }
    ++OracleChecked;
    if (!satisfiesLevel(Q.Predicted, Q.Level, OracleTimeoutMs)) {
      wrong(Q.What + ": predicted history violates " + toString(Q.Level));
      continue;
    }
    std::optional<bool> Serializable;
    if (Q.Predicted.numTxns() - 1 <= BruteForceMaxTxns)
      Serializable = bruteForceSerializable(Q.Predicted);
    if (!Serializable) {
      SerResult R = checkSerializableSmt(Q.Predicted, OracleTimeoutMs);
      if (R != SerResult::Unknown)
        Serializable = R == SerResult::Serializable;
    }
    if (!Serializable)
      ++OracleUndecided;
    else if (*Serializable)
      wrong(Q.What + ": predicted history is serializable");
  }
}

//===----------------------------------------------------------------------===
// RepeatLog
//===----------------------------------------------------------------------===

void RepeatLog::compare(const std::string &Key, const std::string &Old,
                        const std::string &New) {
  ++Compared;
  if (Old == New)
    return;
  if (++Mismatched < MaxMessages)
    Examples.push_back(Key + ": " + Old + " vs " + New);
}

void RepeatLog::note(const std::string &Key, const std::string &Value) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto [It, New] = Values.emplace(Key, Value);
  if (!New)
    compare(Key, It->second, Value);
}

void RepeatLog::syncWithFile(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(Mutex);
  {
    std::ifstream In(Path);
    std::string Line;
    while (std::getline(In, Line)) {
      size_t Tab = Line.find('\t');
      if (Tab == std::string::npos)
        continue;
      std::string Key = Line.substr(0, Tab), Value = Line.substr(Tab + 1);
      auto [It, New] = Values.emplace(Key, Value);
      if (!New)
        compare(Key, Value, It->second);
    }
  }
  std::ofstream Out(Path + ".tmp", std::ios::trunc);
  for (const auto &[Key, Value] : Values)
    Out << Key << '\t' << Value << '\n';
  Out.close();
  std::rename((Path + ".tmp").c_str(), Path.c_str());
}

void perfbench::noteQueryFingerprint(RepeatLog &Log, const std::string &Query,
                                     const Prediction &P) {
  Log.note(Query + "/verdict", toString(P.Result));
  Log.note(Query + "/literals", std::to_string(P.Stats.NumLiterals));
  for (const PassStats &Pass : P.Stats.Passes)
    Log.note(Query + "/pass/" + Pass.Name, std::to_string(Pass.Literals));
  if (P.Result != SmtResult::Unknown && P.SolverStats.Collected) {
    Log.note(Query + "/conflicts", std::to_string(P.SolverStats.Conflicts));
    Log.note(Query + "/decisions", std::to_string(P.SolverStats.Decisions));
  }
}
