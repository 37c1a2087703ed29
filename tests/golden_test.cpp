//===- golden_test.cpp - Golden-equivalence fixtures for predict() -------===//
//
// Pins predict()'s observable behaviour — Result, BoundaryPos, CutPos,
// and the witness cycle — on the seed workloads, and replay-validates
// every Sat prediction, so a re-pinned model is checked rather than
// merely re-recorded. Result is the contract; the model fields pin the
// encoding's construction order, which seeds the solver's search.
//
// The fixture grid only contains configurations whose solver time is far
// below the 300 s timeout, so outcomes are machine-independent.
//
// Regenerate fixtures (writes the .inc and exits without asserting):
//   ISOPREDICT_GOLDEN_REGEN=tests/golden_predictions.inc ./golden_test
//
//===----------------------------------------------------------------------===//

#include "apps/AppFramework.h"
#include "predict/Predict.h"
#include "predict/PredictSession.h"
#include "support/Env.h"
#include "support/StrUtil.h"
#include "validate/Validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

using namespace isopredict;

namespace {

struct GoldenCase {
  const char *App;
  IsolationLevel Level;
  Strategy Strat;
  uint64_t Seed;
  const char *Result;   ///< Expected toString(Prediction::Result).
  const char *Boundary; ///< Comma-joined BoundaryPos, "inf" = InfPos.
  const char *Cut;      ///< Comma-joined CutPos, "inf" = InfPos.
  const char *Witness;  ///< Comma-joined witness cycle txn ids.
};

const GoldenCase GoldenCases[] = {
#include "golden_predictions.inc"
};

/// Per-query solver timeout. Fixture configurations solve in seconds, so
/// this margin keeps outcomes deterministic across machines.
constexpr unsigned GoldenTimeoutMs = 300000;

History observedHistory(const std::string &App, uint64_t Seed) {
  auto Application = makeApplication(App);
  DataStore::Options O;
  O.Mode = StoreMode::SerialObserved;
  O.Level = IsolationLevel::Serializable;
  O.Seed = Seed;
  DataStore Store(O);
  return WorkloadRunner::run(*Application, Store, WorkloadConfig::small(Seed))
      .Hist;
}

std::string joinPositions(const std::vector<uint32_t> &Ps) {
  std::string Out;
  for (size_t I = 0; I < Ps.size(); ++I) {
    if (I)
      Out += ',';
    Out += Ps[I] == InfPos ? "inf" : formatString("%u", Ps[I]);
  }
  return Out;
}

std::string joinTxns(const std::vector<TxnId> &Ts) {
  std::string Out;
  for (size_t I = 0; I < Ts.size(); ++I) {
    if (I)
      Out += ',';
    Out += formatString("%u", Ts[I]);
  }
  return Out;
}

Prediction runCase(const History &H, IsolationLevel Level, Strategy Strat) {
  PredictOptions Opts;
  Opts.Level = Level;
  Opts.Strat = Strat;
  Opts.TimeoutMs = GoldenTimeoutMs;
  return predict(H, Opts);
}

const char *levelLiteral(IsolationLevel L) {
  switch (L) {
  case IsolationLevel::Causal:
    return "IsolationLevel::Causal";
  case IsolationLevel::ReadAtomic:
    return "IsolationLevel::ReadAtomic";
  case IsolationLevel::ReadCommitted:
    return "IsolationLevel::ReadCommitted";
  case IsolationLevel::Serializable:
    break;
  }
  return "IsolationLevel::Serializable";
}

const char *strategyLiteral(Strategy S) {
  switch (S) {
  case Strategy::ExactStrict:
    return "Strategy::ExactStrict";
  case Strategy::ApproxStrict:
    return "Strategy::ApproxStrict";
  case Strategy::ApproxRelaxed:
    return "Strategy::ApproxRelaxed";
  }
  return "Strategy::ApproxRelaxed";
}

/// The fixture grid; used only by regeneration. Fast, deterministic
/// configurations only (see file comment).
std::vector<GoldenCase> fixtureGrid() {
  std::vector<GoldenCase> Grid;
  for (const char *App : {"smallbank", "voter"})
    for (IsolationLevel L :
         {IsolationLevel::Causal, IsolationLevel::ReadAtomic,
          IsolationLevel::ReadCommitted})
      for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                         Strategy::ApproxRelaxed})
        for (uint64_t Seed : {1, 2})
          Grid.push_back({App, L, S, Seed, "", "", "", ""});
  for (IsolationLevel L :
       {IsolationLevel::Causal, IsolationLevel::ReadCommitted})
    Grid.push_back(
        {"tpcc", L, Strategy::ApproxRelaxed, 1, "", "", "", ""});
  Grid.push_back({"wikipedia", IsolationLevel::Causal,
                  Strategy::ApproxRelaxed, 1, "", "", "", ""});
  return Grid;
}

int regenerate(const std::string &Path) {
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", Path.c_str());
    return 1;
  }
  std::fprintf(Out, "// Generated by: ISOPREDICT_GOLDEN_REGEN=%s "
                    "./golden_test\n// clang-format off\n",
               Path.c_str());
  for (const GoldenCase &C : fixtureGrid()) {
    Prediction P =
        runCase(observedHistory(C.App, C.Seed), C.Level, C.Strat);
    std::fprintf(
        Out,
        "{\"%s\", %s, %s, %llu,\n \"%s\", \"%s\", \"%s\", \"%s\"},\n",
        C.App, levelLiteral(C.Level), strategyLiteral(C.Strat),
        static_cast<unsigned long long>(C.Seed), toString(P.Result),
        joinPositions(P.BoundaryPos).c_str(),
        joinPositions(P.CutPos).c_str(), joinTxns(P.Witness).c_str());
    std::fprintf(stderr, "regen: %s %s %s seed=%llu: %s\n", C.App,
                 toString(C.Level), toString(C.Strat),
                 static_cast<unsigned long long>(C.Seed),
                 toString(P.Result));
  }
  std::fprintf(Out, "// clang-format on\n");
  std::fclose(Out);
  return 0;
}

/// A Sat prediction must survive validation replay: a non-diverged
/// validating execution follows the predicted reads exactly and is
/// therefore unserializable, so a "serializable" verdict without
/// divergence would expose an unsound encoding.
void expectReplayValidates(const std::string &App, uint64_t Seed,
                           const History &H, const Prediction &P,
                           IsolationLevel Level) {
  auto Replay = makeApplication(App);
  ValidationResult V = validatePrediction(
      *Replay, WorkloadConfig::small(Seed), H, P, Level, GoldenTimeoutMs);
  EXPECT_TRUE(V.St == ValidationResult::Status::ValidatedUnserializable ||
              V.Diverged)
      << "non-diverged replay of a Sat prediction was serializable "
         "(validation: "
      << toString(V.St) << ")";
}

class Golden : public ::testing::TestWithParam<size_t> {};

} // namespace

TEST_P(Golden, PredictionMatchesFixture) {
  const GoldenCase &C = GoldenCases[GetParam()];
  SCOPED_TRACE(formatString("%s %s %s seed=%llu", C.App, toString(C.Level),
                            toString(C.Strat),
                            static_cast<unsigned long long>(C.Seed)));
  History H = observedHistory(C.App, C.Seed);
  Prediction P = runCase(H, C.Level, C.Strat);
  EXPECT_STREQ(toString(P.Result), C.Result);
  EXPECT_EQ(joinPositions(P.BoundaryPos), C.Boundary);
  EXPECT_EQ(joinPositions(P.CutPos), C.Cut);
  EXPECT_EQ(joinTxns(P.Witness), C.Witness);
  if (P.Result == SmtResult::Sat)
    expectReplayValidates(C.App, C.Seed, H, P, C.Level);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Golden,
    ::testing::Range<size_t>(0, std::size(GoldenCases)),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      const GoldenCase &C = GoldenCases[Info.param];
      std::string Name =
          formatString("%s_%s_%s_s%llu", C.App, toString(C.Level),
                       toString(C.Strat),
                       static_cast<unsigned long long>(C.Seed));
      for (char &Ch : Name)
        if (!std::isalnum(static_cast<unsigned char>(Ch)))
          Ch = '_';
      return Name;
    });

// Session-mode sweep over the same fixture grid: one PredictSession per
// observed history answers every (level × strategy) fixture on it.
// Incremental solving legitimately produces different *models* than the
// one-shot path (the base prefix seeds the search differently), so only
// Result is pinned against the fixtures — and every Sat prediction must
// still replay-validate: a non-diverged validating execution follows
// the predicted reads exactly and is therefore unserializable, so a
// "serializable" verdict without divergence would expose an unsound
// session encoding.
TEST(SessionEquivalence, ResultsMatchFixturesAcrossSharedSessions) {
  // Group fixtures by observed history, preserving fixture order.
  std::vector<std::pair<std::pair<std::string, uint64_t>,
                        std::vector<const GoldenCase *>>>
      Groups;
  for (const GoldenCase &C : GoldenCases) {
    std::pair<std::string, uint64_t> Key{C.App, C.Seed};
    auto It = std::find_if(Groups.begin(), Groups.end(),
                           [&](const auto &G) { return G.first == Key; });
    if (It == Groups.end()) {
      Groups.push_back({Key, {}});
      It = std::prev(Groups.end());
    }
    It->second.push_back(&C);
  }

  for (const auto &[Key, Cases] : Groups) {
    const auto &[App, Seed] = Key;
    History H = observedHistory(App, Seed);
    PredictSession Session(H);
    size_t Encoded = 0;

    for (const GoldenCase *C : Cases) {
      SCOPED_TRACE(formatString("%s %s %s seed=%llu (session query %zu)",
                                C->App, toString(C->Level),
                                toString(C->Strat),
                                static_cast<unsigned long long>(C->Seed),
                                Session.numQueries()));
      PredictSession::QueryOptions Q;
      Q.Level = C->Level;
      Q.Strat = C->Strat;
      Q.TimeoutMs = GoldenTimeoutMs;
      Prediction P = Session.query(Q);
      EXPECT_STREQ(toString(P.Result), C->Result);

      // The shared prefix is encoded at most once per session: every
      // encoded query after the first reuses it.
      if (Session.baseEncoded()) {
        EXPECT_EQ(P.Stats.BasePrefixReused, ++Encoded > 1);
        EXPECT_GT(Session.baseLiterals(), 0u);
      }

      if (P.Result == SmtResult::Sat) {
        auto Replay = makeApplication(App);
        ValidationResult V =
            validatePrediction(*Replay, WorkloadConfig::small(Seed), H, P,
                               C->Level, GoldenTimeoutMs);
        EXPECT_TRUE(V.St ==
                        ValidationResult::Status::ValidatedUnserializable ||
                    V.Diverged)
            << "non-diverged replay of a session prediction was "
               "serializable (validation: "
            << toString(V.St) << ")";
      }
    }
    EXPECT_EQ(Session.numQueries(), Cases.size());
  }
}

int main(int argc, char **argv) {
  std::string Regen = envString("ISOPREDICT_GOLDEN_REGEN", "");
  if (!Regen.empty())
    return regenerate(Regen);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
