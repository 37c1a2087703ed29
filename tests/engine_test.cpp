//===- engine_test.cpp - Campaign engine tests ----------------*- C++ -*-===//

#include "engine/Engine.h"

#include "engine/JobIo.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

#include <set>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

/// A campaign covering every job kind whose outcomes are all decided
/// well within the timeout, so results are solver-schedule-independent.
Campaign mixedCampaign() {
  Campaign C;
  C.Name = "engine-test";
  for (const std::string &App : applicationNames())
    for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
      JobSpec J;
      J.Kind = JobKind::Observe;
      J.App = App;
      J.Cfg = WorkloadConfig::small(Seed);
      C.Jobs.push_back(std::move(J));
    }
  {
    JobSpec J; // A Sat prediction that validates (fast).
    J.Kind = JobKind::Predict;
    J.App = "smallbank";
    J.Cfg = WorkloadConfig::small(2);
    J.Level = IsolationLevel::Causal;
    J.Strat = Strategy::ApproxRelaxed;
    J.TimeoutMs = 60000;
    C.Jobs.push_back(std::move(J));
  }
  for (uint64_t R = 1; R <= 3; ++R) {
    JobSpec J;
    J.Kind = JobKind::RandomWeak;
    J.App = "smallbank";
    J.Cfg = WorkloadConfig::small(1);
    J.Level = IsolationLevel::Causal;
    J.StoreSeed = R * 1000 + 7;
    J.TimeoutMs = 60000;
    C.Jobs.push_back(std::move(J));
  }
  {
    JobSpec J;
    J.Kind = JobKind::LockingRc;
    J.App = "voter";
    J.Cfg = WorkloadConfig::small(1);
    J.StoreSeed = 99;
    C.Jobs.push_back(std::move(J));
  }
  return C;
}

Report runWith(const Campaign &C, unsigned Workers) {
  EngineOptions O;
  O.NumWorkers = Workers;
  return Engine(O).run(C);
}

} // namespace

TEST(Engine, DeterministicAcrossWorkerCounts) {
  Campaign C = mixedCampaign();
  std::string Json1 = runWith(C, 1).toJson();
  std::string Json2 = runWith(C, 2).toJson();
  std::string Json4 = runWith(C, 4).toJson();
  // Byte-identical reports regardless of parallelism: results land in
  // campaign order and timings are excluded by default.
  EXPECT_EQ(Json1, Json2);
  EXPECT_EQ(Json1, Json4);
  EXPECT_NE(Json1.find("\"validation\": \"validated-unserializable\""),
            std::string::npos);
}

TEST(Engine, ResultsLandInCampaignOrder) {
  Campaign C = mixedCampaign();
  Report R = runWith(C, 3);
  ASSERT_EQ(R.size(), C.size());
  for (size_t I = 0; I < C.size(); ++I) {
    EXPECT_EQ(R.results()[I].Spec.Kind, C.Jobs[I].Kind);
    EXPECT_EQ(R.results()[I].Spec.App, C.Jobs[I].App);
    EXPECT_EQ(R.results()[I].Spec.Cfg.Seed, C.Jobs[I].Cfg.Seed);
    EXPECT_TRUE(R.results()[I].Ok);
  }
}

TEST(Engine, QueueDrainsWithMoreJobsThanWorkers) {
  // Many cheap jobs on few workers: every job completes exactly once
  // and the progress callback sees a contiguous completion count.
  Campaign C;
  C.Name = "drain";
  for (uint64_t Seed = 1; Seed <= 23; ++Seed) {
    JobSpec J;
    J.Kind = JobKind::Observe;
    J.App = "voter";
    J.Cfg = WorkloadConfig::small(Seed);
    C.Jobs.push_back(std::move(J));
  }

  std::set<uint64_t> SeenSeeds;
  size_t Calls = 0, MaxDone = 0;
  EngineOptions O;
  O.NumWorkers = 4;
  O.OnJobDone = [&](size_t Done, size_t Total, const JobResult &R) {
    ++Calls;
    MaxDone = std::max(MaxDone, Done);
    EXPECT_EQ(Total, 23u);
    SeenSeeds.insert(R.Spec.Cfg.Seed);
  };
  Report R = Engine(O).run(C);

  ASSERT_EQ(R.size(), 23u);
  EXPECT_EQ(Calls, 23u);
  EXPECT_EQ(MaxDone, 23u);
  EXPECT_EQ(SeenSeeds.size(), 23u); // every job ran exactly once
  for (const JobResult &Res : R.results())
    EXPECT_TRUE(Res.Ok);
}

TEST(Engine, EmptyCampaign) {
  Campaign C;
  C.Name = "empty";
  Report R = runWith(C, 4);
  EXPECT_EQ(R.size(), 0u);
  std::string Json = R.toJson();
  EXPECT_NE(Json.find("\"num_jobs\": 0"), std::string::npos);
  EXPECT_NE(Json.find("\"jobs\": []"), std::string::npos);
}

TEST(Engine, UnknownApplicationReportsError) {
  Campaign C;
  C.Name = "bad";
  JobSpec J;
  J.App = "no-such-app";
  C.Jobs.push_back(J);
  Report R = runWith(C, 2);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_FALSE(R.results()[0].Ok);
  EXPECT_NE(R.results()[0].Error.find("no-such-app"), std::string::npos);
  EXPECT_NE(R.toJson().find("\"ok\": false"), std::string::npos);
}

TEST(Engine, PredictGridCrossProduct) {
  Campaign C = Campaign::predictGrid(
      "grid", {"smallbank", "voter"},
      {IsolationLevel::Causal, IsolationLevel::ReadCommitted},
      {Strategy::ApproxStrict, Strategy::ApproxRelaxed}, {false, true}, 3,
      1234);
  EXPECT_EQ(C.size(), 2u * 2 * 2 * 2 * 3);
  for (const JobSpec &J : C.Jobs) {
    EXPECT_EQ(J.Kind, JobKind::Predict);
    EXPECT_EQ(J.TimeoutMs, 1234u);
    EXPECT_GE(J.Cfg.Seed, 1u);
    EXPECT_LE(J.Cfg.Seed, 3u);
  }
}

TEST(Engine, SharedEncodingsDeterministicAcrossWorkerCounts) {
  // Two share-groups (one per seed), each spanning levels × strategies:
  // the group is the scheduling unit, so shared-mode reports must stay
  // byte-identical no matter how many workers execute the groups.
  Campaign C = Campaign::predictGrid(
      "shared", {"smallbank"},
      {IsolationLevel::Causal, IsolationLevel::ReadCommitted},
      {Strategy::ApproxStrict, Strategy::ApproxRelaxed}, {false}, 2, 60000);

  auto runShared = [&](unsigned Workers) {
    EngineOptions O;
    O.NumWorkers = Workers;
    O.ShareEncodings = true;
    return Engine(O).run(C);
  };
  std::string Json1 = runShared(1).toJson();
  std::string Json2 = runShared(2).toJson();
  std::string Json4 = runShared(4).toJson();
  EXPECT_EQ(Json1, Json2);
  EXPECT_EQ(Json1, Json4);
  // At least one query per group reused the shared prefix.
  EXPECT_NE(Json1.find("\"base_prefix_reused\": true"), std::string::npos);
}

TEST(Engine, SharedEncodingsPreserveOutcomes) {
  // Sat/unsat outcomes are part of the session sat-equivalence
  // contract; models (witnesses, validation) may differ, so only the
  // outcome fields are compared against the share-nothing engine.
  Campaign C = Campaign::predictGrid(
      "shared-vs-oneshot", {"smallbank", "voter"},
      {IsolationLevel::Causal, IsolationLevel::ReadCommitted},
      {Strategy::ApproxStrict, Strategy::ApproxRelaxed}, {false}, 2, 60000);

  EngineOptions Off;
  Off.NumWorkers = 2;
  Report Baseline = Engine(Off).run(C);
  EngineOptions On = Off;
  On.ShareEncodings = true;
  Report Shared = Engine(On).run(C);

  ASSERT_EQ(Baseline.size(), Shared.size());
  for (size_t I = 0; I < Baseline.size(); ++I) {
    const JobResult &A = Baseline.results()[I];
    const JobResult &B = Shared.results()[I];
    EXPECT_EQ(specHash(A.Spec), specHash(B.Spec));
    EXPECT_TRUE(B.Ok);
    EXPECT_EQ(A.Outcome, B.Outcome)
        << "outcome changed under --share-encodings for "
        << canonicalSpec(A.Spec);
  }
}

TEST(Campaign, SpecHashIsStableAndDiscriminating) {
  JobSpec A;
  A.Kind = JobKind::Predict;
  A.App = "smallbank";
  A.Cfg = WorkloadConfig::small(3);
  A.Level = IsolationLevel::Causal;
  A.Strat = Strategy::ApproxRelaxed;

  // Equal specs hash equally (the map key property result caching and
  // report matching rely on).
  JobSpec B = A;
  EXPECT_EQ(specHash(A), specHash(B));
  EXPECT_EQ(canonicalSpec(A), canonicalSpec(B));

  // Every outcome-determining field perturbs the hash.
  B = A;
  B.App = "voter";
  EXPECT_NE(specHash(A), specHash(B));
  B = A;
  B.Cfg.Seed = 4;
  EXPECT_NE(specHash(A), specHash(B));
  B = A;
  B.Level = IsolationLevel::ReadCommitted;
  EXPECT_NE(specHash(A), specHash(B));
  B = A;
  B.Strat = Strategy::ExactStrict;
  EXPECT_NE(specHash(A), specHash(B));
  B = A;
  B.StoreSeed = 7;
  EXPECT_NE(specHash(A), specHash(B));
  // Pruned and unpruned runs have different default-report bytes
  // (literal counts, possibly models), so the flag must discriminate:
  // a pruned run must never answer an unpruned cache lookup.
  B = A;
  B.Prune = true;
  EXPECT_NE(specHash(A), specHash(B));
}

TEST(Report, EmitsSpecHashPerJob) {
  Campaign C;
  C.Name = "hash";
  JobSpec J;
  J.Kind = JobKind::Observe;
  J.App = "voter";
  J.Cfg = WorkloadConfig::small(1);
  C.Jobs.push_back(J);
  Report R = runWith(C, 1);
  std::string Expected =
      "\"spec_hash\": \"" +
      formatString("%016llx",
                   static_cast<unsigned long long>(specHash(J))) +
      "\"";
  EXPECT_NE(R.toJson().find(Expected), std::string::npos);
}

TEST(Report, EmitsToolVersionAndSchema) {
  Campaign C;
  C.Name = "version";
  Report R = runWith(C, 1);
  std::string Json = R.toJson();
  EXPECT_NE(Json.find("\"schema\": \"isopredict-campaign-report/2\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"tool_version\": \"" + std::string(toolVersion()) +
                      "\""),
            std::string::npos);
  // Unsharded reports carry no shard coordinates: byte-identity with
  // merged and 1/1-shard reports depends on their absence.
  EXPECT_EQ(Json.find("\"shard_index\""), std::string::npos);
}

// Golden spec hashes: these exact values are persisted in JSON reports,
// name result-cache entries (<cache>/<tool_version>/<hash>.json), and
// key cross-report job matching. If this test fails, a change to
// canonicalSpec (or the hash) has silently invalidated every existing
// cache and broken report_diff against historical reports — either
// revert the change or bump engine::toolVersion() *and* regenerate
// these constants deliberately.
TEST(Campaign, GoldenSpecHashes) {
  auto hash = [](const JobSpec &S) {
    return formatString("%016llx",
                        static_cast<unsigned long long>(specHash(S)));
  };

  JobSpec Predict; // The all-defaults Predict job.
  Predict.Kind = JobKind::Predict;
  Predict.App = "smallbank";
  Predict.Cfg = WorkloadConfig::small(1);
  EXPECT_EQ(canonicalSpec(Predict),
            "kind=predict;app=smallbank;sessions=3;txns=4;seed=1;"
            "level=causal;strat=Approx-Relaxed;pco=rank;store_seed=1;"
            "timeout_ms=0;validate=1;check_ser=1;prune=0");
  EXPECT_EQ(hash(Predict), "0cc7aab949e15986");

  JobSpec Tpcc;
  Tpcc.Kind = JobKind::Predict;
  Tpcc.App = "tpcc";
  Tpcc.Cfg = WorkloadConfig::large(3);
  Tpcc.Level = IsolationLevel::ReadCommitted;
  Tpcc.Strat = Strategy::ApproxStrict;
  Tpcc.TimeoutMs = 5000;
  EXPECT_EQ(hash(Tpcc), "b0797e50953e05e4");

  JobSpec Exact = Predict;
  Exact.Strat = Strategy::ExactStrict;
  Exact.Validate = false;
  EXPECT_EQ(canonicalSpec(Exact),
            "kind=predict;app=smallbank;sessions=3;txns=4;seed=1;"
            "level=causal;strat=Exact-Strict;pco=rank;store_seed=1;"
            "timeout_ms=0;validate=0;check_ser=1;prune=0");
  EXPECT_EQ(hash(Exact), "387af10b618097f0");

  JobSpec Observe;
  Observe.Kind = JobKind::Observe;
  Observe.App = "voter";
  Observe.Cfg = WorkloadConfig::small(2);
  EXPECT_EQ(hash(Observe), "e12e0d590a12dd5d");

  JobSpec Weak;
  Weak.Kind = JobKind::RandomWeak;
  Weak.App = "wikipedia";
  Weak.Cfg = WorkloadConfig::small(1);
  Weak.Level = IsolationLevel::ReadAtomic;
  Weak.StoreSeed = 1007;
  EXPECT_EQ(hash(Weak), "6437d18955e73895");

  JobSpec Locking;
  Locking.Kind = JobKind::LockingRc;
  Locking.App = "smallbank";
  Locking.Cfg = WorkloadConfig::small(5);
  Locking.StoreSeed = 99;
  Locking.CheckSerializability = false;
  EXPECT_EQ(hash(Locking), "bfb4b7a047b9d336");
}

//===----------------------------------------------------------------------===
// Streaming job kind (JobKind::Stream)
//===----------------------------------------------------------------------===

// Window/chunk are Stream-only spec fields: on every other kind they
// must not perturb the canonical spec, so every pre-streaming hash —
// including the golden ones above — stays valid.
TEST(Campaign, StreamSpecFieldsAreConditional) {
  JobSpec P;
  P.Kind = JobKind::Predict;
  P.App = "smallbank";
  P.Cfg = WorkloadConfig::small(1);
  JobSpec P2 = P;
  P2.Window = 9;
  P2.StreamChunk = 4;
  EXPECT_EQ(canonicalSpec(P), canonicalSpec(P2));
  EXPECT_EQ(specHash(P), specHash(P2));

  JobSpec S = P;
  S.Kind = JobKind::Stream;
  S.Window = 9;
  S.StreamChunk = 4;
  EXPECT_EQ(canonicalSpec(S),
            "kind=stream;app=smallbank;sessions=3;txns=4;seed=1;"
            "level=causal;strat=Approx-Relaxed;pco=rank;store_seed=1;"
            "timeout_ms=0;validate=1;check_ser=1;prune=0;window=9;chunk=4");
  JobSpec S2 = S;
  S2.Window = 10;
  EXPECT_NE(specHash(S), specHash(S2));
  S2 = S;
  S2.StreamChunk = 5;
  EXPECT_NE(specHash(S), specHash(S2));
}

// The incremental extend path and the from-scratch baseline must agree
// on every step's outcome and on the encoded window size — the
// equivalence the CI streaming gate checks at campaign scale.
TEST(Engine, StreamJobMatchesFromScratchBaseline) {
  JobSpec J;
  J.Kind = JobKind::Stream;
  J.App = "smallbank";
  J.Cfg = WorkloadConfig::small(2);
  J.TimeoutMs = 60000;
  J.Window = 2;
  J.StreamChunk = 3;
  JobResult Ext = Engine::runJob(J, /*StreamFromScratch=*/false);
  JobResult Scr = Engine::runJob(J, /*StreamFromScratch=*/true);
  ASSERT_TRUE(Ext.Ok);
  ASSERT_TRUE(Scr.Ok);
  ASSERT_GT(Ext.Steps.size(), 1u);
  ASSERT_EQ(Ext.Steps.size(), Scr.Steps.size());
  for (size_t I = 0; I < Ext.Steps.size(); ++I) {
    EXPECT_EQ(Ext.Steps[I].Outcome, Scr.Steps[I].Outcome) << "step " << I;
    EXPECT_EQ(Ext.Steps[I].Txns, Scr.Steps[I].Txns) << "step " << I;
    EXPECT_EQ(Ext.Steps[I].WindowTxns, Scr.Steps[I].WindowTxns)
        << "step " << I;
  }
  EXPECT_EQ(Ext.Outcome, Scr.Outcome);
  EXPECT_EQ(Ext.Steps.back().Outcome, Ext.Outcome);
}

// Stream job entries round-trip through the JSON wire format exactly,
// per-step fields included — the JobIo invariant.
TEST(Report, StreamResultRoundTrips) {
  JobSpec J;
  J.Kind = JobKind::Stream;
  J.App = "smallbank";
  J.Cfg = WorkloadConfig::small(2);
  J.TimeoutMs = 60000;
  J.Window = 3;
  J.StreamChunk = 4;
  JobResult R = Engine::runJob(J);
  ASSERT_TRUE(R.Ok);

  for (bool Timings : {false, true}) {
    ReportOptions RO;
    RO.IncludeTimings = Timings;
    JsonWriter W;
    W.openObject();
    writeJobFields(W, R, RO);
    W.closeObject();
    std::string Json = W.take();

    std::string Error;
    std::optional<JsonValue> Doc = parseJson(Json, &Error);
    ASSERT_TRUE(Doc) << Error;
    std::optional<JobResult> Back = jobResultFromJson(*Doc, &Error);
    ASSERT_TRUE(Back) << Error;
    EXPECT_EQ(Back->Spec.Kind, JobKind::Stream);
    EXPECT_EQ(Back->Spec.Window, 3u);
    EXPECT_EQ(Back->Spec.StreamChunk, 4u);
    EXPECT_EQ(specHash(Back->Spec), specHash(J));
    ASSERT_EQ(Back->Steps.size(), R.Steps.size());
    for (size_t I = 0; I < R.Steps.size(); ++I) {
      EXPECT_EQ(Back->Steps[I].Outcome, R.Steps[I].Outcome);
      EXPECT_EQ(Back->Steps[I].Txns, R.Steps[I].Txns);
      EXPECT_EQ(Back->Steps[I].WindowTxns, R.Steps[I].WindowTxns);
      if (Timings)
        EXPECT_EQ(Back->Steps[I].Literals, R.Steps[I].Literals);
    }

    JsonWriter W2;
    W2.openObject();
    writeJobFields(W2, *Back, RO);
    W2.closeObject();
    EXPECT_EQ(W2.take(), Json) << "timings=" << Timings;

    // The removed pco encoding's name is outside input: a report entry
    // (jobResultFromJson) or shard entry (jobSpecFromJson) naming it is
    // rejected before its spec hash is even checked.
    size_t Pos = Json.find("\"pco\": \"rank\"");
    ASSERT_NE(Pos, std::string::npos);
    Json.replace(Pos, 13, "\"pco\": \"layered\"");
    Doc = parseJson(Json, &Error);
    ASSERT_TRUE(Doc) << Error;
    Error.clear();
    EXPECT_FALSE(jobResultFromJson(*Doc, &Error).has_value());
    EXPECT_NE(Error.find("unknown level/strategy/pco name"),
              std::string::npos)
        << Error;
    Error.clear();
    EXPECT_FALSE(jobSpecFromJson(*Doc, &Error).has_value());
    EXPECT_NE(Error.find("unknown level/strategy/pco name"),
              std::string::npos)
        << Error;
  }
}
