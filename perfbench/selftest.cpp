//===- selftest.cpp - Self-tests of the benchmark's own logic -------------===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the ledger rules every workload relies on: the percentile rule
/// (printed only with ten samples beyond it), failed operations as
/// misses of every percentile, shares over an empty denominator, the
/// per-layer residual, the result line and its n/a values, the metric
/// lists of BENCHMARK.json, parsing of server responses, and the peak-RSS
/// probe of another process. perfbench/run.py runs it before every measurement; a
/// failure stops the benchmark.
///
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

using namespace perfbench;

static int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "ledger_selftest: %s:%d: CHECK(%s) failed\n",      \
                   __FILE__, __LINE__, #Cond);                                 \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

static Samples ramp(size_t N) {
  Samples S;
  for (size_t I = 1; I <= N; ++I)
    S.add(static_cast<double>(I));
  return S;
}

static void testPercentileRule() {
  CHECK(Samples::minSamplesFor(0.5) == 20);
  CHECK(Samples::minSamplesFor(0.9) == 100);
  CHECK(!ramp(19).percentile(0.5));
  CHECK(ramp(20).percentile(0.5) == 10.0);
  CHECK(!ramp(99).percentile(0.9));
  CHECK(ramp(100).percentile(0.9) == 90.0);
  CHECK(!Samples().percentile(0.5));

  Ledger L;
  L.setPercentile("p90", "s", ramp(57), 0.9, 1);
  const Metric *M = L.find("p90");
  CHECK(M && !M->Value);
  CHECK(M && M->Note.find("n=57") != std::string::npos);
  L.setPercentile("p50", "ms", ramp(20), 0.5, 1000);
  M = L.find("p50");
  CHECK(M && M->Value && *M->Value == 10000.0);
  CHECK(M && M->Note == "n=20");
}

static void testMedian() {
  CHECK(median({}) == 0);
  CHECK(median({3}) == 3);
  CHECK(median({5, 1, 4}) == 4);
  CHECK(median({4, 1, 3, 2}) == 2.5);
  // One slow repeat of three does not move the median.
  CHECK(median({1.0, 9.0, 1.2}) == 1.2);
}

static void testMisses() {
  // A failed operation sits above every finite sample.
  Samples S = ramp(95);
  for (int I = 0; I < 5; ++I)
    S.addMiss();
  CHECK(S.size() == 100);
  CHECK(S.percentile(0.5) == 50.0);
  CHECK(S.percentile(0.9) == 90.0);
  S.addMiss();
  S.addMiss();
  S.addMiss();
  S.addMiss();
  S.addMiss(); // 95 + 10: p90's rank 94 is still a value.
  CHECK(S.percentile(0.9) == 95.0);
  for (int I = 0; I < 10; ++I)
    S.addMiss(); // 95 + 20: p90's rank 103 is a miss.
  CHECK(std::isinf(*S.percentile(0.9)));
  // Misses alone still count toward the sample rule.
  Samples OnlyMisses;
  for (int I = 0; I < 20; ++I)
    OnlyMisses.addMiss();
  CHECK(OnlyMisses.percentile(0.5) && std::isinf(*OnlyMisses.percentile(0.5)));

  Ledger L;
  L.setPercentile("query_p90_s", "s", S, 0.9, 1);
  std::string Json =
      L.resultJson(true, 115, 20, {{"query_p90_s", "s", false}});
  CHECK(Json.find("\"value\": 1000000000") != std::string::npos);
  CHECK(L.find("query_p90_s")->Note.find("20 failed") != std::string::npos);
}

static void testShares() {
  CHECK(!share(0, 0));
  CHECK(!share(5, 0));
  CHECK(share(1, 4) == 0.25);
  Ledger L;
  L.setShare("decided_share", 0, 0);
  CHECK(!L.find("decided_share")->Value);
  CHECK(L.find("decided_share")->Note.find("0/0") != std::string::npos);
  std::string Json =
      L.resultJson(true, 1, 0, {{"decided_share", "ratio", true}});
  CHECK(Json.find("\"decided_share\": {\"value\": 0, \"unit\": \"ratio\"}") !=
        std::string::npos);
  CHECK(L.table().find("n/a") != std::string::npos);

  LayerSplit Empty;
  CHECK(!Empty.unattributedShare());
  LayerSplit Split;
  Split.add("encode", 1);
  Split.add("smt", 2);
  Split.addOp(4);
  CHECK(Split.unattributedShare() == 0.25);
}

static void testResultLine() {
  Ledger L;
  L.set("latency_ms", "ms", 0.000123456789);
  L.set("setup_s", "s", 1.5);
  std::string Json = L.resultJson(
      false, 7, 2, {{"latency_ms", "ms", false}, {"setup_s", "s", false}});
  CHECK(Json == "{\"correct\": false, \"attempted\": 7, \"failed\": 2, "
                "\"metrics\": {\"latency_ms\": {\"value\": 0.000123456789, "
                "\"unit\": \"ms\"}, \"setup_s\": {\"value\": 1.5, \"unit\": "
                "\"s\"}}}");
}

static void testNaIsWorst() {
  // An n/a or absent metric never reads as a good score: the worst
  // value for its direction is written.
  Ledger L;
  L.setPercentile("query_p90_s", "s", ramp(57), 0.9, 1);
  L.na("peak_rss_mb", "MB", "unreadable");
  L.setShare("decided_share", 0, 0);
  std::string Json = L.resultJson(true, 1, 0,
                                  {{"query_p90_s", "s", false},
                                   {"peak_rss_mb", "MB", false},
                                   {"decided_share", "ratio", true},
                                   {"ops_per_s", "1/s", true}});
  CHECK(Json == "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
                "\"metrics\": {\"query_p90_s\": {\"value\": 1000000000, "
                "\"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": "
                "1000000000, \"unit\": \"MB\"}, \"decided_share\": "
                "{\"value\": 0, \"unit\": \"ratio\"}, \"ops_per_s\": "
                "{\"value\": 0, \"unit\": \"1/s\"}}}");
}

static void testBenchmarkSpec() {
  std::string Err;
  std::optional<BenchmarkSpec> S = parseBenchmarkSpec(
      "{\"command\": [\"python3\"], \"end_to_end\": [{\"name\": "
      "\"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.25}, "
      "{\"name\": \"ops_per_s\", \"unit\": \"1/s\", \"better\": "
      "\"higher\", \"bound\": 0.2}], \"per_layer\": [{\"name\": "
      "\"cache.hit_share\", \"unit\": \"ratio\", \"better\": \"higher\"}]}",
      Err);
  CHECK(S && S->EndToEnd.size() == 2 && S->PerLayer.size() == 1);
  CHECK(S && S->EndToEnd[0].Name == "setup_s" && S->EndToEnd[0].Unit == "s" &&
        !S->EndToEnd[0].HigherIsBetter);
  CHECK(S && S->EndToEnd[1].HigherIsBetter && S->PerLayer[0].HigherIsBetter &&
        S->PerLayer[0].Name == "cache.hit_share");

  CHECK(!parseBenchmarkSpec("{\"end_to_end\": []}", Err));
  CHECK(!parseBenchmarkSpec("{\"end_to_end\": [{\"name\": \"x\", \"unit\": "
                            "\"s\", \"better\": \"up\"}], \"per_layer\": "
                            "[{\"name\": \"y\", \"unit\": \"s\", "
                            "\"better\": \"lower\"}]}",
                            Err));
  CHECK(Err.find("end_to_end") != std::string::npos);
  CHECK(!parseBenchmarkSpec("[1]", Err));
}

static void testPeakRss() {
  std::optional<double> Self = peakRssMbOf(getpid());
  CHECK(Self && *Self > 0);
  CHECK(!peakRssMbOf(-1)); // No such process: unreadable, not 0 MB.

  // A freed 64 MB block stays in the peak until the window is reset.
  {
    std::vector<char> Block(64 << 20);
    volatile char *Touch = Block.data();
    for (size_t I = 0; I < Block.size(); I += 4096)
      Touch[I] = 1;
  }
  double Before = peakRssMbSelf();
  CHECK(Before >= 64);
  if (resetPeakRssSelf())
    CHECK(peakRssMbSelf() < Before - 32);
}

static void testServeResponses() {
  std::optional<ServeResponse> R = parseServeResponse(
      "{\"id\": 7, \"ok\": true, \"verb\": \"query\", \"answered_by\": "
      "\"cache\", \"cache_hit\": true, \"job\": {\"kind\": \"predict\", "
      "\"result\": \"sat\", \"literals\": 1234, \"wall_seconds\": "
      "0.250000}}");
  CHECK(R && R->Ok && R->AnsweredBy == "cache");
  CHECK(R && R->JobWallSeconds && *R->JobWallSeconds == 0.25);
  CHECK(R && R->Outcome == "sat" && !R->TimedOut);

  R = parseServeResponse("{\"id\": 8, \"ok\": true, \"verb\": \"query\", "
                         "\"answered_by\": \"warm_session\", \"job\": "
                         "{\"result\": \"unknown\", \"timeout\": true}}");
  CHECK(R && R->AnsweredBy == "warm_session" && R->TimedOut &&
        !R->JobWallSeconds);

  R = parseServeResponse(
      "{\"id\": 9, \"ok\": false, \"error\": {\"code\": \"quota_exceeded\", "
      "\"message\": \"over quota\"}}");
  CHECK(R && !R->Ok && R->ErrorCode == "quota_exceeded");

  R = parseServeResponse("{\"ok\": true, \"verb\": \"observe\", \"trace\": "
                         "\"history 1\\n\", \"content_hash\": \"00ff\"}");
  CHECK(R && R->Ok && R->Trace == "history 1\n" && R->AnsweredBy.empty() &&
        !R->JobWallSeconds);

  CHECK(!parseServeResponse("not json"));
  CHECK(!parseServeResponse("[1, 2]"));
  CHECK(!parseServeResponse("{\"id\": 1}"));
}

int main() {
  testPercentileRule();
  testMedian();
  testMisses();
  testShares();
  testResultLine();
  testNaIsWorst();
  testBenchmarkSpec();
  testPeakRss();
  testServeResponses();
  if (Failures) {
    std::fprintf(stderr, "ledger_selftest: %d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("ledger_selftest: all checks passed\n");
  return 0;
}
