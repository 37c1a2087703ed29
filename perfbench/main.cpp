//===- main.cpp - isobench: the IsoPredict benchmark program --------------===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   isobench --workload campaign|stream|serve --seed N --seconds S
///            --trace 0|1 --benchmark-json PATH --state-dir DIR
///            [--server-bin PATH]
///
/// Runs one workload, checks its verdicts, prints every metric by name
/// with its unit (n/a where it does not apply), and ends with one JSON
/// line: {"correct", "attempted", "failed", "metrics"} — untraced, the
/// end_to_end metrics of BENCHMARK.json; traced, its per_layer ones.
/// Exits 1 when any verdict is wrong, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "SolverBudget.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "isobench: %s\n"
               "usage: isobench --workload campaign|stream|serve --seed N "
               "--seconds S --trace 0|1 --benchmark-json PATH --state-dir DIR "
               "[--server-bin PATH]\n",
               Msg);
  return 2;
}

/// Solver-bound oracle time a run may spend after measuring.
constexpr double OracleBudgetSeconds = 20;

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  Cfg.Threads = std::max(1u, std::min(2u, std::thread::hardware_concurrency()));
  std::string SpecPath;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Flag).c_str());
    std::string V = argv[++I];
    if (Flag == "--workload")
      Cfg.Workload = V;
    else if (Flag == "--seed")
      Cfg.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Cfg.Seconds = std::strtod(V.c_str(), nullptr);
    else if (Flag == "--trace")
      Cfg.Trace = V == "1";
    else if (Flag == "--benchmark-json")
      SpecPath = V;
    else if (Flag == "--state-dir")
      Cfg.StateDir = V;
    else if (Flag == "--server-bin")
      Cfg.ServerBin = V;
    else
      return usage(("unknown flag " + Flag).c_str());
  }
  if (SpecPath.empty() || Cfg.StateDir.empty() || Cfg.Seconds <= 0)
    return usage("--benchmark-json, --state-dir and a positive --seconds "
                 "needed");
  std::ifstream SpecFile(SpecPath);
  if (!SpecFile)
    return usage((SpecPath + ": unreadable").c_str());
  std::stringstream SpecText;
  SpecText << SpecFile.rdbuf();
  std::string Err;
  std::optional<BenchmarkSpec> Spec = parseBenchmarkSpec(SpecText.str(), Err);
  if (!Spec)
    return usage((SpecPath + ": " + Err).c_str());
  mkdir(Cfg.StateDir.c_str(), 0755);

  RunOutcome Out;
  if (Cfg.Workload == "campaign")
    runCampaign(Cfg, Out);
  else if (Cfg.Workload == "stream")
    runStream(Cfg, Out);
  else if (Cfg.Workload == "serve") {
    if (Cfg.ServerBin.empty())
      return usage("serve needs --server-bin");
    runServe(Cfg, Out);
  } else
    return usage(("unknown workload '" + Cfg.Workload + "'").c_str());

  // The oracle's own checks are not measured: they get no work limit.
  limitSolverWork(false);
  Out.Chk.runOracle(OracleBudgetSeconds);
  size_t Wrong = Out.Chk.wrongCount();
  Out.L.set("wrong_verdicts", "count", static_cast<double>(Wrong),
            "oracle checked " + std::to_string(Out.Chk.oracleChecked()) +
                " sat predictions, " +
                std::to_string(Out.Chk.oracleUndecided()) + " undecided, " +
                std::to_string(Out.Chk.oracleSkipped()) + " over budget");

  const std::vector<MetricSpec> &Keys =
      Cfg.Trace ? Spec->PerLayer : Spec->EndToEnd;
  for (const MetricSpec &K : Keys) {
    const Metric *M = Out.L.find(K.Name);
    if (!M && Cfg.Trace)
      Out.L.na(K.Name, K.Unit, "layer not entered by this workload");
    else if (!M || M->Unit != K.Unit)
      return usage(("metric " + K.Name + " of " + SpecPath +
                    (M ? " is measured in " + M->Unit + ", not " + K.Unit
                       : " is not measured by this workload"))
                       .c_str());
  }

  std::string RepeatPath = Cfg.StateDir + "/repeat-" + Cfg.Workload + "-" +
                           std::to_string(Cfg.Seed) + ".tsv";
  Out.Repeat.syncWithFile(RepeatPath);

  std::printf("workload %s, seed %llu, %s run, %g s, %u threads\n",
              Cfg.Workload.c_str(), static_cast<unsigned long long>(Cfg.Seed),
              Cfg.Trace ? "traced" : "untraced", Cfg.Seconds, Cfg.Threads);
  std::printf("%s", Out.L.table().c_str());
  for (const std::string &N : Out.Notes)
    std::printf("note: %s\n", N.c_str());
  std::printf("exact-repeat: %zu values compared, %zu mismatched\n",
              Out.Repeat.compared(), Out.Repeat.mismatched());
  for (const std::string &M : Out.Repeat.examples())
    std::printf("exact-repeat mismatch: %s\n", M.c_str());
  for (const std::string &M : Out.Chk.messages())
    std::printf("WRONG VERDICT: %s\n", M.c_str());
  std::printf("%s\n",
              Out.L
                  .resultJson(Wrong == 0, Out.Attempted, Out.Failed, Keys)
                  .c_str());
  std::fflush(stdout);
  return Wrong == 0 ? 0 : 1;
}
