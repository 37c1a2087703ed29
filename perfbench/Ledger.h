//===- Ledger.h - Metric bookkeeping of the IsoPredict benchmark -*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own logic, kept apart from the workloads so that
/// ledger_selftest can pin it: latency samples and the percentile rule,
/// shares with empty denominators, the ordered metric ledger that prints
/// the human table and the final JSON line, the metric lists read from
/// BENCHMARK.json, the per-layer time split, parsing of
/// isopredict_server responses, and peak-RSS probes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/// Seconds on the monotonic clock since an arbitrary origin.
double nowSeconds();

/// Latency samples of one operation kind. An operation that failed or
/// was refused is recorded as a *miss*: it sits above every finite
/// sample, so it counts against every percentile.
class Samples {
public:
  void add(double V) { Values.push_back(V); }
  void addMiss() { ++Misses; }

  /// Samples including misses.
  size_t size() const { return Values.size() + Misses; }
  size_t misses() const { return Misses; }

  /// Smallest sample count for which percentile(P) is defined.
  static size_t minSamplesFor(double P);

  /// The P-quantile (0 < P < 1), nearest rank on the sorted samples
  /// with misses ranked last. std::nullopt unless at least ten samples
  /// lie beyond it. A defined percentile that lands on a miss is
  /// +infinity.
  std::optional<double> percentile(double P) const;

private:
  std::vector<double> Values;
  size_t Misses = 0;
};

/// The median of \p V (the mean of the middle two for an even count);
/// 0 for no values. Runs report medians over repeats of the same work,
/// so that a burst of load on a shared host moves one repeat, not the
/// figure.
double median(std::vector<double> V);

/// Num / Den, or std::nullopt when Den is zero.
std::optional<double> share(double Num, double Den);

/// One named metric. An absent Value means "n/a"; Note says why, or
/// carries the sample count of a percentile.
struct Metric {
  std::string Name;
  std::string Unit;
  std::optional<double> Value;
  std::string Note;
};

/// One metric BENCHMARK.json lists, as the result line reports it.
struct MetricSpec {
  std::string Name;
  std::string Unit;
  bool HigherIsBetter = false;
};

/// The metric lists of BENCHMARK.json: the result line of an untraced
/// run carries EndToEnd, that of a traced run PerLayer.
struct BenchmarkSpec {
  std::vector<MetricSpec> EndToEnd;
  std::vector<MetricSpec> PerLayer;
};

/// Reads the "end_to_end" and "per_layer" lists of BENCHMARK.json text;
/// std::nullopt with \p Error set when either is missing or malformed.
std::optional<BenchmarkSpec> parseBenchmarkSpec(const std::string &Text,
                                                std::string &Error);

/// Ordered metrics of one run.
class Ledger {
public:
  void set(const std::string &Name, const std::string &Unit, double Value,
           const std::string &Note = "");
  void na(const std::string &Name, const std::string &Unit,
          const std::string &Why);
  /// Sets a share, or n/a with "0/0" when the denominator is empty.
  void setShare(const std::string &Name, double Num, double Den);
  /// Sets the P-percentile of \p S scaled by \p Scale (1 for seconds,
  /// 1000 for ms), with the sample count in the note; n/a with the
  /// count when too few samples lie beyond it.
  void setPercentile(const std::string &Name, const std::string &Unit,
                     const Samples &S, double P, double Scale);

  const Metric *find(const std::string &Name) const;

  /// Human-readable table: one "name value unit (note)" line each.
  std::string table() const;

  /// The benchmark's last output line, carrying the metrics \p Keys
  /// names. A value that is n/a (or absent) or not finite is written as
  /// the worst for its direction — 0 when higher is better, MissValue
  /// when lower is — so that it never reads as a good score.
  std::string resultJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                         const std::vector<MetricSpec> &Keys) const;

  /// Value written for a lower-is-better metric with no good value,
  /// e.g. a percentile that lands on a miss.
  static constexpr double MissValue = 1e9;

private:
  Metric &slot(const std::string &Name);
  std::vector<Metric> Items;
};

/// Per-layer time split of the traced run: self seconds per layer name
/// plus the wall-clock of the operations they were measured inside.
/// Thread-safe, so concurrent workers may add to one split.
class LayerSplit {
public:
  void add(const std::string &Layer, double Seconds);
  /// Adds the wall-clock of one traced operation (the denominator).
  void addOp(double Seconds);
  double opSeconds() const;
  double attributed() const;
  /// Share of op wall-clock no layer accounts for; n/a with no ops.
  std::optional<double> unattributedShare() const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, double> Layers;
  double Ops = 0;
};

/// The fields the benchmark reads from one isopredict_server response
/// line (src/server/Protocol.h).
struct ServeResponse {
  bool Ok = false;
  /// Error code of an ok:false response.
  std::string ErrorCode;
  /// query: "cache", "warm_session", "session" or "engine".
  std::string AnsweredBy;
  /// query: the embedded job's "result" and "timeout" flag.
  std::string Outcome;
  bool TimedOut = false;
  /// query: job.wall_seconds (server-side time of the job).
  std::optional<double> JobWallSeconds;
  /// observe: the observed execution as trace text.
  std::string Trace;
};

/// Parses one response line; std::nullopt on malformed JSON or a
/// document that is not a response object.
std::optional<ServeResponse> parseServeResponse(const std::string &Line);

/// Peak resident set size of this process since the last
/// resetPeakRssSelf(), MB.
double peakRssMbSelf();
/// Starts a new peak-RSS window for this process, so that each pass of a
/// run has its own peak: the process-wide peak is one sample, and which
/// jobs happen to run side by side moved it by 10% between runs. Returns
/// false where the kernel refuses; the peak then stays process-wide.
bool resetPeakRssSelf();
/// Peak resident set size (VmHWM) of process \p Pid, MB; std::nullopt
/// when it cannot be read (no such process).
std::optional<double> peakRssMbOf(pid_t Pid);

/// "%.6g"-style rendering of a double that keeps every digit needed.
std::string formatNumber(double V);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
