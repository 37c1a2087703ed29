//===- Ledger.cpp - Metric bookkeeping of the IsoPredict benchmark --------===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;
using namespace isopredict;

double perfbench::nowSeconds() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

//===----------------------------------------------------------------------===
// Samples
//===----------------------------------------------------------------------===

/// Zero-based nearest rank of the P-quantile among \p N sorted samples:
/// the smallest sample with at least P of all samples at or below it.
static size_t rankOf(double P, size_t N) {
  double R = std::ceil(P * static_cast<double>(N) - 1e-9);
  return R < 1 ? 0 : static_cast<size_t>(R) - 1;
}

size_t Samples::minSamplesFor(double P) {
  size_t N = 1;
  while (N - rankOf(P, N) - 1 < 10)
    ++N;
  return N;
}

std::optional<double> Samples::percentile(double P) const {
  size_t N = size();
  if (N < minSamplesFor(P))
    return std::nullopt;
  size_t Rank = rankOf(P, N);
  if (Rank >= Values.size())
    return std::numeric_limits<double>::infinity();
  std::vector<double> Sorted = Values;
  std::nth_element(Sorted.begin(), Sorted.begin() + Rank, Sorted.end());
  return Sorted[Rank];
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  if (V.size() % 2)
    return V[Mid];
  return (V[Mid] + *std::max_element(V.begin(), V.begin() + Mid)) / 2;
}

std::optional<double> perfbench::share(double Num, double Den) {
  if (Den == 0)
    return std::nullopt;
  return Num / Den;
}

//===----------------------------------------------------------------------===
// Ledger
//===----------------------------------------------------------------------===

std::string perfbench::formatNumber(double V) {
  if (!std::isfinite(V))
    return V > 0 ? "inf" : "-inf";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

Metric &Ledger::slot(const std::string &Name) {
  for (Metric &M : Items)
    if (M.Name == Name)
      return M;
  Items.push_back(Metric{Name, "", std::nullopt, ""});
  return Items.back();
}

const Metric *Ledger::find(const std::string &Name) const {
  for (const Metric &M : Items)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

void Ledger::set(const std::string &Name, const std::string &Unit,
                 double Value, const std::string &Note) {
  Metric &M = slot(Name);
  M.Unit = Unit;
  M.Value = Value;
  M.Note = Note;
}

void Ledger::na(const std::string &Name, const std::string &Unit,
                const std::string &Why) {
  Metric &M = slot(Name);
  M.Unit = Unit;
  M.Value.reset();
  M.Note = Why;
}

void Ledger::setShare(const std::string &Name, double Num, double Den) {
  std::optional<double> S = share(Num, Den);
  if (S)
    set(Name, "ratio", *S,
        formatNumber(Num) + "/" + formatNumber(Den));
  else
    na(Name, "ratio", "0/0: nothing to divide by");
}

void Ledger::setPercentile(const std::string &Name, const std::string &Unit,
                           const Samples &S, double P, double Scale) {
  std::string Count = "n=" + std::to_string(S.size());
  if (S.misses())
    Count += ", " + std::to_string(S.misses()) + " failed";
  std::optional<double> V = S.percentile(P);
  if (!V) {
    na(Name, Unit,
       Count + "; fewer than 10 samples beyond p" +
           std::to_string(static_cast<int>(P * 100 + 0.5)) + " (needs n>=" +
           std::to_string(Samples::minSamplesFor(P)) + ")");
    return;
  }
  set(Name, Unit, *V * Scale, Count);
}

std::string Ledger::table() const {
  std::ostringstream Out;
  for (const Metric &M : Items) {
    char Line[160];
    std::snprintf(Line, sizeof(Line), "  %-34s %14s %-6s", M.Name.c_str(),
                  M.Value ? formatNumber(*M.Value).c_str() : "n/a",
                  M.Unit.c_str());
    Out << Line;
    if (!M.Note.empty())
      Out << "  (" << M.Note << ")";
    Out << "\n";
  }
  return Out.str();
}

std::string Ledger::resultJson(bool Correct, uint64_t Attempted,
                               uint64_t Failed,
                               const std::vector<MetricSpec> &Keys) const {
  // Written by hand: JsonWriter rounds doubles to six decimals, and the
  // result line must carry every digit measured.
  std::ostringstream Out;
  Out << "{\"correct\": " << (Correct ? "true" : "false")
      << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
      << ", \"metrics\": {";
  for (size_t I = 0; I < Keys.size(); ++I) {
    const MetricSpec &K = Keys[I];
    const Metric *M = find(K.Name);
    double V = M && M->Value ? *M->Value
                             : std::numeric_limits<double>::quiet_NaN();
    if (!std::isfinite(V))
      V = K.HigherIsBetter ? 0.0 : MissValue;
    Out << (I ? ", " : "") << '"' << jsonEscape(K.Name)
        << "\": {\"value\": " << formatNumber(V) << ", \"unit\": \""
        << jsonEscape(K.Unit) << "\"}";
  }
  Out << "}}";
  return Out.str();
}

//===----------------------------------------------------------------------===
// LayerSplit
//===----------------------------------------------------------------------===

void LayerSplit::add(const std::string &Layer, double Seconds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Layers[Layer] += Seconds;
}

void LayerSplit::addOp(double Seconds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Ops += Seconds;
}

double LayerSplit::opSeconds() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Ops;
}

double LayerSplit::attributed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  double S = 0;
  for (const auto &[Name, Secs] : Layers)
    S += Secs;
  return S;
}

std::optional<double> LayerSplit::unattributedShare() const {
  double Total = opSeconds();
  std::optional<double> Covered = share(attributed(), Total);
  if (!Covered)
    return std::nullopt;
  return std::max(0.0, 1.0 - *Covered); // Rounding can overshoot.
}

//===----------------------------------------------------------------------===
// JSON documents read: BENCHMARK.json, server responses
//===----------------------------------------------------------------------===

static std::optional<double> numberField(const JsonValue &Obj,
                                         const char *Name) {
  const JsonValue *F = Obj.field(Name);
  if (!F || F->K != JsonValue::Kind::Number)
    return std::nullopt;
  return std::strtod(F->Text.c_str(), nullptr);
}

static std::string stringField(const JsonValue &Obj, const char *Name) {
  const JsonValue *F = Obj.field(Name);
  return F && F->K == JsonValue::Kind::String ? F->Text : std::string();
}

static bool readMetricList(const JsonValue &Doc, const char *Key,
                           std::vector<MetricSpec> &Into, std::string &Error) {
  const JsonValue *List = Doc.field(Key);
  if (!List || List->K != JsonValue::Kind::Array || List->Items.empty()) {
    Error = std::string("\"") + Key + "\" is not a non-empty list";
    return false;
  }
  for (const JsonValue &Item : List->Items) {
    std::string Name = stringField(Item, "name");
    std::string Unit = stringField(Item, "unit");
    std::string Better = stringField(Item, "better");
    if (Name.empty() || Unit.empty() ||
        (Better != "higher" && Better != "lower")) {
      Error = std::string("an entry of \"") + Key +
              "\" lacks a name, a unit or a better of higher|lower";
      return false;
    }
    Into.push_back(MetricSpec{Name, Unit, Better == "higher"});
  }
  return true;
}

std::optional<BenchmarkSpec>
perfbench::parseBenchmarkSpec(const std::string &Text, std::string &Error) {
  std::optional<JsonValue> Doc = parseJson(Text, &Error);
  if (!Doc)
    return std::nullopt;
  if (Doc->K != JsonValue::Kind::Object) {
    Error = "not a JSON object";
    return std::nullopt;
  }
  BenchmarkSpec Spec;
  if (!readMetricList(*Doc, "end_to_end", Spec.EndToEnd, Error) ||
      !readMetricList(*Doc, "per_layer", Spec.PerLayer, Error))
    return std::nullopt;
  return Spec;
}

std::optional<ServeResponse>
perfbench::parseServeResponse(const std::string &Line) {
  JsonParseLimits Limits;
  Limits.MaxBytes = 64u << 20;
  std::optional<JsonValue> Doc = parseJson(Line, Limits, nullptr);
  if (!Doc || Doc->K != JsonValue::Kind::Object)
    return std::nullopt;
  const JsonValue *Ok = Doc->field("ok");
  if (!Ok || Ok->K != JsonValue::Kind::Bool)
    return std::nullopt;
  ServeResponse R;
  R.Ok = Ok->B;
  if (const JsonValue *Err = Doc->field("error"))
    if (Err->K == JsonValue::Kind::Object)
      R.ErrorCode = stringField(*Err, "code");
  R.AnsweredBy = stringField(*Doc, "answered_by");
  R.Trace = stringField(*Doc, "trace");
  if (const JsonValue *Job = Doc->field("job");
      Job && Job->K == JsonValue::Kind::Object) {
    R.JobWallSeconds = numberField(*Job, "wall_seconds");
    R.Outcome = stringField(*Job, "result");
    if (const JsonValue *TO = Job->field("timeout"))
      R.TimedOut = TO->K == JsonValue::Kind::Bool && TO->B;
  }
  return R;
}

//===----------------------------------------------------------------------===
// Memory
//===----------------------------------------------------------------------===

double perfbench::peakRssMbSelf() {
  if (std::optional<double> Mb = peakRssMbOf(getpid()))
    return *Mb;
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux.
}

bool perfbench::resetPeakRssSelf() {
  // "5" resets the process's VmHWM to its current RSS (Linux 4.0+).
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
  Out.flush();
  return static_cast<bool>(Out);
}

std::optional<double> perfbench::peakRssMbOf(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB.
  return std::nullopt;
}
