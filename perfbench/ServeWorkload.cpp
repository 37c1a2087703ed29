//===- ServeWorkload.cpp - The "serve" workload ---------------------------===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// isopredict_server on loopback in open mode with a fresh cache dir,
/// driven as a closed loop by one connection per worker thread (each
/// client waits for every answer before sending its next request). Each
/// client keeps six named histories live — twelve across two clients,
/// 1.5x the server's default eight warm sessions, so pool hits and
/// misses both occur — and cycles:
///
///   1. observe one of its names (the population's next execution),
///   2. query it across level x strategy (a cold session, then warm) and
///      re-issue the decided ones,
///   3. twice: extend it by a two-transaction trace delta and query it,
///   4. run one spec query through the server's engine path,
///   5. re-issue the decided queries of its other names since their
///      last extend, and its previous spec query.
///
/// Re-issued queries are answered by the result cache. The cycles' executions
/// come from one shared walk over a fixed population sized by --seconds,
/// and a round ends when the walk does: every run of one length serves
/// the same histories, in an order the seed varies. An untraced run
/// makes three such rounds, each on a fresh server, and reports the
/// median round. The set-up observes use executions of their own, the
/// same for every seed.
///
/// The delta continues the observed trace serially: each new
/// transaction repeats its session's last one, reading the latest
/// writes and writing fresh values.
///
//===----------------------------------------------------------------------===//

#include "SolverBudget.h"
#include "Workloads.h"

#include "apps/AppFramework.h"
#include "cache/ResultStore.h"
#include "engine/JobIo.h"
#include "history/TraceIO.h"
#include "server/SessionPool.h"
#include "store/Store.h"
#include "support/Json.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace perfbench;
using namespace isopredict;

namespace {

constexpr unsigned NamesPerClient = 6;
constexpr unsigned DeltaTxns = 2;
constexpr unsigned ExtendsPerCycle = 2;
/// Executions the cycles walk per second of --seconds: two clients
/// cycle through about two a second on a 4-vCPU VM. The walk, not the
/// clock, ends a run, so every run of one length serves the same
/// histories.
constexpr double ExecutionsPerSecond = 2.0;
/// Rounds of an untraced run: each walks the whole population on a fresh
/// server, and the median round is reported.
constexpr unsigned Rounds = 5;
/// Server starts before each round, the last one serving it; setup_s is
/// the median over the run, so that its samples span the run rather than
/// one moment of the host's load.
constexpr unsigned SetupsPerRound = 5;
constexpr size_t PoolCapacity = 8; ///< The server's default --sessions.
const char *const Apps[] = {"smallbank", "tpcc", "voter", "wikipedia"};
const char *const Shape = "3x4";

//===----------------------------------------------------------------------===
// Server process and connections
//===----------------------------------------------------------------------===

/// One isopredict_server child process.
class ServerProcess {
public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;
  ~ServerProcess() { stop(); }

  bool start(const RunConfig &Cfg, const std::string &Tag) {
    Dir = Cfg.StateDir + "/serve-" + Tag;
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
    if (!std::filesystem::create_directories(Dir, Ec))
      return false;
    std::string PortFile = Dir + "/port";
    std::vector<std::string> Args = {Cfg.ServerBin,
                                     "--port",
                                     "0",
                                     "--port-file",
                                     PortFile,
                                     "--workers",
                                     std::to_string(Cfg.Threads),
                                     "--cache-dir",
                                     Dir + "/cache",
                                     "--log-level",
                                     "warn",
                                     "--log-file",
                                     Dir + "/server.log",
                                     "--slow-query-ms",
                                     "100000"};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    std::string Out = Dir + "/server.out";
    posix_spawn_file_actions_addopen(&FA, 1, Out.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&FA, 1, 2);
    int Rc = posix_spawn(&Pid, Cfg.ServerBin.c_str(), &FA, nullptr,
                         Argv.data(), environ);
    posix_spawn_file_actions_destroy(&FA);
    if (Rc != 0) {
      Pid = -1;
      return false;
    }
    for (int I = 0; I < 3000; ++I) {
      std::ifstream In(PortFile);
      unsigned P = 0;
      if (In >> P && P) {
        Port = P;
        return true;
      }
      int Status;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return false;
      }
      usleep(10000);
    }
    return false;
  }

  unsigned port() const { return Port; }
  pid_t pid() const { return Pid; }

  /// Waits up to ten seconds for a drained exit, then kills; removes
  /// the server's directory.
  void stop() {
    if (Pid <= 0)
      return;
    reap();
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }

private:
  void reap() {
    kill(Pid, SIGTERM);
    int Status;
    for (int I = 0; I < 1000; ++I) {
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      usleep(10000);
    }
    kill(Pid, SIGKILL);
    waitpid(Pid, &Status, 0);
    Pid = -1;
  }

  std::string Dir;
  pid_t Pid = -1;
  unsigned Port = 0;
};

/// A blocking NDJSON connection.
class Connection {
public:
  Connection() = default;
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;
  ~Connection() {
    if (Fd >= 0)
      close(Fd);
  }

  bool open(unsigned Port) {
    Fd = socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    int One = 1;
    setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    sockaddr_in A{};
    A.sin_family = AF_INET;
    A.sin_port = htons(static_cast<uint16_t>(Port));
    A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0;
  }

  /// Sends one request line and reads its response line.
  std::optional<std::string> roundTrip(const std::string &Line) {
    for (size_t Sent = 0; Sent < Line.size();) {
      ssize_t N = send(Fd, Line.data() + Sent, Line.size() - Sent,
                       MSG_NOSIGNAL);
      if (N <= 0) {
        if (N < 0 && errno == EINTR)
          continue;
        return std::nullopt;
      }
      Sent += static_cast<size_t>(N);
    }
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Resp = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Resp;
      }
      char Chunk[65536];
      ssize_t N = recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0) {
        if (N < 0 && errno == EINTR)
          continue;
        return std::nullopt;
      }
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  int Fd = -1;
  std::string Buf;
};

//===----------------------------------------------------------------------===
// Operations
//===----------------------------------------------------------------------===

enum class OpKind { Observe, Query, Extend, SpecQuery };

/// One request a client sent, with what came back: the unit both the
/// untraced pass (over the socket) and the traced replay execute.
struct Op {
  OpKind Kind = OpKind::Query;
  std::string Name; ///< History name (client-scoped).
  std::string App;
  uint64_t Seed = 0;
  IsolationLevel Level = IsolationLevel::ReadCommitted;
  Strategy Strat = Strategy::ExactStrict;
  std::string Delta; ///< Extend: the trace delta.
  // Untraced answer.
  bool Ok = false;
  std::string Error; ///< Error code, or why no response came.
  std::string AnsweredBy;
  SmtResult Result = SmtResult::Unknown;
  double Rtt = 0;
  std::optional<double> JobWall;
  // Traced answer.
  SmtResult Replayed = SmtResult::Unknown;
  double ReplayWall = 0;
};

std::string levelName(IsolationLevel L) {
  return L == IsolationLevel::Causal ? "causal" : "rc";
}

std::string strategyName(Strategy S) {
  switch (S) {
  case Strategy::ExactStrict:
    return "exact";
  case Strategy::ApproxStrict:
    return "strict";
  case Strategy::ApproxRelaxed:
    return "relaxed";
  }
  return "exact";
}

SmtResult resultOf(const std::string &Outcome) {
  return smtResultFromString(Outcome).value_or(SmtResult::Unknown);
}

std::string requestLine(const Op &O, uint64_t Id) {
  JsonWriter J(JsonWriter::Style::Compact);
  J.openObject();
  J.num("id", Id);
  switch (O.Kind) {
  case OpKind::Observe:
    J.str("verb", "observe");
    J.str("app", O.App);
    J.str("workload", Shape);
    J.num("seed", O.Seed);
    J.str("name", O.Name);
    break;
  case OpKind::Extend:
    J.str("verb", "extend");
    J.str("name", O.Name);
    J.str("trace", O.Delta);
    break;
  case OpKind::Query:
    J.str("verb", "query");
    J.str("history", O.Name);
    J.str("level", levelName(O.Level));
    J.str("strategy", strategyName(O.Strat));
    J.num("timeout_ms", static_cast<uint64_t>(WallBudgetMs));
    break;
  case OpKind::SpecQuery:
    J.str("verb", "query");
    J.openObjectIn("spec");
    J.str("app", O.App);
    J.str("workload", Shape);
    J.num("seed", O.Seed);
    J.str("level", levelName(O.Level));
    J.str("strategy", strategyName(O.Strat));
    J.num("timeout_ms", static_cast<uint64_t>(WallBudgetMs));
    J.closeObject();
    break;
  }
  J.closeObject();
  return J.take();
}

/// A serial continuation of \p H: \p N transactions, each repeating its
/// session's last transaction against the latest writes.
std::string continuationDelta(const History &H, unsigned N, uint64_t Salt) {
  std::map<KeyId, std::pair<TxnId, Value>> Latest;
  for (TxnId T = 1; T < H.numTxns(); ++T)
    for (const Event &E : H.txn(T).Events)
      if (E.Kind != EventKind::Read)
        Latest[E.Key] = {T, E.Val};
  std::string Out;
  TxnId NextId = static_cast<TxnId>(H.numTxns());
  Value Fresh = static_cast<Value>(1000000 + Salt % 1000000 * 16);
  for (unsigned I = 0; I < N; ++I) {
    SessionId S = static_cast<SessionId>(I % H.numSessions());
    const std::vector<TxnId> &Txns = H.sessionTxns(S);
    if (Txns.empty())
      continue;
    const Transaction &Tmpl = H.txn(Txns.back());
    Out += "txn " + std::to_string(S) + "\n";
    std::vector<std::pair<KeyId, Value>> Writes;
    for (const Event &E : Tmpl.Events) {
      const std::string &Key = H.keys().name(E.Key);
      if (E.Kind == EventKind::Read) {
        auto It = Latest.find(E.Key);
        TxnId W = It == Latest.end() ? E.Writer : It->second.first;
        Value V = It == Latest.end() ? E.Val : It->second.second;
        Out += "read " + Key + " " + std::to_string(W) + " " +
               std::to_string(V) + "\n";
      } else {
        Value V = Fresh++;
        Out += "write " + Key + " " + std::to_string(V) + "\n";
        Writes.emplace_back(E.Key, V);
      }
    }
    Out += "commit\n";
    for (const auto &[K, V] : Writes)
      Latest[K] = {NextId, V};
    ++NextId;
  }
  return Out;
}

/// The clients' shared walk over a fixed population: the executions of
/// the four applications × workload seeds 1..Seeds at Shape, each handed
/// out once. Heavier applications go first so the run ends on light
/// cycles; within an application the run's seed rotates the seed order.
class Walk {
public:
  Walk(uint64_t RunSeed, unsigned Seeds) : RunSeed(RunSeed), Seeds(Seeds) {}

  /// The next execution (application, workload seed), or std::nullopt
  /// once every execution was handed out.
  std::optional<std::pair<std::string, uint64_t>> next() {
    static const char *const ByWeight[] = {"tpcc", "smallbank", "wikipedia",
                                           "voter"};
    size_t I = Next++;
    if (I >= 4 * Seeds)
      return std::nullopt;
    return std::make_pair(std::string(ByWeight[I / Seeds]),
                          1 + (I % Seeds + RunSeed) % Seeds);
  }

private:
  uint64_t RunSeed;
  unsigned Seeds;
  std::atomic<size_t> Next{0};
};

/// A history query a client may re-issue while its name keeps the
/// content it was asked on.
struct Asked {
  std::string Name;
  unsigned Version = 0;
  IsolationLevel Level;
  Strategy Strat;
  SmtResult Result;
};

/// One client's closed loop over the socket.
class Client {
public:
  Client(unsigned Index, Walk &W, uint64_t Seed)
      : Index(Index), W(W), Seed(Seed) {}

  bool connectTo(unsigned Port) { return C.open(Port); }

  /// Observes every name once (part of set-up), on executions no cycle
  /// queries: the same for every seed.
  bool observeAll(RunOutcome &Out) {
    for (unsigned J = 0; J < NamesPerClient; ++J) {
      uint64_t ExecSeed = 1000 + Index * NamesPerClient + J;
      if (!observe(J, {Apps[(Index + J) % 4], ExecSeed}, Out))
        return false;
    }
    return true;
  }

  /// One cycle of the loop.
  void cycle(RunOutcome &Out) {
    unsigned Slot = Cycle % NamesPerClient;
    ++Cycle;
    std::optional<std::pair<std::string, uint64_t>> Exec = W.next();
    if (!Exec) {
      Done = true;
      return;
    }
    if (!observe(Slot, *Exec, Out))
      return;
    const std::string Name = nameOf(Slot);
    std::vector<Asked> Decided;
    for (IsolationLevel L :
         {IsolationLevel::ReadCommitted, IsolationLevel::Causal})
      for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                         Strategy::ApproxRelaxed})
        if (std::optional<SmtResult> R = query(Name, L, S, Out);
            R && *R != SmtResult::Unknown)
          Decided.push_back({Name, Version[Slot], L, S, *R});
    for (const Asked &A : Decided)
      reissue(A, Out);

    std::vector<Asked> Fresh;
    for (unsigned X = 0; X < ExtendsPerCycle; ++X) {
      Op E;
      E.Kind = OpKind::Extend;
      E.Name = Name;
      E.Delta =
          continuationDelta(Current[Slot], DeltaTxns, extendSeed(Slot));
      if (!run(E))
        return;
      if (std::optional<History> D = parseTraceDelta(Current[Slot], E.Delta))
        Current[Slot].append(*D);
      ++Version[Slot];
      ++Extends[Slot];
      Fresh.clear();
      if (std::optional<SmtResult> R =
              query(Name, IsolationLevel::ReadCommitted,
                    Strategy::ExactStrict, Out);
          R && *R != SmtResult::Unknown)
        Fresh.push_back({Name, Version[Slot], IsolationLevel::ReadCommitted,
                         Strategy::ExactStrict, *R});
    }

    Op Spec;
    Spec.Kind = OpKind::SpecQuery;
    std::tie(Spec.App, Spec.Seed) = *Exec;
    if (run(Spec) && Spec.Result != SmtResult::Unknown) {
      if (LastSpec)
        reissueSpec(*LastSpec, Out);
      LastSpec = Spec;
    }

    // Re-issue what the other names were asked after their extend.
    for (const Asked &A : Reissue)
      if (A.Name != Name && Version[slotOf(A.Name)] == A.Version)
        reissue(A, Out);
    Reissue.erase(std::remove_if(Reissue.begin(), Reissue.end(),
                                 [&](const Asked &A) { return A.Name == Name; }),
                  Reissue.end());
    Reissue.insert(Reissue.end(), Fresh.begin(), Fresh.end());
  }

  std::vector<Op> Log;
  /// The connection broke, or the walk is over.
  bool Broken = false;
  bool Done = false;

private:
  std::string nameOf(unsigned Slot) const {
    return "c" + std::to_string(Index) + "h" + std::to_string(Slot);
  }
  unsigned slotOf(const std::string &Name) const {
    return static_cast<unsigned>(Name.back() - '0');
  }

  bool observe(unsigned Slot, const std::pair<std::string, uint64_t> &Exec,
               RunOutcome &Out) {
    Op O;
    O.Kind = OpKind::Observe;
    O.Name = nameOf(Slot);
    std::tie(O.App, O.Seed) = Exec;
    std::optional<ServeResponse> R = runWith(O);
    if (!R)
      return false;
    std::optional<History> H = readTrace(R->Trace);
    if (!H) {
      Out.Chk.wrong("serve observe of " + O.Name + " returned an unreadable "
                    "trace");
      return false;
    }
    Current[Slot] = std::move(*H);
    ++Version[Slot];
    Observed[Slot] = {O.App, O.Seed};
    Extends[Slot] = 0;
    return true;
  }

  /// What \p Slot holds — execution and extends so far — in words that
  /// do not depend on which client or cycle served it.
  std::string contentOf(unsigned Slot) const {
    return Observed[Slot].first + "/" +
           std::to_string(Observed[Slot].second) + "+" +
           std::to_string(Extends[Slot]);
  }

  /// Seed of the next extend of \p Slot: a function of its content, so
  /// that the extended history, and the verdicts on it, repeat between
  /// runs whichever client serves the execution.
  uint64_t extendSeed(unsigned Slot) const {
    uint64_t App = std::find(std::begin(Apps), std::end(Apps),
                             Observed[Slot].first) -
                   std::begin(Apps);
    return mixSeed(mixSeed(Seed, Observed[Slot].second),
                   App * 8 + Extends[Slot]);
  }

  std::optional<SmtResult> query(const std::string &Name, IsolationLevel L,
                                 Strategy S, RunOutcome &Out) {
    Op Q;
    Q.Kind = OpKind::Query;
    Q.Name = Name;
    Q.Level = L;
    Q.Strat = S;
    if (!run(Q))
      return std::nullopt;
    std::string Key = contentOf(slotOf(Name)) + "/" + levelName(L);
    Out.Chk.noteVerdict("serve/" + Key, S, Q.Result);
    if (Q.Result != SmtResult::Unknown)
      Out.Repeat.note("serve/" + Key + "/" + strategyName(S) + "/verdict",
                      toString(Q.Result));
    return Q.Result;
  }

  /// Asks \p A again; the answer must match the first one.
  void reissue(const Asked &A, RunOutcome &Out) {
    std::optional<SmtResult> R = query(A.Name, A.Level, A.Strat, Out);
    if (R && *R != SmtResult::Unknown && *R != A.Result)
      Out.Chk.wrong("serve " + A.Name + " " + levelName(A.Level) + "/" +
                    strategyName(A.Strat) + ": re-issued query said " +
                    toString(*R) + ", first answer " + toString(A.Result));
  }

  void reissueSpec(Op Spec, RunOutcome &Out) {
    SmtResult First = Spec.Result;
    if (run(Spec) && Spec.Result != SmtResult::Unknown &&
        Spec.Result != First)
      Out.Chk.wrong("serve spec " + Spec.App + "/" +
                    std::to_string(Spec.Seed) + ": re-issued query said " +
                    toString(Spec.Result) + ", first answer " +
                    toString(First));
  }

  bool run(Op &O) { return runWith(O).has_value(); }

  std::optional<ServeResponse> runWith(Op &O) {
    std::string Line = requestLine(O, ++NextId);
    double T0 = nowSeconds();
    std::optional<std::string> Resp = C.roundTrip(Line);
    O.Rtt = nowSeconds() - T0;
    std::optional<ServeResponse> R;
    if (Resp)
      R = parseServeResponse(*Resp);
    else
      Broken = true;
    O.Ok = R && R->Ok;
    O.Error = !Resp ? "connection lost" : !R ? "unparsable response"
                                             : R->ErrorCode;
    if (R) {
      O.AnsweredBy = R->AnsweredBy;
      O.Result = resultOf(R->Outcome);
      O.JobWall = R->JobWallSeconds;
    }
    Log.push_back(O);
    if (!O.Ok)
      return std::nullopt;
    return R;
  }

  unsigned Index;
  Walk &W;
  uint64_t Seed;
  Connection C;
  uint64_t NextId = 0;
  unsigned Cycle = 0;
  History Current[NamesPerClient];
  unsigned Version[NamesPerClient] = {};
  std::pair<std::string, uint64_t> Observed[NamesPerClient];
  unsigned Extends[NamesPerClient] = {};
  std::vector<Asked> Reissue;
  std::optional<Op> LastSpec;
};

//===----------------------------------------------------------------------===
// Traced replay: the server's layers called directly
//===----------------------------------------------------------------------===

struct ReplayState {
  explicit ReplayState(const std::string &CacheDir)
      : Store(CacheDir), Pool(PoolCapacity) {}
  cache::ResultStore Store;
  server::SessionPool Pool;
  std::mutex Mutex; ///< Guards Histories.
  std::map<std::string, std::pair<std::shared_ptr<const History>, uint64_t>>
      Histories;
};

uint64_t contentHash(const History &H) {
  return std::hash<std::string>()(writeTrace(H));
}

void replayOp(Op &O, ReplayState &St, LayerTally &T, Checks &Chk) {
  double Start = nowSeconds();
  switch (O.Kind) {
  case OpKind::Observe: {
    std::unique_ptr<Application> App = makeApplication(O.App);
    WorkloadConfig Cfg{3, 4, O.Seed};
    double T0 = nowSeconds();
    DataStore::Options SO;
    SO.Mode = StoreMode::SerialObserved;
    SO.Level = IsolationLevel::Serializable;
    SO.Seed = O.Seed;
    DataStore DS(SO);
    RunResult Run = WorkloadRunner::run(*App, DS, Cfg);
    double T1 = nowSeconds();
    T.addObserve(T1 - T0, Run.Hist.numTxns() - 1);
    std::string Trace = writeTrace(Run.Hist);
    double T2 = nowSeconds();
    T.addLayer("history", T2 - T1);
    std::optional<History> Parsed = readTrace(Trace);
    T.addParse(nowSeconds() - T2);
    auto H = std::make_shared<const History>(std::move(*Parsed));
    uint64_t Hash = contentHash(*H);
    std::lock_guard<std::mutex> Lock(St.Mutex);
    St.Histories[O.Name] = {std::move(H), Hash};
    break;
  }
  case OpKind::Extend: {
    std::shared_ptr<const History> Old;
    uint64_t OldHash;
    {
      std::lock_guard<std::mutex> Lock(St.Mutex);
      std::tie(Old, OldHash) = St.Histories[O.Name];
    }
    double T0 = nowSeconds();
    std::optional<History> Delta = parseTraceDelta(*Old, O.Delta);
    double T1 = nowSeconds();
    T.addParse(T1 - T0);
    History Full = *Old;
    Full.append(*Delta);
    uint64_t Hash = contentHash(Full);
    T.addLayer("history", nowSeconds() - T1);
    std::unique_ptr<PredictSession> S =
        St.Pool.acquire(server::SessionPool::key("replay", OldHash, false));
    if (S && S->streaming() && S->observed().numTxns() == Old->numTxns()) {
      double T2 = nowSeconds();
      PredictSession::ExtendStats ES = S->extend(*Delta);
      T.addExtend(ES, nowSeconds() - T2);
      St.Pool.release(server::SessionPool::key("replay", Hash, false),
                      std::move(S));
    }
    std::lock_guard<std::mutex> Lock(St.Mutex);
    St.Histories[O.Name] = {std::make_shared<const History>(std::move(Full)),
                            Hash};
    break;
  }
  case OpKind::Query: {
    std::shared_ptr<const History> H;
    uint64_t Hash;
    {
      std::lock_guard<std::mutex> Lock(St.Mutex);
      std::tie(H, Hash) = St.Histories[O.Name];
    }
    // The server's scoped identity of a history query: the content hash
    // rides in the application name (a 64-bit seed would not survive the
    // entry's JSON round trip).
    engine::JobSpec Spec;
    Spec.App = formatString("@replay/%016llx",
                            static_cast<unsigned long long>(Hash));
    Spec.Cfg.Sessions = static_cast<unsigned>(H->numSessions());
    Spec.Cfg.Seed = 0;
    Spec.Level = O.Level;
    Spec.Strat = O.Strat;
    Spec.TimeoutMs = WallBudgetMs;
    Spec.Validate = false;
    double T0 = nowSeconds();
    std::optional<engine::JobResult> Hit =
        St.Store.lookup(Spec, cache::EncodingMode::Session);
    T.addCacheLookup(Hit.has_value(), nowSeconds() - T0);
    if (Hit) {
      O.Replayed = Hit->Outcome;
      break;
    }
    std::string Key = server::SessionPool::key("replay", Hash, false);
    double T1 = nowSeconds();
    std::unique_ptr<PredictSession> S = St.Pool.acquire(Key);
    T.addLayer("server", nowSeconds() - T1);
    if (!S) {
      PredictSession::Options SO;
      SO.Streaming = true;
      double T2 = nowSeconds();
      S = std::make_unique<PredictSession>(*H, SO);
      double T3 = nowSeconds();
      T.addLayer("predict", T3 - T2);
      S->ensureBase();
      T.addBase(nowSeconds() - T3, S->baseLiterals());
    }
    PredictSession::QueryOptions Q;
    Q.Level = O.Level;
    Q.Strat = O.Strat;
    Q.TimeoutMs = WallBudgetMs;
    double T4 = nowSeconds();
    Prediction P = S->query(Q);
    double T5 = nowSeconds();
    T.addQuery(P, T5 - T4);
    if (P.Result == SmtResult::Sat)
      Chk.queuePrediction("serve " + O.Name + " " + levelName(O.Level) + "/" +
                              strategyName(O.Strat),
                          P.Predicted, O.Level);
    St.Pool.release(Key, std::move(S));
    T.addLayer("server", nowSeconds() - T5);
    O.Replayed = P.Result;
    engine::JobResult R;
    R.Spec = Spec;
    R.Ok = true;
    R.Outcome = P.Result;
    R.Stats = P.Stats;
    R.TimedOut = P.TimedOut;
    R.SolverStats = P.SolverStats;
    if (cache::cacheable(R)) {
      double T6 = nowSeconds();
      St.Store.store(R, cache::EncodingMode::Session);
      T.addCacheStore(nowSeconds() - T6);
    }
    break;
  }
  case OpKind::SpecQuery: {
    engine::JobSpec Spec;
    Spec.App = O.App;
    Spec.Cfg = WorkloadConfig{3, 4, O.Seed};
    Spec.Level = O.Level;
    Spec.Strat = O.Strat;
    Spec.TimeoutMs = WallBudgetMs;
    double T0 = nowSeconds();
    std::optional<engine::JobResult> Hit = St.Store.lookup(Spec);
    T.addCacheLookup(Hit.has_value(), nowSeconds() - T0);
    if (Hit) {
      O.Replayed = Hit->Outcome;
      break;
    }
    DirectJob D = runDirectPredict(Spec, T);
    if (D.P.Result == SmtResult::Sat)
      Chk.queuePrediction("serve spec " + specLabel(Spec), D.P.Predicted,
                          Spec.Level);
    O.Replayed = D.P.Result;
    engine::JobResult R;
    R.Spec = Spec;
    R.Ok = true;
    R.Outcome = D.P.Result;
    R.Stats = D.P.Stats;
    R.TimedOut = D.P.TimedOut;
    R.ValStatus = D.Val;
    if (cache::cacheable(R)) {
      double T2 = nowSeconds();
      St.Store.store(R);
      T.addCacheStore(nowSeconds() - T2);
    }
    break;
  }
  }
  O.ReplayWall = nowSeconds() - Start;
}

//===----------------------------------------------------------------------===
// The run
//===----------------------------------------------------------------------===

/// Starts a server and observes every client's names; returns the
/// seconds that took, or a negative value on failure.
double setUp(const RunConfig &Cfg, Walk &W, const std::string &Tag,
             ServerProcess &S, std::vector<std::unique_ptr<Client>> &Clients,
             RunOutcome &Out) {
  double T0 = nowSeconds();
  if (!S.start(Cfg, Tag))
    return -1;
  Clients.clear();
  for (unsigned I = 0; I < Cfg.Threads; ++I) {
    Clients.push_back(
        std::make_unique<Client>(I, W, Cfg.Seed));
    if (!Clients.back()->connectTo(S.port()))
      return -1;
  }
  bool Ok = true;
  std::vector<std::thread> Th;
  std::mutex M;
  for (auto &C : Clients)
    Th.emplace_back([&, Cl = C.get()] {
      if (!Cl->observeAll(Out)) {
        std::lock_guard<std::mutex> Lock(M);
        Ok = false;
      }
    });
  for (std::thread &T : Th)
    T.join();
  return Ok ? nowSeconds() - T0 : -1;
}

} // namespace

void perfbench::runServe(const RunConfig &Cfg, RunOutcome &Out) {
  // Traced: one round over half the walk through the server, then the
  // same requests layer by layer.
  unsigned NumRounds = Cfg.Trace ? 1 : Rounds;
  unsigned Seeds = std::max(
      1u, static_cast<unsigned>(std::lround(
              (Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds / NumRounds) *
              ExecutionsPerSecond / 4)));
  std::unique_ptr<Walk> W;
  std::vector<double> Setups;
  ServerProcess Server;
  std::vector<std::unique_ptr<Client>> Clients;
  // A fresh server with every client's names observed, on a fresh walk.
  auto StartServer = [&] {
    Clients.clear();
    Server.stop();
    W = std::make_unique<Walk>(Cfg.Seed, Seeds);
    double S = setUp(Cfg, *W, std::to_string(getpid()), Server, Clients, Out);
    if (S < 0)
      return false;
    Setups.push_back(S);
    for (auto &C : Clients)
      C->Log.clear(); // Set-up requests are not measured.
    return true;
  };

  // Latencies, shares and path times pool the rounds; throughput, query
  // percentiles and peak RSS are the median round's.
  Samples CachedS, Extend, Overhead;
  std::map<std::string, Samples> Path;
  std::map<std::string, unsigned> Errors;
  uint64_t Ops = 0, Failed = 0, Queries = 0, Decided = 0, Warm = 0, Cold = 0;
  uint64_t RssUnread = 0;
  double UntracedBusy = 0;
  std::vector<double> Throughput, QueryP50, QueryP90, Rss;
  size_t QuerySamples = 0;
  for (unsigned R = 0; R < NumRounds; ++R) {
    bool Started = true;
    for (unsigned I = 0; Started && I < SetupsPerRound; ++I)
      Started = StartServer();
    if (!Started) {
      Out.Chk.wrong("serve: the server failed to start or to observe");
      ++Failed;
      ++Ops;
      continue;
    }
    double Start = nowSeconds();
    std::vector<std::thread> Th;
    for (auto &C : Clients)
      Th.emplace_back([&, Cl = C.get()] {
        while (!Cl->Broken && !Cl->Done)
          Cl->cycle(Out);
      });
    for (std::thread &T : Th)
      T.join();
    double Wall = nowSeconds() - Start;
    if (std::optional<double> ServerRss = peakRssMbOf(Server.pid()))
      Rss.push_back(*ServerRss);
    else
      ++RssUnread;

    Samples Query;
    uint64_t RoundOps = 0, RoundFailed = 0;
    for (auto &C : Clients)
      for (const Op &O : C->Log) {
        ++RoundOps;
        UntracedBusy += O.Rtt;
        bool IsQuery = O.Kind == OpKind::Query || O.Kind == OpKind::SpecQuery;
        if (!O.Ok) {
          ++RoundFailed;
          ++Errors[O.Error];
          Query.addMiss();
          CachedS.addMiss();
          Extend.addMiss();
          Queries += IsQuery;
          continue;
        }
        if (O.Kind == OpKind::Extend)
          Extend.add(O.Rtt);
        if (!IsQuery)
          continue;
        ++Queries;
        Decided += O.Result != SmtResult::Unknown;
        Path[O.AnsweredBy].add(O.Rtt);
        Warm += O.AnsweredBy == "warm_session";
        Cold += O.AnsweredBy == "session";
        if (O.AnsweredBy == "cache") {
          CachedS.add(O.Rtt);
        } else {
          Query.add(O.Rtt);
          if (O.JobWall)
            Overhead.add(O.Rtt - *O.JobWall);
        }
      }
    Ops += RoundOps;
    Failed += RoundFailed;
    Throughput.push_back(static_cast<double>(RoundOps - RoundFailed) / Wall);
    QuerySamples = Query.size();
    // An undefined percentile (too few samples) leaves its metric n/a.
    if (std::optional<double> P = Query.percentile(0.5))
      QueryP50.push_back(*P);
    if (std::optional<double> P = Query.percentile(0.9))
      QueryP90.push_back(*P);
  }
  // An unreadable server peak RSS (the server has exited) fails the
  // probe as one more operation.
  Out.Attempted = Ops + RssUnread;
  Out.Failed = Failed + RssUnread;
  for (const auto &[Code, N] : Errors)
    Out.Notes.push_back("serve: " + std::to_string(N) + " request(s) failed: " +
                        Code);
  Ledger &L = Out.L;
  if (Setups.empty())
    L.na("setup_s", "s", "the server never started");
  else
    L.set("setup_s", "s", median(Setups),
          "median of " + std::to_string(Setups.size()) +
              " server starts with the initial observes");
  std::string Rounded = "median of " + std::to_string(NumRounds) + " round(s)";
  L.set("ops_per_s", "1/s", median(Throughput),
        Rounded + "; " + std::to_string(Ops - Failed) + " responses in all, " +
            std::to_string(Cfg.Threads) + " closed-loop clients");
  auto SetRoundMedian = [&](const char *Name, std::vector<double> &Values,
                            double P) {
    if (Values.size() == NumRounds)
      L.set(Name, "s", median(Values),
            Rounded + ", n=" + std::to_string(QuerySamples) + " each");
    else
      L.na(Name, "s",
           "fewer than 10 samples beyond p" +
               std::to_string(static_cast<int>(P * 100 + 0.5)) +
               " in a round (n=" + std::to_string(QuerySamples) + ")");
  };
  SetRoundMedian("query_p50_s", QueryP50, 0.5);
  SetRoundMedian("query_p90_s", QueryP90, 0.9);
  L.setPercentile("cached_p50_ms", "ms", CachedS, 0.5, 1000);
  L.setPercentile("cached_p90_ms", "ms", CachedS, 0.9, 1000);
  L.setPercentile("extend_p50_ms", "ms", Extend, 0.5, 1000);
  L.setShare("decided_share", static_cast<double>(Decided),
             static_cast<double>(Queries));
  L.na("validated_share", "ratio",
       "serve responses carry no replay of history queries");
  L.setShare("failed_share", static_cast<double>(Failed),
             static_cast<double>(Ops));
  if (!RssUnread && !Rss.empty())
    L.set("peak_rss_mb", "MB", median(Rss),
          "server process VmHWM, " + Rounded);
  else
    L.na("peak_rss_mb", "MB", "server process VmHWM unreadable: it exited");

  L.setPercentile("server.overhead_ms", "ms", Overhead, 0.5, 1000);
  L.setShare("server.session_hit_share", static_cast<double>(Warm),
             static_cast<double>(Warm + Cold));
  for (const char *By : {"cache", "warm_session", "session", "engine"})
    L.setPercentile(std::string("server.path_p50_ms.") + By, "ms", Path[By],
                    0.5, 1000);

  if (Cfg.Trace) {
    LayerTally T;
    std::string Dir = Cfg.StateDir + "/serve-replay-" + std::to_string(getpid());
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
    std::optional<ReplayState> St(std::in_place, Dir);
    std::vector<std::thread> Rt;
    for (auto &C : Clients)
      Rt.emplace_back([&, Cl = C.get()] {
        for (Op &O : Cl->Log) {
          if (!O.Ok)
            continue;
          replayOp(O, *St, T, Out.Chk);
          T.addOp(O.ReplayWall);
        }
      });
    for (std::thread &R : Rt)
      R.join();
    double TracedBusy = 0, Matched = 0;
    for (auto &C : Clients)
      for (const Op &O : C->Log) {
        if (!O.Ok)
          continue;
        TracedBusy += O.ReplayWall;
        Matched += O.Rtt;
        if (O.Kind == OpKind::Query || O.Kind == OpKind::SpecQuery)
          Out.Chk.crossCheck("serve " + O.Name + O.App + " " +
                                 levelName(O.Level) + "/" +
                                 strategyName(O.Strat),
                             O.Result, O.Replayed);
      }
    T.report(L);
    if (std::optional<double> U = T.split().unattributedShare())
      L.set("bench.unattributed_share", "ratio", *U);
    if (std::optional<double> R = share(TracedBusy, Matched))
      L.set("bench.trace_overhead_share", "ratio", *R - 1,
            "direct layer calls vs server round trips, same requests");
    St.reset();
    std::filesystem::remove_all(Dir, Ec);
  }
  Out.Chk.checkImplications();
  Clients.clear();
  Server.stop();
}
