//===- Server.cpp - Multi-tenant prediction-as-a-service daemon -----------===//

#include "server/Server.h"

#include "engine/Campaign.h"
#include "engine/Engine.h"
#include "engine/JobIo.h"
#include "history/TraceIO.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Prometheus.h"
#include "obs/Tracer.h"
#include "smt/Smt.h"
#include "store/Store.h"
#include "support/Fs.h"
#include "support/Signal.h"
#include "support/StrUtil.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace isopredict;
using namespace isopredict::server;
using engine::JobResult;
using engine::JobSpec;

namespace {

unsigned resolveWorkers(unsigned Requested) {
  if (Requested)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

obs::Counter &requestsCounter() {
  static obs::Counter &C = obs::Metrics::global().counter("server.requests");
  return C;
}

obs::Counter &errorsCounter() {
  static obs::Counter &C = obs::Metrics::global().counter("server.errors");
  return C;
}

/// Fills the workload-shape counters of a history-query result from the
/// uploaded history itself (there is no RunResult — the server never
/// re-executed the workload).
void fillHistoryStats(JobResult &R, const History &H) {
  R.CommittedTxns = static_cast<unsigned>(H.numTxns() - 1);
  for (TxnId Id = 1; Id < H.numTxns(); ++Id) {
    bool Wrote = false;
    for (const Event &E : H.txn(Id).Events) {
      if (E.Kind == EventKind::Read)
        ++R.Reads;
      else {
        ++R.Writes;
        Wrote = true;
      }
    }
    R.ReadOnlyTxns += !Wrote;
  }
}

} // namespace

//===----------------------------------------------------------------------===
// Connection
//===----------------------------------------------------------------------===

Server::Conn::~Conn() {
  if (Fd >= 0)
    ::close(Fd);
}

void Server::Conn::send(const std::string &Line) {
  if (Closed.load(std::memory_order_acquire))
    return;
  std::lock_guard<std::mutex> Lock(WriteMutex);
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N = ::write(Fd, Line.data() + Off, Line.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      // Client went away; late job completions become no-ops.
      Closed.store(true, std::memory_order_release);
      return;
    }
    Off += static_cast<size_t>(N);
  }
}

//===----------------------------------------------------------------------===
// Lifecycle
//===----------------------------------------------------------------------===

Server::Server(ServerOptions O, TenantRegistry R)
    : Opts(std::move(O)), Registry(std::move(R)),
      Pool(std::max(1u, resolveWorkers(Opts.Workers))),
      Sessions(Opts.SessionCapacity) {
  if (!Opts.CacheDir.empty())
    Store.emplace(Opts.CacheDir);
}

Server::~Server() { drainAndClose(); }

bool Server::start(std::string *Error) {
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    if (Error)
      *Error = formatString("socket: %s", std::strerror(errno));
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Opts.Port));
  if (::inet_pton(AF_INET, Opts.Host.c_str(), &Addr.sin_addr) != 1) {
    if (Error)
      *Error = "invalid listen address '" + Opts.Host + "'";
    return false;
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
          0 ||
      ::listen(ListenFd, 64) != 0) {
    if (Error)
      *Error = formatString("bind/listen on %s:%u: %s", Opts.Host.c_str(),
                            Opts.Port, std::strerror(errno));
    return false;
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    BoundPort = ntohs(Addr.sin_port);
  Uptime.reset();
  return true;
}

void Server::requestStop() {
  // No StopSignal::request() here: that flag is process-global and
  // sticky, and would stop every later Server in this process (tests
  // run several). The accept loop's 200ms poll timeout bounds the
  // wake-up latency instead.
  Stopping.store(true, std::memory_order_release);
}

void Server::serve() {
  StopSignal::install();
  static obs::Counter &Connections =
      obs::Metrics::global().counter("server.connections");
  static obs::Gauge &Active =
      obs::Metrics::global().gauge("server.active_connections");

  if (!Opts.TraceDir.empty()) {
    std::string Error;
    if (!createDirectories(Opts.TraceDir, &Error)) {
      obs::Log::global().error(
          "trace.dir_failed", {{"dir", Opts.TraceDir}, {"error", Error}});
    } else {
      // Ring mode bounds memory for the life of the process; the
      // flusher thread rotates Chrome trace files out of the ring.
      obs::Tracer::global().setRingCapacity(
          Opts.TraceRingCapacity ? Opts.TraceRingCapacity : 16384);
      obs::Tracer::global().enable();
      TraceFlusher = std::thread([this] { traceFlushLoop(); });
    }
  }

  while (!Stopping.load(std::memory_order_acquire)) {
    pollfd P[2];
    P[0].fd = ListenFd;
    P[0].events = POLLIN;
    P[0].revents = 0;
    nfds_t N = 1;
    if (StopSignal::fd() >= 0) {
      P[1].fd = StopSignal::fd();
      P[1].events = POLLIN;
      P[1].revents = 0;
      N = 2;
    }
    int Ready = ::poll(P, N, 200);
    if (StopSignal::requested() || Stopping.load(std::memory_order_acquire))
      break;
    if (Ready <= 0 || !(P[0].revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    C->T.store(Registry.defaultTenant(), std::memory_order_release);
    Connections.inc();
    Active.add(1);
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Conns.push_back(C);
    Readers.emplace_back([this, C] { connectionLoop(C); });
  }
  Stopping.store(true, std::memory_order_release);
  drainAndClose();
}

void Server::drainAndClose() {
  Stopping.store(true, std::memory_order_release);
  if (TraceFlusher.joinable()) {
    FlushCv.notify_all();
    TraceFlusher.join();
    // Leave the global tracer as we found it — tests and batch
    // --trace-out runs share the process-global sink.
    obs::Tracer::global().disable();
    obs::Tracer::global().setRingCapacity(0);
  }
  // Two rounds close the race where a job completing during the first
  // flush promotes a queued query we have already walked past.
  for (int Round = 0; Round < 2; ++Round) {
    std::vector<QueryJob> Flushed;
    {
      std::lock_guard<std::mutex> Lock(PendingMutex);
      for (auto &Entry : Pending) {
        for (QueryJob &J : Entry.second)
          Flushed.push_back(std::move(J));
        Entry.second.clear();
      }
    }
    for (QueryJob &J : Flushed) {
      J.T->dropQueued();
      J.C->send(errorResponse(J.Req, errc::ShuttingDown,
                              "server is draining; resubmit elsewhere"));
    }
    // In-flight checks come back as canceled unknowns; every started
    // job still writes its response.
    SmtSolver::interruptAll();
    Pool.drain();
  }
  Pool.shutdown();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (auto &W : Conns)
      if (std::shared_ptr<Conn> C = W.lock())
        ::shutdown(C->Fd, SHUT_RDWR); // Unblocks the reader thread.
  }
  for (std::thread &T : Readers)
    if (T.joinable())
      T.join();
  Readers.clear();
  Sessions.clear();
}

//===----------------------------------------------------------------------===
// Request handling (reader threads)
//===----------------------------------------------------------------------===

void Server::connectionLoop(std::shared_ptr<Conn> C) {
  static obs::Gauge &Active =
      obs::Metrics::global().gauge("server.active_connections");
  std::string Buf;
  char Chunk[64 * 1024];
  bool Discarding = false;
  for (;;) {
    ssize_t N = ::read(C->Fd, Chunk, sizeof(Chunk));
    if (N == 0)
      break;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Buf.append(Chunk, static_cast<size_t>(N));
    size_t Start = 0;
    for (size_t Nl; (Nl = Buf.find('\n', Start)) != std::string::npos;
         Start = Nl + 1) {
      if (Discarding) { // Tail of an oversized frame: swallow it.
        Discarding = false;
        continue;
      }
      std::string Line = Buf.substr(Start, Nl - Start);
      if (trimString(Line).empty())
        continue;
      requestsCounter().inc();
      std::string Error;
      std::optional<Request> Req = parseRequest(Line, &Error);
      if (!Req) {
        errorsCounter().inc();
        C->send(errorResponseNoId(errc::BadRequest, Error));
        continue;
      }
      handleRequest(C, std::move(*Req));
    }
    Buf.erase(0, Start);
    if (Buf.size() > MaxRequestBytes) {
      if (!Discarding) {
        errorsCounter().inc();
        C->send(errorResponseNoId(
            errc::TooLarge,
            formatString("request frame exceeds %zu bytes",
                         MaxRequestBytes)));
        Discarding = true;
      }
      Buf.clear();
    }
  }
  C->Closed.store(true, std::memory_order_release);
  Active.add(-1);
}

void Server::handleRequest(const std::shared_ptr<Conn> &C, Request Req) {
  obs::Span Span("server.request", obs::CatServer);
  Span.arg("verb", Req.Verb);
  static obs::Histogram &ReqSeconds =
      obs::Metrics::global().histogram("server.request_seconds");
  static obs::CounterFamily &Requests = obs::Metrics::global().counterFamily(
      "server.requests", {"tenant", "verb", "outcome"});
  std::string Verb = Req.Verb; // Survives the moves below.
  bool Ok = true;

  if (Req.Verb == "ping") {
    JsonWriter J(JsonWriter::Style::Compact);
    beginResponse(J, Req, true);
    J.closeObject();
    C->send(J.take());
  } else if (Req.Verb == "auth") {
    Ok = handleAuth(C, Req);
  } else if (Req.Verb == "status") {
    C->send(statusJson(Req));
  } else if (Req.Verb == "metrics") {
    C->send(metricsJson(Req));
  } else if (Req.Verb == "upload" || Req.Verb == "observe" ||
             Req.Verb == "extend" || Req.Verb == "query" ||
             Req.Verb == "shutdown") {
    Tenant *T = C->T.load(std::memory_order_acquire);
    if (!T) {
      Ok = false;
      errorsCounter().inc();
      C->send(errorResponse(Req, errc::AuthRequired,
                            "authenticate first (auth verb)"));
    } else if (Req.Verb == "upload") {
      Ok = handleUpload(C, Req, *T);
    } else if (Req.Verb == "observe") {
      Ok = handleObserve(C, Req, *T);
    } else if (Req.Verb == "extend") {
      Ok = handleExtend(C, Req, *T);
    } else if (Req.Verb == "query") {
      Ok = handleQuery(C, std::move(Req), *T);
    } else if (!T->config().Admin) {
      Ok = false;
      errorsCounter().inc();
      C->send(errorResponse(Req, errc::NotAuthorized,
                            "shutdown requires an admin tenant"));
    } else {
      JsonWriter J(JsonWriter::Style::Compact);
      beginResponse(J, Req, true);
      J.boolean("draining", true);
      J.closeObject();
      C->send(J.take());
      obs::Log::global().info("server.shutdown",
                              {{"tenant", T->name()}});
      requestStop();
    }
  } else {
    Ok = false;
    errorsCounter().inc();
    C->send(errorResponse(Req, errc::UnknownVerb,
                          "unknown verb '" + Req.Verb + "'"));
    // Client-chosen strings must not mint label values (unbounded
    // cardinality); every unknown verb shares one cell and no ring.
    Verb = "other";
  }

  Tenant *T = C->T.load(std::memory_order_acquire);
  Requests.at({T ? T->name() : "-", Verb, Ok ? "ok" : "error"}).inc();
  Span.finish();
  double Secs = Span.seconds();
  ReqSeconds.observe(Secs);
  if (Verb != "other")
    latencyRing(VerbLatency, Verb).observe(Secs);
}

bool Server::handleAuth(const std::shared_ptr<Conn> &C, const Request &Req) {
  const JsonValue *Name = Req.Body.field("tenant");
  if (!Name || Name->K != JsonValue::Kind::String || Name->Text.empty()) {
    errorsCounter().inc();
    C->send(errorResponse(Req, errc::BadRequest,
                          "auth needs a string field \"tenant\""));
    return false;
  }
  const JsonValue *Key = Req.Body.field("api_key");
  Tenant *T = Registry.authenticate(
      Name->Text,
      Key && Key->K == JsonValue::Kind::String ? Key->Text : std::string());
  if (!T) {
    errorsCounter().inc();
    C->send(errorResponse(Req, errc::AuthFailed,
                          "unknown tenant or wrong api key"));
    return false;
  }
  C->T.store(T, std::memory_order_release);
  JsonWriter J(JsonWriter::Style::Compact);
  beginResponse(J, Req, true);
  J.str("tenant", T->name());
  J.str("app_id", T->config().AppId);
  J.boolean("admin", T->config().Admin);
  J.closeObject();
  C->send(J.take());
  return true;
}

bool Server::handleUpload(const std::shared_ptr<Conn> &C, const Request &Req,
                          Tenant &T) {
  const JsonValue *Name = Req.Body.field("name");
  const JsonValue *Trace = Req.Body.field("trace");
  if (!Name || Name->K != JsonValue::Kind::String || Name->Text.empty() ||
      !Trace || Trace->K != JsonValue::Kind::String) {
    errorsCounter().inc();
    C->send(errorResponse(Req, errc::BadRequest,
                          "upload needs string fields \"name\" and "
                          "\"trace\""));
    return false;
  }
  std::string Error;
  std::optional<History> H = readTrace(Trace->Text, &Error);
  if (!H) {
    errorsCounter().inc();
    C->send(errorResponse(Req, errc::BadRequest, "trace: " + Error));
    return false;
  }
  size_t Txns = H->numTxns() - 1, NumSessions = H->numSessions();
  if (!T.putHistory(Name->Text, std::move(*H))) {
    errorsCounter().inc();
    C->send(errorResponse(
        Req, errc::QuotaExceeded,
        formatString("history quota of %u reached; re-upload under an "
                     "existing name to replace it",
                     T.config().MaxHistories)));
    return false;
  }
  std::optional<StoredHistory> Stored = T.getHistory(Name->Text);
  JsonWriter J(JsonWriter::Style::Compact);
  beginResponse(J, Req, true);
  J.str("name", Name->Text);
  J.num("sessions", static_cast<uint64_t>(NumSessions));
  J.num("txns", static_cast<uint64_t>(Txns));
  if (Stored)
    J.str("content_hash",
          formatString("%016llx",
                       static_cast<unsigned long long>(Stored->ContentHash)));
  J.closeObject();
  C->send(J.take());
  return true;
}

bool Server::handleObserve(const std::shared_ptr<Conn> &C, const Request &Req,
                           Tenant &T) {
  std::string Error;
  std::optional<JobSpec> S = parseQuerySpec(Req.Body, &Error);
  if (!S) {
    errorsCounter().inc();
    C->send(errorResponse(Req, errc::BadRequest, Error));
    return false;
  }
  auto App = makeApplication(S->App);
  if (!App) {
    errorsCounter().inc();
    C->send(errorResponse(Req, errc::UnknownApplication,
                          "unknown application '" + S->App + "'"));
    return false;
  }
  obs::Span Span("server.observe", obs::CatServer);
  Span.arg("app", S->App);
  DataStore::Options SO;
  SO.Mode = StoreMode::SerialObserved;
  SO.Level = IsolationLevel::Serializable;
  SO.Seed = S->Cfg.Seed;
  DataStore DS(SO);
  RunResult Run = WorkloadRunner::run(*App, DS, S->Cfg);

  const JsonValue *Name = Req.Body.field("name");
  std::optional<StoredHistory> Stored;
  if (Name && Name->K == JsonValue::Kind::String && !Name->Text.empty()) {
    History Copy = Run.Hist;
    if (!T.putHistory(Name->Text, std::move(Copy))) {
      errorsCounter().inc();
      C->send(errorResponse(
          Req, errc::QuotaExceeded,
          formatString("history quota of %u reached",
                       T.config().MaxHistories)));
      return false;
    }
    Stored = T.getHistory(Name->Text);
  }

  JsonWriter J(JsonWriter::Style::Compact);
  beginResponse(J, Req, true);
  J.str("app", S->App);
  J.str("workload", engine::workloadLabel(S->Cfg));
  J.num("seed", S->Cfg.Seed);
  J.num("sessions", static_cast<uint64_t>(Run.Hist.numSessions()));
  J.num("txns", static_cast<uint64_t>(Run.Hist.numTxns() - 1));
  if (Stored) {
    J.str("name", Name->Text);
    J.str("content_hash",
          formatString("%016llx",
                       static_cast<unsigned long long>(Stored->ContentHash)));
  }
  J.str("trace", writeTrace(Run.Hist));
  J.closeObject();
  C->send(J.take());
  return true;
}

bool Server::handleExtend(const std::shared_ptr<Conn> &C, const Request &Req,
                          Tenant &T) {
  static obs::Counter &Extends =
      obs::Metrics::global().counter("server.extends");
  static obs::Counter &InPlace =
      obs::Metrics::global().counter("server.extends_in_place");
  const JsonValue *Name = Req.Body.field("name");
  const JsonValue *Trace = Req.Body.field("trace");
  if (!Name || Name->K != JsonValue::Kind::String || Name->Text.empty() ||
      !Trace || Trace->K != JsonValue::Kind::String) {
    errorsCounter().inc();
    C->send(errorResponse(Req, errc::BadRequest,
                          "extend needs string fields \"name\" and "
                          "\"trace\""));
    return false;
  }
  std::optional<StoredHistory> Old = T.getHistory(Name->Text);
  if (!Old) {
    errorsCounter().inc();
    C->send(errorResponse(Req, errc::UnknownHistory,
                          "no history named '" + Name->Text +
                              "' (upload or observe it first)"));
    return false;
  }
  std::string Error;
  std::optional<History> Delta = parseTraceDelta(*Old->H, Trace->Text, &Error);
  if (!Delta) {
    errorsCounter().inc();
    C->send(errorResponse(Req, errc::BadRequest, "delta: " + Error));
    return false;
  }
  size_t DeltaTxns = Delta->Txns.size() - 1; // [0] is the t0 sentinel
  History Full = *Old->H;
  Full.append(*Delta);
  size_t Txns = Full.numTxns() - 1, NumSessions = Full.numSessions();
  // Replacing an existing name never trips the history quota.
  T.putHistory(Name->Text, std::move(Full));
  std::optional<StoredHistory> Stored = T.getHistory(Name->Text);

  // Re-home warm sessions: a pooled session keyed under the old content
  // hash is grown in place — its encoded base keeps amortizing across
  // the extended trace — and released under the new hash. A session a
  // concurrent query holds right now is simply missed here; it comes
  // back under the old key as an unreachable stray and ages out of the
  // LRU. Non-streaming strays (pooled before this server version) are
  // discarded the same way.
  unsigned ExtendedInPlace = 0;
  if (Stored) {
    for (bool Prune : {false, true}) {
      std::unique_ptr<PredictSession> Sess = Sessions.acquire(
          SessionPool::key(T.config().AppId, Old->ContentHash, Prune));
      if (!Sess)
        continue;
      if (!Sess->streaming() ||
          Sess->observed().numTxns() != Old->H->numTxns())
        continue;
      Sess->extend(*Delta);
      Sessions.release(
          SessionPool::key(T.config().AppId, Stored->ContentHash, Prune),
          std::move(Sess));
      ++ExtendedInPlace;
    }
  }
  Extends.inc();
  InPlace.inc(ExtendedInPlace);
  obs::Log::global().info(
      "server.extend",
      {{"tenant", T.name()},
       {"name", Name->Text},
       {"delta_txns", std::to_string(DeltaTxns)},
       {"txns", std::to_string(Txns)},
       {"extended_sessions", std::to_string(ExtendedInPlace)}});

  JsonWriter J(JsonWriter::Style::Compact);
  beginResponse(J, Req, true);
  J.str("name", Name->Text);
  J.num("sessions", static_cast<uint64_t>(NumSessions));
  J.num("txns", static_cast<uint64_t>(Txns));
  J.num("delta_txns", static_cast<uint64_t>(DeltaTxns));
  if (Stored)
    J.str("content_hash",
          formatString("%016llx",
                       static_cast<unsigned long long>(Stored->ContentHash)));
  J.num("extended_sessions", static_cast<uint64_t>(ExtendedInPlace));
  J.closeObject();
  C->send(J.take());
  return true;
}

//===----------------------------------------------------------------------===
// Queries (quota, pool dispatch, execution)
//===----------------------------------------------------------------------===

bool Server::handleQuery(const std::shared_ptr<Conn> &C, Request Req,
                         Tenant &T) {
  static obs::Counter &Queries =
      obs::Metrics::global().counter("server.queries");
  static obs::Counter &QuotaRejections =
      obs::Metrics::global().counter("server.quota_rejections");
  if (Stopping.load(std::memory_order_acquire)) {
    C->send(errorResponse(Req, errc::ShuttingDown, "server is draining"));
    return false;
  }
  Queries.inc();

  QueryJob Job;
  Job.C = C;
  Job.T = &T;
  std::string Error;
  if (const JsonValue *Spec = Req.Body.field("spec")) {
    std::optional<JobSpec> S = parseQuerySpec(*Spec, &Error);
    if (!S) {
      errorsCounter().inc();
      C->send(errorResponse(Req, errc::BadRequest, Error));
      return false;
    }
    if (!makeApplication(S->App)) {
      errorsCounter().inc();
      C->send(errorResponse(Req, errc::UnknownApplication,
                            "unknown application '" + S->App + "'"));
      return false;
    }
    Job.Spec = *S;
    Job.CacheSpec = scopedSpec(T, *S);
  } else if (const JsonValue *HName = Req.Body.field("history")) {
    if (HName->K != JsonValue::Kind::String) {
      errorsCounter().inc();
      C->send(errorResponse(Req, errc::BadRequest,
                            "field \"history\" must be a string"));
      return false;
    }
    std::optional<StoredHistory> SH = T.getHistory(HName->Text);
    if (!SH) {
      errorsCounter().inc();
      C->send(errorResponse(Req, errc::UnknownHistory,
                            "no history named '" + HName->Text +
                                "' (upload or observe it first)"));
      return false;
    }
    JobSpec S;
    S.Kind = engine::JobKind::Predict;
    S.App = "@" + HName->Text;
    // A synthetic-but-deterministic workload shape: identical for the
    // same history, so the canonical spec (and cache identity) is
    // stable across uploads.
    S.Cfg.Sessions = static_cast<unsigned>(SH->H->numSessions());
    S.Cfg.TxnsPerSession = 0;
    for (SessionId Sess = 0; Sess < SH->H->numSessions(); ++Sess)
      S.Cfg.TxnsPerSession = std::max(
          S.Cfg.TxnsPerSession,
          static_cast<unsigned>(SH->H->sessionTxns(Sess).size()));
    S.Cfg.Seed = 0;
    S.StoreSeed = 0;
    S.Validate = false;
    S.CheckSerializability = false;
    // Bounded by default — an unbounded solve would pin a pool worker
    // for as long as the tenant likes. timeout_ms=0 opts out explicitly.
    S.TimeoutMs = 5000;
    if (!parseQueryOptions(Req.Body, S, &Error)) {
      errorsCounter().inc();
      C->send(errorResponse(Req, errc::BadRequest, Error));
      return false;
    }
    Job.Spec = S;
    Job.Hist = SH;
    Job.CacheSpec = scopedHistorySpec(T, *SH, S);
  } else {
    errorsCounter().inc();
    C->send(errorResponse(Req, errc::BadRequest,
                          "query needs \"spec\" or \"history\""));
    return false;
  }
  Job.Req = std::move(Req);

  switch (T.admitQuery()) {
  case Tenant::Admit::Run:
    submitJob(std::move(Job));
    break;
  case Tenant::Admit::Queue: {
    std::lock_guard<std::mutex> Lock(PendingMutex);
    Pending[&T].push_back(std::move(Job));
    break;
  }
  case Tenant::Admit::Reject:
    QuotaRejections.inc();
    C->send(errorResponse(
        Job.Req, errc::QuotaExceeded,
        formatString("tenant '%s' is over quota (%u running, %u queued)",
                     T.name().c_str(), T.config().MaxConcurrent,
                     T.config().MaxQueued)));
    return false;
  }
  return true;
}

void Server::submitJob(QueryJob Job) {
  auto Shared = std::make_shared<QueryJob>(std::move(Job));
  Pool.submit([this, Shared] {
    executeQuery(*Shared);
    Tenant *T = Shared->T;
    if (T->finishQuery()) {
      std::optional<QueryJob> Next;
      {
        std::lock_guard<std::mutex> Lock(PendingMutex);
        auto It = Pending.find(T);
        if (It != Pending.end() && !It->second.empty()) {
          Next = std::move(It->second.front());
          It->second.pop_front();
        }
      }
      if (Next) {
        T->promoteQueued();
        submitJob(std::move(*Next));
      }
    }
  });
}

void Server::executeQuery(QueryJob &Job) {
  static obs::Counter &CacheAnswers =
      obs::Metrics::global().counter("server.cache_answers");
  static obs::Histogram &QuerySeconds =
      obs::Metrics::global().histogram("server.query_seconds");
  obs::Span Span("server.query", obs::CatServer);
  Span.arg("app", Job.Spec.App);
  Span.arg("tenant", Job.T->name());

  cache::EncodingMode Mode =
      Job.Hist ? cache::EncodingMode::Session : cache::EncodingMode::OneShot;
  JobResult R;
  bool Warm = false;

  std::optional<JobResult> Hit;
  if (Store)
    Hit = Store->lookup(Job.CacheSpec, Mode);
  if (Hit) {
    R = std::move(*Hit);
    R.Spec = Job.Spec; // Back into the client's (unscoped) identity.
    Job.T->noteCacheHit();
    CacheAnswers.inc();
  } else if (Job.Hist) {
    R.Spec = Job.Spec;
    R.Ok = true;
    const History &H = *Job.Hist->H;
    fillHistoryStats(R, H);
    std::string Key = SessionPool::key(Job.T->config().AppId,
                                       Job.Hist->ContentHash, Job.Spec.Prune);
    std::unique_ptr<PredictSession> Sess = Sessions.acquire(Key);
    Warm = Sess != nullptr;
    if (Warm) {
      Job.T->noteSessionHit();
    } else {
      PredictSession::Options SO;
      SO.PruneFormula = Job.Spec.Prune;
      // Streaming with an unbounded window: outcome-equivalent to a
      // plain session (the window covers the whole trace), but the
      // extend verb can grow the pooled session in place instead of
      // throwing the warm encoding away.
      SO.Streaming = true;
      Sess = std::make_unique<PredictSession>(H, SO);
    }
    PredictSession::QueryOptions Q;
    Q.Level = Job.Spec.Level;
    Q.Strat = Job.Spec.Strat;
    Q.TimeoutMs = Job.Spec.TimeoutMs;
    Prediction P = Sess->query(Q);
    R.Outcome = P.Result;
    R.Stats = P.Stats;
    R.Witness = P.Witness;
    R.TimedOut = P.TimedOut;
    R.Canceled = P.Canceled;
    R.SolverStats = P.SolverStats;
    // An interrupted solver is sticky-canceled; never pool it.
    if (!P.Canceled)
      Sessions.release(Key, std::move(Sess));
  } else {
    R = engine::Engine::runJob(Job.Spec);
  }

  if (Store && !R.CacheHit && cache::cacheable(R)) {
    JobResult Stored = R;
    Stored.Spec = Job.CacheSpec; // The store verifies spec identity.
    Store->store(Stored, Mode);
  }

  Span.finish();
  double Secs = Span.seconds();
  QuerySeconds.observe(Secs);
  if (R.WallSeconds == 0)
    R.WallSeconds = Secs;

  static obs::CounterFamily &QueriesF = obs::Metrics::global().counterFamily(
      "server.queries", {"tenant", "outcome"});
  static obs::HistogramFamily &QuerySecondsF =
      obs::Metrics::global().histogramFamily("server.query_seconds",
                                             {"tenant"});
  const char *Outcome = !R.Ok ? "error"
                        : R.Canceled
                            ? "canceled"
                            : (R.TimedOut ? "timeout" : "ok");
  QueriesF.at({Job.T->name(), Outcome}).inc();
  QuerySecondsF.at({Job.T->name()}).observe(Secs);
  latencyRing(TenantLatency, Job.T->name()).observe(Secs);

  if (Opts.SlowQueryMs > 0 && Secs * 1000.0 >= Opts.SlowQueryMs) {
    static obs::CounterFamily &SlowF = obs::Metrics::global().counterFamily(
        "server.slow_queries", {"tenant"});
    SlowF.at({Job.T->name()}).inc();
    std::vector<obs::LogField> Fields = {
        {"tenant", Job.T->name()},
        {"app", Job.Spec.App},
        {"spec_hash",
         formatString("%016llx", static_cast<unsigned long long>(
                                     engine::specHash(Job.CacheSpec)))},
        {"seconds", formatString("%.3f", Secs)},
        {"outcome", Outcome},
        {"answered_by",
         R.CacheHit ? "cache"
                    : (Job.Hist ? (Warm ? "warm_session" : "session")
                                : "engine")},
    };
    if (!R.WinningLane.empty())
      Fields.emplace_back("lane", R.WinningLane);
    Fields.emplace_back("solver_conflicts",
                        std::to_string(R.SolverStats.Conflicts));
    Fields.emplace_back("solver_decisions",
                        std::to_string(R.SolverStats.Decisions));
    Fields.emplace_back("solver_restarts",
                        std::to_string(R.SolverStats.Restarts));
    Fields.emplace_back("solver_memory_mb",
                        formatString("%.1f", R.SolverStats.MaxMemoryMb));
    obs::Log::global().warn("slow_query", std::move(Fields));
  }

  if (!R.Ok) {
    errorsCounter().inc();
    Job.C->send(errorResponse(Job.Req, errc::Internal, R.Error));
    return;
  }
  JsonWriter J(JsonWriter::Style::Compact);
  beginResponse(J, Job.Req, true);
  J.str("answered_by", R.CacheHit
                           ? "cache"
                           : (Job.Hist ? (Warm ? "warm_session" : "session")
                                       : "engine"));
  J.boolean("cache_hit", R.CacheHit);
  if (Job.Hist)
    J.boolean("warm_session", Warm);
  J.openObjectIn("job");
  engine::ReportOptions RO;
  RO.IncludeTimings = true;
  engine::writeJobFields(J, R, RO);
  J.closeObject();
  J.closeObject();
  Job.C->send(J.take());
}

//===----------------------------------------------------------------------===
// Status / metrics exposition
//===----------------------------------------------------------------------===

obs::RollingHistogram &
Server::latencyRing(std::map<std::string, obs::RollingHistogram> &M,
                    const std::string &Key) {
  std::lock_guard<std::mutex> Lock(LatencyMutex);
  auto It = M.find(Key);
  if (It == M.end())
    It = M.emplace(std::piecewise_construct, std::forward_as_tuple(Key),
                   std::forward_as_tuple(300u, 5u))
             .first;
  return It->second;
}

void Server::writeLatencyJson(JsonWriter &J) {
  static const struct {
    const char *Name;
    unsigned Seconds;
  } Windows[] = {{"1m", 60}, {"5m", 300}};
  auto WriteRing = [&](const obs::RollingHistogram &R) {
    for (const auto &W : Windows) {
      obs::RollingHistogram::Snapshot S = R.snapshot(W.Seconds);
      J.openObjectIn(W.Name);
      J.num("count", S.Count);
      J.num("mean_seconds", S.mean());
      J.num("p50", obs::RollingHistogram::percentile(S, 0.50));
      J.num("p95", obs::RollingHistogram::percentile(S, 0.95));
      J.num("p99", obs::RollingHistogram::percentile(S, 0.99));
      J.closeObject();
    }
  };
  std::lock_guard<std::mutex> Lock(LatencyMutex);
  J.openObjectIn("latency");
  J.openObjectIn("verbs");
  for (const auto &E : VerbLatency) {
    J.openObjectIn(E.first.c_str());
    WriteRing(E.second);
    J.closeObject();
  }
  J.closeObject();
  J.openObjectIn("tenants");
  for (const auto &E : TenantLatency) {
    J.openObjectIn(E.first.c_str());
    WriteRing(E.second);
    J.closeObject();
  }
  J.closeObject();
  J.closeObject();
}

obs::MetricsSnapshot Server::telemetrySnapshot() {
  static obs::GaugeFamily &Running = obs::Metrics::global().gaugeFamily(
      "server.tenant_running", {"tenant"});
  static obs::GaugeFamily &Queued = obs::Metrics::global().gaugeFamily(
      "server.tenant_queued", {"tenant"});
  static obs::GaugeFamily &Completed = obs::Metrics::global().gaugeFamily(
      "server.tenant_completed", {"tenant"});
  static obs::GaugeFamily &Rejected = obs::Metrics::global().gaugeFamily(
      "server.tenant_rejected", {"tenant"});
  static obs::GaugeFamily &CacheHits = obs::Metrics::global().gaugeFamily(
      "server.tenant_cache_hits", {"tenant"});
  static obs::GaugeFamily &SessionHits = obs::Metrics::global().gaugeFamily(
      "server.tenant_session_hits", {"tenant"});
  static obs::GaugeFamily &Histories = obs::Metrics::global().gaugeFamily(
      "server.tenant_histories", {"tenant"});
  static obs::Gauge &PoolCapacity =
      obs::Metrics::global().gauge("server.session_capacity");
  for (Tenant *T : Registry.tenants()) {
    Tenant::Counters C = T->counters();
    Running.at({T->name()}).set(C.Running);
    Queued.at({T->name()}).set(C.Queued);
    Completed.at({T->name()}).set(static_cast<int64_t>(C.Completed));
    Rejected.at({T->name()}).set(static_cast<int64_t>(C.Rejected));
    CacheHits.at({T->name()}).set(static_cast<int64_t>(C.CacheHits));
    SessionHits.at({T->name()}).set(static_cast<int64_t>(C.SessionHits));
    Histories.at({T->name()}).set(static_cast<int64_t>(T->numHistories()));
  }
  PoolCapacity.set(static_cast<int64_t>(Sessions.stats().Capacity));
  return obs::Metrics::global().snapshot();
}

std::string Server::statusJson(const Request &Req) {
  // One registry snapshot feeds the tenants table, the metrics block,
  // and (via the metrics verb) the Prometheus exposition — the numbers
  // cannot disagree because they have one source.
  obs::MetricsSnapshot S = telemetrySnapshot();
  JsonWriter J(JsonWriter::Style::Compact);
  beginResponse(J, Req, true);
  J.str("schema", "isopredict-server-status/1");
  J.str("tool_version", engine::toolVersion());
  J.num("uptime_seconds", Uptime.seconds());
  J.num("workers", static_cast<uint64_t>(Pool.threads()));
  J.boolean("draining", Stopping.load(std::memory_order_acquire));

  // Per-pool structural state (this Server's pool, not the process-wide
  // counters, which several servers in one test process share).
  SessionPool::Stats PS = Sessions.stats();
  J.openObjectIn("session_pool");
  J.num("hits", PS.Hits);
  J.num("misses", PS.Misses);
  J.num("evictions", PS.Evictions);
  J.num("size", static_cast<uint64_t>(PS.Size));
  J.num("capacity", static_cast<uint64_t>(PS.Capacity));
  J.closeObject();

  J.openArray("tenants");
  for (Tenant *T : Registry.tenants()) {
    const std::vector<std::string> Label = {T->name()};
    J.openElement();
    J.str("name", T->name());
    J.num("running", static_cast<uint64_t>(
                         S.familyGauge("server.tenant_running", Label)));
    J.num("queued", static_cast<uint64_t>(
                        S.familyGauge("server.tenant_queued", Label)));
    J.num("completed", static_cast<uint64_t>(
                           S.familyGauge("server.tenant_completed", Label)));
    J.num("rejected", static_cast<uint64_t>(
                          S.familyGauge("server.tenant_rejected", Label)));
    J.num("cache_hits", static_cast<uint64_t>(
                            S.familyGauge("server.tenant_cache_hits", Label)));
    J.num("session_hits",
          static_cast<uint64_t>(
              S.familyGauge("server.tenant_session_hits", Label)));
    J.num("histories", static_cast<uint64_t>(
                           S.familyGauge("server.tenant_histories", Label)));
    J.closeObject();
  }
  J.closeArray();

  // Rolling p50/p95/p99 per verb and per tenant (1 m and 5 m windows).
  writeLatencyJson(J);

  // The same "metrics" block shape campaign reports carry under
  // --timings — report_profile reads either. Totals since process
  // start; callers diff two status snapshots for interval deltas.
  obs::writeMetricsJson(J, S);
  J.closeObject();
  return J.take();
}

std::string Server::metricsJson(const Request &Req) {
  const JsonValue *F = Req.Body.field("format");
  std::string Format =
      F && F->K == JsonValue::Kind::String ? F->Text : "prometheus";
  if (Format != "prometheus" && Format != "json") {
    errorsCounter().inc();
    return errorResponse(Req, errc::BadRequest,
                         "metrics format must be \"prometheus\" or \"json\"");
  }
  obs::MetricsSnapshot S = telemetrySnapshot();
  JsonWriter J(JsonWriter::Style::Compact);
  beginResponse(J, Req, true);
  J.str("schema", "isopredict-server-metrics/1");
  J.str("tool_version", engine::toolVersion());
  J.str("format", Format);
  if (Format == "json")
    obs::writeMetricsJson(J, S);
  else
    J.str("exposition", obs::toPrometheusText(S));
  J.closeObject();
  return J.take();
}

//===----------------------------------------------------------------------===
// Continuous tracing (ring flush rotation)
//===----------------------------------------------------------------------===

void Server::traceFlushLoop() {
  static obs::Counter &Flushes =
      obs::Metrics::global().counter("tracer.flushes");
  unsigned IntervalSec = Opts.TraceFlushSec ? Opts.TraceFlushSec : 10;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(FlushMutex);
      FlushCv.wait_for(Lock, std::chrono::seconds(IntervalSec), [this] {
        return Stopping.load(std::memory_order_acquire);
      });
    }
    bool Last = Stopping.load(std::memory_order_acquire);
    std::string Path =
        pathJoin(Opts.TraceDir, formatString("trace-%06u.json", TraceSeq));
    std::string Error;
    if (obs::Tracer::global().flushChromeTrace(Path, &Error)) {
      Flushes.inc();
      ++TraceSeq;
      if (Opts.TraceKeepFiles && TraceSeq > Opts.TraceKeepFiles)
        ::unlink(pathJoin(Opts.TraceDir,
                          formatString("trace-%06u.json",
                                       TraceSeq - Opts.TraceKeepFiles - 1))
                     .c_str());
    } else {
      obs::Log::global().error("trace.flush_failed",
                               {{"path", Path}, {"error", Error}});
    }
    if (Last)
      return;
  }
}
