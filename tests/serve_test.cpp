//===- tests/serve_test.cpp - Compile-service daemon tests ----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// The `pirac serve` stack (DESIGN.md §11): the length-prefixed framing
// layer and its hostile-input taxonomy (service/Framing.h), listener
// setup with stale-socket reclamation (service/Listener.h), the daemon
// itself — admission control, overload shedding, per-client budgets,
// server-side deadlines, graceful drain vs fast abort — and the
// reconnecting client whose retry loop rides out a daemon restart
// (service/Client.h).
//
// Every test runs the real Server on a background thread, over real
// sockets (loopback TCP with a kernel-assigned port, or a unix socket
// under the temp root); nothing is mocked. Hostility tests speak raw
// frames so they can violate the protocol on purpose.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "machine/MachineConfig.h"
#include "machine/MachineModel.h"
#include "pipeline/Batch.h"
#include "pipeline/Report.h"
#include "pipeline/Worker.h"
#include "service/Client.h"
#include "service/Framing.h"
#include "service/Listener.h"
#include "service/Server.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace pira;
using namespace pira::service;

namespace {

/// A tiny well-formed function in canonical text form.
std::string smallFunctionText(const std::string &Name) {
  return "func @" + Name + R"( regs 8 {
block entry:
  %s0 = li 1
  %s1 = li 2
  %s2 = add %s0, %s1
  %s3 = fmul %s2, %s1
  ret %s3
}
)";
}

/// A deliberately expensive function (~320 instructions): long enough
/// that admission races in the budget / queue-full / deadline / drain
/// tests have tens of milliseconds of slack, not microseconds.
std::string heavyFunctionText(const std::string &Name) {
  std::string T = "func @" + Name + " regs 320 {\nblock entry:\n"
                  "  %s0 = li 1\n  %s1 = li 3\n";
  for (int I = 2; I != 320; ++I)
    T += "  %s" + std::to_string(I) + " = " +
         (I % 3 == 0 ? "fmul" : "add") + " %s" + std::to_string(I - 1) +
         ", %s" + std::to_string(I / 2) + "\n";
  T += "  ret %s319\n}\n";
  return T;
}

std::string machineText() {
  return machineModelToString(MachineModel::rs6000());
}

/// A pira.job document for \p IRText under default batch options.
json::Value makeJob(const std::string &IRText,
                    const std::string &FaultSpec = "") {
  BatchOptions Opts;
  Opts.Jobs = 1;
  return encodeWorkerJob(IRText, machineText(), Opts, FaultSpec,
                         /*FaultKey=*/0);
}

/// A raw loopback connection to \p Port; tests that must break the
/// protocol on purpose cannot go through ServiceClient.
int rawConnect(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(Fd, 0);
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0)
      << std::strerror(errno);
  return Fd;
}

/// Reads one frame and parses it; fails the test on anything else.
json::Value readResponse(int Fd, int TimeoutMs = 30000) {
  std::string Payload;
  FrameStatus S = readFrame(Fd, Payload, DefaultMaxFrameBytes, TimeoutMs);
  EXPECT_EQ(S, FrameStatus::Ok) << frameStatusName(S);
  json::Value Doc;
  std::string Error;
  EXPECT_TRUE(json::parse(Payload, Doc, Error)) << Error;
  return Doc;
}

uint64_t responseId(const json::Value &Doc) {
  const json::Value *Id = Doc.find("id");
  return Id != nullptr && Id->isInt() ? static_cast<uint64_t>(Id->asInt())
                                      : ~0ull;
}

std::string responseType(const json::Value &Doc) {
  const json::Value *T = Doc.find("type");
  return T != nullptr && T->isString() ? T->asString() : "";
}

std::string responseError(const json::Value &Doc) {
  const json::Value *E = Doc.find("error");
  return E != nullptr && E->isString() ? E->asString() : "";
}

/// A compile request envelope around \p Job.
json::Value compileRequest(uint64_t Id, const json::Value &Job,
                           uint64_t DeadlineMs = 0) {
  json::Value Req = requestEnvelope(Id, "compile");
  if (DeadlineMs != 0)
    Req.set("deadline_ms", DeadlineMs);
  Req.set("job", Job);
  return Req;
}

/// Runs the real Server on a background thread and owns its shutdown.
class ServeTest : public testing::Test {
protected:
  void TearDown() override { stop(/*Abort=*/true); }

  /// Binds and runs a server; fails the test if bind() does.
  void start(ServerOptions O) {
    stop(/*Abort=*/true);
    Srv = std::make_unique<Server>(std::move(O));
    Status S = Srv->bind();
    ASSERT_TRUE(S.ok()) << S.toString();
    Runner = std::thread([this] { Exit = Srv->run(); });
  }

  /// TCP-only options with a kernel-assigned port; tests override what
  /// they probe. Two executors keep the suite light.
  static ServerOptions tcpOptions() {
    ServerOptions O;
    O.TcpPort = 0;
    O.Threads = 2;
    return O;
  }

  int stop(bool Abort) {
    if (!Runner.joinable())
      return Exit;
    if (Abort)
      Srv->requestAbort();
    else
      Srv->requestDrain();
    Runner.join();
    return Exit;
  }

  ClientOptions clientOptions() const {
    ClientOptions C;
    C.TcpPort = Srv->tcpPort();
    C.RetryBackoffMs = 1;
    C.BackoffCapMs = 10;
    return C;
  }

  std::unique_ptr<Server> Srv;
  std::thread Runner;
  int Exit = -1;
};

} // namespace

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

namespace {

/// A connected socketpair for exercising readFrame against a peer the
/// test controls byte-by-byte.
struct Pair {
  int A = -1, B = -1;
  Pair() {
    int Fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    A = Fds[0];
    B = Fds[1];
  }
  ~Pair() {
    if (A >= 0)
      ::close(A);
    if (B >= 0)
      ::close(B);
  }
  void closeB() {
    ::close(B);
    B = -1;
  }
};

} // namespace

TEST(FramingTest, RoundTripsAPayload) {
  Pair P;
  const std::string Payload = "{\"answer\": 42}";
  std::string Framed = frameBytes(Payload);
  ASSERT_EQ(Framed.size(), Payload.size() + 4);
  // Big-endian length prefix.
  EXPECT_EQ(static_cast<unsigned char>(Framed[3]), Payload.size());
  EXPECT_TRUE(writeFrame(P.B, Payload));
  std::string Out;
  EXPECT_EQ(readFrame(P.A, Out, DefaultMaxFrameBytes, 1000),
            FrameStatus::Ok);
  EXPECT_EQ(Out, Payload);
}

TEST(FramingTest, OversizedHeaderIsRejectedBeforeThePayload) {
  Pair P;
  // A header announcing 1 MiB against a 4 KiB cap: rejected from the
  // four header bytes alone; no payload is ever read.
  unsigned char Header[4] = {0x00, 0x10, 0x00, 0x00};
  ASSERT_EQ(::write(P.B, Header, 4), 4);
  std::string Out;
  EXPECT_EQ(readFrame(P.A, Out, /*MaxBytes=*/4096, 1000),
            FrameStatus::TooLarge);
}

TEST(FramingTest, ZeroLengthHeaderIsBadLength) {
  Pair P;
  unsigned char Header[4] = {0, 0, 0, 0};
  ASSERT_EQ(::write(P.B, Header, 4), 4);
  std::string Out;
  EXPECT_EQ(readFrame(P.A, Out, DefaultMaxFrameBytes, 1000),
            FrameStatus::BadLength);
}

TEST(FramingTest, CleanCloseOnABoundaryIsEof) {
  Pair P;
  P.closeB();
  std::string Out;
  EXPECT_EQ(readFrame(P.A, Out, DefaultMaxFrameBytes, 1000),
            FrameStatus::Eof);
}

TEST(FramingTest, CloseMidFrameIsAnErrorNotEof) {
  Pair P;
  // Header promises ten bytes; three arrive, then the peer vanishes. A
  // truncated frame must never be mistaken for a clean goodbye.
  unsigned char Header[4] = {0, 0, 0, 10};
  ASSERT_EQ(::write(P.B, Header, 4), 4);
  ASSERT_EQ(::write(P.B, "abc", 3), 3);
  P.closeB();
  std::string Out;
  EXPECT_EQ(readFrame(P.A, Out, DefaultMaxFrameBytes, 1000),
            FrameStatus::Error);
}

TEST(FramingTest, StalledPeerTripsTheInactivityTimeout) {
  Pair P;
  // A slowloris peer: two header bytes, then silence.
  ASSERT_EQ(::write(P.B, "\0\0", 2), 2);
  std::string Out;
  EXPECT_EQ(readFrame(P.A, Out, DefaultMaxFrameBytes, /*IdleTimeoutMs=*/50),
            FrameStatus::Timeout);
}

//===----------------------------------------------------------------------===//
// Listener
//===----------------------------------------------------------------------===//

TEST(ListenerTest, StaleUnixSocketNodeIsReclaimed) {
  // A kill -9'd daemon leaves its socket node behind; the next daemon
  // must bind anyway — crash recovery depends on it.
  std::string Path = std::filesystem::path(testing::TempDir()) /
                     ("pira_stale_" + std::to_string(::getpid()) + ".sock");
  {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)),
              0)
        << std::strerror(errno);
    ::close(Fd); // The fd dies; the filesystem node survives.
  }
  ASSERT_TRUE(std::filesystem::exists(Path));

  Expected<Listener> L = Listener::listenUnix(Path);
  ASSERT_TRUE(bool(L)) << L.status().toString();
  EXPECT_TRUE(L->valid());
  L->close();
  // And a clean close removes the node it owned.
  EXPECT_FALSE(std::filesystem::exists(Path));
}

TEST(ListenerTest, KernelAssignedTcpPortIsRecovered) {
  Expected<Listener> L = Listener::listenTcp(0);
  ASSERT_TRUE(bool(L)) << L.status().toString();
  EXPECT_NE(L->port(), 0); // The 0 request resolved to a real port.
}

//===----------------------------------------------------------------------===//
// Server lifecycle
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, DrainReturnsZeroAndAbortReturns130) {
  start(tcpOptions());
  ServiceClient C(clientOptions());
  Expected<json::Value> H = C.health();
  ASSERT_TRUE(bool(H)) << H.status().toString();
  EXPECT_EQ(H->find("status")->asString(), "ok");
  EXPECT_EQ(stop(/*Abort=*/false), 0);

  start(tcpOptions());
  EXPECT_EQ(stop(/*Abort=*/true), 130);
}

TEST_F(ServeTest, CompileOverTheWireMatchesInProcess) {
  start(tcpOptions());
  json::Value Job = makeJob(smallFunctionText("wire"));

  Expected<WorkerJob> Decoded = decodeWorkerJob(Job);
  ASSERT_TRUE(bool(Decoded)) << Decoded.status().toString();
  GuardedResult Local = runWorkerJob(*Decoded);

  ServiceClient C(clientOptions());
  Expected<GuardedResult> Remote = C.compile(Job);
  ASSERT_TRUE(bool(Remote)) << Remote.status().toString();
  ASSERT_TRUE(Remote->Result.Success) << Remote->Result.Error;

  // The full result document — allocated code, schedule, every scalar —
  // is byte-identical to the in-process compile's.
  EXPECT_EQ(encodeWorkerResult(*Remote).toString(-1),
            encodeWorkerResult(Local).toString(-1));
}

TEST_F(ServeTest, ConcurrentClientsAllGetServed) {
  start(tcpOptions());
  constexpr int NumClients = 8, PerClient = 4;
  std::vector<std::thread> Threads;
  std::vector<unsigned> Ok(NumClients, 0);
  for (int T = 0; T != NumClients; ++T)
    Threads.emplace_back([&, T] {
      ServiceClient C(clientOptions());
      for (int I = 0; I != PerClient; ++I) {
        json::Value Job = makeJob(smallFunctionText(
            "c" + std::to_string(T) + "_" + std::to_string(I)));
        Expected<GuardedResult> G = C.compile(Job);
        if (G && G->Result.Success)
          ++Ok[T];
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T != NumClients; ++T)
    EXPECT_EQ(Ok[T], unsigned(PerClient)) << "client " << T;

  ServiceClient C(clientOptions());
  Expected<json::Value> Stats = C.stats();
  ASSERT_TRUE(bool(Stats)) << Stats.status().toString();
  EXPECT_EQ(Stats->find("schema")->asString(), ServeStatsSchemaName);
  EXPECT_GE(Stats->find("requests")->find("compiles")->asInt(),
            NumClients * PerClient);
}

TEST_F(ServeTest, TheCacheStaysWarmAcrossRequestsAndClients) {
  start(tcpOptions());
  json::Value Job = makeJob(smallFunctionText("warm"));

  // Two separate clients, same job: the second is served from the
  // daemon's in-memory tier — the amortization a one-shot process
  // never gets.
  std::string First, Second;
  {
    ServiceClient C(clientOptions());
    Expected<GuardedResult> G = C.compile(Job);
    ASSERT_TRUE(bool(G)) << G.status().toString();
    First = encodeWorkerResult(*G).toString(-1);
  }
  {
    ServiceClient C(clientOptions());
    Expected<GuardedResult> G = C.compile(Job);
    ASSERT_TRUE(bool(G)) << G.status().toString();
    Second = encodeWorkerResult(*G).toString(-1);
  }
  EXPECT_EQ(First, Second); // A hit is byte-identical to the compile.

  ServiceClient C(clientOptions());
  Expected<json::Value> Stats = C.stats();
  ASSERT_TRUE(bool(Stats)) << Stats.status().toString();
  const json::Value *Cache = Stats->find("cache");
  ASSERT_NE(Cache, nullptr);
  EXPECT_EQ(Cache->find("memory_hits")->asInt(), 1);
  EXPECT_EQ(Cache->find("inserts")->asInt(), 1);
}

TEST_F(ServeTest, ClientRidesOutADaemonRestart) {
  // kill -9 equivalent, in-process: abort server A (its sockets die
  // with it), start server B on the same unix path, and the same
  // ServiceClient's next call must succeed via reconnect + resend.
  std::string Path = std::filesystem::path(testing::TempDir()) /
                     ("pira_restart_" + std::to_string(::getpid()) +
                      ".sock");
  ServerOptions O;
  O.SocketPath = Path;
  O.Threads = 2;
  start(O);

  ClientOptions CO;
  CO.SocketPath = Path;
  CO.RetryBackoffMs = 1;
  CO.BackoffCapMs = 10;
  ServiceClient C(CO);
  Expected<GuardedResult> G1 = C.compile(makeJob(smallFunctionText("r1")));
  ASSERT_TRUE(bool(G1)) << G1.status().toString();
  EXPECT_EQ(C.connectCount(), 1u);

  EXPECT_EQ(stop(/*Abort=*/true), 130);
  start(O); // Server B: binds over whatever A left behind.

  Expected<GuardedResult> G2 = C.compile(makeJob(smallFunctionText("r2")));
  ASSERT_TRUE(bool(G2)) << G2.status().toString();
  EXPECT_TRUE(G2->Result.Success);
  EXPECT_GE(C.connectCount(), 2u); // The death was ridden out, not hidden.
}

//===----------------------------------------------------------------------===//
// Protocol hostility — every failure stays contained to its connection
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, GarbageJsonGetsAProtocolErrorAndTheConnectionSurvives) {
  start(tcpOptions());
  int Fd = rawConnect(Srv->tcpPort());

  ASSERT_TRUE(writeFrame(Fd, "this is not json {"));
  json::Value Err = readResponse(Fd);
  EXPECT_EQ(responseType(Err), "error");
  EXPECT_EQ(responseError(Err), "protocol-error");
  EXPECT_EQ(responseId(Err), 0u); // No id was salvageable.

  // Resynchronization on a frame boundary is safe: the same connection
  // still answers a well-formed request.
  ASSERT_TRUE(writeFrameDoc(Fd, requestEnvelope(7, "health")));
  json::Value H = readResponse(Fd);
  EXPECT_EQ(responseType(H), "health");
  EXPECT_EQ(responseId(H), 7u);
  ::close(Fd);
}

TEST_F(ServeTest, DepthBombedPayloadIsAProtocolErrorNotACrash) {
  start(tcpOptions());
  int Fd = rawConnect(Srv->tcpPort());
  // 100k nested arrays: the hardened parser's depth limit rejects it
  // long before the stack would.
  ASSERT_TRUE(writeFrame(Fd, std::string(100000, '[')));
  json::Value Err = readResponse(Fd);
  EXPECT_EQ(responseError(Err), "protocol-error");
  ::close(Fd);

  ServiceClient C(clientOptions());
  Expected<json::Value> H = C.health();
  EXPECT_TRUE(bool(H)) << H.status().toString();
}

TEST_F(ServeTest, OversizedFrameGetsAnAnswerThenTheConnectionCloses) {
  ServerOptions O = tcpOptions();
  O.MaxFrameBytes = 4096;
  start(O);
  int Fd = rawConnect(Srv->tcpPort());

  // Announce 1 MiB against the 4 KiB cap. The stream offset is
  // unrecoverable, so after the best-effort answer the server hangs up.
  unsigned char Header[4] = {0x00, 0x10, 0x00, 0x00};
  ASSERT_EQ(::write(Fd, Header, 4), 4);
  json::Value Err = readResponse(Fd);
  EXPECT_EQ(responseError(Err), "protocol-error");
  std::string Rest;
  EXPECT_EQ(readFrame(Fd, Rest, 4096, 5000), FrameStatus::Eof);
  ::close(Fd);
}

TEST_F(ServeTest, TruncatedFrameThenCloseDoesNotWedgeTheServer) {
  start(tcpOptions());
  int Fd = rawConnect(Srv->tcpPort());
  unsigned char Header[4] = {0, 0, 0, 100};
  ASSERT_EQ(::write(Fd, Header, 4), 4);
  ASSERT_EQ(::write(Fd, "truncated", 9), 9);
  ::close(Fd); // Mid-frame EOF: the reader drops the connection.

  // A well-behaved client is entirely unaffected.
  ServiceClient C(clientOptions());
  Expected<GuardedResult> G = C.compile(makeJob(smallFunctionText("ok")));
  ASSERT_TRUE(bool(G)) << G.status().toString();
  EXPECT_TRUE(G->Result.Success);
}

TEST_F(ServeTest, SlowlorisConnectionIsDisconnectedByTheIdleTimeout) {
  ServerOptions O = tcpOptions();
  O.IdleTimeoutMs = 100;
  start(O);
  int Fd = rawConnect(Srv->tcpPort());
  ASSERT_EQ(::write(Fd, "\0\0", 2), 2); // Two header bytes, then stall.

  // The server gives up on us within the timeout (plus slack) — the
  // socket reads EOF rather than waiting forever.
  std::string Rest;
  FrameStatus S = readFrame(Fd, Rest, DefaultMaxFrameBytes, 10000);
  EXPECT_EQ(S, FrameStatus::Eof) << frameStatusName(S);
  ::close(Fd);

  ServiceClient C(clientOptions());
  Expected<json::Value> H = C.health();
  EXPECT_TRUE(bool(H)) << H.status().toString();
}

TEST_F(ServeTest, EnvelopeViolationsAreProtocolErrors) {
  start(tcpOptions());
  int Fd = rawConnect(Srv->tcpPort());

  // Not an object at all.
  ASSERT_TRUE(writeFrame(Fd, "[1, 2, 3]"));
  EXPECT_EQ(responseError(readResponse(Fd)), "protocol-error");

  // Wrong schema.
  json::Value Wrong = requestEnvelope(1, "health");
  Wrong.set("schema", "pira.wrong");
  ASSERT_TRUE(writeFrameDoc(Fd, Wrong));
  EXPECT_EQ(responseError(readResponse(Fd)), "protocol-error");

  // Unsupported version; the salvaged id still comes back.
  json::Value Ver = requestEnvelope(9, "health");
  Ver.set("version", 99);
  ASSERT_TRUE(writeFrameDoc(Fd, Ver));
  json::Value VErr = readResponse(Fd);
  EXPECT_EQ(responseError(VErr), "protocol-error");
  EXPECT_EQ(responseId(VErr), 9u);

  // Unknown request type.
  ASSERT_TRUE(writeFrameDoc(Fd, requestEnvelope(10, "launch-missiles")));
  EXPECT_EQ(responseError(readResponse(Fd)), "protocol-error");

  // Compile without a job document.
  ASSERT_TRUE(writeFrameDoc(Fd, requestEnvelope(11, "compile")));
  EXPECT_EQ(responseError(readResponse(Fd)), "protocol-error");
  ::close(Fd);
}

TEST_F(ServeTest, FaultInjectionJobsAreRefused) {
  start(tcpOptions());
  // Fault injection is process-global state; one tenant must not arm
  // it for everyone. The spec rides the job document and is refused.
  json::Value Armed = makeJob(smallFunctionText("armed"),
                              /*FaultSpec=*/"cache.read:1");
  ServiceClient C(clientOptions());
  Expected<GuardedResult> G = C.compile(Armed);
  ASSERT_FALSE(bool(G));
  EXPECT_EQ(G.status().code(), ErrorCode::ProtocolError);
  EXPECT_NE(G.status().toString().find("fault injection"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Admission control, shedding, deadlines, drain
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, PerClientBudgetShedsTheSecondConcurrentRequest) {
  ServerOptions O = tcpOptions();
  O.Threads = 1;
  O.PerClientBudget = 1;
  start(O);
  int Fd = rawConnect(Srv->tcpPort());

  // Two back-to-back compiles on one connection: the first is admitted
  // and starts executing (it is heavy — tens of milliseconds), so the
  // second finds the budget exhausted and is shed immediately.
  json::Value Heavy = makeJob(heavyFunctionText("b1"));
  ASSERT_TRUE(writeFrameDoc(Fd, compileRequest(1, Heavy)));
  ASSERT_TRUE(
      writeFrameDoc(Fd, compileRequest(2, makeJob(smallFunctionText("b2")))));

  // The shed answer overtakes the compile.
  json::Value Shed = readResponse(Fd);
  EXPECT_EQ(responseId(Shed), 2u);
  EXPECT_EQ(responseError(Shed), "server-overloaded");
  EXPECT_TRUE(Shed.find("retryable")->asBool());

  json::Value Result = readResponse(Fd);
  EXPECT_EQ(responseId(Result), 1u);
  EXPECT_EQ(responseType(Result), "result");
  ::close(Fd);
}

TEST_F(ServeTest, FullAdmissionQueueShedsInsteadOfBacklogging) {
  ServerOptions O = tcpOptions();
  O.Threads = 1;
  O.QueueDepth = 1;
  start(O);
  int Fd = rawConnect(Srv->tcpPort());

  // Six heavy compiles into a one-deep queue with one executor: the
  // first executes, one waits, and the rest are shed — immediately,
  // with a retryable error, not by queueing without bound.
  constexpr uint64_t N = 6;
  for (uint64_t Id = 1; Id <= N; ++Id)
    ASSERT_TRUE(writeFrameDoc(
        Fd, compileRequest(Id, makeJob(heavyFunctionText(
                                   "q" + std::to_string(Id))))));

  unsigned Results = 0, Shed = 0;
  for (uint64_t I = 0; I != N; ++I) {
    json::Value Resp = readResponse(Fd);
    if (responseType(Resp) == "result") {
      ++Results;
    } else {
      EXPECT_EQ(responseError(Resp), "server-overloaded");
      EXPECT_TRUE(Resp.find("retryable")->asBool());
      ++Shed;
    }
  }
  EXPECT_EQ(Results + Shed, N);
  EXPECT_GE(Results, 1u); // The admitted work still completed,
  EXPECT_GE(Shed, 1u);    // and the overload was shed, not absorbed.
  ::close(Fd);
}

TEST_F(ServeTest, DeadlineThatExpiresInTheQueueIsAnsweredWithoutRunning) {
  ServerOptions O = tcpOptions();
  O.Threads = 1;
  start(O);
  int Fd = rawConnect(Srv->tcpPort());

  // The heavy request occupies the only executor; the 1 ms deadline on
  // the second expires while it waits. The executor answers it without
  // compiling anything.
  ASSERT_TRUE(
      writeFrameDoc(Fd, compileRequest(1, makeJob(heavyFunctionText("d1")))));
  ASSERT_TRUE(writeFrameDoc(
      Fd, compileRequest(2, makeJob(smallFunctionText("d2")),
                         /*DeadlineMs=*/1)));

  std::map<uint64_t, json::Value> ById;
  for (int I = 0; I != 2; ++I) {
    json::Value Resp = readResponse(Fd);
    ById[responseId(Resp)] = Resp;
  }
  EXPECT_EQ(responseType(ById[1]), "result");
  EXPECT_EQ(responseError(ById[2]), "deadline-exceeded");
  EXPECT_FALSE(ById[2].find("retryable")->asBool());
  ::close(Fd);
}

TEST_F(ServeTest, DrainFinishesInFlightWorkAndRefusesNewCompiles) {
  ServerOptions O = tcpOptions();
  O.Threads = 1;
  O.DrainTimeoutMs = 30000; // The in-flight heavy compile must finish.
  start(O);
  int Fd = rawConnect(Srv->tcpPort());

  ASSERT_TRUE(
      writeFrameDoc(Fd, compileRequest(1, makeJob(heavyFunctionText("g1")))));

  // Make sure the request was actually admitted before draining —
  // stats are answered inline by the reader, so they double as the
  // admission barrier. (Draining before admission would be a different,
  // trivial test: an empty server shutting down.)
  bool InFlight = false;
  for (uint64_t Id = 100; Id != 200 && !InFlight; ++Id) {
    ASSERT_TRUE(writeFrameDoc(Fd, requestEnvelope(Id, "stats")));
    json::Value S = readResponse(Fd);
    const json::Value *Clients = S.find("stats")->find("clients");
    for (const json::Value &Row : Clients->elements())
      if (Row.find("in_flight")->asInt() >= 1)
        InFlight = true;
  }
  ASSERT_TRUE(InFlight);
  Srv->requestDrain();

  // The reader still answers health inline; poll until the drain is
  // visible (the self-pipe byte needs one trip through the accept loop).
  std::string HealthNow;
  for (uint64_t Id = 200; Id != 300 && HealthNow != "draining"; ++Id) {
    ASSERT_TRUE(writeFrameDoc(Fd, requestEnvelope(Id, "health")));
    json::Value H = readResponse(Fd);
    if (responseType(H) == "health")
      HealthNow = H.find("status")->asString();
  }
  EXPECT_EQ(HealthNow, "draining");

  // New compile work is refused with the draining vocabulary…
  ASSERT_TRUE(
      writeFrameDoc(Fd, compileRequest(2, makeJob(smallFunctionText("g2")))));
  json::Value Refused = readResponse(Fd);
  EXPECT_EQ(responseId(Refused), 2u);
  EXPECT_EQ(responseError(Refused), "server-draining");
  EXPECT_TRUE(Refused.find("retryable")->asBool());

  // …while the admitted request still completes inside the grace
  // period, and the drain exits clean.
  json::Value Done = readResponse(Fd);
  EXPECT_EQ(responseId(Done), 1u);
  EXPECT_EQ(responseType(Done), "result");
  ::close(Fd);
  EXPECT_EQ(stop(/*Abort=*/false), 0);
}

TEST_F(ServeTest, ConnectionCapRejectsTheOverflowClient) {
  ServerOptions O = tcpOptions();
  O.MaxClients = 1;
  start(O);

  // Client 1 occupies the only slot (a completed request proves it is
  // registered, not just queued in the accept backlog).
  int Fd1 = rawConnect(Srv->tcpPort());
  ASSERT_TRUE(writeFrameDoc(Fd1, requestEnvelope(1, "health")));
  EXPECT_EQ(responseType(readResponse(Fd1)), "health");

  // Client 2 is answered and hung up on.
  int Fd2 = rawConnect(Srv->tcpPort());
  json::Value Err = readResponse(Fd2);
  EXPECT_EQ(responseError(Err), "server-overloaded");
  EXPECT_TRUE(Err.find("retryable")->asBool());
  std::string Rest;
  EXPECT_EQ(readFrame(Fd2, Rest, DefaultMaxFrameBytes, 5000),
            FrameStatus::Eof);
  ::close(Fd2);
  ::close(Fd1);
}

//===----------------------------------------------------------------------===//
// compileBatchRemote — the batch driver's remote twin
//===----------------------------------------------------------------------===//

namespace {

std::vector<BatchItem> parsedBatch(unsigned N) {
  std::vector<BatchItem> Batch;
  for (unsigned I = 0; I != N; ++I) {
    std::string Name = "fn" + std::to_string(I);
    Function F;
    std::string Error;
    EXPECT_TRUE(parseFunction(smallFunctionText(Name), F, Error)) << Error;
    Batch.push_back({Name + ".pir", std::move(F)});
  }
  return Batch;
}

/// Report fingerprint for remote-vs-local identity: timers are wall
/// clock and counters live in process-global registries the client
/// process cannot see, so both are neutralized — everything else must
/// be byte-identical.
std::string reportFingerprint(const BatchResult &BR,
                              const std::vector<BatchItem> &Batch,
                              const MachineModel &M) {
  json::Value Report = makeBatchStatsReport(BR, Batch, "combined", M);
  Report.set("timers", json::Value::array());
  Report.set("counters", json::Value::array());
  Report.set("histograms", json::Value::object());
  std::ostringstream OS;
  Report.write(OS, 0);
  return OS.str();
}

} // namespace

TEST_F(ServeTest, CompileBatchRemoteReportMatchesTheInProcessDriver) {
  start(tcpOptions());
  std::vector<BatchItem> Batch = parsedBatch(5);
  MachineModel M = MachineModel::rs6000();
  BatchOptions Opts;
  Opts.Jobs = 2;

  BatchResult Local = compileBatch(Batch, M, Opts);
  ASSERT_EQ(Local.Succeeded, 5u);

  BatchResult Remote = compileBatchRemote(Batch, M, Opts, clientOptions());
  EXPECT_EQ(Remote.Succeeded, 5u);
  EXPECT_EQ(Remote.Failed, 0u);

  EXPECT_EQ(reportFingerprint(Remote, Batch, M),
            reportFingerprint(Local, Batch, M));
}

TEST(ServeClientTest, NoDaemonMeansPerItemFailuresNotAnAbortedBatch) {
  // A port with nothing behind it: grab a kernel-assigned port, then
  // close the listener so connects are refused.
  uint16_t DeadPort = 0;
  {
    Expected<Listener> L = Listener::listenTcp(0);
    ASSERT_TRUE(bool(L)) << L.status().toString();
    DeadPort = L->port();
  }

  ClientOptions CO;
  CO.TcpPort = DeadPort;
  CO.MaxAttempts = 2;
  CO.RetryBackoffMs = 1;
  CO.BackoffCapMs = 2;

  std::vector<BatchItem> Batch = parsedBatch(3);
  BatchOptions Opts;
  Opts.Jobs = 2;
  BatchResult BR =
      compileBatchRemote(Batch, MachineModel::rs6000(), Opts, CO);
  ASSERT_EQ(BR.Results.size(), 3u);
  EXPECT_EQ(BR.Succeeded, 0u);
  EXPECT_EQ(BR.Failed, 3u);
  for (size_t I = 0; I != 3; ++I) {
    EXPECT_FALSE(BR.Results[I].Success);
    // Structured, attributable failures naming the function.
    EXPECT_NE(BR.Results[I].Error.find("fn" + std::to_string(I)),
              std::string::npos)
        << BR.Results[I].Error;
  }
}
