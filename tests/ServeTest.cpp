//===- tests/ServeTest.cpp - Serving pipeline tests ----------------------------===//
//
// The serving daemon's contract: batched prediction is bit-identical to
// single-shot prediction (any batch composition, any thread count), the
// request pipeline coalesces without changing responses, protocol errors
// (malformed JSON, oversized lines, mid-request disconnects) are answered
// or absorbed without taking the server down, and shutdown drains every
// queued request.
//
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"
#include "corpus/Dataset.h"
#include "serve/Server.h"
#include "support/Json.h"
#include "support/Socket.h"
#include "support/Str.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace typilus;
using namespace typilus::serve;

namespace {

//===----------------------------------------------------------------------===//
// Shared fixture: one tiny corpus + one trained kNN model. Training is
// the expensive part, so it happens once per suite.
//===----------------------------------------------------------------------===//

class ServeTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    CorpusConfig CC;
    CC.NumFiles = 14;
    CC.NumUdts = 8;
    DatasetConfig DC;
    DC.CommonThreshold = 2;
    WB = new Workbench(Workbench::make(CC, DC));

    ModelConfig MC; // Graph + Typilus, the serving headliner
    MC.HiddenDim = 8;
    MC.TimeSteps = 2;
    TrainOptions TO;
    TO.Epochs = 1;
    TO.BatchFiles = 4;
    Model = makeModel(MC, WB->DS, *WB->U).release();
    trainModel(*Model, WB->DS.Train, TO);

    std::vector<const FileExample *> MapFiles;
    for (const FileExample &F : WB->DS.Train)
      MapFiles.push_back(&F);
    for (const FileExample &F : WB->DS.Valid)
      MapFiles.push_back(&F);
    Pred = new Predictor(Predictor::knn(*Model, MapFiles));
  }

  static void TearDownTestSuite() {
    delete Pred;
    delete Model;
    delete WB;
    Pred = nullptr;
    Model = nullptr;
    WB = nullptr;
    setGlobalNumThreads(0);
  }

  /// A predict request over the I-th corpus file's real source text.
  static Request requestFor(size_t I, int64_t Id) {
    const CorpusFile &F = WB->Files[I % WB->Files.size()];
    Request R;
    R.Id = Id;
    R.M = Method::Predict;
    R.Path = F.Path;
    R.Source = F.Source;
    return R;
  }

  /// Submits \p Reqs and waits until each has its response; \p MaxBatch
  /// configures coalescing. Responses are indexed by request order.
  static std::vector<std::string> serveAll(std::vector<Request> Reqs,
                                           int MaxBatch,
                                           ServerStats *OutStats = nullptr) {
    ServerOptions SO;
    SO.MaxBatch = MaxBatch;
    Server S(*Pred, *WB->U, SO);
    std::vector<std::string> Responses(Reqs.size());
    std::atomic<size_t> Done{0};
    for (size_t I = 0; I != Reqs.size(); ++I)
      EXPECT_TRUE(S.submit(Reqs[I], [&Responses, &Done, I](std::string R) {
        Responses[I] = std::move(R);
        ++Done;
      }));
    S.stop(); // drains
    EXPECT_EQ(Done.load(), Reqs.size());
    if (OutStats)
      *OutStats = S.stats();
    return Responses;
  }

  static Workbench *WB;
  static TypeModel *Model;
  static Predictor *Pred;
};

Workbench *ServeTest::WB = nullptr;
TypeModel *ServeTest::Model = nullptr;
Predictor *ServeTest::Pred = nullptr;

void expectSamePredictions(const std::vector<PredictionResult> &A,
                           const std::vector<PredictionResult> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].FilePath, B[I].FilePath);
    EXPECT_EQ(A[I].TargetIdx, B[I].TargetIdx);
    EXPECT_EQ(A[I].SymbolName, B[I].SymbolName);
    ASSERT_EQ(A[I].Candidates.size(), B[I].Candidates.size());
    for (size_t C = 0; C != A[I].Candidates.size(); ++C) {
      EXPECT_EQ(A[I].Candidates[C].Type, B[I].Candidates[C].Type);
      // Bit-level, not approximate, equality.
      EXPECT_EQ(A[I].Candidates[C].Prob, B[I].Candidates[C].Prob);
    }
  }
}

//===----------------------------------------------------------------------===//
// predictBatch == predictFile (the bit-identity the daemon relies on)
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, PredictBatchIsBitIdenticalToPerFilePrediction) {
  std::vector<const FileExample *> Files;
  for (const FileExample &F : WB->DS.Test)
    Files.push_back(&F);
  ASSERT_GT(Files.size(), 1u);

  auto Batched = Pred->predictBatch(Files);
  ASSERT_EQ(Batched.size(), Files.size());
  std::vector<PredictionResult> Flat, Single;
  for (size_t I = 0; I != Files.size(); ++I) {
    auto One = Pred->predictFile(*Files[I]);
    Single.insert(Single.end(), One.begin(), One.end());
    Flat.insert(Flat.end(), Batched[I].begin(), Batched[I].end());
  }
  expectSamePredictions(Flat, Single);
  EXPECT_EQ(predictionDigest(Flat), predictionDigest(Single));
}

TEST_F(ServeTest, PredictBatchClassifierIsBitIdentical) {
  ModelConfig MC;
  MC.Loss = LossKind::Class;
  MC.HiddenDim = 8;
  MC.TimeSteps = 2;
  TrainOptions TO;
  TO.Epochs = 1;
  TO.BatchFiles = 4;
  std::unique_ptr<TypeModel> M = makeModel(MC, WB->DS, *WB->U);
  trainModel(*M, WB->DS.Train, TO);
  Predictor P = Predictor::classifier(*M);

  std::vector<const FileExample *> Files;
  for (const FileExample &F : WB->DS.Test)
    Files.push_back(&F);
  auto Batched = P.predictBatch(Files);
  std::vector<PredictionResult> Flat, Single;
  for (size_t I = 0; I != Files.size(); ++I) {
    auto One = P.predictFile(*Files[I]);
    Single.insert(Single.end(), One.begin(), One.end());
    Flat.insert(Flat.end(), Batched[I].begin(), Batched[I].end());
  }
  expectSamePredictions(Flat, Single);
}

//===----------------------------------------------------------------------===//
// The request pipeline
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, CoalescedResponsesMatchUnbatchedServing) {
  std::vector<Request> Reqs;
  for (int I = 0; I != 12; ++I)
    Reqs.push_back(requestFor(static_cast<size_t>(I), I));

  ServerStats Batched, OneByOne;
  auto A = serveAll(Reqs, /*MaxBatch=*/8, &Batched);
  auto B = serveAll(Reqs, /*MaxBatch=*/1, &OneByOne);
  EXPECT_EQ(A, B); // byte-for-byte identical response lines

  EXPECT_EQ(Batched.Requests, 12u);
  EXPECT_EQ(OneByOne.Requests, 12u);
  EXPECT_EQ(OneByOne.MaxCoalesced, 1u);
  EXPECT_EQ(OneByOne.Batches, 12u);
  // All 12 were queued before the dispatcher woke, so coalescing must
  // have produced strictly fewer dispatches.
  EXPECT_LT(Batched.Batches, 12u);
  EXPECT_GT(Batched.MaxCoalesced, 1u);
}

TEST_F(ServeTest, ResponsesAreBitIdenticalAcrossThreadCounts) {
  std::vector<Request> Reqs;
  for (int I = 0; I != 8; ++I)
    Reqs.push_back(requestFor(static_cast<size_t>(I), I));

  // NumThreads = 1: every dispatch runs serially inline.
  setGlobalNumThreads(1);
  KnnOptions KO = Pred->knnOptions();
  KO.NumThreads = 1;
  Pred->setKnnOptions(KO);
  auto Serial = serveAll(Reqs, /*MaxBatch=*/8);

  setGlobalNumThreads(4);
  KO.NumThreads = 4;
  Pred->setKnnOptions(KO);
  auto Parallel = serveAll(Reqs, /*MaxBatch=*/8);

  setGlobalNumThreads(0);
  KO.NumThreads = 0;
  Pred->setKnnOptions(KO);

  EXPECT_EQ(Serial, Parallel);
}

TEST_F(ServeTest, ControlRequestsInterleaveWithPredicts) {
  ServerOptions SO;
  SO.MaxBatch = 16;
  Server S(*Pred, *WB->U, SO);
  std::mutex Mu;
  std::vector<std::string> Responses;
  auto Collect = [&](std::string R) {
    std::lock_guard<std::mutex> L(Mu);
    Responses.push_back(std::move(R));
  };
  Request Ping;
  Ping.Id = 100;
  Ping.M = Method::Ping;
  S.submit(requestFor(0, 1), Collect);
  S.submit(Ping, Collect);
  S.submit(requestFor(1, 2), Collect);
  S.stop();
  ASSERT_EQ(Responses.size(), 3u);
  // Arrival order is preserved even across the predict/control split.
  EXPECT_NE(Responses[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(Responses[1].find("\"pong\":true"), std::string::npos);
  EXPECT_NE(Responses[2].find("\"id\":2"), std::string::npos);
}

TEST_F(ServeTest, StopDrainsEveryQueuedRequest) {
  ServerOptions SO;
  SO.MaxBatch = 4;
  Server S(*Pred, *WB->U, SO);
  std::atomic<size_t> Done{0};
  const size_t N = 20;
  for (size_t I = 0; I != N; ++I)
    ASSERT_TRUE(S.submit(requestFor(I, static_cast<int64_t>(I)),
                         [&Done](std::string) { ++Done; }));
  S.stop(); // must answer all 20, not abandon the queue
  EXPECT_EQ(Done.load(), N);
  EXPECT_FALSE(S.submit(requestFor(0, 99), [](std::string) {}));
}

//===----------------------------------------------------------------------===//
// Protocol-level coverage over a real stream (serveStream end to end)
//===----------------------------------------------------------------------===//

class StreamHarness {
public:
  explicit StreamHarness(Server &S, size_t MaxRequestBytes = 1 << 16) {
    int Fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    Client = FileDesc(Fds[0]);
    ServerEnd = FileDesc(Fds[1]);
    int Fd = ServerEnd.fd();
    // Shared by value: the dispatcher may invoke the response sink after
    // serveStream already returned (e.g. right after a shutdown request).
    auto WriteMu = std::make_shared<std::mutex>();
    Reader = std::thread([&S, Fd, MaxRequestBytes, WriteMu] {
      serveStream(Fd, MaxRequestBytes, S, [Fd, WriteMu](std::string Resp) {
        std::lock_guard<std::mutex> L(*WriteMu);
        (void)writeAll(Fd, Resp);
      });
    });
  }

  ~StreamHarness() {
    closeClient();
    if (Reader.joinable())
      Reader.join();
  }

  void send(std::string_view Data) {
    ASSERT_TRUE(writeAll(Client.fd(), Data));
  }

  std::string readLine() {
    if (!R)
      R = std::make_unique<LineReader>(Client.fd(), 1 << 20);
    std::string Line;
    LineReader::Status St;
    do
      St = R->next(Line);
    while (St == LineReader::Status::Interrupted);
    EXPECT_EQ(St, LineReader::Status::Line);
    return Line;
  }

  void closeClient() { Client.reset(); }

private:
  FileDesc Client, ServerEnd;
  std::unique_ptr<LineReader> R;
  std::thread Reader;
};

TEST_F(ServeTest, MalformedJsonRequestGetsErrorResponse) {
  Server S(*Pred, *WB->U);
  StreamHarness H(S);
  H.send("{\"id\": 5, \"method\": \n");
  std::string Resp = H.readLine();
  EXPECT_NE(Resp.find("\"ok\":false"), std::string::npos) << Resp;
  EXPECT_NE(Resp.find("invalid JSON"), std::string::npos) << Resp;

  // Wrong shapes get specific errors and the recovered id.
  H.send("[1,2,3]\n");
  EXPECT_NE(H.readLine().find("must be a JSON object"), std::string::npos);
  H.send("{\"method\":\"predict\"}\n");
  EXPECT_NE(H.readLine().find("numeric \\\"id\\\""), std::string::npos);
  H.send("{\"id\":9,\"method\":\"teleport\"}\n");
  std::string Unknown = H.readLine();
  EXPECT_NE(Unknown.find("\"id\":9"), std::string::npos) << Unknown;
  EXPECT_NE(Unknown.find("unknown method"), std::string::npos) << Unknown;
  H.send("{\"id\":10,\"method\":\"predict\"}\n");
  EXPECT_NE(H.readLine().find("string \\\"source\\\""), std::string::npos);

  // The stream survived all of it: a well-formed request still works.
  H.send("{\"id\":11,\"method\":\"ping\"}\n");
  EXPECT_NE(H.readLine().find("\"pong\":true"), std::string::npos);
  S.stop();
}

TEST_F(ServeTest, OutOfRangeProtocolIntegersGetErrorResponses) {
  Server S(*Pred, *WB->U);
  StreamHarness H(S);
  // JSON numbers are doubles: an id or limit that is not an integer in
  // its range is a request error, never a silent truncation.
  for (const char *Id : {"1e300", "-1e300", "1.5", "9223372036854775808"}) {
    H.send(std::string("{\"id\":") + Id + ",\"method\":\"ping\"}\n");
    std::string Resp = H.readLine();
    EXPECT_EQ(Resp.rfind("{\"id\":-1,\"ok\":false,", 0), 0u) << Id << Resp;
    EXPECT_NE(Resp.find("\\\"id\\\""), std::string::npos) << Resp;
  }
  for (const char *Limit :
       {"4294967296", "2147483648", "-2", "0.5", "1e300", "\"3\""}) {
    H.send(std::string("{\"id\":3,\"method\":\"predict\",\"source\":\"\","
                       "\"limit\":") +
           Limit + "}\n");
    std::string Resp = H.readLine();
    EXPECT_EQ(Resp.rfind("{\"id\":3,\"ok\":false,", 0), 0u) << Limit << Resp;
    EXPECT_NE(Resp.find("\\\"limit\\\""), std::string::npos) << Resp;
  }
  // Both ranges keep their end points.
  Request R;
  std::string Err;
  EXPECT_TRUE(parseRequest(
      "{\"id\":-9223372036854775808,\"method\":\"ping\"}", R, &Err))
      << Err;
  EXPECT_EQ(R.Id, INT64_MIN);
  EXPECT_TRUE(parseRequest("{\"id\":4,\"method\":\"predict\",\"source\":\"\","
                           "\"limit\":2147483647}",
                           R, &Err))
      << Err;
  EXPECT_EQ(R.Limit, INT_MAX);
  EXPECT_TRUE(parseRequest("{\"id\":5,\"method\":\"predict\",\"source\":\"\","
                           "\"limit\":-1}",
                           R, &Err))
      << Err;
  EXPECT_EQ(R.Limit, -1);

  H.send("{\"id\":11,\"method\":\"ping\"}\n");
  EXPECT_NE(H.readLine().find("\"pong\":true"), std::string::npos);
  S.stop();
}

TEST_F(ServeTest, OversizedRequestIsRejectedAndStreamRecovers) {
  Server S(*Pred, *WB->U);
  StreamHarness H(S, /*MaxRequestBytes=*/256);
  std::string Huge = "{\"id\":1,\"method\":\"predict\",\"source\":\"" +
                     std::string(4096, 'x') + "\"}\n";
  H.send(Huge);
  std::string Resp = H.readLine();
  EXPECT_NE(Resp.find("\"ok\":false"), std::string::npos) << Resp;
  EXPECT_NE(Resp.find("exceeds 256 bytes"), std::string::npos) << Resp;
  // Within-cap requests on the same connection still serve.
  H.send("{\"id\":2,\"method\":\"ping\"}\n");
  EXPECT_NE(H.readLine().find("\"pong\":true"), std::string::npos);
  S.stop();
}

TEST_F(ServeTest, MidRequestDisconnectLeavesServerServing) {
  Server S(*Pred, *WB->U);
  {
    StreamHarness H(S);
    H.send("{\"id\":1,\"method\":\"predict\",\"source\":\"def f(");
    // No newline, no complete request: the client vanishes mid-line.
    H.closeClient();
  } // harness joins its reader: serveStream saw Eof and returned
  {
    StreamHarness H2(S);
    H2.send("{\"id\":2,\"method\":\"ping\"}\n");
    EXPECT_NE(H2.readLine().find("\"pong\":true"), std::string::npos);
  }
  S.stop();
}

TEST_F(ServeTest, DeeplyNestedSourceGetsErrorAndStreamServesOn) {
  // 20k-term sums and 20k nested parens used to overflow the stack of
  // the daemon's dispatcher; now each is one error response, and the
  // next request on the same connection is served.
  Server S(*Pred, *WB->U);
  StreamHarness H(S, /*MaxRequestBytes=*/1 << 20);
  std::string Sum = "x = 1", Parens = "x = ";
  for (int I = 0; I != 20000; ++I) {
    Sum += "+1";
    Parens += "(";
  }
  Parens += "1" + std::string(20000, ')');
  int64_t Id = 1;
  for (const std::string &Src : {Sum, Parens}) {
    std::string Req = "{\"id\":" + std::to_string(Id) +
                      ",\"method\":\"predict\",\"path\":\"deep.py\","
                      "\"source\":";
    json::appendQuoted(Req, Src + "\n");
    H.send(Req + "}\n");
    std::string Resp = H.readLine();
    EXPECT_NE(Resp.find("\"id\":" + std::to_string(Id)), std::string::npos)
        << Resp.substr(0, 200);
    EXPECT_NE(Resp.find("\"ok\":false"), std::string::npos)
        << Resp.substr(0, 200);
    EXPECT_NE(Resp.find("deep.py:1: nesting deeper than"), std::string::npos)
        << Resp.substr(0, 200);
    ++Id;
  }
  const CorpusFile &F = WB->Files[0];
  std::string Req = "{\"id\":9,\"method\":\"predict\",\"path\":";
  json::appendQuoted(Req, F.Path);
  Req += ",\"source\":";
  json::appendQuoted(Req, F.Source);
  H.send(Req + "}\n");
  std::string Resp = H.readLine();
  EXPECT_NE(Resp.find("\"id\":9"), std::string::npos) << Resp;
  EXPECT_NE(Resp.find("\"ok\":true"), std::string::npos) << Resp;
  S.stop();
}

TEST_F(ServeTest, ShutdownRequestRespondsAndFiresHook) {
  std::atomic<bool> Fired{false};
  ServerOptions SO;
  SO.OnShutdown = [&Fired] { Fired = true; };
  Server S(*Pred, *WB->U, SO);
  StreamHarness H(S);
  H.send("{\"id\":7,\"method\":\"shutdown\"}\n");
  std::string Resp = H.readLine();
  EXPECT_NE(Resp.find("\"shutting_down\":true"), std::string::npos) << Resp;
  S.stop();
  EXPECT_TRUE(Fired.load());
}

TEST_F(ServeTest, IdenticalRequestsCollapseToOnePrediction) {
  // 10 concurrent requests for the same source (the CI smoke's shape):
  // one prediction, 10 responses, all carrying identical payloads under
  // their own ids.
  std::vector<Request> Reqs;
  for (int I = 0; I != 10; ++I)
    Reqs.push_back(requestFor(/*file=*/0, /*id=*/I));
  ServerStats St;
  auto Responses = serveAll(Reqs, /*MaxBatch=*/16, &St);
  EXPECT_GT(St.Collapsed, 0u);
  EXPECT_LE(St.Collapsed, 9u);

  // Responses must equal uncollapsed single-request serving bit for bit.
  auto Single = serveAll({Reqs[0]}, /*MaxBatch=*/1);
  for (size_t I = 0; I != Responses.size(); ++I) {
    std::string Expect = Single[0];
    std::string IdPatched = "{\"id\":" + std::to_string(I) + ",";
    Expect.replace(0, Expect.find(',') + 1, IdPatched);
    EXPECT_EQ(Responses[I], Expect);
  }

  // Distinct sources do not collapse.
  std::vector<Request> Distinct;
  for (int I = 0; I != 5; ++I)
    Distinct.push_back(requestFor(static_cast<size_t>(I), I));
  serveAll(Distinct, /*MaxBatch=*/16, &St);
  EXPECT_EQ(St.Collapsed, 0u);
}

TEST_F(ServeTest, StatsReportCoalescing) {
  std::vector<Request> Reqs;
  for (int I = 0; I != 6; ++I)
    Reqs.push_back(requestFor(static_cast<size_t>(I), I));
  ServerStats St;
  serveAll(Reqs, /*MaxBatch=*/16, &St);
  std::string Line = statsResponse(1, St);
  EXPECT_NE(Line.find("\"requests\":6"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"max_coalesced\":"), std::string::npos);
  // Per-request timing fields are always present; wall-clock values are
  // nondeterministic, so only the invariants are pinned.
  EXPECT_NE(Line.find("\"queue_wait_mean_us\":"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"queue_wait_max_us\":"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"predict_mean_us\":"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"predict_max_us\":"), std::string::npos) << Line;
  EXPECT_GE(St.QueueWaitMaxUs * St.Requests, St.QueueWaitTotalUs);
  EXPECT_GE(St.PredictMaxUs * St.Requests, St.PredictTotalUs);
  EXPECT_GT(St.PredictTotalUs, 0u) << "prediction took literally no time?";
}

TEST_F(ServeTest, StatsResetZeroesCountersAfterReporting) {
  ServerOptions SO;
  SO.MaxBatch = 16;
  Server S(*Pred, *WB->U, SO);
  std::mutex Mu;
  std::vector<std::string> Responses;
  auto Collect = [&](std::string R) {
    std::lock_guard<std::mutex> L(Mu);
    Responses.push_back(std::move(R));
  };
  for (int I = 0; I != 4; ++I)
    S.submit(requestFor(static_cast<size_t>(I), I), Collect);
  Request Reset;
  Reset.Id = 50;
  Reset.M = Method::Stats;
  Reset.Reset = true;
  S.submit(Reset, Collect);
  Request Probe;
  Probe.Id = 51;
  Probe.M = Method::Stats;
  S.submit(Probe, Collect);
  S.stop();
  ASSERT_EQ(Responses.size(), 6u);
  // The resetting response reports the counters as they were...
  EXPECT_NE(Responses[4].find("\"requests\":4"), std::string::npos)
      << Responses[4];
  // ...and the next probe sees a clean slate (reset happened atomically
  // with the snapshot: requests between the two would be counted anew).
  EXPECT_NE(Responses[5].find("\"requests\":0"), std::string::npos)
      << Responses[5];
  EXPECT_NE(Responses[5].find("\"predict_mean_us\":0"), std::string::npos)
      << Responses[5];
  EXPECT_EQ(S.stats().Requests, 0u);
}

//===----------------------------------------------------------------------===//
// Overlapped serving: several batches in flight, answered in arrival order
//===----------------------------------------------------------------------===//

/// \p R under a path of its own ("v<I>/..."): variant I of a corpus file
/// is a distinct cache key and a distinct prediction.
Request variant(Request R, size_t I) {
  R.Path = "v" + std::to_string(I) + "/" + R.Path;
  return R;
}

/// What two concurrent submitters saw.
struct TwoClientRun {
  /// Responses per submitter, in the order they arrived.
  std::vector<std::string> Responses[2];
  ServerStats Stats;
};

/// Submits Reqs[0] and Reqs[1] from two threads at once to one server
/// over \p P, then drains it.
TwoClientRun serveFromTwoThreads(Predictor &P, TypeUniverse &U,
                                 const std::vector<Request> (&Reqs)[2],
                                 ServerOptions SO = {}) {
  TwoClientRun Out;
  Server S(P, U, std::move(SO));
  std::mutex Mu;
  std::vector<std::thread> Submitters;
  for (int T = 0; T != 2; ++T)
    Submitters.emplace_back([&, T] {
      for (const Request &R : Reqs[T])
        EXPECT_TRUE(S.submit(R, [&Out, &Mu, T](std::string Resp) {
          std::lock_guard<std::mutex> L(Mu);
          Out.Responses[T].push_back(std::move(Resp));
        }));
    });
  for (std::thread &T : Submitters)
    T.join();
  S.stop();
  Out.Stats = S.stats();
  return Out;
}

std::string responseId(const std::string &Resp) {
  return Resp.substr(0, Resp.find(','));
}

std::string digestOf(const std::string &Resp) {
  json::Value V;
  std::string Err;
  if (!json::parse(Resp, V, &Err))
    return "";
  return V.getString("digest", "");
}

std::string hexDigest(const std::vector<PredictionResult> &Preds) {
  return strformat("%016llx",
                   static_cast<unsigned long long>(predictionDigest(Preds)));
}

TEST_F(ServeTest, DuplicatesJoinTheBatchAlreadyInFlight) {
  // One request per batch, so a duplicate arriving while the first copy
  // is still being predicted is admitted as a batch of its own: it must
  // join that prediction (or hit the cache once it is released), never
  // embed again.
  auto Single = serveAll({requestFor(0, 0)}, /*MaxBatch=*/1);
  std::vector<Request> Reqs[2];
  for (int T = 0; T != 2; ++T) {
    for (int K = 0; K != 5; ++K)
      Reqs[T].push_back(requestFor(0, T * 5 + K));
    for (int K = 0; K != 3; ++K)
      Reqs[T].push_back(requestFor(static_cast<size_t>(1 + T * 3 + K),
                                   10 + T * 3 + K));
  }
  ServerOptions SO;
  SO.MaxBatch = 1;
  uint64_t Embeds0 = Pred->embedCalls();
  TwoClientRun Run = serveFromTwoThreads(*Pred, *WB->U, Reqs, SO);
  EXPECT_EQ(Pred->embedCalls() - Embeds0, 7u); // one source + 6 distinct
  EXPECT_EQ(Run.Stats.Collapsed + Run.Stats.CacheHits, 9u);

  int Duplicates = 0;
  for (const std::vector<std::string> &Responses : Run.Responses)
    for (const std::string &Resp : Responses) {
      int64_t Id = std::stoll(Resp.substr(Resp.find(':') + 1));
      if (Id >= 10)
        continue;
      std::string Expect = Single[0];
      Expect.replace(0, Expect.find(',') + 1,
                     "{\"id\":" + std::to_string(Id) + ",");
      EXPECT_EQ(Resp, Expect);
      ++Duplicates;
    }
  EXPECT_EQ(Duplicates, 10);
}

/// Holds the dispatcher inside its first `reload` until open(), so every
/// request submitted before that queues up behind it and the batches
/// that follow are fixed by the queue alone. Each reload then fails
/// (the artifact stays), which keeps later reloads plain barriers.
class ReloadGate {
public:
  std::function<std::shared_ptr<Predictor>(std::string *)> hook() {
    return [this](std::string *Err) -> std::shared_ptr<Predictor> {
      Opened.wait();
      *Err = "barrier only";
      return nullptr;
    };
  }
  void open() { Opening.set_value(); }

private:
  std::promise<void> Opening;
  std::shared_future<void> Opened = Opening.get_future().share();
};

Request reloadRequest(int64_t Id) {
  Request R;
  R.Id = Id;
  R.M = Method::Reload;
  return R;
}

/// Serves \p Trace behind a ReloadGate: a gated reload first, then the
/// trace, answered in order. With MaxBatch = 2 and two batches allowed in
/// flight, a run of three predicts is admitted as two overlapping
/// batches, so the second joins what the first is predicting.
std::vector<std::string> serveGated(Predictor &P, TypeUniverse &U,
                                    ServerOptions SO,
                                    const std::vector<Request> &Trace,
                                    ServerStats *OutStats) {
  ReloadGate Gate;
  SO.OnReload = Gate.hook();
  std::vector<std::string> Responses(Trace.size() + 1);
  setGlobalNumThreads(2);
  {
    Server S(P, U, SO);
    std::vector<Request> All = {reloadRequest(0)};
    All.insert(All.end(), Trace.begin(), Trace.end());
    for (size_t I = 0; I != All.size(); ++I)
      EXPECT_TRUE(S.submit(All[I], [&Responses, I](std::string R) {
        Responses[I] = std::move(R);
      }));
    Gate.open();
    S.stop();
    *OutStats = S.stats();
  }
  setGlobalNumThreads(0);
  Responses.erase(Responses.begin());
  return Responses;
}

/// Each response carries its request's id; each predict, the one-shot
/// predictSource digest.
void expectServedFromPredictSource(Predictor &P,
                                   const std::vector<Request> &Trace,
                                   const std::vector<std::string> &Responses) {
  ASSERT_EQ(Responses.size(), Trace.size());
  for (size_t I = 0; I != Trace.size(); ++I) {
    const Request &R = Trace[I];
    EXPECT_EQ(responseId(Responses[I]), "{\"id\":" + std::to_string(R.Id));
    if (R.M == Method::Predict) {
      EXPECT_EQ(digestOf(Responses[I]),
                hexDigest(P.predictSource(R.Path, R.Source)))
          << R.Path;
    }
  }
}

TEST_F(ServeTest, CountersFollowADeterministicTrace) {
  // Files 0..2 under their own ids; 90+ are barriers.
  std::vector<Request> Trace = {
      requestFor(0, 1), requestFor(1, 2), // batch: two misses
      requestFor(0, 3),                   // next batch: joins file 0
      reloadRequest(90),
      requestFor(0, 4), requestFor(0, 5), // one hit, one duplicate
      reloadRequest(91),
      requestFor(2, 6), // miss; the LRU holds 2, so file 1 goes
      reloadRequest(92),
      requestFor(1, 7), // miss again; file 0 goes
  };
  ServerOptions SO;
  SO.MaxBatch = 2;
  SO.CacheEntries = 2;
  ServerStats St;
  uint64_t Embeds0 = Pred->embedCalls();
  std::vector<std::string> Responses =
      serveGated(*Pred, *WB->U, SO, Trace, &St);
  EXPECT_EQ(Pred->embedCalls() - Embeds0, 4u);
  EXPECT_EQ(St.Requests, 7u);
  EXPECT_EQ(St.Batches, 5u);
  EXPECT_EQ(St.CacheHits, 1u);
  EXPECT_EQ(St.CacheMisses, 4u);
  EXPECT_EQ(St.Collapsed, 2u);
  EXPECT_EQ(St.CacheEvictions, 2u);
  expectServedFromPredictSource(*Pred, Trace, Responses);

  // Cache off: the same overlap embeds file 0 twice (no join), only an
  // in-batch duplicate collapses, and the cache counters stay 0.
  Trace = {requestFor(0, 1), requestFor(1, 2), requestFor(0, 3),
           reloadRequest(90), requestFor(2, 4), requestFor(2, 5)};
  SO.CacheEntries = 0;
  Embeds0 = Pred->embedCalls();
  Responses = serveGated(*Pred, *WB->U, SO, Trace, &St);
  EXPECT_EQ(Pred->embedCalls() - Embeds0, 4u);
  EXPECT_EQ(St.Requests, 5u);
  EXPECT_EQ(St.Batches, 3u);
  EXPECT_EQ(St.Collapsed, 1u);
  EXPECT_EQ(St.CacheHits, 0u);
  EXPECT_EQ(St.CacheMisses, 0u);
  EXPECT_EQ(St.CacheEvictions, 0u);
  expectServedFromPredictSource(*Pred, Trace, Responses);
}

TEST_F(ServeTest, RejectedFileFailsAloneInItsBatch) {
  // A file the parser rejects and a valid one, forced into one batch:
  // the rejection is that file's outcome, and its batch mate is served.
  std::string Deep = "x = " + std::string(20000, '(') + "1" +
                     std::string(20000, ')') + "\n";
  Request Bad;
  Bad.Id = 1;
  Bad.M = Method::Predict;
  Bad.Path = "deep.py";
  Bad.Source = Deep;
  Request Good = requestFor(0, 2);
  ServerStats St;
  std::vector<std::string> Responses =
      serveGated(*Pred, *WB->U, ServerOptions(), {Bad, Good}, &St);
  EXPECT_EQ(St.Batches, 1u);
  EXPECT_EQ(Responses[0].rfind("{\"id\":1,\"ok\":false,", 0), 0u)
      << Responses[0];
  EXPECT_NE(Responses[0].find("deep.py:1: nesting deeper than"),
            std::string::npos)
      << Responses[0];
  EXPECT_EQ(responseId(Responses[1]), "{\"id\":2");
  EXPECT_EQ(digestOf(Responses[1]),
            hexDigest(Pred->predictSource(Good.Path, Good.Source)))
      << Responses[1].substr(0, 200);
}

TEST_F(ServeTest, OverlappedServingKeepsOrderAndBits) {
  std::vector<Request> Reqs[2];
  for (int T = 0; T != 2; ++T)
    for (int K = 0; K != 20; ++K) {
      size_t I = static_cast<size_t>(T * 20 + K);
      Reqs[T].push_back(variant(requestFor(I, T * 100 + K), I));
    }

  setGlobalNumThreads(1);
  TwoClientRun Serial = serveFromTwoThreads(*Pred, *WB->U, Reqs);
  setGlobalNumThreads(4);
  TwoClientRun Overlapped = serveFromTwoThreads(*Pred, *WB->U, Reqs);
  setGlobalNumThreads(0);
  EXPECT_EQ(Serial.Stats.MaxInFlight, 1u);

  for (int T = 0; T != 2; ++T) {
    ASSERT_EQ(Overlapped.Responses[T].size(), Reqs[T].size());
    // Identical bytes at 1 and 4 threads, in each submitter's order.
    EXPECT_EQ(Overlapped.Responses[T], Serial.Responses[T]);
    for (size_t K = 0; K != Reqs[T].size(); ++K) {
      const Request &R = Reqs[T][K];
      const std::string &Resp = Overlapped.Responses[T][K];
      EXPECT_EQ(responseId(Resp), "{\"id\":" + std::to_string(R.Id));
      std::string Want = hexDigest(Pred->predictSource(R.Path, R.Source));
      EXPECT_EQ(digestOf(Resp), Want) << R.Path;
    }
  }
}

TEST_F(ServeTest, StatsSplitStaysWithinEachBatchUnderOverlap) {
  std::vector<Request> Reqs[2];
  for (int T = 0; T != 2; ++T)
    for (int K = 0; K != 12; ++K) {
      size_t I = static_cast<size_t>(T * 12 + K);
      Reqs[T].push_back(variant(requestFor(I, T * 100 + K), I));
    }
  // One request per batch: up to four batches overlap.
  ServerOptions SO;
  SO.MaxBatch = 1;
  setGlobalNumThreads(4);
  TwoClientRun Run = serveFromTwoThreads(*Pred, *WB->U, Reqs, SO);
  const ServerStats &St = Run.Stats;
  EXPECT_EQ(St.Requests, 24u);
  // Each batch's split comes from its own prediction call, so it can
  // never exceed the batch's own predict time, however batches overlap.
  EXPECT_LE(St.EmbedTotalUs + St.KnnTotalUs, St.PredictTotalUs);
  EXPECT_GE(St.MaxInFlight, 1u);
  EXPECT_LE(St.MaxInFlight, static_cast<uint64_t>(globalNumThreads()));
  std::string Line = statsResponse(1, St);
  EXPECT_NE(Line.find("\"max_in_flight\":" + std::to_string(St.MaxInFlight)),
            std::string::npos)
      << Line;
  setGlobalNumThreads(0);
}

TEST_F(ServeTest, OverlappedClassifierServingMatchesPredictFile) {
  // A Graph classifier and a Path kNN predictor. Neither encoder keeps
  // state between embeds, so both overlap up to the worker count and
  // still answer every file as one-shot prediction does.
  auto TrainTiny = [](EncoderKind E, LossKind L) {
    ModelConfig MC;
    MC.Encoder = E;
    MC.Loss = L;
    MC.HiddenDim = 8;
    MC.TimeSteps = 2;
    TrainOptions TO;
    TO.Epochs = 1;
    TO.BatchFiles = 4;
    std::unique_ptr<TypeModel> M = makeModel(MC, WB->DS, *WB->U);
    trainModel(*M, WB->DS.Train, TO);
    return M;
  };
  std::unique_ptr<TypeModel> Classifier =
      TrainTiny(EncoderKind::Graph, LossKind::Class);
  std::unique_ptr<TypeModel> PathKnn =
      TrainTiny(EncoderKind::Path, LossKind::Typilus);
  std::vector<const FileExample *> MapFiles;
  for (const FileExample &F : WB->DS.Train)
    MapFiles.push_back(&F);
  Predictor Preds[] = {Predictor::classifier(*Classifier),
                       Predictor::knn(*PathKnn, MapFiles)};

  std::vector<Request> Reqs[2];
  for (int T = 0; T != 2; ++T)
    for (int K = 0; K != 10; ++K) {
      size_t I = static_cast<size_t>(T * 10 + K);
      Reqs[T].push_back(variant(requestFor(I, T * 100 + K), I));
    }
  for (Predictor &P : Preds) {
    SCOPED_TRACE(encoderKindName(P.model().config().Encoder));
    setGlobalNumThreads(4);
    TwoClientRun Run = serveFromTwoThreads(P, *WB->U, Reqs);
    setGlobalNumThreads(0);
    EXPECT_LE(Run.Stats.MaxInFlight, 4u);
    for (int T = 0; T != 2; ++T) {
      ASSERT_EQ(Run.Responses[T].size(), Reqs[T].size());
      for (size_t K = 0; K != Reqs[T].size(); ++K) {
        const Request &R = Reqs[T][K];
        const std::string &Resp = Run.Responses[T][K];
        FileExample Ex = buildExample(CorpusFile{R.Path, R.Source}, *WB->U, {});
        EXPECT_EQ(responseId(Resp), "{\"id\":" + std::to_string(R.Id));
        EXPECT_EQ(digestOf(Resp), hexDigest(P.predictFile(Ex))) << R.Path;
        EXPECT_EQ(digestOf(Resp),
                  hexDigest(P.predictSource(R.Path, R.Source)))
            << R.Path;
      }
    }
  }
}

} // namespace
