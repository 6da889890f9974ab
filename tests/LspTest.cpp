//===- tests/LspTest.cpp - LSP front-end tests ---------------------------------===//
//
// The editor front-end's contract, bottom-up: Content-Length framing
// (split reads, CRLF and bare-LF separators, oversized-body recovery,
// header caps), URI mapping, and a full JSON-RPC session over a
// socketpair — initialize through didOpen/didChange/didClose to
// shutdown/exit — whose published digests must match predictSource over
// the same text (the bit-identity the CI smoke test pins end to end).
//
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"
#include "lsp/LspServer.h"
#include "lsp/Transport.h"
#include "support/Socket.h"
#include "support/Str.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace typilus;
using namespace typilus::lsp;

//===----------------------------------------------------------------------===//
// FrameReader: the base-protocol framing layer
//===----------------------------------------------------------------------===//

namespace {

/// A pipe with the test on the write end and a FrameReader on the read
/// end. Writes are split however each test likes, so partial-frame
/// delivery is covered.
struct FramePipe {
  FramePipe(size_t MaxBody = kDefaultMaxFrameBytes) {
    int Fds[2];
    EXPECT_EQ(pipe(Fds), 0);
    Rd = FileDesc(Fds[0]);
    Wr = FileDesc(Fds[1]);
    Reader = std::make_unique<FrameReader>(Rd.fd(), MaxBody);
  }
  void send(std::string_view Bytes) {
    ASSERT_TRUE(writeAll(Wr.fd(), Bytes));
  }
  FrameReader::Status next(std::string &Out) { return Reader->next(Out); }

  FileDesc Rd, Wr;
  std::unique_ptr<FrameReader> Reader;
};

} // namespace

TEST(FrameReaderTest, SingleFrameRoundTrips) {
  FramePipe P;
  P.send(frameMessage("{\"jsonrpc\":\"2.0\"}"));
  std::string Body;
  ASSERT_EQ(P.next(Body), FrameReader::Status::Message);
  EXPECT_EQ(Body, "{\"jsonrpc\":\"2.0\"}");
}

TEST(FrameReaderTest, CoalescedAndSplitFrames) {
  FramePipe P;
  // Two frames in one write, the second split mid-header and mid-body
  // across writes: the reader must reassemble without losing sync.
  std::string A = frameMessage("first");
  std::string B = frameMessage("second message body");
  P.send(A + B.substr(0, 9));
  std::string Body;
  ASSERT_EQ(P.next(Body), FrameReader::Status::Message);
  EXPECT_EQ(Body, "first");
  P.send(B.substr(9, 15));
  P.send(B.substr(24));
  ASSERT_EQ(P.next(Body), FrameReader::Status::Message);
  EXPECT_EQ(Body, "second message body");
}

TEST(FrameReaderTest, AcceptsBareLfSeparators) {
  // Hand-rolled clients (printf pipelines) often emit \n\n instead of
  // the spec's \r\n\r\n; both are accepted.
  FramePipe P;
  P.send("Content-Length: 5\n\nhello");
  std::string Body;
  ASSERT_EQ(P.next(Body), FrameReader::Status::Message);
  EXPECT_EQ(Body, "hello");
}

TEST(FrameReaderTest, HeaderFieldsAreCaseInsensitive) {
  FramePipe P;
  P.send("CONTENT-LENGTH: 4\r\nContent-Type: application/json\r\n\r\nbody");
  std::string Body;
  ASSERT_EQ(P.next(Body), FrameReader::Status::Message);
  EXPECT_EQ(Body, "body");
}

TEST(FrameReaderTest, OversizedBodyIsDiscardedFrameAligned) {
  FramePipe P(/*MaxBody=*/16);
  std::string Big(100, 'x');
  P.send(frameMessage(Big));
  P.send(frameMessage("ok"));
  std::string Body;
  // The oversized frame surfaces as TooLarge once its body has been
  // drained; the next frame is intact.
  ASSERT_EQ(P.next(Body), FrameReader::Status::TooLarge);
  ASSERT_EQ(P.next(Body), FrameReader::Status::Message);
  EXPECT_EQ(Body, "ok");
}

TEST(FrameReaderTest, MissingContentLengthIsAnError) {
  FramePipe P;
  P.send("Content-Type: application/json\r\n\r\n{}");
  std::string Body;
  EXPECT_EQ(P.next(Body), FrameReader::Status::Error);
}

TEST(FrameReaderTest, UnboundedHeaderSectionIsAnError) {
  FramePipe P;
  // A peer that never sends the blank line cannot grow the buffer past
  // the header cap.
  std::string Junk = "X-Filler: " + std::string(kMaxHeaderBytes, 'y');
  P.send(Junk);
  std::string Body;
  EXPECT_EQ(P.next(Body), FrameReader::Status::Error);
}

TEST(FrameReaderTest, EofAfterCompleteFrames) {
  FramePipe P;
  P.send(frameMessage("tail"));
  P.Wr.reset(); // close the write end
  std::string Body;
  ASSERT_EQ(P.next(Body), FrameReader::Status::Message);
  EXPECT_EQ(Body, "tail");
  EXPECT_EQ(P.next(Body), FrameReader::Status::Eof);
}

TEST(FrameReaderTest, PartialTrailingFrameIsDroppedAtEof) {
  FramePipe P;
  P.send("Content-Length: 100\r\n\r\nonly a little");
  P.Wr.reset();
  std::string Body;
  EXPECT_EQ(P.next(Body), FrameReader::Status::Eof);
}

//===----------------------------------------------------------------------===//
// URI mapping
//===----------------------------------------------------------------------===//

TEST(LspUriTest, RoundTripsPlainPaths) {
  EXPECT_EQ(pathToUri("/proj/a.py"), "file:///proj/a.py");
  EXPECT_EQ(uriToPath("file:///proj/a.py"), "/proj/a.py");
  EXPECT_EQ(uriToPath(pathToUri("/proj/pkg/util.py")), "/proj/pkg/util.py");
}

TEST(LspUriTest, PercentEncodingRoundTrips) {
  std::string Path = "/proj/with space/a#b.py";
  std::string Uri = pathToUri(Path);
  EXPECT_EQ(Uri.find(' '), std::string::npos);
  EXPECT_EQ(Uri.find('#'), std::string::npos);
  EXPECT_EQ(uriToPath(Uri), Path);
}

TEST(LspUriTest, NonFileUrisPassThrough) {
  EXPECT_EQ(uriToPath("untitled:Untitled-1"), "untitled:Untitled-1");
}

//===----------------------------------------------------------------------===//
// Full session over a socketpair
//===----------------------------------------------------------------------===//

namespace {

/// One tiny trained workbench per suite (training dominates the cost).
class LspSessionTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    CorpusConfig CC;
    CC.NumFiles = 14;
    CC.NumUdts = 8;
    DatasetConfig DC;
    DC.CommonThreshold = 2;
    WB = new Workbench(Workbench::make(CC, DC));
    ModelConfig MC;
    MC.HiddenDim = 8;
    MC.TimeSteps = 2;
    TrainOptions TO;
    TO.Epochs = 1;
    TO.BatchFiles = 4;
    Model = makeModel(MC, WB->DS, *WB->U).release();
    trainModel(*Model, WB->DS.Train, TO);
  }
  static void TearDownTestSuite() {
    delete Model;
    delete WB;
    Model = nullptr;
    WB = nullptr;
  }

  static Predictor makePredictor() {
    std::vector<const FileExample *> MapFiles;
    for (const FileExample &F : WB->DS.Train)
      MapFiles.push_back(&F);
    Predictor P = Predictor::knn(*Model, MapFiles);
    P.setUniverse(*WB->U);
    return P;
  }

  static Workbench *WB;
  static TypeModel *Model;
};

Workbench *LspSessionTest::WB = nullptr;
TypeModel *LspSessionTest::Model = nullptr;

/// Runs LspServer::run over one end of a socketpair; the test drives the
/// client end with framed JSON-RPC and reads framed server messages.
class SessionHarness {
public:
  explicit SessionHarness(Predictor &P, LspOptions O = {}) {
    int Fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    Client = FileDesc(Fds[0]);
    ServerEnd = FileDesc(Fds[1]);
    int Fd = ServerEnd.fd();
    Srv = std::make_unique<LspServer>(
        P, [Fd](std::string Framed) { (void)writeAll(Fd, Framed); }, O);
    Runner = std::thread([this, Fd] { ExitCode = Srv->run(Fd); });
  }

  ~SessionHarness() {
    Client.reset();
    if (Runner.joinable())
      Runner.join();
  }

  void request(std::string_view Body) {
    ASSERT_TRUE(writeAll(Client.fd(), frameMessage(Body)));
  }

  /// Next framed message from the server, parsed.
  json::Value read() {
    if (!R)
      R = std::make_unique<FrameReader>(Client.fd());
    std::string Body;
    FrameReader::Status St;
    do
      St = R->next(Body);
    while (St == FrameReader::Status::Interrupted);
    EXPECT_EQ(St, FrameReader::Status::Message);
    json::Value V;
    std::string Err;
    EXPECT_TRUE(json::parse(Body, V, &Err)) << Body << " -- " << Err;
    return V;
  }

  /// Reads until a message with \p Method arrives (skipping others);
  /// fails the test after a bounded number of frames.
  json::Value readUntil(std::string_view Method) {
    for (int I = 0; I != 16; ++I) {
      json::Value V = read();
      if (V.getString("method", "") == Method)
        return V;
    }
    ADD_FAILURE() << "no " << Method << " message arrived";
    return json::Value();
  }

  /// Joins the server thread (after the client closes or exit is sent)
  /// and returns LspServer::run's exit code.
  int finish() {
    Client.reset();
    if (Runner.joinable())
      Runner.join();
    return ExitCode;
  }

private:
  FileDesc Client, ServerEnd;
  std::unique_ptr<LspServer> Srv;
  std::unique_ptr<FrameReader> R;
  std::thread Runner;
  int ExitCode = -1;
};

/// didOpen/didChange request bodies over \p Source (JSON-escaped).
std::string didOpenBody(const std::string &Uri, const std::string &Source) {
  std::string B = "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didOpen\","
                  "\"params\":{\"textDocument\":{\"uri\":\"" +
                  Uri + "\",\"languageId\":\"python\",\"version\":1,\"text\":";
  json::appendQuoted(B, Source);
  B += "}}}";
  return B;
}

std::string didChangeBody(const std::string &Uri, const std::string &Source) {
  std::string B =
      "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didChange\","
      "\"params\":{\"textDocument\":{\"uri\":\"" +
      Uri + "\",\"version\":2},\"contentChanges\":[{\"text\":";
  json::appendQuoted(B, Source);
  B += "}]}}";
  return B;
}

} // namespace

TEST_F(LspSessionTest, FullSessionPublishesMatchingDigests) {
  Predictor P = makePredictor();
  // The reference digests, computed through the same entry point the CLI
  // uses — over a predictor the session never touches.
  Predictor Ref = makePredictor();
  const CorpusFile &Doc = WB->Files[WB->Files.size() - 1];
  std::string Expect = strformat(
      "%016llx", static_cast<unsigned long long>(predictionDigest(
                     Ref.predictSource(Doc.Path, Doc.Source))));
  std::string Edited = Doc.Source + "\n\ndef appended(x: int) -> int:\n"
                                    "    y = x\n    return y\n";
  std::string ExpectEdited = strformat(
      "%016llx", static_cast<unsigned long long>(predictionDigest(
                     Ref.predictSource(Doc.Path, Edited))));

  SessionHarness H(P);
  H.request("{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"initialize\","
            "\"params\":{\"capabilities\":{}}}");
  json::Value Init = H.read();
  ASSERT_NE(Init.find("result"), nullptr);
  const json::Value *Caps = Init.find("result")->find("capabilities");
  ASSERT_NE(Caps, nullptr);
  EXPECT_EQ(Caps->getInt("textDocumentSync", -1), 1);
  H.request("{\"jsonrpc\":\"2.0\",\"method\":\"initialized\",\"params\":{}}");

  // didOpen: diagnostics + the typilus/types digest, which must equal
  // `typilus_cli predict --source` over the same bytes.
  std::string Uri = pathToUri(Doc.Path);
  uint64_t Embeds = P.embedCalls();
  H.request(didOpenBody(Uri, Doc.Source));
  json::Value Diags = H.readUntil("textDocument/publishDiagnostics");
  EXPECT_EQ(Diags.find("params")->getString("uri", ""), Uri);
  json::Value Types = H.readUntil("typilus/types");
  const json::Value *TP = Types.find("params");
  ASSERT_NE(TP, nullptr);
  EXPECT_EQ(TP->getString("uri", ""), Uri);
  EXPECT_EQ(TP->getString("digest", ""), Expect);
  ASSERT_NE(TP->find("predictions"), nullptr);
  EXPECT_FALSE(TP->find("predictions")->array().empty());
  EXPECT_EQ(P.embedCalls(), Embeds + 1) << "didOpen must embed one file";

  // didChange with edited text: a fresh digest, again matching the
  // reference path, and again exactly one encoder pass.
  H.request(didChangeBody(Uri, Edited));
  json::Value Types2 = H.readUntil("typilus/types");
  EXPECT_EQ(Types2.find("params")->getString("digest", ""), ExpectEdited);
  EXPECT_NE(Types2.find("params")->getString("digest", ""), Expect);
  EXPECT_EQ(P.embedCalls(), Embeds + 2) << "didChange must embed one file";

  // didClose retires the document's markers and clears its diagnostics.
  H.request("{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didClose\","
            "\"params\":{\"textDocument\":{\"uri\":\"" +
            Uri + "\"}}}");
  json::Value Cleared = H.readUntil("textDocument/publishDiagnostics");
  EXPECT_TRUE(Cleared.find("params")->find("diagnostics")->array().empty());

  // Orderly shutdown: null response, then exit -> run() returns 0.
  H.request("{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"shutdown\"}");
  json::Value Shut = H.read();
  EXPECT_EQ(Shut.getInt("id", -1), 2);
  H.request("{\"jsonrpc\":\"2.0\",\"method\":\"exit\"}");
  EXPECT_EQ(H.finish(), 0);
}

TEST_F(LspSessionTest, DeeplyNestedDocumentPublishesADiagnostic) {
  // Every keystroke runs the parser: a document nesting past the cap
  // gets one Error diagnostic, and the session keeps answering.
  Predictor P = makePredictor();
  SessionHarness H(P);
  std::string Deep = "x = ";
  for (int I = 0; I != 20000; ++I)
    Deep += "(";
  Deep += "1" + std::string(20000, ')') + "\n";
  std::string Uri = pathToUri("/tmp/deep.py");
  H.request(didOpenBody(Uri, Deep));
  json::Value Diags = H.readUntil("textDocument/publishDiagnostics");
  const json::Value *List = Diags.find("params")->find("diagnostics");
  ASSERT_NE(List, nullptr);
  ASSERT_EQ(List->array().size(), 1u);
  EXPECT_EQ(List->array()[0].getInt("severity", -1), 1);
  EXPECT_NE(List->array()[0].getString("message", "").find(
                "nesting deeper than"),
            std::string::npos);
  // The same document fixed: predictions flow again.
  const CorpusFile &Doc = WB->Files.front();
  H.request(didChangeBody(Uri, Doc.Source));
  json::Value Types = H.readUntil("typilus/types");
  EXPECT_FALSE(Types.find("params")->getString("digest", "").empty());
  H.request("{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"shutdown\"}");
  EXPECT_EQ(H.read().getInt("id", -1), 2);
  H.request("{\"jsonrpc\":\"2.0\",\"method\":\"exit\"}");
  EXPECT_EQ(H.finish(), 0);
}

TEST_F(LspSessionTest, UnknownMethodGetsMethodNotFound) {
  Predictor P = makePredictor();
  SessionHarness H(P);
  H.request("{\"jsonrpc\":\"2.0\",\"id\":7,\"method\":\"workspace/symbol\"}");
  json::Value Resp = H.read();
  EXPECT_EQ(Resp.getInt("id", -1), 7);
  const json::Value *Err = Resp.find("error");
  ASSERT_NE(Err, nullptr);
  EXPECT_EQ(Err->getInt("code", 0), -32601);
}

TEST_F(LspSessionTest, MalformedJsonGetsParseError) {
  Predictor P = makePredictor();
  SessionHarness H(P);
  H.request("{\"jsonrpc\": nope");
  json::Value Resp = H.read();
  const json::Value *Err = Resp.find("error");
  ASSERT_NE(Err, nullptr);
  EXPECT_EQ(Err->getInt("code", 0), -32700);
}

TEST_F(LspSessionTest, EofWithoutShutdownExitsNonZero) {
  Predictor P = makePredictor();
  SessionHarness H(P);
  H.request("{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"initialize\","
            "\"params\":{}}");
  H.read();
  // Client vanishes without shutdown: the spec mandates a non-zero code.
  EXPECT_EQ(H.finish(), 1);
}
