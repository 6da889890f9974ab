//===- lsp/LspServer.h - JSON-RPC language-server session ---------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The editor front-end over the PR-9 incremental loop: a JSON-RPC 2.0
/// session (Content-Length framing, lsp/Transport.h) that keeps one
/// Predictor's τmap in sync with the documents an editor has open.
/// `didOpen`/`didChange` route the full document text through
/// `Predictor::annotateIncremental` — tombstone the file's markers,
/// re-embed *only that file*, answer through the shared query kernel —
/// and publish the predictions two ways:
///
///  - `textDocument/publishDiagnostics`: one Hint per confident
///    prediction (an inlay-hint stand-in every client renders), one
///    Warning per confident disagreement with an existing annotation.
///    When the checker gate is on, a prediction whose substitution
///    introduces new type errors (the Sec. 6.3 protocol) is suppressed;
///  - `typilus/types`: a custom notification carrying every prediction
///    plus its FNV-1a digest. In a single-document session that is the
///    digest `typilus_cli predict --source` prints for the same text.
///    Other open documents fold their annotations into the τmap, so
///    their markers can move the answer (ROADMAP: "One answer per
///    workspace").
///
/// `didClose` retires the document's markers. Methods dispatch through
/// a serve::MethodRegistry, with the unknown-method error text the NDJSON
/// daemon also answers with (JSON-RPC MethodNotFound). The session
/// is single-threaded by design: one editor, one loop, no locks.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_LSP_LSPSERVER_H
#define TYPILUS_LSP_LSPSERVER_H

#include "core/Predictor.h"
#include "lsp/Transport.h"
#include "serve/Dispatch.h"
#include "support/Json.h"

#include <atomic>
#include <functional>
#include <memory>
#include <string>

namespace typilus {

class TypeHierarchy;

namespace lsp {

struct LspOptions {
  /// Predictions below this confidence are not published (neither as
  /// hints nor in disagreement warnings); typilus/types still carries
  /// them so clients can apply their own threshold.
  double MinConfidence = 0.5;
  /// Gate published predictions through checker/ (Sec. 6.3): substitute
  /// the predicted annotation, re-check, suppress on new errors. Files
  /// that fail the checker before substitution publish ungated.
  bool CheckerGate = true;
  /// pytype-like local inference inside the gate (CheckerOptions).
  bool InferLocals = false;
  /// Per-message body cap handed to FrameReader.
  size_t MaxFrameBytes = kDefaultMaxFrameBytes;
};

/// One JSON-RPC session over one predictor.
class LspServer {
public:
  /// Response sink: receives one fully framed message (header + body).
  using Send = std::function<void(std::string)>;

  /// \p P must outlive the server and have a universe
  /// (Predictor::universe()); loaded artifacts do.
  LspServer(Predictor &P, Send Out, LspOptions O = {});
  ~LspServer();

  LspServer(const LspServer &) = delete;
  LspServer &operator=(const LspServer &) = delete;

  /// Dispatches one decoded message body. \returns false once `exit`
  /// has been received (the session is over).
  bool handle(std::string_view Body);

  /// Reads frames off \p Fd and dispatches until `exit`, EOF or an
  /// unrecoverable transport error. \p Stop + \p WakeFd preempt a
  /// blocked read (the daemon's SIGTERM self-pipe, as in serveStream).
  /// \returns the process exit code the LSP spec mandates: 0 when
  /// `shutdown` preceded the end of the session, 1 otherwise.
  int run(int Fd, const std::atomic<bool> *Stop = nullptr, int WakeFd = -1);

  /// True once `shutdown` has been received.
  bool shutdownSeen() const { return ShutdownSeen; }

private:
  using Handler =
      std::function<void(const json::Value *Id, const json::Value *Params)>;

  void registerMethods();

  // Serialization helpers. Bodies are built by hand like the NDJSON
  // protocol's responses — the messages are flat and the writer stays
  // allocation-lean.
  void sendBody(std::string Body);
  void respond(const json::Value *Id, std::string_view ResultJson);
  void respondError(const json::Value *Id, int Code, std::string_view Msg);
  void notify(std::string_view Method, std::string_view ParamsJson);

  /// didOpen/didChange: annotate \p Text and publish.
  void annotate(const std::string &Uri, const std::string &Text);

  Predictor &P;
  Send Out;
  LspOptions Opts;
  serve::MethodRegistry<Handler> Methods;
  /// Built lazily from P.universe() on the first annotate (the gate's
  /// subtyping queries).
  std::unique_ptr<TypeHierarchy> Hierarchy;
  bool ShutdownSeen = false;
  bool Exited = false;
};

/// file:// URI -> filesystem path (percent-decoding applied); non-file
/// URIs pass through unchanged so digests still key on something stable.
std::string uriToPath(std::string_view Uri);
/// Filesystem path -> file:// URI (reserved bytes percent-encoded).
std::string pathToUri(std::string_view Path);

} // namespace lsp
} // namespace typilus

#endif // TYPILUS_LSP_LSPSERVER_H
