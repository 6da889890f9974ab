//===- lsp/LspServer.cpp - JSON-RPC language-server session --------------------===//

#include "lsp/LspServer.h"

#include "checker/Checker.h"
#include "pyfront/Parser.h"
#include "support/Str.h"
#include "typesys/Hierarchy.h"

#include <algorithm>
#include <exception>

using namespace typilus;
using namespace typilus::lsp;

//===----------------------------------------------------------------------===//
// URIs
//===----------------------------------------------------------------------===//

namespace {

int hexVal(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

} // namespace

std::string typilus::lsp::uriToPath(std::string_view Uri) {
  constexpr std::string_view Scheme = "file://";
  if (Uri.substr(0, Scheme.size()) != Scheme)
    return std::string(Uri);
  Uri.remove_prefix(Scheme.size());
  std::string Path;
  Path.reserve(Uri.size());
  for (size_t I = 0; I != Uri.size(); ++I) {
    if (Uri[I] == '%' && I + 2 < Uri.size()) {
      int Hi = hexVal(Uri[I + 1]), Lo = hexVal(Uri[I + 2]);
      if (Hi >= 0 && Lo >= 0) {
        Path.push_back(static_cast<char>(Hi * 16 + Lo));
        I += 2;
        continue;
      }
    }
    Path.push_back(Uri[I]);
  }
  return Path;
}

std::string typilus::lsp::pathToUri(std::string_view Path) {
  std::string Uri = "file://";
  for (char C : Path) {
    bool Plain = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                 (C >= '0' && C <= '9') || C == '/' || C == '-' || C == '.' ||
                 C == '_' || C == '~';
    if (Plain) {
      Uri.push_back(C);
    } else {
      static const char Hex[] = "0123456789ABCDEF";
      Uri.push_back('%');
      Uri.push_back(Hex[static_cast<unsigned char>(C) >> 4]);
      Uri.push_back(Hex[static_cast<unsigned char>(C) & 0xF]);
    }
  }
  return Uri;
}

//===----------------------------------------------------------------------===//
// Serialization helpers
//===----------------------------------------------------------------------===//

namespace {

/// Echoes a request id (number, string, or null for id-less errors).
void appendId(std::string &Out, const json::Value *Id) {
  if (!Id || Id->isNull())
    Out += "null";
  else if (Id->isString())
    json::appendQuoted(Out, Id->asString());
  else
    json::appendNumber(Out, Id->asNumber());
}

/// One LSP zero-length-tolerant range on a single line.
void appendRange(std::string &Out, int Line0, int Col0, int Len) {
  Out += "{\"start\":{\"line\":" + std::to_string(Line0) +
         ",\"character\":" + std::to_string(Col0) +
         "},\"end\":{\"line\":" + std::to_string(Line0) +
         ",\"character\":" + std::to_string(Col0 + Len) + "}}";
}

} // namespace

LspServer::LspServer(Predictor &P, Send Out, LspOptions O)
    : P(P), Out(std::move(Out)), Opts(O) {
  registerMethods();
}

LspServer::~LspServer() = default;

void LspServer::sendBody(std::string Body) { Out(frameMessage(Body)); }

void LspServer::respond(const json::Value *Id, std::string_view ResultJson) {
  std::string R = "{\"jsonrpc\":\"2.0\",\"id\":";
  appendId(R, Id);
  R += ",\"result\":";
  R += ResultJson;
  R += "}";
  sendBody(std::move(R));
}

void LspServer::respondError(const json::Value *Id, int Code,
                             std::string_view Msg) {
  std::string R = "{\"jsonrpc\":\"2.0\",\"id\":";
  appendId(R, Id);
  R += ",\"error\":{\"code\":" + std::to_string(Code) + ",\"message\":";
  json::appendQuoted(R, Msg);
  R += "}}";
  sendBody(std::move(R));
}

void LspServer::notify(std::string_view Method, std::string_view ParamsJson) {
  std::string R = "{\"jsonrpc\":\"2.0\",\"method\":";
  json::appendQuoted(R, Method);
  R += ",\"params\":";
  R += ParamsJson;
  R += "}";
  sendBody(std::move(R));
}

//===----------------------------------------------------------------------===//
// Methods
//===----------------------------------------------------------------------===//

void LspServer::registerMethods() {
  Methods.add("initialize", [this](const json::Value *Id, const json::Value *) {
    // Full-document sync: didChange carries the whole text, which is what
    // annotateIncremental re-embeds anyway (the unit of the τmap swap is
    // the file).
    respond(Id, "{\"capabilities\":{\"textDocumentSync\":1},"
                "\"serverInfo\":{\"name\":\"typilus_lsp\"}}");
  });
  Methods.add("initialized",
              [](const json::Value *, const json::Value *) {});
  Methods.add("shutdown", [this](const json::Value *Id, const json::Value *) {
    ShutdownSeen = true;
    respond(Id, "null");
  });
  Methods.add("exit", [this](const json::Value *, const json::Value *) {
    Exited = true;
  });

  auto DocText = [this](const json::Value *Params) {
    // didOpen carries textDocument.text; didChange carries the full text
    // as the last contentChanges element (sync kind 1).
    std::pair<std::string, std::string> UriText;
    if (!Params)
      return UriText;
    if (const json::Value *Doc = Params->find("textDocument")) {
      UriText.first = Doc->getString("uri", "");
      UriText.second = Doc->getString("text", "");
    }
    if (const json::Value *Changes = Params->find("contentChanges"))
      if (Changes->isArray() && !Changes->array().empty())
        UriText.second = Changes->array().back().getString("text", "");
    return UriText;
  };

  Methods.add("textDocument/didOpen",
              [this, DocText](const json::Value *, const json::Value *Params) {
                auto [Uri, Text] = DocText(Params);
                if (!Uri.empty())
                  annotate(Uri, Text);
              });
  Methods.add("textDocument/didChange",
              [this, DocText](const json::Value *, const json::Value *Params) {
                auto [Uri, Text] = DocText(Params);
                if (!Uri.empty())
                  annotate(Uri, Text);
              });
  Methods.add("textDocument/didClose",
              [this, DocText](const json::Value *, const json::Value *Params) {
                auto [Uri, Text] = DocText(Params);
                (void)Text;
                if (Uri.empty())
                  return;
                P.removeMarkersForFile(uriToPath(Uri));
                std::string D = "{\"uri\":";
                json::appendQuoted(D, Uri);
                D += ",\"diagnostics\":[]}";
                notify("textDocument/publishDiagnostics", D);
              });
}

//===----------------------------------------------------------------------===//
// Annotation
//===----------------------------------------------------------------------===//

void LspServer::annotate(const std::string &Uri, const std::string &Text) {
  std::string Path = uriToPath(Uri);
  std::vector<PredictionResult> Preds;
  try {
    Preds = P.annotateIncremental(Path, Text);
  } catch (const std::exception &E) {
    // Misconfiguration (no universe / non-kNN) or a document the parser
    // rejects (nested too deep): surface it as one Error diagnostic so
    // the editor shows something.
    std::string D = "{\"uri\":";
    json::appendQuoted(D, Uri);
    D += ",\"diagnostics\":[{\"range\":";
    appendRange(D, 0, 0, 0);
    D += ",\"severity\":1,\"source\":\"typilus\",\"message\":";
    json::appendQuoted(D, E.what());
    D += "}]}";
    notify("textDocument/publishDiagnostics", D);
    return;
  }

  // Re-parse for positions and the checker gate. Symbol ids are
  // deterministic (Experiments.cpp relies on the same alignment), so
  // PredictionResult::SymbolId indexes this table.
  ParsedFile PF = parseFile(Path, Text);
  SymbolTable ST;
  buildSymbolTable(PF, ST);

  TypeUniverse *U = P.universe();
  std::unique_ptr<Checker> Gate;
  bool GateUsable = false;
  if (Opts.CheckerGate && U) {
    if (!Hierarchy)
      Hierarchy = std::make_unique<TypeHierarchy>(*U);
    Gate = std::make_unique<Checker>(*U, *Hierarchy,
                                     CheckerOptions{Opts.InferLocals});
    // Sec. 6.3 protocol: only programs that check before substitution
    // can blame a prediction for new errors.
    GateUsable = Gate->check(PF, ST).empty();
  }

  std::string Diags;   // publishDiagnostics entries
  std::string Types;   // typilus/types entries
  bool FirstDiag = true, FirstType = true;
  for (const PredictionResult &R : Preds) {
    Symbol *Sym = R.SymbolId >= 0 && static_cast<size_t>(R.SymbolId) < ST.size()
                      ? ST[static_cast<size_t>(R.SymbolId)]
                      : nullptr;
    int Line0 = 0, Col0 = 0;
    if (Sym && !Sym->OccTokens.empty()) {
      size_t Tok = static_cast<size_t>(Sym->OccTokens.front());
      if (Tok < PF.Tokens.size()) {
        Line0 = std::max(0, PF.Tokens[Tok].Line - 1);
        Col0 = std::max(0, PF.Tokens[Tok].Col - 1);
      }
    }

    TypeRef Top = R.top();
    bool Confident = Top && R.confidence() >= Opts.MinConfidence;
    bool Suppressed = false;
    if (Confident && GateUsable && Sym && Top != U->any()) {
      std::string Saved = Sym->AnnotationText;
      Sym->AnnotationText = Top->str();
      Suppressed = !Gate->check(PF, ST).empty();
      Sym->AnnotationText = Saved;
    }

    if (Confident && !Suppressed) {
      bool Disagrees = R.Truth && R.Truth != Top;
      if (!FirstDiag)
        Diags += ",";
      FirstDiag = false;
      Diags += "{\"range\":";
      appendRange(Diags, Line0, Col0,
                  static_cast<int>(R.SymbolName.size()));
      Diags += ",\"severity\":";
      Diags += Disagrees ? "2" : "4"; // Warning : Hint
      Diags += ",\"source\":\"typilus\",\"message\":";
      int Pct = static_cast<int>(R.confidence() * 100 + 0.5);
      std::string Msg = Disagrees
                            ? strformat("predicted %s (%d%%), annotated %s",
                                        Top->str().c_str(), Pct,
                                        R.Truth->str().c_str())
                            : strformat("type: %s (%d%%)",
                                        Top->str().c_str(), Pct);
      json::appendQuoted(Diags, Msg);
      Diags += "}";
    }

    if (!FirstType)
      Types += ",";
    FirstType = false;
    Types += "{\"symbol\":";
    json::appendQuoted(Types, R.SymbolName);
    Types += ",\"kind\":";
    json::appendQuoted(Types, symbolKindName(R.Kind));
    Types += ",\"target\":" + std::to_string(R.TargetIdx);
    Types += ",\"line\":" + std::to_string(Line0);
    Types += ",\"type\":";
    if (Top)
      json::appendQuoted(Types, Top->str());
    else
      Types += "null";
    Types += ",\"prob\":";
    json::appendNumber(Types, R.confidence());
    Types += Suppressed ? ",\"suppressed\":true}" : ",\"suppressed\":false}";
  }

  std::string D = "{\"uri\":";
  json::appendQuoted(D, Uri);
  D += ",\"diagnostics\":[" + Diags + "]}";
  notify("textDocument/publishDiagnostics", D);

  // The custom notification: every prediction plus the digest the CLI
  // and the NDJSON daemon print for this exact text — the per-edit
  // bit-identity probe CI asserts through.
  std::string T = "{\"uri\":";
  json::appendQuoted(T, Uri);
  T += ",\"path\":";
  json::appendQuoted(T, Path);
  T += ",\"digest\":";
  json::appendQuoted(T, strformat("%016llx", static_cast<unsigned long long>(
                                                 predictionDigest(Preds))));
  T += ",\"predictions\":[" + Types + "]}";
  notify("typilus/types", T);
}

//===----------------------------------------------------------------------===//
// Session loop
//===----------------------------------------------------------------------===//

bool LspServer::handle(std::string_view Body) {
  json::Value V;
  std::string Err;
  if (!json::parse(Body, V, &Err)) {
    respondError(nullptr, -32700, "parse error: " + Err);
    return !Exited;
  }
  if (!V.isObject()) {
    respondError(nullptr, -32600, "message must be a JSON object");
    return !Exited;
  }
  const json::Value *Id = V.find("id");
  std::string Method = V.getString("method", "");
  if (Method.empty()) {
    if (Id)
      respondError(Id, -32600, "request needs a \"method\"");
    return !Exited;
  }
  const Handler *H = Methods.find(Method);
  if (!H) {
    // Requests get MethodNotFound with the registry's uniform text;
    // unknown notifications are dropped, as the spec mandates.
    if (Id)
      respondError(Id, -32601, serve::unknownMethodError(Method));
    return !Exited;
  }
  (*H)(Id, V.find("params"));
  return !Exited;
}

int LspServer::run(int Fd, const std::atomic<bool> *Stop, int WakeFd) {
  FrameReader R(Fd, Opts.MaxFrameBytes, WakeFd);
  std::string Body;
  while (!Exited) {
    switch (R.next(Body)) {
    case FrameReader::Status::Message:
      handle(Body);
      break;
    case FrameReader::Status::TooLarge:
      respondError(nullptr, -32600, "message exceeds the frame size cap");
      break;
    case FrameReader::Status::Interrupted:
      if (Stop && Stop->load())
        return ShutdownSeen ? 0 : 1;
      break;
    case FrameReader::Status::Eof:
    case FrameReader::Status::Error:
      return ShutdownSeen ? 0 : 1;
    }
  }
  return ShutdownSeen ? 0 : 1;
}
