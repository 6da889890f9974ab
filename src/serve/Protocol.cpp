//===- serve/Protocol.cpp - The serving wire protocol --------------------------===//

#include "serve/Protocol.h"

#include "pyfront/SymbolTable.h"
#include "serve/Dispatch.h"
#include "support/Json.h"
#include "support/Str.h"

#include <climits>

using namespace typilus;
using namespace typilus::serve;

namespace {

/// The one method-name table: methodName, methodFromName and
/// parseRequest all read it.
constexpr std::pair<Method, const char *> kMethodNames[] = {
    {Method::Predict, "predict"},   {Method::Ping, "ping"},
    {Method::Stats, "stats"},       {Method::Reload, "reload"},
    {Method::Shutdown, "shutdown"},
};

} // namespace

const char *serve::methodName(Method M) {
  for (const auto &[Meth, Name] : kMethodNames)
    if (Meth == M)
      return Name;
  return "ping";
}

bool serve::methodFromName(std::string_view Name, Method *Out) {
  for (const auto &[Meth, MName] : kMethodNames)
    if (Name == MName) {
      *Out = Meth;
      return true;
    }
  return false;
}

bool serve::parseRequest(std::string_view Line, Request &Out,
                         std::string *Err) {
  Out = Request();
  json::Value V;
  if (!json::parse(Line, V, Err))
    return false;
  if (!V.isObject()) {
    if (Err)
      *Err = "request must be a JSON object";
    return false;
  }
  // Recover the id first so even a bad method/field error correlates.
  const json::Value *Id = V.find("id");
  std::optional<int64_t> IdNum = Id ? Id->asInt() : std::nullopt;
  if (!IdNum) {
    if (Err)
      *Err = "request needs a numeric \"id\" (an integer in int64 range)";
    return false;
  }
  Out.Id = *IdNum;

  std::string M = V.getString("method", "");
  if (!methodFromName(M, &Out.M)) {
    if (Err)
      *Err = M.empty() ? "request needs a \"method\"" : unknownMethodError(M);
    return false;
  }

  if (Out.M == Method::Predict) {
    const json::Value *Src = V.find("source");
    if (!Src || !Src->isString()) {
      if (Err)
        *Err = "predict needs a string \"source\"";
      return false;
    }
    Out.Source = Src->asString();
    Out.Path = V.getString("path", "<request>");
    if (const json::Value *Limit = V.find("limit")) {
      std::optional<int64_t> L = Limit->asInt(-1, INT_MAX);
      if (!L) {
        if (Err)
          *Err = "predict \"limit\" must be an integer in [-1, " +
                 std::to_string(INT_MAX) + "]";
        return false;
      }
      Out.Limit = static_cast<int>(*L);
    }
  }
  if (Out.M == Method::Stats)
    Out.Reset = V.getBool("reset", false);
  return true;
}

//===----------------------------------------------------------------------===//
// Response serialization
//===----------------------------------------------------------------------===//

namespace {

std::string head(int64_t Id, bool Ok) {
  std::string R = "{\"id\":" + std::to_string(Id);
  R += Ok ? ",\"ok\":true" : ",\"ok\":false";
  return R;
}

} // namespace

std::string serve::errorResponse(int64_t Id, std::string_view Error) {
  std::string R = head(Id, false);
  R += ",\"error\":";
  json::appendQuoted(R, Error);
  R += "}\n";
  return R;
}

std::string serve::pongResponse(int64_t Id) {
  return head(Id, true) +
         ",\"pong\":true,\"protocol\":" + std::to_string(kProtocolVersion) +
         "}\n";
}

std::string serve::statsResponse(int64_t Id, const ServerStats &S) {
  // Means are integer µs (totals / requests, rounded down): the wire
  // format stays stable however the counters are accumulated.
  uint64_t N = S.Requests ? S.Requests : 1;
  return head(Id, true) + ",\"requests\":" + std::to_string(S.Requests) +
         ",\"batches\":" + std::to_string(S.Batches) +
         ",\"max_coalesced\":" + std::to_string(S.MaxCoalesced) +
         ",\"max_in_flight\":" + std::to_string(S.MaxInFlight) +
         ",\"collapsed\":" + std::to_string(S.Collapsed) +
         ",\"queue_wait_mean_us\":" + std::to_string(S.QueueWaitTotalUs / N) +
         ",\"queue_wait_max_us\":" + std::to_string(S.QueueWaitMaxUs) +
         ",\"predict_mean_us\":" + std::to_string(S.PredictTotalUs / N) +
         ",\"predict_max_us\":" + std::to_string(S.PredictMaxUs) +
         ",\"embed_mean_us\":" + std::to_string(S.EmbedTotalUs / N) +
         ",\"knn_mean_us\":" + std::to_string(S.KnnTotalUs / N) +
         ",\"cache_hits\":" + std::to_string(S.CacheHits) +
         ",\"cache_misses\":" + std::to_string(S.CacheMisses) +
         ",\"cache_evictions\":" + std::to_string(S.CacheEvictions) +
         ",\"overloaded\":" + std::to_string(S.Overloaded) +
         ",\"reloads\":" + std::to_string(S.Reloads) + "}\n";
}

std::string serve::shutdownResponse(int64_t Id) {
  return head(Id, true) + ",\"shutting_down\":true}\n";
}

std::string serve::reloadResponse(int64_t Id) {
  return head(Id, true) + ",\"reloaded\":true}\n";
}

std::string serve::overloadedResponse(int64_t Id, int MaxQueue) {
  return head(Id, false) +
         ",\"overloaded\":true,\"error\":\"overloaded: predict queue is at "
         "--max-queue (" +
         std::to_string(MaxQueue) + ")\"}\n";
}

std::string serve::predictResponse(int64_t Id, std::string_view Path,
                                   const std::vector<PredictionResult> &Preds,
                                   int Limit) {
  std::string R = head(Id, true);
  R += ",\"path\":";
  json::appendQuoted(R, Path);
  // The digest spans every candidate of every symbol regardless of
  // Limit, mirroring `typilus_cli predict` (whose --limit also only
  // truncates what is printed).
  R += ",\"digest\":";
  json::appendQuoted(R, strformat("%016llx", static_cast<unsigned long long>(
                                                 predictionDigest(Preds))));
  R += ",\"predictions\":[";
  bool FirstSym = true;
  for (const PredictionResult &P : Preds) {
    if (!FirstSym)
      R += ",";
    FirstSym = false;
    R += "{\"symbol\":";
    json::appendQuoted(R, P.SymbolName);
    R += ",\"kind\":";
    json::appendQuoted(R, symbolKindName(P.Kind));
    R += ",\"target\":" + std::to_string(P.TargetIdx);
    R += ",\"node\":" + std::to_string(P.NodeIdx);
    R += ",\"candidates\":[";
    size_t Keep = Limit >= 0
                      ? std::min(P.Candidates.size(), static_cast<size_t>(Limit))
                      : P.Candidates.size();
    for (size_t C = 0; C != Keep; ++C) {
      if (C)
        R += ",";
      R += "{\"type\":";
      json::appendQuoted(R, P.Candidates[C].Type->str());
      R += ",\"prob\":";
      json::appendNumber(R, P.Candidates[C].Prob);
      R += "}";
    }
    R += "]}";
  }
  R += "]}\n";
  return R;
}
