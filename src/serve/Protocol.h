//===- serve/Protocol.h - The serving wire protocol ---------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON protocol the daemon speaks (grammar in
/// docs/ARCHITECTURE.md "Serving"). One request per line, one response
/// per line, matched by `id`; `predict` responses carry the same FNV-1a
/// digest `typilus_cli predict` prints, so serving paths are
/// digest-comparable from the shell — the bit-identity contract CI
/// enforces.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_SERVE_PROTOCOL_H
#define TYPILUS_SERVE_PROTOCOL_H

#include "core/Predictor.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace typilus {
namespace serve {

/// Protocol revision, echoed by ping. Bump on incompatible grammar
/// changes; clients may check it before issuing work.
inline constexpr int kProtocolVersion = 1;

/// Default cap on one request line; LineReader discards anything longer
/// and the daemon answers with an error (oversized-request guard).
inline constexpr size_t kDefaultMaxRequestBytes = 4u << 20;

enum class Method {
  Predict,  ///< Annotate one source file.
  Ping,     ///< Liveness + protocol version probe.
  Stats,    ///< Serving counters (requests, batches, coalescing, cache).
  Reload,   ///< Swap in a freshly loaded artifact (also SIGHUP).
  Shutdown, ///< Graceful stop: drain, respond, exit.
};

/// The wire name of \p M ("predict", "ping", ...). One table backs this,
/// methodFromName and parseRequest, so the spellings cannot drift.
const char *methodName(Method M);
/// Parses a wire name; \returns false on anything methodName never
/// produces.
bool methodFromName(std::string_view Name, Method *Out);

/// One parsed request line.
struct Request {
  int64_t Id = -1; ///< Echoed in the response; -1 when unrecoverable.
  Method M = Method::Ping;
  std::string Path;   ///< predict: file path used in results/digests.
  std::string Source; ///< predict: the file's contents.
  int Limit = -1;     ///< predict: candidate cap per symbol (-1 = all).
  bool Reset = false; ///< stats: zero the counters after reporting them.
};

/// Parses one request line. On failure \returns false, sets \p Err, and
/// leaves whatever id could be recovered in \p Out.Id so the error
/// response still correlates.
bool parseRequest(std::string_view Line, Request &Out, std::string *Err);

/// Serving counters, reported by the `stats` method.
struct ServerStats {
  uint64_t Requests = 0;     ///< Predict requests answered.
  uint64_t Batches = 0;      ///< Dispatches (== Requests when unbatched).
  uint64_t MaxCoalesced = 0; ///< Largest batch observed.
  uint64_t MaxInFlight = 0;  ///< Most batches overlapped at once.
  uint64_t Collapsed = 0;    ///< Requests answered from another request's
                             ///< prediction: a duplicate in the same
                             ///< batch, or one joining the prediction of
                             ///< an earlier batch still in flight.
  /// Per-request timing (µs), over predict requests. Queue wait is
  /// submit-to-dispatch; predict is the request's batch prediction time
  /// (parse + embed + kNN — shared by every request the batch coalesced,
  /// so the mean is per request, not per embed). Totals accumulate so
  /// the stats response can report running means alongside the maxima.
  uint64_t QueueWaitTotalUs = 0;
  uint64_t QueueWaitMaxUs = 0;
  uint64_t PredictTotalUs = 0;
  uint64_t PredictMaxUs = 0;
  /// The predict phase split per request: time inside the encoder
  /// (embedding query files) vs time probing the kNN index, from each
  /// batch's own PredictTiming (so overlapping batches never count each
  /// other's time).
  /// Attributed like PredictTotalUs — every request a batch coalesced
  /// saw its batch's full cost — so the running means sit next to
  /// predict_mean_us on the same scale. Cache hits add nothing to
  /// either: the split shows where a miss's latency actually goes
  /// (GNN forward pass vs index probe).
  uint64_t EmbedTotalUs = 0;
  uint64_t KnnTotalUs = 0;
  /// The prediction table (keyed on path + FNV-1a source digest; see
  /// Server.h). Hits (ready entries found) and misses (entries made)
  /// count once per distinct key per batch, so a 50-duplicate batch that
  /// reuses a cached prediction is one hit, not fifty. A request sharing
  /// a pending entry is neither (it counts in Collapsed).
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0;
  /// Predict requests shed with an `overloaded` error because the queue
  /// was at --max-queue when they arrived.
  uint64_t Overloaded = 0;
  /// Artifact reloads that succeeded (each also invalidated the cache).
  uint64_t Reloads = 0;
};

// Response serializers. Every response is one JSON object terminated by
// '\n', with "id" and "ok" always present.
std::string errorResponse(int64_t Id, std::string_view Error);
std::string pongResponse(int64_t Id);
std::string statsResponse(int64_t Id, const ServerStats &S);
std::string shutdownResponse(int64_t Id);
std::string reloadResponse(int64_t Id);

/// The load-shedding response: `ok:false` with an `"overloaded":true`
/// marker so clients can tell "back off and retry" apart from request
/// errors without parsing the message text.
std::string overloadedResponse(int64_t Id, int MaxQueue);

/// The predict response: per-symbol candidate lists (capped at \p Limit
/// when >= 0) plus the digest over the *full* prediction set — the same
/// value `typilus_cli predict --source` prints for this file.
std::string predictResponse(int64_t Id, std::string_view Path,
                            const std::vector<PredictionResult> &Preds,
                            int Limit);

} // namespace serve
} // namespace typilus

#endif // TYPILUS_SERVE_PROTOCOL_H
