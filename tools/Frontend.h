//===- tools/Frontend.h - The front end the three tools share ---*- C++ -*-===//
//
// typilus_cli, typilus_serve and typilus_lsp each declare a flag table
// (support/Flags.h) and then need the same few steps: parse the command
// line strictly, open an artifact with the shared query knobs, print
// what was loaded, and (the two daemons) stop cleanly on a signal.
//
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_TOOLS_FRONTEND_H
#define TYPILUS_TOOLS_FRONTEND_H

#include "core/Predictor.h"
#include "support/Flags.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

namespace typilus {

/// Parses Argv[First..Argc) against \p Table. On a bad argument prints
/// one "error: ..." line to stderr and returns false; the tool then
/// exits 2.
bool parseCommandLine(const std::vector<Flag> &Table, int Argc, char **Argv,
                      int First);

/// Prints "error: <Err>" to stderr. \returns 1, the tools' failure exit.
int fail(const std::string &Err);

/// Loads the artifact at \p Path and applies the query knobs every tool
/// takes: \p Threads caps kNN parallelism (0 = the whole pool) and
/// \p EfSearch > 0 sets the HNSW query budget (no rebuild). \p Reader,
/// when given, keeps the opened archive for callers that read chunks of
/// their own. \returns null with \p Err set on failure.
std::unique_ptr<Predictor> openArtifact(const std::string &Path, int Threads,
                                        int EfSearch, std::string *Err,
                                        ArchiveReader *Reader = nullptr);

/// "loaded PATH (graph/typilus, D=32, kNN<Extra>)".
std::string loadedBanner(const std::string &Path, Predictor &P,
                         const std::string &Extra = "");

/// The daemons' stop pipe. SIGTERM and SIGINT (plus SIGHUP when
/// \p CatchHup) set a flag and write one byte to a self-pipe, so a poll
/// on stopPipeFd() wakes; the handlers do nothing async-signal-unsafe.
/// SIGPIPE is ignored. \returns false, after perror, when the pipe
/// cannot be made.
bool installStopPipe(bool CatchHup);
/// The pipe's read end.
int stopPipeFd();
/// Set once a stop is requested, by a signal or by requestStop().
const std::atomic<bool> &stopRequested();
/// Requests a stop from inside the process (a `shutdown` request).
void requestStop();
/// Empties the pipe after a wake. \returns true when a SIGHUP arrived
/// since the last call.
bool drainStopPipe();

} // namespace typilus

#endif // TYPILUS_TOOLS_FRONTEND_H
