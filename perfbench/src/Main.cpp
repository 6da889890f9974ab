//===- perfbench/src/Main.cpp - Benchmark harness entry point -------------===//
///
/// perfbench_harness WORKLOAD --seed N --seconds S --trace 0|1
///                   --artifact PATH --cli PATH --work-dir DIR
///
/// Runs one workload and prints, as the last line of stdout, one JSON
/// object {correct, attempted, failed, metrics}: every end-to-end metric
/// for an untraced run, every per-layer metric for a traced run (0 for a
/// layer the workload does not reach). A traced run also writes its spans
/// to WORK_DIR/trace-WORKLOAD-SEED.json (Chrome trace-event format).
/// Exits 1 when any output was wrong, 2 on a usage or set-up error.
///
//===----------------------------------------------------------------------===//

#include "Helpers.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

// Keep in step with BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"throughput_per_s", "1/s"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"}, {"accuracy_pct", "%"},
};

const MetricDef kPerLayer[] = {
    {"models.embed_us", "us"},
    {"models.loss_us", "us"},
    {"nn.backward_us", "us"},
    {"nn.adam_us", "us"},
    {"knn.probe_us", "us"},
    {"knn.score_us", "us"},
    {"knn.compact_us", "us"},
    {"knn.markers", "count"},
    {"knn.dead_rows", "count"},
    {"knn.compactions", "count"},
    {"core.incremental_self_us", "us"},
    {"core.load_ms", "ms"},
    {"pyfront.parse_us", "us"},
    {"pyfront.tokens", "count"},
    {"graph.build_us", "us"},
    {"graph.nodes", "count"},
    {"graph.edges", "count"},
    {"corpus.resolve_us", "us"},
    {"corpus.get_us", "us"},
    {"checker.check_us", "us"},
    {"checker.checks_per_edit", "count"},
    {"serve.queue_wait_us", "us"},
    {"serve.service_us", "us"},
    {"serve.batch_size", "count"},
    {"serve.cache_hits", "count"},
    {"serve.repeat_share", "ratio"},
    {"support.json_us", "us"},
    {"lsp.handle_us", "us"},
    {"lsp.serialize_us", "us"},
    {"lsp.bytes_out", "bytes"},
    {"trace.root_self_us", "us"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness serve|editor|train --seed N "
               "--seconds S --trace 0|1 --artifact PATH --cli PATH "
               "--work-dir DIR\n");
  return 2;
}

template <size_t N>
void printMetrics(const MetricDef (&Defs)[N],
                  std::map<std::string, double> &Values) {
  for (size_t I = 0; I != N; ++I)
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", I ? "," : "",
                Defs[I].Name, Values[Defs[I].Name], Defs[I].Unit);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Workload = Argv[1];
  RunOptions O;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string A = Argv[I], V = Argv[I + 1];
    if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atoi(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--artifact")
      O.Artifact = V;
    else if (A == "--cli")
      O.Cli = V;
    else if (A == "--work-dir")
      O.WorkDir = V;
    else
      return usage();
  }
  if (O.Seconds < 1 || O.WorkDir.empty())
    return usage();

  RunResult R;
  try {
    if (Workload == "serve")
      R = runServe(O);
    else if (Workload == "editor")
      R = runEditor(O);
    else if (Workload == "train")
      R = runTrain(O);
    else
      return usage();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s: %s\n", Workload.c_str(), E.what());
    return 2;
  }

  if (O.Trace) {
    std::string Path =
        O.WorkDir + "/trace-" + Workload + "-" + std::to_string(O.Seed) +
        ".json";
    if (!writeChromeTrace(Path, R.Spans))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    std::vector<int64_t> Self = selfTimesNs(R.Spans);
    std::map<std::string, std::pair<double, size_t>> ByName;
    for (size_t I = 0; I != R.Spans.size(); ++I) {
      auto &E = ByName[R.Spans[I].Name];
      E.first += static_cast<double>(Self[I]) / 1e3;
      ++E.second;
    }
    std::fprintf(stderr, "self time by span (total us / spans):\n");
    for (const auto &[Name, E] : ByName)
      std::fprintf(stderr, "  %-28s %14.0f us %8zu\n", Name.c_str(), E.first,
                   E.second);
  }

  bool Correct = R.Failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  if (O.Trace)
    printMetrics(kPerLayer, R.PerLayer);
  else
    printMetrics(kEndToEnd, R.EndToEnd);
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
