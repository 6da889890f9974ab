//===- perfbench/src/Trace.cpp - Outside-in span recorder -----------------===//

#include "Trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

using namespace perfbench;

int Recorder::open(const char *Name, int64_t Rid) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Rid = Rid;
  S.Tid = Lane;
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  int Idx = static_cast<int>(Spans.size()) - 1;
  Stack.push_back(Idx);
  return Idx;
}

void Recorder::close(int Idx) {
  if (Idx < 0)
    return;
  Spans[static_cast<size_t>(Idx)].EndNs = nowNs();
  // Spans close in LIFO order (RAII); tolerate anything else by popping
  // down to the closed one.
  while (!Stack.empty()) {
    int Top = Stack.back();
    Stack.pop_back();
    if (Top == Idx)
      break;
  }
}

void Recorder::addClosed(const char *Name, int64_t StartNs, int64_t EndNs,
                         int64_t Rid) {
  if (!On)
    return;
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Rid = Rid;
  S.Tid = Lane;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  Spans.push_back(std::move(S));
}

void Recorder::append(Recorder &Other) {
  int Base = static_cast<int>(Spans.size());
  for (Span &S : Other.Spans) {
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans.push_back(std::move(S));
  }
  Other.clear();
}

bool perfbench::writeChromeTrace(const std::string &Path,
                                 const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t T0 = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.StartNs);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", F);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Span names are benchmark-chosen identifiers; no escaping needed.
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"rid\":%" PRId64
                 ",\"span\":%zu,\"parent\":%d}}",
                 I ? "," : "", S.Name.c_str(), S.Tid,
                 static_cast<double>(S.StartNs - T0) / 1e3,
                 static_cast<double>(S.durNs()) / 1e3, S.Rid, I, S.Parent);
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}
