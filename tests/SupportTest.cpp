//===- tests/SupportTest.cpp - support/ unit tests --------------------------===//

#include "support/Archive.h"
#include "support/Flags.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Socket.h"
#include "support/Str.h"
#include "support/Table.h"
#include "support/Zipf.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace typilus;

//===----------------------------------------------------------------------===//
// splitSubtokens
//===----------------------------------------------------------------------===//

TEST(StrTest, SplitsCamelCase) {
  EXPECT_EQ(splitSubtokens("numNodes"),
            (std::vector<std::string>{"num", "nodes"}));
}

TEST(StrTest, SplitsPascalCase) {
  EXPECT_EQ(splitSubtokens("TextFileReader"),
            (std::vector<std::string>{"text", "file", "reader"}));
}

TEST(StrTest, SplitsSnakeCase) {
  EXPECT_EQ(splitSubtokens("get_node_count"),
            (std::vector<std::string>{"get", "node", "count"}));
}

TEST(StrTest, SplitsUpperAcronymBeforeLower) {
  EXPECT_EQ(splitSubtokens("HTTPResponse"),
            (std::vector<std::string>{"http", "response"}));
}

TEST(StrTest, SplitsDigitBoundaries) {
  EXPECT_EQ(splitSubtokens("conv2d"),
            (std::vector<std::string>{"conv", "2", "d"}));
}

TEST(StrTest, SplitsMixedStyles) {
  EXPECT_EQ(splitSubtokens("get_HTTPResponse2"),
            (std::vector<std::string>{"get", "http", "response", "2"}));
}

TEST(StrTest, HandlesLeadingTrailingUnderscores) {
  EXPECT_EQ(splitSubtokens("__init__"), (std::vector<std::string>{"init"}));
}

TEST(StrTest, EmptyIdentifierYieldsNothing) {
  EXPECT_TRUE(splitSubtokens("").empty());
  EXPECT_TRUE(splitSubtokens("___").empty());
}

TEST(StrTest, SingleLetterIdentifier) {
  EXPECT_EQ(splitSubtokens("i"), (std::vector<std::string>{"i"}));
}

TEST(StrTest, AllCapsIdentifier) {
  EXPECT_EQ(splitSubtokens("MAX_SIZE"),
            (std::vector<std::string>{"max", "size"}));
}

//===----------------------------------------------------------------------===//
// Misc string helpers
//===----------------------------------------------------------------------===//

TEST(StrTest, JoinAndSplit) {
  std::vector<std::string> Parts{"a", "b", "c"};
  EXPECT_EQ(join(Parts, ", "), "a, b, c");
  EXPECT_EQ(splitChar("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
}

TEST(StrTest, Trim) {
  EXPECT_EQ(trim("  x y \t"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StrTest, Strformat) {
  EXPECT_EQ(strformat("%d-%s-%.2f", 7, "ab", 1.5), "7-ab-1.50");
}

TEST(StrTest, IsAllDigits) {
  EXPECT_TRUE(isAllDigits("0123"));
  EXPECT_FALSE(isAllDigits("12a"));
  EXPECT_FALSE(isAllDigits(""));
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForFixedSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, UniformIntStaysInBounds) {
  Rng R(1);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.uniformInt(17), 17u);
}

TEST(RngTest, UniformRealStaysInUnit) {
  Rng R(2);
  for (int I = 0; I != 1000; ++I) {
    double X = R.uniformReal();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng R(3);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.uniformRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, NormalHasRoughlyZeroMeanUnitVar) {
  Rng R(4);
  double Sum = 0, SumSq = 0;
  const int N = 20000;
  for (int I = 0; I != N; ++I) {
    double X = R.normal();
    Sum += X;
    SumSq += X * X;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.05);
  EXPECT_NEAR(SumSq / N, 1.0, 0.1);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng R(5);
  std::vector<int> V{1, 2, 3, 4, 5, 6, 7};
  auto Sorted = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Sorted);
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng R(6);
  Rng A = R.fork(1), B = R.fork(2);
  EXPECT_NE(A.next(), B.next());
}

//===----------------------------------------------------------------------===//
// ZipfSampler
//===----------------------------------------------------------------------===//

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler Z(100, 1.1);
  double Sum = 0;
  for (size_t I = 0; I != 100; ++I)
    Sum += Z.pmf(I);
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroIsMostLikely) {
  ZipfSampler Z(50, 1.0);
  EXPECT_GT(Z.pmf(0), Z.pmf(1));
  EXPECT_GT(Z.pmf(1), Z.pmf(10));
}

TEST(ZipfTest, EmpiricalSkewMatchesHead) {
  // The head rank should dominate: empirically rank 0 must be drawn more
  // often than rank 5.
  ZipfSampler Z(30, 1.2);
  Rng R(7);
  std::map<size_t, int> Counts;
  for (int I = 0; I != 20000; ++I)
    ++Counts[Z.sample(R)];
  EXPECT_GT(Counts[0], Counts[5]);
  EXPECT_GT(Counts[0], 20000 / 30);
}

TEST(ZipfTest, SamplesStayInRange) {
  ZipfSampler Z(10, 0.9);
  Rng R(8);
  for (int I = 0; I != 5000; ++I)
    EXPECT_LT(Z.sample(R), 10u);
}

//===----------------------------------------------------------------------===//
// TextTable
//===----------------------------------------------------------------------===//

TEST(TableTest, RendersAlignedAscii) {
  TextTable T;
  T.setHeader({"name", "value"});
  T.addRow({"alpha", "1"});
  T.addRow({"b", "22"});
  std::string Out = T.renderAscii();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("alpha"), std::string::npos);
  // The separator line is present.
  EXPECT_NE(Out.find("---"), std::string::npos);
}

TEST(TableTest, NumericRowFormatsPrecision) {
  TextTable T;
  T.addNumericRow("row", {1.234, 5.0}, 2);
  std::string Out = T.renderAscii();
  EXPECT_NE(Out.find("1.23"), std::string::npos);
  EXPECT_NE(Out.find("5.00"), std::string::npos);
}

TEST(TableTest, CsvEscapesCommasAndQuotes) {
  TextTable T;
  T.setHeader({"a", "b"});
  T.addRow({"x,y", "he said \"hi\""});
  std::string Out = T.renderCsv();
  EXPECT_NE(Out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(Out.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, RaggedRowsRenderEmptyCells) {
  TextTable T;
  T.setHeader({"a", "b", "c"});
  T.addRow({"only"});
  EXPECT_EQ(T.numRows(), 1u);
  EXPECT_FALSE(T.renderAscii().empty());
}

//===----------------------------------------------------------------------===//
// ThreadPool / parallelFor (the execution layer)
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <stdexcept>
#include <thread>

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  const int64_t N = 10007; // prime, so chunks are uneven
  std::vector<std::atomic<int>> Hits(N);
  for (auto &H : Hits)
    H = 0;
  Pool.parallelFor(0, N, 16, [&](int64_t Lo, int64_t Hi) {
    ASSERT_LE(Lo, Hi);
    for (int64_t I = Lo; I != Hi; ++I)
      ++Hits[static_cast<size_t>(I)];
  });
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[static_cast<size_t>(I)].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, ChunksRespectGrainAndAreContiguous) {
  ThreadPool Pool(4);
  std::mutex M;
  std::vector<std::pair<int64_t, int64_t>> Chunks;
  Pool.parallelFor(100, 200, 10, [&](int64_t Lo, int64_t Hi) {
    std::lock_guard<std::mutex> G(M);
    Chunks.emplace_back(Lo, Hi);
  });
  ASSERT_FALSE(Chunks.empty());
  EXPECT_LE(Chunks.size(), 4u); // capped at the way count
  std::sort(Chunks.begin(), Chunks.end());
  EXPECT_EQ(Chunks.front().first, 100);
  EXPECT_EQ(Chunks.back().second, 200);
  for (size_t I = 1; I != Chunks.size(); ++I)
    EXPECT_EQ(Chunks[I].first, Chunks[I - 1].second) << "gap or overlap";
}

TEST(ThreadPoolTest, EmptyAndSmallRanges) {
  ThreadPool Pool(4);
  int Calls = 0;
  Pool.parallelFor(5, 5, 1, [&](int64_t, int64_t) { ++Calls; });
  EXPECT_EQ(Calls, 0); // empty range never invokes the body
  Pool.parallelFor(3, 7, 100, [&](int64_t Lo, int64_t Hi) {
    ++Calls;
    EXPECT_EQ(Lo, 3);
    EXPECT_EQ(Hi, 7);
  });
  EXPECT_EQ(Calls, 1); // below one grain: a single inline chunk
}

TEST(ThreadPoolTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadPool Pool(4);
  std::atomic<int64_t> Total{0};
  Pool.parallelFor(0, 8, 1, [&](int64_t Lo, int64_t Hi) {
    for (int64_t I = Lo; I != Hi; ++I) {
      EXPECT_TRUE(ThreadPool::insideParallelRegion());
      // The nested loop must execute inline (single chunk) and complete.
      int NestedCalls = 0;
      Pool.parallelFor(0, 100, 1, [&](int64_t NLo, int64_t NHi) {
        ++NestedCalls;
        Total += NHi - NLo;
      });
      EXPECT_EQ(NestedCalls, 1);
    }
  });
  EXPECT_EQ(Total.load(), 8 * 100);
  EXPECT_FALSE(ThreadPool::insideParallelRegion());
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool Pool(4);
  EXPECT_THROW(
      Pool.parallelFor(0, 1000, 10,
                       [](int64_t Lo, int64_t) {
                         if (Lo == 0)
                           throw std::runtime_error("chunk failed");
                       }),
      std::runtime_error);
  // The pool survives and stays usable after a throwing job.
  std::atomic<int64_t> Sum{0};
  Pool.parallelFor(0, 100, 10, [&](int64_t Lo, int64_t Hi) {
    for (int64_t I = Lo; I != Hi; ++I)
      Sum += I;
  });
  EXPECT_EQ(Sum.load(), 99 * 100 / 2);
  // Serial pools propagate too (inline path).
  ThreadPool Serial(1);
  EXPECT_THROW(Serial.parallelFor(0, 10, 1,
                                  [](int64_t, int64_t) {
                                    throw std::logic_error("inline");
                                  }),
               std::logic_error);
  EXPECT_FALSE(ThreadPool::insideParallelRegion());
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1);
  int Calls = 0;
  Pool.parallelFor(0, 100000, 1, [&](int64_t Lo, int64_t Hi) {
    ++Calls;
    EXPECT_EQ(Lo, 0);
    EXPECT_EQ(Hi, 100000);
  });
  EXPECT_EQ(Calls, 1);
}

TEST(ThreadPoolTest, MaxWaysCapsParallelism) {
  ThreadPool Pool(4);
  std::mutex M;
  int Chunks = 0;
  Pool.parallelFor(
      0, 1000, 1,
      [&](int64_t, int64_t) {
        std::lock_guard<std::mutex> G(M);
        ++Chunks;
      },
      /*MaxWays=*/2);
  EXPECT_LE(Chunks, 2);
  EXPECT_GE(Chunks, 1);
}

TEST(ThreadPoolTest, CallerFindingThePoolBusyRunsInline) {
  ThreadPool Pool(4);
  // Thread A holds the pool inside its job until B's call returns. B
  // must run its whole range inline on its own thread; waiting for the
  // pool instead would never return (A's chunks give up after 10 s and
  // fail the test rather than hang it).
  std::mutex M;
  std::condition_variable CV;
  bool AEntered = false, BDone = false;
  std::atomic<bool> ATimedOut{false};
  std::thread A([&] {
    Pool.parallelFor(0, 4, 1, [&](int64_t, int64_t) {
      std::unique_lock<std::mutex> L(M);
      AEntered = true;
      CV.notify_all();
      if (!CV.wait_for(L, std::chrono::seconds(10), [&] { return BDone; }))
        ATimedOut = true;
    });
  });
  {
    std::unique_lock<std::mutex> L(M);
    CV.wait(L, [&] { return AEntered; });
  }
  std::mutex CallsMu;
  std::vector<std::pair<int64_t, int64_t>> Calls;
  bool AllInside = true, AllOnCaller = true;
  std::thread::id Me = std::this_thread::get_id();
  Pool.parallelFor(0, 1000, 1, [&](int64_t Lo, int64_t Hi) {
    std::lock_guard<std::mutex> L(CallsMu);
    Calls.emplace_back(Lo, Hi);
    AllInside &= ThreadPool::insideParallelRegion();
    AllOnCaller &= std::this_thread::get_id() == Me;
  });
  {
    std::lock_guard<std::mutex> L(M);
    BDone = true;
    CV.notify_all();
  }
  A.join();
  EXPECT_FALSE(ATimedOut.load()) << "the busy-pool caller blocked";
  ASSERT_EQ(Calls.size(), 1u);
  EXPECT_EQ(Calls[0], (std::pair<int64_t, int64_t>(0, 1000)));
  EXPECT_TRUE(AllInside);
  EXPECT_TRUE(AllOnCaller);
  EXPECT_FALSE(ThreadPool::insideParallelRegion());
}

TEST(ThreadPoolTest, ConcurrentCallersMatchTheSerialResult) {
  // Two threads each run 200 jobs on one 4-way pool. Every call either
  // gets the pool (the static 4-chunk partition) or finds it busy and
  // runs as one inline chunk on its own thread; either way the output
  // equals the serial result.
  ThreadPool Pool(4);
  const int64_t N = 1001, Jobs = 200;
  auto Expected = [](int64_t Job, int64_t I) { return Job * 7919 + I * I; };
  std::atomic<int> Failures{0};
  auto Caller = [&](int64_t Salt) {
    std::thread::id Me = std::this_thread::get_id();
    for (int64_t J = 0; J != Jobs; ++J) {
      int64_t Job = Salt + J;
      std::vector<int64_t> Out(static_cast<size_t>(N), -1);
      std::mutex CallsMu;
      std::vector<std::pair<int64_t, int64_t>> Calls;
      bool AllInside = true, AllOnCaller = true;
      Pool.parallelFor(0, N, 8, [&](int64_t Lo, int64_t Hi) {
        for (int64_t I = Lo; I != Hi; ++I)
          Out[static_cast<size_t>(I)] = Expected(Job, I);
        std::lock_guard<std::mutex> L(CallsMu);
        Calls.emplace_back(Lo, Hi);
        AllInside &= ThreadPool::insideParallelRegion();
        AllOnCaller &= std::this_thread::get_id() == Me;
      });
      bool Same = true;
      for (int64_t I = 0; I != N; ++I)
        Same &= Out[static_cast<size_t>(I)] == Expected(Job, I);
      bool RanInline = Calls.size() == 1 && AllOnCaller &&
                       Calls[0] == std::pair<int64_t, int64_t>(0, N);
      if (!Same || !AllInside || (!RanInline && Calls.size() != 4))
        ++Failures;
    }
  };
  std::thread T1(Caller, 0), T2(Caller, 1000000);
  T1.join();
  T2.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_FALSE(ThreadPool::insideParallelRegion());
}

TEST(ThreadPoolTest, GlobalPoolIsConfigurable) {
  setGlobalNumThreads(2);
  EXPECT_EQ(globalNumThreads(), 2);
  std::atomic<int64_t> Sum{0};
  typilus::parallelFor(0, 256, 16, [&](int64_t Lo, int64_t Hi) {
    for (int64_t I = Lo; I != Hi; ++I)
      Sum += 1;
  });
  EXPECT_EQ(Sum.load(), 256);
  setGlobalNumThreads(0); // back to the hardware default
  EXPECT_GE(globalNumThreads(), 1);
}

//===----------------------------------------------------------------------===//
// Archive (the artifact substrate)
//===----------------------------------------------------------------------===//

TEST(ArchiveTest, Crc32MatchesTheStandardCheckValue) {
  // The canonical CRC-32 check: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(ArchiveTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // crc32 folds eight bytes per step; its value must be the one-byte-
  // at-a-time CRC's for every length around the 8-byte blocks and at
  // every start offset within a block.
  auto Reference = [](const uint8_t *P, size_t N) {
    uint32_t Crc = 0xFFFFFFFFu;
    for (size_t I = 0; I != N; ++I) {
      Crc ^= P[I];
      for (int K = 0; K != 8; ++K)
        Crc = (Crc & 1) ? 0xEDB88320u ^ (Crc >> 1) : Crc >> 1;
    }
    return Crc ^ 0xFFFFFFFFu;
  };
  Rng R(99);
  std::vector<uint8_t> Buf(64 + 8);
  for (uint8_t &B : Buf)
    B = static_cast<uint8_t>(R.uniformInt(256));
  for (size_t Offset = 0; Offset != 8; ++Offset)
    for (size_t Len = 0; Len <= 64; ++Len)
      ASSERT_EQ(crc32(Buf.data() + Offset, Len),
                Reference(Buf.data() + Offset, Len))
          << "offset " << Offset << " length " << Len;
}

TEST(ArchiveTest, ScalarsAndStringsRoundTrip) {
  ArchiveWriter W(7);
  W.beginChunk("test");
  W.writeU8(200);
  W.writeU32(0xDEADBEEFu);
  W.writeU64(0x0123456789ABCDEFull);
  W.writeI32(-42);
  W.writeI64(-1234567890123ll);
  W.writeF32(3.25f);
  W.writeF64(-2.5e-300);
  W.writeStr("hello archive");
  float Xs[3] = {1.f, -0.f, 2.5f};
  W.writeF32Array(Xs, 3);
  W.endChunk();

  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
  EXPECT_EQ(R.formatVersion(), 7u);
  ASSERT_TRUE(R.hasChunk("test"));
  ArchiveCursor C = R.chunk("test", &Err);
  EXPECT_EQ(C.readU8(), 200);
  EXPECT_EQ(C.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(C.readU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(C.readI32(), -42);
  EXPECT_EQ(C.readI64(), -1234567890123ll);
  EXPECT_EQ(C.readF32(), 3.25f);
  EXPECT_EQ(C.readF64(), -2.5e-300);
  EXPECT_EQ(C.readStr(), "hello archive");
  float Ys[3] = {};
  C.readF32Array(Ys, 3);
  EXPECT_EQ(Ys[0], 1.f);
  EXPECT_EQ(Ys[2], 2.5f);
  EXPECT_TRUE(C.atEnd());
}

TEST(ArchiveTest, ChunksAreLocatedByTagInAnyOrder) {
  ArchiveWriter W(1);
  W.beginChunk("aaaa");
  W.writeU32(1);
  W.endChunk();
  W.beginChunk("bbbb");
  W.writeU32(2);
  W.endChunk();
  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
  ASSERT_EQ(R.chunks().size(), 2u);
  EXPECT_EQ(R.chunk("bbbb", nullptr).readU32(), 2u);
  EXPECT_EQ(R.chunk("aaaa", nullptr).readU32(), 1u);
}

TEST(ArchiveTest, MissingChunkFailsWithClearError) {
  ArchiveWriter W(1);
  W.beginChunk("aaaa");
  W.endChunk();
  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
  ArchiveCursor C = R.chunk("nope", &Err);
  EXPECT_FALSE(C.ok());
  EXPECT_NE(Err.find("missing chunk 'nope'"), std::string::npos) << Err;
}

TEST(ArchiveTest, CursorOverrunIsStickyNotUndefined) {
  ArchiveWriter W(1);
  W.beginChunk("tiny");
  W.writeU8(5);
  W.endChunk();
  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
  ArchiveCursor C = R.chunk("tiny", &Err);
  EXPECT_EQ(C.readU8(), 5);
  EXPECT_EQ(C.readU64(), 0u); // past the end: zero, and...
  EXPECT_FALSE(C.ok());       // ...the cursor is marked failed
  EXPECT_FALSE(C.atEnd());
}

TEST(ArchiveTest, ZeroLengthArrayReadsCopyNothing) {
  ArchiveWriter W(1);
  W.beginChunk("zero");
  W.writeU32(7);
  W.endChunk();
  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
  // Empty vectors hand out a null data(): a zero-length read must not
  // touch the destination at all, on a live cursor or a failed one.
  std::vector<int32_t> I32;
  std::vector<float> F32;
  std::vector<uint16_t> U16;
  ArchiveCursor Live = R.chunk("zero", &Err);
  Live.readI32Array(I32.data(), 0);
  Live.readF32Array(F32.data(), 0);
  Live.readU16Array(U16.data(), 0);
  Live.readBytes(I32.data(), 0);
  EXPECT_TRUE(Live.ok());
  EXPECT_EQ(Live.readU32(), 7u);
  EXPECT_TRUE(Live.atEnd());

  ArchiveCursor Failed = R.chunk("zero", &Err);
  EXPECT_EQ(Failed.readU64(), 0u);
  ASSERT_FALSE(Failed.ok());
  Failed.readI32Array(I32.data(), 0);
  Failed.readF32Array(F32.data(), 0);
  Failed.readU16Array(U16.data(), 0);
  Failed.readBytes(I32.data(), 0);
  EXPECT_FALSE(Failed.ok()); // still failed: empty reads do not reset it
}

TEST(ArchiveTest, CorruptPayloadIsRejectedByChecksum) {
  ArchiveWriter W(1);
  W.beginChunk("data");
  for (int I = 0; I != 64; ++I)
    W.writeU32(static_cast<uint32_t>(I));
  W.endChunk();
  std::string Bytes = W.bytes();
  Bytes[Bytes.size() / 2] ^= 0x40; // flip one bit mid-payload
  ArchiveReader R;
  std::string Err;
  EXPECT_FALSE(R.openBytes(Bytes, &Err));
  EXPECT_NE(Err.find("checksum mismatch"), std::string::npos) << Err;
}

TEST(ArchiveTest, TruncationIsRejected) {
  ArchiveWriter W(1);
  W.beginChunk("data");
  W.writeU64(99);
  W.endChunk();
  std::string Bytes = W.bytes();
  ArchiveReader R;
  std::string Err;
  EXPECT_FALSE(R.openBytes(Bytes.substr(0, Bytes.size() - 3), &Err));
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;
  EXPECT_FALSE(R.openBytes(Bytes.substr(0, 6), &Err));
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;
}

TEST(ArchiveTest, ForeignBytesAreRejected) {
  ArchiveReader R;
  std::string Err;
  EXPECT_FALSE(R.openBytes("definitely not an artifact", &Err));
  EXPECT_NE(Err.find("bad magic"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// json
//===----------------------------------------------------------------------===//

TEST(JsonTest, ParsesScalars) {
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse("42", V, &Err)) << Err;
  EXPECT_TRUE(V.isNumber());
  EXPECT_EQ(V.asInt(), 42);
  ASSERT_TRUE(json::parse("-3.5e2", V, &Err)) << Err;
  EXPECT_DOUBLE_EQ(V.asNumber(), -350.0);
  ASSERT_TRUE(json::parse("true", V, &Err));
  EXPECT_TRUE(V.isBool() && V.asBool());
  ASSERT_TRUE(json::parse("null", V, &Err));
  EXPECT_TRUE(V.isNull());
  ASSERT_TRUE(json::parse("\"hi\"", V, &Err));
  EXPECT_EQ(V.asString(), "hi");
}

TEST(JsonTest, ParsesNestedObject) {
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(
      R"({"id": 7, "method": "predict", "opts": {"k": [1, 2, 3]}})", V, &Err))
      << Err;
  EXPECT_EQ(V.getInt("id", -1), 7);
  EXPECT_EQ(V.getString("method", ""), "predict");
  const json::Value *Opts = V.find("opts");
  ASSERT_NE(Opts, nullptr);
  const json::Value *K = Opts->find("k");
  ASSERT_NE(K, nullptr);
  ASSERT_TRUE(K->isArray());
  ASSERT_EQ(K->array().size(), 3u);
  EXPECT_EQ(K->array()[2].asInt(), 3);
}

TEST(JsonTest, StringEscapes) {
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(R"("a\nb\t\"q\"\\\u0041\u00e9")", V, &Err)) << Err;
  EXPECT_EQ(V.asString(), "a\nb\t\"q\"\\A\xc3\xa9");
  // Surrogate pair -> one astral code point.
  ASSERT_TRUE(json::parse(R"("\ud83d\ude00")", V, &Err)) << Err;
  EXPECT_EQ(V.asString(), "\xf0\x9f\x98\x80");
}

TEST(JsonTest, LoneSurrogatesBecomeReplacementWithoutSwallowing) {
  json::Value V;
  std::string Err;
  // Unpaired high surrogate followed by an ordinary escape: U+FFFD, then
  // the 'A' must survive.
  ASSERT_TRUE(json::parse(R"("\ud83dA")", V, &Err)) << Err;
  EXPECT_EQ(V.asString(), "\xef\xbf\xbd"
                          "A");
  // ...including when what follows is itself a \u escape (it must be
  // decoded on its own, not consumed as a bogus low half).
  ASSERT_TRUE(json::parse("\"\\ud83d\\u0041B\"", V, &Err)) << Err;
  EXPECT_EQ(V.asString(), "\xef\xbf\xbd"
                          "AB");
  // Two high surrogates in a row: two replacement chars.
  ASSERT_TRUE(json::parse(R"("\ud83d\ud83dx")", V, &Err)) << Err;
  EXPECT_EQ(V.asString(), "\xef\xbf\xbd\xef\xbf\xbd"
                          "x");
  // Lone low surrogate.
  ASSERT_TRUE(json::parse(R"("\ude00x")", V, &Err)) << Err;
  EXPECT_EQ(V.asString(), "\xef\xbf\xbd"
                          "x");
}

TEST(JsonTest, QuotedRoundTripsThroughParse) {
  const std::string Raw = "line1\nline2\t\"quoted\" \\slash\x01 end";
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(json::quoted(Raw), V, &Err)) << Err;
  EXPECT_EQ(V.asString(), Raw);
}

TEST(JsonTest, RejectsMalformedInput) {
  json::Value V;
  std::string Err;
  for (const char *Bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\" 1}", "tru", "\"unterminated",
        "01", "1.", "nan", "{\"a\":1} trailing", "\"bad \x01 ctrl\""}) {
    EXPECT_FALSE(json::parse(Bad, V, &Err)) << "accepted: " << Bad;
    EXPECT_FALSE(Err.empty());
  }
}

TEST(JsonTest, RejectsTooDeepNesting) {
  std::string Deep(100, '[');
  Deep += std::string(100, ']');
  json::Value V;
  std::string Err;
  EXPECT_FALSE(json::parse(Deep, V, &Err, /*MaxDepth=*/64));
  EXPECT_NE(Err.find("deep"), std::string::npos) << Err;
  EXPECT_TRUE(json::parse(Deep, V, &Err, /*MaxDepth=*/128)) << Err;
}

TEST(JsonTest, NumberFormattingRoundTrips) {
  std::string Out;
  json::appendNumber(Out, 0.1);
  json::Value V;
  ASSERT_TRUE(json::parse(Out, V, nullptr));
  EXPECT_EQ(V.asNumber(), 0.1); // %.17g is bit-exact for doubles
}

//===----------------------------------------------------------------------===//
// LineReader (over a socketpair, as the daemon uses it)
//===----------------------------------------------------------------------===//

namespace {

struct SocketPair {
  int A = -1, B = -1;
  SocketPair() {
    int Fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    A = Fds[0];
    B = Fds[1];
  }
  ~SocketPair() {
    if (A >= 0)
      close(A);
    if (B >= 0)
      close(B);
  }
  void closeA() {
    close(A);
    A = -1;
  }
};

} // namespace

TEST(LineReaderTest, SplitsLinesAcrossReads) {
  SocketPair SP;
  ASSERT_TRUE(writeAll(SP.A, "first\nsec"));
  ASSERT_TRUE(writeAll(SP.A, "ond\r\nthird\n"));
  SP.closeA();
  LineReader R(SP.B, 1024);
  std::string L;
  ASSERT_EQ(R.next(L), LineReader::Status::Line);
  EXPECT_EQ(L, "first");
  ASSERT_EQ(R.next(L), LineReader::Status::Line);
  EXPECT_EQ(L, "second"); // \r\n normalized
  ASSERT_EQ(R.next(L), LineReader::Status::Line);
  EXPECT_EQ(L, "third");
  EXPECT_EQ(R.next(L), LineReader::Status::Eof);
}

TEST(LineReaderTest, OversizedLineIsDiscardedAndReaderRecovers) {
  SocketPair SP;
  std::string Huge(5000, 'x');
  ASSERT_TRUE(writeAll(SP.A, Huge + "\nok\n"));
  SP.closeA();
  LineReader R(SP.B, 64);
  std::string L;
  ASSERT_EQ(R.next(L), LineReader::Status::TooLong);
  ASSERT_EQ(R.next(L), LineReader::Status::Line);
  EXPECT_EQ(L, "ok");
  EXPECT_EQ(R.next(L), LineReader::Status::Eof);
}

TEST(LineReaderTest, MidLineDisconnectIsEof) {
  SocketPair SP;
  ASSERT_TRUE(writeAll(SP.A, "complete\n{\"id\":1,\"method\":"));
  SP.closeA(); // client dies mid-request
  LineReader R(SP.B, 1024);
  std::string L;
  ASSERT_EQ(R.next(L), LineReader::Status::Line);
  EXPECT_EQ(L, "complete");
  EXPECT_EQ(R.next(L), LineReader::Status::Eof);
  EXPECT_EQ(R.next(L), LineReader::Status::Eof); // stays Eof
}

TEST(LineReaderTest, OversizedLineTruncatedByEofReportsOnce) {
  SocketPair SP;
  ASSERT_TRUE(writeAll(SP.A, std::string(5000, 'y'))); // no newline ever
  SP.closeA();
  LineReader R(SP.B, 64);
  std::string L;
  EXPECT_EQ(R.next(L), LineReader::Status::TooLong);
  EXPECT_EQ(R.next(L), LineReader::Status::Eof);
}

//===----------------------------------------------------------------------===//
// Flags: one strict, declarative flag table
//===----------------------------------------------------------------------===//

/// A small tool's options and flag table, shaped like the real tools'.
class FlagsTest : public ::testing::Test {
protected:
  bool parse(const std::vector<std::string> &Args) {
    Err.clear();
    return parseFlags(Table, Args, &Err);
  }

  bool Verbose = false;
  int Count = 7;
  int Port = -1;
  int64_t Big = 0;
  uint64_t Seed = 1;
  double Temp = 1.0;
  std::string Index;
  std::vector<std::string> Sources;
  std::vector<Flag> Table{
      {"--verbose", &Verbose, "", "talk more"},
      {"--count", &Count, "N", "a count", 0},
      {"--port", &Port, "N", "a port", 0, 65535},
      {"--big", &Big, "N", "a wide count"},
      {"--seed", &Seed, "S", "a seed"},
      {"--temp", &Temp, "F", "a temperature"},
      {"--index", &Index, "KIND", "exact, annoy or hnsw"},
      {"--exact", FlagAlias{&Index, "exact"}, "", "same as --index exact"},
      {"--annoy", FlagAlias{&Index, "annoy"}, "", "same as --index annoy"},
      {"--source", &Sources, "FILE",
       "a file to read; the flag repeats and every occurrence is kept, in "
       "order, so the help text has to wrap"},
  };
  std::string Err;
};

TEST_F(FlagsTest, ValidLineFillsEveryKind) {
  ASSERT_TRUE(parse({"--verbose", "--count", "3", "--big", "-9000000000",
                     "--seed", "18446744073709551615", "--temp", "-0.25",
                     "--index", "hnsw"}))
      << Err;
  EXPECT_TRUE(Verbose);
  EXPECT_EQ(Count, 3);
  EXPECT_EQ(Big, -9000000000LL);
  EXPECT_EQ(Seed, UINT64_MAX);
  EXPECT_EQ(Temp, -0.25);
  EXPECT_EQ(Index, "hnsw");
  EXPECT_TRUE(parse({})) << Err;
}

TEST_F(FlagsTest, RepeatedSourceAccumulates) {
  ASSERT_TRUE(parse({"--source", "a.py", "--count", "1", "--source", "b.py",
                     "--source", "a.py"}))
      << Err;
  EXPECT_EQ(Sources, (std::vector<std::string>{"a.py", "b.py", "a.py"}));
}

TEST_F(FlagsTest, MalformedIntegersNameTheFlagAndValue) {
  // abc and 2x are not numbers, "" is empty, 99999999999 overflows an int
  // and -1 is outside the flag's >= 0 range.
  for (const char *V : {"abc", "2x", "", "99999999999", "-1", " 5", "0x10"}) {
    SCOPED_TRACE(V);
    EXPECT_FALSE(parse({"--count", V}));
    EXPECT_EQ(Err, std::string("--count expects an integer >= 0, got '") + V +
                       "'");
    EXPECT_EQ(Count, 7); // a rejected value never lands
  }
  EXPECT_FALSE(parse({"--port", "70000"}));
  EXPECT_EQ(Err, "--port expects an integer in 0..65535, got '70000'");
  EXPECT_FALSE(parse({"--seed", "-1"}));
  EXPECT_EQ(Err, "--seed expects a non-negative integer, got '-1'");
  EXPECT_FALSE(parse({"--big", "9223372036854775808"}));
  EXPECT_TRUE(parse({"--count", "0", "--port", "65535"})) << Err;
  EXPECT_EQ(Count, 0);
  EXPECT_EQ(Port, 65535);
}

TEST_F(FlagsTest, NonFiniteAndMalformedDoublesAreRejected) {
  for (const char *V : {"nan", "inf", "-inf", "1.5x", "1e999", ""}) {
    SCOPED_TRACE(V);
    EXPECT_FALSE(parse({"--temp", V}));
    EXPECT_EQ(Err, std::string("--temp expects a finite number, got '") + V +
                       "'");
    EXPECT_EQ(Temp, 1.0);
  }
  ASSERT_TRUE(parse({"--temp", "1e-3"})) << Err;
  EXPECT_EQ(Temp, 1e-3);
}

TEST_F(FlagsTest, MissingTrailingValueAndUnknownFlagAreErrors) {
  EXPECT_FALSE(parse({"--verbose", "--count"}));
  EXPECT_EQ(Err, "--count expects a value");
  EXPECT_FALSE(parse({"--source"}));
  EXPECT_EQ(Err, "--source expects a value");
  EXPECT_FALSE(parse({"--count", "1", "--nope"}));
  EXPECT_EQ(Err, "unknown option '--nope'");
  EXPECT_FALSE(parse({"stray"}));
  EXPECT_EQ(Err, "unknown option 'stray'");
}

TEST_F(FlagsTest, SwitchGivenAValueIsAnError) {
  EXPECT_FALSE(parse({"--verbose", "yes"}));
  EXPECT_EQ(Err, "--verbose takes no value, got 'yes'");
  EXPECT_FALSE(parse({"--exact", "1"}));
  EXPECT_EQ(Err, "--exact takes no value, got '1'");
  // A value-taking flag consumes whatever follows, switches included.
  ASSERT_TRUE(parse({"--index", "--verbose"})) << Err;
  EXPECT_EQ(Index, "--verbose");
}

TEST_F(FlagsTest, AliasAndCanonicalFlagAreMutuallyExclusive) {
  const std::vector<std::string> Conflicts[] = {
      {"--index", "hnsw", "--exact"},
      {"--exact", "--index", "annoy"},
      {"--exact", "--annoy"},
  };
  for (const std::vector<std::string> &Args : Conflicts) {
    EXPECT_FALSE(parse(Args));
    EXPECT_EQ(Err, "--index, --exact and --annoy are mutually exclusive");
  }
  // One spelling, repeated: the last value wins, as it always did.
  ASSERT_TRUE(parse({"--exact", "--exact"})) << Err;
  EXPECT_EQ(Index, "exact");
  ASSERT_TRUE(parse({"--index", "exact", "--index", "hnsw"})) << Err;
  EXPECT_EQ(Index, "hnsw");
  ASSERT_TRUE(parse({"--annoy"})) << Err;
  EXPECT_EQ(Index, "annoy");
}

TEST_F(FlagsTest, HelpListsEveryFlagWithinEightyColumns) {
  std::string Help = flagHelp(Table);
  for (const Flag &F : Table)
    EXPECT_NE(Help.find(std::string("  ") + F.Name + (*F.Meta ? " " : "") +
                        F.Meta),
              std::string::npos)
        << F.Name;
  std::istringstream Lines(Help);
  size_t N = 0;
  for (std::string L; std::getline(Lines, L); ++N)
    EXPECT_LE(L.size(), 80u) << L;
  EXPECT_GT(N, Table.size()); // the long --source help wrapped
}

TEST(ParseNumberTest, WholeTokenMustFitTheType) {
  int I = 0;
  EXPECT_TRUE(parseNumber("-2147483648", I));
  EXPECT_EQ(I, INT32_MIN);
  EXPECT_FALSE(parseNumber("2147483648", I));
  EXPECT_FALSE(parseNumber("12 ", I));
  uint64_t U = 0;
  EXPECT_FALSE(parseNumber("-1", U));
  double D = 0;
  EXPECT_TRUE(parseNumber("2.5e2", D));
  EXPECT_EQ(D, 250.0);
  EXPECT_FALSE(parseNumber("nan", D));
  EXPECT_EQ(D, 250.0); // failures leave the output alone
}
