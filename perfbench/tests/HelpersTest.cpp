//===- perfbench/tests/HelpersTest.cpp - Harness helper tests -------------===//

#include "Helpers.h"

#include "pyfront/Parser.h"

#include <gtest/gtest.h>

using namespace perfbench;

namespace {

std::vector<double> oneTo(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

Span span(const char *Name, int64_t Start, int64_t End, int Parent,
          int64_t Rid) {
  Span S;
  S.Name = Name;
  S.StartNs = Start;
  S.EndNs = End;
  S.Parent = Parent;
  S.Rid = Rid;
  return S;
}

} // namespace

TEST(Percentile, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> V = oneTo(1000);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 500);
  EXPECT_DOUBLE_EQ(percentile(V, 99), 990);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 1000);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
}

TEST(Percentile, SampleCountRuleKeepsTenBeyond) {
  // 1000 samples support p99 exactly: 10 samples lie above it.
  EXPECT_DOUBLE_EQ(supportedPercentile(1000, 99), 99);
  std::vector<double> V = oneTo(1000);
  double P = percentile(V, supportedPercentile(V.size(), 99));
  EXPECT_EQ(std::count_if(V.begin(), V.end(), [&](double X) { return X > P; }),
            10);
  // Fewer samples: the highest percentile with ten beyond it.
  EXPECT_DOUBLE_EQ(supportedPercentile(200, 99), 95);
  V = oneTo(200);
  P = percentile(V, supportedPercentile(V.size(), 99));
  EXPECT_EQ(std::count_if(V.begin(), V.end(), [&](double X) { return X > P; }),
            10);
  // More samples never raise it past what was asked for.
  EXPECT_DOUBLE_EQ(supportedPercentile(100000, 99), 99);
  // Ten or fewer samples support no percentile.
  EXPECT_DOUBLE_EQ(supportedPercentile(10, 99), 0);
}

TEST(Blocks, MedianOfBlockMediansIgnoresASlowMinority) {
  // Four blocks of 3; one slow block (x10) does not move the result.
  std::vector<double> V = {1, 2, 3, 1, 2, 3, 10, 20, 30, 1, 2, 3};
  EXPECT_DOUBLE_EQ(medianOfBlockMedians(V, 4), 2);
  EXPECT_DOUBLE_EQ(medianOfBlockMedians(V, 1), median(V));
  // More blocks than samples: one sample per block.
  EXPECT_DOUBLE_EQ(medianOfBlockMedians({5, 1, 3}, 10), 3);
}

TEST(Blocks, BlockRateUsesPreviousBlockEnd) {
  // 6 unit-work completions at 1..6 s after start; the 3rd block is slow.
  std::vector<int64_t> End = {1, 2, 3, 4, 9, 14};
  for (int64_t &E : End)
    E *= 1000000000;
  std::vector<double> Work(6, 1.0);
  // Blocks of two: rates 2/2s, 2/2s, 2/10s -> median 1/s.
  EXPECT_DOUBLE_EQ(medianBlockRate(End, Work, 0, 3), 1.0);
  // One block: 6 units in 14 s.
  EXPECT_DOUBLE_EQ(medianBlockRate(End, Work, 0, 1), 6.0 / 14);
  // The remainder joins the last block: rates 1, 1, 1 and 3/11 s.
  EXPECT_DOUBLE_EQ(medianBlockRate(End, Work, 0, 4), 1.0);
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  std::vector<Span> S = {
      span("root", 0, 100, -1, 0),   // children cover 30 + 50
      span("a", 10, 40, 0, 0),       // child b covers 20
      span("b", 15, 35, 1, 0),
      span("c", 40, 90, 0, 0),
  };
  std::vector<int64_t> Self = selfTimesNs(S);
  EXPECT_EQ(Self, (std::vector<int64_t>{20, 10, 20, 50}));
}

TEST(SelfTime, ClampsOverhangingChildren) {
  std::vector<Span> S = {span("root", 0, 10, -1, 0), span("a", 0, 12, 0, 0)};
  EXPECT_EQ(selfTimesNs(S)[0], 0);
}

TEST(SelfTime, MedianPerTreeAndCoverage) {
  std::vector<Span> S = {
      span("req", 0, 100, -1, 0), span("parse", 0, 40, 0, 0),
      span("embed", 40, 100, 0, 0),
      span("req", 200, 300, -1, 1), span("parse", 200, 220, 3, 1),
      span("parse", 220, 240, 3, 1), span("embed", 240, 290, 3, 1),
      span("other", 0, 5, -1, 2), // a different root name: ignored
  };
  std::map<std::string, double> M = medianSelfUsPerTree(S, "req");
  EXPECT_DOUBLE_EQ(M["parse"], (0.040 + 0.040) / 2);
  EXPECT_DOUBLE_EQ(M["embed"], (0.060 + 0.050) / 2);
  EXPECT_DOUBLE_EQ(M["req"], (0.0 + 0.010) / 2);
  EXPECT_EQ(M.count("other"), 0u);
  EXPECT_DOUBLE_EQ(coveragePct(S, "req"), 100.0 * 190 / 200);
}

TEST(SelfTime, LayerMissingFromATreeCountsAsZero) {
  std::vector<Span> S = {
      span("req", 0, 10, -1, 0), span("check", 0, 10, 0, 0),
      span("req", 20, 30, -1, 1), span("req", 40, 50, -1, 2),
  };
  EXPECT_DOUBLE_EQ(medianSelfUsPerTree(S, "req")["check"], 0);
}

TEST(Digest, ParsesTheProgramsSpelling) {
  uint64_t V = 0;
  ASSERT_TRUE(parseHexDigest("00000000000000ff", &V));
  EXPECT_EQ(V, 255u);
  ASSERT_TRUE(parseHexDigest("FFFFFFFFFFFFFFFF", &V));
  EXPECT_EQ(V, ~0ull);
  EXPECT_FALSE(parseHexDigest("ff", &V));
  EXPECT_FALSE(parseHexDigest("000000000000000g", &V));
}

TEST(Digest, CountsWrongMissingAndExtra) {
  std::vector<uint64_t> Want = {1, 2, 3};
  DigestReport R = compareDigests(
      Want, {"0000000000000001", "0000000000000002", "0000000000000003"});
  EXPECT_EQ(R.Mismatched, 0u);
  EXPECT_EQ(R.FirstMismatch, -1);
  R = compareDigests(Want, {"0000000000000001", "", "0000000000000004"});
  EXPECT_EQ(R.Mismatched, 2u);
  EXPECT_EQ(R.FirstMismatch, 1);
  R = compareDigests(Want, {"0000000000000001"});
  EXPECT_EQ(R.Compared, 3u);
  EXPECT_EQ(R.Mismatched, 2u);
  R = compareDigests({}, {"0000000000000001"});
  EXPECT_EQ(R.Mismatched, 1u);
}

TEST(Inputs, SameSeedSameInputs) {
  auto A = makeSourceFiles(7, 12, "/req");
  auto B = makeSourceFiles(7, 12, "/req");
  ASSERT_EQ(A.size(), 12u);
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Path, B[I].Path);
    EXPECT_EQ(A[I].Source, B[I].Source);
  }
  EditorScript E1 = makeEditorScript(5, 4, 60), E2 = makeEditorScript(5, 4, 60);
  ASSERT_EQ(E1.Edits.size(), 60u);
  for (size_t I = 0; I != E1.Edits.size(); ++I) {
    EXPECT_EQ(E1.Edits[I].File, E2.Edits[I].File);
    EXPECT_EQ(E1.Edits[I].Text, E2.Edits[I].Text);
  }
}

TEST(Inputs, OtherSeedOtherInputs) {
  auto A = makeSourceFiles(7, 4, "/req"), B = makeSourceFiles(8, 4, "/req");
  EXPECT_NE(A[0].Source, B[0].Source);
  EXPECT_NE(makeEditorScript(5, 4, 20).Edits.back().Text,
            makeEditorScript(6, 4, 20).Edits.back().Text);
  EXPECT_NE(deriveSeed(1, 0), deriveSeed(1, 1));
  EXPECT_NE(deriveSeed(1, 0), deriveSeed(2, 0));
}

TEST(Inputs, RequestsAreDistinct) {
  auto Files = makeSourceFiles(3, 300, "/req");
  EXPECT_DOUBLE_EQ(repeatedShare(Files), 0);
  Files.push_back(Files.front());
  EXPECT_GT(repeatedShare(Files), 0);
}

TEST(Inputs, EditorScriptParsesAndMixesOps) {
  EditorScript S = makeEditorScript(11, 6, 200);
  std::map<char, int> Ops;
  for (const EditorScript::Edit &E : S.Edits) {
    ++Ops[E.Op];
    EXPECT_FALSE(
        typilus::parseFile(S.Workspace[E.File].Path, E.Text).hasErrors());
  }
  EXPECT_GT(Ops['i'], 0);
  EXPECT_GT(Ops['r'], 0);
  EXPECT_GT(Ops['v'], 0);
}
