//===- tests/ModelsTest.cpp - models/ unit tests -------------------------------===//

#include "corpus/Dataset.h"
#include "corpus/Generator.h"
#include "models/Model.h"
#include "nn/Simd.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

using namespace typilus;

namespace {

/// Small shared dataset; built once per suite (cheap: ~20 files).
class ModelsTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    U = new TypeUniverse();
    CorpusConfig C;
    C.NumFiles = 20;
    CorpusGenerator G(C);
    DatasetConfig DC;
    DC.RunDedup = false;
    DS = new Dataset(buildDataset(G.generate(), G.udts(), *U, nullptr, DC));
  }
  static void TearDownTestSuite() {
    delete DS;
    delete U;
    DS = nullptr;
    U = nullptr;
  }

  static TypeModel makeModelFor(EncoderKind E, LossKind L,
                                NodeRepKind R = NodeRepKind::Subtoken) {
    std::vector<const TypilusGraph *> Graphs;
    for (const FileExample &F : DS->Train)
      Graphs.push_back(&F.Graph);
    LabelVocab V = LabelVocab::build(
        Graphs, R == NodeRepKind::WholeToken ? LabelVocab::Mode::WholeLabel
                                             : LabelVocab::Mode::Subtoken);
    TypeVocabs TV;
    for (const FileExample &F : DS->Train)
      for (const Target &T : F.Targets) {
        TV.Full.add(T.Type);
        TV.Erased.add(T.ErasedType);
      }
    ModelConfig MC;
    MC.Encoder = E;
    MC.Loss = L;
    MC.NodeRep = R;
    MC.HiddenDim = 16;
    MC.TimeSteps = 2;
    return TypeModel(MC, std::move(V), std::move(TV));
  }

  static TypeUniverse *U;
  static Dataset *DS;
};

TypeUniverse *ModelsTest::U = nullptr;
Dataset *ModelsTest::DS = nullptr;

size_t totalTargets(const std::vector<const FileExample *> &Files) {
  size_t N = 0;
  for (const FileExample *F : Files)
    N += F->Targets.size();
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Vocabularies
//===----------------------------------------------------------------------===//

TEST_F(ModelsTest, SubtokenVocabSharesSubwords) {
  std::vector<const TypilusGraph *> Graphs{&DS->Train[0].Graph};
  LabelVocab V = LabelVocab::build(Graphs, LabelVocab::Mode::Subtoken, 1);
  auto A = V.idsOf("numItems");
  auto B = V.idsOf("item_count");
  ASSERT_EQ(A.size(), 2u);
  ASSERT_EQ(B.size(), 2u);
  // Unknown subtokens map to 0, known ones to positive ids.
  for (int Id : V.idsOf("zzzzunseenzzz"))
    EXPECT_EQ(Id, 0);
}

TEST_F(ModelsTest, WholeLabelVocabKeepsLexemes) {
  std::vector<const TypilusGraph *> Graphs{&DS->Train[0].Graph};
  LabelVocab V = LabelVocab::build(Graphs, LabelVocab::Mode::WholeLabel, 1);
  EXPECT_EQ(V.idsOf("whatever_label").size(), 1u);
}

TEST_F(ModelsTest, TypeIdMapIsDenseAndStable) {
  TypeIdMap M;
  TypeRef A = U->parse("int"), B = U->parse("str");
  EXPECT_EQ(M.add(A), 0);
  EXPECT_EQ(M.add(B), 1);
  EXPECT_EQ(M.add(A), 0);
  EXPECT_EQ(M.lookup(B), 1);
  EXPECT_EQ(M.lookup(U->parse("float")), -1);
  EXPECT_EQ(M.type(1), B);
}

//===----------------------------------------------------------------------===//
// Encoders: shapes, determinism, gradient flow
//===----------------------------------------------------------------------===//

TEST_F(ModelsTest, GraphEncoderEmbedsAllTargets) {
  TypeModel M = makeModelFor(EncoderKind::Graph, LossKind::Typilus);
  std::vector<const FileExample *> Files{&DS->Train[0], &DS->Train[1]};
  std::vector<const Target *> Targets;
  nn::Value Emb = M.embed(Files, &Targets);
  ASSERT_TRUE(Emb.defined());
  EXPECT_EQ(static_cast<size_t>(Emb.val().rows()), totalTargets(Files));
  EXPECT_EQ(Emb.val().cols(), 16);
  EXPECT_EQ(Targets.size(), totalTargets(Files));
  for (int64_t I = 0; I != Emb.val().numel(); ++I)
    EXPECT_TRUE(std::isfinite(Emb.val()[I]));
}

TEST_F(ModelsTest, SeqEncoderEmbedsAllTargets) {
  TypeModel M = makeModelFor(EncoderKind::Seq, LossKind::Space);
  std::vector<const FileExample *> Files{&DS->Train[0]};
  std::vector<const Target *> Targets;
  nn::Value Emb = M.embed(Files, &Targets);
  ASSERT_TRUE(Emb.defined());
  EXPECT_EQ(static_cast<size_t>(Emb.val().rows()), totalTargets(Files));
}

TEST_F(ModelsTest, PathEncoderEmbedsAllTargets) {
  TypeModel M = makeModelFor(EncoderKind::Path, LossKind::Space);
  std::vector<const FileExample *> Files{&DS->Train[0]};
  std::vector<const Target *> Targets;
  nn::Value Emb = M.embed(Files, &Targets);
  ASSERT_TRUE(Emb.defined());
  EXPECT_EQ(static_cast<size_t>(Emb.val().rows()), totalTargets(Files));
}

TEST_F(ModelsTest, NamesOnlyEncoderEmbedsAllTargets) {
  TypeModel M = makeModelFor(EncoderKind::NamesOnly, LossKind::Typilus);
  std::vector<const FileExample *> Files{&DS->Train[0]};
  std::vector<const Target *> Targets;
  nn::Value Emb = M.embed(Files, &Targets);
  ASSERT_TRUE(Emb.defined());
  EXPECT_EQ(static_cast<size_t>(Emb.val().rows()), totalTargets(Files));
}

TEST_F(ModelsTest, CharacterRepresentationWorks) {
  TypeModel M = makeModelFor(EncoderKind::Graph, LossKind::Typilus,
                             NodeRepKind::Character);
  std::vector<const FileExample *> Files{&DS->Train[0]};
  std::vector<const Target *> Targets;
  nn::Value Emb = M.embed(Files, &Targets);
  ASSERT_TRUE(Emb.defined());
  for (int64_t I = 0; I != Emb.val().numel(); ++I)
    EXPECT_TRUE(std::isfinite(Emb.val()[I]));
}

TEST_F(ModelsTest, EmbeddingsAreDeterministic) {
  TypeModel A = makeModelFor(EncoderKind::Graph, LossKind::Typilus);
  TypeModel B = makeModelFor(EncoderKind::Graph, LossKind::Typilus);
  std::vector<const FileExample *> Files{&DS->Train[0]};
  nn::Value EA = A.embed(Files, nullptr);
  nn::Value EB = B.embed(Files, nullptr);
  ASSERT_EQ(EA.val().numel(), EB.val().numel());
  for (int64_t I = 0; I != EA.val().numel(); ++I)
    EXPECT_FLOAT_EQ(EA.val()[I], EB.val()[I]);
}

//===----------------------------------------------------------------------===//
// Losses
//===----------------------------------------------------------------------===//

TEST_F(ModelsTest, AllLossesAreFiniteAndBackpropagate) {
  for (LossKind L :
       {LossKind::Class, LossKind::Space, LossKind::Typilus}) {
    TypeModel M = makeModelFor(EncoderKind::Graph, L);
    std::vector<const FileExample *> Files{&DS->Train[0], &DS->Train[1]};
    std::vector<const Target *> Targets;
    nn::Value Emb = M.embed(Files, &Targets);
    nn::Value Loss = M.loss(Emb, Targets);
    ASSERT_TRUE(std::isfinite(Loss.val()[0]))
        << "loss " << lossKindName(L);
    M.params().zeroGrads();
    nn::backward(Loss);
    double GradMass = 0;
    for (const nn::Value &P : M.params().params()) {
      const Tensor &G = P.grad();
      for (int64_t I = 0; I != G.numel(); ++I)
        GradMass += std::fabs(G[I]);
    }
    EXPECT_GT(GradMass, 0.0) << "no gradient for loss " << lossKindName(L);
  }
}

TEST_F(ModelsTest, OneTrainingStepReducesLoss) {
  TypeModel M = makeModelFor(EncoderKind::Graph, LossKind::Typilus);
  nn::Adam Opt(M.params(), 5e-3f);
  std::vector<const FileExample *> Files{&DS->Train[0], &DS->Train[1]};
  std::vector<const Target *> Targets;
  float First = 0, Last = 0;
  for (int Step = 0; Step != 8; ++Step) {
    Targets.clear();
    nn::Value Emb = M.embed(Files, &Targets);
    nn::Value Loss = M.loss(Emb, Targets);
    if (Step == 0)
      First = Loss.val()[0];
    Last = Loss.val()[0];
    M.params().zeroGrads();
    nn::backward(Loss);
    Opt.step();
  }
  EXPECT_LT(Last, First);
}

TEST_F(ModelsTest, ClassProbsAreDistributions) {
  TypeModel M = makeModelFor(EncoderKind::Graph, LossKind::Class);
  std::vector<const FileExample *> Files{&DS->Train[0]};
  nn::Value Emb = M.embed(Files, nullptr);
  Tensor Probs = M.classProbs(Emb);
  for (int64_t R = 0; R != Probs.rows(); ++R) {
    float Sum = 0;
    for (int64_t C = 0; C != Probs.cols(); ++C)
      Sum += Probs.at(R, C);
    EXPECT_NEAR(Sum, 1.f, 1e-4f);
  }
}

//===----------------------------------------------------------------------===//
// The GGNN's inference slice
//===----------------------------------------------------------------------===//

namespace {

using Rows = std::vector<int>;

/// A message graph in the slice functions' layout: part k sends rows
/// Srcs[k], and Dst holds the destinations, parts concatenated.
struct MessageLists {
  std::vector<Rows> Srcs;
  Rows Dst;
};

/// Edges as encodeGraphBatch lays them out for one label: a forward part
/// (sources to destinations) and its reverse.
MessageLists bothWays(const std::vector<std::pair<int, int>> &Edges) {
  MessageLists M{std::vector<Rows>(2), {}};
  for (auto [S, T] : Edges) {
    M.Srcs[0].push_back(S);
    M.Dst.push_back(T);
  }
  for (auto [S, T] : Edges) {
    M.Srcs[1].push_back(T);
    M.Dst.push_back(S);
  }
  return M;
}

std::vector<Rows> sliceOf(const MessageLists &M, const Rows &Targets,
                          int Steps, int64_t NumRows) {
  return nn::backwardSlice(M.Srcs, M.Dst, Targets, Steps, NumRows);
}

} // namespace

TEST(GgnnSliceTest, ChainSliceGrowsOneHopPerStep) {
  // 0 -> 1 -> 2 -> 3 -> 4, forward messages only.
  MessageLists Fwd{{{0, 1, 2, 3}}, {1, 2, 3, 4}};
  EXPECT_EQ(sliceOf(Fwd, {4}, 3, 5),
            (std::vector<Rows>{{1, 2, 3, 4}, {2, 3, 4}, {3, 4}, {4}}));
  // Row 0 receives nothing: its slice is itself at every step.
  EXPECT_EQ(sliceOf(Fwd, {0}, 2, 5), (std::vector<Rows>{{0}, {0}, {0}}));
  // Both directions: the middle row reaches the whole chain in two steps,
  // and a third step adds nothing.
  MessageLists Both = bothWays({{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(sliceOf(Both, {2}, 3, 5),
            (std::vector<Rows>{
                {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}, {1, 2, 3}, {2}}));
  // No steps: the targets alone, once each and ascending.
  EXPECT_EQ(sliceOf(Both, {3, 1, 3}, 0, 5), (std::vector<Rows>{{1, 3}}));
  // No targets: every step is empty.
  EXPECT_EQ(sliceOf(Both, {}, 2, 5), (std::vector<Rows>{{}, {}, {}}));
}

TEST(GgnnSliceTest, StarSliceReachesTheLeavesThroughTheCentre) {
  // Leaves 1..5 point at centre 0; row 6 is isolated.
  MessageLists Star = bothWays({{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}});
  EXPECT_EQ(sliceOf(Star, {0}, 1, 7),
            (std::vector<Rows>{{0, 1, 2, 3, 4, 5}, {0}}));
  EXPECT_EQ(sliceOf(Star, {3}, 2, 7),
            (std::vector<Rows>{{0, 1, 2, 3, 4, 5}, {0, 3}, {3}}));
  EXPECT_EQ(sliceOf(Star, {6, 3}, 1, 7),
            (std::vector<Rows>{{0, 3, 6}, {3, 6}}));
  // Forward messages alone never reach a leaf.
  MessageLists In{{{1, 2, 3, 4, 5}}, {0, 0, 0, 0, 0}};
  EXPECT_EQ(sliceOf(In, {3}, 2, 7), (std::vector<Rows>{{3}, {3}, {3}}));
}

TEST(GgnnSliceTest, SliceEdgesKeepsMessageOrderAndRenumbers) {
  MessageLists Star = bothWays({{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}});
  // Step 2 of the slice of leaf 3: states {0, 3} in, row 3 out.
  nn::MessageEdges Step = nn::sliceEdges(Star.Srcs, Star.Dst, {0, 3}, {3}, 7);
  EXPECT_EQ(Step.Srcs, (std::vector<Rows>{{}, {0}}));
  EXPECT_EQ(Step.Dst, Rows({0}));
  // Step 1: states {0..5} in, rows {0, 3} out; the centre's five
  // messages stay in their order, then the reverse message into 3.
  Step = nn::sliceEdges(Star.Srcs, Star.Dst, {0, 1, 2, 3, 4, 5}, {0, 3}, 7);
  EXPECT_EQ(Step.Srcs, (std::vector<Rows>{{1, 2, 3, 4, 5}, {0}}));
  EXPECT_EQ(Step.Dst, Rows({0, 0, 0, 0, 0, 1}));
}

TEST(GgnnSliceTest, EachPartTransformsEachDistinctSourceOnce) {
  // Part 0 repeats sources, part 1 sends everything from one row, part 2
  // is empty and part 3 has no repeats; a source shared across parts is
  // a product row in each.
  nn::MessageEdges E({{4, 2, 4, 4, 7, 2}, {5, 5, 5}, {}, {4, 1}},
                     {0, 1, 2, 3, 4, 5, 0, 1, 2, 6, 7});
  EXPECT_EQ(E.Sources, (std::vector<Rows>{{4, 2, 7}, {5}, {}, {4, 1}}));
  EXPECT_EQ(E.Product, Rows({0, 1, 0, 0, 2, 1, 3, 3, 3, 4, 5}));
}

namespace {

/// Pins the kernel dispatch to one table for a test's lifetime.
struct SimdGuard {
  explicit SimdGuard(bool Enabled) : Was(nn::simd::simdEnabled()) {
    nn::simd::setSimdEnabled(Enabled);
  }
  ~SimdGuard() { nn::simd::setSimdEnabled(Was); }
  bool Was;
};

/// A hand-built file: node labels, labelled edges and target nodes.
FileExample
handFile(const std::string &Path, const std::vector<std::string> &Labels,
         const std::vector<std::tuple<int, int, EdgeLabel>> &Edges,
         const std::vector<int> &Targets) {
  FileExample F;
  F.Path = Path;
  for (const std::string &L : Labels) {
    GraphNode N;
    N.Label = L;
    F.Graph.Nodes.push_back(N);
  }
  for (auto [S, T, L] : Edges)
    F.Graph.Edges.push_back({S, T, L});
  for (int Node : Targets) {
    Target T;
    T.NodeIdx = Node;
    T.Name = Labels[static_cast<size_t>(Node)];
    F.Targets.push_back(T);
  }
  return F;
}

} // namespace

TEST_F(ModelsTest, GraphEncoderEqualsTheAllTargetsReference) {
  // The Graph encoder runs only the targets' backward slice. The
  // reference is the same model on a copy of the batch in which every
  // node is a target: its slice is every row at every step, the
  // whole-graph pass. The recorded embedding, every parameter's gradient
  // under a fixed linear loss and the unrecorded embedding must all equal
  // the reference bit for bit.
  using E = EdgeLabel;
  const FileExample Lone = handFile("lone.py", {"a", "b", "c"}, {}, {0, 2});
  const FileExample NoTargets = handFile(
      "none.py", {"p", "q", "r", "s"},
      {{0, 1, E::NextToken}, {1, 2, E::NextToken}, {2, 3, E::NextToken}}, {});
  // Row 6 neither sends nor receives; rows 0 and 3 send several messages
  // in one part (CHILD forward, OCCURRENCE_OF reverse).
  const FileExample Mixed = handFile(
      "mixed.py", {"def", "count", "items", "total", "x", "y", "orphan", "z"},
      {{0, 1, E::NextToken},
       {1, 2, E::NextToken},
       {2, 3, E::NextToken},
       {3, 4, E::NextToken},
       {0, 4, E::Child},
       {0, 5, E::Child},
       {0, 1, E::Child},
       {1, 3, E::OccurrenceOf},
       {2, 3, E::OccurrenceOf},
       {5, 3, E::OccurrenceOf},
       {4, 7, E::SubtokenOf},
       {5, 7, E::SubtokenOf}},
      {3, 6, 7});
  // At four steps the middle row's slice is the whole chain.
  const FileExample Chain = handFile(
      "chain.py", {"u", "v", "w", "x", "y"},
      {{0, 1, E::NextToken},
       {1, 2, E::NextToken},
       {2, 3, E::NextToken},
       {3, 4, E::NextToken}},
      {2});

  std::vector<const TypilusGraph *> Graphs{&Lone.Graph, &NoTargets.Graph,
                                           &Mixed.Graph, &Chain.Graph};
  for (const FileExample &F : DS->Train)
    Graphs.push_back(&F.Graph);
  const std::vector<std::vector<const FileExample *>> Batches{
      {&Lone},
      {&NoTargets},
      {&Mixed},
      {&Chain},
      {&Lone, &Mixed},
      {&Mixed, &NoTargets, &Chain},
      {&DS->Train[0], &DS->Train[1], &DS->Train[2]}};

  auto BitEqual = [](const Tensor &A, const Tensor &B) {
    return A.sameShape(B) &&
           (A.numel() == 0 ||
            std::memcmp(A.data(), B.data(),
                        sizeof(float) * static_cast<size_t>(A.numel())) == 0);
  };
  const char *const RepName[] = {"Subtoken", "WholeToken", "Character"};
  std::vector<bool> Tables{false};
  if (nn::simd::simdAvailable())
    Tables.push_back(true);
  for (NodeRepKind Rep : {NodeRepKind::Subtoken, NodeRepKind::WholeToken,
                          NodeRepKind::Character})
    for (int Steps : {0, 1, 4}) {
      ModelConfig MC;
      MC.Encoder = EncoderKind::Graph;
      MC.NodeRep = Rep;
      MC.HiddenDim = 32;
      MC.TimeSteps = Steps;
      TypeModel M(MC,
                  LabelVocab::build(Graphs, Rep == NodeRepKind::WholeToken
                                                ? LabelVocab::Mode::WholeLabel
                                                : LabelVocab::Mode::Subtoken),
                  TypeVocabs());
      // Every parameter's gradient of the linear loss <Emb, W>.
      auto GradsOf = [&M](nn::Value Emb) {
        Rng R(17);
        Tensor W = Tensor::randn(Emb.val().rows(), Emb.val().cols(), R, 1.f);
        M.params().zeroGrads();
        nn::backward(nn::meanAll(nn::mul(Emb, nn::Value::constant(W))));
        std::vector<Tensor> Grads;
        for (const nn::Value &P : M.params().params())
          Grads.push_back(P.grad());
        return Grads;
      };
      for (bool Simd : Tables) {
        SimdGuard Pin(Simd);
        for (int Threads : {1, 4}) {
          setGlobalNumThreads(Threads);
          for (size_t B = 0; B != Batches.size(); ++B) {
            SCOPED_TRACE(std::string("rep=") +
                         RepName[static_cast<size_t>(Rep)] +
                         " T=" + std::to_string(Steps) +
                         (Simd ? " simd" : " scalar") +
                         " threads=" + std::to_string(Threads) +
                         " batch=" + std::to_string(B));
            // The reference batch, and each target's row in it.
            std::vector<FileExample> AllFiles;
            std::vector<const FileExample *> AllBatch;
            std::vector<int> RefRows;
            int Offset = 0;
            for (const FileExample *F : Batches[B]) {
              FileExample All = *F;
              All.Targets.clear();
              for (size_t I = 0; I != F->Graph.Nodes.size(); ++I) {
                Target T;
                T.NodeIdx = static_cast<int>(I);
                All.Targets.push_back(T);
              }
              for (const Target &T : F->Targets)
                RefRows.push_back(Offset + T.NodeIdx);
              Offset += static_cast<int>(F->Graph.Nodes.size());
              AllFiles.push_back(std::move(All));
            }
            for (const FileExample &F : AllFiles)
              AllBatch.push_back(&F);

            std::vector<const Target *> Targets;
            nn::Value Emb = M.embed(Batches[B], &Targets);
            ASSERT_TRUE(Emb.defined());
            ASSERT_EQ(Targets.size(), RefRows.size());
            ASSERT_EQ(Emb.val().rows(), static_cast<int64_t>(RefRows.size()));
            if (RefRows.empty())
              continue;
            nn::Value Ref =
                nn::gatherRows(M.embed(AllBatch, nullptr), RefRows);
            EXPECT_TRUE(BitEqual(Emb.val(), Ref.val())) << "embedding";

            std::vector<Tensor> Got = GradsOf(Emb), Want = GradsOf(Ref);
            ASSERT_EQ(Got.size(), Want.size());
            for (size_t P = 0; P != Got.size(); ++P)
              EXPECT_TRUE(BitEqual(Got[P], Want[P])) << "parameter " << P;

            nn::Value Unrecorded;
            {
              nn::NoRecordScope NoRecord;
              Unrecorded = M.embed(Batches[B], nullptr);
            }
            EXPECT_TRUE(Unrecorded.node()->Prev.empty());
            EXPECT_TRUE(BitEqual(Unrecorded.val(), Ref.val()))
                << "unrecorded embedding";
          }
        }
      }
    }
  setGlobalNumThreads(0);
}
