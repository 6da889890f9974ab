//===- models/Model.h - The Typilus model family -------------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The nine model variants of Table 2 behind one class: an encoder
/// (GGNN / DeepTyper-style biGRU / code2seq-style paths / names-only for
/// the Table 4 ablation) producing type embeddings r_s, and a training
/// loss (classification Eq. 1, deep-similarity space loss Eq. 3, or the
/// combined Typilus loss Eq. 4).
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_MODELS_MODEL_H
#define TYPILUS_MODELS_MODEL_H

#include "models/Example.h"
#include "models/Vocab.h"
#include "nn/Layers.h"
#include "nn/Optim.h"
#include "support/Archive.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace typilus {

/// Which encoder computes the type embeddings.
enum class EncoderKind {
  Graph,     ///< GGNN over the Typilus graph (Sec. 4.3).
  Seq,       ///< 2-layer biGRU with consistency modules (DeepTyper).
  Path,      ///< AST-path encoder with attention (code2seq).
  NamesOnly, ///< Symbol-name subtokens only (Table 4 "Only Names").
};

/// Which training objective shapes the TypeSpace.
enum class LossKind {
  Class,   ///< Eq. 1 — closed-vocabulary classification.
  Space,   ///< Eq. 3 — deep similarity learning.
  Typilus, ///< Eq. 4 — Space + λ·Class over parameter-erased types.
};

/// Initial node representation (Table 4 bottom block).
enum class NodeRepKind { Subtoken, WholeToken, Character };

const char *encoderKindName(EncoderKind K);
const char *lossKindName(LossKind K);

struct ModelConfig;

/// Appends every ModelConfig field to the open chunk / reads them back.
/// readModelConfig validates enum ranges and fails on anything else.
void writeModelConfig(ArchiveWriter &W, const ModelConfig &C);
bool readModelConfig(ArchiveCursor &C, ModelConfig &Out, std::string *Err);

/// Hyper-parameters. Defaults are scaled-down but structurally faithful
/// (the paper uses D=64..128 and T=8 on GPUs; we default to CPU-friendly
/// sizes and let the benches raise them).
struct ModelConfig {
  EncoderKind Encoder = EncoderKind::Graph;
  LossKind Loss = LossKind::Typilus;
  NodeRepKind NodeRep = NodeRepKind::Subtoken;
  int HiddenDim = 32;          ///< D, also the TypeSpace dimensionality.
  int TimeSteps = 4;           ///< GGNN message-passing steps (paper: 8).
  float Margin = 2.0f;         ///< m of Eq. 3.
  float Lambda = 1.0f;         ///< λ of Eq. 4 (paper: 1).
  int MaxSeqLen = 700;         ///< biGRU truncation length.
  int MaxPathsPerSymbol = 8;   ///< code2seq paths sampled per symbol.
  uint64_t Seed = 0xC0FFEEull; ///< Parameter-init / path-sampling seed.
};

/// The type vocabularies a model classifies over, built from training data.
struct TypeVocabs {
  TypeIdMap Full;   ///< Canonical types (Eq. 1 head).
  TypeIdMap Erased; ///< Er(τ) types (Eq. 4 auxiliary head).
};

/// One model variant: encoder + loss + heads. Holds all parameters.
class TypeModel {
public:
  TypeModel(const ModelConfig &C, LabelVocab Vocab, TypeVocabs TV);

  /// Embeds every target of \p Files into the TypeSpace.
  /// \returns a [T, HiddenDim] Value; \p OutTargets (if non-null) receives
  /// the targets in row order. Reads no mutable state: each file's rows
  /// depend only on the parameters and that file (Path samples each
  /// target's paths from a stream seeded by the model seed and the
  /// target), so concurrent calls are safe and a file embeds the same
  /// whatever was embedded before it.
  nn::Value embed(const std::vector<const FileExample *> &Files,
                  std::vector<const Target *> *OutTargets);

  /// The training loss for a batch of embeddings (per the config).
  nn::Value loss(nn::Value Emb, const std::vector<const Target *> &Targets);

  /// Softmax probabilities over the full type vocabulary [T, |Full|]
  /// (the prediction path of the *2Class baselines).
  Tensor classProbs(nn::Value Emb);

  /// Appends the whole model — config ("mcfg"), label vocabulary
  /// ("lvoc"), type vocabularies ("tvoc"), RNG seeds ("rngs") and every
  /// parameter tensor ("parm") — as chunks of \p W. \p TypeIds is the
  /// artifact's type table (TypeUniverse::save).
  void save(ArchiveWriter &W, const std::map<TypeRef, int> &TypeIds) const;

  /// Weights-only serialization — just the "rngs" and "parm" chunks.
  /// Checkpoints use this: resume already reconstructed the model (same
  /// config and vocabularies), so only the mutable state travels.
  void saveWeights(ArchiveWriter &W) const;
  bool loadWeights(const ArchiveReader &R, std::string *Err);

  /// Reconstructs a model from chunks written by save(). \p ById is the
  /// loaded type table; its types (and therefore the model's vocabulary
  /// TypeRefs) belong to the universe that loaded it. The restored
  /// parameters and vocabularies are bit-identical to the saved model's,
  /// so it predicts exactly like the original.
  static std::unique_ptr<TypeModel> load(const ArchiveReader &R,
                                         const std::vector<TypeRef> &ById,
                                         std::string *Err);

  nn::ParamSet &params() { return PS; }
  const ModelConfig &config() const { return Config; }
  const TypeVocabs &typeVocabs() const { return TV; }
  const LabelVocab &labelVocab() const { return Vocab; }

private:
  /// The initial states of rows \p Rows of \p Labels (every row when
  /// null).
  nn::Value statesForLabels(const std::vector<std::string> &Labels,
                            const std::vector<int> *Rows = nullptr);
  nn::Value encodeGraphBatch(const std::vector<const FileExample *> &Files,
                             std::vector<const Target *> *OutTargets);
  nn::Value encodeSeqFile(const FileExample &F,
                          std::vector<const Target *> *OutTargets);
  nn::Value encodePathFile(const FileExample &F,
                           std::vector<const Target *> *OutTargets);
  nn::Value encodeNamesFile(const FileExample &F,
                            std::vector<const Target *> *OutTargets);
  nn::Value runGruSequence(const nn::GruCell &Cell, nn::Value X,
                           bool Reverse);
  nn::Value nameFallback(const Target &T);

  ModelConfig Config;
  LabelVocab Vocab;
  TypeVocabs TV;
  nn::ParamSet PS;
  Rng ParamRng;

  // Shared input representation.
  nn::Embedding SubEmb;
  nn::CharCnn CharEnc;

  // GGNN.
  std::vector<nn::Value> EdgeTransforms; ///< 2*NumEdgeLabels [D,D] matrices.
  nn::GruCell GraphGru;

  // biGRU baseline.
  nn::GruCell SeqF1, SeqB1, SeqF2, SeqB2;
  nn::Linear SeqOut;

  // Path baseline.
  nn::GruCell PathGru;
  nn::Linear PathCombine;
  nn::Value AttnW, AttnV;

  // Names-only ablation + fallback for symbols without occurrences.
  nn::Linear NamesOut;

  // Heads.
  nn::Linear ClassHead;  ///< Prototype embeddings + bias of Eq. 1.
  nn::Linear ErasedProj; ///< The linear map W of Eq. 4.
  nn::Linear ErasedHead;
};

} // namespace typilus

#endif // TYPILUS_MODELS_MODEL_H
