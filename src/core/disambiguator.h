#ifndef XSDF_CORE_DISAMBIGUATOR_H_
#define XSDF_CORE_DISAMBIGUATOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/ambiguity.h"
#include "core/label_space.h"
#include "core/scores.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/combined.h"
#include "wordnet/semantic_network.h"
#include "xml/dom.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {

/// Which disambiguation process to run (paper §3.5). kCombined blends
/// both per Eq. 13 using the combination weights.
enum class DisambiguationProcess { kConceptBased, kContextBased, kCombined };

/// Pluggable provider of a label's candidate senses. The default path
/// enumerates candidates on every node; a provider can memoize them
/// (label -> candidates is a pure function of the network). A provider
/// shared across threads must be internally thread-safe; the runtime
/// layer supplies a sharded LRU implementation with hit/miss counters.
///
/// Entries are handed out as shared_ptr<const SenseEntry>: a memoized
/// hit is a pointer copy, not a candidate-vector copy, and an entry a
/// worker is still scoring against stays alive even if the provider
/// evicts it concurrently. `label_id` is the label's LabelSpace id —
/// the natural cache key; all callers of one provider must resolve ids
/// through the same LabelSpace (the engine guarantees this by owning
/// exactly one).
class SenseInventory {
 public:
  virtual ~SenseInventory() = default;

  /// The shared candidate entry of a preprocessed node label, in
  /// EnumerateCandidates() order; never null.
  virtual std::shared_ptr<const SenseEntry> Entry(
      const wordnet::SemanticNetwork& network, uint32_t label_id,
      const std::string& label) = 0;
};

/// Everything the user can tune (the paper's Motivation 4): ambiguity
/// weights + selection threshold, sphere radius (context size),
/// semantic similarity measure weights, and the process combination.
struct DisambiguatorOptions {
  /// Node selection (paper §3.3).
  AmbiguityWeights ambiguity_weights;
  double ambiguity_threshold = 0.0;

  /// Context size: the sphere neighborhood radius d (paper §3.4).
  int sphere_radius = 2;

  /// Semantic similarity combination (Definition 9).
  sim::SimilarityWeights similarity_weights;

  /// Registry measure composition (the `--measures` flag). When
  /// non-empty it overrides `similarity_weights` and must be valid
  /// (MeasureConfig::Validate() OK — the CLI guarantees this by going
  /// through MeasureConfig::Parse); when empty the paper hybrid under
  /// `similarity_weights` is used. Always read it through
  /// EffectiveMeasureConfig() so the measure the disambiguator builds,
  /// the fingerprint the engine keys its similarity cache on, and the
  /// spec string serve reports can never disagree.
  sim::MeasureConfig measure_config;

  /// The composition actually in effect under the override rule above.
  sim::MeasureConfig EffectiveMeasureConfig() const {
    return measure_config.empty() ? similarity_weights.ToConfig()
                                  : measure_config;
  }

  /// Disambiguation process and, for kCombined, its weights (Eq. 13).
  DisambiguationProcess process = DisambiguationProcess::kConceptBased;
  CombinationWeights combination_weights;

  /// Vector comparison used by the context-based process (paper
  /// footnote 10: cosine by default, Jaccard as an alternative).
  VectorSimilarity vector_similarity = VectorSimilarity::kCosine;

  /// Structure-and-content (true) vs structure-only (false).
  bool include_values = true;

  /// Ablation switch: build spheres from structural nodes only,
  /// ignoring content tokens (disables the paper's
  /// structure-and-content context integration).
  bool structure_only_context = false;

  /// Ablation switch: treat the sphere context as a plain bag of words
  /// (uniform structural proximity), as prior approaches do.
  bool bag_of_words_context = false;

  /// The label id space shared with the sense inventory and the tree
  /// builder (non-owning; optional). Without one the disambiguator
  /// owns a private space — fine standalone, but an engine sharing a
  /// SenseInventory across workers must install one shared space so
  /// ids agree across threads.
  LabelSpace* label_space = nullptr;

  /// Weight of the most-frequent-sense prior drawn from the weighted
  /// network SN-bar (the concept frequencies of paper Figure 2).
  /// Candidate scores receive + prior * freq(c)/max_freq(candidates),
  /// resolving low-signal contexts toward the corpus-dominant sense —
  /// the standard knowledge-based WSD backoff. 0 disables it.
  double frequency_prior = 0.15;

  /// Non-owning shared caches (both optional; installed by the runtime
  /// engine). `similarity_cache` replaces the combined measure's
  /// private memo table; `sense_inventory` replaces direct
  /// EnumerateCandidates() calls. Either may be shared across many
  /// Disambiguator instances/threads, in which case it must be
  /// thread-safe. They never change results — only where memoized
  /// values live.
  sim::SimilarityCacheHook* similarity_cache = nullptr;
  SenseInventory* sense_inventory = nullptr;

  /// Optional observability sinks (non-owning; both may be shared
  /// across Disambiguator instances — they are internally
  /// thread-safe). `metrics` receives the per-stage latency histograms
  /// (stage.select_us / stage.context_us / stage.score_us, recorded
  /// per document) and the per-node distributions (ambiguity degree,
  /// candidate count, top-2 score margin). `trace` receives spans for
  /// the select stage and for every disambiguated node. Instrumentation
  /// never changes results; with both null the pipeline does not even
  /// read the clock.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSession* trace = nullptr;
};

/// The sense assigned to one target node.
struct SenseAssignment {
  xml::NodeId node = xml::kInvalidNode;
  SenseCandidate sense;       ///< winning candidate
  double score = 0.0;         ///< its (combined) score
  double ambiguity = 0.0;     ///< the node's Amb_Deg
  int candidate_count = 0;    ///< size of the sense inventory examined
};

/// Audit record of one candidate sense considered for a node: the raw
/// process components (before Eq. 13 weighting and prior smoothing)
/// plus the final score the argmax saw. With the frequency prior
/// active, `total` is the top-normalized weighted score plus `prior`;
/// without it, total = w_concept * concept_score + w_context *
/// context_score exactly as DisambiguateNode computed it.
struct CandidateAudit {
  SenseCandidate sense;
  double concept_score = 0.0;  ///< Concept_Score (Definition 8 / Eq. 10)
  double context_score = 0.0;  ///< Context_Score (Definition 10 / Eq. 12)
  double prior = 0.0;          ///< frequency-prior contribution
  double total = 0.0;          ///< final score used by the argmax
};

/// The full per-node disambiguation audit trail: every candidate with
/// its score decomposition, which one won, and by how much. Produced
/// by Disambiguator::ExplainNode(); the chosen sense is byte-identical
/// to what DisambiguateNode() assigns for the same tree and options.
struct NodeAudit {
  xml::NodeId node = xml::kInvalidNode;
  std::string label;           ///< preprocessed node label
  double ambiguity = 0.0;      ///< Amb_Deg of the node
  std::vector<CandidateAudit> candidates;
  int chosen_index = -1;       ///< into `candidates`
  double margin = 0.0;         ///< total(top1) - total(top2); 0 if single
};

/// The semantic XML tree: the input labeled tree plus a concept
/// assignment for every disambiguated target node (paper Figure 4's
/// output). Non-target nodes remain untouched.
struct SemanticTree {
  xml::LabeledTree tree;
  std::unordered_map<xml::NodeId, SenseAssignment> assignments;
};

/// The XSDF pipeline (paper Figure 3): linguistic pre-processing ->
/// ambiguous-node selection -> sphere context construction -> hybrid
/// disambiguation.
class Disambiguator {
 public:
  /// `network` must outlive the disambiguator and be finalized
  /// (FinalizeFrequencies(); the similarity kernels read its dense
  /// tables). Checked in debug builds.
  Disambiguator(const wordnet::SemanticNetwork* network,
                DisambiguatorOptions options = {});

  const DisambiguatorOptions& options() const { return options_; }

  /// The label space ids are resolved through (the installed one, or
  /// the private space created when none was). Internally
  /// synchronized. Trees handed to the per-node entry points below
  /// must carry ids from this space: build them with it
  /// (BuildTreeStreaming / BuildTree).
  LabelSpace* label_space() const { return label_space_; }

  /// Runs the full pipeline on a parsed document.
  Result<SemanticTree> Run(const xml::Document& doc) const;

  /// Runs the pipeline on an XML string (one-pass streaming build).
  Result<SemanticTree> RunOnXml(const std::string& xml_text) const;

  /// Runs selection + disambiguation on an already-built tree. A tree
  /// without label ids gets them assigned from label_space() first.
  Result<SemanticTree> RunOnTree(xml::LabeledTree tree) const;

  /// The target nodes RunOnTree would disambiguate, in selection
  /// order, timed into stage.select_us. Exposed so the runtime engine
  /// can split the per-target DisambiguateNode() loop into stealable
  /// chunks across workers — DisambiguateNode is a pure function of
  /// (tree, id) for identically-configured disambiguators, so chunk
  /// placement never changes results.
  std::vector<xml::NodeId> SelectTargets(const xml::LabeledTree& tree) const;

  /// Disambiguates a single node of `tree`; returns the winning
  /// assignment, NotFound when the label has no candidate senses, or
  /// InvalidArgument when the tree carries no label ids.
  Result<SenseAssignment> DisambiguateNode(const xml::LabeledTree& tree,
                                           xml::NodeId id) const;

  /// Scores every candidate sense of `id` (exposed for analysis and
  /// tests); parallel to EnumerateCandidates() order. Empty when the
  /// tree carries no label ids.
  std::vector<double> ScoreCandidates(const xml::LabeledTree& tree,
                                      xml::NodeId id) const;

  /// Disambiguates one node and returns the full audit trail: every
  /// candidate with its concept/context/prior score decomposition and
  /// the chosen index. The chosen sense and scores are byte-identical
  /// to DisambiguateNode() on the same tree — audit capture never
  /// perturbs the computation. NotFound when the label is senseless,
  /// InvalidArgument when the tree carries no label ids.
  Result<NodeAudit> ExplainNode(const xml::LabeledTree& tree,
                                xml::NodeId id) const;

 private:
  /// Per-document accumulators for the stage histograms: context
  /// covers sphere + context-vector + sense resolution, score covers
  /// the candidate scoring loop (incl. the frequency prior).
  struct StageAccum {
    uint64_t context_ns = 0;
    uint64_t score_ns = 0;
  };
  /// Handles resolved once against options_.metrics (all null without
  /// a registry, making every record site a dead branch).
  struct Instruments {
    obs::Histogram* select_us = nullptr;
    obs::Histogram* context_us = nullptr;
    obs::Histogram* score_us = nullptr;
    obs::Histogram* node_ambiguity_pct = nullptr;
    obs::Histogram* node_candidates = nullptr;
    obs::Histogram* node_margin_milli = nullptr;
  };

  CombinationWeights EffectiveCombination() const;

  /// The node's shared candidate entry, via the sense inventory when
  /// installed; never null.
  std::shared_ptr<const SenseEntry> CandidatesFor(
      const xml::LabeledTree& tree, xml::NodeId id) const;

  /// DisambiguateNode with optional stage-time accumulation and audit
  /// capture (both null on the plain path).
  Result<SenseAssignment> DisambiguateNodeImpl(const xml::LabeledTree& tree,
                                               xml::NodeId id,
                                               StageAccum* accum,
                                               NodeAudit* audit) const;

  /// Scores an already-enumerated candidate list, resolving the node's
  /// sphere context once for all candidates (DisambiguateNode passes
  /// the list it fetched, avoiding a second sense-inventory lookup).
  std::vector<double> ScoreCandidatesImpl(
      const xml::LabeledTree& tree, xml::NodeId id,
      const std::vector<SenseCandidate>& candidates,
      StageAccum* accum = nullptr, NodeAudit* audit = nullptr) const;

  const wordnet::SemanticNetwork* network_;
  DisambiguatorOptions options_;
  sim::CombinedMeasure measure_;
  Instruments ins_;
  /// Private space when options_.label_space was null.
  std::unique_ptr<LabelSpace> owned_label_space_;
  LabelSpace* label_space_ = nullptr;  ///< never null after construction
};

/// Renders a semantic tree as an annotated XML document: one element
/// per tree node carrying its label, kind, and — when disambiguated —
/// the assigned concept's label, id, and gloss. This is the
/// "semantically augmented XML tree" deliverable of the paper abstract.
std::string SemanticTreeToXml(const SemanticTree& semantic_tree,
                              const wordnet::SemanticNetwork& network);

/// Writes a NodeAudit's fields (label, ambiguity, candidates with
/// concept labels/glosses resolved against `network`, chosen sense,
/// margin) into an already-open JSON object — callers add their own
/// context keys (file, path) around it. See also NodeAuditToJson().
void AppendNodeAuditFields(obs::JsonWriter* writer, const NodeAudit& audit,
                           const wordnet::SemanticNetwork& network);

/// A NodeAudit as a standalone JSON object (the `xsdf explain` record).
std::string NodeAuditToJson(const NodeAudit& audit,
                            const wordnet::SemanticNetwork& network);

}  // namespace xsdf::core

#endif  // XSDF_CORE_DISAMBIGUATOR_H_
