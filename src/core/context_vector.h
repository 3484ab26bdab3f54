#ifndef XSDF_CORE_CONTEXT_VECTOR_H_
#define XSDF_CORE_CONTEXT_VECTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {

/// A sphere neighborhood S_d(x) (paper Definition 5): all members at
/// distance <= d from the center, including the center at distance 0,
/// over either an XML tree (containment edges) or the semantic network
/// (semantic relation edges). Laid out structure-of-arrays: member
/// label ids (interned via core::LabelSpace for XML labels,
/// SemanticNetwork::LabelTokenId for concept labels — one shared id
/// space) and member distances are parallel flat vectors, so the
/// consumers' SIMD scans (first-occurrence dedup, sorted intersects)
/// load full lanes of ids with no (id, distance) deinterleave.
struct IdSphere {
  int radius = 0;
  std::vector<uint32_t> label_ids;  ///< parallel to distances
  std::vector<int32_t> distances;

  /// |S_d(x)|: the sphere cardinality (including the center; with this
  /// convention the weights of paper Figure 7's d=1 vector are
  /// reproduced exactly).
  int size() const { return static_cast<int>(label_ids.size()); }
  bool empty() const { return label_ids.empty(); }
  void clear() {
    label_ids.clear();
    distances.clear();
  }
  void reserve(size_t n) {
    label_ids.reserve(n);
    distances.reserve(n);
  }
  void push_back(uint32_t label_id, int32_t distance) {
    label_ids.push_back(label_id);
    distances.push_back(distance);
  }
};

/// The weighted context vector V_d(x) of Definitions 6-7: one dimension
/// per distinct label in the sphere, weighted by structural frequency
/// (occurrence frequency scaled by structural proximity, Eqs. 5-7).
/// Dimensions are interned label ids in first-occurrence sphere order,
/// and all accumulation follows that order; lookups are a binary
/// search over a small sorted permutation.
class IdContextVector {
 public:
  IdContextVector() = default;

  /// Builds the vector from a sphere per Definition 7. When
  /// `uniform_proximity` is set, the structural proximity factor is
  /// fixed at 1 for every member — degrading the model to the
  /// bag-of-words context of prior work (used by the ablation bench).
  explicit IdContextVector(const IdSphere& sphere,
                           bool uniform_proximity = false);

  /// Rebuilds this vector from `sphere`, reusing the existing buffers
  /// (the per-node hot loop builds thousands of vectors; reassignment
  /// keeps their capacity instead of reallocating). Equivalent to
  /// `*this = IdContextVector(sphere, uniform_proximity)`.
  void Assign(const IdSphere& sphere, bool uniform_proximity = false);

  /// w(l) for the label interned under `label_id`, 0 when absent.
  double WeightById(uint32_t label_id) const;

  /// Dimension label ids in first-occurrence sphere order.
  std::span<const uint32_t> ids() const { return ids_; }
  /// Dimension weights, parallel to ids().
  std::span<const double> weights() const { return weights_; }
  size_t dimension_count() const { return ids_.size(); }
  int sphere_size() const { return sphere_size_; }

  /// Cosine similarity with another context vector (Definition 10's
  /// comparison operator; 0 for empty vectors).
  double Cosine(const IdContextVector& other) const;

  /// Weighted Jaccard similarity, the alternative vector comparison
  /// the paper's footnote 10 mentions: sum(min(w)) / sum(max(w)).
  double Jaccard(const IdContextVector& other) const;

 private:
  /// Index into ids_/weights_ of `label_id`, or -1 (binary search over
  /// order_).
  int FindEntry(uint32_t label_id) const;

  std::vector<uint32_t> ids_;     ///< first-occurrence order
  std::vector<double> weights_;   ///< parallel to ids_
  std::vector<uint32_t> order_;   ///< indices into ids_, sorted by id
  /// ids_ permuted by order_ (i.e. ascending) — the contiguous SoA
  /// form the SIMD Cosine/Jaccard merge loads; sorted_ids_[k] ==
  /// ids_[order_[k]].
  std::vector<uint32_t> sorted_ids_;
  int sphere_size_ = 0;
};

/// Struct(x_i, S_d(x)) of Eq. 7: 1 - Dist(x, x_i) / (d + 1).
double StructuralProximity(int distance, int radius);

/// Builds the XML sphere neighborhood S_d(center) over the tree
/// (Definition 5), rings computed by BFS over containment edges, with
/// member labels read from `label_ids` (normally tree.label_ids()).
/// Members come ring by ring, ascending node id within a ring.
/// When `exclude_tokens` is set, content token nodes are left out of
/// the sphere (structure-only context; ablation of the paper's
/// structure-and-content integration, §3.1).
IdSphere BuildXmlIdSphere(const xml::LabeledTree& tree,
                          std::span<const uint32_t> label_ids,
                          xml::NodeId center, int radius,
                          bool exclude_tokens = false);

/// Same, rebuilding into `*out` (members cleared, capacity reused) so
/// a per-node loop allocates nothing after its first sphere.
void BuildXmlIdSphere(const xml::LabeledTree& tree,
                      std::span<const uint32_t> label_ids,
                      xml::NodeId center, int radius, bool exclude_tokens,
                      IdSphere* out);

/// Builds the concept sphere neighborhood S_d(c) over the semantic
/// network (paper §3.5.2), rings following all semantic relations.
/// Labels are the concepts' LabelTokenId()s — their first lemma
/// (network must be finalized).
IdSphere BuildConceptIdSphere(const wordnet::SemanticNetwork& network,
                              wordnet::ConceptId center, int radius);

/// Compound sphere S_d(s_p, s_q) = S_d(s_p) U S_d(s_q) for compound
/// labels whose tokens resolve to two senses (Eq. 12). Members present
/// in both spheres keep their smaller distance.
IdSphere BuildCompoundConceptIdSphere(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId p,
    wordnet::ConceptId q, int radius);

}  // namespace xsdf::core

#endif  // XSDF_CORE_CONTEXT_VECTOR_H_
