#include "core/disambiguator.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>

#include "common/check.h"
#include "core/streaming_builder.h"
#include "xml/serializer.h"

namespace xsdf::core {

Disambiguator::Disambiguator(const wordnet::SemanticNetwork* network,
                             DisambiguatorOptions options)
    : network_(network),
      options_(options),
      measure_(options.EffectiveMeasureConfig()) {
  XSDF_DCHECK(network_->finalized(),
              "the disambiguator needs a finalized network");
  measure_.set_external_cache(options_.similarity_cache);
  if (options_.label_space != nullptr) {
    label_space_ = options_.label_space;
  } else {
    owned_label_space_ = std::make_unique<LabelSpace>(network_);
    label_space_ = owned_label_space_.get();
  }
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    ins_.select_us = m->GetHistogram("stage.select_us");
    ins_.context_us = m->GetHistogram("stage.context_us");
    ins_.score_us = m->GetHistogram("stage.score_us");
    ins_.node_ambiguity_pct = m->GetHistogram(
        "core.node_ambiguity_pct",
        {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
    ins_.node_candidates = m->GetHistogram(
        "core.node_candidates", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64});
    ins_.node_margin_milli = m->GetHistogram(
        "core.node_top2_margin_milli",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000});
  }
}

std::shared_ptr<const SenseEntry> Disambiguator::CandidatesFor(
    const xml::LabeledTree& tree, xml::NodeId id) const {
  if (options_.sense_inventory != nullptr) {
    return options_.sense_inventory->Entry(*network_, tree.label_id(id),
                                           tree.node(id).label);
  }
  auto entry = std::make_shared<SenseEntry>();
  entry->candidates =
      EnumerateCandidatesById(*label_space_, tree.label_id(id));
  return entry;
}

CombinationWeights Disambiguator::EffectiveCombination() const {
  switch (options_.process) {
    case DisambiguationProcess::kConceptBased:
      return {1.0, 0.0};
    case DisambiguationProcess::kContextBased:
      return {0.0, 1.0};
    case DisambiguationProcess::kCombined:
      return options_.combination_weights;
  }
  return {1.0, 0.0};
}

std::vector<double> Disambiguator::ScoreCandidates(
    const xml::LabeledTree& tree, xml::NodeId id) const {
  if (!tree.has_label_ids()) return {};
  return ScoreCandidatesImpl(tree, id, CandidatesFor(tree, id)->candidates);
}

std::vector<double> Disambiguator::ScoreCandidatesImpl(
    const xml::LabeledTree& tree, xml::NodeId id,
    const std::vector<SenseCandidate>& candidates, StageTimes* times,
    NodeAudit* audit) const {
  const uint64_t t_start = times != nullptr ? obs::MonotonicNowNs() : 0;
  CombinationWeights combo = EffectiveCombination();
  // Build the sphere context and resolve its labels against the sense
  // index once; every candidate scores against the same resolved
  // context. The sphere scratch is thread_local so batch workers
  // scoring node after node reuse its member buffer instead of
  // reallocating it.
  thread_local IdSphere sphere;
  BuildXmlIdSphere(tree, tree.label_ids(), id, options_.sphere_radius,
                   options_.structure_only_context, &sphere);
  IdContextVector vector(sphere, options_.bag_of_words_context);
  IdResolvedContext resolved(*label_space_, sphere, vector);
  uint64_t t_context = 0;
  if (times != nullptr) {
    t_context = obs::MonotonicNowNs();
    times->context_ns += t_context - t_start;
  }
  std::vector<double> scores;
  scores.reserve(candidates.size());
  for (const SenseCandidate& candidate : candidates) {
    // Keep the accumulation order exactly as the un-audited path had
    // it — audit capture must stay bit-identical.
    double score = 0.0;
    double concept_part = 0.0;
    double context_part = 0.0;
    if (combo.concept_weight > 0.0) {
      concept_part = resolved.Score(*network_, measure_, candidate);
      score += combo.concept_weight * concept_part;
    }
    if (combo.context_weight > 0.0) {
      context_part = IdContextScore(*network_, candidate, vector,
                                    options_.sphere_radius,
                                    options_.vector_similarity);
      score += combo.context_weight * context_part;
    }
    if (audit != nullptr) {
      CandidateAudit entry;
      entry.sense = candidate;
      entry.concept_score = concept_part;
      entry.context_score = context_part;
      audit->candidates.push_back(entry);
    }
    scores.push_back(score);
  }
  if (options_.frequency_prior > 0.0 && !candidates.empty()) {
    // Most-frequent-sense prior from SN-bar, normalized within the
    // candidate inventory so it only breaks near-ties.
    auto candidate_frequency = [&](const SenseCandidate& c) {
      double f = network_->GetConcept(c.primary).frequency;
      if (c.is_compound()) {
        f = (f + network_->GetConcept(c.secondary).frequency) / 2.0;
      }
      return f;
    };
    double max_freq = 0.0;
    for (const SenseCandidate& c : candidates) {
      max_freq = std::max(max_freq, candidate_frequency(c));
    }
    // Normalize context scores to the top score first, so the prior is
    // a fixed-strength tie-breaker regardless of the absolute score
    // scale (which shrinks with sphere size).
    double max_score = 0.0;
    for (double s : scores) max_score = std::max(max_score, s);
    if (max_score > 0.0) {
      for (double& s : scores) s /= max_score;
    }
    if (max_freq > 0.0) {
      for (size_t i = 0; i < candidates.size(); ++i) {
        const double prior = options_.frequency_prior *
                             candidate_frequency(candidates[i]) / max_freq;
        scores[i] += prior;
        if (audit != nullptr) audit->candidates[i].prior = prior;
      }
    }
  }
  if (audit != nullptr) {
    for (size_t i = 0; i < scores.size(); ++i) {
      audit->candidates[i].total = scores[i];
    }
  }
  if (times != nullptr) {
    times->score_ns += obs::MonotonicNowNs() - t_context;
  }
  return scores;
}

Result<SenseAssignment> Disambiguator::DisambiguateNode(
    const xml::LabeledTree& tree, xml::NodeId id) const {
  return DisambiguateNodeImpl(tree, id, nullptr, nullptr);
}

Result<SenseAssignment> Disambiguator::DisambiguateNodeImpl(
    const xml::LabeledTree& tree, xml::NodeId id, StageTimes* times,
    NodeAudit* audit) const {
  if (!tree.has_label_ids()) {
    return Status::InvalidArgument(
        "tree carries no label ids; build it with the disambiguator's "
        "label_space()");
  }
  const std::string& label = tree.node(id).label;
  obs::Span node_span(options_.trace, "node",
                      options_.trace != nullptr ? label : std::string());
  std::shared_ptr<const SenseEntry> entry = CandidatesFor(tree, id);
  const std::vector<SenseCandidate>& candidates = entry->candidates;
  if (candidates.empty()) {
    return Status::NotFound("label has no senses in the network: " + label);
  }
  SenseAssignment assignment;
  assignment.node = id;
  assignment.candidate_count = static_cast<int>(candidates.size());
  assignment.ambiguity = AmbiguityDegreeFromPolysemy(
      tree, id, label_space_->Senses(tree.label_id(id)).polysemy,
      options_.ambiguity_weights);
  if (ins_.node_candidates != nullptr) {
    ins_.node_candidates->Record(candidates.size());
  }
  if (ins_.node_ambiguity_pct != nullptr) {
    ins_.node_ambiguity_pct->Record(
        static_cast<uint64_t>(std::lround(assignment.ambiguity * 100.0)));
  }
  if (audit != nullptr) {
    audit->node = id;
    audit->label = label;
    audit->ambiguity = assignment.ambiguity;
  }
  if (candidates.size() == 1) {
    assignment.sense = candidates[0];
    assignment.score = 1.0;
    if (audit != nullptr) {
      CandidateAudit only;
      only.sense = candidates[0];
      only.total = 1.0;
      audit->candidates.push_back(only);
      audit->chosen_index = 0;
    }
    return assignment;
  }
  std::vector<double> scores =
      ScoreCandidatesImpl(tree, id, candidates, times, audit);
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  double runner_up = 0.0;
  bool have_runner_up = false;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (i == best) continue;
    if (!have_runner_up || scores[i] > runner_up) {
      runner_up = scores[i];
      have_runner_up = true;
    }
  }
  const double margin = have_runner_up ? scores[best] - runner_up : 0.0;
  if (ins_.node_margin_milli != nullptr) {
    ins_.node_margin_milli->Record(static_cast<uint64_t>(
        std::lround(std::max(margin, 0.0) * 1000.0)));
  }
  if (audit != nullptr) {
    audit->chosen_index = static_cast<int>(best);
    audit->margin = margin;
  }
  assignment.sense = candidates[best];
  assignment.score = scores[best];
  return assignment;
}

Result<NodeAudit> Disambiguator::ExplainNode(const xml::LabeledTree& tree,
                                             xml::NodeId id) const {
  NodeAudit audit;
  auto assignment = DisambiguateNodeImpl(tree, id, nullptr, &audit);
  if (!assignment.ok()) return assignment.status();
  return audit;
}

std::vector<xml::NodeId> Disambiguator::SelectTargets(
    const xml::LabeledTree& tree) const {
  obs::StageTimer timer(ins_.select_us, options_.trace, "select");
  std::vector<xml::NodeId> targets;
  if (!tree.has_label_ids()) return targets;
  // One memo read per node answers both "has a sense" (a senseless
  // label can never be assigned a concept, so it is no target even at
  // threshold 0) and Amb_Polysemy, with no string work.
  for (xml::NodeId id = 0; id < static_cast<xml::NodeId>(tree.size());
       ++id) {
    const LabelSenses& senses = label_space_->Senses(tree.label_id(id));
    if (!senses.has_senses()) continue;
    if (AmbiguityDegreeFromPolysemy(tree, id, senses.polysemy,
                                    options_.ambiguity_weights) >=
        options_.ambiguity_threshold) {
      targets.push_back(id);
    }
  }
  return targets;
}

size_t Disambiguator::DisambiguateTargets(
    const xml::LabeledTree& tree, std::span<const xml::NodeId> targets,
    std::span<SenseAssignment> slots, StageTimes* times) const {
  // The clock is read only when a stage histogram will take the sum.
  if (ins_.context_us == nullptr && ins_.score_us == nullptr) {
    times = nullptr;
  }
  size_t assigned = 0;
  for (xml::NodeId id : targets) {
    auto assignment = DisambiguateNodeImpl(tree, id, times, nullptr);
    if (!assignment.ok()) continue;  // senseless labels stay untouched
    slots[static_cast<size_t>(id)] = std::move(assignment).value();
    ++assigned;
  }
  return assigned;
}

void Disambiguator::RecordStageTimes(const StageTimes& times) const {
  if (ins_.context_us != nullptr) {
    ins_.context_us->Record((times.context_ns + 500) / 1000);
  }
  if (ins_.score_us != nullptr) {
    ins_.score_us->Record((times.score_ns + 500) / 1000);
  }
}

Result<SemanticTree> Disambiguator::RunOnTree(xml::LabeledTree tree) const {
  // Trees handed in without interned labels get one id-assignment pass
  // up front; every per-node stage below reads the ids.
  if (!tree.has_label_ids()) {
    for (xml::NodeId id = 0; id < static_cast<xml::NodeId>(tree.size());
         ++id) {
      tree.set_label_id(id, label_space_->Resolve(tree.node(id).label));
    }
  }
  std::vector<xml::NodeId> targets = SelectTargets(tree);
  std::vector<SenseAssignment> slots(tree.size());
  StageTimes times;
  DisambiguateTargets(tree, targets, slots, &times);
  RecordStageTimes(times);
  SemanticTree result;
  for (xml::NodeId id : targets) {
    SenseAssignment& slot = slots[static_cast<size_t>(id)];
    if (slot.node != xml::kInvalidNode) {
      result.assignments.emplace(id, std::move(slot));
    }
  }
  result.tree = std::move(tree);
  return result;
}

Result<SemanticTree> Disambiguator::RunOnXml(
    const std::string& xml_text) const {
  auto tree = BuildTreeStreaming(xml_text, *network_, {},
                                 options_.include_values, label_space_);
  if (!tree.ok()) return tree.status();
  return RunOnTree(std::move(tree).value());
}

namespace {

/// Opens a line at serializer depth `depth` (the indent-2 layout of
/// xml::Serialize).
template <class Out>
void AppendIndent(Out* out, size_t depth) {
  out->push_back('\n');
  out->append(2 * depth, ' ');
}

template <class Out>
void AppendText(Out* out, std::string_view text) {
  out->append(text.data(), text.size());
}

template <class Out>
void AppendAttribute(Out* out, std::string_view name,
                     std::string_view value) {
  out->push_back(' ');
  AppendText(out, name);
  AppendText(out, "=\"");
  xml::AppendEscapedAttribute(out, value);
  out->push_back('"');
}

/// A concept id attribute, in std::to_string's decimal spelling.
template <class Out>
void AppendIdAttribute(Out* out, std::string_view name,
                       wordnet::ConceptId id) {
  char buffer[16];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), id);
  AppendAttribute(out, name,
                  std::string_view(buffer, static_cast<size_t>(
                                               result.ptr - buffer)));
}

/// The score attribute: fixed notation with 4 decimals, byte-equal to
/// printf's "%.4f" (the buffer holds any double in fixed notation).
template <class Out>
void AppendScoreAttribute(Out* out, double score) {
  char buffer[std::numeric_limits<double>::max_exponent10 + 32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), score,
                                    std::chars_format::fixed, 4);
  AppendAttribute(out, "score",
                  std::string_view(buffer, static_cast<size_t>(
                                               result.ptr - buffer)));
}

std::string_view KindName(xml::TreeNodeKind kind) {
  switch (kind) {
    case xml::TreeNodeKind::kElement:
      return "element";
    case xml::TreeNodeKind::kAttribute:
      return "attribute";
    case xml::TreeNodeKind::kToken:
      return "token";
  }
  return "element";
}

/// The opening tag of one tree node, without its closing '>' or "/>".
template <class Out>
void AppendNodeOpen(Out* out, const xml::TreeNode& node,
                    const SenseAssignment& slot,
                    const wordnet::SemanticNetwork& network) {
  AppendText(out, "<node");
  AppendAttribute(out, "label", node.label);
  AppendAttribute(out, "kind", KindName(node.kind));
  if (slot.node == xml::kInvalidNode) return;
  const wordnet::Concept& c = network.GetConcept(slot.sense.primary);
  AppendAttribute(out, "concept", c.label());
  AppendIdAttribute(out, "concept_id", slot.sense.primary);
  AppendAttribute(out, "gloss", c.gloss);
  if (slot.sense.is_compound()) {
    const wordnet::Concept& c2 = network.GetConcept(slot.sense.secondary);
    AppendAttribute(out, "concept2", c2.label());
    AppendIdAttribute(out, "concept2_id", slot.sense.secondary);
  }
  AppendScoreAttribute(out, slot.score);
}

/// The one semantic-XML writer. Ids are preorder ranks, so node i's
/// bytes depend only on the node, its slot, its depth and the next
/// node's depth: its line, then the closing lines of the ancestors
/// that end with it. The document head belongs to node 0 and the tail
/// to the last node, so writing [0, k) then [k, n) gives the bytes of
/// [0, n) for every k.
template <class Out>
void AppendSemanticXml(const xml::LabeledTree& tree,
                       std::span<const SenseAssignment> slots,
                       const wordnet::SemanticNetwork& network, size_t begin,
                       size_t end, Out* out) {
  static constexpr std::string_view kHead =
      "<?xml version=\"1.0\"?>\n<semantic_tree";
  const size_t n = tree.size();
  if (n == 0) {
    AppendText(out, kHead);
    AppendText(out, "/>");
    return;
  }
  if (begin == 0 && end > 0) {
    AppendText(out, kHead);
    out->push_back('>');
  }
  for (size_t i = begin; i < end; ++i) {
    const xml::TreeNode& node = tree.node(static_cast<xml::NodeId>(i));
    const size_t depth = static_cast<size_t>(node.depth);
    AppendIndent(out, depth + 1);
    AppendNodeOpen(out, node, slots[i], network);
    if (!node.children.empty()) {
      out->push_back('>');
      continue;
    }
    AppendText(out, "/>");
    const size_t next_depth =
        i + 1 < n
            ? static_cast<size_t>(
                  tree.node(static_cast<xml::NodeId>(i + 1)).depth)
            : 0;
    // Close the ancestors at depths depth-1 down to next_depth.
    for (size_t open = depth; open > next_depth; --open) {
      AppendIndent(out, open);
      AppendText(out, "</node>");
    }
    if (i + 1 == n) {
      AppendIndent(out, 0);
      AppendText(out, "</semantic_tree>");
    }
  }
}

/// Counts what a write would produce.
struct ByteCounter {
  size_t size = 0;
  void append(const char*, size_t count) { size += count; }
  void append(size_t count, char) { size += count; }
  void push_back(char) { ++size; }
};

/// Writes into a buffer already sized by ByteCounter.
struct BufferWriter {
  char* cursor;
  void append(const char* data, size_t count) {
    std::memcpy(cursor, data, count);
    cursor += count;
  }
  void append(size_t count, char c) {
    std::memset(cursor, c, count);
    cursor += count;
  }
  void push_back(char c) { *cursor++ = c; }
};

}  // namespace

size_t SemanticXmlRangeSize(const xml::LabeledTree& tree,
                            std::span<const SenseAssignment> slots,
                            const wordnet::SemanticNetwork& network,
                            size_t begin, size_t end) {
  ByteCounter counter;
  AppendSemanticXml(tree, slots, network, begin, end, &counter);
  return counter.size;
}

char* WriteSemanticXmlRange(const xml::LabeledTree& tree,
                            std::span<const SenseAssignment> slots,
                            const wordnet::SemanticNetwork& network,
                            size_t begin, size_t end, char* out) {
  BufferWriter writer{out};
  AppendSemanticXml(tree, slots, network, begin, end, &writer);
  return writer.cursor;
}

std::string SemanticXml(const xml::LabeledTree& tree,
                        std::span<const SenseAssignment> slots,
                        const wordnet::SemanticNetwork& network) {
  std::string out;
  out.reserve(SemanticXmlSizeEstimate(tree.size()));
  AppendSemanticXml(tree, slots, network, 0, tree.size(), &out);
  return out;
}

std::string SemanticTreeToXml(const SemanticTree& semantic_tree,
                              const wordnet::SemanticNetwork& network) {
  const xml::LabeledTree& tree = semantic_tree.tree;
  std::vector<SenseAssignment> slots(tree.size());
  for (const auto& [id, assignment] : semantic_tree.assignments) {
    if (id >= 0 && static_cast<size_t>(id) < tree.size()) {
      slots[static_cast<size_t>(id)] = assignment;
      slots[static_cast<size_t>(id)].node = id;
    }
  }
  return SemanticXml(tree, slots, network);
}

namespace {

void AppendSenseJson(obs::JsonWriter* writer, const SenseCandidate& sense,
                     const wordnet::SemanticNetwork& network) {
  const wordnet::Concept& c = network.GetConcept(sense.primary);
  writer->Key("concept_id").Value(static_cast<int64_t>(sense.primary));
  writer->Key("concept").Value(c.label());
  writer->Key("gloss").Value(c.gloss);
  if (sense.is_compound()) {
    const wordnet::Concept& c2 = network.GetConcept(sense.secondary);
    writer->Key("concept2_id").Value(static_cast<int64_t>(sense.secondary));
    writer->Key("concept2").Value(c2.label());
  }
}

}  // namespace

void AppendNodeAuditFields(obs::JsonWriter* writer, const NodeAudit& audit,
                           const wordnet::SemanticNetwork& network) {
  writer->Key("node").Value(static_cast<int64_t>(audit.node));
  writer->Key("label").Value(audit.label);
  writer->Key("ambiguity").Value(audit.ambiguity);
  writer->Key("candidate_count")
      .Value(static_cast<int64_t>(audit.candidates.size()));
  writer->Key("margin").Value(audit.margin);
  if (audit.chosen_index >= 0 &&
      static_cast<size_t>(audit.chosen_index) < audit.candidates.size()) {
    const CandidateAudit& chosen =
        audit.candidates[static_cast<size_t>(audit.chosen_index)];
    writer->Key("chosen").BeginObject();
    AppendSenseJson(writer, chosen.sense, network);
    writer->Key("score").Value(chosen.total);
    writer->EndObject();
  }
  writer->Key("candidates").BeginArray();
  for (size_t i = 0; i < audit.candidates.size(); ++i) {
    const CandidateAudit& candidate = audit.candidates[i];
    writer->BeginObject();
    AppendSenseJson(writer, candidate.sense, network);
    writer->Key("concept_score").Value(candidate.concept_score);
    writer->Key("context_score").Value(candidate.context_score);
    writer->Key("prior").Value(candidate.prior);
    writer->Key("total").Value(candidate.total);
    writer->Key("chosen").Value(static_cast<int>(i) == audit.chosen_index);
    writer->EndObject();
  }
  writer->EndArray();
}

size_t AppendExplainedNodes(obs::JsonWriter* writer,
                            const Disambiguator& system,
                            const xml::LabeledTree& tree,
                            std::span<const xml::NodeId> matches,
                            const wordnet::SemanticNetwork& network) {
  writer->Key("nodes").BeginArray();
  size_t explained = 0;
  for (xml::NodeId id : matches) {
    auto audit = system.ExplainNode(tree, id);
    if (!audit.ok()) continue;  // senseless label: nothing to audit
    writer->BeginObject();
    AppendNodeAuditFields(writer, *audit, network);
    writer->EndObject();
    ++explained;
  }
  writer->EndArray();
  writer->Key("matches").Value(static_cast<uint64_t>(matches.size()));
  writer->Key("explained").Value(static_cast<uint64_t>(explained));
  return explained;
}

std::string NodeAuditToJson(const NodeAudit& audit,
                            const wordnet::SemanticNetwork& network) {
  obs::JsonWriter writer;
  writer.BeginObject();
  AppendNodeAuditFields(&writer, audit, network);
  writer.EndObject();
  return writer.TakeString();
}

}  // namespace xsdf::core
