// End-to-end tests of the XSDF pipeline (paper Figure 3): the Figure 1
// running example, options behavior, compound assignment, semantic
// tree serialization (differentially against the DOM oracle).

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
#include "semantic_xml_oracle.h"
#include "wordnet/mini_wordnet.h"
#include "xml/parser.h"

namespace xsdf::core {
namespace {

using wordnet::SemanticNetwork;

const SemanticNetwork& Network() {
  static const SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

const char* kFigure1Doc1 = R"(<?xml version="1.0"?>
<films>
  <picture title="Rear Window">
    <director>Hitchcock</director>
    <year>1954</year>
    <genre>mystery</genre>
    <cast><star>Stewart</star><star>Kelly</star></cast>
    <plot>A wheelchair bound photographer spies on his neighbors</plot>
  </picture>
</films>)";

/// Assignment for the first node with this label, or nullptr.
/// The labeled tree of `xml`, interned through `system`'s label space —
/// what the per-node entry points require.
Result<xml::LabeledTree> TreeFor(const Disambiguator& system,
                                 const std::string& xml) {
  return BuildTreeStreaming(xml, Network(), {}, true, system.label_space());
}

const SenseAssignment* FindByLabel(const SemanticTree& result,
                                   const std::string& label) {
  for (const auto& node : result.tree.nodes()) {
    if (node.label != label) continue;
    auto it = result.assignments.find(node.id);
    if (it != result.assignments.end()) return &it->second;
  }
  return nullptr;
}

std::string AssignedLabel(const SemanticTree& result,
                          const std::string& label) {
  const SenseAssignment* assignment = FindByLabel(result, label);
  if (assignment == nullptr) return "<none>";
  return Network().GetConcept(assignment->sense.primary).label();
}

TEST(DisambiguatorTest, PaperHeadlineExample) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The paper's motivating claim: in this context "Kelly" refers to
  // Grace Kelly, not Emmet (clown) or Gene (dancer).
  EXPECT_EQ(AssignedLabel(*result, "kelly"), "grace_kelly");
  EXPECT_EQ(AssignedLabel(*result, "stewart"), "james_stewart");
  EXPECT_EQ(AssignedLabel(*result, "hitchcock"), "alfred_hitchcock");
  // Structure labels.
  EXPECT_EQ(AssignedLabel(*result, "star"), "star");
  const SenseAssignment* star = FindByLabel(*result, "star");
  ASSERT_NE(star, nullptr);
  EXPECT_EQ(Network().GetConcept(star->sense.primary).gloss,
            "an actor who plays a principal role");
}

TEST(DisambiguatorTest, MonosemousNodesScoreOne) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result.ok());
  const SenseAssignment* wheelchair = FindByLabel(*result, "wheelchair");
  ASSERT_NE(wheelchair, nullptr);
  EXPECT_EQ(wheelchair->candidate_count, 1);
  EXPECT_DOUBLE_EQ(wheelchair->score, 1.0);
}

TEST(DisambiguatorTest, CompoundTagGetsSensePair) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml(
      "<movies><movie><MovieStar>Kelly</MovieStar></movie></movies>");
  ASSERT_TRUE(result.ok());
  const SenseAssignment* compound = FindByLabel(*result, "movie_star");
  ASSERT_NE(compound, nullptr);
  EXPECT_TRUE(compound->sense.is_compound());
  // The primary token "movie" resolves among movie senses.
  EXPECT_EQ(Network().GetConcept(compound->sense.primary).pos,
            wordnet::PartOfSpeech::kNoun);
}

TEST(DisambiguatorTest, CollocationTagResolvesAsOneConcept) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml(
      "<actor><FirstName>Grace</FirstName></actor>");
  ASSERT_TRUE(result.ok());
  const SenseAssignment* first_name = FindByLabel(*result, "first_name");
  ASSERT_NE(first_name, nullptr);
  EXPECT_FALSE(first_name->sense.is_compound());
  EXPECT_EQ(Network().GetConcept(first_name->sense.primary).label(),
            "first_name");
}

TEST(DisambiguatorTest, ThresholdLimitsTargets) {
  DisambiguatorOptions all;
  DisambiguatorOptions selective;
  selective.ambiguity_threshold = 0.05;
  Disambiguator system_all(&Network(), all);
  Disambiguator system_selective(&Network(), selective);
  auto result_all = system_all.RunOnXml(kFigure1Doc1);
  auto result_selective = system_selective.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result_all.ok());
  ASSERT_TRUE(result_selective.ok());
  EXPECT_LT(result_selective->assignments.size(),
            result_all->assignments.size());
}

TEST(DisambiguatorTest, StructureOnlyDropsTokens) {
  DisambiguatorOptions options;
  options.include_values = false;
  Disambiguator system(&Network(), options);
  auto result = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result.ok());
  for (const auto& node : result->tree.nodes()) {
    EXPECT_NE(node.kind, xml::TreeNodeKind::kToken);
  }
  EXPECT_EQ(FindByLabel(*result, "kelly"), nullptr);
}

TEST(DisambiguatorTest, ProcessesProduceDifferentScores) {
  // Both systems resolve ids through one space, so one tree serves both.
  LabelSpace space(&Network());
  DisambiguatorOptions concept_options;
  concept_options.process = DisambiguationProcess::kConceptBased;
  concept_options.label_space = &space;
  DisambiguatorOptions context_options = concept_options;
  context_options.process = DisambiguationProcess::kContextBased;
  Disambiguator concept_system(&Network(), concept_options);
  Disambiguator context_system(&Network(), context_options);
  auto tree = TreeFor(concept_system, kFigure1Doc1);
  ASSERT_TRUE(tree.ok());
  // Find the "cast" node.
  xml::NodeId cast = xml::kInvalidNode;
  for (const auto& node : tree->nodes()) {
    if (node.label == "cast") cast = node.id;
  }
  ASSERT_NE(cast, xml::kInvalidNode);
  auto concept_scores = concept_system.ScoreCandidates(*tree, cast);
  auto context_scores = context_system.ScoreCandidates(*tree, cast);
  ASSERT_EQ(concept_scores.size(), context_scores.size());
  bool any_different = false;
  for (size_t i = 0; i < concept_scores.size(); ++i) {
    if (std::abs(concept_scores[i] - context_scores[i]) > 1e-9) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(DisambiguatorTest, CombinedProcessBlends) {
  DisambiguatorOptions options;
  options.process = DisambiguationProcess::kCombined;
  options.combination_weights = {0.5, 0.5};
  Disambiguator system(&Network(), options);
  auto result = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->assignments.empty());
}

TEST(DisambiguatorTest, DisambiguateNodeErrorsOnSenselessLabel) {
  Disambiguator system(&Network());
  auto tree = TreeFor(system, "<zzunknownzz/>");
  ASSERT_TRUE(tree.ok());
  auto assignment = system.DisambiguateNode(*tree, 0);
  ASSERT_FALSE(assignment.ok());
  EXPECT_EQ(assignment.status().code(), StatusCode::kNotFound);
}

TEST(DisambiguatorTest, PerNodeEntryPointsRejectIdLessTrees) {
  // Per-node calls have one path: a tree without label ids is a caller
  // error, not a cue to fall back to string labels.
  auto tree = BuildTreeStreaming(kFigure1Doc1, Network());
  ASSERT_TRUE(tree.ok());
  ASSERT_FALSE(tree->has_label_ids());
  Disambiguator system(&Network());
  auto assignment = system.DisambiguateNode(*tree, 0);
  ASSERT_FALSE(assignment.ok());
  EXPECT_EQ(assignment.status().code(), StatusCode::kInvalidArgument);
  auto audit = system.ExplainNode(*tree, 0);
  ASSERT_FALSE(audit.ok());
  EXPECT_EQ(audit.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(system.ScoreCandidates(*tree, 0).empty());
  // RunOnTree interns the labels itself and matches RunOnXml.
  auto from_tree = system.RunOnTree(*tree);
  auto from_xml = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(from_tree.ok());
  ASSERT_TRUE(from_xml.ok());
  EXPECT_EQ(SemanticTreeToXml(*from_tree, Network()),
            SemanticTreeToXml(*from_xml, Network()));
}

TEST(DisambiguatorTest, MalformedXmlPropagatesError) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml("<broken>");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(DisambiguatorTest, AmbiguityRecordedPerAssignment) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result.ok());
  const SenseAssignment* cast = FindByLabel(*result, "cast");
  ASSERT_NE(cast, nullptr);
  EXPECT_GT(cast->ambiguity, 0.0);
  EXPECT_GT(cast->candidate_count, 1);
}

TEST(SemanticTreeXmlTest, SerializesAnnotations) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result.ok());
  std::string xml_out = SemanticTreeToXml(*result, Network());
  // The output parses back and carries concept annotations.
  auto reparsed = xml::Parse(xml_out);
  ASSERT_TRUE(reparsed.ok()) << xml_out.substr(0, 400);
  EXPECT_NE(xml_out.find("concept=\"grace_kelly\""), std::string::npos);
  EXPECT_NE(xml_out.find("kind=\"token\""), std::string::npos);
  EXPECT_NE(xml_out.find("gloss="), std::string::npos);
}

// =================== ExplainNode audit trail ======================

TEST(ExplainNodeTest, ReproducesDisambiguateNodeExactly) {
  // The acceptance bar for `xsdf explain`: on every node the audit's
  // chosen sense, score, and ambiguity are byte-identical to what the
  // batch pipeline assigns — audit capture must not perturb the
  // floating-point accumulation.
  Disambiguator system(&Network());
  auto tree = TreeFor(system, kFigure1Doc1);
  ASSERT_TRUE(tree.ok());
  size_t audited = 0;
  for (const auto& node : tree->nodes()) {
    auto assignment = system.DisambiguateNode(*tree, node.id);
    auto audit = system.ExplainNode(*tree, node.id);
    ASSERT_EQ(assignment.ok(), audit.ok()) << node.label;
    if (!assignment.ok()) continue;
    ++audited;
    ASSERT_GE(audit->chosen_index, 0) << node.label;
    ASSERT_LT(static_cast<size_t>(audit->chosen_index),
              audit->candidates.size());
    const CandidateAudit& chosen =
        audit->candidates[static_cast<size_t>(audit->chosen_index)];
    EXPECT_EQ(chosen.sense.primary, assignment->sense.primary)
        << node.label;
    EXPECT_EQ(chosen.sense.secondary, assignment->sense.secondary)
        << node.label;
    EXPECT_EQ(chosen.total, assignment->score) << node.label;  // bit-exact
    EXPECT_EQ(audit->ambiguity, assignment->ambiguity) << node.label;
    EXPECT_EQ(audit->candidates.size(),
              static_cast<size_t>(assignment->candidate_count));
    EXPECT_EQ(audit->node, node.id);
    EXPECT_EQ(audit->label, node.label);
  }
  EXPECT_GT(audited, 5u) << "expected several disambiguated nodes";
}

TEST(ExplainNodeTest, MarginSeparatesTopTwoCandidates) {
  Disambiguator system(&Network());
  auto tree = TreeFor(system, kFigure1Doc1);
  ASSERT_TRUE(tree.ok());
  for (const auto& node : tree->nodes()) {
    if (node.label != "star") continue;
    auto audit = system.ExplainNode(*tree, node.id);
    ASSERT_TRUE(audit.ok());
    ASSERT_GT(audit->candidates.size(), 1u);
    EXPECT_GT(audit->margin, 0.0);
    const CandidateAudit& chosen =
        audit->candidates[static_cast<size_t>(audit->chosen_index)];
    // margin = chosen.total - best runner-up, so no other candidate
    // may come closer than the reported margin.
    for (size_t i = 0; i < audit->candidates.size(); ++i) {
      if (static_cast<int>(i) == audit->chosen_index) continue;
      EXPECT_LE(audit->candidates[i].total + audit->margin,
                chosen.total + 1e-12);
    }
    break;
  }
}

TEST(ExplainNodeTest, SingleCandidateAuditsAsScoreOne) {
  Disambiguator system(&Network());
  auto tree = TreeFor(system, kFigure1Doc1);
  ASSERT_TRUE(tree.ok());
  for (const auto& node : tree->nodes()) {
    if (node.label != "wheelchair") continue;
    auto audit = system.ExplainNode(*tree, node.id);
    ASSERT_TRUE(audit.ok());
    ASSERT_EQ(audit->candidates.size(), 1u);
    EXPECT_EQ(audit->chosen_index, 0);
    EXPECT_DOUBLE_EQ(audit->candidates[0].total, 1.0);
    EXPECT_DOUBLE_EQ(audit->margin, 0.0);
    break;
  }
}

TEST(ExplainNodeTest, SenselessLabelReturnsNotFound) {
  Disambiguator system(&Network());
  auto tree = TreeFor(system, "<zzunknownzz/>");
  ASSERT_TRUE(tree.ok());
  auto audit = system.ExplainNode(*tree, 0);
  ASSERT_FALSE(audit.ok());
  EXPECT_EQ(audit.status().code(), StatusCode::kNotFound);
}

TEST(ExplainNodeTest, JsonRenderingCarriesTheDecomposition) {
  Disambiguator system(&Network());
  auto tree = TreeFor(system, kFigure1Doc1);
  ASSERT_TRUE(tree.ok());
  for (const auto& node : tree->nodes()) {
    if (node.label != "star") continue;
    auto audit = system.ExplainNode(*tree, node.id);
    ASSERT_TRUE(audit.ok());
    std::string json = NodeAuditToJson(*audit, Network());
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"label\":\"star\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"concept_score\":"), std::string::npos);
    EXPECT_NE(json.find("\"context_score\":"), std::string::npos);
    EXPECT_NE(json.find("\"prior\":"), std::string::npos);
    EXPECT_NE(json.find("\"chosen\":{"), std::string::npos);
    EXPECT_NE(json.find("\"margin\":"), std::string::npos);
    EXPECT_NE(json.find("an actor who plays a principal role"),
              std::string::npos)
        << "chosen gloss missing";
    break;
  }
}

TEST(SemanticTreeXmlTest, Figure1SecondDocumentCompounds) {
  auto docs = datasets::Figure1Documents();
  ASSERT_EQ(docs.size(), 2u);
  Disambiguator system(&Network());
  auto result = system.RunOnXml(docs[1].xml);
  ASSERT_TRUE(result.ok());
  // directed_by (compound, "by" removed as stop word -> "direct")
  // and first_name/last_name collocations all get assignments.
  EXPECT_NE(FindByLabel(*result, "first_name"), nullptr);
  EXPECT_NE(FindByLabel(*result, "last_name"), nullptr);
  EXPECT_EQ(AssignedLabel(*result, "kelly"), "grace_kelly");
}

// ============ Direct writer vs. the DOM oracle ====================
//
// SemanticTreeToXml writes straight into one buffer; the oracle builds
// the xml::Document and serializes it. They must agree byte for byte.

void ExpectWriterMatchesOracle(const SemanticTree& semantic_tree,
                               const std::string& what) {
  EXPECT_EQ(SemanticTreeToXml(semantic_tree, Network()),
            testing::OracleSemanticTreeToXml(semantic_tree, Network()))
      << what;
}

TEST(SemanticTreeXmlTest, WriterMatchesOracleOnCorpusAndGiantDocuments) {
  std::vector<std::string> docs;
  for (const auto& doc : datasets::Figure1Documents()) docs.push_back(doc.xml);
  const auto& generators = datasets::AllDatasets();
  for (size_t g = 0; g < 2 && g < generators.size(); ++g) {
    for (const auto& doc : generators[g]->Generate(/*seed=*/11)) {
      docs.push_back(doc.xml);
    }
  }
  for (const auto& doc : datasets::GiantDocuments(
           /*count=*/2, /*target_bytes=*/64u << 10, /*seed=*/7)) {
    docs.push_back(doc.xml);
  }
  Disambiguator system(&Network());
  for (size_t i = 0; i < docs.size(); ++i) {
    auto result = system.RunOnXml(docs[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectWriterMatchesOracle(*result, "document " + std::to_string(i));
  }
}

TEST(SemanticTreeXmlTest, WriterMatchesOracleOnEmptyAndSingleNodeTrees) {
  ExpectWriterMatchesOracle(SemanticTree{}, "empty tree");
  EXPECT_EQ(SemanticTreeToXml(SemanticTree{}, Network()),
            "<?xml version=\"1.0\"?>\n<semantic_tree/>");
  SemanticTree single;
  single.tree.AddNode(xml::kInvalidNode, "star", xml::TreeNodeKind::kElement);
  ExpectWriterMatchesOracle(single, "single unassigned node");
  SenseAssignment assignment;
  assignment.node = 0;
  assignment.sense.primary = Network().Senses("star").front();
  assignment.score = 1.0;
  single.assignments.emplace(0, assignment);
  ExpectWriterMatchesOracle(single, "single assigned node");
}

/// The bytes WriteSemanticXmlRange writes for nodes [begin, end), in a
/// buffer of exactly SemanticXmlRangeSize bytes.
std::string RangeBytes(const xml::LabeledTree& tree,
                       const std::vector<SenseAssignment>& slots,
                       size_t begin, size_t end) {
  std::string bytes(SemanticXmlRangeSize(tree, slots, Network(), begin, end),
                    '\0');
  const char* written = WriteSemanticXmlRange(tree, slots, Network(), begin,
                                              end, bytes.data());
  EXPECT_EQ(written, bytes.data() + bytes.size())
      << "range [" << begin << ", " << end << ") wrote other than it counted";
  return bytes;
}

/// Every two- and three-way split of [0, n) written range by range
/// concatenates to the one-pass document — the three-way splits put a
/// one-node range at every position.
void ExpectRangesTileDocument(const xml::LabeledTree& tree,
                              const std::vector<SenseAssignment>& slots) {
  const std::string whole = SemanticXml(tree, slots, Network());
  const size_t n = tree.size();
  for (size_t k = 0; k <= n; ++k) {
    EXPECT_EQ(RangeBytes(tree, slots, 0, k) + RangeBytes(tree, slots, k, n),
              whole)
        << "split at " << k;
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(RangeBytes(tree, slots, 0, i) +
                  RangeBytes(tree, slots, i, i + 1) +
                  RangeBytes(tree, slots, i + 1, n),
              whole)
        << "one-node range at " << i;
  }
}

TEST(SemanticTreeXmlTest, NodeRangesTileTheDocument) {
  // Deep and wide: a chain four levels down whose leaf closes three
  // ancestors at once, then a node with several leaf children, then a
  // leaf directly under the root.
  SemanticTree semantic_tree;
  xml::LabeledTree& tree = semantic_tree.tree;
  const xml::NodeId root =
      tree.AddNode(xml::kInvalidNode, "films", xml::TreeNodeKind::kElement);
  xml::NodeId chain = root;
  for (const char* label : {"picture", "cast", "star"}) {
    chain = tree.AddNode(chain, label, xml::TreeNodeKind::kElement);
  }
  const xml::NodeId deep_leaf =
      tree.AddNode(chain, "kelly", xml::TreeNodeKind::kToken);
  const xml::NodeId wide =
      tree.AddNode(root, "genre", xml::TreeNodeKind::kAttribute);
  for (const char* label : {"drama", "a&b", "say \"hi\""}) {
    tree.AddNode(wide, label, xml::TreeNodeKind::kToken);
  }
  tree.AddNode(root, "plot", xml::TreeNodeKind::kElement);
  ASSERT_EQ(tree.size(), 10u);
  ASSERT_EQ(tree.node(deep_leaf + 1).depth, 1);  // closes three levels
  const wordnet::ConceptId star = Network().Senses("star").front();
  const wordnet::ConceptId movie = Network().Senses("movie").front();
  for (xml::NodeId id : {root, chain, deep_leaf, wide}) {
    SenseAssignment assignment;
    assignment.node = id;
    assignment.sense.primary = star;
    if (id == wide) assignment.sense.secondary = movie;
    assignment.score = 0.125 * id;
    semantic_tree.assignments.emplace(id, assignment);
  }
  std::vector<SenseAssignment> slots(tree.size());
  for (const auto& [id, assignment] : semantic_tree.assignments) {
    slots[static_cast<size_t>(id)] = assignment;
  }
  EXPECT_EQ(SemanticXml(tree, slots, Network()),
            SemanticTreeToXml(semantic_tree, Network()));
  ExpectWriterMatchesOracle(semantic_tree, "deep and wide tree");
  ExpectRangesTileDocument(tree, slots);

  // A root-only tree: its one node carries both the head and the tail.
  xml::LabeledTree root_only;
  root_only.AddNode(xml::kInvalidNode, "star", xml::TreeNodeKind::kElement);
  std::vector<SenseAssignment> root_slots(1);
  ExpectRangesTileDocument(root_only, root_slots);
  root_slots[0].node = 0;
  root_slots[0].sense.primary = star;
  ExpectRangesTileDocument(root_only, root_slots);

  // The empty tree's document comes from its only range, [0, 0).
  EXPECT_EQ(RangeBytes(xml::LabeledTree(), {}, 0, 0),
            SemanticTreeToXml(SemanticTree{}, Network()));
}

/// A hand-built three-level tree over `labels` (element root, attribute
/// child, token leaves under both), without assignments: every node
/// kind and both closing forms ("/>" and "</node>") reach the writer.
/// Nodes are added in preorder, as LabeledTree requires: the even-index
/// tokens under the attribute first, then the odd-index ones under the
/// root.
SemanticTree HandBuiltTree(const std::vector<std::string>& labels) {
  SemanticTree semantic_tree;
  xml::LabeledTree& tree = semantic_tree.tree;
  xml::NodeId root = tree.AddNode(xml::kInvalidNode, labels[0],
                                  xml::TreeNodeKind::kElement);
  xml::NodeId inner = tree.AddNode(root, labels[1],
                                   xml::TreeNodeKind::kAttribute);
  for (size_t parity : {0, 1}) {
    for (size_t i = 2; i < labels.size(); ++i) {
      if (i % 2 != parity) continue;
      EXPECT_NE(tree.AddNode(parity == 0 ? inner : root, labels[i],
                             xml::TreeNodeKind::kToken),
                xml::kInvalidNode);
    }
  }
  EXPECT_EQ(tree.size(), labels.size());
  return semantic_tree;
}

TEST(SemanticTreeXmlTest, WriterMatchesOracleOnSpecialCharacterLabels) {
  SemanticTree semantic_tree = HandBuiltTree(
      {"a&b", "<tag>", "say \"hi\"", "x>y<z", "&amp;", "\"", "plain"});
  ExpectWriterMatchesOracle(semantic_tree, "unassigned special labels");
  for (xml::NodeId id = 0;
       id < static_cast<xml::NodeId>(semantic_tree.tree.size()); ++id) {
    SenseAssignment assignment;
    assignment.node = id;
    assignment.sense.primary = static_cast<wordnet::ConceptId>(id);
    assignment.score = 0.5;
    semantic_tree.assignments.emplace(id, assignment);
  }
  std::string out = SemanticTreeToXml(semantic_tree, Network());
  EXPECT_NE(out.find("label=\"a&amp;b\""), std::string::npos) << out;
  EXPECT_NE(out.find("label=\"say &quot;hi&quot;\""), std::string::npos);
  ExpectWriterMatchesOracle(semantic_tree, "assigned special labels");
}

TEST(SemanticTreeXmlTest, WriterMatchesOracleOnCompoundSenses) {
  SemanticTree semantic_tree =
      HandBuiltTree({"movie_star", "first_name", "star", "genre"});
  const wordnet::ConceptId movie = Network().Senses("movie").front();
  const wordnet::ConceptId star = Network().Senses("star").front();
  SenseAssignment compound;
  compound.node = 0;
  compound.sense.primary = movie;
  compound.sense.secondary = star;
  compound.score = 0.75;
  semantic_tree.assignments.emplace(0, compound);
  compound.node = 2;
  compound.sense.primary = star;
  compound.sense.secondary = static_cast<wordnet::ConceptId>(
      Network().size() - 1);
  semantic_tree.assignments.emplace(2, compound);
  std::string out = SemanticTreeToXml(semantic_tree, Network());
  EXPECT_NE(out.find("concept2_id=\""), std::string::npos) << out;
  ExpectWriterMatchesOracle(semantic_tree, "compound senses");
}

TEST(SemanticTreeXmlTest, WriterMatchesOracleOnScoreEdgeCases) {
  // Negative, zero (both signs), values rounding to -0.0000, exact
  // 4-digit rounding ties (k/32 are exact binary fractions), large
  // magnitudes, and the non-finite values.
  const std::vector<double> scores = {
      -0.5, 0.0, -0.0, -1e-9, 0.03125, -0.03125, 0.15625, 0.40625,
      1.00005, 2.5, 12345.67895, 1e20, -1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  std::vector<std::string> labels;
  for (size_t i = 0; i < scores.size(); ++i) {
    labels.push_back("node" + std::to_string(i));
  }
  SemanticTree semantic_tree = HandBuiltTree(labels);
  for (size_t i = 0; i < scores.size(); ++i) {
    SenseAssignment assignment;
    assignment.node = static_cast<xml::NodeId>(i);
    assignment.sense.primary = Network().Senses("star").front();
    assignment.score = scores[i];
    semantic_tree.assignments.emplace(assignment.node, assignment);
  }
  std::string out = SemanticTreeToXml(semantic_tree, Network());
  EXPECT_NE(out.find("score=\"0.0312\""), std::string::npos) << out;
  EXPECT_NE(out.find("score=\"-0.0000\""), std::string::npos) << out;
  ExpectWriterMatchesOracle(semantic_tree, "score edge cases");
}

}  // namespace
}  // namespace xsdf::core
