// End-to-end tests of the XSDF pipeline (paper Figure 3): the Figure 1
// running example, options behavior, compound assignment, semantic
// tree serialization.

#include <gtest/gtest.h>

#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "core/tree_builder.h"
#include "datasets/generator.h"
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
  auto tree = BuildTreeFromXml(kFigure1Doc1, Network());
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

}  // namespace
}  // namespace xsdf::core
