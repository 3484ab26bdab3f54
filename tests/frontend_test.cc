// Tests for the interned, arena-backed front end: the bump arena, the
// engine-wide label id space (cross-document id stability, exact-
// spelling injectivity), and the headline contract — the id pipeline's
// disambiguation output is pinned bit for bit by checked-in goldens,
// single-threaded and through the engine at 1 and 8 workers, including
// the `explain` audit JSON.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/strings.h"
#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/scores.h"
#include "core/streaming_builder.h"
#include "core/tree_builder.h"
#include "datasets/generator.h"
#include "runtime/engine.h"
#include "wordnet/mini_wordnet.h"
#include "xml/parser.h"

namespace xsdf {
namespace {

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

// ============================ Arena ===============================

TEST(ArenaTest, BumpAllocationsAreAlignedAndCounted) {
  Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.block_count(), 0u);
  void* a = arena.Allocate(3, 1);
  void* b = arena.Allocate(8, 8);
  void* c = arena.Allocate(1, 64);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
  EXPECT_GE(arena.bytes_used(), 3u + 8u + 1u);
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(ArenaTest, GrowsBlocksGeometrically) {
  Arena arena;
  for (int i = 0; i < 2000; ++i) arena.Allocate(64, 8);
  EXPECT_GE(arena.bytes_used(), 2000u * 64u);
  EXPECT_GT(arena.block_count(), 1u) << "growth must add blocks";
  EXPECT_LT(arena.block_count(), 40u) << "blocks must grow geometrically";
}

TEST(ArenaTest, OversizedAllocationGetsItsOwnBlock) {
  Arena arena;
  void* big = arena.Allocate(1 << 20, 16);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), static_cast<size_t>(1 << 20));
}

TEST(ArenaTest, CopyStringIsStableAndDetached) {
  Arena arena;
  std::string original = "semantic ambiguity";
  std::string_view view = arena.CopyString(original);
  original.assign(original.size(), 'x');  // mutate the source
  EXPECT_EQ(view, "semantic ambiguity");
  EXPECT_EQ(arena.CopyString("").size(), 0u);
}

struct DtorRecorder {
  std::vector<int>* order;
  int id;
  ~DtorRecorder() { order->push_back(id); }
};

TEST(ArenaTest, RunsOwnedDestructorsInReverseOrder) {
  std::vector<int> order;
  {
    Arena arena;
    arena.New<DtorRecorder>(&order, 1);
    arena.New<DtorRecorder>(&order, 2);
    arena.New<DtorRecorder>(&order, 3);
    // Trivially destructible types must not register anything.
    arena.New<int>(7);
  }
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST(ArenaTest, ResetReturnsToFreshState) {
  std::vector<int> order;
  Arena arena;
  arena.New<DtorRecorder>(&order, 1);
  arena.Allocate(1 << 16);
  arena.Reset();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.block_count(), 0u);
  // And the arena is usable again.
  EXPECT_EQ(arena.CopyString("again"), "again");
}

TEST(ArenaTest, DocumentParseLandsInArena) {
  auto doc = xml::Parse("<a b=\"c\"><d>text value here</d><e/></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_GT(doc->arena().bytes_used(), 0u);
  // Moving the document must not invalidate its nodes (the arena is
  // heap-held and moves by pointer).
  xml::Document moved = std::move(doc).value();
  ASSERT_NE(moved.root(), nullptr);
  EXPECT_EQ(moved.root()->name(), "a");
  ASSERT_EQ(moved.root()->children().size(), 2u);
  EXPECT_EQ(moved.root()->children()[0]->name(), "d");
}

// ========================== LabelSpace ============================

TEST(LabelSpaceTest, NetworkLabelsKeepInternerIds) {
  core::LabelSpace space(&Network());
  uint32_t id = space.Resolve("star");
  EXPECT_LT(id, space.network_size());
  EXPECT_EQ(Network().interner().Find("star"), id);
  EXPECT_EQ(space.Spelling(id), "star");
  EXPECT_EQ(space.overflow_size(), 0u);
}

TEST(LabelSpaceTest, OutOfVocabularyLabelsOverflowStably) {
  core::LabelSpace space(&Network());
  uint32_t a1 = space.Resolve("zzz_not_a_lemma");
  uint32_t a2 = space.Resolve("zzz_not_a_lemma");
  uint32_t b = space.Resolve("another_unknown");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_GE(a1, static_cast<uint32_t>(space.network_size()));
  EXPECT_EQ(space.Spelling(a1), "zzz_not_a_lemma");
  EXPECT_EQ(space.overflow_size(), 2u);
  EXPECT_EQ(space.Find("zzz_not_a_lemma"), a1);
  EXPECT_EQ(space.Find("never_resolved"), TokenInterner::kNotFound);
}

TEST(LabelSpaceTest, CandidatesByIdMatchStringEnumeration) {
  core::LabelSpace space(&Network());
  for (const char* label :
       {"star", "movie", "kelly", "first_name", "zzz_not_a_lemma", ""}) {
    uint32_t id = space.Resolve(label);
    EXPECT_EQ(core::EnumerateCandidatesById(space, id),
              core::EnumerateCandidates(Network(), label))
        << label;
  }
}

TEST(LabelSpaceTest, CrossDocumentInterningIsStable) {
  core::LabelSpace space(&Network());
  auto tree1 = core::BuildTreeFromXml(
      "<films><star>Kelly</star><custom_tag>x</custom_tag></films>",
      Network(), /*include_values=*/true, &space);
  auto tree2 = core::BuildTreeFromXml(
      "<catalog><star>Stewart</star><custom_tag>y</custom_tag></catalog>",
      Network(), /*include_values=*/true, &space);
  ASSERT_TRUE(tree1.ok() && tree2.ok());
  EXPECT_TRUE(tree1->has_label_ids());
  EXPECT_TRUE(tree2->has_label_ids());
  // Shared vocabulary (in-network and out-of-vocabulary alike) must
  // resolve to the same ids in both documents; distinct labels to
  // distinct ids (exact-spelling injectivity).
  std::unordered_map<std::string, uint32_t> seen;
  for (const auto* tree : {&tree1.value(), &tree2.value()}) {
    for (const auto& node : tree->nodes()) {
      uint32_t id = tree->label_id(node.id);
      ASSERT_NE(id, xml::kNoLabelId);
      auto [it, inserted] = seen.emplace(node.label, id);
      EXPECT_EQ(it->second, id) << "label '" << node.label
                                << "' got two different ids";
    }
  }
  std::unordered_map<uint32_t, std::string> reverse;
  for (const auto& [label, id] : seen) {
    auto [it, inserted] = reverse.emplace(id, label);
    EXPECT_TRUE(inserted) << "id " << id << " names both '" << it->second
                          << "' and '" << label << "'";
  }
}

TEST(LabelSpaceTest, ConceptLabelIdsJoinTheSameSpace) {
  core::LabelSpace space(&Network());
  const auto& network = Network();
  for (const auto& entry : network.concepts()) {
    uint32_t token_id = network.LabelTokenId(entry.id);
    ASSERT_NE(token_id, TokenInterner::kNotFound) << entry.label();
    EXPECT_EQ(space.Resolve(entry.label()), token_id) << entry.label();
  }
}

// ===================== Id-pipeline golden =========================
//
// The disambiguation output of the id pipeline, pinned byte for byte
// against checked-in goldens under tests/golden/id_pipeline_*.txt:
// every assignment's node, senses, score and ambiguity bits and
// candidate count, a digest of each document's semantic XML, a digest
// of every node's explain audit JSON, and the engine's output at 1 and
// 8 workers. Regenerate only after an intentional output change:
//   XSDF_UPDATE_GOLDEN=1 ./frontend_test
// rewrites the goldens in the source tree; review the diff like code.

std::vector<std::string> CorpusXml() {
  std::vector<std::string> xml;
  for (const auto& doc : datasets::Figure1Documents()) xml.push_back(doc.xml);
  const auto& generators = datasets::AllDatasets();
  for (size_t g = 0; g < 2 && g < generators.size(); ++g) {
    for (const auto& doc : generators[g]->Generate(/*seed=*/11)) {
      xml.push_back(doc.xml);
    }
  }
  return xml;
}

/// 64-bit FNV-1a: a stable digest for byte strings too long to inline.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  return StrFormat("%016llx", static_cast<unsigned long long>(value));
}

std::string Bits(double value) {
  return Hex(std::bit_cast<uint64_t>(value));
}

/// One line per assignment (in node order), after a per-document line
/// carrying the semantic XML digest.
void AppendSemanticTree(size_t doc, const core::SemanticTree& result,
                        std::string* out) {
  std::string semantic_xml = core::SemanticTreeToXml(result, Network());
  *out += StrFormat("doc %zu xml %s len %zu assignments %zu\n", doc,
                    Hex(Fnv1a(semantic_xml)).c_str(), semantic_xml.size(),
                    result.assignments.size());
  std::vector<xml::NodeId> nodes;
  for (const auto& entry : result.assignments) nodes.push_back(entry.first);
  std::sort(nodes.begin(), nodes.end());
  for (xml::NodeId node : nodes) {
    const core::SenseAssignment& a = result.assignments.at(node);
    *out += StrFormat("  node %d sense %d/%d score %s amb %s cands %d\n",
                      node, a.sense.primary, a.sense.secondary,
                      Bits(a.score).c_str(), Bits(a.ambiguity).c_str(),
                      a.candidate_count);
  }
}

std::string RunReport(const core::DisambiguatorOptions& options) {
  core::Disambiguator system(&Network(), options);
  std::string out;
  std::vector<std::string> corpus = CorpusXml();
  for (size_t doc = 0; doc < corpus.size(); ++doc) {
    auto result = system.RunOnXml(corpus[doc]);
    if (!result.ok()) {
      out += StrFormat("doc %zu error %s\n", doc,
                       result.status().ToString().c_str());
      continue;
    }
    AppendSemanticTree(doc, *result, &out);
  }
  return out;
}

/// Compares `report` against tests/golden/<name>, or rewrites the
/// golden when XSDF_UPDATE_GOLDEN is set. A mismatch names the first
/// differing line instead of dumping both reports.
void ExpectMatchesGolden(const std::string& name, const std::string& report) {
  const std::string path = std::string(XSDF_SOURCE_DIR "/tests/golden/") +
                           name;
  if (std::getenv("XSDF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << report;
    ASSERT_TRUE(out.good());
    std::printf("golden rewritten: %s\n", path.c_str());
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path
                  << " missing; run with XSDF_UPDATE_GOLDEN=1 to create";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string golden = buffer.str();
  if (report == golden) return;
  std::istringstream got(report);
  std::istringstream want(golden);
  std::string got_line;
  std::string want_line;
  for (size_t line = 1;; ++line) {
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    if (!more_got && !more_want) break;
    if (!more_got || !more_want || got_line != want_line) {
      ADD_FAILURE() << name << " differs at line " << line << "\n  golden: "
                    << (more_want ? want_line : "<end>")
                    << "\n  actual: " << (more_got ? got_line : "<end>");
      return;
    }
  }
  ADD_FAILURE() << name << " differs (line endings)";
}

TEST(IdFrontendBitIdentityTest, SingleThreadedConceptProcess) {
  ExpectMatchesGolden("id_pipeline_concept.txt",
                      RunReport(core::DisambiguatorOptions{}));
}

TEST(IdFrontendBitIdentityTest, CombinedProcessBothVectorSimilarities) {
  std::string report;
  for (auto vector_similarity : {core::VectorSimilarity::kCosine,
                                 core::VectorSimilarity::kJaccard}) {
    core::DisambiguatorOptions options;
    options.process = core::DisambiguationProcess::kCombined;
    options.combination_weights = {0.6, 0.4};
    options.vector_similarity = vector_similarity;
    report += vector_similarity == core::VectorSimilarity::kCosine
                  ? "# combined 0.6/0.4 cosine\n"
                  : "# combined 0.6/0.4 jaccard\n";
    report += RunReport(options);
  }
  ExpectMatchesGolden("id_pipeline_combined.txt", report);
}

TEST(IdFrontendBitIdentityTest, ExplainAuditJsonIsByteIdentical) {
  core::Disambiguator system(&Network());
  std::string report;
  std::vector<std::string> corpus = CorpusXml();
  for (size_t doc = 0; doc < corpus.size(); ++doc) {
    // Built through the disambiguator's own label space, as `xsdf
    // explain` and the daemon's /explain do.
    auto tree = core::BuildTreeStreaming(corpus[doc], Network(), {}, true,
                                         system.label_space());
    if (!tree.ok()) {
      report += StrFormat("doc %zu error %s\n", doc,
                          tree.status().ToString().c_str());
      continue;
    }
    for (size_t id = 0; id < tree->size(); ++id) {
      auto audit = system.ExplainNode(*tree, static_cast<xml::NodeId>(id));
      if (!audit.ok()) {
        report += StrFormat("doc %zu node %zu %s\n", doc, id,
                            audit.status().ToString().c_str());
        continue;
      }
      std::string json = core::NodeAuditToJson(*audit, Network());
      report += StrFormat("doc %zu node %zu audit %s len %zu\n", doc, id,
                          Hex(Fnv1a(json)).c_str(), json.size());
    }
  }
  ExpectMatchesGolden("id_pipeline_explain.txt", report);
}

std::string RunEngine(int threads) {
  runtime::EngineOptions options;
  options.threads = threads;
  runtime::DisambiguationEngine engine(&Network(), options);
  std::vector<runtime::DocumentJob> jobs;
  size_t index = 0;
  for (const std::string& xml : CorpusXml()) {
    jobs.push_back({index++, "doc", xml});
  }
  std::string report;
  for (auto& result : engine.RunBatch(std::move(jobs))) {
    report += result.ok ? StrFormat("doc %zu xml %s len %zu assignments %zu\n",
                                    result.index,
                                    Hex(Fnv1a(result.semantic_xml)).c_str(),
                                    result.semantic_xml.size(),
                                    result.assignment_count)
                        : StrFormat("doc %zu error %s\n", result.index,
                                    result.error.c_str());
  }
  return report;
}

TEST(IdFrontendBitIdentityTest, EngineOneAndEightWorkersMatchGolden) {
  std::string one = RunEngine(1);
  ExpectMatchesGolden("id_pipeline_engine.txt", one);
  EXPECT_EQ(RunEngine(8), one);
}

}  // namespace
}  // namespace xsdf
