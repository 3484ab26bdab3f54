// Streaming front-end identity tests: the fused one-pass parse + tree
// build (core::BuildTreeStreaming) must be indistinguishable from the
// two-pass DOM oracle (xml::Parse + core::BuildTree) — same nodes,
// same labels, same interned ids — over arbitrary generated documents;
// the engine's batch output must be byte-identical at any worker
// count; and the intra-document subtree work stealing must never
// change a byte. Malformed, truncated, and
// over-budget giant inputs must fail with a Status, never a crash.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "core/tree_builder.h"
#include "datasets/generator.h"
#include "obs/metrics.h"
#include "prop/generators.h"
#include "runtime/engine.h"
#include "wordnet/mini_wordnet.h"
#include "xml/labeled_tree.h"
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

/// Structural + label identity of two labeled trees, including the
/// interned label ids (which encode interning *order*, so equality
/// proves the two builds resolved labels in the same sequence).
void ExpectTreesIdentical(const xml::LabeledTree& dom,
                          const xml::LabeledTree& streaming,
                          const std::string& context) {
  ASSERT_EQ(dom.size(), streaming.size()) << context;
  for (xml::NodeId id = 0; id < static_cast<xml::NodeId>(dom.size()); ++id) {
    const xml::TreeNode& a = dom.node(id);
    const xml::TreeNode& b = streaming.node(id);
    ASSERT_EQ(a.label, b.label) << context << " node " << id;
    ASSERT_EQ(a.raw, b.raw) << context << " node " << id;
    ASSERT_EQ(a.kind, b.kind) << context << " node " << id;
    ASSERT_EQ(a.parent, b.parent) << context << " node " << id;
    ASSERT_EQ(a.children, b.children) << context << " node " << id;
    ASSERT_EQ(a.depth, b.depth) << context << " node " << id;
    ASSERT_EQ(dom.label_id(id), streaming.label_id(id))
        << context << " node " << id;
  }
  EXPECT_EQ(dom.has_label_ids(), streaming.has_label_ids()) << context;
}

// The core identity property, driven over 500 generated documents:
// for every well-formed input, BuildTreeStreaming produces exactly the
// tree that Parse + BuildTree produces — same preorder, same labels,
// same raws, same kinds, and (under independent LabelSpaces) the same
// interned ids, which proves the interning order is reproduced too.
TEST(StreamingBuilderTest, MatchesDomBuildOnGeneratedCorpus) {
  Rng rng(20260807);
  propgen::XmlGenOptions gen;
  gen.max_depth = 6;
  gen.max_children = 5;
  int skipped = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string xml_text = propgen::GenerateXmlDocument(rng, gen);
    auto doc = xml::Parse(xml_text);
    ASSERT_TRUE(doc.ok()) << "doc " << i << ": " << doc.status().ToString();

    core::LabelSpace dom_space(&Network());
    auto dom_tree = core::BuildTree(*doc, Network(),
                                    /*include_values=*/true, &dom_space);

    core::LabelSpace streaming_space(&Network());
    core::TreeBuildCache streaming_cache;
    auto streaming_tree = core::BuildTreeStreaming(
        xml_text, Network(), xml::ParseOptions{}, /*include_values=*/true,
        &streaming_space, &streaming_cache);

    // Both paths must agree even on rejection (e.g. a document whose
    // root is only whitespace text builds no tree).
    ASSERT_EQ(dom_tree.ok(), streaming_tree.ok())
        << "doc " << i << ": dom=" << dom_tree.status().ToString()
        << " streaming=" << streaming_tree.status().ToString();
    if (!dom_tree.ok()) {
      ++skipped;
      continue;
    }
    ExpectTreesIdentical(*dom_tree, *streaming_tree,
                         "doc " + std::to_string(i));
  }
  // The generator overwhelmingly produces buildable documents; if most
  // were skipped the property above tested nothing.
  EXPECT_LT(skipped, 50);
}

// Structure-only mode (include_values = false) must agree too — the
// token-suppression logic lives in different places on the two paths.
TEST(StreamingBuilderTest, MatchesDomBuildWithoutValues) {
  Rng rng(7);
  propgen::XmlGenOptions gen;
  for (int i = 0; i < 50; ++i) {
    const std::string xml_text = propgen::GenerateXmlDocument(rng, gen);
    auto doc = xml::Parse(xml_text);
    ASSERT_TRUE(doc.ok());
    auto dom_tree =
        core::BuildTree(*doc, Network(), /*include_values=*/false);
    auto streaming_tree = core::BuildTreeStreaming(
        xml_text, Network(), xml::ParseOptions{}, /*include_values=*/false);
    ASSERT_EQ(dom_tree.ok(), streaming_tree.ok()) << "doc " << i;
    if (!dom_tree.ok()) continue;
    ASSERT_EQ(dom_tree->size(), streaming_tree->size()) << "doc " << i;
    for (xml::NodeId id = 0;
         id < static_cast<xml::NodeId>(dom_tree->size()); ++id) {
      ASSERT_EQ(dom_tree->node(id).label, streaming_tree->node(id).label)
          << "doc " << i << " node " << id;
      ASSERT_EQ(dom_tree->node(id).kind, streaming_tree->node(id).kind)
          << "doc " << i << " node " << id;
    }
  }
}

// Malformed and over-budget inputs: both front ends must return the
// failure as a Status (and agree on failing), never crash.
TEST(StreamingBuilderTest, MalformedAndOverBudgetInputsFailCleanly) {
  auto giant =
      datasets::GiantDocuments(/*count=*/1, /*target_bytes=*/64u << 10,
                               /*seed=*/1);
  ASSERT_EQ(giant.size(), 1u);
  const std::string& whole = giant[0].xml;

  // Truncation at several byte offsets: mid-tag, mid-text, mid-close.
  for (size_t cut : {whole.size() / 7, whole.size() / 3, whole.size() - 9}) {
    const std::string truncated = whole.substr(0, cut);
    auto streaming =
        core::BuildTreeStreaming(truncated, Network(), xml::ParseOptions{});
    EXPECT_FALSE(streaming.ok()) << "cut at " << cut;
    auto doc = xml::Parse(truncated);
    EXPECT_FALSE(doc.ok()) << "cut at " << cut;
  }

  // Budget violations surface as OutOfRange on both paths.
  xml::ParseOptions tight;
  tight.limits.max_input_bytes = 1024;
  EXPECT_FALSE(core::BuildTreeStreaming(whole, Network(), tight).ok());
  EXPECT_FALSE(xml::Parse(whole, tight).ok());
  xml::ParseOptions shallow;
  shallow.limits.max_depth = 4;
  EXPECT_FALSE(core::BuildTreeStreaming(whole, Network(), shallow).ok());
  EXPECT_FALSE(xml::Parse(whole, shallow).ok());

  // The well-formed original passes both, for contrast.
  EXPECT_TRUE(core::BuildTreeStreaming(whole, Network(),
                                       xml::ParseOptions{}).ok());
}

// Streaming reports bounded scaffolding: on a document dominated by
// wide/deep repetition the transient builder state must stay far below
// the DOM arena's footprint (the bounded-peak-memory claim, asserted
// end-to-end by the giant-doc CI job; this is the in-process version).
TEST(StreamingBuilderTest, ScaffoldingStaysSmall) {
  auto giant = datasets::GiantDocuments(1, /*target_bytes=*/1u << 20, 3);
  core::StreamingBuildStats stats;
  auto tree = core::BuildTreeStreaming(giant[0].xml, Network(),
                                       xml::ParseOptions{}, true, nullptr,
                                       nullptr, &stats);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(stats.scaffold_peak_bytes, 0u);
  // < 25% of the document beyond the input buffer; in practice the
  // scaffold is a few KB regardless of document size.
  EXPECT_LT(stats.scaffold_peak_bytes, giant[0].xml.size() / 4);
}

std::vector<runtime::DocumentJob> CorpusJobs() {
  std::vector<runtime::DocumentJob> jobs;
  for (const auto* generator : datasets::AllDatasets()) {
    for (auto& doc : generator->Generate(99)) {
      jobs.push_back({0, doc.name, std::move(doc.xml)});
    }
  }
  return jobs;
}

std::vector<std::string> RunEngine(const runtime::EngineOptions& options,
                                   const std::vector<runtime::DocumentJob>& jobs,
                                   runtime::EngineStats* stats = nullptr) {
  runtime::DisambiguationEngine engine(&Network(), options);
  std::vector<std::string> output;
  for (const auto& result : engine.RunBatch(jobs)) {
    EXPECT_TRUE(result.ok) << result.name << ": " << result.error;
    output.push_back(result.semantic_xml);
  }
  if (stats != nullptr) *stats = engine.stats();
  return output;
}

// Batch output must be byte-identical across worker counts.
TEST(StreamingEngineTest, WorkerCountsAgreeByteForByte) {
  std::vector<runtime::DocumentJob> jobs = CorpusJobs();
  runtime::EngineOptions base;
  base.threads = 1;
  std::vector<std::string> reference = RunEngine(base, jobs);

  runtime::EngineOptions options;
  options.threads = 8;
  std::vector<std::string> output = RunEngine(options, jobs);
  ASSERT_EQ(output.size(), reference.size());
  for (size_t i = 0; i < output.size(); ++i) {
    ASSERT_EQ(output[i], reference[i]) << jobs[i].name;
  }
}

// The work-stealing fan-out itself: a multi-MB giant document run with
// 8 workers and aggressive chunking must produce exactly the bytes the
// 1-worker run produces, and the 8-worker engine must actually have
// taken the chunked path (subtree_parallel_docs > 0).
TEST(StreamingEngineTest, SubtreeStealingPreservesBytesOnGiantDocument) {
  auto giant = datasets::GiantDocuments(1, /*target_bytes=*/2u << 20, 11);
  std::vector<runtime::DocumentJob> jobs;
  jobs.push_back({0, giant[0].name, std::move(giant[0].xml)});

  runtime::EngineOptions solo;
  solo.threads = 1;
  // Radius 1 keeps the giant-doc disambiguation fast; identity only
  // needs both runs configured the same.
  solo.disambiguator.sphere_radius = 1;
  std::vector<std::string> solo_output = RunEngine(solo, jobs);

  runtime::EngineOptions pool = solo;
  pool.threads = 8;
  pool.subtree_min_targets = 8;
  pool.subtree_chunk_targets = 64;
  runtime::EngineStats stats;
  std::vector<std::string> pool_output = RunEngine(pool, jobs, &stats);

  ASSERT_EQ(solo_output.size(), 1u);
  ASSERT_EQ(pool_output.size(), 1u);
  EXPECT_EQ(solo_output[0], pool_output[0]);
  EXPECT_GT(stats.subtree_parallel_docs, 0u);
  EXPECT_GT(stats.frontend_peak_bytes, 0u);

  // Disabling the fan-out must change nothing but the path taken.
  runtime::EngineOptions serial = pool;
  serial.subtree_parallelism = false;
  runtime::EngineStats serial_stats;
  std::vector<std::string> serial_output =
      RunEngine(serial, jobs, &serial_stats);
  EXPECT_EQ(serial_output[0], pool_output[0]);
  EXPECT_EQ(serial_stats.subtree_parallel_docs, 0u);
}

// Oversized / truncated giant inputs through the full engine: a failed
// document is a DocumentResult error, never a crash — and the
// parse_limits plumbing (the --max-input-bytes / --max-depth flags)
// actually reaches the parser.
TEST(StreamingEngineTest, GiantBudgetViolationsFailPerDocument) {
  auto giant = datasets::GiantDocuments(1, /*target_bytes=*/256u << 10, 5);
  runtime::EngineOptions options;
  options.threads = 2;
  options.parse_limits.max_input_bytes = 4096;
  runtime::DisambiguationEngine engine(&Network(), options);
  std::vector<runtime::DocumentJob> jobs;
  jobs.push_back({0, "oversized", giant[0].xml});
  jobs.push_back({0, "truncated",
                  giant[0].xml.substr(0, giant[0].xml.size() / 2)});
  jobs.push_back({0, "tiny-ok", "<films><star>Kelly</star></films>"});
  auto results = engine.RunBatch(std::move(jobs));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[2].ok) << results[2].error;
  runtime::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.failures, 2u);
}

// The new observability gauges surface through PublishStatsToMetrics.
TEST(StreamingEngineTest, PublishesFrontendAndStealGauges) {
  obs::MetricsRegistry metrics;
  runtime::EngineOptions options;
  options.threads = 2;
  options.metrics = &metrics;
  runtime::DisambiguationEngine engine(&Network(), options);
  std::vector<runtime::DocumentJob> jobs;
  jobs.push_back({0, "doc", "<films><star>Kelly</star></films>"});
  for (const auto& result : engine.RunBatch(std::move(jobs))) {
    ASSERT_TRUE(result.ok) << result.error;
  }
  engine.PublishStatsToMetrics();
  EXPECT_GT(metrics.GetGauge("frontend.arena_peak_bytes")->Value(), 0);
  EXPECT_GE(metrics.GetGauge("engine.subtree_steals")->Value(), 0);
  EXPECT_EQ(metrics.GetGauge("engine.subtree_queue_depth")->Value(), 0);
}

}  // namespace
}  // namespace xsdf
