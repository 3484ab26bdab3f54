// Micro-benchmarks (google-benchmark) for the hot paths of the XSDF
// stack: XML parsing, tree construction, WNDB round trip, taxonomy
// utilities, similarity measures, sphere/vector construction,
// per-node disambiguation as a function of context radius, and the
// giant-document serial stages: target selection and semantic-XML
// output.

#include <benchmark/benchmark.h>

#include "core/ambiguity.h"
#include "core/context_vector.h"
#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/scores.h"
#include "core/streaming_builder.h"
#include "core/tree_builder.h"
#include "datasets/generator.h"
#include "sim/combined.h"
#include "wordnet/mini_wordnet.h"
#include "wordnet/wndb.h"
#include "xml/parser.h"

namespace {

const xsdf::wordnet::SemanticNetwork& Network() {
  static const auto* network = [] {
    auto result = xsdf::wordnet::BuildMiniWordNet();
    return new xsdf::wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

const std::string& ShakespeareXml() {
  static const std::string* xml = [] {
    auto docs = xsdf::datasets::AllDatasets()[0]->Generate(42);
    return new std::string(docs[0].xml);
  }();
  return *xml;
}

/// The label id space ShakespeareTree() is interned through; a
/// disambiguator run on that tree must resolve ids through it too.
xsdf::core::LabelSpace& Space() {
  static auto* space = new xsdf::core::LabelSpace(&Network());
  return *space;
}

const xsdf::xml::LabeledTree& ShakespeareTree() {
  static const auto* tree = [] {
    auto result = xsdf::core::BuildTreeStreaming(ShakespeareXml(), Network(),
                                                 {}, true, &Space());
    return new xsdf::xml::LabeledTree(std::move(result).value());
  }();
  return *tree;
}

/// A 64 KiB generated giant document's tree, interned through Space().
const xsdf::xml::LabeledTree& GiantTree() {
  static const auto* tree = [] {
    auto docs = xsdf::datasets::GiantDocuments(1, 64u << 10, 7);
    auto result = xsdf::core::BuildTreeStreaming(docs[0].xml, Network(), {},
                                                 true, &Space());
    return new xsdf::xml::LabeledTree(std::move(result).value());
  }();
  return *tree;
}

xsdf::core::DisambiguatorOptions SpaceOptions() {
  xsdf::core::DisambiguatorOptions options;
  options.label_space = &Space();
  return options;
}

void BM_XmlParse(benchmark::State& state) {
  const std::string& xml = ShakespeareXml();
  for (auto _ : state) {
    auto doc = xsdf::xml::Parse(xml);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_XmlParse);

/// The front end as an engine worker runs it: one streaming parse +
/// build pass per document with a persistent TreeBuildCache and label
/// space, so warm iterations cost one memo probe per label.
void BM_TreeBuild(benchmark::State& state) {
  const std::string& xml = ShakespeareXml();
  xsdf::core::LabelSpace space(&Network());
  xsdf::core::TreeBuildCache cache;
  for (auto _ : state) {
    auto tree = xsdf::core::BuildTreeStreaming(xml, Network(), {}, true,
                                               &space, &cache);
    benchmark::DoNotOptimize(tree);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_TreeBuild);

void BM_WndbWrite(benchmark::State& state) {
  for (auto _ : state) {
    auto files = xsdf::wordnet::WriteWndb(Network());
    benchmark::DoNotOptimize(files);
  }
}
BENCHMARK(BM_WndbWrite);

void BM_WndbParse(benchmark::State& state) {
  auto files = xsdf::wordnet::WriteWndb(Network());
  for (auto _ : state) {
    auto network = xsdf::wordnet::ParseWndb(*files);
    benchmark::DoNotOptimize(network);
  }
}
BENCHMARK(BM_WndbParse);

void BM_SimilarityCombined(benchmark::State& state) {
  const auto& network = Network();
  xsdf::sim::CombinedMeasure measure(
      xsdf::sim::MeasureConfig::PaperHybrid());
  auto star = network.Senses("star");
  auto light = network.Senses("light");
  size_t i = 0;
  for (auto _ : state) {
    measure.ClearCache();
    double sim = measure.Similarity(network, star[i % star.size()],
                                    light[i % light.size()]);
    benchmark::DoNotOptimize(sim);
    ++i;
  }
}
BENCHMARK(BM_SimilarityCombined);

void BM_SimilarityCached(benchmark::State& state) {
  const auto& network = Network();
  xsdf::sim::CombinedMeasure measure(
      xsdf::sim::MeasureConfig::PaperHybrid());
  auto star = network.Senses("star");
  auto light = network.Senses("light");
  for (auto _ : state) {
    double sim = measure.Similarity(network, star[0], light[0]);
    benchmark::DoNotOptimize(sim);
  }
}
BENCHMARK(BM_SimilarityCached);

void BM_BuildXmlIdSphere(benchmark::State& state) {
  const auto& tree = ShakespeareTree();
  int radius = static_cast<int>(state.range(0));
  xsdf::xml::NodeId center =
      static_cast<xsdf::xml::NodeId>(tree.size() / 2);
  for (auto _ : state) {
    auto sphere =
        xsdf::core::BuildXmlIdSphere(tree, tree.label_ids(), center, radius);
    xsdf::core::IdContextVector vector(sphere);
    benchmark::DoNotOptimize(vector);
  }
}
BENCHMARK(BM_BuildXmlIdSphere)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

/// Eq. 4 over every node, Amb_Polysemy read from the label-id memo.
void BM_AmbiguityDegree(benchmark::State& state) {
  const auto& tree = ShakespeareTree();
  for (auto _ : state) {
    double total = 0.0;
    for (const auto& node : tree.nodes()) {
      const double polysemy = Space().Senses(tree.label_id(node.id)).polysemy;
      total += xsdf::core::AmbiguityDegreeFromPolysemy(tree, node.id,
                                                       polysemy);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_AmbiguityDegree);

/// Target selection (Definition 3 over every node) on a giant
/// document. The per-label polysemy memo and the tree's memoized
/// maxima are warm after the first iteration, as they are for every
/// node after the first in a real run.
void BM_SelectTargets(benchmark::State& state) {
  xsdf::core::Disambiguator system(&Network(), SpaceOptions());
  const auto& tree = GiantTree();
  for (auto _ : state) {
    auto targets = system.SelectTargets(tree);
    benchmark::DoNotOptimize(targets);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tree.size()));
}
BENCHMARK(BM_SelectTargets)->Unit(benchmark::kMicrosecond);

/// Semantic-XML output of a disambiguated giant document.
void BM_SemanticTreeToXml(benchmark::State& state) {
  xsdf::core::Disambiguator system(&Network(), SpaceOptions());
  auto semantic = system.RunOnTree(GiantTree());
  size_t bytes = 0;
  for (auto _ : state) {
    std::string xml = xsdf::core::SemanticTreeToXml(*semantic, Network());
    bytes = xml.size();
    benchmark::DoNotOptimize(xml);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SemanticTreeToXml)->Unit(benchmark::kMicrosecond);

void BM_DisambiguateDocument(benchmark::State& state) {
  xsdf::core::DisambiguatorOptions options = SpaceOptions();
  options.sphere_radius = static_cast<int>(state.range(0));
  xsdf::core::Disambiguator system(&Network(), options);
  const auto& tree = ShakespeareTree();
  for (auto _ : state) {
    auto result = system.RunOnTree(tree);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tree.size()));
}
BENCHMARK(BM_DisambiguateDocument)->Arg(1)->Arg(2)->Arg(3);

void BM_ContextBasedScore(benchmark::State& state) {
  const auto& network = Network();
  auto senses = network.Senses("star");
  const auto& tree = ShakespeareTree();
  xsdf::core::IdContextVector vector(
      xsdf::core::BuildXmlIdSphere(tree, tree.label_ids(), 5, 2));
  for (auto _ : state) {
    double score = xsdf::core::IdContextScore(
        network, {senses[0], xsdf::wordnet::kInvalidConcept}, vector, 2);
    benchmark::DoNotOptimize(score);
  }
}
BENCHMARK(BM_ContextBasedScore);

}  // namespace

BENCHMARK_MAIN();
