// The benchmark's own composition of the XSDF pipeline, built from the
// public entry points of each module in the order the engine runs them
// (core::BuildTreeStreaming -> Disambiguator::SelectTargets ->
// DisambiguateNode per target -> core::SemanticTreeToXml), with the
// engine's shared caches installed through their public hooks. With
// tracing on it records one span per layer call; the cache hooks are
// wrapped so time spent probing the shared caches and computing
// similarity misses is attributed too. No code under src/ is touched.

#ifndef XSDF_PERFBENCH_TRACED_H_
#define XSDF_PERFBENCH_TRACED_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/disambiguator.h"
#include "core/tree_builder.h"
#include "runtime/engine.h"
#include "runtime/sense_inventory_cache.h"
#include "runtime/similarity_cache.h"
#include "wordnet/semantic_network.h"
#include "xml/parser.h"

namespace perfbench {

/// One recorded span. A timed call has calls == 1; the hook layers
/// (sim, runtime.sim_cache, runtime.sense_cache) are recorded as one
/// aggregate child per layer span, with `calls` hook invocations whose
/// durations sum to `dur_ns` (their start is the parent's start).
struct Span {
  uint64_t doc = 0;
  const char* name = "";
  int64_t parent = -1;  ///< index in the same thread's log; -1 = root
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t calls = 1;
};

/// One thread's spans, kept in memory until the run ends.
struct SpanLog {
  uint32_t thread = 0;
  std::vector<Span> spans;
};

/// Per-layer totals over every document span in a set of logs.
struct Attribution {
  uint64_t documents = 0;
  uint64_t document_ns = 0;
  uint64_t unattributed_ns = 0;
  struct Layer {
    std::string name;
    uint64_t inclusive_ns = 0;
    uint64_t self_ns = 0;
    uint64_t calls = 0;
  };
  std::vector<Layer> layers;  ///< in first-seen order
  /// Σ self + unattributed == document_ns, checked while summing.
  bool adds_up = true;
  const Layer* Find(const std::string& name) const;
};
Attribution Summarize(const std::vector<SpanLog>& logs);

/// Writes every span as one JSON object per line.
bool WriteSpans(const std::vector<SpanLog>& logs, const std::string& path);

/// Runs fn(i, worker) for i in [0, count) on the calling thread (worker
/// 0) plus `threads - 1` resident helpers that claim indices from a
/// shared counter, and returns when every index has run.
class WorkerPool {
 public:
  explicit WorkerPool(int threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return static_cast<int>(helpers_.size()) + 1; }
  void Run(size_t count, const std::function<void(size_t, int)>& fn);

 private:
  void HelperLoop(int worker);
  void Drain(int worker);

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  uint64_t generation_ = 0;  // guarded by mu_
  int idle_helpers_ = 0;     // guarded by mu_
  bool stop_ = false;        // guarded by mu_
  const std::function<void(size_t, int)>* fn_ = nullptr;
  size_t count_ = 0;
  std::atomic<size_t> next_{0};
  std::vector<std::thread> helpers_;
};

/// Per-document facts the composition returns.
struct DocOutput {
  bool ok = false;
  std::string error;
  std::string semantic_xml;
  size_t nodes = 0;
  size_t targets = 0;
  size_t assigned = 0;
  size_t candidates = 0;  ///< Σ candidate_count over assignments
  size_t scaffold_peak_bytes = 0;
};

/// The engine's worker setup rebuilt from outside: one label space and
/// the two shared caches, one Disambiguator + TreeBuildCache per
/// thread, all configured from `engine_options` exactly as the engine
/// configures its workers.
class Pipeline {
 public:
  Pipeline(const xsdf::wordnet::SemanticNetwork* network,
           const xsdf::runtime::EngineOptions& engine_options, int threads);
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Times the hook layers while on. Flip only while no Run is active.
  void set_traced(bool traced);

  /// One document on the calling thread, which must be pool worker
  /// `worker`. With `fan_out`, the per-target loop is split into the
  /// engine's chunk size and spread over the pool, as the engine's
  /// subtree stealing does (the caller must then be worker 0). `log`
  /// null records nothing.
  DocOutput Run(int worker, uint64_t doc_id, const std::string& xml,
                bool fan_out, SpanLog* log);

  /// The tokenizer alone (xml::StreamParse into a no-op handler),
  /// recorded as its own root span: xml.parse is part of
  /// core.frontend, which fuses it with the tree build.
  bool ParseProbe(uint64_t doc_id, const std::string& xml, SpanLog* log);

  WorkerPool& pool() { return pool_; }

 private:
  class TimedSimilarityCache;
  class TimedSenseInventory;
  struct Worker;

  const xsdf::wordnet::SemanticNetwork* network_;
  xsdf::runtime::EngineOptions engine_options_;
  xsdf::xml::ParseOptions parse_options_;
  std::unique_ptr<xsdf::core::LabelSpace> label_space_;
  std::unique_ptr<TimedSimilarityCache> similarity_cache_;
  std::unique_ptr<TimedSenseInventory> sense_inventory_;
  std::vector<std::unique_ptr<Worker>> workers_;
  WorkerPool pool_;
};

/// Reference output of one document from core calls alone: the
/// streaming front end, Disambiguator::RunOnTree with private caches,
/// and SemanticTreeToXml, on one thread. Not thread-safe; use one per
/// thread.
class Reference {
 public:
  explicit Reference(const xsdf::wordnet::SemanticNetwork* network);
  /// Fills `*tree` (when non-null) with the semantic tree.
  xsdf::Result<std::string> Run(const std::string& xml,
                                xsdf::core::SemanticTree* tree = nullptr);

 private:
  const xsdf::wordnet::SemanticNetwork* network_;
  xsdf::core::Disambiguator disambiguator_;
  xsdf::core::TreeBuildCache cache_;
};

}  // namespace perfbench

#endif  // XSDF_PERFBENCH_TRACED_H_
