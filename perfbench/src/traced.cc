#include "traced.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "core/streaming_builder.h"
#include "util.h"

namespace perfbench {
namespace {

namespace core = xsdf::core;
namespace runtime = xsdf::runtime;
namespace xml = xsdf::xml;

/// Per-thread totals the timed hooks add to. A layer span snapshots
/// them at its start and records the difference as aggregate children
/// at its end, so hook time lands under whichever layer called it.
struct HookClock {
  uint64_t sim_ns = 0;
  uint64_t sim_calls = 0;
  uint64_t sim_cache_ns = 0;
  uint64_t sim_cache_calls = 0;
  uint64_t sense_ns = 0;
  uint64_t sense_calls = 0;
  /// When the last similarity-cache hook call returned: CombinedMeasure
  /// runs exactly one uncached similarity computation between a missed
  /// probe (or the previous miss's Insert) and the Insert of its
  /// result, so Insert-start minus this is that computation's time.
  uint64_t last_exit_ns = 0;
};

HookClock& ThreadHookClock() {
  thread_local HookClock clock;
  return clock;
}

/// A span on the calling thread's log; a no-op without a log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t doc, int64_t parent)
      : log_(log) {
    if (log_ == nullptr) return;
    before_ = ThreadHookClock();
    index_ = static_cast<int64_t>(log_->spans.size());
    Span span;
    span.doc = doc;
    span.name = name;
    span.parent = parent;
    log_->spans.push_back(span);
    log_->spans.back().start_ns = NowNs();
  }

  int64_t index() const { return index_; }

  /// Closes the span; with `hooks`, records the hook layers this span
  /// called as its aggregate children.
  void End(bool hooks) {
    if (log_ == nullptr) return;
    const uint64_t end = NowNs();
    Span& span = log_->spans[static_cast<size_t>(index_)];
    span.dur_ns = end - span.start_ns;
    if (!hooks) return;
    const HookClock& now = ThreadHookClock();
    const Span parent = span;
    auto child = [&](const char* name, uint64_t ns, uint64_t calls) {
      if (calls == 0) return;
      Span agg;
      agg.doc = parent.doc;
      agg.name = name;
      agg.parent = index_;
      agg.start_ns = parent.start_ns;
      agg.dur_ns = ns;
      agg.calls = calls;
      log_->spans.push_back(agg);
    };
    child("sim", now.sim_ns - before_.sim_ns,
          now.sim_calls - before_.sim_calls);
    child("runtime.sim_cache", now.sim_cache_ns - before_.sim_cache_ns,
          now.sim_cache_calls - before_.sim_cache_calls);
    child("runtime.sense_cache", now.sense_ns - before_.sense_ns,
          now.sense_calls - before_.sense_calls);
  }

 private:
  SpanLog* log_;
  int64_t index_ = -1;
  HookClock before_;
};

class NullHandler : public xml::StreamHandler {};

}  // namespace

// ---------------------------------------------------------------------------
// Timed hooks: delegate to the engine's own cache classes.

class Pipeline::TimedSimilarityCache : public xsdf::sim::SimilarityCacheHook {
 public:
  TimedSimilarityCache(size_t capacity, size_t stripes, uint64_t fingerprint)
      : cache_(capacity, stripes, fingerprint) {}

  void set_traced(bool traced) {
    traced_.store(traced, std::memory_order_relaxed);
  }

  bool Lookup(uint64_t key, double* value) override {
    if (!traced_.load(std::memory_order_relaxed)) {
      return cache_.Lookup(key, value);
    }
    const uint64_t start = NowNs();
    const bool hit = cache_.Lookup(key, value);
    Exit(start);
    return hit;
  }

  void LookupBatch(const uint64_t* keys, size_t count, double* out_values,
                   uint8_t* out_found) override {
    if (!traced_.load(std::memory_order_relaxed)) {
      cache_.LookupBatch(keys, count, out_values, out_found);
      return;
    }
    const uint64_t start = NowNs();
    cache_.LookupBatch(keys, count, out_values, out_found);
    Exit(start);
  }

  void Insert(uint64_t key, double value) override {
    if (!traced_.load(std::memory_order_relaxed)) {
      cache_.Insert(key, value);
      return;
    }
    const uint64_t start = NowNs();
    HookClock& clock = ThreadHookClock();
    clock.sim_ns += start - clock.last_exit_ns;
    ++clock.sim_calls;
    cache_.Insert(key, value);
    Exit(start);
  }

  runtime::CacheStats GetStats() const { return cache_.GetStats(); }

 private:
  static void Exit(uint64_t start) {
    HookClock& clock = ThreadHookClock();
    clock.last_exit_ns = NowNs();
    clock.sim_cache_ns += clock.last_exit_ns - start;
    ++clock.sim_cache_calls;
  }

  runtime::SimilarityCache cache_;
  std::atomic<bool> traced_{false};
};

class Pipeline::TimedSenseInventory : public core::SenseInventory {
 public:
  TimedSenseInventory(size_t capacity, size_t shards)
      : cache_(capacity, shards) {}

  void set_traced(bool traced) {
    traced_.store(traced, std::memory_order_relaxed);
  }

  std::shared_ptr<const core::SenseEntry> Entry(
      const xsdf::wordnet::SemanticNetwork& network, uint32_t label_id,
      const std::string& label) override {
    if (!traced_.load(std::memory_order_relaxed)) {
      return cache_.Entry(network, label_id, label);
    }
    const uint64_t start = NowNs();
    auto entry = cache_.Entry(network, label_id, label);
    HookClock& clock = ThreadHookClock();
    clock.sense_ns += NowNs() - start;
    ++clock.sense_calls;
    return entry;
  }

 private:
  runtime::SenseInventoryCache cache_;
  std::atomic<bool> traced_{false};
};

// ---------------------------------------------------------------------------
// WorkerPool

WorkerPool::WorkerPool(int threads) {
  for (int i = 1; i < threads; ++i) {
    helpers_.emplace_back([this, i] { HelperLoop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

void WorkerPool::Drain(int worker) {
  while (true) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) return;
    (*fn_)(i, worker);
  }
}

void WorkerPool::HelperLoop(int worker) {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    Drain(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++idle_helpers_;
    }
    done_.notify_all();
  }
}

void WorkerPool::Run(size_t count,
                     const std::function<void(size_t, int)>& fn) {
  if (helpers_.empty()) {
    for (size_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    idle_helpers_ = 0;
    ++generation_;
  }
  wake_.notify_all();
  Drain(0);
  // Every helper must leave Drain before `fn` goes out of scope.
  std::unique_lock<std::mutex> lock(mu_);
  done_.wait(lock, [&] {
    return idle_helpers_ == static_cast<int>(helpers_.size());
  });
  fn_ = nullptr;
}

// ---------------------------------------------------------------------------
// Pipeline

struct Pipeline::Worker {
  Worker(const xsdf::wordnet::SemanticNetwork* network,
         const core::DisambiguatorOptions& options)
      : disambiguator(network, options) {}
  core::Disambiguator disambiguator;
  core::TreeBuildCache tree_cache;
};

Pipeline::Pipeline(const xsdf::wordnet::SemanticNetwork* network,
                   const runtime::EngineOptions& engine_options, int threads)
    : network_(network), engine_options_(engine_options), pool_(threads) {
  parse_options_.limits = engine_options_.parse_limits;
  core::DisambiguatorOptions options = engine_options_.disambiguator;
  label_space_ = std::make_unique<core::LabelSpace>(network_);
  options.label_space = label_space_.get();
  if (engine_options_.enable_similarity_cache) {
    similarity_cache_ = std::make_unique<TimedSimilarityCache>(
        engine_options_.similarity_cache_capacity,
        engine_options_.similarity_cache_shards,
        runtime::SimilarityCache::ConfigFingerprint(
            options.EffectiveMeasureConfig()));
    options.similarity_cache = similarity_cache_.get();
  }
  if (engine_options_.enable_sense_cache) {
    sense_inventory_ = std::make_unique<TimedSenseInventory>(
        engine_options_.sense_cache_capacity,
        engine_options_.sense_cache_shards);
    options.sense_inventory = sense_inventory_.get();
  }
  for (int i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>(network_, options));
  }
}

Pipeline::~Pipeline() = default;

void Pipeline::set_traced(bool traced) {
  if (similarity_cache_) similarity_cache_->set_traced(traced);
  if (sense_inventory_) sense_inventory_->set_traced(traced);
}

DocOutput Pipeline::Run(int worker, uint64_t doc_id, const std::string& text,
                        bool fan_out, SpanLog* log) {
  DocOutput out;
  Worker& w = *workers_[static_cast<size_t>(worker)];
  ScopedSpan doc(log, "document", doc_id, -1);
  core::StreamingBuildStats build_stats;
  ScopedSpan frontend(log, "core.frontend", doc_id, doc.index());
  auto tree = core::BuildTreeStreaming(
      text, *network_, parse_options_,
      engine_options_.disambiguator.include_values, label_space_.get(),
      &w.tree_cache, &build_stats);
  frontend.End(true);
  if (!tree.ok()) {
    out.error = tree.status().ToString();
    doc.End(false);
    return out;
  }
  out.scaffold_peak_bytes = build_stats.scaffold_peak_bytes;

  ScopedSpan select(log, "core.select", doc_id, doc.index());
  std::vector<xml::NodeId> targets = w.disambiguator.SelectTargets(*tree);
  select.End(true);

  core::SemanticTree semantic;
  ScopedSpan disambiguate(log, "core.disambiguate", doc_id, doc.index());
  const size_t chunk = std::max<size_t>(
      engine_options_.subtree_chunk_targets, 1);
  const bool chunked =
      fan_out && pool_.threads() > 1 &&
      targets.size() >=
          std::max(engine_options_.subtree_min_targets, 2 * chunk);
  if (chunked) {
    // The engine's subtree stealing: chunk-sized slices of the target
    // list, claimed by whichever thread is free, merged in chunk order.
    const size_t chunks = (targets.size() + chunk - 1) / chunk;
    std::vector<std::vector<std::pair<xml::NodeId, core::SenseAssignment>>>
        results(chunks);
    const xml::LabeledTree& shared_tree = *tree;
    pool_.Run(chunks, [&](size_t c, int helper) {
      const core::Disambiguator& d =
          workers_[static_cast<size_t>(helper)]->disambiguator;
      const size_t end = std::min((c + 1) * chunk, targets.size());
      for (size_t i = c * chunk; i < end; ++i) {
        auto assignment = d.DisambiguateNode(shared_tree, targets[i]);
        if (assignment.ok()) {
          results[c].emplace_back(targets[i], std::move(assignment).value());
        }
      }
    });
    for (auto& part : results) {
      for (auto& entry : part) {
        semantic.assignments.emplace(entry.first, std::move(entry.second));
      }
    }
  } else {
    for (xml::NodeId id : targets) {
      auto assignment = w.disambiguator.DisambiguateNode(*tree, id);
      if (!assignment.ok()) continue;  // senseless labels stay untouched
      semantic.assignments.emplace(id, std::move(assignment).value());
    }
  }
  disambiguate.End(true);
  semantic.tree = std::move(tree).value();

  ScopedSpan serialize(log, "core.serialize", doc_id, doc.index());
  out.semantic_xml = core::SemanticTreeToXml(semantic, *network_);
  serialize.End(true);
  doc.End(false);

  out.ok = true;
  out.nodes = semantic.tree.size();
  out.targets = targets.size();
  out.assigned = semantic.assignments.size();
  for (const auto& entry : semantic.assignments) {
    out.candidates += static_cast<size_t>(entry.second.candidate_count);
  }
  return out;
}

bool Pipeline::ParseProbe(uint64_t doc_id, const std::string& text,
                          SpanLog* log) {
  NullHandler handler;
  ScopedSpan span(log, "xml.parse", doc_id, -1);
  const bool ok = xml::StreamParse(text, &handler, parse_options_).ok();
  span.End(false);
  return ok;
}

// ---------------------------------------------------------------------------
// Reference

Reference::Reference(const xsdf::wordnet::SemanticNetwork* network)
    : network_(network),
      disambiguator_(network, runtime::EngineOptions().disambiguator) {}

xsdf::Result<std::string> Reference::Run(const std::string& text,
                                         core::SemanticTree* out_tree) {
  const runtime::EngineOptions defaults;
  xml::ParseOptions parse_options;
  parse_options.limits = defaults.parse_limits;
  auto tree = core::BuildTreeStreaming(
      text, *network_, parse_options, defaults.disambiguator.include_values,
      disambiguator_.label_space(), &cache_);
  if (!tree.ok()) return tree.status();
  auto semantic = disambiguator_.RunOnTree(std::move(tree).value());
  if (!semantic.ok()) return semantic.status();
  std::string bytes = core::SemanticTreeToXml(*semantic, *network_);
  if (out_tree != nullptr) *out_tree = std::move(semantic).value();
  return bytes;
}

// ---------------------------------------------------------------------------
// Attribution

const Attribution::Layer* Attribution::Find(const std::string& name) const {
  for (const Layer& layer : layers) {
    if (layer.name == name) return &layer;
  }
  return nullptr;
}

Attribution Summarize(const std::vector<SpanLog>& logs) {
  Attribution out;
  std::unordered_map<std::string, size_t> index;
  auto layer = [&](const char* name) -> Attribution::Layer& {
    auto [it, inserted] = index.emplace(name, out.layers.size());
    if (inserted) out.layers.push_back({name, 0, 0, 0});
    return out.layers[it->second];
  };
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans;
    // Σ of the direct children's durations, per span.
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] += span.dur_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.parent < 0) {
        if (std::string_view(span.name) != "document") {
          // Probes outside any document (xml.parse) report inclusive
          // time only; they are not part of the document's attribution.
          Attribution::Layer& probe = layer(span.name);
          probe.inclusive_ns += span.dur_ns;
          probe.calls += span.calls;
          continue;
        }
        ++out.documents;
        out.document_ns += span.dur_ns;
        if (child_ns[i] > span.dur_ns) out.adds_up = false;
        out.unattributed_ns += span.dur_ns - std::min(child_ns[i], span.dur_ns);
        continue;
      }
      Attribution::Layer& l = layer(span.name);
      l.inclusive_ns += span.dur_ns;
      l.calls += span.calls;
      if (child_ns[i] > span.dur_ns) out.adds_up = false;
      l.self_ns += span.dur_ns - std::min(child_ns[i], span.dur_ns);
    }
  }
  uint64_t total = out.unattributed_ns;
  for (const Attribution::Layer& l : out.layers) total += l.self_ns;
  // Probes carry no self time, so the sum covers documents only.
  if (total != out.document_ns) out.adds_up = false;
  return out;
}

bool WriteSpans(const std::vector<SpanLog>& logs, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  for (const SpanLog& log : logs) {
    for (size_t i = 0; i < log.spans.size(); ++i) {
      const Span& s = log.spans[i];
      std::fprintf(file,
                   "{\"thread\":%u,\"index\":%zu,\"doc\":%llu,\"name\":\"%s\","
                   "\"parent\":%lld,\"start_ns\":%llu,\"dur_ns\":%llu,"
                   "\"calls\":%llu}\n",
                   log.thread, i, static_cast<unsigned long long>(s.doc),
                   s.name, static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.dur_ns),
                   static_cast<unsigned long long>(s.calls));
    }
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
