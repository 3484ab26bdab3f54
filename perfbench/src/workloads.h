// The three workloads. Each fills ctx.report with its metrics and
// counts every checked output in ctx.gate; see README.md for what each
// one exercises and why.

#ifndef XSDF_PERFBENCH_WORKLOADS_H_
#define XSDF_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "traced.h"
#include "util.h"
#include "wordnet/semantic_network.h"

namespace perfbench {

/// One input document and the digest of its reference output.
struct Doc {
  std::string name;
  std::string xml;
  uint64_t digest = 0;
};

struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Shrinks every input to a few documents (the self-test).
  bool tiny = false;
  /// Flips one reference digest: the gate must then fail the run.
  bool corrupt_reference = false;
  /// corpus_batch only: nonzero runs the accuracy computation alone on
  /// the single eval::BuildCorpus corpus of this seed.
  uint64_t accuracy_only_seed = 0;
  /// Where spans, the access log and the snapshot go.
  std::string out_dir;
  int nproc = 1;

  Gate gate;
  Report report;
  /// Every span the traced run records, written out when it ends.
  std::vector<SpanLog> spans;
};

void RunCorpusBatch(RunContext& ctx);
void RunGiantDoc(RunContext& ctx);
void RunServeOpenLoop(RunContext& ctx);

// Shared by the workloads (corpus_workloads.cc).

/// Prints `what` and exits 2 without a result: the run is broken, not
/// merely wrong.
[[noreturn]] void Fatal(const std::string& what);
std::unique_ptr<xsdf::wordnet::SemanticNetwork> BuildLexicon();
/// Gates one output: it must be ok and match the document's digest.
void CheckOutput(RunContext& ctx, const Doc& doc, bool ok,
                 const std::string& output, const char* path);

/// The traced composition over `docs` on ctx.nproc threads: alternating
/// untraced and traced passes for about `budget_s`, on a fresh Pipeline
/// each (cold caches, like a cold engine), every output gated; then one
/// tokenizer-only probe pass. Reports the per-layer metrics and keeps
/// the spans in ctx.spans. `fan_out` runs one document at a time with
/// its target loop spread over the threads; otherwise whole documents
/// are spread. `documents` as in ReportLayerMetrics.
void RunComposition(RunContext& ctx,
                    const xsdf::wordnet::SemanticNetwork& network,
                    const std::vector<Doc>& docs, bool fan_out,
                    double budget_s, const Attribution* documents);

/// Set-up samples, taken between measured repetitions so that their
/// median sees the machine as the whole run does, not just its start.
struct SetupSamples {
  std::vector<double> lexicon_ms;
  std::vector<double> engine_ms;
  std::vector<double> listen_ms;
  std::vector<double> total_s;
  /// Reports setup_s and setup.* as medians.
  void Report(RunContext& ctx) const;
};

/// One batch set-up: a fresh wordnet::BuildMiniWordNet lexicon plus an
/// engine at ctx.nproc workers (no socket: listen is 0).
void SampleBatchSetup(const RunContext& ctx, SetupSamples* samples);

/// The per-layer metrics every traced run reports from its composed
/// pipeline's spans and per-document facts.
struct CompositionTotals {
  uint64_t docs = 0;
  uint64_t nodes = 0;
  uint64_t targets = 0;
  uint64_t assigned = 0;
  uint64_t candidates = 0;
  uint64_t output_bytes = 0;
  uint64_t scaffold_peak_bytes = 0;
  void Add(const DocOutput& out);
};
/// trace.unattributed_share comes from `documents` when given (serve
/// attributes whole requests), else from `attribution`.
void ReportLayerMetrics(RunContext& ctx, const Attribution& attribution,
                        const CompositionTotals& totals, double overhead_pct,
                        const Attribution* documents = nullptr);

/// Engine counters reported under runtime.* by every workload.
struct RuntimeTotals {
  double worker_busy_share = 0.0;
  double scaling = 0.0;
  std::vector<double> run_us;
  std::vector<double> queue_wait_us;
  double subtree_parallel_share = 0.0;
  double subtree_steals_per_doc = 0.0;
  double sim_hit_ratio = 0.0;
  double sense_hit_ratio = 0.0;
  double pair_lookups_per_doc = 0.0;
};
void ReportRuntimeMetrics(RunContext& ctx, const RuntimeTotals& totals);

/// The serve.* metrics, all 0 on the batch workloads (no serve layer).
struct ServeTotals {
  std::vector<double> round_trip_us;
  std::vector<double> overhead_us;
  std::vector<double> explain_us;
  std::vector<double> lateness_ms;
  uint64_t refused = 0;
};
void ReportServeMetrics(RunContext& ctx, const ServeTotals& totals);

}  // namespace perfbench

#endif  // XSDF_PERFBENCH_WORKLOADS_H_
