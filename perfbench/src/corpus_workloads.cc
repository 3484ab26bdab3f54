// corpus_batch and giant_doc, plus the reporting helpers every workload
// shares.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>

#include "datasets/generator.h"
#include "eval/experiment.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "obs/request_trace.h"
#include "runtime/engine.h"
#include "wordnet/mini_wordnet.h"
#include "workloads.h"

namespace perfbench {

namespace runtime = xsdf::runtime;
using xsdf::wordnet::SemanticNetwork;

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

std::unique_ptr<SemanticNetwork> BuildLexicon() {
  auto built = xsdf::wordnet::BuildMiniWordNet();
  if (!built.ok()) Fatal("lexicon: " + built.status().ToString());
  return std::make_unique<SemanticNetwork>(std::move(built).value());
}

void CheckOutput(RunContext& ctx, const Doc& doc, bool ok,
                 const std::string& output, const char* path) {
  ctx.gate.Attempt();
  if (!ctx.gate.Check(ok, std::string(path) + ": " + doc.name + " failed")) {
    return;
  }
  ctx.gate.Check(Digest(output) == doc.digest,
                 std::string(path) + ": " + doc.name +
                     " differs from the reference output");
}

namespace {

uint64_t TotalBytes(const std::vector<Doc>& docs) {
  uint64_t bytes = 0;
  for (const Doc& doc : docs) bytes += doc.xml.size();
  return bytes;
}

/// Times `fn(pass, traced)`, one full pass each, alternating untraced
/// and traced passes for about `budget_s` (at least one of each).
/// Returns the traced-vs-untraced overhead in percent from the median
/// pass times.
double AlternateTracedPasses(double budget_s,
                             const std::function<void(int, bool)>& fn) {
  std::vector<double> plain;
  std::vector<double> traced;
  const uint64_t start = NowNs();
  int pass = 0;
  while (plain.empty() || traced.empty() || SecondsSince(start) < budget_s) {
    const bool on = (pass % 2) == 1;
    const uint64_t t0 = NowNs();
    fn(pass, on);
    (on ? traced : plain).push_back(SecondsSince(t0));
    ++pass;
  }
  return (Median(traced) / Median(plain) - 1.0) * 100.0;
}

/// An engine output waiting for its reference digest: giant_doc gates
/// after measuring, so the reference computation's memory stays out of
/// peak_rss_mb.
struct Pending {
  size_t doc = 0;
  bool ok = false;
  uint64_t digest = 0;
};

void CheckPending(RunContext& ctx, const std::vector<Doc>& docs,
                  const std::vector<Pending>& pending) {
  for (const Pending& p : pending) {
    const Doc& doc = docs[p.doc];
    ctx.gate.Attempt();
    if (!ctx.gate.Check(p.ok, "engine: " + doc.name + " failed")) continue;
    ctx.gate.Check(p.digest == doc.digest,
                   "engine: " + doc.name + " differs from the reference output");
  }
}

/// What one pass of documents through an engine measured.
struct EnginePass {
  double wall_s = 0.0;
  std::vector<double> latency_us;  ///< one-at-a-time passes only
  std::vector<double> run_us;      ///< with request traces only
  std::vector<double> queue_wait_us;
};

/// Runs `docs` through `engine` as one batch, or one at a time through
/// TryRunOne (timing each from submission to result), and queues every
/// output for the gate. With `timed_jobs` each job carries an
/// obs::RequestTrace so the engine reports its queue wait and run time.
EnginePass RunEnginePass(runtime::DisambiguationEngine& engine,
                         const std::vector<Doc>& docs, bool one_at_a_time,
                         bool timed_jobs, std::vector<Pending>* pending) {
  std::vector<std::unique_ptr<xsdf::obs::RequestTrace>> traces;
  auto make_job = [&](size_t i) {
    runtime::DocumentJob job;
    job.name = docs[i].name;
    job.xml = docs[i].xml;
    if (timed_jobs) {
      traces.push_back(
          std::make_unique<xsdf::obs::RequestTrace>(i + 1, NowNs()));
      job.rtrace = traces.back().get();
    }
    return job;
  };
  EnginePass pass;
  auto collect = [&](const runtime::DocumentResult& result, size_t doc) {
    pending->push_back({doc, result.ok, Digest(result.semantic_xml)});
    if (timed_jobs) {
      pass.run_us.push_back(static_cast<double>(result.run_us));
      pass.queue_wait_us.push_back(static_cast<double>(result.queue_wait_us));
    }
  };
  if (!one_at_a_time) {
    std::vector<runtime::DocumentJob> jobs;
    jobs.reserve(docs.size());
    for (size_t i = 0; i < docs.size(); ++i) jobs.push_back(make_job(i));
    const uint64_t start = NowNs();
    std::vector<runtime::DocumentResult> results =
        engine.RunBatch(std::move(jobs));
    pass.wall_s = SecondsSince(start);
    for (size_t i = 0; i < docs.size(); ++i) collect(results[i], i);
    return pass;
  }
  for (size_t i = 0; i < docs.size(); ++i) {
    runtime::DocumentJob job = make_job(i);
    const uint64_t start = NowNs();
    std::optional<runtime::DocumentResult> result =
        engine.TryRunOne(std::move(job));
    const uint64_t end = NowNs();
    pass.wall_s += static_cast<double>(end - start) * 1e-9;
    pass.latency_us.push_back(static_cast<double>(end - start) * 1e-3);
    if (!result.has_value()) {
      pending->push_back({i, false, 0});  // refused
      continue;
    }
    collect(*result, i);
  }
  return pass;
}

runtime::EngineOptions EngineAt(int threads) {
  runtime::EngineOptions options;
  options.threads = threads;
  return options;
}

/// Deltas of the engine counters between two stats() snapshots.
void AddEngineDeltas(RuntimeTotals* totals, const runtime::EngineStats& a,
                     const runtime::EngineStats& b) {
  const double docs = static_cast<double>(b.documents - a.documents);
  if (docs <= 0) return;
  totals->subtree_parallel_share =
      static_cast<double>(b.subtree_parallel_docs - a.subtree_parallel_docs) /
      docs;
  totals->subtree_steals_per_doc =
      static_cast<double>(b.subtree_steals - a.subtree_steals) / docs;
  auto ratio = [](const runtime::CacheStats& x, const runtime::CacheStats& y) {
    const double lookups = static_cast<double>(y.lookups() - x.lookups());
    return lookups <= 0 ? 0.0
                        : static_cast<double>(y.hits - x.hits) / lookups;
  };
  totals->sim_hit_ratio = ratio(a.similarity_cache, b.similarity_cache);
  totals->sense_hit_ratio = ratio(a.sense_cache, b.sense_cache);
  totals->pair_lookups_per_doc =
      static_cast<double>(b.similarity_cache.lookups() -
                          a.similarity_cache.lookups()) /
      docs;
}

/// References on up to ctx.nproc threads, one document per thread at a
/// time, each computed single-threaded by Reference.
void ComputeReferences(RunContext& ctx, const SemanticNetwork& network,
                       std::vector<Doc>* docs) {
  WorkerPool pool(std::min<int>(ctx.nproc, static_cast<int>(docs->size())));
  std::vector<std::unique_ptr<Reference>> refs;
  for (int i = 0; i < pool.threads(); ++i) {
    refs.push_back(std::make_unique<Reference>(&network));
  }
  pool.Run(docs->size(), [&](size_t i, int worker) {
    auto bytes = refs[static_cast<size_t>(worker)]->Run((*docs)[i].xml);
    if (!bytes.ok()) Fatal("reference failed on " + (*docs)[i].name);
    (*docs)[i].digest = Digest(*bytes);
  });
  if (ctx.corrupt_reference && !docs->empty()) (*docs)[0].digest ^= 1;
}

}  // namespace

/// The traced composition over `docs`: alternating untraced and traced
/// passes on a fresh Pipeline each (cold caches, like a cold engine),
/// every output gated, then one tokenizer-only probe pass.
void RunComposition(RunContext& ctx, const SemanticNetwork& network,
                    const std::vector<Doc>& docs, bool fan_out,
                    double budget_s, const Attribution* documents) {
  const int threads = ctx.nproc;
  std::vector<SpanLog> logs(static_cast<size_t>(threads) + 1);
  for (size_t t = 0; t < logs.size(); ++t) logs[t].thread = t;
  CompositionTotals totals;
  const double overhead = AlternateTracedPasses(
      budget_s, [&](int pass, bool traced) {
        Pipeline pipeline(&network, runtime::EngineOptions(), threads);
        pipeline.set_traced(traced);
        const uint64_t base = static_cast<uint64_t>(pass) * docs.size();
        auto run_one = [&](size_t i, int worker) {
          SpanLog* log = traced ? &logs[static_cast<size_t>(worker)] : nullptr;
          return pipeline.Run(worker, base + i, docs[i].xml, fan_out, log);
        };
        std::vector<DocOutput> outputs(docs.size());
        if (fan_out) {
          // One document at a time; its per-target loop fans out.
          for (size_t i = 0; i < docs.size(); ++i) outputs[i] = run_one(i, 0);
        } else {
          pipeline.pool().Run(docs.size(), [&](size_t i, int worker) {
            outputs[i] = run_one(i, worker);
          });
        }
        for (size_t i = 0; i < docs.size(); ++i) {
          CheckOutput(ctx, docs[i], outputs[i].ok, outputs[i].semantic_xml,
                      traced ? "traced composition" : "composition");
          if (traced) totals.Add(outputs[i]);
        }
      });
  {
    Pipeline pipeline(&network, runtime::EngineOptions(), 1);
    SpanLog& probe = logs.back();
    for (size_t i = 0; i < docs.size(); ++i) {
      ctx.gate.Attempt();
      ctx.gate.Check(pipeline.ParseProbe(i, docs[i].xml, &probe),
                     "tokenizer rejected " + docs[i].name);
    }
  }
  const Attribution attribution = Summarize(logs);
  ctx.gate.Attempt();
  ctx.gate.Check(attribution.adds_up,
                 "layer self times plus unattributed time do not add up to "
                 "the document time");
  ReportLayerMetrics(ctx, attribution, totals, overhead, documents);
  for (SpanLog& log : logs) ctx.spans.push_back(std::move(log));
}

// ---------------------------------------------------------------------------
// Shared reporting

void CompositionTotals::Add(const DocOutput& out) {
  ++docs;
  nodes += out.nodes;
  targets += out.targets;
  assigned += out.assigned;
  candidates += out.candidates;
  output_bytes += out.semantic_xml.size();
  scaffold_peak_bytes = std::max<uint64_t>(scaffold_peak_bytes,
                                           out.scaffold_peak_bytes);
}

void ReportLayerMetrics(RunContext& ctx, const Attribution& a,
                        const CompositionTotals& t, double overhead_pct,
                        const Attribution* documents) {
  Report& r = ctx.report;
  const double docs = std::max<double>(static_cast<double>(a.documents), 1);
  const double doc_ns = std::max<double>(static_cast<double>(a.document_ns), 1);
  const uint64_t n = a.documents;
  auto incl_us = [&](const char* name) {
    const Attribution::Layer* l = a.Find(name);
    return l == nullptr ? 0.0 : static_cast<double>(l->inclusive_ns) / 1e3;
  };
  auto self_share = [&](const char* name) {
    const Attribution::Layer* l = a.Find(name);
    return l == nullptr ? 0.0 : static_cast<double>(l->self_ns) / doc_ns;
  };
  const double per = 1.0 / docs;
  const double targets = std::max<double>(static_cast<double>(t.targets), 1);
  const Attribution::Layer* parse = a.Find("xml.parse");
  const double parse_docs =
      parse == nullptr ? 1.0 : std::max<double>(parse->calls, 1);
  r.Add("xml.parse.us_per_doc", incl_us("xml.parse") / parse_docs, "us",
        parse == nullptr ? 0 : parse->calls);
  r.Add("core.frontend.us_per_doc", incl_us("core.frontend") * per, "us", n);
  r.Add("core.frontend.nodes_per_doc", t.nodes * per, "count", n);
  r.Add("core.frontend.scaffold_peak_bytes",
        static_cast<double>(t.scaffold_peak_bytes), "B", n);
  r.Add("core.frontend.self_share", self_share("core.frontend"), "ratio", n);
  r.Add("core.select.us_per_doc", incl_us("core.select") * per, "us", n);
  r.Add("core.select.targets_per_doc", t.targets * per, "count", n);
  r.Add("core.select.target_share",
        static_cast<double>(t.targets) / std::max<double>(t.nodes, 1), "ratio",
        n);
  r.Add("core.select.self_share", self_share("core.select"), "ratio", n);
  r.Add("core.disambiguate.us_per_doc", incl_us("core.disambiguate") * per,
        "us", n);
  r.Add("core.disambiguate.us_per_target", incl_us("core.disambiguate") / targets,
        "us", t.targets);
  r.Add("core.disambiguate.candidates_per_target", t.candidates / targets,
        "count", t.targets);
  r.Add("core.disambiguate.assigned_share", t.assigned / targets, "ratio",
        t.targets);
  r.Add("core.disambiguate.self_share", self_share("core.disambiguate"),
        "ratio", n);
  r.Add("sim.us_per_doc", incl_us("sim") * per, "us", n);
  r.Add("sim.self_share", self_share("sim"), "ratio", n);
  r.Add("runtime.sim_cache.self_share", self_share("runtime.sim_cache"),
        "ratio", n);
  r.Add("runtime.sense_cache.self_share", self_share("runtime.sense_cache"),
        "ratio", n);
  r.Add("core.serialize.us_per_doc", incl_us("core.serialize") * per, "us", n);
  r.Add("core.serialize.bytes_per_doc", t.output_bytes * per, "B", n);
  r.Add("core.serialize.self_share", self_share("core.serialize"), "ratio",
        n);
  const Attribution& d = documents != nullptr ? *documents : a;
  r.Add("trace.unattributed_share",
        static_cast<double>(d.unattributed_ns) /
            std::max<double>(static_cast<double>(d.document_ns), 1),
        "ratio", d.documents);
  r.Add("trace.overhead_pct", overhead_pct, "%", n);
}

void ReportRuntimeMetrics(RunContext& ctx, const RuntimeTotals& t) {
  Report& r = ctx.report;
  r.Add("runtime.worker_busy_share", t.worker_busy_share, "ratio",
        t.run_us.size());
  r.Add("runtime.scaling", t.scaling, "ratio", 2);
  r.Add("runtime.run_us_p50", Quantile(t.run_us, 0.5), "us", t.run_us.size());
  r.Add("runtime.run_us_p99", Quantile(t.run_us, 0.99), "us", t.run_us.size());
  r.Add("runtime.queue_wait_us_p50", Quantile(t.queue_wait_us, 0.5), "us",
        t.queue_wait_us.size());
  r.Add("runtime.queue_wait_us_p99", Quantile(t.queue_wait_us, 0.99), "us",
        t.queue_wait_us.size());
  r.Add("runtime.subtree_parallel_docs", t.subtree_parallel_share, "ratio",
        t.run_us.size());
  r.Add("runtime.subtree_steals", t.subtree_steals_per_doc, "count/doc",
        t.run_us.size());
  r.Add("runtime.sim_cache.hit_ratio", t.sim_hit_ratio, "ratio",
        t.run_us.size());
  r.Add("runtime.sense_cache.hit_ratio", t.sense_hit_ratio, "ratio",
        t.run_us.size());
  r.Add("sim.pair_lookups_per_doc", t.pair_lookups_per_doc, "count",
        t.run_us.size());
}

void ReportServeMetrics(RunContext& ctx, const ServeTotals& t) {
  Report& r = ctx.report;
  r.Add("serve.round_trip_us_p50", Quantile(t.round_trip_us, 0.5), "us",
        t.round_trip_us.size());
  r.Add("serve.round_trip_us_p99", Quantile(t.round_trip_us, 0.99), "us",
        t.round_trip_us.size());
  r.Add("serve.overhead_us_p50", Quantile(t.overhead_us, 0.5), "us",
        t.overhead_us.size());
  r.Add("serve.explain_us_p50", Quantile(t.explain_us, 0.5), "us",
        t.explain_us.size());
  r.Add("serve.refused", static_cast<double>(t.refused), "count",
        t.round_trip_us.size());
  r.Add("serve.gen_lateness_ms_p99", Quantile(t.lateness_ms, 0.99), "ms",
        t.lateness_ms.size());
}

void SetupSamples::Report(RunContext& ctx) const {
  const uint64_t n = total_s.size();
  ctx.report.Add("setup_s", Median(total_s), "s", n);
  ctx.report.Add("setup.lexicon_ms", Median(lexicon_ms), "ms", n);
  ctx.report.Add("setup.engine_ms", Median(engine_ms), "ms", n);
  ctx.report.Add("setup.listen_ms", Median(listen_ms), "ms", n);
}

void SampleBatchSetup(const RunContext& ctx, SetupSamples* samples) {
  const uint64_t t0 = NowNs();
  std::unique_ptr<SemanticNetwork> network = BuildLexicon();
  const uint64_t t1 = NowNs();
  runtime::DisambiguationEngine engine(network.get(), EngineAt(ctx.nproc));
  const uint64_t t2 = NowNs();
  samples->lexicon_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  samples->engine_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
  samples->listen_ms.push_back(0.0);
  samples->total_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
}

// ---------------------------------------------------------------------------
// corpus_batch

void RunCorpusBatch(RunContext& ctx) {
  std::unique_ptr<SemanticNetwork> network = BuildLexicon();

  // Inputs: the ten Table 3 families over corpus seeds derived from the
  // workload seed, each document carrying resolved gold senses and its
  // evaluated target sample.
  std::vector<uint64_t> corpus_seeds;
  if (ctx.accuracy_only_seed != 0) {
    corpus_seeds.push_back(ctx.accuracy_only_seed);
  } else {
    const int count = ctx.tiny ? 1 : 20;
    for (int i = 0; i < count; ++i) {
      corpus_seeds.push_back(Mix(ctx.seed, static_cast<uint64_t>(i)));
    }
  }
  std::vector<Doc> docs;
  std::vector<xsdf::eval::PrfScores> parts;
  Reference reference(network.get());
  for (uint64_t corpus_seed : corpus_seeds) {
    auto corpus = xsdf::eval::BuildCorpus(*network, corpus_seed);
    if (!corpus.ok()) Fatal("BuildCorpus: " + corpus.status().ToString());
    for (const xsdf::eval::CorpusDocument& cd : *corpus) {
      if (ctx.tiny && docs.size() >= 12) break;
      Doc doc;
      doc.name = cd.generated.name;
      doc.xml = cd.generated.xml;
      xsdf::core::SemanticTree tree;
      auto bytes = reference.Run(doc.xml, &tree);
      if (!bytes.ok()) Fatal("reference failed on " + doc.name);
      doc.digest = Digest(*bytes);
      // Target samples index the corpus's own tree; the reference tree
      // must be the same tree for the score to mean anything.
      ctx.gate.Attempt();
      if (!ctx.gate.Check(tree.tree.size() == cd.tree.size(),
                          "reference tree shape differs for " + doc.name)) {
        continue;
      }
      parts.push_back(
          xsdf::eval::ScoreOnNodes(tree, cd.gold, cd.target_sample));
      docs.push_back(std::move(doc));
    }
  }
  const xsdf::eval::PrfScores accuracy = xsdf::eval::CombinePrf(parts);
  ctx.report.Info("accuracy_f", accuracy.f_value, "ratio",
                  static_cast<uint64_t>(accuracy.gold_total));
  if (ctx.accuracy_only_seed != 0) {
    ctx.report.Info("accuracy.gold", accuracy.gold_total, "count", 1);
    ctx.report.Info("accuracy.attempted", accuracy.attempted, "count", 1);
    ctx.report.Info("accuracy.correct", accuracy.correct, "count", 1);
    return;
  }
  if (ctx.corrupt_reference) docs[0].digest ^= 1;
  const double bytes = static_cast<double>(TotalBytes(docs));
  const double n = static_cast<double>(docs.size());
  ctx.report.Info("input.documents", n, "count", 1);
  ctx.report.Info("input.bytes", bytes, "B", 1);

  // Cold engines, alternating nproc and one worker, each over the whole
  // document set, with a set-up sample after each pair; medians over
  // the repetitions. The nproc engine's jobs carry request traces, so
  // it reports each document's run time: the per-document latency once
  // a worker has taken the document. peak_rss_mb is read after the
  // first nproc pass: one `xsdf batch` pass over the inputs.
  const double batch_budget = ctx.seconds * (ctx.traced ? 0.4 : 1.0);
  std::vector<double> rate, rate_1w, mb_rate;
  RuntimeTotals rt;
  std::vector<double> busy;
  std::vector<Pending> pending;
  SetupSamples setup;
  double peak_rss_mb = 0;
  const uint64_t start = NowNs();
  while (rate.size() < 5 || SecondsSince(start) < batch_budget) {
    {
      runtime::DisambiguationEngine engine(network.get(), EngineAt(ctx.nproc));
      const runtime::EngineStats before = engine.stats();
      EnginePass pass = RunEnginePass(engine, docs, false, true, &pending);
      rate.push_back(n / pass.wall_s);
      mb_rate.push_back(bytes / 1e6 / pass.wall_s);
      busy.push_back(Sum(pass.run_us) * 1e-6 / (pass.wall_s * ctx.nproc));
      rt.run_us.insert(rt.run_us.end(), pass.run_us.begin(),
                       pass.run_us.end());
      rt.queue_wait_us.insert(rt.queue_wait_us.end(),
                              pass.queue_wait_us.begin(),
                              pass.queue_wait_us.end());
      AddEngineDeltas(&rt, before, engine.stats());
    }
    if (rate.size() == 1) peak_rss_mb = PeakRssMb();
    {
      runtime::DisambiguationEngine engine(network.get(), EngineAt(1));
      EnginePass pass = RunEnginePass(engine, docs, false, false, &pending);
      rate_1w.push_back(n / pass.wall_s);
    }
    SampleBatchSetup(ctx, &setup);
  }
  setup.Report(ctx);
  ctx.report.Add("peak_rss_mb", peak_rss_mb, "MB", 1);
  const uint64_t reps = rate.size();
  ctx.report.Add("docs_per_s", Median(rate), "docs/s", reps);
  ctx.report.Add("docs_per_s_1w", Median(rate_1w), "docs/s", reps);
  ctx.report.Add("input_mb_per_s", Median(mb_rate), "MB/s", reps);
  ctx.report.Add("latency_p50_ms", Quantile(rt.run_us, 0.5) / 1e3, "ms",
                 rt.run_us.size());
  ctx.report.Info("latency_p99_ms", Quantile(rt.run_us, 0.99) / 1e3, "ms",
                  rt.run_us.size());
  if (ctx.traced) {
    rt.worker_busy_share = Median(busy);
    rt.scaling = Median(rate) / Median(rate_1w);
    ReportRuntimeMetrics(ctx, rt);
    ReportServeMetrics(ctx, ServeTotals());
    RunComposition(ctx, *network, docs, false, ctx.seconds * 0.55, nullptr);
  }
  CheckPending(ctx, docs, pending);
}

// ---------------------------------------------------------------------------
// giant_doc

void RunGiantDoc(RunContext& ctx) {
  std::unique_ptr<SemanticNetwork> network = BuildLexicon();
  // Two documents per run, the generator's deep profile then its wide
  // one, each submitted alone so subtree stealing is the only
  // parallelism.
  const size_t target_bytes = ctx.tiny ? (64u << 10) : (512u << 10);
  std::vector<Doc> docs;
  for (auto& generated :
       xsdf::datasets::GiantDocuments(2, target_bytes, Mix(ctx.seed, 0))) {
    docs.push_back({generated.name, std::move(generated.xml), 0});
  }
  const double bytes = static_cast<double>(TotalBytes(docs));
  ctx.report.Info("input.documents", static_cast<double>(docs.size()),
                  "count", 1);
  ctx.report.Info("input.bytes", bytes, "B", 1);

  // Resident engines; the first repetition warms their caches and is
  // gated but not timed, and peak_rss_mb is read after it. Outputs are
  // gated once the measuring is done, so the reference computation
  // stays out of the peak. A set-up sample follows each repetition.
  std::vector<Pending> pending;
  std::vector<double> rate, rate_1w, mb_rate, latency_us, busy;
  RuntimeTotals rt;
  SetupSamples setup;
  {
    runtime::DisambiguationEngine engine(network.get(), EngineAt(ctx.nproc));
    runtime::DisambiguationEngine engine_1w(network.get(), EngineAt(1));
    RunEnginePass(engine, docs, true, false, &pending);
    ctx.report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    RunEnginePass(engine_1w, docs, true, false, &pending);
    const double budget = ctx.seconds * (ctx.traced ? 0.4 : 1.0);
    const uint64_t start = NowNs();
    while (rate.size() < 5 || SecondsSince(start) < budget) {
      const runtime::EngineStats before = engine.stats();
      EnginePass pass = RunEnginePass(engine, docs, true, ctx.traced, &pending);
      rate.push_back(docs.size() / pass.wall_s);
      mb_rate.push_back(bytes / 1e6 / pass.wall_s);
      latency_us.insert(latency_us.end(), pass.latency_us.begin(),
                        pass.latency_us.end());
      if (ctx.traced) {
        busy.push_back(Sum(pass.run_us) * 1e-6 / (pass.wall_s * ctx.nproc));
        rt.run_us.insert(rt.run_us.end(), pass.run_us.begin(),
                         pass.run_us.end());
        rt.queue_wait_us.insert(rt.queue_wait_us.end(),
                                pass.queue_wait_us.begin(),
                                pass.queue_wait_us.end());
        AddEngineDeltas(&rt, before, engine.stats());
      }
      EnginePass pass_1w = RunEnginePass(engine_1w, docs, true, false, &pending);
      rate_1w.push_back(docs.size() / pass_1w.wall_s);
      SampleBatchSetup(ctx, &setup);
    }
  }
  setup.Report(ctx);
  ComputeReferences(ctx, *network, &docs);
  CheckPending(ctx, docs, pending);

  const uint64_t reps = rate.size();
  ctx.report.Add("docs_per_s", Median(rate), "docs/s", reps);
  ctx.report.Add("docs_per_s_1w", Median(rate_1w), "docs/s", reps);
  ctx.report.Add("input_mb_per_s", Median(mb_rate), "MB/s", reps);
  ctx.report.Add("latency_p50_ms", Quantile(latency_us, 0.5) / 1e3, "ms",
                 latency_us.size());
  if (ctx.traced) {
    rt.worker_busy_share = Median(busy);
    rt.scaling = Median(rate) / Median(rate_1w);
    ReportRuntimeMetrics(ctx, rt);
    ReportServeMetrics(ctx, ServeTotals());
    RunComposition(ctx, *network, docs, true, ctx.seconds * 0.6, nullptr);
  }
}

}  // namespace perfbench
