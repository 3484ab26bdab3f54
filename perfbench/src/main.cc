// perfbench: runs one named workload of the XSDF pipeline benchmark from
// a seed and prints its metrics. See README.md.
//
//   perfbench --workload corpus_batch|giant_doc|serve_open_loop
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//             [--commit ID] [--tiny] [--corrupt-reference]
//             [--accuracy-only-seed N]
//
// The last stdout line is the result: {"correct", "attempted",
// "failed", "metrics"}; the line before it is the full record (every
// metric with its sample count, the informational numbers, and the
// environment), also appended to DIR/results.jsonl. Exit 0 when every
// output passed the gate, 1 when any did not, 2 on a usage or set-up
// error (no result printed).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_env.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the self-test checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"docs_per_s", "docs/s"},
    {"docs_per_s_1w", "docs/s"}, {"input_mb_per_s", "MB/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"xml.parse.us_per_doc", "us"},
    {"core.frontend.us_per_doc", "us"},
    {"core.frontend.nodes_per_doc", "count"},
    {"core.frontend.scaffold_peak_bytes", "B"},
    {"core.frontend.self_share", "ratio"},
    {"core.select.us_per_doc", "us"},
    {"core.select.targets_per_doc", "count"},
    {"core.select.target_share", "ratio"},
    {"core.select.self_share", "ratio"},
    {"core.disambiguate.us_per_doc", "us"},
    {"core.disambiguate.us_per_target", "us"},
    {"core.disambiguate.candidates_per_target", "count"},
    {"core.disambiguate.assigned_share", "ratio"},
    {"core.disambiguate.self_share", "ratio"},
    {"sim.us_per_doc", "us"},
    {"sim.self_share", "ratio"},
    {"sim.pair_lookups_per_doc", "count"},
    {"runtime.sim_cache.self_share", "ratio"},
    {"runtime.sense_cache.self_share", "ratio"},
    {"runtime.sim_cache.hit_ratio", "ratio"},
    {"runtime.sense_cache.hit_ratio", "ratio"},
    {"core.serialize.us_per_doc", "us"},
    {"core.serialize.bytes_per_doc", "B"},
    {"core.serialize.self_share", "ratio"},
    {"runtime.worker_busy_share", "ratio"},
    {"runtime.scaling", "ratio"},
    {"runtime.run_us_p50", "us"},
    {"runtime.run_us_p99", "us"},
    {"runtime.queue_wait_us_p50", "us"},
    {"runtime.queue_wait_us_p99", "us"},
    {"runtime.subtree_parallel_docs", "ratio"},
    {"runtime.subtree_steals", "count/doc"},
    {"serve.round_trip_us_p50", "us"},
    {"serve.round_trip_us_p99", "us"},
    {"serve.overhead_us_p50", "us"},
    {"serve.explain_us_p50", "us"},
    {"serve.refused", "count"},
    {"serve.gen_lateness_ms_p99", "ms"},
    {"setup.lexicon_ms", "ms"},
    {"setup.engine_ms", "ms"},
    {"setup.listen_ms", "ms"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "corpus_batch|giant_doc|serve_open_loop --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--commit ID] [--tiny] "
               "[--corrupt-reference] [--accuracy-only-seed N]\n",
               why);
  return 2;
}

std::string EnvironmentJson(const RunContext& ctx, const std::string& commit) {
  // bench_env.h writes `"key": value,` lines into a FILE*.
  char* env = nullptr;
  size_t env_size = 0;
  std::FILE* mem = open_memstream(&env, &env_size);
  xsdf::bench::WriteBenchEnvFields(mem);
  std::fclose(mem);
  std::string fields(env, env_size);
  std::free(env);
  for (char& c : fields) {
    if (c == '\n') c = ' ';
  }
  return "{" + fields + "\"nproc\": " + std::to_string(ctx.nproc) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"commit\": " + JsonString(commit) +
         ", \"workload\": " + JsonString(ctx.workload) +
         ", \"seed\": " + std::to_string(ctx.seed) +
         ", \"seconds\": " + JsonNumber(ctx.seconds) +
         ", \"trace\": " + (ctx.traced ? "1" : "0") + "}";
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool samples) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  RunContext ctx;
  ctx.nproc = Nproc();
  std::string commit = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--tiny") {
      ctx.tiny = true;
    } else if (arg == "--corrupt-reference") {
      ctx.corrupt_reference = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      ctx.workload = v;
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      ctx.seconds = std::atof(v);
    } else if (arg == "--trace") {
      ctx.traced = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || ctx.traced;
    } else if (arg == "--out-dir") {
      ctx.out_dir = v;
    } else if (arg == "--commit") {
      commit = v;
    } else if (arg == "--accuracy-only-seed") {
      ctx.accuracy_only_seed = std::strtoull(v, nullptr, 10);
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_trace || ctx.seconds <= 0 || ctx.out_dir.empty()) {
    return Usage("--trace, --seconds and --out-dir are required");
  }
  std::filesystem::create_directories(ctx.out_dir);

  if (ctx.workload == "corpus_batch") {
    RunCorpusBatch(ctx);
  } else if (ctx.workload == "giant_doc") {
    RunGiantDoc(ctx);
  } else if (ctx.workload == "serve_open_loop") {
    RunServeOpenLoop(ctx);
  } else {
    return Usage(("unknown workload '" + ctx.workload + "'").c_str());
  }

  if (ctx.accuracy_only_seed != 0) {
    std::printf("%s\n", MetricsJson(ctx.report.info, true).c_str());
    return 0;
  }

  // Result metrics are exactly the mode's list; everything else the run
  // measured stays in the record as information.
  std::vector<Metric> result;
  std::vector<Metric> info = ctx.report.info;
  bool complete = true;
  auto pick = [&](const MetricSpec& spec) {
    for (const Metric& m : ctx.report.metrics) {
      if (m.name == spec.name) {
        if (m.unit != spec.unit) break;
        result.push_back(m);
        return;
      }
    }
    std::fprintf(stderr, "perfbench: metric %s [%s] was not measured\n",
                 spec.name, spec.unit);
    complete = false;
  };
  if (ctx.traced) {
    for (const MetricSpec& spec : kPerLayer) pick(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) pick(spec);
  }
  for (const Metric& m : ctx.report.metrics) {
    bool listed = false;
    for (const Metric& r : result) listed = listed || r.name == m.name;
    if (!listed) info.push_back(m);
  }
  if (!complete) return 2;

  if (ctx.traced) {
    const std::string path =
        ctx.out_dir + "/spans-" + ctx.workload + ".jsonl";
    ctx.gate.Attempt();
    ctx.gate.Check(WriteSpans(ctx.spans, path), "cannot write " + path);
  }

  const bool correct = ctx.gate.failed() == 0;
  for (const Metric& m : result) {
    std::fprintf(stderr, "  %-42s %14.6g %-9s (n=%llu)\n", m.name.c_str(),
                 m.value, m.unit.c_str(),
                 static_cast<unsigned long long>(m.samples));
  }
  for (const Metric& m : info) {
    std::fprintf(stderr, "  (info) %-35s %14.6g %-9s (n=%llu)\n",
                 m.name.c_str(), m.value, m.unit.c_str(),
                 static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& reason : ctx.gate.reasons()) {
    std::fprintf(stderr, "  FAILED: %s\n", reason.c_str());
  }
  const double failed_share =
      ctx.gate.attempted() == 0
          ? 0.0
          : static_cast<double>(ctx.gate.failed()) / ctx.gate.attempted();
  const std::string record =
      "{\"record\": {\"environment\": " + EnvironmentJson(ctx, commit) +
      ", \"correct\": " + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(ctx.gate.attempted()) +
      ", \"failed\": " + std::to_string(ctx.gate.failed()) +
      ", \"failed_share\": " + JsonNumber(failed_share) +
      ", \"metrics\": " + MetricsJson(result, true) +
      ", \"info\": " + MetricsJson(info, true) + "}}";
  if (std::FILE* log = std::fopen((ctx.out_dir + "/results.jsonl").c_str(),
                                  "ab")) {
    std::fprintf(log, "%s\n", record.c_str());
    std::fclose(log);
  }
  std::printf("%s\n", record.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.gate.attempted()),
              static_cast<unsigned long long>(ctx.gate.failed()),
              MetricsJson(result, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
