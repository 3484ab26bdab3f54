// serve_open_loop: an in-process serve::Server on an ephemeral port,
// driven over keep-alive connections by a load generator in this
// process. One request in ten is POST /explain.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "eval/experiment.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "snapshot/snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = xsdf::serve;
using xsdf::wordnet::SemanticNetwork;

/// Open-loop arrival rate: about half the closed-loop saturation rate
/// measured on the commit that introduced this benchmark (4 hardware
/// threads). Fixed so every commit is measured at the same load.
constexpr double kOpenLoopRate = 48.0;
constexpr int kIoTimeoutMs = 10000;

/// A blocking keep-alive HTTP/1.1 client connection.
class Connection {
 public:
  Connection() = default;
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(int port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{kIoTimeoutMs / 1000, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    buffer_.clear();
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool open() const { return fd_ >= 0; }

  /// Writes `request` and reads one response. False on a transport
  /// error, after which the connection is closed.
  bool Call(const std::string& request, int* status, std::string* body) {
    if (!WriteAll(request) || !ReadResponse(status, body)) {
      Close();
      return false;
    }
    return true;
  }

 private:
  bool WriteAll(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Fill() {
    char chunk[16384];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  }

  bool ReadResponse(int* status, std::string* body) {
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    std::string head = buffer_.substr(0, head_end);
    for (char& c : head) c = static_cast<char>(std::tolower(c));
    if (head.compare(0, 9, "http/1.1 ") != 0) return false;
    *status = std::atoi(head.c_str() + 9);
    size_t length = 0;
    const size_t cl = head.find("\r\ncontent-length:");
    if (cl != std::string::npos) {
      length = std::strtoull(head.c_str() + cl + 17, nullptr, 10);
    }
    const bool close = head.find("\r\nconnection: close") != std::string::npos;
    const size_t body_start = head_end + 4;
    while (buffer_.size() < body_start + length) {
      if (!Fill()) return false;
    }
    body->assign(buffer_, body_start, length);
    buffer_.erase(0, body_start + length);
    if (close) Close();
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// One served document: the request body plus what a correct answer is.
struct ServedDoc {
  Doc doc;
  /// A node with a sense (the reference's first assignment), the
  /// /explain query target.
  std::string explain_query;
};

/// One planned request.
struct Planned {
  size_t doc = 0;
  bool explain = false;
  uint64_t id = 0;
  uint64_t due_ns = 0;  ///< offset from phase start (open loop only)
};

/// What one finished request measured.
struct Outcome {
  bool ok = false;
  bool refused = false;
  bool explain = false;
  uint64_t id = 0;
  uint64_t send_ns = 0;  ///< absolute
  uint64_t done_ns = 0;  ///< absolute
  uint64_t due_ns = 0;   ///< absolute; 0 in the closed loop
  size_t bytes = 0;
};

std::string BuildRequest(const Planned& p, const ServedDoc& served) {
  char head[512];
  const std::string target =
      p.explain ? "/explain?node=" + served.explain_query : "/disambiguate";
  std::snprintf(head, sizeof(head),
                "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                "X-Xsdf-Request-Id: %016llx\r\nX-Xsdf-Doc-Name: %s\r\n"
                "Content-Length: %zu\r\n\r\n",
                target.c_str(), static_cast<unsigned long long>(p.id),
                served.doc.name.c_str(), served.doc.xml.size());
  return head + served.doc.xml;
}

/// A started server and the thread running its accept loop.
class RunningServer {
 public:
  RunningServer(serve::ServeOptions options,
                std::shared_ptr<const SemanticNetwork> network,
                double* engine_ms, double* listen_ms) {
    const uint64_t t0 = NowNs();
    server_ = std::make_unique<serve::Server>(std::move(options));
    xsdf::Status installed =
        server_->InstallLexicon(std::move(network), "snapshot");
    if (!installed.ok()) Fatal("install lexicon: " + installed.ToString());
    const uint64_t t1 = NowNs();
    xsdf::Status started = server_->Start();
    if (!started.ok()) Fatal("server start: " + started.ToString());
    thread_ = std::thread([this] { server_->Run(); });
    Connection probe;
    int status = 0;
    std::string body;
    const std::string healthz =
        "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    while (!(probe.open() || probe.Open(server_->port())) ||
           !probe.Call(healthz, &status, &body) || status != 200) {
      if (SecondsSince(t1) > 10) Fatal("server never answered /healthz");
    }
    const uint64_t t2 = NowNs();
    if (engine_ms != nullptr) *engine_ms = (t1 - t0) * 1e-6;
    if (listen_ms != nullptr) *listen_ms = (t2 - t1) * 1e-6;
  }

  ~RunningServer() { Stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  int port() const { return server_->port(); }

  /// Drains and destroys the server (which flushes its access log).
  void Stop() {
    if (server_ == nullptr) return;
    server_->RequestShutdown();
    thread_.join();
    server_.reset();
  }

 private:
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

/// Runs `plan` over ctx.nproc keep-alive connections, one sender
/// thread each. Open loop (`open` true): each request waits for its due
/// time, whichever connection is free takes it, and a late sender is
/// late for every request behind it. Closed loop: back to back until
/// `stop_after_s` has passed. Every response is gated.
std::vector<Outcome> Drive(RunContext& ctx, int port,
                           const std::vector<ServedDoc>& docs,
                           const std::vector<Planned>& plan, bool open,
                           double stop_after_s,
                           std::vector<std::string>* explain_bodies,
                           std::mutex* gate_mu) {
  std::vector<Outcome> outcomes(plan.size());
  std::atomic<size_t> next{0};
  const uint64_t start = NowNs() + 2000000;  // 2 ms for the senders to start
  const uint64_t stop_ns = start + static_cast<uint64_t>(stop_after_s * 1e9);
  auto sender = [&]() {
    Connection conn;
    std::string body;
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= plan.size()) return;
      const Planned& p = plan[i];
      Outcome& o = outcomes[i];
      o.explain = p.explain;
      o.id = p.id;
      if (open) {
        o.due_ns = start + p.due_ns;
        while (NowNs() < o.due_ns) {
          const uint64_t left = o.due_ns - NowNs();
          if (left > 200000) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(left - 100000));
          }
        }
      } else if (NowNs() >= stop_ns) {
        next.store(plan.size());
        return;
      }
      const std::string request = BuildRequest(p, docs[p.doc]);
      o.bytes = docs[p.doc].doc.xml.size();
      o.send_ns = NowNs();
      int status = 0;
      bool transport = conn.open() || conn.Open(port);
      transport = transport && conn.Call(request, &status, &body);
      o.done_ns = NowNs();
      o.refused = transport && (status == 429 || status == 503);
      o.ok = transport && status == 200;
      std::lock_guard<std::mutex> lock(*gate_mu);
      const ServedDoc& served = docs[p.doc];
      if (!p.explain) {
        CheckOutput(ctx, served.doc, o.ok, body, "serve /disambiguate");
        continue;
      }
      ctx.gate.Attempt();
      if (!ctx.gate.Check(o.ok, "serve /explain: " + served.doc.name +
                                    " failed")) {
        continue;
      }
      std::string& expected = (*explain_bodies)[p.doc];
      if (expected.empty()) {
        ctx.gate.Check(body.size() > 2 && body[0] == '{' &&
                           body.find("\"explained\"") != std::string::npos,
                       "serve /explain: malformed audit for " +
                           served.doc.name);
        expected = body;
      } else {
        ctx.gate.Check(body == expected, "serve /explain: audit for " +
                                             served.doc.name +
                                             " changed between requests");
      }
    }
  };
  std::vector<std::thread> senders;
  for (int c = 0; c < ctx.nproc; ++c) senders.emplace_back(sender);
  for (std::thread& t : senders) t.join();
  // Closed loop: requests never taken are not outcomes.
  if (!open) {
    std::vector<Outcome> done;
    for (const Outcome& o : outcomes) {
      if (o.done_ns != 0) done.push_back(o);
    }
    return done;
  }
  return outcomes;
}

/// Request ids are unique per run: phase in the top byte, sequence
/// below, never zero (the server only echoes nonzero ids).
uint64_t RequestId(uint64_t phase, uint64_t seq) {
  return (phase << 56) | (seq + 1);
}

std::vector<Planned> PlanClosedLoop(size_t count, size_t docs,
                                    uint64_t seed, uint64_t phase) {
  std::vector<Planned> plan(count);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t r = Mix(seed, i);
    plan[i].doc = static_cast<size_t>(r % docs);
    plan[i].explain = (r >> 32) % 10 == 0;
    plan[i].id = RequestId(phase, i);
  }
  return plan;
}

/// Poisson arrivals at kOpenLoopRate for `seconds`, precomputed from
/// the seed.
std::vector<Planned> PlanOpenLoop(double seconds, size_t docs, uint64_t seed,
                                  uint64_t phase) {
  std::vector<Planned> plan;
  double t = 0.0;
  for (uint64_t i = 0;; ++i) {
    const uint64_t r = Mix(seed, i);
    const double u =
        (static_cast<double>(r >> 11) + 0.5) / 9007199254740992.0;  // 2^53
    t += -std::log(u) / kOpenLoopRate;
    if (t >= seconds) break;
    Planned p;
    const uint64_t r2 = Mix(seed ^ 0x5bd1e995u, i);
    p.doc = static_cast<size_t>(r2 % docs);
    p.explain = (r2 >> 32) % 10 == 0;
    p.id = RequestId(phase, i);
    p.due_ns = static_cast<uint64_t>(t * 1e9);
    plan.push_back(p);
  }
  return plan;
}

/// Closed-loop throughput over `seconds`: requests/s and request MB/s.
struct ClosedLoop {
  double rps = 0.0;
  double mb_per_s = 0.0;
  double wall_s = 0.0;
  std::vector<Outcome> outcomes;
};
ClosedLoop RunClosedLoop(RunContext& ctx, int port,
                         const std::vector<ServedDoc>& docs, double seconds,
                         uint64_t phase, std::vector<std::string>* explains,
                         std::mutex* gate_mu) {
  // Generously sized; the senders stop at the deadline.
  const size_t cap = static_cast<size_t>(seconds * 20000) + 64;
  std::vector<Planned> plan =
      PlanClosedLoop(cap, docs.size(), Mix(ctx.seed, phase), phase);
  ClosedLoop out;
  out.outcomes =
      Drive(ctx, port, docs, plan, false, seconds, explains, gate_mu);
  uint64_t first = UINT64_MAX, last = 0;
  double bytes = 0;
  for (const Outcome& o : out.outcomes) {
    first = std::min(first, o.send_ns);
    last = std::max(last, o.done_ns);
    bytes += static_cast<double>(o.bytes);
  }
  out.wall_s = last > first ? (last - first) * 1e-9 : 1e-9;
  out.rps = static_cast<double>(out.outcomes.size()) / out.wall_s;
  out.mb_per_s = bytes / 1e6 / out.wall_s;
  return out;
}

/// One access-log line's engine attribution.
struct LogLine {
  uint64_t total_us = 0;
  uint64_t queue_us = 0;
  uint64_t engine_us = 0;
};

uint64_t JsonUint(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  size_t pos = at + needle.size();
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '"')) ++pos;
  return std::strtoull(line.c_str() + pos, nullptr, 10);
}

std::unordered_map<uint64_t, LogLine> ReadAccessLog(const std::string& path) {
  std::unordered_map<uint64_t, LogLine> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::string needle = "\"id\":\"";
    const size_t at = line.find(needle);
    if (at == std::string::npos) continue;
    const uint64_t id =
        std::strtoull(line.c_str() + at + needle.size(), nullptr, 16);
    lines[id] = {JsonUint(line, "total_us"), JsonUint(line, "queue_us"),
                 JsonUint(line, "engine_us")};
  }
  return lines;
}

/// What `xsdf serve --snapshot` configures, with an ephemeral port.
serve::ServeOptions ServerOptions(int threads,
                                  xsdf::obs::MetricsRegistry* metrics,
                                  const std::string& access_log) {
  serve::ServeOptions options;
  options.port = 0;
  options.engine.threads = threads;
  options.metrics = metrics;
  options.access_log_path = access_log;
  return options;
}

/// One daemon set-up: snapshot load, server + engine, listen until
/// /healthz answers; the server is then shut down.
void SampleServeSetup(const RunContext& ctx, const std::string& snapshot,
                      SetupSamples* samples) {
  xsdf::obs::MetricsRegistry registry;
  const uint64_t t0 = NowNs();
  auto loaded = xsdf::snapshot::LoadNetworkSnapshot(snapshot);
  if (!loaded.ok()) Fatal("snapshot load: " + loaded.status().ToString());
  const uint64_t t1 = NowNs();
  double engine_ms = 0, listen_ms = 0;
  RunningServer server(ServerOptions(ctx.nproc, &registry, ""),
                       std::move(loaded).value(), &engine_ms, &listen_ms);
  samples->total_s.push_back(SecondsSince(t0));
  samples->lexicon_ms.push_back((t1 - t0) * 1e-6);
  samples->engine_ms.push_back(engine_ms);
  samples->listen_ms.push_back(listen_ms);
}

}  // namespace

void RunServeOpenLoop(RunContext& ctx) {
  std::unique_ptr<SemanticNetwork> built = BuildLexicon();
  const std::string snapshot_path = ctx.out_dir + "/lexicon.snap";
  xsdf::Status written =
      xsdf::snapshot::WriteNetworkSnapshotFile(*built, snapshot_path);
  if (!written.ok()) Fatal("snapshot: " + written.ToString());

  // Inputs: corpus documents from seeds derived from the workload seed.
  std::vector<ServedDoc> docs;
  {
    Reference reference(built.get());
    const int seeds = ctx.tiny ? 1 : 4;
    for (int s = 0; s < seeds; ++s) {
      auto corpus =
          xsdf::eval::BuildCorpus(*built, Mix(ctx.seed, 100 + s));
      if (!corpus.ok()) Fatal("BuildCorpus: " + corpus.status().ToString());
      for (const auto& cd : *corpus) {
        if (ctx.tiny && docs.size() >= 12) break;
        ServedDoc served;
        served.doc.name = cd.generated.name;
        served.doc.xml = cd.generated.xml;
        xsdf::core::SemanticTree tree;
        auto bytes = reference.Run(served.doc.xml, &tree);
        if (!bytes.ok()) Fatal("reference failed on " + served.doc.name);
        served.doc.digest = Digest(*bytes);
        if (tree.assignments.empty()) continue;  // nothing to explain
        xsdf::xml::NodeId first = tree.tree.size();
        for (const auto& entry : tree.assignments) {
          first = std::min(first, entry.first);
        }
        served.explain_query = std::to_string(first);
        docs.push_back(std::move(served));
      }
    }
  }
  built.reset();
  if (ctx.corrupt_reference) docs[0].doc.digest ^= 1;
  ctx.report.Info("input.documents", static_cast<double>(docs.size()),
                  "count", 1);

  // Set-up: snapshot load, engine construction, listen until /healthz
  // answers; medians over fresh servers, sampled at the start, after
  // the open loop and at the end.
  SetupSamples setup;
  auto sample_setup = [&] {
    for (int i = 0; i < 10; ++i) SampleServeSetup(ctx, snapshot_path, &setup);
  };
  sample_setup();
  auto network = xsdf::snapshot::LoadNetworkSnapshot(snapshot_path);
  if (!network.ok()) Fatal("snapshot load: " + network.status().ToString());
  std::shared_ptr<const SemanticNetwork> lexicon = std::move(network).value();

  std::mutex gate_mu;
  std::vector<std::string> explains(docs.size());
  const std::string access_log = ctx.out_dir + "/access.log";
  std::filesystem::remove(access_log);
  xsdf::obs::MetricsRegistry registry;
  RunningServer server(
      ServerOptions(ctx.nproc, &registry, ctx.traced ? access_log : ""),
      lexicon, nullptr, nullptr);

  // Warm-up: every document once, since the daemon is resident and its
  // caches are warm; peak_rss_mb is read after it.
  {
    std::vector<Planned> warm;
    for (size_t d = 0; d < docs.size(); ++d) {
      warm.push_back({d, false, RequestId(1, d), 0});
    }
    Drive(ctx, server.port(), docs, warm, false, 1e9, &explains, &gate_mu);
  }
  ctx.report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);

  // Open loop at a fixed rate, timed from each request's due time.
  const double open_s = ctx.seconds * (ctx.traced ? 0.35 : 0.45);
  std::vector<Planned> plan =
      PlanOpenLoop(open_s, docs.size(), Mix(ctx.seed, 2), 2);
  std::vector<Outcome> open =
      Drive(ctx, server.port(), docs, plan, true, 0, &explains, &gate_mu);
  std::vector<double> latency_ms, lateness_ms;
  ServeTotals st;
  for (const Outcome& o : open) {
    // A failed or refused request misses any latency limit: it counts
    // as the whole phase.
    latency_ms.push_back(o.ok ? (o.done_ns - o.due_ns) * 1e-6 : open_s * 1e3);
    lateness_ms.push_back((o.send_ns - o.due_ns) * 1e-6);
    st.round_trip_us.push_back((o.done_ns - o.send_ns) * 1e-3);
    if (o.explain) st.explain_us.push_back((o.done_ns - o.send_ns) * 1e-3);
    if (o.refused) ++st.refused;
  }
  st.lateness_ms = lateness_ms;
  ctx.report.Add("latency_p50_ms", Quantile(latency_ms, 0.5), "ms",
                 latency_ms.size());
  ctx.report.Info("latency_p99_ms", Quantile(latency_ms, 0.99), "ms",
                  latency_ms.size());
  ctx.report.Info("latency.samples_beyond_p99",
                  std::floor(0.01 * latency_ms.size()), "count", 1);
  ctx.report.Info("open_loop.rate", kOpenLoopRate, "req/s", 1);
  sample_setup();

  // Closed-loop saturation: nproc connections back to back.
  if (!ctx.traced) {
    ClosedLoop sat = RunClosedLoop(ctx, server.port(), docs,
                                   ctx.seconds * 0.3, 3, &explains, &gate_mu);
    ctx.report.Add("docs_per_s", sat.rps, "docs/s", sat.outcomes.size());
    ctx.report.Add("input_mb_per_s", sat.mb_per_s, "MB/s",
                   sat.outcomes.size());
    server.Stop();
    xsdf::obs::MetricsRegistry registry_1w;
    RunningServer server_1w(ServerOptions(1, &registry_1w, ""), lexicon,
                            nullptr, nullptr);
    ClosedLoop sat_1w = RunClosedLoop(ctx, server_1w.port(), docs,
                                      ctx.seconds * 0.2, 4, &explains,
                                      &gate_mu);
    ctx.report.Add("docs_per_s_1w", sat_1w.rps, "docs/s",
                   sat_1w.outcomes.size());
    sample_setup();
    setup.Report(ctx);
    return;
  }

  // Traced: the access-logged server against a plain one, in
  // alternating closed-loop windows, gives the tracing overhead.
  xsdf::obs::MetricsRegistry plain_registry;
  RunningServer plain(ServerOptions(ctx.nproc, &plain_registry, ""),
                      lexicon, nullptr, nullptr);
  std::vector<double> plain_rps, logged_rps;
  std::vector<Outcome> logged_outcomes;
  double logged_wall = 0;
  for (int w = 0; w < 4; ++w) {
    ClosedLoop a = RunClosedLoop(ctx, plain.port(), docs, ctx.seconds * 0.04,
                                 10 + 2 * w, &explains, &gate_mu);
    ClosedLoop b = RunClosedLoop(ctx, server.port(), docs, ctx.seconds * 0.04,
                                 11 + 2 * w, &explains, &gate_mu);
    plain_rps.push_back(a.rps);
    logged_rps.push_back(b.rps);
    logged_wall += b.wall_s;
    logged_outcomes.insert(logged_outcomes.end(), b.outcomes.begin(),
                           b.outcomes.end());
  }
  plain.Stop();
  const double overhead_pct =
      (Median(plain_rps) / Median(logged_rps) - 1.0) * 100.0;
  xsdf::obs::MetricsRegistry registry_1w;
  RunningServer server_1w(ServerOptions(1, &registry_1w, ""), lexicon,
                          nullptr, nullptr);
  ClosedLoop sat_1w = RunClosedLoop(ctx, server_1w.port(), docs,
                                    ctx.seconds * 0.1, 20, &explains,
                                    &gate_mu);
  server_1w.Stop();

  // Engine counters the daemon publishes into its registry.
  {
    Connection conn;
    int status = 0;
    std::string body;
    conn.Open(server.port());
    conn.Call("GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n", &status,
              &body);
  }
  auto gauge = [&](const char* name) {
    return static_cast<double>(registry.GetGauge(name)->Value());
  };
  server.Stop();

  // Per-request attribution from the access log: the server's own
  // total splits into queue wait, engine run and the serve layer; the
  // rest of the round trip (client, kernel, transport) is unattributed.
  const std::unordered_map<uint64_t, LogLine> log = ReadAccessLog(access_log);
  SpanLog requests;
  requests.thread = 1000;
  RuntimeTotals rt;
  uint64_t engine_docs = 0;  // open-loop lines matched, then reused
  double engine_busy_us = 0;
  auto attribute = [&](const Outcome& o, bool open_phase) {
    auto it = log.find(o.id);
    if (it == log.end()) return;
    const LogLine& l = it->second;
    const uint64_t rtt = o.done_ns - o.send_ns;
    const uint64_t queue = l.queue_us * 1000;
    const uint64_t run = l.engine_us * 1000;
    const uint64_t total = std::min<uint64_t>(l.total_us * 1000, rtt);
    if (!o.explain) {
      ++engine_docs;
      engine_busy_us += static_cast<double>(l.engine_us);
      if (open_phase) {
        rt.queue_wait_us.push_back(static_cast<double>(l.queue_us));
        rt.run_us.push_back(static_cast<double>(l.engine_us));
        st.overhead_us.push_back((static_cast<double>(rtt) -
                                  static_cast<double>(queue + run)) *
                                 1e-3);
      }
    }
    if (!open_phase) return;
    const int64_t root = static_cast<int64_t>(requests.spans.size());
    requests.spans.push_back({o.id, "document", -1, o.send_ns, rtt, 1});
    const uint64_t inner = std::min(queue + run, total);
    requests.spans.push_back(
        {o.id, "serve", root, o.send_ns, total - inner, 1});
    if (!o.explain) {
      const uint64_t q = std::min(queue, inner);
      requests.spans.push_back({o.id, "runtime.queue_wait", root, o.send_ns,
                                q, 1});
      requests.spans.push_back(
          {o.id, "runtime.run", root, o.send_ns, inner - q, 1});
    }
  };
  for (const Outcome& o : open) attribute(o, true);
  const uint64_t open_engine_docs = engine_docs;
  engine_docs = 0;
  engine_busy_us = 0;
  for (const Outcome& o : logged_outcomes) attribute(o, false);
  ctx.gate.Attempt();
  ctx.gate.Check(open_engine_docs > 0, "access log matched no request");
  rt.worker_busy_share =
      engine_busy_us * 1e-6 / (std::max(logged_wall, 1e-9) * ctx.nproc);
  rt.scaling = Median(logged_rps) / sat_1w.rps;
  // Documents the logged server's engine ran: warm-up, open loop and
  // its closed-loop windows.
  double served_docs = static_cast<double>(docs.size());
  for (const auto* phase : {&open, &logged_outcomes}) {
    for (const Outcome& o : *phase) served_docs += (!o.explain && o.ok);
  }
  const double sim_lookups =
      gauge("cache.similarity.hits") + gauge("cache.similarity.misses");
  const double sense_lookups =
      gauge("cache.sense.hits") + gauge("cache.sense.misses");
  rt.sim_hit_ratio =
      sim_lookups > 0 ? gauge("cache.similarity.hits") / sim_lookups : 0;
  rt.sense_hit_ratio =
      sense_lookups > 0 ? gauge("cache.sense.hits") / sense_lookups : 0;
  rt.pair_lookups_per_doc = sim_lookups / served_docs;
  rt.subtree_parallel_share =
      gauge("engine.subtree_parallel_docs") / served_docs;
  rt.subtree_steals_per_doc = gauge("engine.subtree_steals") / served_docs;
  ReportRuntimeMetrics(ctx, rt);
  ReportServeMetrics(ctx, st);

  std::vector<SpanLog> request_logs;
  request_logs.push_back(std::move(requests));
  const Attribution per_request = Summarize(request_logs);
  ctx.gate.Attempt();
  ctx.gate.Check(per_request.adds_up,
                 "request attribution does not add up to the round trip");
  std::vector<Doc> plain_docs;
  for (const ServedDoc& served : docs) plain_docs.push_back(served.doc);
  RunComposition(ctx, *lexicon, plain_docs, false, ctx.seconds * 0.2,
                 &per_request);
  // RunComposition's overhead compares composition passes; for serve
  // the traced setup is the access-logged daemon.
  for (Metric& m : ctx.report.metrics) {
    if (m.name == "trace.overhead_pct") m.value = overhead_pct;
  }
  for (SpanLog& l : request_logs) ctx.spans.push_back(std::move(l));
  sample_setup();
  setup.Report(ctx);
}

}  // namespace perfbench
