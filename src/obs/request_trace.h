#ifndef XSDF_OBS_REQUEST_TRACE_H_
#define XSDF_OBS_REQUEST_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace xsdf::obs {

/// The span tree of one HTTP request: a request id plus the stages it
/// passed through (read -> admission -> queue wait -> parse (fused
/// with the tree build) -> disambiguate -> serialize -> send), each
/// recorded as [start, start+dur) in absolute MonotonicNowNs() time.
///
/// Unlike TraceSession (process-wide, per-thread buffers, exported
/// while quiescent), a RequestTrace belongs to exactly one in-flight
/// request. The connection thread and the engine worker both append to
/// it, but never concurrently: the request's phases are sequential and
/// every hand-off (enqueue, batch-completion condvar) synchronizes, so
/// no lock is needed on the record path.
class RequestTrace {
 public:
  struct Span {
    const char* name;  ///< static-storage stage name
    uint64_t start_ns;
    uint64_t dur_ns;
  };

  RequestTrace(uint64_t request_id, uint64_t start_ns)
      : request_id_(request_id), start_ns_(start_ns) {
    spans_.reserve(8);
  }

  void Add(const char* name, uint64_t start_ns, uint64_t dur_ns) {
    spans_.push_back(Span{name, start_ns, dur_ns});
  }

  uint64_t request_id() const { return request_id_; }
  uint64_t start_ns() const { return start_ns_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Ranking key for tail sampling: set by the server once the
  /// response is on the wire (dispatch + send, excluding keep-alive
  /// idle time spent waiting for the request to arrive).
  void set_total_us(uint64_t total_us) { total_us_ = total_us; }
  uint64_t total_us() const { return total_us_; }

  /// The annotation `/debug/slow` shows next to the id — "POST
  /// /disambiguate -> 200" — so a trace is readable without the access
  /// log next to it.
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

 private:
  uint64_t request_id_;
  uint64_t start_ns_;
  uint64_t total_us_ = 0;
  std::string label_;
  std::vector<Span> spans_;
};

/// RAII span into a RequestTrace; a null trace is a true no-op (no
/// clock read) — the request path stays cost-free when the request
/// observability layer is off.
class RequestSpan {
 public:
  RequestSpan(RequestTrace* trace, const char* name)
      : trace_(trace), name_(name) {
    if (trace_ != nullptr) start_ns_ = MonotonicNowNs();
  }
  ~RequestSpan() {
    if (trace_ != nullptr) {
      trace_->Add(name_, start_ns_, MonotonicNowNs() - start_ns_);
    }
  }
  RequestSpan(const RequestSpan&) = delete;
  RequestSpan& operator=(const RequestSpan&) = delete;

 private:
  RequestTrace* trace_;
  const char* name_;
  uint64_t start_ns_ = 0;
};

/// Tail-based sampling: retains the `keep` slowest completed request
/// traces of the current window (default 60 s). Offer() is called for
/// every finished request; only requests slow enough to displace the
/// current minimum pay for a heap update, so sustained fast traffic
/// costs one mutex acquisition and one comparison per request. When the
/// window rolls over, the previous window's winners are kept as the
/// "last full window" snapshot so `GET /debug/slow` is never empty
/// right after a rollover.
class SlowRequestBuffer {
 public:
  explicit SlowRequestBuffer(size_t keep = 8,
                             uint64_t window_ns = 60ull * 1000000000ull)
      : keep_(keep == 0 ? 1 : keep),
        window_ns_(window_ns == 0 ? 1 : window_ns) {}

  void Offer(std::unique_ptr<RequestTrace> trace, uint64_t now_ns);

  /// Retained traces (current window + last full window), slowest
  /// first, rendered as Chrome trace-event JSON: one tid per request,
  /// thread_name metadata carrying the request id and label, span
  /// timestamps rebased to the window start. Loadable in Perfetto.
  std::string ToChromeTraceJson() const;

  size_t retained() const;

 private:
  /// Sorted slowest-first; size <= keep_.
  using Window = std::vector<std::unique_ptr<RequestTrace>>;
  void InsertLocked(Window* window, std::unique_ptr<RequestTrace> trace);

  const size_t keep_;
  const uint64_t window_ns_;
  mutable std::mutex mu_;
  uint64_t window_start_ns_ = 0;
  bool window_started_ = false;
  Window current_;
  Window previous_;
};

}  // namespace xsdf::obs

#endif  // XSDF_OBS_REQUEST_TRACE_H_
