#ifndef LDLOPT_NET_STATS_SERVER_H_
#define LDLOPT_NET_STATS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "base/status.h"
#include "obs/feedback.h"
#include "obs/metrics.h"
#include "obs/process_metrics.h"
#include "obs/query_log.h"
#include "obs/timeseries.h"
#include "storage/statistics.h"

namespace ldl {

/// What the stats endpoints can see. All pointers are optional and
/// non-owning; they must outlive the server (Stop before tearing them
/// down).
struct StatsServerOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back with
  /// port()). The listener binds 127.0.0.1 only — this is an operator
  /// endpoint, not a public one.
  int port = 0;
  MetricsRegistry* metrics = nullptr;
  TimeSeriesSampler* sampler = nullptr;    ///< sparkline data for /statusz
  QueryLog* query_log = nullptr;           ///< tail shown on /statusz
  ProcessMetricsSource* process = nullptr; ///< uptime + build info
  size_t log_tail = 8;                     ///< query-log records on /statusz
  /// Feedback loop surfaces (/stats, plus the epoch/drift section of
  /// /statusz). `statistics` returns a consistent copy of the live
  /// statistics (epoch and per-predicate estimates) and is called on the
  /// server thread once per request, so it must be safe to call while the
  /// owner keeps querying — LdlSystem::StatisticsSnapshot is. May be empty.
  const StatisticsCatalog* feedback = nullptr;
  const DriftDetector* drift = nullptr;
  std::function<Statistics()> statistics;
  /// Invoked before rendering /metrics or /statusz (refresh process gauges,
  /// flush deferred exports...). May be empty.
  std::function<void()> refresh;
};

/// Minimal blocking HTTP/1.1 stats endpoint on a dedicated thread:
///
///   GET /metrics   Prometheus text exposition v0.0.4 of the registry
///   GET /healthz   "ok" (liveness)
///   GET /statusz   JSON: uptime, build info, time-series sparkline data,
///                  tail of the query log, request counts, stats epoch +
///                  drift counters when the feedback loop is attached
///   GET /stats     JSON: the feedback statistics catalog — per-predicate
///                  measured cardinality, live estimate and q-error,
///                  coverage gaps, and the drift-event history
///
/// Connections are handled one at a time on the accept thread (requests
/// are tiny and responses are built in memory, so a scrape is microseconds
/// of work; bounded handling beats an unbounded thread-per-connection for
/// an embedded operator port). Reads are capped (8 KiB, 2 s timeout) so a
/// stuck client cannot wedge the server. Stop() is graceful: it wakes the
/// accept loop via shutdown(2), joins the thread, then closes the socket.
///
/// This is deliberately the shape a future ldl_serve daemon can grow from:
/// the listener/accept/drain skeleton is query-agnostic, only the handlers
/// know about observability.
class StatsServer {
 public:
  explicit StatsServer(StatsServerOptions options)
      : options_(std::move(options)) {}
  ~StatsServer() { Stop(); }

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// Binds, listens, and spawns the accept thread. InvalidArgument on any
  /// socket error (port already bound, ...).
  Status Start();

  /// Graceful shutdown; idempotent, safe to call without Start.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// The bound port (the real one when options.port == 0); 0 before Start.
  int port() const { return port_; }

  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Handler core, exposed for tests: the response body + content type for
  /// a given path, or false for 404. (No sockets involved.)
  bool HandlePath(const std::string& path, std::string* body,
                  std::string* content_type);

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  std::string RenderMetrics();
  std::string RenderStatusz();
  std::string RenderStats();

  StatsServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<uint64_t> requests_{0};
  std::thread thread_;
};

}  // namespace ldl

#endif  // LDLOPT_NET_STATS_SERVER_H_
