#ifndef LDLOPT_OBS_PROCESS_METRICS_H_
#define LDLOPT_OBS_PROCESS_METRICS_H_

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace ldl {

/// Peak resident set size of this process in bytes (VmHWM from
/// /proc/self/status). 0 when the platform does not expose it.
uint64_t ReadPeakRssBytes();

/// Process-level built-in gauges, refreshed on demand (before a metrics
/// dump) rather than continuously:
///
///   process.uptime_seconds   wall seconds since this source was created
///                            (process start, for the tools that create it
///                            in main)
///   process.peak_rss_bytes   peak resident set size
///   process.start_unix_seconds
///                            wall-clock time the source was created
///
/// The gauges live in the supplied registry, so its dumps (`ldl_profile
/// --metrics`, `--metrics-json`) carry them. perfbench reads
/// ReadPeakRssBytes directly for its `peak_rss_mb` metric.
class ProcessMetricsSource {
 public:
  explicit ProcessMetricsSource(MetricsRegistry* registry);

  /// Re-reads uptime and peak RSS into the registry gauges.
  void Refresh();

  double uptime_seconds() const;

 private:
  MetricsRegistry* registry_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ldl

#endif  // LDLOPT_OBS_PROCESS_METRICS_H_
