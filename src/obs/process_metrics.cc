#include "obs/process_metrics.h"

#include <cstdio>
#include <cstring>
#include <ctime>

namespace ldl {

uint64_t ReadPeakRssBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    // "VmHWM:    123456 kB" — peak resident set size.
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      unsigned long long v = 0;
      if (std::sscanf(line + 6, "%llu", &v) == 1) kib = v;
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
#else
  return 0;
#endif
}

ProcessMetricsSource::ProcessMetricsSource(MetricsRegistry* registry)
    : registry_(registry), start_(std::chrono::steady_clock::now()) {
  if (registry_ != nullptr) {
    registry_->gauge("process.start_unix_seconds")
        ->Set(static_cast<double>(std::time(nullptr)));
  }
  Refresh();
}

double ProcessMetricsSource::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void ProcessMetricsSource::Refresh() {
  if (registry_ == nullptr) return;
  registry_->gauge("process.uptime_seconds")->Set(uptime_seconds());
  registry_->gauge("process.peak_rss_bytes")
      ->Set(static_cast<double>(ReadPeakRssBytes()));
}

}  // namespace ldl
