#include "obs/timeseries.h"

#include "base/json.h"
#include "base/strings.h"

namespace ldl {

void TimeSeriesSampler::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread(&TimeSeriesSampler::Loop, this);
}

void TimeSeriesSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

bool TimeSeriesSampler::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void TimeSeriesSampler::Loop() {
  // Sample immediately so even a short-lived workload leaves a first point,
  // then on every period boundary until Stop.
  SampleOnce();
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, options_.period,
                 [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

void TimeSeriesSampler::Record(const std::string& name, double t,
                               double value) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(name, TimeSeriesRing(options_.capacity)).first;
  }
  it->second.Push(t, value);
}

void TimeSeriesSampler::SampleOnce() {
  // Read + push under one lock: concurrent SampleOnce calls (background
  // thread vs a scrape-triggered sample) must not interleave a stale
  // instrument reading after a newer one, or series lose time/monotone
  // order. The lock is sampler-local — query threads never touch it, and
  // the instrument reads inside are relaxed atomics — so the longer
  // critical section only serializes samplers against each other.
  std::lock_guard<std::mutex> lock(mu_);
  const double t = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  std::vector<std::pair<std::string, double>> samples;
  if (options_.metrics != nullptr) {
    for (const auto& [name, value] : options_.metrics->CounterValues()) {
      samples.emplace_back(name, static_cast<double>(value));
    }
    for (const auto& [name, value] : options_.metrics->GaugeValues()) {
      samples.emplace_back(name, value);
    }
    for (const auto& [name, hist] : options_.metrics->HistogramEntries()) {
      samples.emplace_back(StrCat(name, ".count"),
                           static_cast<double>(hist->count()));
      samples.emplace_back(StrCat(name, ".p50"), hist->percentile(0.50));
      samples.emplace_back(StrCat(name, ".p99"), hist->percentile(0.99));
    }
  }
  if (options_.accountant != nullptr) {
    const ResourceAccountant* a = options_.accountant;
    samples.emplace_back("resource.current_bytes",
                         static_cast<double>(a->current_bytes()));
    samples.emplace_back("resource.peak_bytes",
                         static_cast<double>(a->peak_bytes()));
    samples.emplace_back("resource.tuples_examined",
                         static_cast<double>(a->tuples_examined()));
    samples.emplace_back("resource.tuples_derived",
                         static_cast<double>(a->tuples_derived()));
  }

  for (const auto& [name, value] : samples) Record(name, t, value);
  ++samples_;
}

uint64_t TimeSeriesSampler::samples_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

std::map<std::string, std::vector<TimeSeriesPoint>>
TimeSeriesSampler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<TimeSeriesPoint>> out;
  for (const auto& [name, ring] : series_) out.emplace(name, ring.Snapshot());
  return out;
}

void TimeSeriesSampler::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"period_ms\":"
     << json::Number(static_cast<double>(options_.period.count()))
     << ",\"samples\":" << samples_ << ",\"series\":{";
  bool first = true;
  for (const auto& [name, ring] : series_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":{\"t\":[";
    const std::vector<TimeSeriesPoint> points = ring.Snapshot();
    for (size_t i = 0; i < points.size(); ++i) {
      if (i) os << ",";
      os << json::Number(points[i].t_seconds);
    }
    os << "],\"v\":[";
    for (size_t i = 0; i < points.size(); ++i) {
      if (i) os << ",";
      os << json::Number(points[i].value);
    }
    os << "]}";
  }
  os << "}}";
}

}  // namespace ldl
