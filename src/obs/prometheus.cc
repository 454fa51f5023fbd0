#include "obs/prometheus.h"

#include <cmath>
#include <sstream>

#include "base/json.h"

namespace ldl {

namespace {

/// Prometheus spells non-finite values Inf/-Inf/NaN (unlike JSON, they are
/// representable); finite ones get the JSON writer's shortest round trip.
std::string PromDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return json::FormatDouble(v);
}

void WriteHeader(std::ostream& os, const std::string& exposed,
                 std::string_view original, const char* type) {
  // The HELP line carries the registry-side name, so a scrape can be mapped
  // back to the names --metrics-json and the in-process API use.
  os << "# HELP " << exposed << " ldlopt metric " << original << "\n";
  os << "# TYPE " << exposed << " " << type << "\n";
}

}  // namespace

std::string PromMetricName(std::string_view name, std::string_view prefix) {
  std::string canonical = SanitizeMetricName(name);
  std::string out;
  out.reserve(prefix.size() + canonical.size());
  out.append(prefix);
  for (char c : canonical) out.push_back(c == '.' ? '_' : c);
  if (out.empty()) out = "_";
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string PromLabelEscape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void WritePrometheus(const MetricsRegistry& registry, std::ostream& os,
                     const PrometheusOptions& options) {
  if (options.build_info != nullptr) {
    const BuildInfo& b = *options.build_info;
    const std::string name = PromMetricName("build_info", options.prefix);
    os << "# HELP " << name << " Build metadata for this ldlopt binary.\n";
    os << "# TYPE " << name << " gauge\n";
    os << name << "{compiler=\"" << PromLabelEscape(b.compiler)
       << "\",standard=\"" << PromLabelEscape(b.standard)
       << "\",build_type=\"" << PromLabelEscape(b.build_type) << "\",git=\""
       << PromLabelEscape(b.git) << "\",sanitizer=\""
       << PromLabelEscape(b.sanitizer) << "\"} 1\n";
  }

  for (const auto& [name, value] : registry.CounterValues()) {
    const std::string exposed = PromMetricName(name, options.prefix);
    WriteHeader(os, exposed, name, "counter");
    os << exposed << " " << value << "\n";
  }

  for (const auto& [name, value] : registry.GaugeValues()) {
    const std::string exposed = PromMetricName(name, options.prefix);
    WriteHeader(os, exposed, name, "gauge");
    os << exposed << " " << PromDouble(value) << "\n";
  }

  for (const auto& [name, hist] : registry.HistogramEntries()) {
    const std::string exposed = PromMetricName(name, options.prefix);
    WriteHeader(os, exposed, name, "histogram");
    // Bucket b of the lock-free histogram holds v in [2^(b-1), 2^b) (b=0:
    // [0,1)), so the cumulative count through bucket b is the count of
    // values < 2^b — emitted as le="2^b". Only buckets up to the highest
    // non-empty one are written; +Inf always closes the family.
    size_t highest = 0;
    bool any = false;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (hist->bucket(b) != 0) {
        highest = b;
        any = true;
      }
    }
    uint64_t cumulative = 0;
    if (any) {
      for (size_t b = 0; b <= highest; ++b) {
        cumulative += hist->bucket(b);
        os << exposed << "_bucket{le=\"" << (1ull << b) << "\"} "
           << cumulative << "\n";
      }
    }
    os << exposed << "_bucket{le=\"+Inf\"} " << hist->count() << "\n";
    os << exposed << "_sum " << PromDouble(hist->sum()) << "\n";
    os << exposed << "_count " << hist->count() << "\n";
  }
}

std::string RenderPrometheus(const MetricsRegistry& registry,
                             const PrometheusOptions& options) {
  std::ostringstream os;
  WritePrometheus(registry, os, options);
  return os.str();
}

}  // namespace ldl
