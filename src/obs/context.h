#ifndef LDLOPT_OBS_CONTEXT_H_
#define LDLOPT_OBS_CONTEXT_H_

#include <cstddef>
#include <string_view>

#include "base/status.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace ldl {

class SearchTracer;  // obs/search_trace.h

/// The observability handle threaded through the optimizer and the engine.
/// All pointers are optional and non-owning; a default-constructed context
/// is inert and costs one branch per instrumentation site, so it can be
/// carried through hot paths unconditionally.
struct TraceContext {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Search introspection (obs/search_trace.h): candidate orders, memo
  /// lattice, per-clique method races. Consulted only by the optimizer;
  /// sites must check both non-null and enabled() before building labels.
  SearchTracer* search = nullptr;
  /// Per-query resource meter; Relation/Database storage and the NR-OPT
  /// memo charge bytes here when attached (obs/resource.h).
  ResourceAccountant* accountant = nullptr;
  /// Cooperative cancel/deadline/budget handle; the engine and optimizer
  /// call CheckCancel() at bounded intervals.
  CancellationToken* cancel = nullptr;

  bool active() const { return tracer != nullptr || metrics != nullptr; }

  /// Cooperative check-point: typed abort Status when the query was
  /// cancelled, its deadline passed, or an attached budget tripped. The
  /// disabled path (no token) is one branch.
  Status CheckCancel() const {
    if (cancel == nullptr) return Status::OK();
    return cancel->Check();
  }

  /// Starts a span against the tracer (inert when absent/disabled).
  Span StartSpan(std::string_view name,
                 std::string_view category = "ldl") const {
    return Span(tracer, name, category);
  }

  /// Bumps a named counter (no-op without a registry). Coarse-grained
  /// sites only — hot loops should accumulate locally and export once.
  void Count(std::string_view name, uint64_t n = 1) const {
    if (metrics != nullptr) metrics->counter(name)->Increment(n);
  }

  /// Records a sample into a named histogram (no-op without a registry).
  void Observe(std::string_view name, double value) const {
    if (metrics != nullptr) metrics->histogram(name)->Record(value);
  }

  /// Sets a named gauge (no-op without a registry).
  void Set(std::string_view name, double value) const {
    if (metrics != nullptr) metrics->gauge(name)->Set(value);
  }
};

}  // namespace ldl

#endif  // LDLOPT_OBS_CONTEXT_H_
