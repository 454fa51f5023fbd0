#ifndef LDLOPT_OBS_RESOURCE_H_
#define LDLOPT_OBS_RESOURCE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "base/status.h"

namespace ldl {

/// Hard limits one accountant enforces. Zero means unlimited; budgets are
/// checked cooperatively at cancellation check-points, so a query can
/// overshoot by at most one check interval before it aborts.
struct ResourceBudget {
  uint64_t max_bytes = 0;            ///< peak derived-storage bytes
  uint64_t max_tuples_examined = 0;  ///< join/lookup work across the query
};

/// Caller-facing per-query limits (the knobs ldl_profile exposes). Zero
/// means unlimited. LdlSystem::Query translates these into a per-query
/// ResourceAccountant budget + CancellationToken deadline.
struct QueryLimits {
  uint64_t budget_bytes = 0;   ///< cap on peak derived-storage bytes
  uint64_t budget_tuples = 0;  ///< cap on tuples examined
  double deadline_ms = 0;      ///< wall-clock deadline from query start

  bool any() const {
    return budget_bytes != 0 || budget_tuples != 0 || deadline_ms > 0;
  }
};

/// Per-query (or per-session) resource meter: bytes held by derived tuple
/// storage (scratch relations, the NR-OPT memo), tuples
/// examined/derived, and fixpoint rounds.
///
/// Accountants form a hierarchy: every charge also rolls up into the parent
/// (a session- or server-level accountant), and a budget violation anywhere
/// on the ancestor chain cancels the query — the admission-control shape a
/// serving layer needs (one tenant's budget, the process's budget, or the
/// query's own budget can each be the binding constraint).
///
/// All mutators are relaxed atomics: a session-level parent may be charged
/// by queries running on several threads, each driving its own system, and
/// a caller may read the session's meters while they run. Totals are exact
/// under any interleaving — no charge is lost or double-counted. peak_bytes is maintained with a CAS loop and is
/// exact up to check-point granularity (the evaluator flushes locally
/// accumulated work at check-points). Configuration (set_budget, the parent
/// link) must be fixed before evaluation starts and not changed while a
/// query runs; readers may sample meters at any time.
class ResourceAccountant {
 public:
  explicit ResourceAccountant(ResourceAccountant* parent = nullptr)
      : parent_(parent) {}

  ResourceAccountant(const ResourceAccountant&) = delete;
  ResourceAccountant& operator=(const ResourceAccountant&) = delete;

  ResourceAccountant* parent() const { return parent_; }

  void set_budget(ResourceBudget budget) { budget_ = budget; }
  const ResourceBudget& budget() const { return budget_; }

  void AddBytes(uint64_t n) {
    if (n == 0) return;
    uint64_t now =
        current_bytes_.fetch_add(n, std::memory_order_relaxed) + n;
    uint64_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (now > peak && !peak_bytes_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
    if (parent_ != nullptr) parent_->AddBytes(n);
  }

  void ReleaseBytes(uint64_t n) {
    if (n == 0) return;
    // Saturating: estimates can drift (a relation re-estimated smaller than
    // it charged); never wrap below zero.
    uint64_t cur = current_bytes_.load(std::memory_order_relaxed);
    while (!current_bytes_.compare_exchange_weak(
        cur, cur >= n ? cur - n : 0, std::memory_order_relaxed)) {
    }
    if (parent_ != nullptr) parent_->ReleaseBytes(n);
  }

  void AddTuplesExamined(uint64_t n) {
    tuples_examined_.fetch_add(n, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->AddTuplesExamined(n);
  }
  /// Head tuples new to their predicate's relation (the engine's
  /// EvalCounters::inserts); re-derivations of existing rows do not count.
  void AddTuplesDerived(uint64_t n) {
    tuples_derived_.fetch_add(n, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->AddTuplesDerived(n);
  }
  void AddFixpointRounds(uint64_t n) {
    fixpoint_rounds_.fetch_add(n, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->AddFixpointRounds(n);
  }

  uint64_t current_bytes() const {
    return current_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t tuples_examined() const {
    return tuples_examined_.load(std::memory_order_relaxed);
  }
  uint64_t tuples_derived() const {
    return tuples_derived_.load(std::memory_order_relaxed);
  }
  uint64_t fixpoint_rounds() const {
    return fixpoint_rounds_.load(std::memory_order_relaxed);
  }

  /// Zeroes every meter (budget and parent link are kept). Only valid
  /// between queries, when no charges are outstanding.
  void Reset() {
    current_bytes_.store(0, std::memory_order_relaxed);
    peak_bytes_.store(0, std::memory_order_relaxed);
    tuples_examined_.store(0, std::memory_order_relaxed);
    tuples_derived_.store(0, std::memory_order_relaxed);
    fixpoint_rounds_.store(0, std::memory_order_relaxed);
  }

  /// Non-OK iff this accountant or any ancestor is over one of its budget
  /// limits (kResourceExhausted naming which limit and which level).
  Status CheckBudget() const;

 private:
  ResourceAccountant* parent_ = nullptr;
  ResourceBudget budget_;
  std::atomic<uint64_t> current_bytes_{0};
  std::atomic<uint64_t> peak_bytes_{0};
  std::atomic<uint64_t> tuples_examined_{0};
  std::atomic<uint64_t> tuples_derived_{0};
  std::atomic<uint64_t> fixpoint_rounds_{0};
};

/// Cooperative cancellation handle threaded through the optimizer search,
/// the fixpoint loop and rule evaluation via TraceContext. Check() is
/// called at bounded intervals (per fixpoint round, per rule evaluation,
/// every kCheckIntervalTuples tuples inside a rule body join) and returns
/// the typed abort reason:
///
///   - kCancelled          RequestCancel() was called (or on a parent);
///   - kDeadlineExceeded   the wall-clock deadline passed;
///   - kResourceExhausted  the attached accountant chain is over budget.
///
/// Tokens chain like accountants: a per-query token can point at a session
/// token, so a server can cancel every in-flight query with one call.
///
/// Concurrency: Check() and RequestCancel() are safe from any number of
/// threads (the cancel flag and check counter are atomics; the accountant
/// chain is itself thread-safe). The deadline and accountant pointer are
/// configuration — set them before evaluation starts (LdlSystem does this
/// during query setup) and leave them fixed while the query polls. A cancel
/// requested from another thread (a serving thread, or a session token
/// shared by several queries) is observed by the evaluator within one
/// kCheckIntervalTuples interval.
class CancellationToken {
 public:
  /// Tuples examined between consecutive budget/deadline checks inside the
  /// innermost join loop — the bound on cancellation latency in units of
  /// work (tests assert real queries observe it).
  static constexpr uint64_t kCheckIntervalTuples = 1024;

  explicit CancellationToken(CancellationToken* parent = nullptr)
      : parent_(parent) {}

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Sets the deadline `budget` from now (steady clock).
  void set_deadline_after(std::chrono::duration<double, std::milli> budget) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    budget);
  }
  void clear_deadline() { deadline_.reset(); }
  bool has_deadline() const { return deadline_.has_value(); }

  void set_accountant(ResourceAccountant* accountant) {
    accountant_ = accountant;
  }
  ResourceAccountant* accountant() const { return accountant_; }

  /// The cooperative check-point. Ordering: explicit cancel beats deadline
  /// beats budget (the caller asked first). Checks this token, then every
  /// parent. Counts each call so tests can bound check cadence.
  Status Check();

  /// Check() calls performed against this token (not parents').
  uint64_t checks() const { return checks_.load(std::memory_order_relaxed); }

 private:
  CancellationToken* parent_ = nullptr;
  std::atomic<bool> cancelled_{false};
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  ResourceAccountant* accountant_ = nullptr;
  std::atomic<uint64_t> checks_{0};
};

}  // namespace ldl

#endif  // LDLOPT_OBS_RESOURCE_H_
