#ifndef LDLOPT_BASE_ID_TABLE_H_
#define LDLOPT_BASE_ID_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ldl {

/// An open-addressing set of 32-bit ids (linear probing, load at most one
/// half, doubling). It holds no keys: each use hashes and compares through
/// whatever its ids name (a relation's rows, a store's nodes), so nothing
/// is copied into it. The caller supplies the probed value's hash, a `same`
/// predicate accepting the id of an equal value, and `hash_of(id)` to
/// re-hash stored ids when the table doubles.
class IdTable {
 public:
  /// An unused slot (ids are below 2^32 - 1).
  static constexpr uint32_t kEmpty = ~uint32_t{0};

  /// The id held for the probed value, or kEmpty.
  template <typename Same>
  uint32_t Find(size_t hash, const Same& same) const {
    return slots_.empty() ? kEmpty : slots_[Probe(hash, same)];
  }

  /// Adds `id` unless an id that `same` accepts is there, and returns the
  /// id the table holds for the probed value.
  template <typename Same, typename HashOf>
  uint32_t FindOrAdd(size_t hash, const Same& same, const HashOf& hash_of,
                     uint32_t id) {
    size_t i = slots_.empty() ? 0 : Probe(hash, same);
    if (!slots_.empty() && slots_[i] != kEmpty) return slots_[i];
    // Keep the load factor at or below one half so probes stay short.
    if (2 * (count_ + 1) > slots_.size()) {
      std::vector<uint32_t> old = std::exchange(slots_, {});
      slots_.assign(std::max(kMinSlots, 2 * old.size()), kEmpty);
      for (uint32_t stored : old) {
        if (stored != kEmpty) slots_[Probe(hash_of(stored), Never)] = stored;
      }
      i = Probe(hash, Never);
    }
    slots_[i] = id;
    ++count_;
    return id;
  }

  /// Sizes an empty table for `n` ids: the slots adding them one by one
  /// would grow it to, allocated now, so adding them never doubles it.
  /// No-op when `n` is 0 or the table holds an id or has slots already.
  void Reserve(size_t n) {
    if (n == 0 || !slots_.empty()) return;
    slots_.assign(std::max(kMinSlots, std::bit_ceil(2 * n)), kEmpty);
  }

  /// Occupied slots.
  size_t count() const { return count_; }
  /// Allocated slots (0 or a power of two).
  size_t slot_count() const { return slots_.size(); }

 private:
  static constexpr size_t kMinSlots = 16;

  static bool Never(uint32_t) { return false; }

  // From `hash`'s home to the slot holding an id `same` accepts, or to the
  // empty slot ending the run. Callers' hashes may be cheap combines of
  // small values, so multiply to spread the low bits linear probing uses.
  template <typename Same>
  size_t Probe(size_t hash, const Same& same) const {
    const size_t mask = slots_.size() - 1;
    size_t i = (hash * 0x9e3779b97f4a7c15ULL >> 32) & mask;
    while (slots_[i] != kEmpty && !same(slots_[i])) i = (i + 1) & mask;
    return i;
  }

  std::vector<uint32_t> slots_;  // an id or kEmpty
  size_t count_ = 0;
};

}  // namespace ldl

#endif  // LDLOPT_BASE_ID_TABLE_H_
