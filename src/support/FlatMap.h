//===- FlatMap.h - Open-addressed integer-keyed map -------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FlatIdMap: an open-addressed uint64 -> V hash map with a single
/// contiguous slot array (docs/MEMORY.md). It replaces the
/// string/pointer-keyed `std::unordered_map` side tables on analysis hot
/// paths: keys are packed interned ids ((symbol << 32) | arity, global
/// decl ids, resource ids), so a probe is one multiply-shift hash and a
/// linear scan of adjacent slots — no per-node heap allocation, no
/// string hashing, no pointer-chasing across buckets.
///
/// Keys are caller-packed uint64s; the all-ones key (~0) is reserved as
/// the empty sentinel. Values must be trivially copyable. Entries are
/// never removed one at a time (only clear() empties a table), so probing
/// needs no tombstones.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_FLATMAP_H
#define GATOR_SUPPORT_FLATMAP_H

#include "support/Hash.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace gator {
namespace support {

template <typename V> class FlatIdMap {
  static_assert(std::is_trivially_copyable_v<V>,
                "FlatIdMap values are relocated by memcpy on rehash");

public:
  static constexpr uint64_t EmptyKey = ~uint64_t(0);

  FlatIdMap() = default;

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  void clear() {
    Slots.clear();
    Count = 0;
  }

  /// Inserts or overwrites \p Key -> \p Value.
  void set(uint64_t Key, const V &Value) {
    assert(Key != EmptyKey && "the all-ones key is the empty sentinel");
    if ((Count + 1) * 4 > Slots.size() * 3) // load factor 3/4
      rehash(Slots.empty() ? 16 : Slots.size() * 2);
    Slot &S = findSlot(Key);
    if (S.Key == EmptyKey) {
      S.Key = Key;
      ++Count;
    }
    S.Value = Value;
  }

  /// Returns the value for \p Key, or null if absent. The pointer is
  /// invalidated by the next set().
  const V *get(uint64_t Key) const {
    if (Slots.empty())
      return nullptr;
    const Slot &S = const_cast<FlatIdMap *>(this)->findSlot(Key);
    return S.Key == Key ? &S.Value : nullptr;
  }

  /// Returns the value slot for \p Key, inserting \p Default if absent.
  V &getOrInsert(uint64_t Key, const V &Default) {
    assert(Key != EmptyKey && "the all-ones key is the empty sentinel");
    if ((Count + 1) * 4 > Slots.size() * 3)
      rehash(Slots.empty() ? 16 : Slots.size() * 2);
    Slot &S = findSlot(Key);
    if (S.Key == EmptyKey) {
      S.Key = Key;
      S.Value = Default;
      ++Count;
    }
    return S.Value;
  }

  bool contains(uint64_t Key) const { return get(Key) != nullptr; }

  void reserve(size_t N) {
    size_t Want = 16;
    while (Want * 3 < N * 4) // invert the 3/4 load factor
      Want *= 2;
    if (Want > Slots.size())
      rehash(Want);
  }

private:
  struct Slot {
    uint64_t Key = EmptyKey;
    V Value{};
  };

  Slot &findSlot(uint64_t Key) {
    // Fibonacci multiply-shift spreads packed ids (which share low-bit
    // structure) across the table; table size is a power of two.
    size_t Mask = Slots.size() - 1;
    size_t I = fibonacciSlot(Key, Mask);
    while (Slots[I].Key != Key && Slots[I].Key != EmptyKey)
      I = (I + 1) & Mask;
    return Slots[I];
  }

  void rehash(size_t NewSize) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewSize, Slot{});
    for (const Slot &S : Old) {
      if (S.Key == EmptyKey)
        continue;
      size_t Mask = Slots.size() - 1;
      size_t I = fibonacciSlot(S.Key, Mask);
      while (Slots[I].Key != EmptyKey)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

/// Packs (interned symbol, small ordinal) into a FlatIdMap key — the
/// method-lookup shape: (name symbol, arity).
inline uint64_t packSymbolKey(uint32_t SymbolIndex, uint32_t Ordinal) {
  return (uint64_t(SymbolIndex) << 32) | Ordinal;
}

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_FLATMAP_H
