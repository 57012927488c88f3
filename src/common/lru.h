// Sharded LRU cache template, the engine behind the Feature Cache and
// Prediction Cache in the Velox predictor (paper §5 "Caching": "caching
// the hot items on each machine using a simple cache eviction strategy
// like LRU will tend to have a high hit rate").
//
// Sharding bounds lock contention under concurrent serving threads;
// hit/miss/eviction counters are atomics readable without locks.
//
// Each shard is flat: one dense slot array holds every live entry's
// key, value, cached hash and uint32 prev/next recency links (a
// doubly-linked list threaded through the array, front = most recently
// used), and a linear-probing index maps a key's hash to its slot
// number. Each index cell keeps the top 32 bits of the hash beside the
// slot number, so walking a probe run reads only the index until a
// candidate matches. Deletion from the index shifts the rest of the
// probe run back (no tombstones), and erasing an entry moves the last
// slot into the hole, so the slot array never has gaps. A Get, Put or
// Erase touches one index run and one slot and, once the shard has
// grown to its capacity, allocates nothing: a hit relinks four
// indices, and a full shard reuses its least-recently-used slot in
// place. Slots and index grow as entries arrive (the index doubles at
// 50% load, up to the power of two at or above twice the shard
// capacity), so an idle cache allocates nothing beyond its shards.
#ifndef VELOX_COMMON_LRU_H_
#define VELOX_COMMON_LRU_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/logging.h"

namespace velox {

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t entries = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// Mixes a key's hash so that low-entropy hashes (e.g., identity for
// ints) spread. LruCache picks the shard from the low bits of the mixed
// value (modulo the shard count) and the key's home cell in the shard
// index from its top bits.
inline uint64_t LruMixHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  // `capacity` is the total entry budget split across shards. The
  // remainder is distributed one entry at a time (the first
  // capacity % num_shards shards hold one extra) so the shard budgets
  // sum to exactly `capacity` — rounding every shard up would let the
  // cache hold up to num_shards-1 entries over budget.
  explicit LruCache(size_t capacity, size_t num_shards = 8) {
    VELOX_CHECK_GT(capacity, 0u);
    if (num_shards == 0) num_shards = 1;
    if (num_shards > capacity) num_shards = capacity;
    size_t base = capacity / num_shards;
    size_t remainder = capacity % num_shards;
    // Keeps the index within 2^32 cells (see Shard::Home).
    VELOX_CHECK_LE(base + 1, size_t{1} << 31);
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(base + (i < remainder ? 1 : 0)));
    }
  }

  // Returns the cached value or nullopt; promotes on hit.
  std::optional<V> Get(const K& key) {
    const uint64_t hash = LruMixHash(Hash{}(key));
    Shard& shard = ShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint32_t s = shard.Find(key, hash);
    if (s == kNil) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    shard.MoveToFront(s);
    return shard.slots[s].value;
  }

  // Inserts or overwrites; evicts the shard's LRU entry when full.
  void Put(const K& key, V value) {
    const uint64_t hash = LruMixHash(Hash{}(key));
    Shard& shard = ShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.Insert(key, std::move(value), hash)) {
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Removes one key if present; returns whether it was present.
  bool Erase(const K& key) {
    const uint64_t hash = LruMixHash(Hash{}(key));
    Shard& shard = ShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.Remove(key, hash)) return false;
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Drops every entry (model-version swap invalidation path).
  void Clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      invalidations_.fetch_add(shard->slots.size(), std::memory_order_relaxed);
      shard->slots.clear();
      std::fill(shard->cells.begin(), shard->cells.end(), kEmpty);
      shard->head = shard->tail = kNil;
    }
  }

  // Snapshot of the most-recently-used keys, up to `limit` per shard.
  // Used to compute the warm set to precompute during offline retrain
  // (paper §4.2: the batch job recomputes "all predictions and feature
  // transformations that were cached at the time").
  std::vector<K> HotKeys(size_t limit_per_shard) const {
    std::vector<K> keys;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      size_t taken = 0;
      for (uint32_t s = shard->head; s != kNil && taken < limit_per_shard;
           s = shard->slots[s].next, ++taken) {
        keys.push_back(shard->slots[s].key);
      }
    }
    return keys;
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->slots.size();
    }
    return total;
  }

  CacheStats stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.invalidations = invalidations_.load(std::memory_order_relaxed);
    s.entries = size();
    return s;
  }

  void ResetStats() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    invalidations_.store(0, std::memory_order_relaxed);
  }

 private:
  // No slot: the ends of the recency list, and a miss.
  static constexpr uint32_t kNil = std::numeric_limits<uint32_t>::max();
  // An empty index cell (no live slot is numbered kNil).
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  // The hash bits an index cell keeps.
  static constexpr uint64_t kTagMask = ~uint64_t{0} << 32;
  static constexpr size_t kMinCells = 16;

  struct Slot {
    K key;
    V value;
    uint64_t hash;  // mixed hash of `key`
    uint32_t prev;  // toward the most recently used end
    uint32_t next;  // toward the least recently used end
  };

  struct Shard {
    explicit Shard(size_t cap) : capacity(cap), max_cells(std::bit_ceil(2 * cap)) {}

    mutable std::mutex mu;
    const size_t capacity;
    const size_t max_cells;
    std::vector<Slot> slots;      // every live entry, no gaps
    std::vector<uint64_t> cells;  // hash & kTagMask | slot; power-of-two size
    int shift = 0;                // home cell = hash >> shift
    uint32_t head = kNil;         // most recently used
    uint32_t tail = kNil;         // least recently used

    // Home cell of a hash, or of an index cell: with at most 2^32 cells
    // the shift is at least 32, so only the kept hash bits count.
    size_t Home(uint64_t hash) const { return static_cast<size_t>(hash >> shift); }
    static uint64_t Cell(uint64_t hash, uint32_t s) { return (hash & kTagMask) | s; }
    static uint32_t SlotOf(uint64_t cell) { return static_cast<uint32_t>(cell); }
    size_t Next(size_t cell) const { return (cell + 1) & (cells.size() - 1); }

    // The cell holding `key`, or the empty cell that ends its probe run.
    // Terminates because the index is never more than half full.
    size_t Probe(const K& key, uint64_t hash) const {
      const uint64_t tag = hash & kTagMask;
      size_t c = Home(hash);
      for (uint64_t cell = cells[c]; cell != kEmpty; cell = cells[c]) {
        if ((cell & kTagMask) == tag && slots[SlotOf(cell)].key == key) return c;
        c = Next(c);
      }
      return c;
    }

    // The slot holding `key`, or kNil (an empty cell's slot bits).
    uint32_t Find(const K& key, uint64_t hash) const {
      return cells.empty() ? kNil : SlotOf(cells[Probe(key, hash)]);
    }

    // The cell holding slot `s`, which must be live.
    size_t CellOf(uint32_t s) const {
      size_t c = Home(slots[s].hash);
      while (SlotOf(cells[c]) != s) c = Next(c);
      return c;
    }

    // Empties `hole` and shifts later members of its probe run back so
    // that every entry stays reachable from its home cell.
    void EraseCell(size_t hole) {
      const size_t mask = cells.size() - 1;
      for (size_t c = Next(hole); cells[c] != kEmpty; c = Next(c)) {
        // The entry at c may fill the hole iff the hole lies cyclically
        // within [home, c].
        const size_t home = Home(cells[c]);
        if (((c - home) & mask) >= ((c - hole) & mask)) {
          cells[hole] = cells[c];
          hole = c;
        }
      }
      cells[hole] = kEmpty;
    }

    // Doubles the index (or allocates its first kMinCells cells) and
    // reinserts every slot.
    void GrowIndex() {
      const size_t n = std::min(max_cells, std::max(kMinCells, 2 * cells.size()));
      cells.assign(n, kEmpty);
      shift = 64 - std::countr_zero(n);
      for (uint32_t s = 0; s < slots.size(); ++s) {
        size_t c = Home(slots[s].hash);
        while (cells[c] != kEmpty) c = Next(c);
        cells[c] = Cell(slots[s].hash, s);
      }
    }

    void Unlink(uint32_t s) {
      Slot& slot = slots[s];
      (slot.prev == kNil ? head : slots[slot.prev].next) = slot.next;
      (slot.next == kNil ? tail : slots[slot.next].prev) = slot.prev;
    }

    void PushFront(uint32_t s) {
      slots[s].prev = kNil;
      slots[s].next = head;
      (head == kNil ? tail : slots[head].prev) = s;
      head = s;
    }

    void MoveToFront(uint32_t s) {
      if (s == head) return;
      Unlink(s);
      PushFront(s);
    }

    // Inserts or overwrites `key` at the front; returns whether the
    // least-recently-used entry was evicted to make room.
    bool Insert(const K& key, V value, uint64_t hash) {
      if (cells.empty()) GrowIndex();
      size_t c = Probe(key, hash);
      if (cells[c] != kEmpty) {
        const uint32_t hit = SlotOf(cells[c]);
        slots[hit].value = std::move(value);
        MoveToFront(hit);
        return false;
      }
      uint32_t s;
      bool evicted = false;
      if (slots.size() >= capacity) {
        // Reuse the LRU slot in place; its old value is released here.
        s = tail;
        EraseCell(CellOf(s));
        Unlink(s);
        slots[s].key = key;
        slots[s].value = std::move(value);
        slots[s].hash = hash;
        evicted = true;
        c = Probe(key, hash);
      } else {
        if (2 * (slots.size() + 1) > cells.size()) {
          GrowIndex();
          c = Probe(key, hash);
        }
        if (slots.size() == slots.capacity()) {
          slots.reserve(std::min(capacity, std::max(kMinCells, 2 * slots.size())));
        }
        s = static_cast<uint32_t>(slots.size());
        slots.push_back(Slot{key, std::move(value), hash, kNil, kNil});
      }
      cells[c] = Cell(hash, s);
      PushFront(s);
      return evicted;
    }

    // Removes `key` if present. The last slot moves into the freed one
    // so the slot array stays dense; the erased value is released.
    bool Remove(const K& key, uint64_t hash) {
      if (cells.empty()) return false;
      const size_t c = Probe(key, hash);
      if (cells[c] == kEmpty) return false;
      const uint32_t s = SlotOf(cells[c]);
      EraseCell(c);
      Unlink(s);
      const auto last = static_cast<uint32_t>(slots.size() - 1);
      if (s != last) {
        cells[CellOf(last)] = Cell(slots[last].hash, s);
        slots[s] = std::move(slots[last]);
        const Slot& moved = slots[s];
        (moved.prev == kNil ? head : slots[moved.prev].next) = s;
        (moved.next == kNil ? tail : slots[moved.next].prev) = s;
      }
      slots.pop_back();
      return true;
    }
  };

  Shard& ShardFor(uint64_t hash) { return *shards_[hash % shards_.size()]; }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace velox

#endif  // VELOX_COMMON_LRU_H_
