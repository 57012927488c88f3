#include "common/lru.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <list>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/feature_cache.h"

// Counts every heap allocation in the process, so a test can assert
// that a stretch of cache operations allocated nothing.
static std::atomic<uint64_t> g_heap_allocations{0};

// All out of line, so the compiler never sees malloc() or free()
// paired with new or delete (gcc's -Wmismatched-new-delete fires on
// the inlined pair in optimized builds).
[[gnu::noinline]] void* operator new(size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace velox {
namespace {

TEST(LruCacheTest, PutGetRoundTrip) {
  LruCache<int, std::string> cache(10, 1);
  cache.Put(1, "one");
  auto v = cache.Get(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "one");
}

TEST(LruCacheTest, MissReturnsNullopt) {
  LruCache<int, int> cache(10, 1);
  EXPECT_FALSE(cache.Get(99).has_value());
}

TEST(LruCacheTest, OverwriteUpdatesValue) {
  LruCache<int, int> cache(10, 1);
  cache.Put(1, 100);
  cache.Put(1, 200);
  EXPECT_EQ(cache.Get(1).value(), 200);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(3, 1);
  cache.Put(1, 1);
  cache.Put(2, 2);
  cache.Put(3, 3);
  // Touch 1 so 2 becomes LRU.
  ASSERT_TRUE(cache.Get(1).has_value());
  cache.Put(4, 4);
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  EXPECT_TRUE(cache.Get(4).has_value());
}

TEST(LruCacheTest, CapacityNeverExceededSingleShard) {
  LruCache<int, int> cache(5, 1);
  for (int i = 0; i < 100; ++i) cache.Put(i, i);
  EXPECT_LE(cache.size(), 5u);
}

TEST(LruCacheTest, CapacityBoundHoldsAcrossShards) {
  LruCache<int, int> cache(64, 8);
  for (int i = 0; i < 10000; ++i) cache.Put(i, i);
  EXPECT_LE(cache.size(), 64u);
}

TEST(LruCacheTest, ShardBudgetsSumToExactCapacity) {
  // 10 entries over 4 shards splits 3+3+2+2: the remainder is
  // distributed, not rounded up per shard. The old ceil split would
  // let this cache hold 12 entries — pin the exact bound.
  LruCache<int, int> cache(10, 4);
  for (int i = 0; i < 10000; ++i) cache.Put(i, i);
  // Enough distinct keys to drive every shard to its budget, so the
  // steady-state size is exactly the requested capacity.
  EXPECT_EQ(cache.size(), 10u);
}

TEST(LruCacheTest, EraseRemovesEntry) {
  LruCache<int, int> cache(10, 2);
  cache.Put(1, 1);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Erase(1));
}

TEST(LruCacheTest, ClearEmptiesEverything) {
  LruCache<int, int> cache(100, 4);
  for (int i = 0; i < 50; ++i) cache.Put(i, i);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(cache.Get(i).has_value());
}

TEST(LruCacheTest, StatsCountHitsMissesEvictions) {
  LruCache<int, int> cache(2, 1);
  cache.Put(1, 1);
  cache.Put(2, 2);
  cache.Get(1);       // hit
  cache.Get(99);      // miss
  cache.Put(3, 3);    // evicts 2
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(LruCacheTest, HitRateZeroWhenUntouched) {
  LruCache<int, int> cache(2, 1);
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 0.0);
}

TEST(LruCacheTest, ResetStatsKeepsEntries) {
  LruCache<int, int> cache(4, 1);
  cache.Put(1, 1);
  cache.Get(1);
  cache.ResetStats();
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_TRUE(cache.Get(1).has_value());
}

TEST(LruCacheTest, HotKeysReturnsMostRecentFirst) {
  LruCache<int, int> cache(10, 1);
  cache.Put(1, 1);
  cache.Put(2, 2);
  cache.Put(3, 3);
  auto hot = cache.HotKeys(2);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0], 3);
  EXPECT_EQ(hot[1], 2);
}

TEST(LruCacheTest, ZipfWorkloadGetsHighHitRateWithSmallCache) {
  // The §5 claim in miniature: Zipf(1.2) over 10k items, cache of 500.
  LruCache<uint64_t, int> cache(500, 8);
  Rng rng(17);
  ZipfDistribution zipf(10000, 1.2);
  for (int i = 0; i < 50000; ++i) {
    uint64_t item = static_cast<uint64_t>(zipf.Sample(&rng));
    if (!cache.Get(item).has_value()) cache.Put(item, 1);
  }
  EXPECT_GT(cache.stats().HitRate(), 0.6);
}

// Reference-model property test: a single-shard LruCache must behave
// exactly like a textbook list-based LRU for any operation sequence.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  std::optional<int> Get(int key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        auto entry = *it;
        order_.erase(it);
        order_.push_front(entry);
        return entry.second;
      }
    }
    return std::nullopt;
  }

  // Returns whether the least-recently-used entry was evicted.
  bool Put(int key, int value) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        it->second = value;
        auto entry = *it;
        order_.erase(it);
        order_.push_front(entry);
        return false;
      }
    }
    bool evicted = order_.size() >= capacity_;
    if (evicted) order_.pop_back();
    order_.push_front({key, value});
    return evicted;
  }

  bool Erase(int key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        order_.erase(it);
        return true;
      }
    }
    return false;
  }

  // Returns how many entries were dropped.
  size_t Clear() {
    size_t dropped = order_.size();
    order_.clear();
    return dropped;
  }

  std::vector<int> HotKeys(size_t limit) const {
    std::vector<int> keys;
    for (const auto& [k, v] : order_) {
      if (keys.size() >= limit) break;
      keys.push_back(k);
    }
    return keys;
  }

  size_t size() const { return order_.size(); }

 private:
  size_t capacity_;
  std::list<std::pair<int, int>> order_;
};

TEST(LruCacheTest, MatchesReferenceModelOnRandomOperations) {
  const size_t capacity = 16;
  LruCache<int, int> cache(capacity, /*num_shards=*/1);
  ReferenceLru reference(capacity);
  Rng rng(2024);
  for (int step = 0; step < 50000; ++step) {
    int key = static_cast<int>(rng.UniformU64(48));  // 3x capacity keyspace
    switch (rng.UniformU64(3)) {
      case 0: {
        int value = static_cast<int>(rng.UniformU64(1000));
        cache.Put(key, value);
        reference.Put(key, value);
        break;
      }
      case 1: {
        auto got = cache.Get(key);
        auto expected = reference.Get(key);
        ASSERT_EQ(got.has_value(), expected.has_value()) << "step " << step;
        if (got.has_value()) {
          ASSERT_EQ(*got, *expected) << "step " << step;
        }
        break;
      }
      default:
        ASSERT_EQ(cache.Erase(key), reference.Erase(key)) << "step " << step;
    }
  }
}

TEST(LruCacheTest, ConcurrentMixedOperationsStayConsistent) {
  LruCache<int, int> cache(128, 8);
  const int threads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&cache, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < 20000; ++i) {
        int key = static_cast<int>(rng.UniformU64(256));
        switch (rng.UniformU64(3)) {
          case 0:
            cache.Put(key, key * 2);
            break;
          case 1: {
            auto v = cache.Get(key);
            if (v.has_value()) {
              EXPECT_EQ(*v, key * 2);
            }
            break;
          }
          default:
            cache.Erase(key);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(cache.size(), 128u);
}

// Drives an LruCache and one ReferenceLru per shard (keys routed
// exactly as the cache routes them, budgets split the same way) through
// random Put/Get/Erase/Clear, checking every answer, the recency order
// (HotKeys), the size and the counters.
template <typename Hash = std::hash<int>>
void CheckAgainstShardedReference(size_t capacity, size_t num_shards,
                                  uint64_t hot_keys, uint64_t keyspace,
                                  int steps, uint64_t seed) {
  LruCache<int, int, Hash> cache(capacity, num_shards);
  std::vector<ReferenceLru> shards;
  for (size_t i = 0; i < num_shards; ++i) {
    shards.emplace_back(capacity / num_shards + (i < capacity % num_shards ? 1 : 0));
  }
  auto shard_of = [&](int key) -> ReferenceLru& {
    return shards[LruMixHash(Hash{}(key)) % num_shards];
  };
  CacheStats expected;
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    // Half the keys from a hot range near the capacity, half from a
    // keyspace much larger than it.
    int key = static_cast<int>(rng.Bernoulli(0.5) ? rng.UniformU64(hot_keys)
                                                  : rng.UniformU64(keyspace));
    uint64_t op = rng.UniformU64(1000);
    if (op < 450) {
      int value = static_cast<int>(rng.UniformU64(1000));
      cache.Put(key, value);
      if (shard_of(key).Put(key, value)) ++expected.evictions;
    } else if (op < 900) {
      auto got = cache.Get(key);
      auto want = shard_of(key).Get(key);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (want.has_value()) {
        ASSERT_EQ(*got, *want) << "step " << step;
        ++expected.hits;
      } else {
        ++expected.misses;
      }
    } else if (op < 999) {
      bool erased = shard_of(key).Erase(key);
      ASSERT_EQ(cache.Erase(key), erased) << "step " << step;
      if (erased) ++expected.invalidations;
    } else {
      cache.Clear();
      for (auto& shard : shards) expected.invalidations += shard.Clear();
    }
    if (step % 97 == 0) {
      std::vector<int> want_hot;
      size_t want_size = 0;
      for (const auto& shard : shards) {
        for (int k : shard.HotKeys(capacity)) want_hot.push_back(k);
        want_size += shard.size();
      }
      ASSERT_EQ(cache.HotKeys(capacity), want_hot) << "step " << step;
      ASSERT_EQ(cache.size(), want_size) << "step " << step;
    }
  }
  CacheStats got = cache.stats();
  EXPECT_EQ(got.hits, expected.hits);
  EXPECT_EQ(got.misses, expected.misses);
  EXPECT_EQ(got.evictions, expected.evictions);
  EXPECT_EQ(got.invalidations, expected.invalidations);
}

TEST(LruCacheTest, MatchesShardedReferenceModelOnRandomOperations) {
  CheckAgainstShardedReference(/*capacity=*/100, /*num_shards=*/8,
                               /*hot_keys=*/150, /*keyspace=*/5000,
                               /*steps=*/200000, /*seed=*/11);
}

// A hash value whose mixed form has its top 16 bits set: its home is
// the last cell of any shard index of up to 2^16 cells.
uint64_t LastCellHashValue() {
  uint64_t h = 0;
  while ((LruMixHash(h) >> 48) != 0xffff) ++h;
  return h;
}

// Sends every key to the same home cell at the end of the index, so
// every probe run wraps around to cell 0 and backward-shift deletion
// moves entries back across the wrap.
struct LastCellHash {
  size_t operator()(int) const {
    static const uint64_t h = LastCellHashValue();
    return static_cast<size_t>(h);
  }
};

TEST(LruCacheTest, ProbeRunsWrapAroundTheEndOfTheIndex) {
  CheckAgainstShardedReference<LastCellHash>(/*capacity=*/24, /*num_shards=*/1,
                                             /*hot_keys=*/32, /*keyspace=*/64,
                                             /*steps=*/50000, /*seed=*/13);
  // Large enough that the colliding run outgrows several index sizes.
  CheckAgainstShardedReference<LastCellHash>(/*capacity=*/200, /*num_shards=*/1,
                                             /*hot_keys=*/250, /*keyspace=*/1000,
                                             /*steps=*/20000, /*seed=*/17);
}

TEST(LruCacheTest, CapacityOneShards) {
  LruCache<int, int> cache(1, 1);
  cache.Put(1, 10);
  cache.Put(1, 11);
  EXPECT_EQ(cache.Get(1).value(), 11);
  cache.Put(2, 20);
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.Get(2).value(), 20);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Erase(2));
  EXPECT_EQ(cache.size(), 0u);

  CheckAgainstShardedReference(/*capacity=*/1, /*num_shards=*/1, /*hot_keys=*/2,
                               /*keyspace=*/8, /*steps=*/20000, /*seed=*/19);
  CheckAgainstShardedReference(/*capacity=*/8, /*num_shards=*/8, /*hot_keys=*/12,
                               /*keyspace=*/64, /*steps=*/50000, /*seed=*/23);
}

TEST(LruCacheTest, GrowthAcrossIndexDoublingsKeepsExactLruOrder) {
  // One shard filling from empty to 4096 entries grows its index from
  // 16 to 8192 cells; every doubling rehashes the slots, which must not
  // disturb the recency order.
  const size_t capacity = 4096;
  LruCache<int, int> cache(capacity, 1);
  ReferenceLru reference(capacity);
  Rng rng(29);
  for (int key = 0; key < static_cast<int>(2 * capacity); ++key) {
    cache.Put(key, key);
    reference.Put(key, key);
    int touched = static_cast<int>(rng.UniformU64(static_cast<uint64_t>(key) + 1));
    ASSERT_EQ(cache.Get(touched), reference.Get(touched)) << "key " << key;
    if (std::has_single_bit(static_cast<uint64_t>(key) + 1) ||
        key + 1 == static_cast<int>(2 * capacity)) {
      ASSERT_EQ(cache.HotKeys(capacity), reference.HotKeys(capacity)) << "key " << key;
    }
  }
  EXPECT_EQ(cache.size(), capacity);
}

TEST(LruCacheTest, EvictedErasedAndClearedValuesAreReleased) {
  auto make = [] { return std::make_shared<const DenseVector>(4); };
  FeaturePtr a = make(), b = make(), c = make(), d = make();
  LruCache<uint64_t, FeaturePtr> cache(2, 1);

  cache.Put(1, a);
  cache.Put(1, b);  // overwrite releases a
  EXPECT_EQ(a.use_count(), 1);
  cache.Put(2, c);
  cache.Put(3, d);  // evicts 1 (holding b)
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_EQ(c.use_count(), 2);

  // Erasing the entry in the first slot moves the last slot into it.
  EXPECT_TRUE(cache.Erase(2));
  EXPECT_EQ(c.use_count(), 1);
  EXPECT_EQ(d.use_count(), 2);
  EXPECT_EQ(cache.Get(3).value(), d);

  cache.Put(4, a);
  cache.Clear();
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(d.use_count(), 1);
}

TEST(LruCacheTest, SteadyStateOperationsDoNotAllocate) {
  LruCache<uint64_t, FeaturePtr> cache(1024, 8);
  FeaturePtr value = std::make_shared<const DenseVector>(4);
  // Fill every shard to its budget: slots and index at full size.
  for (uint64_t key = 0; key < 4096; ++key) cache.Put(key, value);
  ASSERT_EQ(cache.size(), 1024u);

  Rng rng(31);
  size_t hits = 0;
  const uint64_t before = g_heap_allocations.load();
  for (int i = 0; i < 100000; ++i) {
    uint64_t key = rng.UniformU64(4096);
    switch (rng.UniformU64(4)) {
      case 0:
        cache.Erase(key);
        break;
      case 1:
        cache.Put(key, value);
        break;
      default:
        if (cache.Get(key).has_value()) ++hits;
    }
  }
  const uint64_t allocations = g_heap_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace velox
