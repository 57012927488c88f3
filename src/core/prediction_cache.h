// Prediction Cache (paper Figure 2, §5): memoizes the final score for
// a (user, item) pair — "often useful for repeated calls to topK with
// overlapping itemsets".
//
// Where it is consulted: PredictionService::ScoreBatch probes it before
// resolving features for Predict, PredictBatch and greedy (policy-less)
// topK, because a hit there skips the feature resolve — the expensive
// step. A bandit-ranked topK needs every candidate's features for its
// uncertainty anyway, so a hit would save it one dot product for a
// probe and a fill; it neither probes nor fills, and scores directly.
// The score computation in ScoreBatch is the cache's only writer, so
// answers are the same either way. The retrain warm set (HotKeys, §4.2)
// therefore holds Predict and greedy-topK pairs only.
//
// Consistency: a cached score is only valid for the user-weight state
// and model version it was computed under. Rather than tracking and
// purging every (uid, *) entry when a user's weights change, the cache
// key embeds the user's epoch (bumped on every online update) and the
// model version (bumped on retrain/rollback); stale entries become
// unreachable and age out via LRU. This makes observe() O(1) with
// respect to the cache.
#ifndef VELOX_CORE_PREDICTION_CACHE_H_
#define VELOX_CORE_PREDICTION_CACHE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/lru.h"

namespace velox {

struct PredictionKey {
  uint64_t uid = 0;
  uint64_t item_id = 0;
  uint64_t user_epoch = 0;
  int32_t model_version = 0;

  bool operator==(const PredictionKey& other) const {
    return uid == other.uid && item_id == other.item_id &&
           user_epoch == other.user_epoch && model_version == other.model_version;
  }
};

struct PredictionKeyHash {
  size_t operator()(const PredictionKey& k) const {
    // 64-bit mix of the four fields.
    uint64_t h = k.uid * 0x9e3779b97f4a7c15ULL;
    h ^= k.item_id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= k.user_epoch + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(k.model_version)) +
         0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

class PredictionCache {
 public:
  explicit PredictionCache(size_t capacity, size_t num_shards = 8);

  std::optional<double> Get(const PredictionKey& key);
  void Put(const PredictionKey& key, double score);
  void Clear();

  // Most-recently-used keys: the (uid, item) warm set whose predictions
  // the batch retrain recomputes before the version swap (§4.2).
  std::vector<PredictionKey> HotKeys(size_t limit_per_shard = 64) const {
    return cache_.HotKeys(limit_per_shard);
  }

  CacheStats stats() const { return cache_.stats(); }
  void ResetStats() { cache_.ResetStats(); }
  size_t size() const { return cache_.size(); }

 private:
  LruCache<PredictionKey, double, PredictionKeyHash> cache_;
};

}  // namespace velox

#endif  // VELOX_CORE_PREDICTION_CACHE_H_
