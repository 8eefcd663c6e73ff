// Seed-keyed result cache for the DecompositionService.
//
// A cache entry is one completed, validated service result, keyed by
// everything that determines it bit for bit: the graph's structural
// fingerprint, a signature hash over every CarveSchedule field, the
// carve seed, the deliverable, and the cover radius. There is no backend
// component: every request carves on the one CONGEST protocol (covers on
// a one-thread engine over G^{2W+1}). Because runs are pure
// functions of that tuple — the bit-identity contract the whole tree is
// built on — a hit can be served as a shared_ptr to the original result
// with no recarve and no copy.
//
// Thread-safe (one mutex; entries are immutable once inserted) with LRU
// eviction and hit/miss/eviction accounting, which the service surfaces
// in its stats and the --service-smoke JSON.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "decomposition/carve_schedule.hpp"

namespace dsnd {

struct ServiceResult;  // decomposition_service.hpp

/// Hash over every field of a CarveSchedule (name, betas, budgets,
/// bounds, ...): two schedules with the same signature run the same
/// carve. Doubles are hashed by bit pattern, so the signature is exact,
/// not approximate.
std::uint64_t schedule_signature(const CarveSchedule& schedule);

/// The full cache key (cover_radius is 0 for non-cover deliverables).
struct ResultCacheKey {
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t schedule = 0;  // schedule_signature()
  std::uint64_t seed = 0;
  std::int32_t deliverable = 0;
  std::int32_t cover_radius = 0;

  friend bool operator==(const ResultCacheKey&,
                         const ResultCacheKey&) = default;
};

struct ResultCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
};

class ResultCache {
 public:
  /// capacity = max retained entries; 0 disables the cache entirely
  /// (every find() is a miss, insert() is a no-op).
  explicit ResultCache(std::size_t capacity);

  /// Returns the cached result (promoting it to most-recently-used) or
  /// nullptr. Counts one hit or one miss.
  std::shared_ptr<const ServiceResult> find(const ResultCacheKey& key);

  /// Inserts (or refreshes) an entry, evicting the least-recently-used
  /// entry when over capacity. Callers only insert validated results —
  /// the cache never has to distinguish good entries from bad ones.
  void insert(const ResultCacheKey& key,
              std::shared_ptr<const ServiceResult> result);

  ResultCacheStats stats() const;

 private:
  struct KeyHash {
    std::size_t operator()(const ResultCacheKey& key) const;
  };
  struct Entry {
    ResultCacheKey key;
    std::shared_ptr<const ServiceResult> result;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  /// Most-recently-used at the front; the map points into the list.
  std::list<Entry> lru_;
  std::unordered_map<ResultCacheKey, std::list<Entry>::iterator, KeyHash>
      index_;
  ResultCacheStats stats_;
};

}  // namespace dsnd
