#include "service/result_cache.hpp"

#include <bit>

#include "support/rng.hpp"

namespace dsnd {

namespace {

std::uint64_t mix_double(std::uint64_t h, double value) {
  return mix_word(h, std::bit_cast<std::uint64_t>(value));
}

}  // namespace

std::uint64_t schedule_signature(const CarveSchedule& schedule) {
  std::uint64_t h = 0x7363686564756c65ULL;  // "schedule"
  for (const char c : schedule.name) {
    h = mix_word(h, static_cast<std::uint64_t>(c));
  }
  h = mix_word(h, schedule.betas.size());
  for (const double beta : schedule.betas) h = mix_double(h, beta);
  h = mix_word(h, static_cast<std::uint64_t>(schedule.phase_rounds));
  h = mix_double(h, schedule.radius_overflow_at);
  h = mix_word(h,
               static_cast<std::uint64_t>(schedule.max_retries_per_phase));
  h = mix_word(h, static_cast<std::uint64_t>(schedule.max_run_retries));
  h = mix_word(h, static_cast<std::uint64_t>(schedule.max_rollbacks));
  h = mix_double(h, schedule.k);
  h = mix_double(h, schedule.c);
  h = mix_double(h, schedule.bounds.strong_diameter);
  h = mix_double(h, schedule.bounds.colors);
  h = mix_double(h, schedule.bounds.rounds);
  h = mix_double(h, schedule.bounds.success_probability);
  return h;
}

std::size_t ResultCache::KeyHash::operator()(
    const ResultCacheKey& key) const {
  std::uint64_t h = mix_word(key.graph_fingerprint, key.schedule);
  h = mix_word(h, key.seed);
  h = mix_word(h, static_cast<std::uint64_t>(key.deliverable));
  h = mix_word(h, static_cast<std::uint64_t>(key.cover_radius));
  return static_cast<std::size_t>(h);
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const ServiceResult> ResultCache::find(
    const ResultCacheKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  return it->second->result;
}

void ResultCache::insert(const ResultCacheKey& key,
                         std::shared_ptr<const ServiceResult> result) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent submitters can race to fill the same miss; the results
    // are bit-identical by contract, so keeping either is correct.
    it->second->result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(result)});
  index_.emplace(key, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ResultCacheStats snapshot = stats_;
  snapshot.entries = lru_.size();
  return snapshot;
}

}  // namespace dsnd
