#include "gpusim/shared_l2.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace spaden::sim {

SharedL2::SharedL2(std::uint64_t capacity_bytes, int ways, std::uint32_t sector_bytes,
                   std::uint64_t max_stripes)
    : sector_bytes_(sector_bytes) {
  SPADEN_REQUIRE(ways > 0, "shared L2 ways must be positive");
  SPADEN_REQUIRE(std::has_single_bit(sector_bytes), "sector size must be a power of two");
  SPADEN_REQUIRE(max_stripes > 0, "shared L2 needs at least one stripe");
  // Mirror SectorCache's rounding so stripes partition exactly the sets the
  // monolithic cache would have.
  const std::uint64_t lines =
      capacity_bytes / sector_bytes / static_cast<std::uint64_t>(ways);
  const std::uint64_t total_sets = std::bit_floor(lines == 0 ? 1 : lines);
  const std::uint64_t stripe_count =
      std::min({kMaxStripes, std::bit_floor(max_stripes), total_sets});
  stripe_mask_ = stripe_count - 1;
  stripe_shift_ = std::countr_zero(stripe_count);
  const std::uint64_t stripe_capacity = (total_sets / stripe_count) *
                                        static_cast<std::uint64_t>(ways) * sector_bytes;
  stripes_.reserve(stripe_count);
  for (std::uint64_t s = 0; s < stripe_count; ++s) {
    stripes_.emplace_back(stripe_capacity, ways, sector_bytes);
  }
}

void SharedL2::flush() {
  for (SectorCache& stripe : stripes_) {
    stripe.flush();
  }
}

void SharedL2::begin_epochs(int participants) {
  SPADEN_REQUIRE(participants >= 1, "shared L2 needs at least one participant");
  const auto n = static_cast<std::size_t>(participants);
  if (participants_ != participants) {
    participants_ = participants;
    parts_.clear();
    for (std::size_t p = 0; p < n; ++p) {
      parts_.push_back(std::make_unique<Participant>());
      parts_.back()->buckets.resize(n);
      parts_.back()->replay_hits.resize(n);
    }
    replayer_.resize(stripes_.size());
    for (std::size_t s = 0; s < stripes_.size(); ++s) {
      replayer_[s] = s % n;
    }
  }
  for (const auto& part : parts_) {
    for (auto& bucket : part->buckets) {
      bucket.clear();
    }
    std::fill(part->replay_hits.begin(), part->replay_hits.end(), 0);
    part->logged = 0;
    part->provisional_hits = 0;
  }
  finished_.store(0);
  all_finished_ = false;
  barrier_ = std::make_unique<std::barrier<PhaseDone>>(participants, PhaseDone{this});
}

void SharedL2::round(int p) {
  barrier_->arrive_and_wait();  // every participant's log of this epoch is final
  const auto me = static_cast<std::size_t>(p);
  Participant& part = *parts_[me];
  // The epoch's sets have mostly left the host cache since their live
  // probe, so prefetch a few entries ahead of the replay cursor.
  constexpr std::size_t kPrefetchAhead = 8;
  for (std::size_t q = 0; q < parts_.size(); ++q) {
    const std::vector<std::uint64_t>& log = parts_[q]->buckets[me];
    const std::size_t n = log.size();
    for (std::size_t i = 0; i < std::min(n, kPrefetchAhead); ++i) {
      prefetch_sector(log[i]);
    }
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchAhead < n) {
        prefetch_sector(log[i + kPrefetchAhead]);
      }
      const std::uint64_t sector = log[i];
      if (stripes_[sector & stripe_mask_].access_line(sector >> stripe_shift_)) {
        ++hits;
      }
    }
    part.replay_hits[q] += hits;
  }
  barrier_->arrive_and_wait();  // every replay has read this participant's log
  for (auto& bucket : part.buckets) {
    bucket.clear();
  }
  part.logged = 0;
}

void SharedL2::finish(int p) {
  // Counted before arriving, so the phase this participant's last epoch
  // closes already sees it; participants never finish between the two
  // barriers of a round, so every participant reads the same flag.
  finished_.fetch_add(1);
  do {
    round(p);
  } while (!all_finished_);
}

std::int64_t SharedL2::hit_correction(int p) const {
  const auto q = static_cast<std::size_t>(p);
  std::uint64_t replayed = 0;
  for (const auto& part : parts_) {
    replayed += part->replay_hits[q];
  }
  return static_cast<std::int64_t>(replayed) -
         static_cast<std::int64_t>(parts_[q]->provisional_hits);
}

std::uint64_t SharedL2::hits() const {
  std::uint64_t total = 0;
  for (const SectorCache& stripe : stripes_) {
    total += stripe.hits();
  }
  return total;
}

std::uint64_t SharedL2::misses() const {
  std::uint64_t total = 0;
  for (const SectorCache& stripe : stripes_) {
    total += stripe.misses();
  }
  return total;
}

}  // namespace spaden::sim
