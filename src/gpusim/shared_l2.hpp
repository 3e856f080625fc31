// Opt-in shared, set-sharded L2 model for the parallel launcher.
//
// The default parallel launcher gives each virtual SM a private L2 capacity
// slice (capacity/T). This class instead models the hardware's ONE L2
// shared by all SMs: the sector address space is striped over N = 2^k
// shards, each shard owning every N-th sector with its own SectorCache of
// capacity/N — the banked-L2 analogue of a striped hash map.
//
// Exactness: SectorCache's set index is the low bits of the sector number,
// so striping by sector modulo a power of two is a *partition of the
// monolithic cache's sets*. Every sector lands in the same set contents it
// would in one big cache, and LRU stamps are only ever compared within one
// set, so per-stripe clocks change nothing. A single-threaded pass through
// the sharded cache therefore classifies every access bit-for-bit like the
// monolithic SectorCache (tested).
//
// Several simulation threads share the cache in epochs, so the counters do
// not depend on the host's thread interleaving. Within an epoch each
// participant (virtual SM) reads the cache as it stood at the epoch's start
// — a provisional hit/miss that drives its latency model — and logs its
// probes. Once every participant has logged kEpochProbes probes (or
// finished), the logs are replayed into the cache in participant order, as
// if the SMs had taken turns one epoch apiece; the replay's hit/miss is the
// one the launch's L2/DRAM counters keep (hit_correction). The stripes are
// split among the participants so the replay runs in parallel: each stripe
// sees its accesses in one fixed order whoever replays it. Counters are
// therefore a function of the thread count alone (see
// docs/performance_model.md).
#pragma once

#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/cache.hpp"

namespace spaden::sim {

class SharedL2 {
 public:
  /// Stripes are capped at this count (or the total set count if smaller).
  static constexpr std::uint64_t kMaxStripes = 64;

  /// `max_stripes` (rounded down to a power of two, clamped to [1,
  /// kMaxStripes]) bounds the shard count. Striping exists purely so
  /// concurrent simulation threads replay disjoint shards; a device that runs
  /// one simulation thread should pass 1: classification is identical at any
  /// stripe count (see above), but a single stripe keeps the tag/stamp
  /// arrays in one contiguous allocation, which the host hardware
  /// prefetcher and TLB handle several times faster than 64 scattered ones
  /// (~2.4x per probe on DRAM-resident tag arrays). The count is fixed for
  /// the cache's lifetime — warmed state never migrates between layouts.
  SharedL2(std::uint64_t capacity_bytes, int ways, std::uint32_t sector_bytes,
           std::uint64_t max_stripes = kMaxStripes);

  /// Probe/insert the sector containing `byte_addr`; true on hit. For one
  /// simulation thread at a time (see probe() for concurrent launches).
  bool access(std::uint64_t byte_addr) { return access_sector(byte_addr / sector_bytes_); }

  /// Probe/insert by sector number (byte address / sector size); true on
  /// hit. Same threading rule as access().
  bool access_sector(std::uint64_t sector) {
    // The stripe's cache sees the sector number with the stripe bits
    // removed, so its set index equals the high bits of the monolithic set
    // index and its tags still distinguish all sectors the stripe owns.
    return stripes_[sector & stripe_mask_].access_line(sector >> stripe_shift_);
  }

  /// Prefetch hint for an upcoming access_sector or probe call (see
  /// SectorCache::prefetch_line). Touches no stripe state, so it is safe
  /// from any thread at any time.
  void prefetch_sector(std::uint64_t sector) const {
    stripes_[sector & stripe_mask_].prefetch_line(sector >> stripe_shift_);
  }

  /// Probes each participant logs per epoch of the concurrent mode. Long
  /// enough that the two barriers per epoch cost little next to the
  /// probes; short enough that provisional classification stays close to
  /// the replayed one.
  static constexpr std::size_t kEpochProbes = 4096;

  /// Start a concurrent launch of `participants` simulation threads, each
  /// of which must then probe only through probe(p, ...) and end with
  /// finish(p). Not thread-safe: call before the participants start.
  void begin_epochs(int participants);

  /// Participant `p`'s probe of `sector` in the concurrent mode: logs the
  /// probe for the epoch's replay and returns whether the sector was
  /// resident at the epoch's start. Blocks at epoch boundaries until every
  /// participant has reached its own.
  bool probe(int p, std::uint64_t sector) {
    Participant& me = *parts_[static_cast<std::size_t>(p)];
    if (me.logged == kEpochProbes) {
      round(p);
    }
    ++me.logged;
    const std::uint64_t stripe = sector & stripe_mask_;
    me.buckets[replayer_[stripe]].push_back(sector);
    const bool hit = stripes_[stripe].contains_line(sector >> stripe_shift_);
    if (hit) {
      ++me.provisional_hits;
    }
    return hit;
  }

  /// Participant `p` has probed its last sector (or failed): it keeps
  /// replaying its share of the stripes until every participant is done,
  /// then returns. Must be called exactly once per participant per launch.
  void finish(int p);

  /// After every participant finished: participant `p`'s replayed L2 hits
  /// minus its provisional ones — what to move from its DRAM counter to its
  /// L2-hit counter, in sectors (negative moves the other way).
  [[nodiscard]] std::int64_t hit_correction(int p) const;

  /// Drop all cached state (cold-cache experiments). Not thread-safe.
  void flush();

  [[nodiscard]] int stripes() const { return static_cast<int>(stripes_.size()); }
  [[nodiscard]] std::uint32_t sector_bytes() const { return sector_bytes_; }
  /// Aggregate probe counters; call only while no launch is in flight.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

 private:
  /// One concurrent-mode participant. `buckets[r]` holds this epoch's
  /// probes of the stripes replayer r owns, in probe order;
  /// `replay_hits[q]` counts the hits this participant's replays found for
  /// participant q's probes.
  struct Participant {
    std::vector<std::vector<std::uint64_t>> buckets;
    std::vector<std::uint64_t> replay_hits;
    std::size_t logged = 0;
    std::uint64_t provisional_hits = 0;
  };

  /// Runs once per barrier phase, while every participant is blocked.
  struct PhaseDone {
    SharedL2* self;
    void operator()() noexcept {
      self->all_finished_ = self->finished_.load() == self->participants_;
    }
  };

  /// One epoch boundary for participant `p`: wait for every log, replay
  /// this participant's stripes from all of them, wait for every replay.
  void round(int p);

  std::uint32_t sector_bytes_;
  std::uint64_t stripe_mask_ = 0;
  int stripe_shift_ = 0;
  std::vector<SectorCache> stripes_;

  int participants_ = 0;
  std::vector<std::size_t> replayer_;  ///< stripe -> participant replaying it
  std::vector<std::unique_ptr<Participant>> parts_;
  std::unique_ptr<std::barrier<PhaseDone>> barrier_;
  std::atomic<int> finished_{0};
  bool all_finished_ = false;  ///< written by PhaseDone, read after a phase
};

}  // namespace spaden::sim
