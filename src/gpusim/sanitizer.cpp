#include "gpusim/sanitizer.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/table.hpp"

namespace spaden::sim {

namespace {

constexpr std::size_t kMaxDiagsPerKind = 8;
constexpr std::size_t kMaxLints = 65536;
constexpr std::size_t kMaxMergedDiags = 64;
constexpr std::uint64_t kNoWarp = ~std::uint64_t{0};

const char* access_name(SanAccess a) {
  switch (a) {
    case SanAccess::Load:
      return "load";
    case SanAccess::Store:
      return "store";
    case SanAccess::Atomic:
      return "atomic";
    case SanAccess::Barrier:
      return "barrier";
  }
  return "?";
}

/// Racecheck wording: distinguishes plain accesses from atomics.
const char* race_access_name(SanAccess a) {
  switch (a) {
    case SanAccess::Load:
      return "plain load";
    case SanAccess::Store:
      return "plain store";
    case SanAccess::Atomic:
      return "atomic";
    case SanAccess::Barrier:
      return "barrier";
  }
  return "?";
}

/// Collects findings: exact per-detector totals, detailed diags capped.
class DiagSink {
 public:
  explicit DiagSink(SanitizerReport* report) : report_(report) {}

  void add(SanDiag d) {
    const auto k = static_cast<std::size_t>(d.kind);
    ++report_->counts[k];
    if (emitted_[k] < kMaxDiagsPerKind) {
      ++emitted_[k];
      report_->diagnostics.push_back(std::move(d));
    }
  }

  void add(SanKind kind, std::uint64_t warp, std::uint64_t addr, std::string message) {
    SanDiag d;
    d.kind = kind;
    d.warp = warp;
    d.addr = addr;
    d.message = std::move(message);
    add(std::move(d));
  }

 private:
  SanitizerReport* report_;
  std::array<std::size_t, kSanKindCount> emitted_{};
};

/// Cached containment test against the last matching allocation, so runs of
/// accesses to the same buffer skip the registry lookup.
class AllocCache {
 public:
  explicit AllocCache(AllocRegistry* registry) : registry_(registry) {}

  /// Live allocation fully containing [addr, addr+size), or nullptr.
  const AllocInfo* find(std::uint64_t addr, std::uint32_t size) {
    if (cached_ != nullptr && cached_->live && cached_->contains(addr) &&
        addr + size <= cached_->end()) {
      return cached_;
    }
    const AllocInfo* a = registry_->find(addr);
    if (a != nullptr && a->live && addr + size <= a->end()) {
      cached_ = a;
      return a;
    }
    return nullptr;
  }

 private:
  AllocRegistry* registry_;
  const AllocInfo* cached_ = nullptr;
};

// ---------------------------------------------------------------------------
// Canonical warp-major schedule.
//
// Shards record events in execution order, which depends on the thread count,
// the warp partition, and the resident window. Every warp runs on exactly
// one worker though, so its whole stream lives in one shard as a sequence of
// contiguous runs (fiber switches happen only between instructions), and the
// per-warp program order is recoverable for free: collect each warp's runs,
// then visit warps in ascending id. Every detector below iterates this
// canonical order, which is a legal schedule of the launch (warps are
// mutually unordered) and is byte-for-byte independent of how the simulator
// happened to interleave the run.
// ---------------------------------------------------------------------------

struct WarpRun {
  const SanEvent* begin = nullptr;
  const SanEvent* end = nullptr;
};

/// One warp's full event stream, in program order.
struct CanonStream {
  std::uint64_t warp = 0;
  std::vector<WarpRun> runs;
};

std::vector<CanonStream> canonical_streams(
    const std::vector<const std::vector<SanEvent>*>& event_lists) {
  std::vector<CanonStream> streams;
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (const auto* events : event_lists) {
    const SanEvent* base = events->data();
    const std::size_t n = events->size();
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i + 1;
      while (j < n && base[j].warp == base[i].warp) {
        ++j;
      }
      const auto [it, inserted] = index.try_emplace(base[i].warp, streams.size());
      if (inserted) {
        streams.push_back(CanonStream{base[i].warp, {}});
      }
      streams[it->second].runs.push_back(WarpRun{base + i, base + j});
      i = j;
    }
  }
  std::sort(streams.begin(), streams.end(),
            [](const CanonStream& a, const CanonStream& b) { return a.warp < b.warp; });
  return streams;
}

/// Visit one warp's stream instruction by instruction: fn(first, last, op)
/// with [first, last) the lane events of one instruction and `op` the
/// warp-relative ordinal of the recorded operation (schedule-invariant,
/// unlike the shard-global seq). Instructions never span runs — warps yield
/// only between instructions.
template <typename Fn>
void for_each_instr(const CanonStream& ws, Fn&& fn) {
  std::uint32_t op = 0;
  for (const WarpRun& run : ws.runs) {
    const SanEvent* p = run.begin;
    while (p != run.end) {
      const SanEvent* q = p + 1;
      while (q != run.end && q->seq == p->seq) {
        ++q;
      }
      fn(p, q, op);
      ++op;
      p = q;
    }
  }
}

void check_oob(const std::string& kernel, AllocRegistry& registry, DiagSink& sink,
               const std::vector<CanonStream>& streams) {
  AllocCache cache(&registry);
  for (const CanonStream& ws : streams) {
    for (const WarpRun& run : ws.runs) {
      for (const SanEvent* e = run.begin; e != run.end; ++e) {
        if (e->kind == SanAccess::Barrier) {
          continue;
        }
        if (cache.find(e->addr, e->size) == nullptr) {
          sink.add(SanKind::OobAccess, e->warp, e->addr,
                   strfmt("memcheck: kernel '%s' warp %llu lane %u: %s of %u bytes at %s is "
                          "out of bounds",
                          kernel.c_str(), static_cast<unsigned long long>(e->warp), e->lane,
                          access_name(e->kind), e->size, registry.describe(e->addr).c_str()));
        }
      }
    }
  }
}

/// Same-warp, same-instruction overlapping stores from different lanes: the
/// intra-warp analog of racecheck's WAW hazard (which lane wins is
/// undefined on hardware).
void check_divergent_waw(const std::string& kernel, AllocRegistry& registry, DiagSink& sink,
                         const std::vector<CanonStream>& streams) {
  std::vector<SanEvent> group;
  for (const CanonStream& ws : streams) {
    for_each_instr(ws, [&](const SanEvent* first, const SanEvent* last, std::uint32_t) {
      if (first->kind != SanAccess::Store || last - first < 2) {
        return;
      }
      group.assign(first, last);
      std::sort(group.begin(), group.end(), [](const SanEvent& x, const SanEvent& y) {
        return x.addr != y.addr ? x.addr < y.addr : x.lane < y.lane;
      });
      for (std::size_t i = 1; i < group.size(); ++i) {
        const SanEvent& p = group[i - 1];
        const SanEvent& q = group[i];
        if (q.addr < p.addr + p.size) {
          sink.add(SanKind::DivergentWaw, q.warp, q.addr,
                   strfmt("racecheck: kernel '%s' warp %llu: lanes %u and %u of one store "
                          "instruction overlap at %s (intra-warp write-after-write)",
                          kernel.c_str(), static_cast<unsigned long long>(q.warp), p.lane,
                          q.lane, registry.describe(q.addr).c_str()));
        }
      }
    });
  }
}

/// Reads of shadow-undefined bytes. A byte counts as defined for warp w only
/// if it was defined before the launch or stored earlier by w itself — a
/// store by a *different* warp is unordered relative to the read (and shows
/// up in racecheck), so it does not define the byte for w.
void check_uninit(const std::string& kernel, AllocRegistry& registry, DiagSink& sink,
                  const std::vector<CanonStream>& streams) {
  if (!registry.any_undef()) {
    return;
  }
  AllocCache cache(&registry);
  std::set<std::uint64_t> warp_written;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> commits;
  for (const CanonStream& ws : streams) {
    warp_written.clear();
    for (const WarpRun& run : ws.runs) {
      for (const SanEvent* e = run.begin; e != run.end; ++e) {
        if (e->kind == SanAccess::Barrier) {
          continue;
        }
        const AllocInfo* a = cache.find(e->addr, e->size);
        if (a == nullptr || a->undef.empty()) {
          continue;  // OOB handled elsewhere; fully-defined buffers can't trip
        }
        if (e->kind != SanAccess::Store) {  // load, or the read half of an atomic
          std::uint32_t undef_bytes = 0;
          for (std::uint64_t b = e->addr; b < e->addr + e->size; ++b) {
            if (a->undef[b - a->addr] != 0 && warp_written.count(b) == 0) {
              ++undef_bytes;
            }
          }
          if (undef_bytes != 0) {
            sink.add(SanKind::UninitRead, e->warp, e->addr,
                     strfmt("memcheck: kernel '%s' warp %llu lane %u: %s of %u bytes at %s "
                            "reads %u uninitialized byte(s)",
                            kernel.c_str(), static_cast<unsigned long long>(e->warp), e->lane,
                            access_name(e->kind), e->size, registry.describe(e->addr).c_str(),
                            undef_bytes));
          }
        }
        if (e->kind != SanAccess::Load) {
          for (std::uint64_t b = e->addr; b < e->addr + e->size; ++b) {
            warp_written.insert(b);
          }
          commits.emplace_back(e->addr, e->size);
        }
      }
    }
  }
  // Commit after the whole pass: a write only defines bytes for *later
  // launches* (within the launch, cross-warp ordering is undefined).
  for (const auto& [addr, size] : commits) {
    registry.define_bytes(addr, size);
  }
}

// ---------------------------------------------------------------------------
// racecheck v2: happens-before detection with FastTrack-style epochs.
//
// Each warp's stream is divided into epochs: the counter starts at 0 and
// advances at every sync_warp barrier and around every atomic instruction
// (each atomic occupies an epoch of its own, so a release covers exactly the
// accesses that precede it in program order). Same-address atomic pairs
// induce release/acquire happens-before edges, chained per byte in canonical
// order: when warp w performs an atomic on byte b whose previous atomic was
// (u, e) with u != w, the edge (u, e) -> (w, e_w) is recorded. Two accesses
// from different warps race when at least one is a non-atomic write — or one
// is an atomic and the other any plain access — and no happens-before path
// (program order composed with release/acquire edges) connects them. Launch
// boundaries order everything trivially: analysis is per launch.
//
// The detector runs over the canonical warp-major schedule, so edges always
// point from a lower warp id to a higher one, and reachability is a single
// backward sweep per queried target (memoized). Clean kernels never query:
// the sweep only runs when a conflicting plain pair actually exists.
// ---------------------------------------------------------------------------

/// One remembered access of one byte (FastTrack shadow cell).
struct AccessRec {
  std::uint64_t warp = kNoWarp;
  std::uint32_t epoch = 0;
  std::uint32_t op = 0;
  std::uint16_t size = 0;
  std::uint8_t lane = 0;
  SanAccess kind = SanAccess::Load;
};

struct ByteShadow {
  AccessRec write;             ///< last plain store
  AccessRec atomic;            ///< last atomic
  std::vector<AccessRec> reads;  ///< last plain load per warp since the last write
};

/// Release/acquire edge set with lazy, memoized reachability queries.
class HbIndex {
 public:
  /// (from_warp, from_epoch) happens-before (to_warp, to_epoch). Canonical
  /// construction guarantees from_warp < to_warp.
  void add_edge(std::uint64_t from_warp, std::uint32_t from_epoch, std::uint64_t to_warp,
                std::uint32_t to_epoch) {
    if (!edges_.empty()) {
      const Edge& b = edges_.back();
      if (b.from_warp == from_warp && b.from_epoch == from_epoch && b.to_warp == to_warp &&
          b.to_epoch == to_epoch) {
        return;  // the bytes of one access generate identical edges
      }
    }
    edges_.push_back(Edge{from_warp, to_warp, from_epoch, to_epoch});
    dirty_ = true;
  }

  /// True when (u, eu) happens-before (w, ew). Pre: u < w.
  [[nodiscard]] bool ordered(std::uint64_t u, std::uint32_t eu, std::uint64_t w,
                             std::uint32_t ew) {
    if (edges_.empty()) {
      return false;
    }
    const Reach& r = reach(w, ew);
    const auto it = r.find(u);
    return it != r.end() && eu <= it->second;
  }

 private:
  struct Edge {
    std::uint64_t from_warp = 0;
    std::uint64_t to_warp = 0;
    std::uint32_t from_epoch = 0;
    std::uint32_t to_epoch = 0;
  };
  /// warp -> latest epoch at that warp that happens-before the target.
  using Reach = std::unordered_map<std::uint64_t, std::uint32_t>;

  static constexpr std::size_t kMaxCachedTargets = 256;

  const Reach& reach(std::uint64_t w, std::uint32_t ew) {
    if (dirty_) {
      by_src_.clear();
      for (const Edge& e : edges_) {
        by_src_[e.from_warp].push_back(e);
      }
      cache_.clear();
      dirty_ = false;
    }
    if (cache_.size() >= kMaxCachedTargets) {
      cache_.clear();
    }
    const auto [cit, inserted] = cache_.try_emplace(std::make_pair(w, ew));
    Reach& r = cit->second;
    if (!inserted) {
      return r;
    }
    r.emplace(w, ew);
    // Backward sweep over source warps in descending order: edges ascend in
    // warp id, so every edge target is final when its source is processed.
    for (auto sit = by_src_.lower_bound(w); sit != by_src_.begin();) {
      --sit;
      std::uint32_t best = 0;
      bool reaches = false;
      for (const Edge& e : sit->second) {
        const auto t = r.find(e.to_warp);
        if (t != r.end() && e.to_epoch <= t->second &&
            (!reaches || e.from_epoch > best)) {
          best = e.from_epoch;
          reaches = true;
        }
      }
      if (reaches) {
        r.emplace(sit->first, best);
      }
    }
    return r;
  }

  std::vector<Edge> edges_;
  std::map<std::uint64_t, std::vector<Edge>> by_src_;
  std::map<std::pair<std::uint64_t, std::uint32_t>, Reach> cache_;
  bool dirty_ = false;
};

void check_races(const std::string& kernel, AllocRegistry& registry, DiagSink& sink,
                 bool* truncated, const std::vector<CanonStream>& streams) {
  std::unordered_map<std::uint64_t, ByteShadow> bytes;
  // Pass 1: written bytes only — unwritten bytes cannot race.
  for (const CanonStream& ws : streams) {
    for (const WarpRun& run : ws.runs) {
      for (const SanEvent* e = run.begin; e != run.end; ++e) {
        if (e->kind != SanAccess::Store && e->kind != SanAccess::Atomic) {
          continue;
        }
        if (bytes.size() >= kSanMaxEvents && bytes.count(e->addr) == 0) {
          *truncated = true;
          continue;
        }
        for (std::uint64_t b = e->addr; b < e->addr + e->size; ++b) {
          bytes.try_emplace(b);
        }
      }
    }
  }
  if (bytes.empty()) {
    return;
  }

  HbIndex hb;
  // byte -> (warp, epoch) of its last atomic (the pending release).
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>> last_release;
  std::set<std::uint64_t> reported_elems;

  // Report one finding per element of the owning buffer, witnessing the
  // first unordered pair found in canonical order.
  const auto report = [&](std::uint64_t b, const AccessRec& prior, const AccessRec& cur) {
    const AllocInfo* a = registry.find(b);
    const std::uint64_t elem_key =
        a == nullptr ? b : a->addr + (b - a->addr) / a->elem_bytes * a->elem_bytes;
    if (!reported_elems.insert(elem_key).second) {
      return;
    }
    SanDiag d;
    d.kind = SanKind::InterWarpRace;
    d.warp = prior.warp;
    d.addr = b;
    d.warp2 = cur.warp;
    d.op = prior.op;
    d.op2 = cur.op;
    d.lane = prior.lane;
    d.lane2 = cur.lane;
    d.message = strfmt(
        "racecheck: kernel '%s': warps %llu and %llu conflict at %s: %s by warp %llu "
        "(op %u, lane %u, %u B) is unordered with %s by warp %llu (op %u, lane %u, %u B) "
        "— no happens-before edge (launch boundary or atomic release/acquire chain) "
        "orders them",
        kernel.c_str(), static_cast<unsigned long long>(prior.warp),
        static_cast<unsigned long long>(cur.warp), registry.describe(b).c_str(),
        race_access_name(prior.kind), static_cast<unsigned long long>(prior.warp), prior.op,
        prior.lane, prior.size, race_access_name(cur.kind),
        static_cast<unsigned long long>(cur.warp), cur.op, cur.lane, cur.size);
    sink.add(std::move(d));
  };

  const auto racy = [&](const AccessRec& prior, const AccessRec& cur) {
    return prior.warp != kNoWarp && prior.warp != cur.warp &&
           !hb.ordered(prior.warp, prior.epoch, cur.warp, cur.epoch);
  };

  for (const CanonStream& ws : streams) {
    const std::uint64_t w = ws.warp;
    std::uint32_t epoch = 0;
    for_each_instr(ws, [&](const SanEvent* first, const SanEvent* last, std::uint32_t op) {
      const SanAccess kind = first->kind;
      if (kind == SanAccess::Barrier) {
        ++epoch;
        return;
      }
      if (kind == SanAccess::Atomic) {
        ++epoch;  // the atomic occupies an epoch of its own
      }
      const std::uint32_t my_epoch = epoch;
      for (const SanEvent* e = first; e != last; ++e) {
        AccessRec cur;
        cur.warp = w;
        cur.epoch = my_epoch;
        cur.op = op;
        cur.size = e->size;
        cur.lane = e->lane;
        cur.kind = kind;
        for (std::uint64_t b = e->addr; b < e->addr + e->size; ++b) {
          const auto it = bytes.find(b);
          if (it == bytes.end()) {
            continue;  // never written (or shadow cap hit): cannot race
          }
          ByteShadow& st = it->second;
          if (kind == SanAccess::Load) {
            if (racy(st.write, cur)) {
              report(b, st.write, cur);
            } else if (racy(st.atomic, cur)) {
              report(b, st.atomic, cur);  // the atomic-vs-plain-load class
            }
            bool replaced = false;
            for (AccessRec& r : st.reads) {
              if (r.warp == w) {
                r = cur;
                replaced = true;
                break;
              }
            }
            if (!replaced) {
              st.reads.push_back(cur);
            }
            continue;
          }
          if (kind == SanAccess::Atomic) {
            // Acquire from the previous release on this byte *before* the
            // conflict checks, so the edge can order this very access.
            const auto [lit, fresh] = last_release.try_emplace(b, w, my_epoch);
            if (!fresh) {
              if (lit->second.first != w) {
                hb.add_edge(lit->second.first, lit->second.second, w, my_epoch);
              }
              lit->second = {w, my_epoch};
            }
            if (racy(st.write, cur)) {
              report(b, st.write, cur);
            }
            for (const AccessRec& r : st.reads) {
              if (racy(r, cur)) {
                report(b, r, cur);
              }
            }
            st.atomic = cur;
            st.reads.clear();
            continue;
          }
          // Plain store.
          if (racy(st.write, cur)) {
            report(b, st.write, cur);
          }
          if (racy(st.atomic, cur)) {
            report(b, st.atomic, cur);
          }
          for (const AccessRec& r : st.reads) {
            if (racy(r, cur)) {
              report(b, r, cur);
            }
          }
          st.write = cur;
          st.reads.clear();
        }
      }
      if (kind == SanAccess::Atomic) {
        ++epoch;
      }
    });
  }
}

}  // namespace

const char* san_kind_name(SanKind k) {
  switch (k) {
    case SanKind::OobAccess:
      return "memcheck.oob";
    case SanKind::UninitRead:
      return "memcheck.uninit-read";
    case SanKind::InterWarpRace:
      return "racecheck.inter-warp";
    case SanKind::DivergentWaw:
      return "racecheck.divergent-waw";
    case SanKind::DivergentShuffle:
      return "synclint.divergent-shuffle";
    case SanKind::BarrierMismatch:
      return "synclint.barrier-mismatch";
  }
  return "?";
}

std::uint64_t SanitizerReport::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : counts) {
    sum += c;
  }
  return sum;
}

void SanitizerReport::merge(const SanitizerReport& other) {
  enabled = enabled || other.enabled;
  truncated = truncated || other.truncated;
  if (kernel_name.empty()) {
    kernel_name = other.kernel_name;
  }
  for (std::size_t i = 0; i < kSanKindCount; ++i) {
    counts[i] += other.counts[i];
  }
  for (const SanDiag& d : other.diagnostics) {
    if (diagnostics.size() >= kMaxMergedDiags) {
      break;
    }
    diagnostics.push_back(d);
  }
}

std::string SanitizerReport::summary() const {
  if (!enabled) {
    return "sancheck: disabled\n";
  }
  std::string out =
      strfmt("sancheck: kernel '%s': %llu finding(s)%s\n", kernel_name.c_str(),
             static_cast<unsigned long long>(total()),
             truncated ? " (event budget exceeded; findings are a lower bound)" : "");
  Table table({"detector", "findings"});
  for (std::size_t i = 0; i < kSanKindCount; ++i) {
    table.add_row({san_kind_name(static_cast<SanKind>(i)), std::to_string(counts[i])});
  }
  out += table.to_string();
  for (const SanDiag& d : diagnostics) {
    out += "  " + d.message + "\n";
  }
  return out;
}

void SanShard::divergent_shuffle(std::uint32_t mask, int lane, std::uint32_t src_lane) {
  if (lints_.size() >= kMaxLints) {
    ++dropped_;
    return;
  }
  lints_.push_back(LintEvent{SanKind::DivergentShuffle, warp_, seq_, mask,
                             (static_cast<std::uint32_t>(lane) << 8) | src_lane});
}

void SanShard::sync_warp(std::uint32_t mask) {
  if ((mask & last_mask_) != last_mask_) {
    if (lints_.size() >= kMaxLints) {
      ++dropped_;
    } else {
      lints_.push_back(LintEvent{SanKind::BarrierMismatch, warp_, seq_, mask, last_mask_});
    }
  }
  last_mask_ = mask;
  // Barrier marker: its own (warp, seq) group, so the race detector can
  // advance the warp's epoch at the right point of the stream.
  ++seq_;
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(SanEvent{0, warp_, seq_, 0, 0, SanAccess::Barrier});
}

SanitizerReport sanitize_analyze(std::string kernel_name, std::vector<SanShard>& shards,
                                 AllocRegistry& registry) {
  SanitizerReport report;
  report.enabled = true;
  report.kernel_name = std::move(kernel_name);
  DiagSink sink(&report);

  std::vector<const std::vector<SanEvent>*> event_lists;
  event_lists.reserve(shards.size());
  for (SanShard& s : shards) {
    report.truncated = report.truncated || s.dropped_ > 0;
    event_lists.push_back(&s.events_);
  }
  // Regroup execution-order shard streams into the canonical warp-major
  // schedule every detector iterates (see canonical_streams above).
  const std::vector<CanonStream> streams = canonical_streams(event_lists);

  check_oob(report.kernel_name, registry, sink, streams);
  check_divergent_waw(report.kernel_name, registry, sink, streams);
  check_uninit(report.kernel_name, registry, sink, streams);
  check_races(report.kernel_name, registry, sink, &report.truncated, streams);

  // Lints, reordered canonically by (warp, shard position) — like the event
  // detectors, the emission order is schedule-invariant.
  std::vector<SanShard::LintEvent> lints;
  for (const SanShard& s : shards) {
    lints.insert(lints.end(), s.lints_.begin(), s.lints_.end());
  }
  std::stable_sort(lints.begin(), lints.end(),
                   [](const SanShard::LintEvent& a, const SanShard::LintEvent& b) {
                     return a.warp != b.warp ? a.warp < b.warp : a.seq < b.seq;
                   });
  for (const auto& lint : lints) {
    if (lint.kind == SanKind::DivergentShuffle) {
      sink.add(lint.kind, lint.warp, 0,
               strfmt("sync-lint: kernel '%s' warp %llu: shuffle under divergence — lane "
                      "%u reads lane %u, inactive in mask 0x%08x",
                      report.kernel_name.c_str(), static_cast<unsigned long long>(lint.warp),
                      lint.detail >> 8, lint.detail & 0xFFu, lint.mask));
    } else {
      sink.add(lint.kind, lint.warp, 0,
               strfmt("sync-lint: kernel '%s' warp %llu: sync_warp(0x%08x) misses lanes "
                      "active in the preceding op (mask 0x%08x)",
                      report.kernel_name.c_str(), static_cast<unsigned long long>(lint.warp),
                      lint.mask, lint.detail));
    }
  }
  return report;
}

}  // namespace spaden::sim
