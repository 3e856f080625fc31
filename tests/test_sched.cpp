// gpusim/sched: the interleaved warp scheduler must never change what a
// kernel computes — only the order the cache models see accesses in — and
// must stay deterministic at a fixed thread count. A one-warp resident
// window is run-to-completion in grid order, the reference every wider
// window is compared against. The shared set-sharded L2 must be
// bit-identical to the monolithic cache at T=1 and numerically exact at any
// T. Fiber suspension must compose with spaden-prof (exact range
// attribution, split timeline slices) and spaden-sancheck (per-warp event
// attribution, no false positives).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/device.hpp"
#include "gpusim/shared_l2.hpp"
#include "kernels/kernel.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::sim {
namespace {

Device make_device(SchedConfig sched, int threads = 1, bool shared_l2 = false,
                   const DeviceSpec& spec = l40()) {
  Device device(spec);
  device.set_sim_threads(threads);
  device.set_sched(sched);
  device.set_shared_l2(shared_l2);
  return device;
}

// One resident warp: nothing to switch to, so every warp runs to completion
// in grid order.
constexpr SchedConfig kOneWarp{SchedPolicy::RoundRobin, 1};
// Small test launches would derive a one-warp window from occupancy (no
// interleaving at all), so the fiber tests pin an 8-warp resident window.
constexpr SchedConfig kRr{SchedPolicy::RoundRobin, 8};
// The occupancy-derived window every Device starts with.
constexpr SchedConfig kDerived{SchedPolicy::RoundRobin, 0};

/// Methods whose warps may atomically accumulate partial sums into shared y
/// elements: their float add order follows the schedule, so across
/// schedules these are tolerance-equal, not bit-equal.
bool uses_float_atomics(kern::Method m) {
  return m == kern::Method::Gunrock || m == kern::Method::CsrAdaptive ||
         m == kern::Method::Dasp;
}

/// The profiler suite's two-phase kernel: "load" gathers one disjoint cache
/// line per warp, "compute" is pure ALU work. Every per-range counter is
/// known exactly, which makes attribution errors visible.
LaunchResult run_two_phase(Device& device, std::uint64_t warps = 16) {
  auto src = device.memory().upload(std::vector<float>(warps * kWarpSize, 1.0f), "src");
  return device.launch("two_phase", warps, [&](WarpCtx& ctx, std::uint64_t w) {
    ctx.range_push("load");
    Lanes<std::uint32_t> idx;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      idx[static_cast<std::size_t>(lane)] =
          static_cast<std::uint32_t>(w) * kWarpSize + static_cast<std::uint32_t>(lane);
    }
    (void)ctx.gather(src.cspan(), idx);
    ctx.range_pop();
    const ProfRange prof(ctx, "compute");
    ctx.charge(OpClass::Fma, 8 * kWarpSize);
  });
}

/// Streaming-reuse kernel shaped like a block-diagonal SpMV: each warp owns
/// a private x segment of `seg_floats` and sweeps it `passes` times. In
/// grid order the segment stays L2-hot between passes; interleaved, the
/// resident window multiplies the working set.
LaunchResult run_reuse(Device& device, std::uint64_t warps, std::uint64_t seg_floats,
                       int passes) {
  auto src =
      device.memory().upload(std::vector<float>(warps * seg_floats, 1.0f), "reuse.x");
  return device.launch("reuse", warps, [&](WarpCtx& ctx, std::uint64_t w) {
    for (int pass = 0; pass < passes; ++pass) {
      for (std::uint64_t base = 0; base < seg_floats; base += kWarpSize) {
        Lanes<std::uint32_t> idx;
        for (int lane = 0; lane < kWarpSize; ++lane) {
          idx[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(
              w * seg_floats + base + static_cast<std::uint64_t>(lane));
        }
        (void)ctx.gather(src.cspan(), idx);
      }
    }
  });
}

std::vector<float> run_y(kern::Method m, const mat::Csr& a, SchedConfig sched,
                         int threads = 1, bool shared_l2 = false) {
  Device device = make_device(sched, threads, shared_l2);
  auto kernel = kern::make_kernel(m);
  kernel->prepare(device, a);
  std::vector<float> x(a.ncols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.7f - 0.004f * static_cast<float>(i % 331);
  }
  auto xb = device.memory().upload(x);
  auto y = device.memory().alloc<float>(a.nrows);
  (void)kernel->run(device, xb.cspan(), y.span());
  return y.host();
}

KernelStats run_stats(kern::Method m, const mat::Csr& a, SchedConfig sched,
                      int threads = 1, bool shared_l2 = false) {
  Device device = make_device(sched, threads, shared_l2);
  auto kernel = kern::make_kernel(m);
  kernel->prepare(device, a);
  std::vector<float> x(a.ncols, 0.5f);
  auto xb = device.memory().upload(x);
  auto y = device.memory().alloc<float>(a.nrows);
  return kernel->run(device, xb.cspan(), y.span()).stats;
}

std::string report_json(const ProfileReport& report, bool include_sms) {
  JsonWriter w;
  report.to_json(w, include_sms);
  return w.take();
}

// ----- window derivation -----------------------------------------------------

TEST(Sched, ResidentWindowDerivation) {
  const DeviceSpec spec = l40();
  // Explicit window wins, clamped to the device residency ceiling.
  EXPECT_EQ(resident_window(spec, {SchedPolicy::RoundRobin, 5}, 1 << 20), 5);
  EXPECT_EQ(resident_window(spec, {SchedPolicy::RoundRobin, 10'000}, 1 << 20),
            spec.max_warps_per_sm);
  // Saturating launch: the full residency window.
  EXPECT_EQ(resident_window(spec, kDerived, 1 << 20), spec.max_warps_per_sm);
  // Tiny launch: occupancy-scaled, but never below one resident warp.
  EXPECT_GE(resident_window(spec, kDerived, 1), 1);
  EXPECT_LT(resident_window(spec, kDerived, 1), spec.max_warps_per_sm);
  // A fresh Device starts on the derived window.
  EXPECT_EQ(Device(spec).sched(), kDerived);
}

// ----- a one-warp window runs to completion ------------------------------------

TEST(Sched, SingleResidentWarpMatchesSerial) {
  // A one-warp window has nothing to switch to: each warp body runs from
  // start to finish before the next warp of the grid begins, and with no
  // other warp to cover latency the stall model stays off. A wider window
  // suspends the same bodies once their cold loads fill the scoreboard.
  constexpr std::uint64_t kWarps = 8;
  constexpr std::uint64_t kLines = 16;  // cold lines per warp, > scoreboard depth
  auto body_order = [](SchedConfig sched) {
    Device device = make_device(sched);
    auto src = device.memory().upload(std::vector<float>(kWarps * kLines * kWarpSize, 1.0f));
    std::vector<std::uint64_t> order;  // warp id at body entry and at body exit
    const auto result = device.launch("order", kWarps, [&](WarpCtx& ctx, std::uint64_t w) {
      order.push_back(w);
      for (std::uint64_t line = 0; line < kLines; ++line) {
        const auto base = static_cast<std::uint32_t>((w * kLines + line) * kWarpSize);
        (void)ctx.gather(src.cspan(), make_lanes<std::uint32_t>(base));
      }
      order.push_back(w);
    });
    return std::make_pair(order, result.stats.exposed_stall_cycles);
  };
  const auto [one, one_stall] = body_order(kOneWarp);
  const std::vector<std::uint64_t> grid_order{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7};
  EXPECT_EQ(one, grid_order);
  EXPECT_EQ(one_stall, 0u);
  const auto [rr, rr_stall] = body_order(kRr);
  EXPECT_NE(rr, grid_order);
  EXPECT_GT(rr_stall, 0u);
}

// ----- scheduling never changes numerics --------------------------------------

class SchedPolicyTest : public ::testing::TestWithParam<SchedConfig> {};

TEST_P(SchedPolicyTest, NumericsBitIdenticalToSerial) {
  // Warps that write only their own output rows have no float-atomic order
  // dependence, so any resident window must reproduce the one-warp
  // window's y bit for bit; float-atomic kernels are tolerance-equal.
  const mat::Csr a = mat::load_dataset("rma10", 0.01);
  const double tol = kern::spmv_tolerance(a, /*half_precision_values=*/true);
  for (const kern::Method m : kern::all_methods()) {
    for (const int threads : {1, 4}) {
      const std::vector<float> ref = run_y(m, a, kOneWarp, threads);
      const std::vector<float> y = run_y(m, a, GetParam(), threads);
      ASSERT_EQ(ref.size(), y.size());
      if (!uses_float_atomics(m)) {
        EXPECT_EQ(ref, y) << kern::method_name(m) << " threads=" << threads;
        continue;
      }
      for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_NEAR(ref[i], y[i], tol)
            << kern::method_name(m) << " threads=" << threads << " row " << i;
      }
    }
  }
}

TEST_P(SchedPolicyTest, WorkPreservingCounters) {
  // Interleaving reorders the access stream; it must not change how much
  // work is simulated. Only cache-classification counters may drift.
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  for (const kern::Method m : kern::all_methods()) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(kern::method_name(m)) + " threads=" + std::to_string(threads));
      const KernelStats ref = run_stats(m, a, kOneWarp, threads);
      const KernelStats sched = run_stats(m, a, GetParam(), threads);
      EXPECT_EQ(ref.warps_launched, sched.warps_launched);
      EXPECT_EQ(ref.mem_instructions, sched.mem_instructions);
      EXPECT_EQ(ref.lane_loads, sched.lane_loads);
      EXPECT_EQ(ref.lane_stores, sched.lane_stores);
      EXPECT_EQ(ref.cuda_ops, sched.cuda_ops);
      EXPECT_EQ(ref.tc_mma_m16n16k16, sched.tc_mma_m16n16k16);
      EXPECT_EQ(ref.shuffle_lane_ops, sched.shuffle_lane_ops);
      EXPECT_EQ(ref.wavefronts, sched.wavefronts);
    }
  }
}

TEST_P(SchedPolicyTest, DeterministicRunToRunAtFixedThreads) {
  // The determinism contract: fixed SPADEN_SIM_THREADS + window =>
  // counters, profiles and the chrome trace are byte-identical run to run.
  for (const int threads : {1, 4}) {
    auto once = [&](std::string* json, std::string* trace) {
      Device device = make_device(GetParam(), threads);
      device.set_profile(true);
      const auto result = run_reuse(device, 16, 256, 2);
      *json = report_json(device.profile_log()[0], /*include_sms=*/true);
      *trace = chrome_trace_json(device.profile_log());
      return result.stats;
    };
    std::string json1;
    std::string json2;
    std::string trace1;
    std::string trace2;
    const KernelStats s1 = once(&json1, &trace1);
    const KernelStats s2 = once(&json2, &trace2);
    EXPECT_EQ(s1, s2) << "threads=" << threads;
    EXPECT_EQ(json1, json2) << "threads=" << threads;
    EXPECT_EQ(trace1, trace2) << "threads=" << threads;
  }
}

// "rr" pins eight resident warps so even small launches interleave;
// "derived" is the occupancy-derived window every Device defaults to.
INSTANTIATE_TEST_SUITE_P(Policies, SchedPolicyTest, ::testing::Values(kRr, kDerived),
                         [](const ::testing::TestParamInfo<SchedConfig>& info) {
                           return info.param.window == 0
                                      ? std::string("derived")
                                      : std::string(sched_policy_name(info.param.policy));
                         });

// ----- fibers + spaden-prof ---------------------------------------------------

TEST(Sched, RangeAttributionExactAcrossSuspension) {
  // Every gather in "load" is a yield point, so warps may suspend mid-range;
  // the partial-interval accounting must still attribute every counter the
  // launch charged to exactly one range. The one exception is
  // exposed_stall_cycles: stalls exposed while finished warps drain their
  // scoreboards happen after the warp body returned, outside every range,
  // so the launch total may exceed the range sum for that counter only.
  Device device = make_device(kRr);
  device.set_profile(true);
  const auto result = run_two_phase(device);
  const ProfileReport& report = result.profile;
  ASSERT_TRUE(report.enabled);
  ASSERT_EQ(report.ranges.size(), 2u);
  EXPECT_EQ(report.ranges[0].name, "load");
  EXPECT_EQ(report.ranges[1].name, "compute");
  EXPECT_EQ(report.ranges[0].invocations, 16u);
  EXPECT_EQ(report.ranges[1].invocations, 16u);
  EXPECT_GT(report.ranges[0].stats.lane_loads, 0u);
  EXPECT_EQ(report.ranges[1].stats.lane_loads, 0u);
  KernelStats sum = report.ranges[0].stats;
  sum += report.ranges[1].stats;
  KernelStats launch = report.stats;
  launch.warps_launched = 0;
  EXPECT_GE(launch.exposed_stall_cycles, sum.exposed_stall_cycles);
  launch.exposed_stall_cycles = sum.exposed_stall_cycles;
  EXPECT_EQ(sum, launch);
}

TEST(Sched, TimelineSplitsSuspendedWarps) {
  // A suspended warp's residency interval closes and a new one opens on
  // resume, so the rr trace carries more complete slices than the one-warp
  // window's trace (which has exactly one warp slice per warp). The reuse kernel
  // streams enough cold DRAM lines per warp to fill the per-warp scoreboard
  // and force genuine suspensions.
  auto x_events = [](const std::string& trace) {
    std::size_t n = 0;
    for (std::size_t pos = trace.find("\"ph\":\"X\""); pos != std::string::npos;
         pos = trace.find("\"ph\":\"X\"", pos + 1)) {
      ++n;
    }
    return n;
  };
  Device one = make_device(kOneWarp);
  one.set_profile(true);
  run_reuse(one, 16, 16 * kWarpSize, 1);
  Device rr = make_device(kRr);
  rr.set_profile(true);
  run_reuse(rr, 16, 16 * kWarpSize, 1);
  const std::string one_trace = chrome_trace_json(one.profile_log());
  const std::string rr_trace = chrome_trace_json(rr.profile_log());
  EXPECT_EQ(x_events(one_trace), 16u);
  EXPECT_GT(x_events(rr_trace), 16u);
  EXPECT_NE(rr_trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

// ----- fibers + spaden-sancheck -----------------------------------------------

TEST(Sched, SancheckCleanKernelStaysCleanUnderRr) {
  // Per-warp divergence state (the last active mask) is saved and restored
  // across fiber switches: warps alternating between full and half masks
  // interleave without leaking masks into each other's sync-lint checks.
  Device device = make_device({SchedPolicy::RoundRobin, 8});
  device.set_sanitize(true);
  auto buf = device.memory().alloc<float>(64 * kWarpSize, "clean.dst");
  auto dst = buf.span();
  const auto result = device.launch("clean", 64, [&](WarpCtx& ctx, std::uint64_t w) {
    const std::uint32_t mask = (w % 2 == 0) ? kFullMask : 0x0000FFFFu;
    Lanes<std::uint32_t> idx;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      idx[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(
          w * kWarpSize + static_cast<std::uint64_t>(lane));
    }
    ctx.scatter(dst, idx, make_lanes(1.0f), mask);
    ctx.sync_warp(mask);
  });
  EXPECT_EQ(result.sanitizer.total(), 0u) << result.sanitizer.summary();
}

TEST(Sched, SancheckAttributesFindingsAcrossSwitches) {
  // A genuine inter-warp race (two warps plain-storing the same element)
  // must be reported identically whether the warps run back-to-back or
  // interleaved on fibers — event streams stay attributed per warp.
  auto race_findings = [](SchedConfig sched) {
    Device device = make_device(sched);
    device.set_sanitize(true);
    auto buf = device.memory().alloc<float>(kWarpSize, "race.dst");
    auto dst = buf.span();
    const auto result = device.launch("race", 4, [&](WarpCtx& ctx, std::uint64_t) {
      ctx.scalar_store(dst, 0, 1.0f);
    });
    return result.sanitizer.count(SanKind::InterWarpRace);
  };
  const std::uint64_t one = race_findings(kOneWarp);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(race_findings(kRr), one);
}

// ----- cache fidelity: interleaving is less optimistic ------------------------

TEST(Sched, RrLowersL2ReuseHitRateOnReuseHeavyMatrix) {
  // The deviation the scheduler exists to close: run-to-completion lets
  // each warp's x segment stay L2-hot across passes; a 16-warp resident
  // window multiplies the live working set past the L2 and thrashes it.
  DeviceSpec spec = l40();
  spec.l1_capacity_bytes = 2 * 1024;
  spec.l2_capacity_bytes = 64 * 1024;
  auto l2_hit_rate = [](const KernelStats& s) {
    return static_cast<double>(s.l2_hit_bytes) /
           static_cast<double>(s.l2_hit_bytes + s.dram_bytes);
  };
  Device one = make_device(kOneWarp, 1, false, spec);
  Device rr = make_device({SchedPolicy::RoundRobin, 16}, 1, false, spec);
  // 32 warps x 16 KB private segment x 4 passes (seg fits L2; window of 16
  // segments = 4x the L2).
  const KernelStats s = run_reuse(one, 32, 4096, 4).stats;
  const KernelStats r = run_reuse(rr, 32, 4096, 4).stats;
  EXPECT_EQ(s.lane_loads, r.lane_loads);  // same simulated work
  EXPECT_GT(r.dram_bytes, 2 * s.dram_bytes);
  EXPECT_LT(l2_hit_rate(r), l2_hit_rate(s));
}

// ----- shared sharded L2 ------------------------------------------------------

TEST(SharedL2, MatchesMonolithicCacheExactly) {
  // Striping by low set-index bits partitions the monolithic cache's sets,
  // so hit/miss classification is identical access by access.
  SectorCache mono(1 << 20, 16);
  SharedL2 sharded(1 << 20, 16, 32);
  ASSERT_GT(sharded.stripes(), 1);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 200'000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t addr = (state >> 17) % (8u << 20);
    EXPECT_EQ(sharded.access(addr), mono.access(addr)) << "access " << i;
  }
  EXPECT_EQ(sharded.hits(), mono.hits());
  EXPECT_EQ(sharded.misses(), mono.misses());
}

TEST(SharedL2, StripeCountInvariant) {
  // max_stripes only picks the lock granularity (a single-threaded device
  // passes 1 for host-side locality); classification must not notice.
  SharedL2 flat(1 << 20, 16, 32, /*max_stripes=*/1);
  SharedL2 sharded(1 << 20, 16, 32);
  ASSERT_EQ(flat.stripes(), 1);
  ASSERT_GT(sharded.stripes(), 1);
  std::uint64_t state = 0x243F6A8885A308D3ull;
  for (int i = 0; i < 200'000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t addr = (state >> 17) % (8u << 20);
    EXPECT_EQ(flat.access(addr), sharded.access(addr)) << "access " << i;
  }
  EXPECT_EQ(flat.hits(), sharded.hits());
  EXPECT_EQ(flat.misses(), sharded.misses());
}

TEST(SharedL2, SingleThreadBitIdenticalToSliceL2) {
  // At T=1 the slice L2 is the whole cache, and the sharded cache is
  // bit-identical to it: enabling shared-l2 must not move a single counter.
  Device slice = make_device(kOneWarp, 1, /*shared_l2=*/false);
  Device shared = make_device(kOneWarp, 1, /*shared_l2=*/true);
  const auto a = run_reuse(slice, 16, 1024, 2);
  const auto b = run_reuse(shared, 16, 1024, 2);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.time.total, b.time.total);
}

TEST(SharedL2, NumericsExactAtAnyThreadCount) {
  // Shared-L2 counters depend on the thread count; y must not.
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  const std::vector<float> ref = run_y(kern::Method::Spaden, a, kOneWarp);
  EXPECT_EQ(ref, run_y(kern::Method::Spaden, a, kOneWarp, 4, /*shared_l2=*/true));
  EXPECT_EQ(ref, run_y(kern::Method::Spaden, a, kRr, 4, /*shared_l2=*/true));
}

TEST(SharedL2, WorkPreservingCountersUnderThreads) {
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  const KernelStats ref = run_stats(kern::Method::Spaden, a, kOneWarp);
  const KernelStats shared = run_stats(kern::Method::Spaden, a, kOneWarp, 4, true);
  EXPECT_EQ(ref.warps_launched, shared.warps_launched);
  EXPECT_EQ(ref.mem_instructions, shared.mem_instructions);
  EXPECT_EQ(ref.lane_loads, shared.lane_loads);
  EXPECT_EQ(ref.cuda_ops, shared.cuda_ops);
  EXPECT_EQ(ref.wavefronts, shared.wavefronts);
}

TEST(SharedL2, DeterministicRunToRunAtFixedThreads) {
  // The epoch replay fixes the order in which the virtual SMs' probes reach
  // the shared cache, so no counter depends on the host's interleaving.
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  for (const SchedConfig sched : {kOneWarp, kRr}) {
    const KernelStats first = run_stats(kern::Method::CusparseBsr, a, sched, 4, true);
    for (int rep = 0; rep < 4; ++rep) {
      EXPECT_EQ(first, run_stats(kern::Method::CusparseBsr, a, sched, 4, true))
          << "window " << sched.window << ", repeat " << rep;
    }
  }
}

TEST(SharedL2, ReplayKeepsSectorAccounting) {
  // Replay moves probes between the L2-hit and DRAM counters, never in or
  // out of the L1-miss total they split.
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  const KernelStats s = run_stats(kern::Method::Spaden, a, kRr, 3, true);
  EXPECT_EQ(s.l2_hit_bytes + s.dram_bytes, s.sectors * l40().sector_bytes);
}

TEST(SharedL2, KernelErrorEndsEpochsCleanly) {
  // A failing SM still takes part in the epoch barriers until every other
  // SM is done, so the launch reports the error instead of hanging, and the
  // device stays usable.
  Device device = make_device(kOneWarp, 4, /*shared_l2=*/true);
  auto src = device.memory().upload(std::vector<float>(64 * 1024, 1.0f), "err.x");
  auto sweep = [&](WarpCtx& ctx, std::uint64_t w, bool fail) {
    for (std::uint32_t base = 0; base < 64 * 1024; base += kWarpSize) {
      if (fail && w == 1 && base == 8 * kWarpSize) {
        throw std::runtime_error("warp 1 failed");
      }
      Lanes<std::uint32_t> idx;
      for (int lane = 0; lane < kWarpSize; ++lane) {
        idx[static_cast<std::size_t>(lane)] = base + static_cast<std::uint32_t>(lane);
      }
      (void)ctx.gather(src.cspan(), idx);
    }
  };
  EXPECT_THROW((void)device.launch("fails", 8,
                                   [&](WarpCtx& ctx, std::uint64_t w) { sweep(ctx, w, true); }),
               std::runtime_error);
  const auto ok = device.launch("ok", 8,
                                [&](WarpCtx& ctx, std::uint64_t w) { sweep(ctx, w, false); });
  EXPECT_EQ(ok.stats.warps_launched, 8u);
}

TEST(SharedL2, SeesCrossSmReuseThatSlicesCannot) {
  // Every virtual SM reads the same 128 KB region. Private slices fetch it
  // from DRAM once per SM; the shared L2 fetches it roughly once total.
  DeviceSpec spec = l40();
  spec.l1_capacity_bytes = 4 * 1024;
  spec.l2_capacity_bytes = 2 * 1024 * 1024;
  auto dram_with = [&](bool shared_l2) {
    Device device = make_device(kOneWarp, 4, shared_l2, spec);
    auto src = device.memory().upload(std::vector<float>(32 * 1024, 1.0f), "shared.x");
    const auto result = device.launch("cross_sm", 8, [&](WarpCtx& ctx, std::uint64_t) {
      for (std::uint32_t base = 0; base < 32 * 1024; base += kWarpSize) {
        Lanes<std::uint32_t> idx;
        for (int lane = 0; lane < kWarpSize; ++lane) {
          idx[static_cast<std::size_t>(lane)] = base + static_cast<std::uint32_t>(lane);
        }
        (void)ctx.gather(src.cspan(), idx);
      }
    });
    return result.stats.dram_bytes;
  };
  const std::uint64_t slice = dram_with(false);
  const std::uint64_t shared = dram_with(true);
  EXPECT_LT(shared, (3 * slice) / 4);
}

// ----- nnz-balanced warp partition --------------------------------------------

TEST(Sched, NnzBalancedPartitionEqualizesWeight) {
  // Four heavy warps up front: the equal-count fallback (no weights) gives
  // SM0 all of them; the weight-balanced split isolates each heavy warp on
  // its own SM.
  auto sm_warps = [](std::vector<std::uint64_t> weights) {
    Device device = make_device(kOneWarp, 4);
    device.set_profile(true);
    device.set_warp_weights(std::move(weights));
    run_reuse(device, 16, 64, 1);
    std::vector<std::uint64_t> warps;
    for (const SmProfile& sm : device.profile_log()[0].sms) {
      warps.push_back(sm.warps);
    }
    return warps;
  };
  std::vector<std::uint64_t> weights(16, 1);
  weights[0] = weights[1] = weights[2] = weights[3] = 100;
  EXPECT_EQ(sm_warps({}), (std::vector<std::uint64_t>{4, 4, 4, 4}));
  EXPECT_EQ(sm_warps(weights), (std::vector<std::uint64_t>{1, 1, 1, 13}));
  // Weights that do not match the launch shape fall back to equal counts.
  EXPECT_EQ(sm_warps({1, 2, 3}), (std::vector<std::uint64_t>{4, 4, 4, 4}));
}

TEST(Sched, KernelsDeriveNnzWarpWeights) {
  // The engine-policy promotion: kernels with a static warp->row mapping
  // install per-warp nnz weights in prepare, so the default NnzBalanced
  // partition has real work estimates to cut by. The weights must cover
  // every stored value exactly once.
  const mat::Csr a = mat::load_dataset("rma10", 0.02);
  // Multi-launch kernels (csr_adaptive's zero-fill + main pass, DASP's
  // three passes) key their weights by launch name so secondary launches
  // never see stale weights; single-launch kernels still use the global
  // vector. An empty launch key means "read the global vector".
  auto weights_after_prepare = [&](kern::Method m, std::string_view launch = {}) {
    Device device = make_device(kOneWarp);
    auto kernel = kern::make_kernel(m);
    kernel->prepare(device, a);
    return launch.empty() ? device.warp_weights() : device.launch_warp_weights(launch);
  };
  const std::pair<kern::Method, std::string_view> weighted[] = {
      {kern::Method::Spaden, {}},
      {kern::Method::SpadenWide, {}},
      {kern::Method::CusparseCsr, {}},
      {kern::Method::CsrWarp16, {}},
      {kern::Method::CsrAdaptive, "csr_adaptive"},
  };
  for (const auto& [m, launch] : weighted) {
    const std::vector<std::uint64_t> w = weights_after_prepare(m, launch);
    ASSERT_FALSE(w.empty()) << kern::method_name(m);
    std::uint64_t sum = 0;
    for (const std::uint64_t v : w) {
      sum += v;
    }
    EXPECT_EQ(sum, static_cast<std::uint64_t>(a.nnz())) << kern::method_name(m);
  }
  // Keyed kernels leave the global vector clear — that's the point of the
  // fix: a later launch with a colliding warp count can't inherit them.
  EXPECT_TRUE(weights_after_prepare(kern::Method::CsrAdaptive).empty());
  // DASP weights count tile chunks per group (not nnz) and belong to the
  // dominant dasp_tc pass; LightSpMV's dynamic row dispatch has no static
  // mapping to weigh at all.
  EXPECT_FALSE(weights_after_prepare(kern::Method::Dasp, "dasp_tc").empty());
  EXPECT_TRUE(weights_after_prepare(kern::Method::LightSpmv).empty());
}

TEST(Sched, PartitionChoiceNeverChangesNumerics) {
  // The split must only move warp boundaries between virtual SMs, never
  // results — for every kernel that installs weights and writes its own
  // rows (float-atomic kernels are order-dependent by design). Clearing the
  // weights the kernel installed selects the equal-count fallback.
  const mat::Csr a = mat::load_dataset("rma10", 0.01);
  auto y_with = [&](kern::Method m, bool balanced) {
    Device device = make_device(kOneWarp, 4);
    auto kernel = kern::make_kernel(m);
    kernel->prepare(device, a);
    if (!balanced) {
      device.set_warp_weights({});
      device.clear_launch_warp_weights();
    }
    std::vector<float> x(a.ncols);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = 0.7f - 0.004f * static_cast<float>(i % 331);
    }
    auto xb = device.memory().upload(x);
    auto y = device.memory().alloc<float>(a.nrows);
    (void)kernel->run(device, xb.cspan(), y.span());
    return y.host();
  };
  for (const kern::Method m : {kern::Method::Spaden, kern::Method::SpadenWide,
                               kern::Method::CusparseCsr, kern::Method::CsrWarp16}) {
    EXPECT_EQ(y_with(m, false), y_with(m, true)) << kern::method_name(m);
  }
}

// ----- latency model: exposed stalls ------------------------------------------

/// One disjoint cold cache line per warp, nothing else: every completion
/// latency is a DRAM miss and every issue interval is a handful of cycles,
/// so the exposed-stall total is known in closed form.
KernelStats run_one_line_per_warp(Device& device, std::uint64_t warps) {
  auto src = device.memory().upload(std::vector<float>(warps * kWarpSize, 1.0f), "stall.src");
  return device
      .launch("stall",
              warps,
              [&](WarpCtx& ctx, std::uint64_t w) {
                Lanes<std::uint32_t> idx;
                for (int lane = 0; lane < kWarpSize; ++lane) {
                  idx[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(
                      w * kWarpSize + static_cast<std::uint64_t>(lane));
                }
                (void)ctx.gather(src.cspan(), idx);
              })
      .stats;
}

TEST(Stall, HandScheduleExposesOneDramLatency) {
  // Two warps, two-warp window, one DRAM load each: neither warp fills its
  // scoreboard, so both bodies run back to back and the loads drain after
  // the last body returns. Warp 0's miss is covered only by the few cycles
  // it takes to issue warp 1's load (cost c), leaving L - c exposed; warp
  // 1's drain then exposes the remaining ~c. The issue cost cancels: total
  // exposed ~= one raw dram latency (the scoreboard model charges per-level
  // latencies undivided — parallelism is the slots themselves).
  Device one = make_device(kOneWarp);
  EXPECT_EQ(run_one_line_per_warp(one, 2).exposed_stall_cycles, 0u);

  Device rr = make_device({SchedPolicy::RoundRobin, 2});
  const DeviceSpec spec = l40();
  const std::uint64_t latency = spec.dram_latency_cycles;
  const std::uint64_t exposed = run_one_line_per_warp(rr, 2).exposed_stall_cycles;
  EXPECT_GE(exposed, latency - 64);
  EXPECT_LE(exposed, latency);
}

TEST(Stall, EstimateTimeAddsStallTerm) {
  const DeviceSpec spec = l40();
  KernelStats stats;
  stats.warps_launched = 4;
  stats.wavefronts = 1000;
  const TimeBreakdown base = estimate_time(spec, stats);
  EXPECT_EQ(base.t_stall, 0.0);

  // Stall cycles spread over min(warps, sm_count) SMs — a 4-warp launch
  // keeps 4 virtual SMs busy, so that is the divisor, not the full device —
  // derated by the calibrated exposure fraction (stall_exposure_ilv).
  stats.exposed_stall_cycles = 5'000'000;
  const TimeBreakdown stalled = estimate_time(spec, stats);
  const double expected = 5e6 * spec.stall_exposure_ilv / (4.0 * spec.clock_ghz * 1e9);
  EXPECT_DOUBLE_EQ(stalled.t_stall, expected);
  EXPECT_DOUBLE_EQ(stalled.total, base.total + expected);
  EXPECT_STREQ(stalled.bound_by(), "stall");

  // Component view: passing the parent's stall_sms keeps t_stall additive
  // across subsets (half the cycles -> half the term).
  KernelStats half = stats;
  half.exposed_stall_cycles = stats.exposed_stall_cycles / 2;
  const TimeBreakdown part = estimate_component_time(spec, half, 1.0, 4.0);
  EXPECT_DOUBLE_EQ(part.t_stall, expected / 2);
}

TEST(Stall, JsonKeysOnlyWhenStalled) {
  // A launch that never stalls keeps the pre-stall-model JSON shape:
  // exposed_stall_cycles / t_stall appear only when nonzero. Pure ALU work
  // has no memory op to wait on even with warps interleaving; one cold load
  // per warp exposes DRAM latency.
  auto profile_json = [](bool loads) {
    Device device = make_device({SchedPolicy::RoundRobin, 2});
    device.set_profile(true);
    if (loads) {
      run_one_line_per_warp(device, 2);
    } else {
      device.launch("alu", 2, [](WarpCtx& ctx, std::uint64_t) {
        ctx.charge(OpClass::Fma, 8 * kWarpSize);
      });
    }
    return report_json(device.profile_log()[0], /*include_sms=*/true);
  };
  const std::string alu = profile_json(false);
  EXPECT_EQ(alu.find("exposed_stall_cycles"), std::string::npos);
  EXPECT_EQ(alu.find("t_stall"), std::string::npos);
  const std::string stalled = profile_json(true);
  EXPECT_NE(stalled.find("exposed_stall_cycles"), std::string::npos);
  EXPECT_NE(stalled.find("t_stall"), std::string::npos);
}

// ----- engine defaults: shared L2 unless the env says otherwise ---------------

TEST(Sched, EngineDefaultEnvFlip) {
  const char* saved_l2 = std::getenv("SPADEN_SIM_SHARED_L2");
  const std::string saved_l2_value = saved_l2 != nullptr ? saved_l2 : "";

  // Engine default: shared L2.
  ::unsetenv("SPADEN_SIM_SHARED_L2");
  EXPECT_TRUE(default_engine_shared_l2());
  // The L2 env var always wins, in both directions.
  ::setenv("SPADEN_SIM_SHARED_L2", "1", 1);
  EXPECT_TRUE(default_engine_shared_l2());
  ::setenv("SPADEN_SIM_SHARED_L2", "0", 1);
  EXPECT_FALSE(default_engine_shared_l2());

  if (saved_l2 != nullptr) {
    ::setenv("SPADEN_SIM_SHARED_L2", saved_l2_value.c_str(), 1);
  } else {
    ::unsetenv("SPADEN_SIM_SHARED_L2");
  }
}

}  // namespace
}  // namespace spaden::sim
