// Regression tests for the interpreter fast paths: the
// host-performance work (decoded-block caching, launch-to-launch arena
// pooling, batched sector classification, scheduled fibers) speeds up the
// *host* simulation only. Each optimization must leave modeled counters,
// numerics and profiles bit-identical to the slow path it replaced — these
// tests pin that contract per optimization in isolation (the batched
// classification has its own reference test in test_controller.cpp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "gpusim/device.hpp"
#include "kernels/bitbsr_decode.hpp"
#include "kernels/kernel.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::kern {
namespace {

struct RunOut {
  std::vector<float> y;
  sim::KernelStats stats;
};

RunOut run_spaden(const mat::Csr& a, int threads, sim::SchedConfig sched) {
  sim::Device device(sim::l40());
  device.set_sim_threads(threads);
  device.set_shared_l2(false);  // slice L2: exact at any thread count
  device.set_sched(sched);
  auto kernel = make_kernel(Method::Spaden);
  kernel->prepare(device, a);
  std::vector<float> x(a.ncols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.7f - 0.004f * static_cast<float>(i % 331);
  }
  auto xb = device.memory().upload(x);
  auto y = device.memory().alloc<float>(a.nrows);
  const sim::LaunchResult result = kernel->run(device, xb.cspan(), y.span());
  return {y.host(), result.stats};
}

TEST(DecodeCache, OnOffBitIdentical) {
  // The determinism contract of BitBsrDecodeCache: on every block of a
  // power-law matrix, the cached decode yields the same lane values and
  // block column, and charges the same counters, as the per-bitmap decode
  // (cache = nullptr, the reference path).
  const mat::Csr a = mat::Csr::from_coo(mat::rmat(10, 8.0, 7));
  const mat::BitBsr bsr = mat::BitBsr::from_csr(a);
  BitBsrDecodeCache cache;
  cache.build(bsr);
  ASSERT_NE(cache.get(), nullptr);

  sim::Device device(sim::l40());
  device.set_sim_threads(1);
  const DeviceBitBsr dev = DeviceBitBsr::upload(device.memory(), bsr);
  const std::size_t blocks = bsr.num_blocks();
  auto decode_all = [&](const BitBsrDecodeCache* c, std::vector<DecodedBlock>& out) {
    out.assign(blocks, DecodedBlock{});
    device.flush_caches();
    return device
        .launch("decode", blocks,
                [&](sim::WarpCtx& ctx, std::uint64_t w) {
                  out[w] = decode_bitbsr_block(ctx, dev, static_cast<mat::Index>(w), c);
                })
        .stats;
  };
  std::vector<DecodedBlock> with_cache;
  std::vector<DecodedBlock> without_cache;
  EXPECT_EQ(decode_all(cache.get(), with_cache), decode_all(nullptr, without_cache));
  for (std::size_t b = 0; b < blocks; ++b) {
    ASSERT_EQ(with_cache[b].block_col, without_cache[b].block_col) << "block " << b;
    for (std::size_t lane = 0; lane < sim::kWarpSize; ++lane) {
      ASSERT_EQ(with_cache[b].a_val1[lane].bits(), without_cache[b].a_val1[lane].bits())
          << "block " << b << " lane " << lane;
      ASSERT_EQ(with_cache[b].a_val2[lane].bits(), without_cache[b].a_val2[lane].bits())
          << "block " << b << " lane " << lane;
    }
  }
}

TEST(ArenaPooling, ReusedDeviceMatchesFreshDevice) {
  // launch() reuses per-warp scratch (scheduler fibers, sanitizer and
  // profiler shards) across launches on one Device. Reuse must not leak
  // state: after a cache flush, a second launch on a warmed-up Device is
  // bit-identical — counters, numerics and the profile report — to the
  // only launch of a fresh Device.
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  auto profile_json = [](const sim::ProfileReport& p) {
    JsonWriter w;
    p.to_json(w);
    return w.take();
  };

  // Fresh device, single launch.
  sim::Device fresh(sim::l40());
  fresh.set_sim_threads(4);
  fresh.set_shared_l2(false);
  fresh.set_profile(true);
  auto fresh_kernel = make_kernel(Method::Spaden);
  fresh_kernel->prepare(fresh, a);
  std::vector<float> x(a.ncols, 0.5f);
  auto fresh_x = fresh.memory().upload(x);
  auto fresh_y = fresh.memory().alloc<float>(a.nrows);
  const sim::LaunchResult fresh_run =
      fresh_kernel->run(fresh, fresh_x.cspan(), fresh_y.span());

  // Reused device: warm-up launch populates the pools, flush resets the
  // cache models, then the second launch runs entirely on pooled scratch.
  sim::Device reused(sim::l40());
  reused.set_sim_threads(4);
  reused.set_shared_l2(false);
  reused.set_profile(true);
  auto reused_kernel = make_kernel(Method::Spaden);
  reused_kernel->prepare(reused, a);
  auto reused_x = reused.memory().upload(x);
  auto reused_y = reused.memory().alloc<float>(a.nrows);
  (void)reused_kernel->run(reused, reused_x.cspan(), reused_y.span());
  reused.flush_caches();
  const sim::LaunchResult second =
      reused_kernel->run(reused, reused_x.cspan(), reused_y.span());

  EXPECT_EQ(second.stats, fresh_run.stats);
  EXPECT_EQ(reused_y.host(), fresh_y.host());
  EXPECT_EQ(profile_json(second.profile), profile_json(fresh_run.profile));
}

TEST(CounterInvariance, WorkCountersStableAcrossThreadsAndPolicies) {
  // Partitioning warps over host threads must not change how much work is
  // simulated under the interleaving scheduler: per-warp work counters are
  // exact at any thread count (only latency-observation counters like
  // exposed_stall_cycles may legitimately depend on the partition).
  const mat::Csr a = mat::load_dataset("conf5", 0.01);
  const sim::SchedConfig cfg{sim::SchedPolicy::RoundRobin, 8};
  const sim::KernelStats serial = run_spaden(a, /*threads=*/1, cfg).stats;
  const sim::KernelStats threaded = run_spaden(a, /*threads=*/4, cfg).stats;
  EXPECT_EQ(serial.warps_launched, threaded.warps_launched);
  EXPECT_EQ(serial.mem_instructions, threaded.mem_instructions);
  EXPECT_EQ(serial.lane_loads, threaded.lane_loads);
  EXPECT_EQ(serial.lane_stores, threaded.lane_stores);
  EXPECT_EQ(serial.cuda_ops, threaded.cuda_ops);
  EXPECT_EQ(serial.tc_mma_m16n16k16, threaded.tc_mma_m16n16k16);
  EXPECT_EQ(serial.shuffle_lane_ops, threaded.shuffle_lane_ops);
  EXPECT_EQ(serial.wavefronts, threaded.wavefronts);
}

}  // namespace
}  // namespace spaden::kern
