// google-benchmark micro-benchmarks for the substrate hot paths: these are
// *host* wall-clock measurements of the library's own code (conversions,
// decode arithmetic, cache model, fragment emulation), complementing the
// modeled-GPU figure benches.
#include <benchmark/benchmark.h>

#include <bit>

#include "common/bitops.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/device.hpp"
#include "matrix/bitbsr.hpp"
#include "matrix/bsr.hpp"
#include "matrix/generate.hpp"
#include "tensorcore/wmma.hpp"

namespace {

using namespace spaden;

void BM_HalfFromFloat(benchmark::State& state) {
  Rng rng(1);
  std::vector<float> values(4096);
  for (auto& v : values) {
    v = rng.next_float(-100.0f, 100.0f);
  }
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (const float v : values) {
      acc += half(v).bits();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_HalfFromFloat);

void BM_HalfToFloat(benchmark::State& state) {
  std::vector<half> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = half::from_bits(static_cast<std::uint16_t>(i * 7 + 13));
  }
  for (auto _ : state) {
    float acc = 0;
    for (const half h : values) {
      acc += h.is_nan() ? 0.0f : h.to_float();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_HalfToFloat);

void BM_BitmapDecode(benchmark::State& state) {
  // The Algorithm 2 inner arithmetic: per-lane bit test + prefix popcount.
  Rng rng(2);
  std::vector<std::uint64_t> bitmaps(1024);
  for (auto& b : bitmaps) {
    b = rng.next_u64();
  }
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const std::uint64_t bmp : bitmaps) {
      for (unsigned lane = 0; lane < 32; ++lane) {
        const unsigned pos = 2 * lane;
        if (test_bit(bmp, pos)) {
          acc += static_cast<unsigned>(prefix_popcount(bmp, pos));
        }
        if (test_bit(bmp, pos + 1)) {
          acc += static_cast<unsigned>(prefix_popcount(bmp, pos + 1));
        }
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(bitmaps.size()) * 64);
}
BENCHMARK(BM_BitmapDecode);

void BM_CsrToBitBsr(benchmark::State& state) {
  const auto nnz = static_cast<std::size_t>(state.range(0));
  const mat::Csr a = mat::Csr::from_coo(
      mat::random_uniform(static_cast<mat::Index>(nnz / 16), static_cast<mat::Index>(nnz / 16),
                          nnz, 3));
  for (auto _ : state) {
    const mat::BitBsr b = mat::BitBsr::from_csr(a);
    benchmark::DoNotOptimize(b.values.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(nnz));
}
BENCHMARK(BM_CsrToBitBsr)->Arg(1 << 14)->Arg(1 << 17);

void BM_CsrToBsr(benchmark::State& state) {
  const auto nnz = static_cast<std::size_t>(state.range(0));
  const mat::Csr a = mat::Csr::from_coo(
      mat::random_uniform(static_cast<mat::Index>(nnz / 16), static_cast<mat::Index>(nnz / 16),
                          nnz, 4));
  for (auto _ : state) {
    const mat::Bsr b = mat::Bsr::from_csr(a, 8);
    benchmark::DoNotOptimize(b.val.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(nnz));
}
BENCHMARK(BM_CsrToBsr)->Arg(1 << 14)->Arg(1 << 17);

void BM_SectorCacheAccess(benchmark::State& state) {
  sim::SectorCache cache(6ull * 1024 * 1024, 16);
  Rng rng(5);
  std::vector<std::uint64_t> addrs(8192);
  for (auto& a : addrs) {
    a = rng.next_below(1u << 24) * 32;
  }
  for (auto _ : state) {
    std::uint64_t hits = 0;
    for (const std::uint64_t a : addrs) {
      hits += cache.access(a) ? 1u : 0u;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_SectorCacheAccess);

/// Fragment shapes wmma_mma treats differently.
enum class MmaShape {
  Dense,          // every portion populated: the full 16x16x16 loop
  SpadenPairing,  // two 8x8 blocks on the diagonal, x-segment broadcast in B (SpMV)
  FusedSpmm,      // two 8x8 blocks on the diagonal, 8 distinct B columns (SpMM)
};

void BM_WmmaEmulation(benchmark::State& state, MmaShape shape) {
  constexpr unsigned kMmasPerLaunch = 256;
  sim::Device device(sim::l40());
  Rng rng(7);
  tc::FragA a;
  tc::FragB b;
  tc::FragAcc acc;  // +0: accumulator rows start uniform
  for (unsigned lane = 0; lane < tc::kLanes; ++lane) {
    for (unsigned reg = 0; reg < tc::kRegsPerLane; ++reg) {
      const bool diagonal = reg < 2 || reg >= 6;
      if (shape != MmaShape::Dense && !diagonal) {
        continue;  // off-diagonal portions stay +0
      }
      a.x(lane, reg) = half(rng.next_float(-1.0f, 1.0f));
      // B lanes 0..3 hold column 0; the others repeat it when broadcast.
      b.x(lane, reg) = shape == MmaShape::SpadenPairing && lane >= 4
                           ? b.x(lane % 4, reg)
                           : half(rng.next_float(-1.0f, 1.0f));
    }
  }
  for (auto _ : state) {
    device.launch("bm", 1, [&](sim::WarpCtx& ctx, std::uint64_t) {
      for (unsigned i = 0; i < kMmasPerLaunch; ++i) {
        tc::wmma_mma(ctx, acc, a, b, acc);
      }
    });
    benchmark::DoNotOptimize(acc.x(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * kMmasPerLaunch);
  state.counters["s_per_mma"] = benchmark::Counter(
      kMmasPerLaunch, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_WmmaEmulation, dense, MmaShape::Dense)->UseRealTime();
BENCHMARK_CAPTURE(BM_WmmaEmulation, spaden_pairing, MmaShape::SpadenPairing)->UseRealTime();
BENCHMARK_CAPTURE(BM_WmmaEmulation, fused_spmm, MmaShape::FusedSpmm)->UseRealTime();

void BM_HostSpmvBitBsr(benchmark::State& state) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(2048, 2048, 65536, 6));
  const mat::BitBsr b = mat::BitBsr::from_csr(a);
  const std::vector<float> x(2048, 1.0f);
  for (auto _ : state) {
    const auto y = spmv_host(b, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_HostSpmvBitBsr);

}  // namespace

BENCHMARK_MAIN();
