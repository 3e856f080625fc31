// WMMA emulation: load/store/MMA numerics and charging.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/error.hpp"

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "tensorcore/wmma.hpp"

namespace spaden::tc {
namespace {

sim::Device make_device() { return sim::Device(sim::l40()); }

TEST(Wmma, MmaMatchesDenseReference) {
  // Property: D = A*B + C with half inputs equals a double-precision dense
  // reference within fp32 accumulation error.
  spaden::Rng rng(11);
  std::array<std::array<half, kFragDim>, kFragDim> am{};
  std::array<std::array<half, kFragDim>, kFragDim> bm{};
  std::array<std::array<float, kFragDim>, kFragDim> cm{};
  for (unsigned i = 0; i < kFragDim; ++i) {
    for (unsigned j = 0; j < kFragDim; ++j) {
      am[i][j] = half(rng.next_float(-1.0f, 1.0f));
      bm[i][j] = half(rng.next_float(-1.0f, 1.0f));
      cm[i][j] = rng.next_float(-1.0f, 1.0f);
    }
  }
  FragA a;
  FragB b;
  FragAcc c;
  FragAcc d;
  a.from_matrix(am);
  b.from_matrix(bm);
  c.from_matrix(cm);

  auto dev = make_device();
  auto result = dev.launch("mma", 1, [&](sim::WarpCtx& ctx, std::uint64_t) {
    wmma_mma(ctx, d, a, b, c);
  });
  EXPECT_EQ(result.stats.tc_mma_m16n16k16, 1u);

  const auto dm = d.to_matrix();
  for (unsigned i = 0; i < kFragDim; ++i) {
    for (unsigned j = 0; j < kFragDim; ++j) {
      double ref = cm[i][j];
      for (unsigned k = 0; k < kFragDim; ++k) {
        ref += static_cast<double>(am[i][k].to_float()) *
               static_cast<double>(bm[k][j].to_float());
      }
      EXPECT_NEAR(dm[i][j], ref, 1e-4) << i << "," << j;
    }
  }
}

TEST(Wmma, MmaWithZeroOffDiagonalBlocksKeepsBlocksIndependent) {
  // Spaden's usage: A and B hold two 8x8 blocks placed diagonally; the MMA
  // must not mix them (off-diagonal portions are zero).
  FragA a;
  FragB b;
  FragAcc acc;
  std::array<std::array<half, kFragDim>, kFragDim> am{};
  std::array<std::array<half, kFragDim>, kFragDim> bm{};
  for (unsigned i = 0; i < 8; ++i) {
    for (unsigned j = 0; j < 8; ++j) {
      am[i][j] = half(1.0f);           // TL block: all ones
      am[8 + i][8 + j] = half(2.0f);   // BR block: all twos
      bm[i][j] = half(3.0f);
      bm[8 + i][8 + j] = half(5.0f);
    }
  }
  a.from_matrix(am);
  b.from_matrix(bm);
  auto dev = make_device();
  dev.launch("mma", 1, [&](sim::WarpCtx& ctx, std::uint64_t) {
    wmma_mma(ctx, acc, a, b, acc);
  });
  // Compared as bit patterns, so a -0 where +0 belongs fails too.
  const auto dm = acc.to_matrix();
  for (unsigned i = 0; i < kFragDim; ++i) {
    for (unsigned j = 0; j < kFragDim; ++j) {
      float want = 0.0f;                 // cross terms vanish
      if (i < 8 && j < 8) {
        want = 8.0f * 1.0f * 3.0f;       // TL·TL
      } else if (i >= 8 && j >= 8) {
        want = 8.0f * 2.0f * 5.0f;       // BR·BR
      }
      EXPECT_EQ(std::bit_cast<std::uint32_t>(dm[i][j]), std::bit_cast<std::uint32_t>(want))
          << i << "," << j;
    }
  }
}

// --- wmma_mma against wmma_mma_reference, bit for bit -----------------------

constexpr std::uint16_t kHalfNegZero = 0x8000u;
constexpr std::uint16_t kHalfInf = 0x7C00u;
constexpr std::uint16_t kHalfNan = 0x7E00u;
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Finite halves, heavy on the values whose products and sums are easy to
/// get wrong: ±0, subnormals, the extremes.
half finite_half(spaden::Rng& rng) {
  switch (rng.next_below(8)) {
    case 0:
      return half::from_bits(rng.next_bool(0.5) ? 0 : kHalfNegZero);
    case 1:  // subnormal, either sign
      return half::from_bits(static_cast<std::uint16_t>(
          (rng.next_bool(0.5) ? kHalfNegZero : 0u) | (1u + rng.next_below(0x3FF))));
    case 2:
      return rng.next_bool(0.5) ? half::max() : -half::max();
    default:
      return half(rng.next_float(-4.0f, 4.0f));
  }
}

/// Accumulator values for the diagonal portions: anything, including -0,
/// NaN, ±Inf and magnitudes the chain overflows from.
float any_float(spaden::Rng& rng) {
  switch (rng.next_below(10)) {
    case 0:
      return rng.next_bool(0.5) ? 0.0f : -0.0f;
    case 1:
      return rng.next_bool(0.5) ? kInf : -kInf;
    case 2:
      return std::numeric_limits<float>::quiet_NaN();
    case 3:
      return rng.next_bool(0.5) ? std::numeric_limits<float>::max()
                                : -std::numeric_limits<float>::max();
    case 4:
      return std::numeric_limits<float>::denorm_min();
    default:
      return rng.next_float(-100.0f, 100.0f);
  }
}

/// Off-diagonal accumulator values the fast path accepts: finite, not -0.
float offdiag_float(spaden::Rng& rng) {
  for (;;) {
    const float v = any_float(rng);
    if (std::isfinite(v) && std::bit_cast<std::uint32_t>(v) != 0x8000'0000u) {
      return v;
    }
  }
}

struct MmaCase {
  FragA a;
  FragB b;
  FragAcc c;
};

constexpr unsigned kDiagRegs[] = {0, 1, 6, 7};
constexpr unsigned kOffDiagRegs[] = {2, 3, 4, 5};

float signed_zero(spaden::Rng& rng) { return rng.next_bool(0.5) ? 0.0f : -0.0f; }

/// Block-diagonal operands as Spaden pairs them: off-diagonal A and B halves
/// +0. With `broadcast`, each diagonal B portion repeats one column and each
/// C row within a diagonal portion repeats one value, as in the SpMV kernel.
/// With `zeros`, the diagonal A, B and C values are all ±0, so that many
/// results hinge on whether -0 + +0 was added where the reference adds it.
MmaCase block_diagonal_case(spaden::Rng& rng, bool broadcast, bool zeros) {
  MmaCase m;
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    for (const unsigned reg : kDiagRegs) {
      m.a.x(lane, reg) = zeros ? half(signed_zero(rng)) : finite_half(rng);
      // B lane `lane` holds column lane/4: lanes 0..3 hold column 0.
      m.b.x(lane, reg) = broadcast && lane >= 4 ? m.b.x(lane % 4, reg)
                         : zeros               ? half(signed_zero(rng))
                                               : finite_half(rng);
      // C lane `lane` holds row lane/4: lane lane&~3, reg0 is its first entry.
      const unsigned reg0 = reg & ~1u;
      const bool first = (lane % 4) == 0 && reg == reg0;
      m.c.x(lane, reg) = broadcast && !first ? m.c.x(lane & ~3u, reg0)
                         : zeros             ? signed_zero(rng)
                                             : any_float(rng);
    }
    for (const unsigned reg : kOffDiagRegs) {
      m.c.x(lane, reg) = offdiag_float(rng);
    }
  }
  return m;
}

void expect_bitwise_equal(const FragAcc& got, const FragAcc& want, const char* what,
                          unsigned trial) {
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    for (unsigned reg = 0; reg < kRegsPerLane; ++reg) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got.x(lane, reg)),
                std::bit_cast<std::uint32_t>(want.x(lane, reg)))
          << what << " trial " << trial << " lane " << lane << " reg " << reg;
    }
  }
}

/// One random (lane, reg) among `regs`.
std::pair<unsigned, unsigned> pick(spaden::Rng& rng, const unsigned (&regs)[4]) {
  return {static_cast<unsigned>(rng.next_below(kLanes)), regs[rng.next_below(4)]};
}

TEST(Wmma, MmaMatchesReferenceBitForBit) {
  // Every fragment shape wmma_mma distinguishes: eligible block-diagonal
  // with and without column broadcast, a broadcast broken in B or in C
  // alone, each single condition that must send it to the full loop, and d
  // aliasing c. All 256 accumulator bit patterns must equal the reference
  // loop's.
  using Mutate = void (*)(spaden::Rng&, MmaCase&);
  const std::pair<const char*, Mutate> mutations[] = {
      {"eligible", [](spaden::Rng&, MmaCase&) {}},
      {"offdiag A nonzero",
       [](spaden::Rng& rng, MmaCase& m) {
         const auto [l, r] = pick(rng, kOffDiagRegs);
         m.a.x(l, r) = rng.next_bool(0.5) ? half::from_bits(kHalfNegZero) : half(1.5f);
       }},
      {"offdiag B nonzero",
       [](spaden::Rng& rng, MmaCase& m) {
         const auto [l, r] = pick(rng, kOffDiagRegs);
         m.b.x(l, r) = rng.next_bool(0.5) ? half::from_bits(kHalfNegZero) : half(-0.75f);
       }},
      {"offdiag C -0",
       [](spaden::Rng& rng, MmaCase& m) {
         const auto [l, r] = pick(rng, kOffDiagRegs);
         m.c.x(l, r) = -0.0f;
       }},
      {"offdiag C NaN",
       [](spaden::Rng& rng, MmaCase& m) {
         // Adding +0 quiets a signaling NaN, so C cannot be copied through.
         const auto [l, r] = pick(rng, kOffDiagRegs);
         m.c.x(l, r) = rng.next_bool(0.5) ? std::numeric_limits<float>::quiet_NaN()
                                          : std::numeric_limits<float>::signaling_NaN();
       }},
      {"offdiag C Inf",
       [](spaden::Rng& rng, MmaCase& m) {
         const auto [l, r] = pick(rng, kOffDiagRegs);
         m.c.x(l, r) = rng.next_bool(0.5) ? kInf : -kInf;
       }},
      {"diag B column differs",
       [](spaden::Rng& rng, MmaCase& m) {
         const unsigned lane = 4 + static_cast<unsigned>(rng.next_below(kLanes - 4));
         const unsigned reg = kDiagRegs[rng.next_below(4)];
         m.b.x(lane, reg) = half::from_bits(m.b.x(lane, reg).bits() ^ kHalfNegZero);
       }},
      {"diag C row differs",
       [](spaden::Rng& rng, MmaCase& m) {
         const auto [l, r] = pick(rng, kDiagRegs);
         m.c.x(l, r) = std::bit_cast<float>(std::bit_cast<std::uint32_t>(m.c.x(l, r)) ^
                                            0x8000'0000u);
       }},
      {"diag A Inf/NaN",
       [](spaden::Rng& rng, MmaCase& m) {
         const auto [l, r] = pick(rng, kDiagRegs);
         m.a.x(l, r) = half::from_bits(rng.next_bool(0.5) ? kHalfInf : kHalfNan);
       }},
      {"diag B Inf/NaN",
       [](spaden::Rng& rng, MmaCase& m) {
         const auto [l, r] = pick(rng, kDiagRegs);
         m.b.x(l, r) = half::from_bits(rng.next_bool(0.5) ? kHalfInf : kHalfNan);
       }},
  };
  spaden::Rng rng(20241);
  auto dev = make_device();
  dev.launch("mma-diff", 1, [&](sim::WarpCtx& ctx, std::uint64_t) {
    for (unsigned trial = 0; trial < 200; ++trial) {
      for (const auto& [what, mutate] : mutations) {
        MmaCase m = block_diagonal_case(rng, /*broadcast=*/trial % 2 == 0,
                                        /*zeros=*/trial % 4 >= 2);
        mutate(rng, m);
        FragAcc want;
        wmma_mma_reference(want, m.a, m.b, m.c);
        FragAcc got;
        wmma_mma(ctx, got, m.a, m.b, m.c);
        expect_bitwise_equal(got, want, what, trial);
        FragAcc aliased = m.c;
        wmma_mma(ctx, aliased, m.a, m.b, aliased);
        expect_bitwise_equal(aliased, want, what, trial);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  });
}

TEST(Wmma, LoadStoreRoundTrip) {
  auto dev = make_device();
  std::vector<half> host(kFragDim * kFragDim);
  for (std::size_t i = 0; i < host.size(); ++i) {
    host[i] = half(static_cast<float>(i % 97));
  }
  auto src = dev.memory().upload(host);
  auto dst = dev.memory().alloc<float>(kFragDim * kFragDim);

  FragA a;
  FragAcc acc;
  auto result = dev.launch("ls", 1, [&](sim::WarpCtx& ctx, std::uint64_t) {
    wmma_load(ctx, a, src.cspan(), 0, kFragDim);
    // Copy A into the accumulator via dense views to exercise store.
    const auto am = a.to_matrix();
    std::array<std::array<float, kFragDim>, kFragDim> fm{};
    for (unsigned r = 0; r < kFragDim; ++r) {
      for (unsigned c = 0; c < kFragDim; ++c) {
        fm[r][c] = am[r][c].to_float();
      }
    }
    acc.from_matrix(fm);
    wmma_store(ctx, dst.span(), 0, acc, kFragDim);
  });
  for (std::size_t i = 0; i < host.size(); ++i) {
    EXPECT_EQ(dst.host()[i], host[i].to_float());
  }
  // The conventional path pays memory traffic + staging ops (paper §3's
  // indirection) — visible in the counters.
  EXPECT_GT(result.stats.cuda_ops, 500u);
  EXPECT_GT(result.stats.wavefronts, 20u);
}

TEST(Wmma, LoadRespectsLeadingDimension) {
  auto dev = make_device();
  const unsigned ld = 20;
  std::vector<half> host(kFragDim * ld);
  for (unsigned r = 0; r < kFragDim; ++r) {
    for (unsigned c = 0; c < ld; ++c) {
      host[r * ld + c] = half(static_cast<float>(r * 1000 + c));
    }
  }
  auto src = dev.memory().upload(host);
  FragA a;
  dev.launch("ld", 1, [&](sim::WarpCtx& ctx, std::uint64_t) {
    wmma_load(ctx, a, src.cspan(), 2, ld);  // offset 2 into each row
  });
  const auto am = a.to_matrix();
  EXPECT_EQ(am[3][4].to_float(), 3000.0f + 2 + 4);
}

TEST(Wmma, LoadOutOfBoundsRejected) {
  auto dev = make_device();
  auto src = dev.memory().alloc<half>(100);  // too small for 16x16
  FragA a;
  EXPECT_THROW(dev.launch("bad", 1,
                          [&](sim::WarpCtx& ctx, std::uint64_t) {
                            wmma_load(ctx, a, src.cspan(), 0, kFragDim);
                          }),
               spaden::Error);
}

TEST(Mma884, MatchesReferenceAndCharges) {
  spaden::Rng rng(13);
  half a[32];
  half b[32];
  float d[64] = {};
  for (int i = 0; i < 32; ++i) {
    a[i] = half(rng.next_float(-1.0f, 1.0f));
    b[i] = half(rng.next_float(-1.0f, 1.0f));
  }
  auto dev = make_device();
  auto result = dev.launch("m884", 1, [&](sim::WarpCtx& ctx, std::uint64_t) {
    mma_m8n8k4(ctx, d, a, b);
  });
  EXPECT_EQ(result.stats.tc_mma_m8n8k4, 1u);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      double ref = 0;
      for (int k = 0; k < 4; ++k) {
        ref += static_cast<double>(a[i * 4 + k].to_float()) *
               static_cast<double>(b[k * 8 + j].to_float());
      }
      EXPECT_NEAR(d[i * 8 + j], ref, 1e-5);
    }
  }
}

}  // namespace
}  // namespace spaden::tc
