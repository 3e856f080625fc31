#include "tensorcore/wmma.hpp"

#include <bit>
#include <cstring>

namespace spaden::tc {

namespace {

/// Charge the shared-memory staging the conventional WMMA path performs:
/// each of the 256 fragment elements is stored to and re-loaded from shared
/// memory by the warp (paper §3: "The use of shared memory introduces an
/// additional level of indirection").
void charge_shared_staging(sim::WarpCtx& ctx) {
  constexpr std::uint64_t kElems = kFragDim * kFragDim;
  ctx.charge(sim::OpClass::IntAlu, kElems);   // shared-store address math + st.shared
  ctx.charge(sim::OpClass::IntAlu, kElems);   // ld.shared back into the fragment
  ctx.charge(sim::OpClass::RegMove, kElems);  // fragment register fill
}

using HalfRegs = std::array<std::array<half, kRegsPerLane>, kLanes>;
using FloatRegs = std::array<std::array<float, kRegsPerLane>, kLanes>;

// Register pairs of the portions (fragment.hpp): the diagonal ones are
// top-left x[0,1] and bottom-right x[6,7]; x[2..5] hold the off-diagonal
// bottom-left and top-right portions.
constexpr unsigned kTopLeftReg = portion_pair(0, 0) * 2;
constexpr unsigned kBottomRightReg = portion_pair(1, 1) * 2;
constexpr unsigned kOffDiagFirstReg = 2;
constexpr unsigned kOffDiagEndReg = 6;

/// Exact binary16 -> binary32 promotion of a finite half: the magnitude bits
/// shifted into place read as a float 2^-112 times the half's value (normal
/// and subnormal alike), so one exact scaling by 2^112 rebiases it; the sign
/// is OR'd back in afterwards so that -0 stays -0.
[[nodiscard]] float promote_finite(std::uint32_t bits) {
  const float magnitude = std::bit_cast<float>((bits & 0x7FFFu) << 13) * 0x1p112f;
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(magnitude) |
                              ((bits & 0x8000u) << 16));
}

/// True when every product that touches an off-diagonal portion is a signed
/// zero that cannot change what it is added to: A's and B's off-diagonal
/// halves are all +0, all their halves are finite (so no Inf*0 = NaN), and
/// C's off-diagonal elements are finite and not -0 (-0 + +0 is +0).
/// The registers are tested four halves or two floats per 64-bit word, with
/// no branch: adding one exponent LSB to an exponent field carries into the
/// bit above it only when the field is all ones (Inf or NaN), and
/// (v - 1) & ~v has a field's top bit set only if some field of v is zero.
[[nodiscard]] bool block_diagonal(const HalfRegs& a, const HalfRegs& b, const FloatRegs& c) {
  constexpr std::uint64_t kHalfExp4 = 0x7C00'7C00'7C00'7C00ull;
  constexpr std::uint64_t kHalfExpLsb4 = 0x0400'0400'0400'0400ull;
  constexpr std::uint64_t kHalfTop4 = 0x8000'8000'8000'8000ull;
  constexpr std::uint64_t kFloatExp2 = 0x7F80'0000'7F80'0000ull;
  constexpr std::uint64_t kFloatExpLsb2 = 0x0080'0000'0080'0000ull;
  constexpr std::uint64_t kFloatTop2 = 0x8000'0000'8000'0000ull;
  constexpr std::uint64_t kFloatOne2 = 0x0000'0001'0000'0001ull;
  std::uint64_t off_ab = 0;      // OR of A's and B's off-diagonal halves
  std::uint64_t non_finite = 0;  // some half's exponent field carried out
  std::uint64_t off_c_bad = 0;   // some off-diagonal float is Inf, NaN or -0
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    std::uint64_t ab[2] = {};
    std::uint64_t bb[2] = {};
    std::memcpy(ab, a[lane].data(), sizeof ab);
    std::memcpy(bb, b[lane].data(), sizeof bb);
    for (unsigned w = 0; w < 2; ++w) {
      non_finite |= ((ab[w] & kHalfExp4) + kHalfExpLsb4) | ((bb[w] & kHalfExp4) + kHalfExpLsb4);
    }
    std::uint64_t a_off = 0;
    std::uint64_t b_off = 0;
    std::memcpy(&a_off, &a[lane][kOffDiagFirstReg], sizeof a_off);
    std::memcpy(&b_off, &b[lane][kOffDiagFirstReg], sizeof b_off);
    off_ab |= a_off | b_off;
    std::uint64_t cw[2] = {};
    std::memcpy(cw, &c[lane][kOffDiagFirstReg], sizeof cw);
    for (const std::uint64_t v : cw) {
      const std::uint64_t neg_zero_diff = v ^ kFloatTop2;  // a field is 0 iff that float is -0
      off_c_bad |= ((v & kFloatExp2) + kFloatExpLsb2) |
                   ((neg_zero_diff - kFloatOne2) & ~neg_zero_diff);
    }
  }
  static_assert(kOffDiagEndReg - kOffDiagFirstReg == 4, "off-diagonal registers fill one word");
  return off_ab == 0 && (non_finite & kHalfTop4) == 0 && (off_c_bad & kFloatTop2) == 0;
}

/// Writes D's diagonal portion at {reg0, reg0+1} for a block_diagonal()
/// fragment: the ascending-k chain over the portion's own 8 products on C,
/// plus one +0.0f that stands in for the 8 +0*+0 products of the other k
/// half — first when those products precede the chain (kZerosFirst), last
/// when they follow it. One +0.0f is exact: adding +0 turns -0 into +0 and
/// is the identity on every other value, so adding it again changes nothing.
/// When B's 8 columns are bitwise identical and every C row is one repeated
/// value (Spaden's broadcast x-segment), every column is the same chain, so
/// one is computed and copied.
///
/// Within a portion lane `lane` holds major index lane/4 and minor indices
/// 2*(lane%4) and +1 (registers reg0, reg0+1): row and column for A and the
/// accumulator, column and row for B (fragment.hpp). So row i of A, C and D
/// lives in lanes 4i..4i+3, element (i, m) in lane 4i + m/2, register
/// reg0 + m%2; B's column j likewise.
template <bool kZerosFirst>
void diagonal_portion(FloatRegs& d, const HalfRegs& a, const HalfRegs& b, const FloatRegs& c,
                      unsigned reg0) {
  std::uint32_t b_diff = 0;  // B column vs column 0, as half pairs
  std::uint64_t c_diff = 0;  // C row element vs the row's first, as float pairs
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    std::uint32_t bp = 0;
    std::uint32_t bp0 = 0;
    std::memcpy(&bp, &b[lane][reg0], sizeof bp);
    std::memcpy(&bp0, &b[lane % 4][reg0], sizeof bp0);
    std::uint64_t cp = 0;
    std::memcpy(&cp, &c[lane][reg0], sizeof cp);
    const std::uint64_t c0 = std::bit_cast<std::uint32_t>(c[lane & ~3u][reg0]);
    b_diff |= bp ^ bp0;
    c_diff |= cp ^ (c0 | c0 << 32);
  }
  if ((b_diff | c_diff) == 0) {
    float b0[kPortionDim] = {};  // column 0 of B: lanes 0..3
    for (unsigned k = 0; k < kPortionDim; ++k) {
      b0[k] = promote_finite(b[k / 2][reg0 + k % 2].bits());
    }
    for (unsigned i = 0; i < kPortionDim; ++i) {
      float acc = c[4 * i][reg0];
      if (kZerosFirst) {
        acc += 0.0f;
      }
      for (unsigned k = 0; k < kPortionDim; ++k) {
        acc += promote_finite(a[4 * i + k / 2][reg0 + k % 2].bits()) * b0[k];
      }
      if (!kZerosFirst) {
        acc += 0.0f;
      }
      for (unsigned m = 0; m < kPortionDim; ++m) {
        d[4 * i + m / 2][reg0 + m % 2] = acc;
      }
    }
    return;
  }
  float bm[kPortionDim][kPortionDim] = {};  // B, [k][j]
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    for (unsigned r = 0; r < 2; ++r) {
      bm[2 * (lane % 4) + r][lane / 4] = promote_finite(b[lane][reg0 + r].bits());
    }
  }
  for (unsigned i = 0; i < kPortionDim; ++i) {
    float row[kPortionDim] = {};  // C's row i on entry, D's on exit
    for (unsigned j = 0; j < kPortionDim; ++j) {
      row[j] = c[4 * i + j / 2][reg0 + j % 2];
      if (kZerosFirst) {
        row[j] += 0.0f;
      }
    }
    for (unsigned k = 0; k < kPortionDim; ++k) {
      const float av = promote_finite(a[4 * i + k / 2][reg0 + k % 2].bits());
      for (unsigned j = 0; j < kPortionDim; ++j) {
        row[j] += av * bm[k][j];
      }
    }
    for (unsigned j = 0; j < kPortionDim; ++j) {
      if (!kZerosFirst) {
        row[j] += 0.0f;
      }
      d[4 * i + j / 2][reg0 + j % 2] = row[j];
    }
  }
}

}  // namespace

template <typename Frag>
void wmma_load(sim::WarpCtx& ctx, Frag& frag, sim::DSpan<const half> src, std::size_t offset,
               unsigned ld) {
  SPADEN_REQUIRE(ld >= kFragDim, "leading dimension %u < fragment dim", ld);
  SPADEN_REQUIRE(offset + (kFragDim - 1) * static_cast<std::size_t>(ld) + kFragDim <=
                     src.size,
                 "wmma_load out of bounds");
  // Global traffic: 256 half values gathered by the warp in 8 coalesced
  // instructions (one 16-element half-pair row chunk per lane).
  std::array<std::array<half, kFragDim>, kFragDim> m{};
  constexpr unsigned kChunks = kFragDim * kFragDim / sim::kWarpSize;  // 8
  for (unsigned chunk = 0; chunk < kChunks; ++chunk) {
    sim::Lanes<std::uint32_t> idx{};
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      const unsigned e = chunk * sim::kWarpSize + lane;  // 0..255 row-major
      const unsigned r = e / kFragDim;
      const unsigned c = e % kFragDim;
      idx[lane] = static_cast<std::uint32_t>(offset + static_cast<std::size_t>(r) * ld + c);
    }
    const sim::Lanes<half> vals = ctx.gather(src, idx);
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      const unsigned e = chunk * sim::kWarpSize + lane;
      m[e / kFragDim][e % kFragDim] = vals[lane];
    }
  }
  frag.from_matrix(m);
  charge_shared_staging(ctx);
}

void wmma_store(sim::WarpCtx& ctx, sim::DSpan<float> dst, std::size_t offset,
                const FragAcc& acc, unsigned ld) {
  SPADEN_REQUIRE(ld >= kFragDim, "leading dimension %u < fragment dim", ld);
  SPADEN_REQUIRE(offset + (kFragDim - 1) * static_cast<std::size_t>(ld) + kFragDim <=
                     dst.size,
                 "wmma_store out of bounds");
  const auto m = acc.to_matrix();
  constexpr unsigned kChunks = kFragDim * kFragDim / sim::kWarpSize;  // 8
  for (unsigned chunk = 0; chunk < kChunks; ++chunk) {
    sim::Lanes<std::uint32_t> idx{};
    sim::Lanes<float> vals{};
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      const unsigned e = chunk * sim::kWarpSize + lane;
      const unsigned r = e / kFragDim;
      const unsigned c = e % kFragDim;
      idx[lane] = static_cast<std::uint32_t>(offset + static_cast<std::size_t>(r) * ld + c);
      vals[lane] = m[r][c];
    }
    ctx.scatter(dst, idx, vals);
  }
  charge_shared_staging(ctx);
}

void wmma_mma_reference(FragAcc& d, const FragA& a, const FragB& b, const FragAcc& c) {
  // Tensor-core numerics: binary16 operands promoted exactly to fp32,
  // products and sums accumulated in fp32. Each operand element is converted
  // once up front (promotion is exact, so converting once or per product is
  // the same value). The i-k-j loop order lets the compiler vectorize the
  // inner j loop; each dm[i][j] still accumulates its products in ascending
  // k order, so every output element's operation chain — and with it the
  // result — matches the reference i-j-k triple loop bit for bit.
  const FragCoordTable& ta = frag_coord_table(FragUse::MatrixA);
  const FragCoordTable& tb = frag_coord_table(FragUse::MatrixB);
  const FragCoordTable& tacc = frag_coord_table(FragUse::Accumulator);
  float af[kFragDim][kFragDim];  // A, row-major
  float bm[kFragDim][kFragDim];  // B, row-major
  float dm[kFragDim][kFragDim];  // C on entry, D on exit
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    for (unsigned reg = 0; reg < kRegsPerLane; ++reg) {
      const unsigned e = lane * kRegsPerLane + reg;
      const Coord ca = ta.at[e];
      const Coord cb = tb.at[e];
      const Coord cc = tacc.at[e];
      af[ca.row][ca.col] = a.x(lane, reg).to_float();
      bm[cb.row][cb.col] = b.x(lane, reg).to_float();
      dm[cc.row][cc.col] = c.x(lane, reg);
    }
  }
  for (unsigned i = 0; i < kFragDim; ++i) {
    for (unsigned k = 0; k < kFragDim; ++k) {
      const float av = af[i][k];
      for (unsigned j = 0; j < kFragDim; ++j) {
        dm[i][j] += av * bm[k][j];
      }
    }
  }
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    for (unsigned reg = 0; reg < kRegsPerLane; ++reg) {
      const Coord cc = tacc.at[lane * kRegsPerLane + reg];
      d.x(lane, reg) = dm[cc.row][cc.col];
    }
  }
}

void wmma_mma(sim::WarpCtx& ctx, FragAcc& d, const FragA& a, const FragB& b,
              const FragAcc& c) {
  const HalfRegs& ar = a.regs();
  const HalfRegs& br = b.regs();
  const FloatRegs& cr = c.regs();
  if (block_diagonal(ar, br, cr)) {
    FloatRegs& dr = d.regs();
    // k = 0..7 come before the top-left portion's +0*+0 products, after the
    // bottom-right portion's.
    diagonal_portion</*kZerosFirst=*/false>(dr, ar, br, cr, kTopLeftReg);
    diagonal_portion</*kZerosFirst=*/true>(dr, ar, br, cr, kBottomRightReg);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      for (unsigned reg = kOffDiagFirstReg; reg < kOffDiagEndReg; ++reg) {
        dr[lane][reg] = cr[lane][reg];
      }
    }
  } else {
    wmma_mma_reference(d, a, b, c);
  }
  ++ctx.stats().tc_mma_m16n16k16;
}

void mma_m8n8k4(sim::WarpCtx& ctx, float* d, const half* a, const half* b) {
  for (unsigned i = 0; i < 8; ++i) {
    for (unsigned j = 0; j < 8; ++j) {
      float acc = d[i * 8 + j];
      for (unsigned k = 0; k < 4; ++k) {
        acc += a[i * 4 + k].to_float() * b[k * 8 + j].to_float();
      }
      d[i * 8 + j] = acc;
    }
  }
  ++ctx.stats().tc_mma_m8n8k4;
}

// Explicit instantiations for the fragment types used by kernels.
template void wmma_load<FragA>(sim::WarpCtx&, FragA&, sim::DSpan<const half>, std::size_t,
                               unsigned);
template void wmma_load<FragB>(sim::WarpCtx&, FragB&, sim::DSpan<const half>, std::size_t,
                               unsigned);

}  // namespace spaden::tc
