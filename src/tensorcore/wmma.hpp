// WMMA-style operations on emulated fragments.
//
// Three operations mirror the CUDA WMMA API the paper describes in §2.2:
//   wmma_load  — populate a fragment from (device) memory, modeling the
//                conventional staging path through shared memory;
//   wmma_mma   — D = A*B + C on the tensor core (m16n16k16, half in,
//                float accumulate); bit-exact against the full loop
//                (wmma_mma_reference) but skips the zero portions and
//                repeated columns of Spaden's block-diagonal fragments;
//   wmma_store — write an accumulator fragment back to memory.
//
// Spaden's kernels bypass wmma_load/wmma_store using direct register access
// (fragment.x(lane, reg) = value); the conventional path is kept both for
// baseline kernels and for the ablation that quantifies the staging
// overhead Spaden eliminates (paper §4.3.3 "Advantages").
#pragma once

#include <cstdint>

#include "gpusim/device.hpp"
#include "tensorcore/fragment.hpp"

namespace spaden::tc {

/// Load a 16x16 half fragment from row-major memory with leading dimension
/// `ld` (elements). Models the conventional path: global -> shared staging
/// (256 stores + 256 loads worth of lane-ops) followed by the fragment fill.
template <typename Frag>
void wmma_load(sim::WarpCtx& ctx, Frag& frag, sim::DSpan<const half> src, std::size_t offset,
               unsigned ld);

/// Store a 16x16 float accumulator fragment to row-major memory.
void wmma_store(sim::WarpCtx& ctx, sim::DSpan<float> dst, std::size_t offset,
                const FragAcc& acc, unsigned ld);

/// Tensor-core MMA: d = a*b + c (m16n16k16). Inputs are binary16, products
/// and accumulation are fp32, matching mixed-precision tensor-core numerics.
/// Every bit of d equals wmma_mma_reference's. When the fragments are block
/// diagonal the way Spaden pairs two 8x8 blocks (paper §4.3) — A's and B's
/// off-diagonal portions +0, their diagonal halves finite, C's off-diagonal
/// elements finite and not -0 — every off-diagonal product is a signed zero
/// that leaves its sum unchanged, so only the two diagonal 8x8x8 chains are
/// computed, and one column of a portion when B's columns and C's rows
/// repeat (the SpMV broadcast). Anything else runs the reference loop.
/// `d` may alias `c`. Counts one tc_mma_m16n16k16 either way.
void wmma_mma(sim::WarpCtx& ctx, FragAcc& d, const FragA& a, const FragB& b,
              const FragAcc& c);

/// The full 16x16x16 loop: each d element is c plus its 16 products added in
/// ascending k order. wmma_mma's fallback and the oracle its tests compare
/// against bit for bit; charges nothing. `d` may alias `c`.
void wmma_mma_reference(FragAcc& d, const FragA& a, const FragB& b, const FragAcc& c);

/// 8x8x4 MMA used by the DASP baseline (Volta's mma.sync.m8n8k4 shape):
/// d8x8 += a8x4 * b4x8 with half inputs and float accumulation. Operands are
/// dense row-major arrays here because DASP stages through registers, not
/// WMMA fragments.
void mma_m8n8k4(sim::WarpCtx& ctx, float* d /*8x8 row-major*/,
                const half* a /*8x4 row-major*/, const half* b /*4x8 row-major*/);

}  // namespace spaden::tc
