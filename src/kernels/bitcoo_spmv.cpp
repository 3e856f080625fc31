#include "kernels/bitcoo_spmv.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace spaden::kern {

BitCooSpmvResult spmv_bitcoo(sim::Device& device, const mat::BitCoo& a,
                             const std::vector<float>& x) {
  SPADEN_REQUIRE(x.size() == a.ncols, "x size %zu != ncols %u", x.size(), a.ncols);
  a.validate();

  auto& mem = device.memory();
  auto block_row_dev = mem.upload(a.block_row, "bitcoo.block_row");
  auto block_col_dev = mem.upload(a.block_col, "bitcoo.block_col");
  auto bitmap_dev = mem.upload(a.bitmap, "bitcoo.bitmap");
  auto val_offset_dev = mem.upload(a.val_offset, "bitcoo.val_offset");
  auto values_dev = mem.upload(a.values, "bitcoo.values");
  auto x_dev = mem.upload(x, "x");
  auto y_dev = mem.alloc<float>(a.nrows, "y");

  const auto block_row = block_row_dev.cspan();
  const auto block_col = block_col_dev.cspan();
  const auto bitmap = bitmap_dev.cspan();
  const auto val_offset = val_offset_dev.cspan();
  const auto values = values_dev.cspan();
  const auto x_span = x_dev.cspan();
  auto y_span = y_dev.span();
  const mat::Index nrows = a.nrows;
  const mat::Index ncols = a.ncols;

  // Pass 1: zero y (block-parallel accumulation needs a clean target).
  const std::uint64_t zero_warps = (nrows + sim::kWarpSize - 1) / sim::kWarpSize;
  auto result_launch =
      device.launch("bitcoo_zero", zero_warps, [&](sim::WarpCtx& ctx, std::uint64_t w) {
        sim::Lanes<std::uint32_t> idx{};
        std::uint32_t mask = 0;
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          const std::uint64_t r = w * sim::kWarpSize + lane;
          if (r < nrows) {
            idx[lane] = static_cast<std::uint32_t>(r);
            mask |= 1u << lane;
          }
        }
        ctx.scatter(y_span, idx, sim::Lanes<float>{}, mask);
      });

  // Pass 2: one warp per block.
  auto push = device.launch("bitcoo_push", a.num_blocks(), [&](sim::WarpCtx& ctx,
                                                               std::uint64_t w) {
    const auto b = static_cast<mat::Index>(w);
    const mat::Index br = ctx.scalar_load(block_row, b);
    const mat::Index bc = ctx.scalar_load(block_col, b);
    const std::uint64_t bmp = ctx.scalar_load(bitmap, b);
    const mat::Index offset = ctx.scalar_load(val_offset, b);

    // Bitmap decode — identical arithmetic to Algorithm 2's matrix half.
    sim::Lanes<std::uint32_t> vidx1{};
    sim::Lanes<std::uint32_t> vidx2{};
    std::uint32_t m1 = 0;
    std::uint32_t m2 = 0;
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      const unsigned pos1 = 2 * lane;
      if (test_bit(bmp, pos1)) {
        vidx1[lane] = offset + static_cast<std::uint32_t>(prefix_popcount(bmp, pos1));
        m1 |= 1u << lane;
      }
      if (test_bit(bmp, pos1 + 1)) {
        vidx2[lane] = offset + static_cast<std::uint32_t>(prefix_popcount(bmp, pos1 + 1));
        m2 |= 1u << lane;
      }
    }
    ctx.charge(sim::OpClass::IntAlu, 6 * sim::kWarpSize);
    const auto v1 = ctx.gather(values, vidx1, m1);
    const auto v2 = ctx.gather(values, vidx2, m2);

    sim::Lanes<std::uint32_t> xidx1{};
    sim::Lanes<std::uint32_t> xidx2{};
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      const std::uint32_t c0 = bc * 8 + 2 * (lane % 4);
      xidx1[lane] = std::min(c0, ncols - 1);
      xidx2[lane] = std::min(c0 + 1, ncols - 1);
    }
    ctx.charge(sim::OpClass::IntAlu, 2 * sim::kWarpSize);
    const auto xv1 = ctx.gather(x_span, xidx1);
    const auto xv2 = ctx.gather(x_span, xidx2);

    // Per-lane products for block row lane/4, reduced over the 4 lanes.
    sim::Lanes<float> acc{};
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      const float a1 = ((m1 >> lane) & 1u) ? v1[lane].to_float() : 0.0f;
      const float a2 = ((m2 >> lane) & 1u) ? v2[lane].to_float() : 0.0f;
      acc[lane] = a1 * xv1[lane] + a2 * xv2[lane];
    }
    ctx.charge(sim::OpClass::Fma, 2 * sim::kWarpSize);
    for (unsigned delta = 2; delta > 0; delta /= 2) {
      sim::Lanes<std::uint32_t> src{};
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        src[lane] = lane ^ delta;
      }
      const auto other = ctx.shfl(acc, src);
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        acc[lane] += other[lane];
      }
      ctx.charge(sim::OpClass::FpAlu, sim::kWarpSize);
    }

    // Lanes 0, 4, ..., 28 hold the 8 row sums: atomic-add into y (blocks of
    // the same block-row collide — the COO trade-off).
    sim::Lanes<std::uint32_t> yidx{};
    std::uint32_t ymask = 0;
    for (unsigned lane = 0; lane < sim::kWarpSize; lane += 4) {
      const std::uint32_t row = br * 8 + lane / 4;
      if (row < nrows) {
        yidx[lane] = row;
        ymask |= 1u << lane;
      }
    }
    ctx.atomic_add(y_span, yidx, acc, ymask);
  });

  result_launch.stats += push.stats;
  result_launch.sanitizer.merge(push.sanitizer);
  result_launch.time = sim::estimate_time(device.spec(), result_launch.stats);
  result_launch.kernel_name = "bitcoo_spmv";

  BitCooSpmvResult out;
  out.y = y_dev.host();
  out.launch = std::move(result_launch);
  return out;
}

}  // namespace spaden::kern
