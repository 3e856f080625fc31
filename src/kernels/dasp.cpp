// DASP stand-in [Lu & Liu, SC'23]: the first tensor-core SpMV, which the
// paper compares against (§2.1, §5.2).
//
// DASP's defining features, all reproduced here:
//  * rows categorized by length — short rows go to CUDA cores, the rest are
//    grouped 8 at a time (after sorting by length, to limit padding) and
//    processed with Volta's mma.m8n8k4 shape;
//  * values stored in half precision, padded into 8x4 tiles so each MMA
//    consumes one tile: D(8x8) = A(8x4) * B(4x8), where B column j carries
//    the x entries of row j's columns — only D's diagonal is useful, i.e. 8
//    results per MMA (half of Spaden's 16, hence the paper's "double of
//    DASP's throughput");
//  * the m8n8k4 shape is native on V100 but runs at a severe penalty on
//    later architectures (PTX ISA note the paper cites) — modeled by the
//    device's mma_m8n8k4_efficiency.
//
// Preprocessing (sort + group + pad + reorder into tiles) is the most
// expensive of all methods, and padding makes the footprint large — both
// visible in the paper's Figure 10.
#include <algorithm>
#include <numeric>

#include "kernels/formats_device.hpp"
#include "kernels/internal.hpp"
#include "matrix/half_range.hpp"
#include "tensorcore/wmma.hpp"

namespace spaden::kern {

namespace {

constexpr mat::Index kShortRowThreshold = 4;  // rows with < 4 nnz skip the TC path
constexpr unsigned kGroupRows = 8;
constexpr unsigned kTileK = 4;

class DaspKernel final : public SpmvKernel {
 public:
  [[nodiscard]] Method method() const override { return Method::Dasp; }

  void do_prepare(sim::Device& device, const mat::Csr& a) override {
    // Categorize rows: short rows keep CSR layout; the rest are sorted by
    // descending length and packed into groups of 8.
    std::vector<mat::Index> tc_rows;
    std::vector<mat::Index> short_rows;
    for (mat::Index r = 0; r < a.nrows; ++r) {
      (a.row_nnz(r) < kShortRowThreshold ? short_rows : tc_rows).push_back(r);
    }
    std::stable_sort(tc_rows.begin(), tc_rows.end(), [&](mat::Index l, mat::Index r) {
      return a.row_nnz(l) > a.row_nnz(r);
    });

    // Tile packing: group g covers rows tc_rows[8g .. 8g+7], padded to the
    // group's max length rounded up to a multiple of 4. Tiles are stored
    // chunk-major: chunk c of group g holds 8 rows x 4 slots contiguously.
    const std::size_t groups = (tc_rows.size() + kGroupRows - 1) / kGroupRows;
    std::vector<mat::Index> group_ptr(groups + 1, 0);   // tile-chunk offsets
    std::vector<mat::Index> group_rows(groups * kGroupRows, ~mat::Index{0});
    for (std::size_t g = 0; g < groups; ++g) {
      mat::Index max_len = 0;
      for (unsigned i = 0; i < kGroupRows; ++i) {
        const std::size_t t = g * kGroupRows + i;
        if (t < tc_rows.size()) {
          group_rows[g * kGroupRows + i] = tc_rows[t];
          max_len = std::max(max_len, a.row_nnz(tc_rows[t]));
        }
      }
      const mat::Index chunks = (max_len + kTileK - 1) / kTileK;
      group_ptr[g + 1] = group_ptr[g] + chunks;
    }
    const std::size_t total_chunks = group_ptr.back();
    const std::size_t tile_elems = total_chunks * kGroupRows * kTileK;
    std::vector<half> tile_val(tile_elems, half{});
    std::vector<mat::Index> tile_col(tile_elems, 0);
    for (std::size_t g = 0; g < groups; ++g) {
      for (unsigned i = 0; i < kGroupRows; ++i) {
        const mat::Index row = group_rows[g * kGroupRows + i];
        if (row == ~mat::Index{0}) {
          continue;
        }
        const mat::Index begin = a.row_ptr[row];
        const mat::Index len = a.row_nnz(row);
        // Padding slots repeat the row's first column (a safe gather) with
        // a zero value.
        const mat::Index pad_col = len > 0 ? a.col_idx[begin] : 0;
        const mat::Index chunks = group_ptr[g + 1] - group_ptr[g];
        for (mat::Index k = 0; k < chunks * kTileK; ++k) {
          const std::size_t slot =
              (static_cast<std::size_t>(group_ptr[g]) + k / kTileK) * kGroupRows * kTileK +
              static_cast<std::size_t>(i) * kTileK + k % kTileK;
          if (k < len) {
            tile_val[slot] = mat::to_half_checked(a.val[begin + k], "DASP", row,
                                                  a.col_idx[begin + k]);
            tile_col[slot] = a.col_idx[begin + k];
          } else {
            tile_col[slot] = pad_col;
          }
        }
      }
    }

    // Short-row CSR remainder.
    mat::Coo short_coo;
    short_coo.nrows = a.nrows;
    short_coo.ncols = a.ncols;
    for (const mat::Index r : short_rows) {
      for (mat::Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        short_coo.row.push_back(r);
        short_coo.col.push_back(a.col_idx[i]);
        short_coo.val.push_back(a.val[i]);
      }
    }

    num_groups_ = groups;
    // One warp per group in the dominant dasp_tc pass: balance on the
    // group's tile-chunk count (its MMA/load iteration count). Keyed to that
    // launch so the zero and short-row passes always take the equal-count
    // partition even when their warp counts collide with `groups`; the
    // global vector is cleared for the same reason.
    std::vector<std::uint64_t> weights(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      weights[g] = static_cast<std::uint64_t>(group_ptr[g + 1]) -
                   static_cast<std::uint64_t>(group_ptr[g]);
    }
    device.set_warp_weights({});
    device.set_launch_warp_weights("dasp_tc", std::move(weights));
    auto& mem = device.memory();
    group_ptr_ = mem.upload(std::move(group_ptr), "dasp.group_ptr");
    group_rows_ = mem.upload(std::move(group_rows), "dasp.group_rows");
    tile_val_ = mem.upload(std::move(tile_val), "dasp.tile_val");
    tile_col_ = mem.upload(std::move(tile_col), "dasp.tile_col");
    short_ = DeviceCoo::upload(mem, short_coo);
    // Rows not covered by any path (all rows are covered; short rows with 0
    // nnz still need y zeroed) — handled by the zero-fill pass in run().
  }

  sim::LaunchResult run(sim::Device& device, sim::DSpan<const float> x,
                        sim::DSpan<float> y) override {
    SPADEN_REQUIRE(x.size == ncols_ && y.size == nrows_, "x/y size mismatch");
    const auto group_ptr = group_ptr_.cspan();
    const auto group_rows = group_rows_.cspan();
    const auto tile_val = tile_val_.cspan();
    const auto tile_col = tile_col_.cspan();
    const mat::Index nrows = nrows_;

    // Zero-fill y: short rows accumulate with atomics and empty rows must
    // end as 0.
    const std::uint64_t zero_warps = (nrows + sim::kWarpSize - 1) / sim::kWarpSize;
    auto result = device.launch("dasp_zero", zero_warps,
                                [&](sim::WarpCtx& ctx, std::uint64_t w) {
                                  sim::Lanes<std::uint32_t> idx{};
                                  std::uint32_t mask = 0;
                                  for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
                                    const std::uint64_t r = w * sim::kWarpSize + lane;
                                    if (r < nrows) {
                                      idx[lane] = static_cast<std::uint32_t>(r);
                                      mask |= 1u << lane;
                                    }
                                  }
                                  ctx.scatter(y, idx, sim::Lanes<float>{}, mask);
                                });

    // Tensor-core path: one warp per group of 8 rows.
    auto tc_pass = device.launch("dasp_tc", num_groups_, [&](sim::WarpCtx& ctx,
                                                             std::uint64_t g) {
      const mat::Index chunk_begin = ctx.scalar_load(group_ptr, g);
      const mat::Index chunk_end = ctx.scalar_load(group_ptr, g + 1);
      float d[kGroupRows * kGroupRows] = {};  // 8x8 accumulator fragment

      for (mat::Index c = chunk_begin; c < chunk_end; ++c) {
        // Load one 8x4 half tile + its columns: fully coalesced (the tiles
        // were packed contiguously during preprocessing).
        ctx.range_push("load_tile");
        sim::Lanes<std::uint32_t> idx{};
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          idx[lane] = c * (kGroupRows * kTileK) + lane;
        }
        const auto a_vals = ctx.gather(tile_val, idx);
        const auto cols = ctx.gather(tile_col, idx);
        // Gather x for all 32 slots: 8 unrelated rows' columns per
        // instruction — worse sector locality than one-row-per-warp CSR.
        const auto xv = ctx.gather(x, cols);
        ctx.charge(sim::OpClass::Convert, sim::kWarpSize);  // f32 -> f16 for B
        ctx.range_pop();

        ctx.range_push("mma");
        half a_tile[kGroupRows * kTileK];
        half b_tile[kTileK * kGroupRows];
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          const unsigned row = lane / kTileK;   // 0..7 within the group
          const unsigned k = lane % kTileK;     // 0..3
          a_tile[row * kTileK + k] = a_vals[lane];
          // B column `row` carries row `row`'s x entries: B[k][row].
          b_tile[k * kGroupRows + row] = half(xv[lane]);
        }
        ctx.charge(sim::OpClass::RegMove, 2 * sim::kWarpSize);
        tc::mma_m8n8k4(ctx, d, a_tile, b_tile);
        ctx.range_pop();
      }

      // Only the diagonal of D is meaningful: d[i][i] = y[group row i].
      const sim::ProfRange prof_extract(ctx, "extract");
      sim::Lanes<std::uint32_t> yidx{};
      sim::Lanes<float> yval{};
      std::uint32_t mask = 0;
      for (unsigned i = 0; i < kGroupRows; ++i) {
        const mat::Index row = ctx.scalar_load(group_rows, g * kGroupRows + i);
        if (row != ~mat::Index{0}) {
          yidx[i] = row;
          yval[i] = d[i * kGroupRows + i];
          mask |= 1u << i;
        }
      }
      ctx.charge(sim::OpClass::RegMove, kGroupRows);
      ctx.scatter(y, yidx, yval, mask);
    });
    result.stats += tc_pass.stats;
    result.sanitizer.merge(tc_pass.sanitizer);

    // CUDA-core path for short rows: edge-parallel with atomics (rows have
    // < 4 entries, so contention is negligible).
    const std::size_t short_nnz = short_.val.size();
    if (short_nnz > 0) {
      const auto srow = short_.row.cspan();
      const auto scol = short_.col.cspan();
      const auto sval = short_.val.cspan();
      const std::uint64_t warps = (short_nnz + sim::kWarpSize - 1) / sim::kWarpSize;
      auto short_pass =
          device.launch("dasp_short", warps, [&](sim::WarpCtx& ctx, std::uint64_t w) {
            sim::Lanes<std::uint32_t> idx{};
            std::uint32_t mask = 0;
            for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
              const std::uint64_t e = w * sim::kWarpSize + lane;
              if (e < short_nnz) {
                idx[lane] = static_cast<std::uint32_t>(e);
                mask |= 1u << lane;
              }
            }
            if (mask == 0) {
              return;
            }
            const auto er = ctx.gather(srow, idx, mask);
            const auto ec = ctx.gather(scol, idx, mask);
            const auto ev = ctx.gather(sval, idx, mask);
            const auto xv = ctx.gather(x, ec, mask);
            sim::Lanes<float> prod{};
            for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
              if ((mask >> lane) & 1u) {
                prod[lane] = ev[lane] * xv[lane];
              }
            }
            ctx.charge(sim::OpClass::Fma, sim::active_lanes(mask));
            ctx.atomic_add(y, er, prod, mask);
          });
      result.stats += short_pass.stats;
      result.sanitizer.merge(short_pass.sanitizer);
    }

    result.time = sim::estimate_time(device.spec(), result.stats);
    result.kernel_name = "dasp_spmv";
    return result;
  }

  [[nodiscard]] san::FormatReport check_format() const override {
    // The tensor-core tiles are a padded private layout with no structural
    // invariant catalog; the CSR-remainder COO is the checkable part.
    return short_.check(nrows_, ncols_);
  }

  [[nodiscard]] Footprint footprint() const override {
    Footprint fp;
    fp.add("dasp.group_ptr", group_ptr_.bytes());
    fp.add("dasp.group_rows", group_rows_.bytes());
    fp.add("dasp.tile_val", tile_val_.bytes());
    fp.add("dasp.tile_col", tile_col_.bytes());
    fp.add("dasp.short_row", short_.row.bytes());
    fp.add("dasp.short_col", short_.col.bytes());
    fp.add("dasp.short_val", short_.val.bytes());
    return fp;
  }

 private:
  std::size_t num_groups_ = 0;
  sim::Buffer<mat::Index> group_ptr_;
  sim::Buffer<mat::Index> group_rows_;
  sim::Buffer<half> tile_val_;
  sim::Buffer<mat::Index> tile_col_;
  DeviceCoo short_;
};

}  // namespace

std::unique_ptr<SpmvKernel> make_dasp() { return std::make_unique<DaspKernel>(); }

}  // namespace spaden::kern
