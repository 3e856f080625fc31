// CSR-Adaptive [Greathouse & Daga, SC'14]: load-balanced CSR SpMV via
// row blocks — the third major CSR load-balancing family next to the
// static csr-vector kernel (cuSPARSE stand-in) and LightSpMV's dynamic
// distribution, rounding out the baseline set.
//
// Preprocessing greedily packs consecutive rows into blocks of at most
// kNnzPerBlock nonzeros; a row longer than the budget is split across
// multiple blocks whose partial sums combine through atomics. Each warp
// owns one row block, so every warp receives a near-equal amount of work
// regardless of the row-length distribution.
#include <algorithm>

#include "kernels/formats_device.hpp"
#include "kernels/internal.hpp"

namespace spaden::kern {

namespace {

constexpr mat::Index kNnzPerBlock = 64;

class CsrAdaptiveKernel final : public SpmvKernel {
 public:
  [[nodiscard]] Method method() const override { return Method::CsrAdaptive; }

  void do_prepare(sim::Device& device, const mat::Csr& a) override {
    csr_ = DeviceCsr::upload(device.memory(), a);
    // Row-block descriptors: (first_row, first_nnz) per block; a block ends
    // when it would exceed the nnz budget or when a long row is chunked.
    std::vector<mat::Index> block_row;
    std::vector<mat::Index> block_nnz_begin;
    mat::Index r = 0;
    while (r < a.nrows) {
      const mat::Index row_len = a.row_nnz(r);
      if (row_len > kNnzPerBlock) {
        // Long row: one block per kNnzPerBlock chunk (combined atomically).
        for (mat::Index off = 0; off < row_len; off += kNnzPerBlock) {
          block_row.push_back(r);
          block_nnz_begin.push_back(a.row_ptr[r] + off);
        }
        ++r;
        continue;
      }
      // Short rows: accumulate while the budget allows.
      block_row.push_back(r);
      block_nnz_begin.push_back(a.row_ptr[r]);
      mat::Index used = 0;
      while (r < a.nrows && used + a.row_nnz(r) <= kNnzPerBlock &&
             a.row_nnz(r) <= kNnzPerBlock) {
        used += a.row_nnz(r);
        ++r;
      }
    }
    block_row.push_back(a.nrows);
    block_nnz_begin.push_back(a.row_ptr[a.nrows]);
    num_blocks_ = block_row.size() - 1;
    // One warp per row block: balance on the block's nonzero span. Blocks
    // are already nnz-capped, but trailing short blocks and empty-row runs
    // still skew an equal-count split; the weights make it exact. Keyed to
    // the main launch so the zero pass — whose warp count can collide with
    // num_blocks_ — always falls back to the equal-count split instead of
    // reusing these weights; the global vector is cleared for the same
    // reason.
    std::vector<std::uint64_t> weights(num_blocks_);
    for (std::size_t w = 0; w < num_blocks_; ++w) {
      weights[w] = static_cast<std::uint64_t>(block_nnz_begin[w + 1]) -
                   static_cast<std::uint64_t>(block_nnz_begin[w]);
    }
    device.set_warp_weights({});
    device.set_launch_warp_weights("csr_adaptive", std::move(weights));
    block_row_ = device.memory().upload(std::move(block_row), "adaptive.block_row");
    block_nnz_begin_ = device.memory().upload(std::move(block_nnz_begin), "adaptive.block_nnz_begin");
  }

  sim::LaunchResult run(sim::Device& device, sim::DSpan<const float> x,
                        sim::DSpan<float> y) override {
    SPADEN_REQUIRE(x.size == ncols_ && y.size == nrows_, "x/y size mismatch");
    const auto row_ptr = csr_.row_ptr.cspan();
    const auto col_idx = csr_.col_idx.cspan();
    const auto val = csr_.val.cspan();
    const auto block_row = block_row_.cspan();
    const auto block_nnz = block_nnz_begin_.cspan();
    const mat::Index nrows = nrows_;

    // Pass 1: zero y — long-row chunks and block-boundary rows accumulate.
    const std::uint64_t zero_warps = (nrows + sim::kWarpSize - 1) / sim::kWarpSize;
    auto result = device.launch("csr_adaptive_zero", zero_warps,
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

    auto pass = device.launch("csr_adaptive", num_blocks_, [&](sim::WarpCtx& ctx,
                                                               std::uint64_t w) {
      const mat::Index first_row = ctx.scalar_load(block_row, w);
      const mat::Index next_first_row = ctx.scalar_load(block_row, w + 1);
      const mat::Index nnz_begin = ctx.scalar_load(block_nnz, w);
      const mat::Index nnz_end = ctx.scalar_load(block_nnz, w + 1);
      if (nnz_begin == nnz_end) {
        return;  // run of empty rows
      }

      // Walk the block's rows; all 32 lanes cooperate on each row segment.
      mat::Index row = first_row;
      mat::Index i = nnz_begin;
      while (i < nnz_end) {
        const mat::Index row_end =
            std::min(ctx.scalar_load(row_ptr, row + 1), nnz_end);
        sim::Lanes<float> acc{};
        for (mat::Index base = i; base < row_end; base += sim::kWarpSize) {
          sim::Lanes<std::uint32_t> idx{};
          std::uint32_t mask = 0;
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            if (base + lane < row_end) {
              idx[lane] = base + lane;
              mask |= 1u << lane;
            }
          }
          const auto cols = ctx.gather(col_idx, idx, mask);
          const auto vals = ctx.gather(val, idx, mask);
          const auto xv = ctx.gather(x, cols, mask);
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            if ((mask >> lane) & 1u) {
              acc[lane] += vals[lane] * xv[lane];
            }
          }
          ctx.charge(sim::OpClass::Fma, sim::active_lanes(mask));
          ctx.charge(sim::OpClass::Branch, sim::kWarpSize);
        }
        const float sum = ctx.reduce_add(acc);
        // Rows that may also appear in another block (block-boundary rows
        // and long-row chunks) combine atomically; interior rows could
        // store directly, but the boundary test is the same cost either
        // way in the model, so accumulate uniformly (as the original kernel
        // does for its "stream" case carry-outs).
        const bool shared_row = row == first_row || row + 1 >= next_first_row;
        if (shared_row) {
          sim::Lanes<std::uint32_t> yidx{};
          sim::Lanes<float> v{};
          yidx[0] = row;
          v[0] = sum;
          ctx.atomic_add(y, yidx, v, 0x1u);
        } else {
          ctx.scalar_store(y, row, sum);
        }
        i = row_end;
        if (i >= ctx.scalar_load(row_ptr, row + 1)) {
          ++row;
        }
      }
    });
    result.stats += pass.stats;
    result.sanitizer.merge(pass.sanitizer);
    result.time = sim::estimate_time(device.spec(), result.stats);
    result.kernel_name = "csr_adaptive_spmv";
    return result;
  }

  [[nodiscard]] san::FormatReport check_format() const override {
    return csr_.check(nrows_, ncols_);
  }

  [[nodiscard]] Footprint footprint() const override {
    Footprint fp;
    csr_.add_footprint(fp);
    fp.add("adaptive.block_row", block_row_.bytes());
    fp.add("adaptive.block_nnz", block_nnz_begin_.bytes());
    return fp;
  }

 private:
  DeviceCsr csr_;
  sim::Buffer<mat::Index> block_row_;
  sim::Buffer<mat::Index> block_nnz_begin_;
  std::size_t num_blocks_ = 0;
};

}  // namespace

std::unique_ptr<SpmvKernel> make_csr_adaptive() {
  return std::make_unique<CsrAdaptiveKernel>();
}

}  // namespace spaden::kern
