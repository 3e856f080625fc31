// Gunrock-style SpMV [Wang et al., PPoPP'16]: message passing along graph
// edges. Each lane owns one COO edge, loads its value and source-vertex
// x-entry, and pushes the product into y with a global atomic — the paper's
// characterization of why Gunrock's SpMV trails dedicated sparse kernels:
// the atomic traffic and per-edge index loads cost more than row-organized
// kernels pay.
#include "kernels/formats_device.hpp"
#include "kernels/internal.hpp"

namespace spaden::kern {

namespace {

class GunrockKernel final : public SpmvKernel {
 public:
  [[nodiscard]] Method method() const override { return Method::Gunrock; }

  void do_prepare(sim::Device& device, const mat::Csr& a) override {
    coo_ = DeviceCoo::upload(device.memory(), a.to_coo());
  }

  sim::LaunchResult run(sim::Device& device, sim::DSpan<const float> x,
                        sim::DSpan<float> y) override {
    SPADEN_REQUIRE(x.size == ncols_ && y.size == nrows_, "x/y size mismatch");
    const auto rows = coo_.row.cspan();
    const auto cols = coo_.col.cspan();
    const auto vals = coo_.val.cspan();
    const std::size_t nnz = nnz_;
    const mat::Index nrows = nrows_;

    // Pass 1: zero the output (the push pattern accumulates into y).
    const std::uint64_t zero_warps = (nrows + sim::kWarpSize - 1) / sim::kWarpSize;
    auto result = device.launch("gunrock_zero", zero_warps,
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

    // Pass 2: one lane per edge, atomically accumulating into y.
    const std::uint64_t warps = (nnz + sim::kWarpSize - 1) / sim::kWarpSize;
    auto push = device.launch("gunrock_push", warps, [&](sim::WarpCtx& ctx, std::uint64_t w) {
      sim::Lanes<std::uint32_t> idx{};
      std::uint32_t mask = 0;
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        const std::uint64_t e = w * sim::kWarpSize + lane;
        if (e < nnz) {
          idx[lane] = static_cast<std::uint32_t>(e);
          mask |= 1u << lane;
        }
      }
      if (mask == 0) {
        return;
      }
      const auto edge_row = ctx.gather(rows, idx, mask);
      const auto edge_col = ctx.gather(cols, idx, mask);
      const auto edge_val = ctx.gather(vals, idx, mask);
      const auto xv = ctx.gather(x, edge_col, mask);
      sim::Lanes<float> products{};
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        if ((mask >> lane) & 1u) {
          products[lane] = edge_val[lane] * xv[lane];
        }
      }
      ctx.charge(sim::OpClass::Fma, sim::active_lanes(mask));
      ctx.atomic_add(y, edge_row, products, mask);
    });

    // Report the two passes as one logical SpMV.
    push.stats += result.stats;
    push.sanitizer.merge(result.sanitizer);
    push.time = sim::estimate_time(device.spec(), push.stats);
    push.kernel_name = "gunrock_spmv";
    return push;
  }

  [[nodiscard]] san::FormatReport check_format() const override {
    return coo_.check(nrows_, ncols_);
  }

  [[nodiscard]] Footprint footprint() const override {
    Footprint fp;
    coo_.add_footprint(fp);
    return fp;
  }

 private:
  DeviceCoo coo_;
};

}  // namespace

std::unique_ptr<SpmvKernel> make_gunrock() { return std::make_unique<GunrockKernel>(); }

}  // namespace spaden::kern
