#include "matrix/bsr.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace spaden::mat {

std::size_t Bsr::nnz() const {
  return static_cast<std::size_t>(
      std::count_if(val.begin(), val.end(), [](float v) { return v != 0.0f; }));
}

double Bsr::fill_ratio() const {
  if (num_blocks() == 0) {
    return 0.0;
  }
  return static_cast<double>(nnz()) /
         (static_cast<double>(num_blocks()) * static_cast<double>(block_elems()));
}

void Bsr::validate() const {
  SPADEN_REQUIRE(block_dim > 0, "block_dim must be positive");
  SPADEN_REQUIRE(brows == ceil_div(nrows, block_dim), "brows %u != ceil(%u/%u)", brows, nrows,
                 block_dim);
  SPADEN_REQUIRE(bcols == ceil_div(ncols, block_dim), "bcols %u != ceil(%u/%u)", bcols, ncols,
                 block_dim);
  SPADEN_REQUIRE(block_row_ptr.size() == static_cast<std::size_t>(brows) + 1,
                 "block_row_ptr size mismatch");
  SPADEN_REQUIRE(block_row_ptr.front() == 0 && block_row_ptr.back() == num_blocks(),
                 "block_row_ptr bounds mismatch");
  SPADEN_REQUIRE(val.size() == num_blocks() * block_elems(), "val size %zu != blocks*dim^2",
                 val.size());
  for (Index br = 0; br < brows; ++br) {
    for (Index i = block_row_ptr[br]; i < block_row_ptr[br + 1]; ++i) {
      SPADEN_REQUIRE(block_col[i] < bcols, "block col out of range");
      if (i > block_row_ptr[br]) {
        SPADEN_REQUIRE(block_col[i - 1] < block_col[i],
                       "block columns not strictly ascending in block-row %u", br);
      }
    }
  }
}

std::vector<Index> bsr_block_row_ptr(const Csr& a, Index block_dim) {
  SPADEN_REQUIRE(block_dim > 0 && block_dim <= 64, "unsupported block_dim %u", block_dim);
  const Index brows = ceil_div(a.nrows, block_dim);
  std::vector<Index> block_row_ptr(static_cast<std::size_t>(brows) + 1, 0);
  // Count distinct block columns per block-row. A scratch "last seen" stamp
  // avoids a set per row: within one block-row we sweep its block_dim CSR
  // rows in column order per row, so the same block column can recur; stamp
  // it with the block-row id.
  std::vector<Index> stamp(ceil_div(a.ncols, block_dim), ~Index{0});
  for (Index br = 0; br < brows; ++br) {
    Index count = 0;
    const Index row_end = std::min<Index>((br + 1) * block_dim, a.nrows);
    for (Index r = br * block_dim; r < row_end; ++r) {
      for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        const Index bc = a.col_idx[i] / block_dim;
        if (stamp[bc] != br) {
          stamp[bc] = br;
          ++count;
        }
      }
    }
    block_row_ptr[br + 1] = block_row_ptr[br] + count;
  }
  return block_row_ptr;
}

Bsr Bsr::from_csr(const Csr& a, Index block_dim) {
  Bsr out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.block_dim = block_dim;
  // Pass 1: block-row offsets (validates block_dim).
  out.block_row_ptr = bsr_block_row_ptr(a, block_dim);
  out.brows = ceil_div(a.nrows, block_dim);
  out.bcols = ceil_div(a.ncols, block_dim);

  const std::size_t nblocks = out.block_row_ptr.back();
  out.block_col.resize(nblocks);
  out.val.assign(nblocks * out.block_elems(), 0.0f);

  // Pass 2: fill block columns (sorted per block-row) and scatter values.
  std::vector<Index> stamp(out.bcols, ~Index{0});
  std::vector<Index> scratch_cols;
  std::vector<Index> slot_of(out.bcols, 0);
  for (Index br = 0; br < out.brows; ++br) {
    scratch_cols.clear();
    const Index row_end = std::min<Index>((br + 1) * block_dim, a.nrows);
    for (Index r = br * block_dim; r < row_end; ++r) {
      for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        const Index bc = a.col_idx[i] / block_dim;
        if (stamp[bc] != br) {
          stamp[bc] = br;
          scratch_cols.push_back(bc);
        }
      }
    }
    std::sort(scratch_cols.begin(), scratch_cols.end());
    const Index base = out.block_row_ptr[br];
    for (std::size_t k = 0; k < scratch_cols.size(); ++k) {
      out.block_col[base + k] = scratch_cols[k];
      slot_of[scratch_cols[k]] = base + static_cast<Index>(k);
    }
    for (Index r = br * block_dim; r < row_end; ++r) {
      for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        const Index bc = a.col_idx[i] / block_dim;
        const Index local_r = r - br * block_dim;
        const Index local_c = a.col_idx[i] - bc * block_dim;
        out.val[static_cast<std::size_t>(slot_of[bc]) * out.block_elems() +
                static_cast<std::size_t>(local_r) * block_dim + local_c] = a.val[i];
      }
    }
  }
  return out;
}

Csr Bsr::to_csr() const {
  Coo coo;
  coo.nrows = nrows;
  coo.ncols = ncols;
  for (Index br = 0; br < brows; ++br) {
    for (Index b = block_row_ptr[br]; b < block_row_ptr[br + 1]; ++b) {
      const Index bc = block_col[b];
      for (Index lr = 0; lr < block_dim; ++lr) {
        for (Index lc = 0; lc < block_dim; ++lc) {
          const float v =
              val[static_cast<std::size_t>(b) * block_elems() +
                  static_cast<std::size_t>(lr) * block_dim + lc];
          const Index r = br * block_dim + lr;
          const Index c = bc * block_dim + lc;
          if (v != 0.0f && r < nrows && c < ncols) {
            coo.row.push_back(r);
            coo.col.push_back(c);
            coo.val.push_back(v);
          }
        }
      }
    }
  }
  return Csr::from_coo(coo);
}

std::vector<float> spmv_host(const Bsr& a, const std::vector<float>& x) {
  SPADEN_REQUIRE(x.size() == a.ncols, "x size %zu != ncols %u", x.size(), a.ncols);
  std::vector<float> y(a.nrows, 0.0f);
  for (Index br = 0; br < a.brows; ++br) {
    const Index row_base = br * a.block_dim;
    for (Index b = a.block_row_ptr[br]; b < a.block_row_ptr[br + 1]; ++b) {
      const Index col_base = a.block_col[b] * a.block_dim;
      for (Index lr = 0; lr < a.block_dim && row_base + lr < a.nrows; ++lr) {
        float acc = 0.0f;
        for (Index lc = 0; lc < a.block_dim; ++lc) {
          const Index c = col_base + lc;
          if (c < a.ncols) {
            acc += a.val[static_cast<std::size_t>(b) * a.block_elems() +
                         static_cast<std::size_t>(lr) * a.block_dim + lc] *
                   x[c];
          }
        }
        y[row_base + lr] += acc;
      }
    }
  }
  return y;
}

}  // namespace spaden::mat
