#include "matrix/bitbsr_wide.hpp"

#include <algorithm>
#include <bit>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "matrix/half_range.hpp"

namespace spaden::mat {

int BitBsr16::popcount(const Bitmap& b) {
  int total = 0;
  for (const std::uint64_t word : b) {
    total += std::popcount(word);
  }
  return total;
}

int BitBsr16::prefix_popcount(const Bitmap& b, unsigned pos) {
  const unsigned word = pos / 64;
  const unsigned bit = pos % 64;
  int total = 0;
  for (unsigned w = 0; w < word; ++w) {
    total += std::popcount(b[w]);
  }
  total += spaden::prefix_popcount(b[word], bit);
  return total;
}

void BitBsr16::validate() const {
  SPADEN_REQUIRE(brows == ceil_div<Index>(nrows, kDim) && bcols == ceil_div<Index>(ncols, kDim),
                 "block grid dimensions inconsistent");
  SPADEN_REQUIRE(block_row_ptr.size() == static_cast<std::size_t>(brows) + 1,
                 "block_row_ptr size mismatch");
  SPADEN_REQUIRE(block_row_ptr.front() == 0 && block_row_ptr.back() == num_blocks(),
                 "block_row_ptr bounds mismatch");
  SPADEN_REQUIRE(val_offset.size() == num_blocks() + 1, "val_offset size mismatch");
  SPADEN_REQUIRE(val_offset.front() == 0 && val_offset.back() == nnz(),
                 "val_offset bounds mismatch");
  for (std::size_t b = 0; b < num_blocks(); ++b) {
    const int pop = popcount(bitmap[b]);
    SPADEN_REQUIRE(pop > 0, "block %zu is empty", b);
    SPADEN_REQUIRE(static_cast<Index>(pop) == val_offset[b + 1] - val_offset[b],
                   "block %zu: popcount/value-count mismatch", b);
  }
}

BitBsr16 BitBsr16::from_csr(const Csr& a) {
  BitBsr16 out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.brows = ceil_div<Index>(a.nrows, kDim);
  out.bcols = ceil_div<Index>(a.ncols, kDim);
  out.block_row_ptr.assign(static_cast<std::size_t>(out.brows) + 1, 0);

  // Pass 1: count distinct non-empty blocks per block-row.
  std::vector<Index> stamp(out.bcols, ~Index{0});
  for (Index br = 0; br < out.brows; ++br) {
    Index count = 0;
    const Index row_end = std::min<Index>((br + 1) * kDim, a.nrows);
    for (Index r = br * kDim; r < row_end; ++r) {
      for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        const Index bc = a.col_idx[i] / kDim;
        if (stamp[bc] != br) {
          stamp[bc] = br;
          ++count;
        }
      }
    }
    out.block_row_ptr[br + 1] = out.block_row_ptr[br] + count;
  }

  const std::size_t nblocks = out.block_row_ptr.back();
  out.block_col.resize(nblocks);
  out.bitmap.assign(nblocks, Bitmap{});
  out.val_offset.assign(nblocks + 1, 0);

  // Pass 2: sorted block columns + bitmaps.
  std::fill(stamp.begin(), stamp.end(), ~Index{0});
  std::vector<Index> slot_of(out.bcols, 0);
  std::vector<Index> scratch;
  for (Index br = 0; br < out.brows; ++br) {
    scratch.clear();
    const Index row_end = std::min<Index>((br + 1) * kDim, a.nrows);
    for (Index r = br * kDim; r < row_end; ++r) {
      for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        const Index bc = a.col_idx[i] / kDim;
        if (stamp[bc] != br) {
          stamp[bc] = br;
          scratch.push_back(bc);
        }
      }
    }
    std::sort(scratch.begin(), scratch.end());
    const Index base = out.block_row_ptr[br];
    for (std::size_t k = 0; k < scratch.size(); ++k) {
      out.block_col[base + k] = scratch[k];
      slot_of[scratch[k]] = base + static_cast<Index>(k);
    }
    for (Index r = br * kDim; r < row_end; ++r) {
      const Index lr = r - br * kDim;
      for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        const Index bc = a.col_idx[i] / kDim;
        set(out.bitmap[slot_of[bc]], lr * kDim + (a.col_idx[i] - bc * kDim));
      }
    }
  }

  // Exclusive scan + value packing (same two steps as the 8x8 format).
  for (std::size_t b = 0; b < nblocks; ++b) {
    out.val_offset[b + 1] = out.val_offset[b] + static_cast<Index>(popcount(out.bitmap[b]));
  }
  out.values.resize(a.nnz());
  for (Index br = 0; br < out.brows; ++br) {
    const Index* begin = out.block_col.data() + out.block_row_ptr[br];
    const Index* end = out.block_col.data() + out.block_row_ptr[br + 1];
    const Index row_end = std::min<Index>((br + 1) * kDim, a.nrows);
    for (Index r = br * kDim; r < row_end; ++r) {
      const Index lr = r - br * kDim;
      Index cached_bc = ~Index{0};
      std::size_t cached_block = 0;
      for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        const Index bc = a.col_idx[i] / kDim;
        if (bc != cached_bc) {
          const Index* it = std::lower_bound(begin, end, bc);
          SPADEN_ASSERT(it != end && *it == bc, "block lookup failed");
          cached_bc = bc;
          cached_block = static_cast<std::size_t>(out.block_row_ptr[br] +
                                                  static_cast<Index>(it - begin));
        }
        const unsigned pos = lr * kDim + (a.col_idx[i] - bc * kDim);
        const int rank = prefix_popcount(out.bitmap[cached_block], pos);
        out.values[out.val_offset[cached_block] + static_cast<Index>(rank)] =
            to_half_checked(a.val[i], "bitBSR16", r, a.col_idx[i]);
      }
    }
  }
  return out;
}

Csr BitBsr16::to_csr() const {
  Coo coo;
  coo.nrows = nrows;
  coo.ncols = ncols;
  coo.row.reserve(nnz());
  coo.col.reserve(nnz());
  coo.val.reserve(nnz());
  for (Index br = 0; br < brows; ++br) {
    for (Index b = block_row_ptr[br]; b < block_row_ptr[br + 1]; ++b) {
      Index slot = val_offset[b];
      for (unsigned pos = 0; pos < kDim * kDim; ++pos) {
        if (test(bitmap[b], pos)) {
          coo.row.push_back(br * kDim + pos / kDim);
          coo.col.push_back(block_col[b] * kDim + pos % kDim);
          coo.val.push_back(values[slot++].to_float());
        }
      }
    }
  }
  return Csr::from_coo(coo);
}

std::size_t BitBsr16::footprint_bytes() const {
  return block_row_ptr.size() * sizeof(Index) + block_col.size() * sizeof(Index) +
         bitmap.size() * sizeof(Bitmap) + val_offset.size() * sizeof(Index) +
         values.size() * sizeof(half);
}

std::vector<float> spmv_host(const BitBsr16& a, const std::vector<float>& x) {
  SPADEN_REQUIRE(x.size() == a.ncols, "x size %zu != ncols %u", x.size(), a.ncols);
  std::vector<float> y(a.nrows, 0.0f);
  for (Index br = 0; br < a.brows; ++br) {
    for (Index b = a.block_row_ptr[br]; b < a.block_row_ptr[br + 1]; ++b) {
      const Index col_base = a.block_col[b] * BitBsr16::kDim;
      Index slot = a.val_offset[b];
      for (unsigned pos = 0; pos < BitBsr16::kDim * BitBsr16::kDim; ++pos) {
        if (BitBsr16::test(a.bitmap[b], pos)) {
          y[br * BitBsr16::kDim + pos / BitBsr16::kDim] +=
              a.values[slot++].to_float() * x[col_base + pos % BitBsr16::kDim];
        }
      }
    }
  }
  return y;
}

}  // namespace spaden::mat
