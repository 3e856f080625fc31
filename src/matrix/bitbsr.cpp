#include "matrix/bitbsr.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <exception>
#include <thread>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "matrix/half_range.hpp"

namespace spaden::mat {

int default_convert_threads() {
  if (const char* env = std::getenv("SPADEN_CONVERT_THREADS")) {
    const std::optional<long> requested = parse_long(env);
    SPADEN_REQUIRE(requested && *requested >= 1 && *requested <= 256,
                   "SPADEN_CONVERT_THREADS=%s is not an integer in [1, 256]", env);
    return static_cast<int>(*requested);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

/// Run fn(br_lo, br_hi) over contiguous block-row chunks, one per thread.
/// threads == 1 (or a grid too small to split) calls fn inline — the exact
/// serial path. Chunks never overlap, so callers writing only their own
/// block-rows' slices produce output independent of the thread count.
template <typename Fn>
void for_block_row_chunks(Index brows, int threads, const Fn& fn) {
  const auto t_count =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(threads), brows);
  if (t_count <= 1) {
    fn(Index{0}, brows);
    return;
  }
  const Index chunk = static_cast<Index>((brows + t_count - 1) / t_count);
  std::vector<std::exception_ptr> errors(t_count);
  std::vector<std::thread> workers;
  workers.reserve(t_count);
  for (std::uint64_t t = 0; t < t_count; ++t) {
    workers.emplace_back([&, t] {
      try {
        const Index lo = std::min<Index>(static_cast<Index>(t) * chunk, brows);
        const Index hi = std::min<Index>(lo + chunk, brows);
        fn(lo, hi);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  for (const auto& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace

void BitBsr::validate() const {
  SPADEN_REQUIRE(block_dim == 8, "bitBSR requires 8x8 blocks (64-bit bitmap), got %u",
                 block_dim);
  SPADEN_REQUIRE(brows == ceil_div(nrows, block_dim) && bcols == ceil_div(ncols, block_dim),
                 "block grid dimensions inconsistent");
  SPADEN_REQUIRE(block_row_ptr.size() == static_cast<std::size_t>(brows) + 1,
                 "block_row_ptr size mismatch");
  SPADEN_REQUIRE(block_row_ptr.front() == 0 && block_row_ptr.back() == num_blocks(),
                 "block_row_ptr bounds mismatch");
  SPADEN_REQUIRE(bitmap.size() == num_blocks(), "bitmap size mismatch");
  SPADEN_REQUIRE(val_offset.size() == num_blocks() + 1, "val_offset size mismatch");
  SPADEN_REQUIRE(val_offset.front() == 0 && val_offset.back() == nnz(),
                 "val_offset bounds mismatch");
  for (std::size_t b = 0; b < num_blocks(); ++b) {
    SPADEN_REQUIRE(bitmap[b] != 0, "block %zu is empty — empty blocks must not be stored", b);
    const int pop = std::popcount(bitmap[b]);
    SPADEN_REQUIRE(static_cast<Index>(pop) == val_offset[b + 1] - val_offset[b],
                   "block %zu: popcount %d != value count %u", b, pop,
                   val_offset[b + 1] - val_offset[b]);
  }
  for (Index br = 0; br < brows; ++br) {
    for (Index i = block_row_ptr[br]; i < block_row_ptr[br + 1]; ++i) {
      SPADEN_REQUIRE(block_col[i] < bcols, "block col out of range");
      if (i > block_row_ptr[br]) {
        SPADEN_REQUIRE(block_col[i - 1] < block_col[i],
                       "block columns not ascending in block-row %u", br);
      }
    }
  }
}

BitBsr BitBsr::from_csr(const Csr& a) { return from_csr(a, default_convert_threads()); }

BitBsr BitBsr::from_csr(const Csr& a, int threads) {
  SPADEN_REQUIRE(threads >= 1 && threads <= 256, "convert thread count %d out of [1, 256]",
                 threads);
  constexpr Index kDim = 8;
  BitBsr out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.block_dim = kDim;
  out.brows = ceil_div(a.nrows, kDim);
  out.bcols = ceil_div(a.ncols, kDim);
  out.block_row_ptr.assign(static_cast<std::size_t>(out.brows) + 1, 0);

  // Pass 1 (Figure 4, step 1): count distinct non-empty blocks per
  // block-row using a stamp array (one per worker — block-rows are
  // independent). Counts land in block_row_ptr[br + 1]; the exclusive scan
  // below stays serial, so the offsets match the serial path exactly.
  for_block_row_chunks(out.brows, threads, [&](Index br_lo, Index br_hi) {
    std::vector<Index> stamp(out.bcols, ~Index{0});
    for (Index br = br_lo; br < br_hi; ++br) {
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
      out.block_row_ptr[br + 1] = count;
    }
  });
  for (Index br = 0; br < out.brows; ++br) {
    out.block_row_ptr[br + 1] += out.block_row_ptr[br];
  }

  const std::size_t nblocks = out.block_row_ptr.back();
  out.block_col.resize(nblocks);
  out.bitmap.assign(nblocks, 0);
  out.val_offset.assign(nblocks + 1, 0);

  // Pass 2 (Figure 4, step 2): assign sorted block columns and build each
  // block's bitmap. Each block-row writes only its own
  // block_col/bitmap slice [block_row_ptr[br], block_row_ptr[br + 1]).
  for_block_row_chunks(out.brows, threads, [&](Index br_lo, Index br_hi) {
    std::vector<Index> stamp(out.bcols, ~Index{0});
    std::vector<Index> slot_of(out.bcols, 0);
    std::vector<Index> scratch_cols;
    for (Index br = br_lo; br < br_hi; ++br) {
      scratch_cols.clear();
      const Index row_end = std::min<Index>((br + 1) * kDim, a.nrows);
      for (Index r = br * kDim; r < row_end; ++r) {
        for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
          const Index bc = a.col_idx[i] / kDim;
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
      for (Index r = br * kDim; r < row_end; ++r) {
        const Index local_r = r - br * kDim;
        for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
          const Index bc = a.col_idx[i] / kDim;
          const Index local_c = a.col_idx[i] - bc * kDim;
          set_bit(out.bitmap[slot_of[bc]], block_bit_index(local_r, local_c, kDim));
        }
      }
    }
  });

  // Step 3: exclusive scan of per-block nonzero counts ("The count of
  // nonzero elements in each block is recorded and computed with exclusive
  // scan to determine the offset").
  for (std::size_t b = 0; b < nblocks; ++b) {
    out.val_offset[b + 1] =
        out.val_offset[b] + static_cast<Index>(std::popcount(out.bitmap[b]));
  }
  SPADEN_ASSERT(out.val_offset.back() == a.nnz(), "bitmap population %u != nnz %zu",
                out.val_offset.back(), a.nnz());

  // Step 4: pack nonzero values per block in bitmap (row-major) order,
  // rounded to binary16 for the tensor core. Columns ascend within a row,
  // so consecutive nonzeros usually stay in the same block: cache the last
  // lookup and only binary-search the block-row's column list on a block
  // change. A block-row's values occupy the disjoint range
  // [val_offset[block_row_ptr[br]], val_offset[block_row_ptr[br + 1]]).
  out.values.resize(a.nnz());
  for_block_row_chunks(out.brows, threads, [&](Index br_lo, Index br_hi) {
    for (Index br = br_lo; br < br_hi; ++br) {
      const Index row_end = std::min<Index>((br + 1) * kDim, a.nrows);
      const Index* blocks_begin = out.block_col.data() + out.block_row_ptr[br];
      const Index* blocks_end = out.block_col.data() + out.block_row_ptr[br + 1];
      for (Index r = br * kDim; r < row_end; ++r) {
        const Index local_r = r - br * kDim;
        Index cached_bc = ~Index{0};
        std::size_t cached_block = 0;
        for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
          const Index bc = a.col_idx[i] / kDim;
          const Index local_c = a.col_idx[i] - bc * kDim;
          if (bc != cached_bc) {
            const Index* it = std::lower_bound(blocks_begin, blocks_end, bc);
            SPADEN_ASSERT(it != blocks_end && *it == bc, "block lookup failed");
            cached_bc = bc;
            cached_block = static_cast<std::size_t>(
                out.block_row_ptr[br] + static_cast<Index>(it - blocks_begin));
          }
          const unsigned pos = block_bit_index(local_r, local_c, kDim);
          const int rank = prefix_popcount(out.bitmap[cached_block], pos);
          out.values[out.val_offset[cached_block] + static_cast<Index>(rank)] =
              to_half_checked(a.val[i], "bitBSR", r, a.col_idx[i]);
        }
      }
    }
  });
  return out;
}

Csr BitBsr::to_csr() const {
  Coo coo;
  coo.nrows = nrows;
  coo.ncols = ncols;
  coo.row.reserve(nnz());
  coo.col.reserve(nnz());
  coo.val.reserve(nnz());
  for (Index br = 0; br < brows; ++br) {
    for (Index b = block_row_ptr[br]; b < block_row_ptr[br + 1]; ++b) {
      const std::uint64_t bmp = bitmap[b];
      const Index row_base = br * block_dim;
      const Index col_base = block_col[b] * block_dim;
      Index slot = val_offset[b];
      for (unsigned pos = 0; pos < 64; ++pos) {
        if (test_bit(bmp, pos)) {
          coo.row.push_back(row_base + pos / block_dim);
          coo.col.push_back(col_base + pos % block_dim);
          coo.val.push_back(values[slot].to_float());
          ++slot;
        }
      }
    }
  }
  return Csr::from_coo(coo);
}

Bsr BitBsr::to_bsr() const {
  Bsr out;
  out.nrows = nrows;
  out.ncols = ncols;
  out.block_dim = block_dim;
  out.brows = brows;
  out.bcols = bcols;
  out.block_row_ptr = block_row_ptr;
  out.block_col = block_col;
  out.val.assign(num_blocks() * out.block_elems(), 0.0f);
  for (std::size_t b = 0; b < num_blocks(); ++b) {
    Index slot = val_offset[b];
    for (unsigned pos = 0; pos < 64; ++pos) {
      if (test_bit(bitmap[b], pos)) {
        out.val[b * out.block_elems() + pos] = values[slot].to_float();
        ++slot;
      }
    }
  }
  return out;
}

std::size_t BitBsr::footprint_bytes() const {
  return block_row_ptr.size() * sizeof(Index) + block_col.size() * sizeof(Index) +
         bitmap.size() * sizeof(std::uint64_t) + val_offset.size() * sizeof(Index) +
         values.size() * sizeof(half);
}

std::vector<float> spmv_host(const BitBsr& a, const std::vector<float>& x) {
  SPADEN_REQUIRE(x.size() == a.ncols, "x size %zu != ncols %u", x.size(), a.ncols);
  std::vector<float> y(a.nrows, 0.0f);
  for (Index br = 0; br < a.brows; ++br) {
    const Index row_base = br * a.block_dim;
    for (Index b = a.block_row_ptr[br]; b < a.block_row_ptr[br + 1]; ++b) {
      const Index col_base = a.block_col[b] * a.block_dim;
      const std::uint64_t bmp = a.bitmap[b];
      Index slot = a.val_offset[b];
      for (unsigned pos = 0; pos < 64; ++pos) {
        if (test_bit(bmp, pos)) {
          const Index r = row_base + pos / a.block_dim;
          const Index c = col_base + pos % a.block_dim;
          y[r] += a.values[slot].to_float() * x[c];
          ++slot;
        }
      }
    }
  }
  return y;
}

}  // namespace spaden::mat
