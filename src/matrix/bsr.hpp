// Blocked CSR (BSR) — paper §4.2.
//
// The matrix is tiled into `block_dim x block_dim` blocks; the positions of
// non-empty blocks are encoded CSR-style over the block grid, and every
// block is stored as a dense block_dim^2 value array — zeros included. BSR
// is what cuSPARSE's bsrmv consumes and is the stepping stone to bitBSR: it
// restores the rectangular shape tensor cores need, at the price of
// materializing the zeros that bitBSR then compresses away.
#pragma once

#include <vector>

#include "matrix/csr.hpp"

namespace spaden::mat {

struct Bsr {
  Index nrows = 0;  ///< original (unpadded) dimensions
  Index ncols = 0;
  Index block_dim = 8;
  Index brows = 0;  ///< ceil(nrows / block_dim)
  Index bcols = 0;
  std::vector<Index> block_row_ptr;  ///< brows + 1
  std::vector<Index> block_col;      ///< num_blocks, ascending per block-row
  /// num_blocks * block_dim^2 dense values, row-major within each block.
  std::vector<float> val;

  [[nodiscard]] std::size_t num_blocks() const { return block_col.size(); }
  [[nodiscard]] std::size_t block_elems() const {
    return static_cast<std::size_t>(block_dim) * block_dim;
  }
  /// Count of stored values that are actual nonzeros.
  [[nodiscard]] std::size_t nnz() const;
  /// Average fill of non-empty blocks in [0, 1].
  [[nodiscard]] double fill_ratio() const;

  void validate() const;

  [[nodiscard]] static Bsr from_csr(const Csr& a, Index block_dim = 8);
  [[nodiscard]] Csr to_csr() const;
};

/// Block-row offsets of `a` tiled into block_dim x block_dim blocks, as in
/// Bsr::block_row_ptr: back() is the number of blocks holding at least one
/// stored entry. Needs only the sparsity structure, not the values.
[[nodiscard]] std::vector<Index> bsr_block_row_ptr(const Csr& a, Index block_dim);

std::vector<float> spmv_host(const Bsr& a, const std::vector<float>& x);

}  // namespace spaden::mat
