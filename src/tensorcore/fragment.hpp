// Tensor-core fragment emulation with the paper's reverse-engineered
// register <-> thread mapping (paper §3, Figures 1 and 2).
//
// A 16x16 fragment is held collectively by a warp of 32 threads as 8
// registers per thread (fragment.x[0..7]). The fragment decomposes into four
// 8x8 portions; each portion is covered by register pair {2p, 2p+1} of all
// 32 lanes, with lane `lid` holding two consecutive elements:
//
//     portion        register pair   element of lane `lid`
//     top-left       x[0], x[1]      row lid/4, cols 2*(lid%4), 2*(lid%4)+1
//     bottom-left    x[2], x[3]      (rows 8..15, cols 0..7)
//     top-right      x[4], x[5]      (rows 0..7, cols 8..15)
//     bottom-right   x[6], x[7]      (rows 8..15, cols 8..15)
//
// Matrix-A and accumulator fragments are row-major within a portion (the two
// consecutive elements sit in one row); matrix-B fragments are column-major
// (the two consecutive elements sit in one column), which is what lets
// Algorithm 2's vector decode place an x-segment so that every column of the
// B portion equals the segment.
//
// The concrete constants here reproduce the paper's observable facts: valid
// register indices span 0..7 (not 0..15); the top-left portion is x[0,1];
// the bottom-right portion is x[6,7] (used by Algorithms 3 and 4); one
// thread controls two consecutive elements per portion.
#pragma once

#include <array>
#include <cstdint>

#include "common/error.hpp"
#include "common/half.hpp"
#include "gpusim/warp.hpp"

namespace spaden::tc {

inline constexpr unsigned kFragDim = 16;      ///< fragment is 16x16
inline constexpr unsigned kPortionDim = 8;    ///< each portion is 8x8
inline constexpr unsigned kRegsPerLane = 8;   ///< valid indices of fragment.x
inline constexpr unsigned kLanes = spaden::sim::kWarpSize;

/// Fragment roles; A/accumulator are row-major within portions, B is
/// column-major.
enum class FragUse { MatrixA, MatrixB, Accumulator };

struct Coord {
  unsigned row;
  unsigned col;
  friend bool operator==(const Coord&, const Coord&) = default;
};

/// Which register pair {2p, 2p+1} covers the portion at (portion_row,
/// portion_col), each in {0, 1}. This is the reverse-engineered map:
/// TL -> 0, BL -> 1, TR -> 2, BR -> 3.
[[nodiscard]] constexpr unsigned portion_pair(unsigned portion_row, unsigned portion_col) {
  return portion_col * 2 + portion_row;
}

/// Fragment coordinate held by (lane, reg) for the given use.
[[nodiscard]] Coord frag_coord(FragUse use, unsigned lane, unsigned reg);

/// All 256 frag_coord results for one use, indexed lane * kRegsPerLane + reg.
/// to_matrix/from_matrix and the reference MMA (wmma_mma_reference) walk this
/// table instead of re-deriving the mapping per element; the structure-aware
/// wmma_mma reads registers by portion and needs no table.
struct FragCoordTable {
  std::array<Coord, kLanes * kRegsPerLane> at;
};
[[nodiscard]] const FragCoordTable& frag_coord_table(FragUse use);

/// Inverse mapping: (lane, reg) holding fragment element (row, col).
[[nodiscard]] std::pair<unsigned, unsigned> frag_locate(FragUse use, unsigned row,
                                                        unsigned col);

/// A warp's view of one fragment: x[lane][reg], mirroring
/// `wmma::fragment::x` replicated across the 32 lanes.
template <typename T, FragUse Use>
class Fragment {
 public:
  static constexpr FragUse kUse = Use;

  /// Direct register access — the capability §3's reverse engineering
  /// unlocks. No memory traffic; the caller charges RegMove ops.
  [[nodiscard]] T& x(unsigned lane, unsigned reg) {
    SPADEN_ASSERT(lane < kLanes && reg < kRegsPerLane, "fragment register out of range");
    return x_[lane][reg];
  }
  [[nodiscard]] const T& x(unsigned lane, unsigned reg) const {
    SPADEN_ASSERT(lane < kLanes && reg < kRegsPerLane, "fragment register out of range");
    return x_[lane][reg];
  }

  /// Every register of every lane, indexed [lane][reg], without x()'s
  /// bounds check — for emulation code that walks whole portions.
  [[nodiscard]] const std::array<std::array<T, kRegsPerLane>, kLanes>& regs() const {
    return x_;
  }
  [[nodiscard]] std::array<std::array<T, kRegsPerLane>, kLanes>& regs() { return x_; }

  void fill(T value) {
    for (auto& lane : x_) {
      lane.fill(value);
    }
  }

  /// Dense 16x16 view assembled from the register layout.
  [[nodiscard]] std::array<std::array<T, kFragDim>, kFragDim> to_matrix() const {
    std::array<std::array<T, kFragDim>, kFragDim> m{};
    const FragCoordTable& tab = frag_coord_table(Use);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      for (unsigned reg = 0; reg < kRegsPerLane; ++reg) {
        const Coord c = tab.at[lane * kRegsPerLane + reg];
        m[c.row][c.col] = x_[lane][reg];
      }
    }
    return m;
  }

  /// Scatter a dense 16x16 matrix into the register layout.
  void from_matrix(const std::array<std::array<T, kFragDim>, kFragDim>& m) {
    const FragCoordTable& tab = frag_coord_table(Use);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      for (unsigned reg = 0; reg < kRegsPerLane; ++reg) {
        const Coord c = tab.at[lane * kRegsPerLane + reg];
        x_[lane][reg] = m[c.row][c.col];
      }
    }
  }

 private:
  std::array<std::array<T, kRegsPerLane>, kLanes> x_{};
};

using FragA = Fragment<half, FragUse::MatrixA>;
using FragB = Fragment<half, FragUse::MatrixB>;
using FragAcc = Fragment<float, FragUse::Accumulator>;

}  // namespace spaden::tc
