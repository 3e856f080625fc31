// The binary16 input contract of the half-valued formats (bitBSR,
// bitBSR16, DASP tiles): a matrix value enters the format only if it rounds
// to a finite half. Anything else would silently become inf in y, or make
// first-run verification blame the kernel for the input's fault.
#pragma once

#include "common/half.hpp"
#include "matrix/coo.hpp"

namespace spaden::mat {

/// Throws the spaden::Error of to_half_checked.
[[noreturn]] void throw_half_range(const char* format, Index row, Index col, float value);

/// `value`, entry (row, col) of a matrix converted to `format`, narrowed to
/// binary16. Rejects every value that does not round to a finite half —
/// NaN, ±Inf and |v| >= 65520 — with an error naming the format, the entry
/// and the value.
inline half to_half_checked(float value, const char* format, Index row, Index col) {
  const half h(value);
  if ((h.bits() & 0x7C00u) == 0x7C00u) [[unlikely]] {  // exponent all ones: inf/NaN
    throw_half_range(format, row, col, value);
  }
  return h;
}

}  // namespace spaden::mat
