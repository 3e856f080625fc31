// The binary16 input contract of the half-valued formats (bitBSR,
// bitBSR16, DASP tiles): a matrix value enters the format only if it rounds
// to a finite half. Anything else would silently become inf in y, or make
// first-run verification blame the kernel for the input's fault. Method
// selection (SpmvEngine::auto_select, analysis::recommend) applies the same
// predicate and sends such matrices to fp32 methods instead.
#pragma once

#include <optional>

#include "common/half.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"

namespace spaden::mat {

/// The contract itself: `value` rounds to a finite binary16. False for NaN,
/// ±Inf and |v| >= 65520 (the midpoint between 65504, the largest finite
/// half, and 65536, which rounds to even — infinity).
[[nodiscard]] inline bool rounds_to_finite_half(float value) {
  return (half(value).bits() & 0x7C00u) != 0x7C00u;  // exponent all ones: inf/NaN
}

/// Throws the spaden::Error of to_half_checked.
[[noreturn]] void throw_half_range(const char* format, Index row, Index col, float value);

/// `value`, entry (row, col) of a matrix converted to `format`, narrowed to
/// binary16. Rejects every value that does not round to a finite half —
/// NaN, ±Inf and |v| >= 65520 — with an error naming the format, the entry
/// and the value.
inline half to_half_checked(float value, const char* format, Index row, Index col) {
  if (!rounds_to_finite_half(value)) [[unlikely]] {
    throw_half_range(format, row, col, value);
  }
  return half(value);
}

/// A stored entry of a matrix, reported by first_outside_half_range.
struct OutOfRangeEntry {
  Index row = 0;
  Index col = 0;
  float value = 0;
};

/// The first stored entry of `a`, in row-major order, whose value does not
/// round to a finite half — the entry a half-valued format would reject.
/// Lets method selection route such a matrix to an fp32 method up front.
[[nodiscard]] std::optional<OutOfRangeEntry> first_outside_half_range(const Csr& a);

}  // namespace spaden::mat
