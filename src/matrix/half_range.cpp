#include "matrix/half_range.hpp"

#include "common/error.hpp"

namespace spaden::mat {

void throw_half_range(const char* format, Index row, Index col, float value) {
  detail::throw_check_failure(
      "precondition", "value rounds to a finite binary16", __FILE__, __LINE__,
      strfmt("%s stores values as binary16, but entry (%u, %u) = %g does not round to a "
             "finite half (NaN, Inf and |v| >= 65520 are rejected)",
             format, row, col, static_cast<double>(value)));
}

std::optional<OutOfRangeEntry> first_outside_half_range(const Csr& a) {
  for (Index r = 0; r < a.nrows; ++r) {
    for (Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      if (!rounds_to_finite_half(a.val[i])) {
        return OutOfRangeEntry{r, a.col_idx[i], a.val[i]};
      }
    }
  }
  return std::nullopt;
}

}  // namespace spaden::mat
