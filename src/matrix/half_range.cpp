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

}  // namespace spaden::mat
