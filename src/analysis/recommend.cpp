#include "analysis/recommend.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "analysis/experiment.hpp"
#include "common/error.hpp"
#include "core/spaden.hpp"
#include "matrix/bitbsr.hpp"
#include "matrix/bsr.hpp"
#include "matrix/ell.hpp"
#include "matrix/half_range.hpp"

namespace spaden::analysis {

namespace {

double per_nnz(std::size_t bytes, std::size_t nnz) {
  return nnz == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(nnz);
}

}  // namespace

Recommendation recommend(const mat::Csr& a, const sim::DeviceSpec& device,
                         bool benchmark_methods) {
  SPADEN_REQUIRE(a.nnz() > 0, "cannot recommend a format for an empty matrix");
  Recommendation rec;
  const std::size_t nnz = a.nnz();

  // --- storage assessments -----------------------------------------------
  rec.formats.push_back(
      {"CSR", per_nnz(a.row_ptr.size() * 4 + nnz * 8, nnz), true, "the safe default"});

  {
    mat::Index max_row = 0;
    for (mat::Index r = 0; r < a.nrows; ++r) {
      max_row = std::max(max_row, a.row_nnz(r));
    }
    const double pad = a.nrows == 0 ? 0.0
                                    : static_cast<double>(max_row) * a.nrows /
                                          static_cast<double>(nnz);
    const bool ok = pad < 3.0;
    rec.formats.push_back({"ELL",
                           per_nnz(static_cast<std::size_t>(static_cast<double>(nnz) * pad) * 8,
                                   nnz),
                           ok,
                           ok ? strfmt("padding factor %.2f", pad)
                              : strfmt("padding factor %.2f — row lengths too skewed", pad)});
    const mat::Hyb hyb = mat::Hyb::from_csr(a);
    rec.formats.push_back(
        {"HYB",
         per_nnz(hyb.ell.col_idx.size() * 4 + hyb.ell.val.size() * 4 + hyb.coo.nnz() * 12,
                 nnz),
         true, strfmt("%zu entries overflow to COO", hyb.coo.nnz())});
  }

  {
    // DIA viability: count populated diagonals without materializing.
    std::map<long long, bool> diagonals;
    bool too_many = false;
    for (mat::Index r = 0; r < a.nrows && !too_many; ++r) {
      for (mat::Index i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        diagonals[static_cast<long long>(a.col_idx[i]) - r] = true;
        too_many = diagonals.size() > 512;
      }
    }
    if (too_many) {
      rec.formats.push_back({"DIA", 0.0, false, "more than 512 populated diagonals"});
    } else {
      rec.formats.push_back(
          {"DIA",
           per_nnz(diagonals.size() * (4 + static_cast<std::size_t>(a.nrows) * 4), nnz),
           true, strfmt("%zu diagonals", diagonals.size())});
    }
  }

  // bitBSR stores binary16: a value outside the half range rules it out,
  // and converting would throw, so it is not converted.
  const std::optional<mat::OutOfRangeEntry> outside = mat::first_outside_half_range(a);
  {
    const std::vector<mat::Index> block_row_ptr = mat::bsr_block_row_ptr(a, 8);
    const std::size_t bnnz = block_row_ptr.back();
    const double fill = static_cast<double>(nnz) / (static_cast<double>(bnnz) * 64.0);
    rec.formats.push_back(
        {"BSR 8x8", per_nnz(bnnz * 256 + bnnz * 4 + block_row_ptr.size() * 4, nnz),
         fill > 0.5, strfmt("block fill %.0f%%", 100.0 * fill)});
    if (outside) {
      rec.formats.push_back(
          {"bitBSR", 0.0, false,
           strfmt("half values, but entry (%u, %u) = %g does not round to a finite half",
                  outside->row, outside->col, static_cast<double>(outside->value))});
    } else {
      const mat::BitBsr bb = mat::BitBsr::from_csr(a);
      rec.formats.push_back({"bitBSR", per_nnz(bb.footprint_bytes(), nnz), true,
                             strfmt("half values; %.1f nnz/block",
                                    static_cast<double>(nnz) /
                                        static_cast<double>(bb.bnnz()))});
    }
  }
  std::stable_sort(rec.formats.begin(), rec.formats.end(),
                   [](const FormatAssessment& l, const FormatAssessment& r) {
                     if (l.suitable != r.suitable) {
                       return l.suitable;
                     }
                     return l.bytes_per_nnz < r.bytes_per_nnz;
                   });

  // --- method assessments --------------------------------------------------
  rec.heuristic_method = SpmvEngine::auto_select(a);
  rec.best_method = rec.heuristic_method;
  if (benchmark_methods) {
    for (const kern::Method m :
         {kern::Method::CusparseCsr, kern::Method::CusparseBsr, kern::Method::Spaden}) {
      if (outside && kern::stores_half_values(m)) {
        continue;
      }
      const MethodRun run = run_method(device, m, a, "recommend");
      rec.methods.push_back({m, run.gflops});
    }
    std::stable_sort(rec.methods.begin(), rec.methods.end(),
                     [](const MethodAssessment& l, const MethodAssessment& r) {
                       return l.modeled_gflops > r.modeled_gflops;
                     });
    rec.best_method = rec.methods.front().method;
  }
  return rec;
}

std::string Recommendation::summary() const {
  std::ostringstream os;
  os << "storage (ascending bytes/nnz):\n";
  for (const auto& f : formats) {
    os << strfmt("  %-8s %6.2f B/nnz  %s%s\n", f.format.c_str(), f.bytes_per_nnz,
                 f.suitable ? "" : "[unsuitable] ", f.note.c_str());
  }
  if (!methods.empty()) {
    os << "modeled SpMV (descending GFLOPS):\n";
    for (const auto& m : methods) {
      os << strfmt("  %-14s %8.1f GFLOP/s\n",
                   std::string(kern::method_name(m.method)).c_str(), m.modeled_gflops);
    }
  }
  os << "recommended method: " << std::string(kern::method_name(best_method))
     << " (paper heuristic: " << std::string(kern::method_name(heuristic_method)) << ")\n";
  return os.str();
}

}  // namespace spaden::analysis
