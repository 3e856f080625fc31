// Format/method recommendation analysis.
#include <gtest/gtest.h>

#include "analysis/recommend.hpp"
#include "core/spaden.hpp"
#include "common/error.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden::analysis {
namespace {

TEST(Recommend, CoversAllFormats) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(200, 200, 4000, 1));
  const Recommendation rec = recommend(a, sim::l40(), /*benchmark_methods=*/false);
  std::vector<std::string> names;
  for (const auto& f : rec.formats) {
    names.push_back(f.format);
  }
  for (const char* expected : {"CSR", "ELL", "HYB", "DIA", "BSR 8x8", "bitBSR"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
  }
}

TEST(Recommend, BitBsrIsMostCompactOnBlockFriendlyMatrix) {
  const mat::Csr a = mat::load_dataset("cant", 0.02);
  const Recommendation rec = recommend(a, sim::l40(), false);
  // Sorted: the first suitable entry is the cheapest.
  EXPECT_EQ(rec.formats.front().format, "bitBSR");
}

TEST(Recommend, DiaFlaggedUnsuitableOnScatteredMatrix) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(300, 300, 5000, 2));
  const Recommendation rec = recommend(a, sim::l40(), false);
  for (const auto& f : rec.formats) {
    if (f.format == "DIA") {
      EXPECT_FALSE(f.suitable);
    }
  }
  // Unsuitable formats sort last.
  EXPECT_FALSE(rec.formats.front().suitable == false);
}

TEST(Recommend, HeuristicMatchesEngineAutoSelect) {
  const mat::Csr big = mat::load_dataset("consph", 0.25);
  EXPECT_EQ(recommend(big, sim::l40(), false).heuristic_method,
            spaden::SpmvEngine::auto_select(big));
  const mat::Csr small = mat::Csr::from_coo(mat::random_uniform(100, 100, 500, 3));
  EXPECT_EQ(recommend(small, sim::l40(), false).heuristic_method,
            kern::Method::CusparseCsr);
}

TEST(Recommend, BenchmarkedMethodsSortedDescending) {
  const mat::Csr a = mat::load_dataset("cant", 0.02);
  const Recommendation rec = recommend(a, sim::l40(), true);
  ASSERT_EQ(rec.methods.size(), 3u);
  EXPECT_GE(rec.methods[0].modeled_gflops, rec.methods[1].modeled_gflops);
  EXPECT_GE(rec.methods[1].modeled_gflops, rec.methods[2].modeled_gflops);
  EXPECT_EQ(rec.best_method, rec.methods.front().method);
}

TEST(Recommend, SummaryMentionsEveryFormat) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(64, 64, 600, 4));
  const std::string s = recommend(a, sim::l40(), false).summary();
  EXPECT_NE(s.find("bitBSR"), std::string::npos);
  EXPECT_NE(s.find("recommended method"), std::string::npos);
}

TEST(Recommend, OutOfHalfRangeValueRulesOutHalfValuedFormats) {
  // bitBSR cannot hold 1e5: it is marked unsuitable with a note naming the
  // entry (not converted, which would throw), and benchmarking skips the
  // half-valued methods.
  mat::Coo coo = mat::random_uniform(256, 256, 4000, 5);
  coo.row.push_back(5);
  coo.col.push_back(200);
  coo.val.push_back(1e5f);
  const mat::Csr a = mat::Csr::from_coo(coo);
  const Recommendation rec = recommend(a, sim::l40(), /*benchmark_methods=*/true);
  const auto bitbsr = std::find_if(rec.formats.begin(), rec.formats.end(),
                                   [](const FormatAssessment& f) { return f.format == "bitBSR"; });
  ASSERT_NE(bitbsr, rec.formats.end());
  EXPECT_FALSE(bitbsr->suitable);
  EXPECT_NE(bitbsr->note.find("(5, 200)"), std::string::npos) << bitbsr->note;
  EXPECT_NE(bitbsr->note.find("100000"), std::string::npos) << bitbsr->note;
  EXPECT_NE(std::find_if(rec.formats.begin(), rec.formats.end(),
                         [](const FormatAssessment& f) { return f.format == "BSR 8x8"; }),
            rec.formats.end());
  ASSERT_EQ(rec.methods.size(), 2u);
  for (const MethodAssessment& m : rec.methods) {
    EXPECT_FALSE(kern::stores_half_values(m.method)) << kern::method_name(m.method);
  }
  EXPECT_FALSE(kern::stores_half_values(rec.best_method));
}

TEST(Recommend, EmptyMatrixRejected) {
  mat::Csr empty;
  empty.nrows = 4;
  empty.ncols = 4;
  empty.row_ptr = {0, 0, 0, 0, 0};
  EXPECT_THROW((void)recommend(empty), spaden::Error);
}

}  // namespace
}  // namespace spaden::analysis
