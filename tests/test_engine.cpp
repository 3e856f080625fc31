// Public SpmvEngine API: auto method selection (paper §5.1), multiply,
// preprocessing records.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/error.hpp"

#include "common/bitops.hpp"
#include "core/spaden.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"

namespace spaden {
namespace {

TEST(Engine, AutoSelectionFollowsPaperHeuristic) {
  // §5.1: Spaden for nrow > 10,000 && nnz/nrow > 32, CSR otherwise.
  const mat::Csr big_dense_rows = mat::load_dataset("cant", 0.25);  // ~15k rows, deg 64
  EXPECT_EQ(SpmvEngine::auto_select(big_dense_rows), kern::Method::Spaden);

  const mat::Csr small = mat::Csr::from_coo(mat::random_uniform(1000, 1000, 50000, 1));
  EXPECT_EQ(SpmvEngine::auto_select(small), kern::Method::CusparseCsr);  // nrow too small

  const mat::Csr sparse_rows =
      mat::Csr::from_coo(mat::random_uniform(20000, 20000, 100000, 2));  // deg 5
  EXPECT_EQ(SpmvEngine::auto_select(sparse_rows), kern::Method::CusparseCsr);
}

TEST(Engine, MultiplyMatchesReference) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(400, 400, 9000, 3));
  SpmvEngine engine(a, {.method = kern::Method::Spaden});
  std::vector<float> x(a.ncols, 0.25f);
  std::vector<float> y;
  const SpmvResult r = engine.multiply(x, y);
  ASSERT_EQ(y.size(), a.nrows);
  const auto ref = mat::spmv_reference(a, x);
  for (mat::Index i = 0; i < a.nrows; ++i) {
    EXPECT_NEAR(y[i], ref[i], 0.05);
  }
  EXPECT_GT(r.gflops, 0.0);
  EXPECT_GT(r.modeled_seconds, 0.0);
  EXPECT_EQ(r.stats.warps_launched, (spaden::ceil_div<mat::Index>(a.nrows, 8) + 1) / 2);
}

TEST(Engine, DefaultsToAutoAndL40) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(100, 100, 800, 4));
  SpmvEngine engine(a);
  EXPECT_EQ(engine.chosen_method(), kern::Method::CusparseCsr);  // small matrix
  EXPECT_EQ(engine.device().name, "L40");
  EXPECT_EQ(engine.nrows(), 100u);
  EXPECT_EQ(engine.nnz(), 800u);
}

TEST(Engine, PrepInfoPopulated) {
  const mat::Csr a = mat::load_dataset("rma10", 0.02);
  SpmvEngine engine(a, {.method = kern::Method::Spaden});
  const PrepInfo& p = engine.prep();
  EXPECT_GT(p.seconds, 0.0);
  EXPECT_GT(p.ns_per_nnz, 0.0);
  EXPECT_GT(p.footprint.total_bytes(), 0u);
  EXPECT_NEAR(p.bytes_per_nnz, 2.85, 1.2);  // the paper's headline footprint
}

TEST(Engine, RejectsWrongXSize) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(64, 64, 500, 5));
  SpmvEngine engine(a);
  std::vector<float> x(63);
  std::vector<float> y;
  EXPECT_THROW((void)engine.multiply(x, y), Error);
}

TEST(Engine, V100DeviceOption) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(256, 256, 4000, 6));
  SpmvEngine engine(a, {.method = kern::Method::Spaden, .device = sim::v100()});
  EXPECT_EQ(engine.device().name, "V100");
  std::vector<float> x(a.ncols, 1.0f);
  std::vector<float> y;
  EXPECT_NO_THROW((void)engine.multiply(x, y));
}

TEST(Engine, RepeatedMultipliesConsistent) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(128, 128, 2000, 7));
  SpmvEngine engine(a, {.method = kern::Method::CusparseCsr});
  std::vector<float> x(a.ncols, 0.5f);
  std::vector<float> y1;
  std::vector<float> y2;
  (void)engine.multiply(x, y1);
  (void)engine.multiply(x, y2);
  EXPECT_EQ(y1, y2);
}

TEST(Engine, MoveSemantics) {
  const mat::Csr a = mat::Csr::from_coo(mat::random_uniform(64, 64, 400, 8));
  SpmvEngine engine(a, {.method = kern::Method::Gunrock});
  SpmvEngine moved = std::move(engine);
  EXPECT_EQ(moved.chosen_method(), kern::Method::Gunrock);
  std::vector<float> x(a.ncols, 1.0f);
  std::vector<float> y;
  EXPECT_NO_THROW((void)moved.multiply(x, y));
}

TEST(Engine, OutOfHalfRangeValueRejectedAtConstruction) {
  // 1e5 does not round to a finite binary16. The half-valued formats must
  // refuse it while converting, naming the entry — not let it become inf in
  // y, nor let first-run verification blame the kernel.
  mat::Coo coo = mat::random_uniform(256, 256, 4000, 5);
  coo.row.push_back(5);
  coo.col.push_back(200);
  coo.val.push_back(1e5f);
  const mat::Csr a = mat::Csr::from_coo(coo);
  const std::pair<kern::Method, std::string> formats[] = {
      {kern::Method::Spaden, "bitBSR"},
      {kern::Method::SpadenWide, "bitBSR16"},
      {kern::Method::Dasp, "DASP"},
  };
  for (const auto& [method, format] : formats) {
    for (const bool verify : {true, false}) {
      SCOPED_TRACE(std::string(kern::method_name(method)) +
                   (verify ? " verify_first_run" : " no verify"));
      EngineOptions options;
      options.method = method;
      options.verify_first_run = verify;
      try {
        const SpmvEngine engine(a, options);
        ADD_FAILURE() << "construction accepted an out-of-range value";
      } catch (const Error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(format), std::string::npos) << msg;
        EXPECT_NE(msg.find("(5, 200)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("100000"), std::string::npos) << msg;
      }
    }
  }
  // fp32 methods have no binary16 contract.
  EXPECT_NO_THROW((void)SpmvEngine(a, {.method = kern::Method::CusparseCsr}));
}

TEST(Engine, OutOfHalfRangeMatrixAutoSelectsCsr) {
  // Shaped for Spaden by §5.1 (12,000 rows, 40 nnz/row), but one value does
  // not round to a finite binary16: the default engine must pick fp32 CSR
  // and multiply, not throw while converting to bitBSR.
  mat::Coo coo = mat::random_uniform(12'000, 12'000, 480'000, 9);
  ASSERT_EQ(SpmvEngine::auto_select(mat::Csr::from_coo(coo)), kern::Method::Spaden);
  coo.row.push_back(7);
  coo.col.push_back(11'000);
  coo.val.push_back(1e5f);
  const mat::Csr a = mat::Csr::from_coo(coo);
  EXPECT_EQ(SpmvEngine::auto_select(a), kern::Method::CusparseCsr);

  SpmvEngine engine(a);  // verify_first_run: the multiply is checked too
  EXPECT_EQ(engine.chosen_method(), kern::Method::CusparseCsr);
  const std::vector<float> x(a.ncols, 1.0f);
  std::vector<float> y;
  (void)engine.multiply(x, y);
  ASSERT_EQ(y.size(), a.nrows);
  EXPECT_GT(y[7], 9e4f);
}

}  // namespace
}  // namespace spaden
