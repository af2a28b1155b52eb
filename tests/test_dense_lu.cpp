// Tests for the dense root of LU(S̃) (direct/dense_lu): the dense oracle's
// ‖PA − LU‖ bound, bitwise identity across thread counts, row interchanges
// past a zero diagonal, the singularity error, the storage-based selection
// rule in SchurPreconditioner, and a full SchurSolver solve through it.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "core/preconditioner.hpp"
#include "core/schur_solver.hpp"
#include "direct/dense_lu.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sparse/convert.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pdslin {
namespace {

/// The dense factors as CSC LuFactors, so the check layer's oracle can
/// judge them exactly as it judges the sparse kernels.
LuFactors as_sparse(const DenseLuFactors& f) {
  const index_t n = f.n;
  CooMatrix l(n, n), u(n, n);
  for (index_t j = 0; j < n; ++j) {
    l.add(j, j, 1.0);
    for (index_t i = 0; i < n; ++i) {
      if (i <= j) {
        u.add(i, j, f.at(i, j));
      } else {
        l.add(i, j, f.at(i, j));
      }
    }
  }
  LuFactors s;
  s.n = n;
  s.lower = coo_to_csc(l);
  s.upper = coo_to_csc(u);
  s.row_perm = f.row_perm;
  return s;
}

/// ‖L·U − P·A‖_max within the bound check::check_lu_residual enforces on
/// the sparse kernels.
void expect_oracle_bound(const CsrMatrix& a, const DenseLuFactors& f) {
  check::CheckReport rep;
  check::check_lu_residual(csr_to_csc(a), as_sparse(f), 1e-9, rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

void expect_bitwise(const DenseLuFactors& a, const DenseLuFactors& b,
                    const char* what) {
  ASSERT_EQ(a.n, b.n) << what;
  EXPECT_EQ(a.row_perm, b.row_perm) << what;
  ASSERT_EQ(a.lu.size(), b.lu.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.lu.data(), b.lu.data(),
                           a.lu.size() * sizeof(value_t)))
      << what;
}

TEST(DenseLu, FactorsSatisfyOracleBound) {
  Rng rng(17);
  // 150 and 197 are not multiples of the panel, tile or register sizes.
  for (const index_t n : {1, 7, 150, 197}) {
    const CsrMatrix a = testing::random_sparse(n, n, 0.3, rng, 1.0);
    for (const double tol : {0.1, 1.0}) {
      LuOptions opt;
      opt.pivot_tol = tol;
      const DenseLuFactors f = dense_lu_factorize(a, opt);
      EXPECT_EQ(f.fill_nnz(), static_cast<long long>(n) * n);
      expect_oracle_bound(a, f);
    }
  }
}

TEST(DenseLu, BitwiseAcrossThreadCounts) {
  Rng rng(23);
  const index_t n = 203;  // 3 panels + a ragged one, ragged register tiles
  const CsrMatrix a = testing::random_sparse(n, n, 0.4, rng);
  LuOptions opt;
  opt.pivot_tol = 1.0;  // classic partial pivoting: interchanges everywhere
  opt.threads = 1;
  const DenseLuFactors f1 = dense_lu_factorize(a, opt);
  bool interchanged = false;
  for (index_t k = 0; k < n; ++k) interchanged |= f1.row_perm[k] != k;
  EXPECT_TRUE(interchanged);
  for (const unsigned t : {2u, 4u}) {
    opt.threads = t;
    expect_bitwise(f1, dense_lu_factorize(a, opt), "dense serial vs parallel");
  }
  expect_oracle_bound(a, f1);
}

TEST(DenseLu, ZeroDiagonalTakesInterchanges) {
  // A cyclic shift plus a weak off-diagonal band: every diagonal entry is
  // an exact zero, so each column must pivot away from it — including the
  // interchanges that reach back across the first panel boundary.
  const index_t n = 90;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, (i + 1) % n, 2.0 + 0.01 * i);
    coo.add(i, (i + 2) % n, 0.5);
  }
  const CsrMatrix a = coo_to_csr(coo);
  const DenseLuFactors f = dense_lu_factorize(a);
  bool moved = false;
  for (index_t k = 0; k < n; ++k) moved |= f.row_perm[k] != k;
  EXPECT_TRUE(moved);
  expect_oracle_bound(a, f);
}

TEST(DenseLu, SingularRaisesError) {
  // A repeated row cancels to exact zeros inside one panel.
  Rng rng(3);
  testing::Dense d(8, std::vector<value_t>(8, 0.0));
  for (auto& row : d) {
    for (auto& v : row) v = rng.uniform(-1.0, 1.0);
  }
  d[5] = d[2];
  EXPECT_THROW(dense_lu_factorize(testing::from_dense(d)), Error);

  // An empty column in the second panel stays exactly zero through the
  // TRSM and GEMM updates of the first.
  const index_t n = 70;
  CsrMatrix a = testing::random_sparse(n, n, 0.5, rng, 2.0);
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      if (a.col_idx[p] != 66) coo.add(i, a.col_idx[p], a.values[p]);
    }
  }
  try {
    dense_lu_factorize(coo_to_csr(coo));
    ADD_FAILURE() << "expected a singularity error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("singular at column 66"),
              std::string::npos)
        << e.what();
  }
}

TEST(DenseLu, SolveInPlaceInvertsTheMatrix) {
  Rng rng(29);
  const index_t n = 130;
  const CsrMatrix a = testing::random_sparse(n, n, 0.2, rng, 2.0);
  const DenseLuFactors f = dense_lu_factorize(a);
  std::vector<value_t> x_star(n), b(n, 0.0), x(n);
  for (auto& v : x_star) v = rng.uniform(-1.0, 1.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      b[i] += a.values[p] * x_star[a.col_idx[p]];
    }
  }
  for (index_t k = 0; k < n; ++k) x[k] = b[f.row_perm[k]];
  f.solve_in_place(x);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_star[i], 1e-10);
}

TEST(DenseLu, SelectionRuleFollowsStorage) {
  // Boundary of (2·nnz(L_sym) − n)·12 ≥ 8·n²: n = 3 needs nnz(L_sym) ≥ 4.5.
  EXPECT_FALSE(dense_root_pays(4, 3));
  EXPECT_TRUE(dense_root_pays(5, 3));
  EXPECT_TRUE(dense_root_pays(1, 1));
  EXPECT_FALSE(dense_root_pays(0, 0));
  EXPECT_DOUBLE_EQ(predicted_fill_density(6, 3), 1.0);

  // Tridiagonal: no fill, predicted density ≈ 3/n → sparse root.
  const index_t n = 120;
  CooMatrix tri(n, n);
  for (index_t i = 0; i < n; ++i) {
    tri.add(i, i, 4.0);
    if (i + 1 < n) {
      tri.add(i, i + 1, -1.0);
      tri.add(i + 1, i, -1.0);
    }
  }
  const SchurPreconditioner sparse(coo_to_csr(tri));
  EXPECT_FALSE(sparse.dense());
  EXPECT_LT(sparse.predicted_density(), 2.0 / 3.0);

  // Dense matrix: every entry filled → dense root.
  Rng rng(31);
  const SchurPreconditioner dense(testing::random_sparse(n, n, 1.0, rng, 4.0));
  EXPECT_TRUE(dense.dense());
  EXPECT_DOUBLE_EQ(dense.predicted_density(), 1.0);
  EXPECT_EQ(dense.factor_nnz(), static_cast<long long>(n) * n);
  EXPECT_GE(dense.memory_bytes(), static_cast<std::size_t>(n) * n * sizeof(value_t));
}

TEST(DenseLu, CountsWorkInPanelUnitsAndTraces) {
  Rng rng(37);
  const index_t n = 100;
  const CsrMatrix a = testing::random_sparse(n, n, 0.5, rng, 2.0);
  obs::Counter& total = obs::counter("lu.panel.total_flops");
  obs::Counter& gemm = obs::counter("lu.panel.gemm_flops");
  obs::Counter& runs = obs::counter("lu.dense.factorizations");
  const long long total0 = total.value(), gemm0 = gemm.value();
  const long long runs0 = runs.value();
  obs::trace_reset();
  obs::trace_enable();
  const DenseLuFactors f = dense_lu_factorize(a);
  obs::trace_disable();
  const std::string trace = obs::trace_to_chrome_json();
  obs::trace_reset();
  // One panel of width n: Σ_j (n − 1 − j)² multiply-adds, the trailing
  // GEMM a subset of them.
  const long long expect = static_cast<long long>(n - 1) * n * (2 * n - 1) / 6;
  EXPECT_EQ(f.total_flops, expect);
  EXPECT_GT(f.gemm_flops, 0);
  EXPECT_LT(f.gemm_flops, f.total_flops);
  EXPECT_EQ(total.value() - total0, f.total_flops);
  EXPECT_EQ(gemm.value() - gemm0, f.gemm_flops);
  EXPECT_EQ(runs.value() - runs0, 1);
  EXPECT_NE(trace.find("\"lu.dense.factor\""), std::string::npos);
}

/// A full solve whose S̃ takes the dense root (several panels wide).
std::vector<value_t> dense_root_solve(unsigned outer, unsigned inner,
                                      SolverStats* stats = nullptr) {
  const CsrMatrix a = testing::grid_laplacian(48, 48);
  Rng rng(5);
  std::vector<value_t> b(a.rows);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  SolverOptions opt;
  opt.num_subdomains = 4;
  opt.threads = outer;
  opt.assembly.inner_threads = inner;
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();
  std::vector<value_t> x(a.rows, 0.0);
  solver.solve(b, x);
  EXPECT_TRUE(solver.stats().converged);
  if (stats != nullptr) *stats = solver.stats();
  return x;
}

TEST(DenseLu, SchurSolverBitwiseAcrossThreadLayouts) {
  SolverStats st;
  const std::vector<value_t> x1 = dense_root_solve(1, 1, &st);
  ASSERT_TRUE(st.lu_schur_dense);
  EXPECT_GE(st.lu_schur_predicted_density, 2.0 / 3.0);
  EXPECT_GT(st.schur_dim, 64);
  EXPECT_EQ(st.precond_nnz, st.schur_dim * st.schur_dim);
  obs::RunReport rep;
  rep.add_solver(SolverOptions{}, st);
  ASSERT_NE(rep.find_stat("lu_schur_dense"), nullptr);
  EXPECT_EQ(*rep.find_stat("lu_schur_dense"), 1.0);
  ASSERT_NE(rep.find_stat("lu_schur_predicted_density"), nullptr);
  EXPECT_EQ(*rep.find_stat("lu_schur_predicted_density"),
            st.lu_schur_predicted_density);
  const std::vector<value_t> x4 = dense_root_solve(2, 2);
  ASSERT_EQ(x1.size(), x4.size());
  EXPECT_EQ(0, std::memcmp(x1.data(), x4.data(), x1.size() * sizeof(value_t)));
}

}  // namespace
}  // namespace pdslin
