// Solve-path tests: batched multi-RHS solves, parallel-vs-serial bitwise
// determinism of the fanned-out Schur operator sweeps, allocation-free
// steady state of the preallocated workspaces, and the degenerate
// no-separator (k = 1) path.
#include <gtest/gtest.h>

#include "core/schur_solver.hpp"
#include "direct/lu.hpp"
#include "gen/suite.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

std::vector<value_t> random_batch(index_t n, index_t nrhs, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n) *
                         static_cast<std::size_t>(nrhs));
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

TEST(SolvePath, MultiRhsMatchesColumnwiseSolves) {
  const CsrMatrix a = testing::grid_laplacian(18, 18);
  const index_t n = a.rows;
  const index_t nrhs = 4;
  SolverOptions opt;
  opt.num_subdomains = 4;
  opt.seed = 5;
  SchurSolver batched(a, opt);
  batched.setup();
  batched.factor();
  SchurSolver single(a, opt);
  single.setup();
  single.factor();

  const auto b = random_batch(n, nrhs, 43);
  std::vector<value_t> xb(b.size(), 0.0);
  const std::vector<GmresResult> results = batched.solve_multi(b, xb, nrhs);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(nrhs));

  int total_iterations = 0;
  for (index_t j = 0; j < nrhs; ++j) {
    const std::span<const value_t> bj(b.data() + j * n, n);
    std::vector<value_t> xj(n, 0.0);
    const GmresResult rj = single.solve(bj, xj);
    EXPECT_TRUE(results[j].converged);
    EXPECT_EQ(rj.iterations, results[j].iterations);
    total_iterations += results[j].iterations;
    // Same operator trajectory whether the column is solved alone or as
    // part of a batch: bitwise identical.
    for (index_t i = 0; i < n; ++i) EXPECT_EQ(xj[i], xb[j * n + i]) << j;
    EXPECT_LT(residual_norm(a, std::span<const value_t>(xb.data() + j * n, n),
                            bj) / norm2(bj), 1e-8);
  }

  const SolverStats& st = batched.stats();
  EXPECT_EQ(st.nrhs, nrhs);
  EXPECT_EQ(st.iterations, total_iterations);
  EXPECT_TRUE(st.converged);
  EXPECT_GT(st.solve_applies, 0);
}

TEST(SolvePath, RepeatedSolvesAreAllocationFree) {
  const CsrMatrix a = testing::grid_laplacian(16, 16);
  SolverOptions opt;
  opt.num_subdomains = 4;
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();

  const auto b = random_batch(a.rows, 1, 47);
  std::vector<value_t> x(a.rows, 0.0);
  // First solve may grow the Krylov workspace lazily (the per-subdomain
  // scratch is preallocated in factor()).
  EXPECT_TRUE(solver.solve(b, x).converged);
  const long long allocs = solver.stats().solve_workspace_allocs;
  const long long applies = solver.stats().solve_applies;
  EXPECT_GT(allocs, 0);
  EXPECT_GT(applies, 0);

  for (int trial = 0; trial < 3; ++trial) {
    std::fill(x.begin(), x.end(), 0.0);
    EXPECT_TRUE(solver.solve(b, x).converged);
    // Steady state: every buffer is reused, the counter stays flat.
    EXPECT_EQ(solver.stats().solve_workspace_allocs, allocs) << trial;
    // solve_applies resets per batch; operator_applies accumulates.
    EXPECT_EQ(solver.stats().solve_applies, applies) << trial;
    EXPECT_EQ(solver.stats().operator_applies,
              applies * (static_cast<long long>(trial) + 2)) << trial;
  }
}

// The fanned-out subdomain sweeps (Schur operator apply, ĝ reduction,
// back-substitution) must be bitwise identical to the serial sweeps —
// the deterministic block-ordered stitching preserves the exact FP
// summation order. Runs under the `parallel` ctest label (TSan CI).
TEST(SolvePath, ParallelSolveIsBitwiseIdenticalToSerial) {
  const GeneratedProblem p = make_suite_matrix("dds.linear", 0.05);
  SolverOptions serial;
  serial.num_subdomains = 8;
  serial.seed = 53;
  SolverOptions threaded = serial;
  threaded.threads = 4;

  SchurSolver s1(p.a, serial), s2(p.a, threaded);
  s1.setup(&p.incidence);
  s1.factor();
  s2.setup(&p.incidence);
  s2.factor();

  const index_t nrhs = 3;
  const auto b = random_batch(p.a.rows, nrhs, 59);
  std::vector<value_t> x1(b.size(), 0.0), x2(b.size(), 0.0);
  const auto r1 = s1.solve_multi(b, x1, nrhs);
  const auto r2 = s2.solve_multi(b, x2, nrhs);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t j = 0; j < r1.size(); ++j) {
    EXPECT_TRUE(r1[j].converged) << j;
    EXPECT_EQ(r1[j].iterations, r2[j].iterations) << j;
    EXPECT_EQ(r1[j].relative_residual, r2[j].relative_residual) << j;
  }
  EXPECT_EQ(x1, x2);  // bitwise, not approximately
  EXPECT_EQ(s1.stats().solve_applies, s2.stats().solve_applies);
}

// k = 1: the whole matrix is one subdomain, the separator is empty, and the
// Schur iteration degenerates to a zero-dimensional solve — the solve path
// must reduce to the direct D⁻¹ back-substitution without touching the
// (empty) Krylov machinery.
TEST(SolvePath, DegenerateEmptySeparatorSolvesDirectly) {
  const CsrMatrix a = testing::grid_laplacian(9, 9);
  SolverOptions opt;
  opt.num_subdomains = 1;
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();
  EXPECT_EQ(solver.partition().separator_size(), 0);

  const auto b = random_batch(a.rows, 1, 71);
  std::vector<value_t> x(a.rows, 0.0);
  const GmresResult r = solver.solve(b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);

  // Dense-LU oracle.
  const LuFactors f = lu_factorize(a);
  std::vector<value_t> xd(a.rows);
  lu_solve(f, b, xd);
  for (index_t i = 0; i < a.rows; ++i) EXPECT_NEAR(x[i], xd[i], 1e-9);
}

TEST(SolvePath, SolveMultiValidatesArguments) {
  const CsrMatrix a = testing::grid_laplacian(6, 6);
  SolverOptions opt;
  opt.num_subdomains = 2;
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();
  const auto b = random_batch(a.rows, 2, 73);
  std::vector<value_t> x(b.size(), 0.0);
  EXPECT_THROW(solver.solve_multi(b, x, 0), Error);
  std::vector<value_t> x_short(a.rows, 0.0);
  EXPECT_THROW(solver.solve_multi(b, x_short, 2), Error);
}

}  // namespace
}  // namespace pdslin
