// Tests for the extension features (paper §VI future work): parallel RHB
// determinism and nnz-weighted NGD.
#include <gtest/gtest.h>

#include "core/rhb.hpp"
#include "core/schur_solver.hpp"
#include "gen/grid_fem.hpp"
#include "gen/suite.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"

namespace pdslin {
namespace {

TEST(ParallelRhb, BitIdenticalToSerial) {
  GridFemOptions gen;
  gen.nx = gen.ny = 28;
  gen.nz = 1;
  const GeneratedProblem p = generate_grid_fem(gen);

  RhbOptions serial;
  serial.num_parts = 8;
  serial.seed = 13;
  serial.threads = 1;
  RhbOptions parallel = serial;
  parallel.threads = 4;

  const RhbResult rs = rhb_partition(p.incidence, serial);
  const RhbResult rp = rhb_partition(p.incidence, parallel);
  EXPECT_EQ(rs.row_part, rp.row_part);
  EXPECT_EQ(rs.unknowns.part, rp.unknowns.part);
  EXPECT_EQ(rs.unknowns.separator_size, rp.unknowns.separator_size);
}

TEST(ParallelRhb, DeterministicAcrossRuns) {
  const GeneratedProblem p = make_suite_matrix("dds.linear", 0.03);
  RhbOptions opt;
  opt.num_parts = 4;
  opt.seed = 99;
  opt.threads = 3;
  const RhbResult a = rhb_partition(p.incidence, opt);
  const RhbResult b = rhb_partition(p.incidence, opt);
  EXPECT_EQ(a.unknowns.part, b.unknowns.part);
}

TEST(WeightedNgd, SolvesAndBalancesNnz) {
  const GeneratedProblem p = make_suite_matrix("matrix211", 0.12);
  SolverOptions opt;
  opt.num_subdomains = 4;
  opt.partitioning = PartitionMethod::NGD;
  opt.ngd_weighted = true;
  SchurSolver solver(p.a, opt);
  solver.setup();
  solver.factor();
  Rng rng(3);
  std::vector<value_t> b(p.a.rows), x(p.a.rows, 0.0);
  for (auto& v : b) v = rng.uniform(-1, 1);
  EXPECT_TRUE(solver.solve(b, x).converged);
  EXPECT_LT(residual_norm(p.a, x, b) / norm2(b), 1e-7);
}

TEST(ConfigStrings, AllEnumsPrintable) {
  EXPECT_STREQ(to_string(PartitionMethod::RHB), "RHB");
  EXPECT_STREQ(to_string(PartitionMethod::NGD), "NGD");
  EXPECT_STREQ(to_string(RhsOrdering::Hypergraph), "hypergraph");
  EXPECT_STREQ(to_string(CutMetric::Soed), "soed");
}

}  // namespace
}  // namespace pdslin
