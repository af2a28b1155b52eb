// Tests for the tetrahedral generators, the FEM assembly helper, the NGD
// separator elimination order and the ordered-DBBD variant.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/dbbd.hpp"
#include "core/structural_factor.hpp"
#include "gen/fem_assembly.hpp"
#include "gen/tet_fem.hpp"
#include "graph/graph.hpp"
#include "partition/engine.hpp"
#include "sparse/permute.hpp"
#include "sparse/symmetrize.hpp"
#include "sparse/convert.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

TEST(TetFem, LinearProfile) {
  TetFemOptions opt;
  opt.nx = opt.ny = opt.nz = 10;
  const GeneratedProblem p = generate_tet_fem(opt);
  EXPECT_EQ(p.a.rows, 1000);  // linear tets only use the corner grid
  const double per_row = static_cast<double>(p.a.nnz()) / p.a.rows;
  EXPECT_GT(per_row, 9.0);
  EXPECT_LT(per_row, 17.0);  // dds.linear-like profile
  EXPECT_TRUE(pattern_symmetric(p.a));
  EXPECT_TRUE(value_symmetric(p.a, 1e-12));
  EXPECT_TRUE(check_structural_factor(p.a, p.incidence).exact);
}

TEST(TetFem, QuadraticDenserAndLarger) {
  TetFemOptions lin;
  lin.nx = lin.ny = lin.nz = 6;
  TetFemOptions quad = lin;
  quad.quadratic = true;
  const GeneratedProblem pl = generate_tet_fem(lin);
  const GeneratedProblem pq = generate_tet_fem(quad);
  EXPECT_GT(pq.a.rows, pl.a.rows);  // midpoint nodes added
  const double lin_row = static_cast<double>(pl.a.nnz()) / pl.a.rows;
  const double quad_row = static_cast<double>(pq.a.nnz()) / pq.a.rows;
  EXPECT_GT(quad_row, 1.4 * lin_row);
  EXPECT_TRUE(check_structural_factor(pq.a, pq.incidence).exact);
}

TEST(TetFem, ConformingDecompositionIsConnected) {
  // Parity mirroring must make neighbouring cells share faces: the matrix
  // graph of a 3×3×3 grid must be connected.
  TetFemOptions opt;
  opt.nx = opt.ny = opt.nz = 3;
  const GeneratedProblem p = generate_tet_fem(opt);
  const Graph g = graph_from_matrix(symmetrize_abs(pattern_of(p.a)));
  const BfsResult r = bfs_levels(g, 0);
  for (index_t v = 0; v < g.n; ++v) EXPECT_GE(r.level[v], 0) << v;
}

TEST(FemAssembly, IsolatedNodesGetDiagonalAndSingletonRows) {
  // Two elements over nodes {0,1} and {2,3}; node 4 is isolated.
  const std::vector<std::vector<index_t>> elements{{0, 1}, {2, 3}};
  FemAssemblyOptions opt;
  const GeneratedProblem p = assemble_fem(elements, 5, opt);
  EXPECT_EQ(p.a.rows, 5);
  EXPECT_EQ(p.a.row_nnz(4), 1);  // diagonal only
  EXPECT_TRUE(check_structural_factor(p.a, p.incidence).covers);
}

TEST(FemAssembly, DofExpansion) {
  const std::vector<std::vector<index_t>> elements{{0, 1, 2}};
  FemAssemblyOptions opt;
  opt.dofs_per_node = 3;
  const GeneratedProblem p = assemble_fem(elements, 3, opt);
  EXPECT_EQ(p.a.rows, 9);
  EXPECT_EQ(p.a.nnz(), 81);  // full 9×9 clique
}

TEST(SeparatorOrder, IsPermutationOfSeparator) {
  const CsrMatrix a = testing::grid_laplacian(20, 20);
  const Graph g = graph_from_matrix(a);
  NgdOptions opt;
  opt.num_parts = 8;
  opt.seed = 5;
  const DissectionResult r = partition::ngd_engine(g, opt, {}).unknowns;
  ASSERT_EQ(r.separator_order.size(),
            static_cast<std::size_t>(r.separator_size));
  std::vector<char> seen(g.n, 0);
  for (index_t v : r.separator_order) {
    EXPECT_EQ(r.part[v], DissectionResult::kSeparator);
    EXPECT_FALSE(seen[v]);
    seen[v] = 1;
  }
}

TEST(SeparatorOrder, RootSeparatorComesLast) {
  // In elimination order the root (first bisection) separator is last. The
  // geometric split is seed-free and does not depend on k, so a 2-way and a
  // 4-way dissection share their root bisection; the 4-way order must end
  // with exactly the 2-way separator.
  const index_t nx = 16, ny = 16;
  const CsrMatrix a = testing::grid_laplacian(nx, ny);
  const Graph g = graph_from_matrix(a);
  std::vector<double> xyz(3 * static_cast<std::size_t>(g.n), 0.0);
  for (index_t v = 0; v < g.n; ++v) {
    xyz[3 * static_cast<std::size_t>(v)] = v % nx;
    xyz[3 * static_cast<std::size_t>(v) + 1] = v / nx;
  }
  partition::EngineOptions eng;
  eng.engine = partition::Engine::Geometric;
  eng.coords = xyz;
  NgdOptions two;
  two.num_parts = 2;
  const DissectionResult root = partition::ngd_engine(g, two, eng).unknowns;
  NgdOptions four;
  four.num_parts = 4;
  const DissectionResult r = partition::ngd_engine(g, four, eng).unknowns;
  const index_t tail = root.separator_size;
  ASSERT_GT(tail, 0);
  ASSERT_GT(static_cast<index_t>(r.separator_order.size()), tail);
  for (std::size_t i = r.separator_order.size() - tail;
       i < r.separator_order.size(); ++i) {
    EXPECT_EQ(root.part[r.separator_order[i]], DissectionResult::kSeparator);
  }
}

TEST(OrderedDbbd, SeparatorBlockFollowsGivenOrder) {
  const std::vector<index_t> part{0, -1, 1, -1, 0, -1};
  const std::vector<index_t> order{5, 1, 3};
  const DbbdPartition p = build_dbbd(part, 2, order);
  EXPECT_TRUE(is_permutation(p.perm, 6));
  const index_t sep_begin = p.domain_offset[2];
  EXPECT_EQ(p.perm[sep_begin + 0], 5);
  EXPECT_EQ(p.perm[sep_begin + 1], 1);
  EXPECT_EQ(p.perm[sep_begin + 2], 3);
  for (index_t i = 0; i < 6; ++i) EXPECT_EQ(p.iperm[p.perm[i]], i);
}

TEST(OrderedDbbd, RejectsBadOrders) {
  const std::vector<index_t> part{0, -1, 1, -1};
  EXPECT_THROW(build_dbbd(part, 2, {1}), Error);        // too short
  EXPECT_THROW(build_dbbd(part, 2, {1, 0}), Error);     // non-separator
  EXPECT_THROW(build_dbbd(part, 2, {1, 1}), Error);     // duplicate
  EXPECT_NO_THROW(build_dbbd(part, 2, {3, 1}));
  EXPECT_NO_THROW(build_dbbd(part, 2, {}));             // empty = default
}

}  // namespace
}  // namespace pdslin
