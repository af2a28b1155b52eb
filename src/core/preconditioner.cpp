#include "core/preconditioner.hpp"

#include "direct/mindeg.hpp"
#include "direct/symbolic.hpp"
#include "direct/trisolve.hpp"
#include "sparse/convert.hpp"
#include "sparse/permute.hpp"
#include "sparse/symmetrize.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace pdslin {

SchurPreconditioner::SchurPreconditioner(const CsrMatrix& s_tilde,
                                         const LuOptions& opt,
                                         const TrisolveOptions& trisolve)
    : n_(s_tilde.rows), trisolve_(trisolve), scratch_(s_tilde.rows) {
  PDSLIN_CHECK(s_tilde.rows == s_tilde.cols);
  WallTimer timer;
  const CsrMatrix sym = symmetrize_abs(pattern_of(s_tilde));
  colmap_ = minimum_degree_ordering(sym);
  // The symbolic factor needs the ordered pattern but not sorted rows.
  CsrMatrix sym_ordered = permute_rows(sym, colmap_);
  const std::vector<index_t> inv = invert_permutation(colmap_);
  for (index_t& c : sym_ordered.col_idx) c = inv[c];
  const long long l_sym_nnz = symbolic_cholesky(sym_ordered).factor_nnz;
  predicted_density_ = predicted_fill_density(l_sym_nnz, n_);
  if (dense_root_pays(l_sym_nnz, n_)) {
    dense_ = dense_lu_factorize(s_tilde, opt, colmap_);
  } else {
    lu_ = lu_factorize(permute_symmetric(s_tilde, colmap_), opt);
    if (trisolve_.scheduler == TrisolveScheduler::LevelSet) {
      schedules_ = build_trisolve_schedules(lu_);
    }
  }
  factor_seconds_ = timer.seconds();
}

void SchurPreconditioner::apply(std::span<const value_t> x,
                                std::span<value_t> y) const {
  apply_with_scratch(x, y, scratch_);
}

void SchurPreconditioner::apply_with_scratch(
    std::span<const value_t> x, std::span<value_t> y,
    std::vector<value_t>& scratch) const {
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(n_));
  PDSLIN_CHECK(y.size() == static_cast<std::size_t>(n_));
  if (scratch.size() < static_cast<std::size_t>(n_)) scratch.resize(n_);
  // Permute into factor space, solve, permute back.
  const std::vector<index_t>& row_perm =
      dense() ? dense_.row_perm : lu_.row_perm;
  for (index_t k = 0; k < n_; ++k) scratch[k] = x[colmap_[row_perm[k]]];
  const std::span<value_t> ws(scratch.data(), static_cast<std::size_t>(n_));
  if (dense()) {
    dense_.solve_in_place(ws);
  } else if (schedules_) {
    schedules_->lower.solve(ws, trisolve_.threads);
    schedules_->upper.solve(ws, trisolve_.threads);
  } else {
    lower_solve_dense(lu_.lower, ws, /*unit_diag=*/true);
    upper_solve_dense(lu_.upper, ws);
  }
  for (index_t j = 0; j < n_; ++j) y[colmap_[j]] = scratch[j];
}

}  // namespace pdslin
