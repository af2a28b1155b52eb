// Schur-complement preconditioner: LU factors of the sparsified S̃ applied
// as M⁻¹ inside GMRES (paper §I: "the LU factors of S̃ are computed … and
// used as a preconditioner for solving (2)").
//
// Two roots, picked from S̃ alone (no option): the symbolic Cholesky factor
// of the min-degree-ordered symmetrized pattern predicts the sparse factors'
// fill, and when n² dense values take no more room than those factors'
// values and row indices — (2·nnz(L_sym) − n)·(8 + 4) B ≥ n²·8 B, a
// predicted density ≥ 2/3 — S̃ is factored by the dense root
// (direct/dense_lu.hpp) and applied by dense forward/back substitution.
// Otherwise lu_factorize's sparse kernels run, and TrisolveOptions picks
// how their factors are applied; it has no effect on dense factors.
#pragma once

#include <memory>

#include "direct/dense_lu.hpp"
#include "direct/level_solve.hpp"
#include "direct/lu.hpp"
#include "iterative/operators.hpp"

namespace pdslin {

class SchurPreconditioner final : public LinearOperator {
 public:
  /// Factorizes S̃ (throws pdslin::Error if singular). A fill-reducing
  /// ordering is applied internally. On the sparse root with
  /// trisolve.scheduler == LevelSet the level schedules are built here (once
  /// per factorization) and every apply() runs level-parallel — bitwise
  /// identical to the serial kernels. opt.threads bounds the factorization's
  /// workers on either root; the factors do not depend on it.
  explicit SchurPreconditioner(const CsrMatrix& s_tilde, const LuOptions& opt = {},
                               const TrisolveOptions& trisolve = {});

  [[nodiscard]] index_t size() const override { return n_; }
  void apply(std::span<const value_t> x, std::span<value_t> y) const override;

  /// apply() through caller-owned scratch (resized to n if short). The
  /// factors themselves are immutable after construction, so any number of
  /// threads may apply one preconditioner concurrently as long as each
  /// brings its own scratch — the serve layer's const-reuse contract.
  void apply_with_scratch(std::span<const value_t> x, std::span<value_t> y,
                          std::vector<value_t>& scratch) const;

  /// Stored factor entries: nnz(L+U) on the sparse root, n² on the dense.
  [[nodiscard]] long long factor_nnz() const {
    return dense() ? dense_.fill_nnz() : lu_.fill_nnz();
  }
  [[nodiscard]] double factor_seconds() const { return factor_seconds_; }
  /// True when the dense root factored S̃.
  [[nodiscard]] bool dense() const { return dense_.n > 0; }
  /// Fill density of the sparse factors predicted by the selection rule.
  [[nodiscard]] double predicted_density() const { return predicted_density_; }
  /// Heap footprint of the factors (either root) plus any cached level
  /// schedules — the serve cache charges this through
  /// SchurSolver::memory_bytes().
  [[nodiscard]] std::size_t memory_bytes() const {
    return lu_.memory_bytes() + dense_.memory_bytes() +
           (schedules_ ? schedules_->memory_bytes() : 0) +
           colmap_.size() * sizeof(index_t);
  }
  [[nodiscard]] const TrisolveSchedules* schedules() const {
    return schedules_.get();
  }

 private:
  index_t n_ = 0;
  std::vector<index_t> colmap_;  // fill-reducing permutation (new → old)
  LuFactors lu_;          // sparse root
  DenseLuFactors dense_;  // dense root (n == 0 when the sparse root ran)
  double predicted_density_ = 0.0;
  TrisolveOptions trisolve_;
  std::shared_ptr<const TrisolveSchedules> schedules_;  // null under Serial
  double factor_seconds_ = 0.0;
  mutable std::vector<value_t> scratch_;
};

}  // namespace pdslin
