// Dense root for LU(S̃): right-looking blocked LU with threshold partial
// pivoting, stored column-major in place.
//
// The sparsified Schur complement S̃ often fills in almost completely once
// it is factored (predicted fill density 0.99 on the matrix211 analogue),
// and index-driven sparse kernels then only pay overhead. This
// kernel is the one-panel case of the supernodal panel kernel
// (direct/panel_lu.hpp): one panel holding every column and every row, with
// threshold pivoting over all remaining rows instead of only the diagonal,
// so it never aborts. The selection rule (dense_root_pays) lives here; the
// caller is core/preconditioner.hpp.
//
// Algorithm: panels of kPanel columns are factored unblocked (pivot search
// over all remaining rows, LuOptions' threshold rule, row interchange within
// the panel, scale, rank-1 update). The trailing matrix is then updated tile
// by tile — row interchanges, TRSM against the panel's unit lower triangle,
// and C −= L21·U12 through a register-tiled GEMM microkernel on packed
// operands. Column tiles are a fixed grid and every element is updated in a
// fixed k order, so the tiles may run on any number of threads
// (parallel_ranges over LuOptions::threads) and the factors stay bitwise
// identical to serial.
// Interchanges reach the columns left of each panel in one deferred pass.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "direct/lu.hpp"
#include "sparse/csr.hpp"

namespace pdslin {

/// P·A = L·U held densely. Row k of the storage is pivot row k.
struct DenseLuFactors {
  index_t n = 0;
  /// Column-major n × n: L strictly below the diagonal (unit diagonal
  /// implied), U on and above it.
  std::vector<value_t> lu;
  /// row_perm[k] = row of the input that became pivot row k.
  std::vector<index_t> row_perm;
  /// Multiply-adds, in the panel kernel's unit (LuPanelStats): the trailing
  /// GEMM updates, and everything (+ in-panel elimination + TRSM).
  long long gemm_flops = 0;
  long long total_flops = 0;

  [[nodiscard]] value_t at(index_t i, index_t j) const {
    return lu[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(i)];
  }
  /// Stored factor entries (every entry of the n × n array).
  [[nodiscard]] long long fill_nnz() const {
    return static_cast<long long>(n) * static_cast<long long>(n);
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return lu.size() * sizeof(value_t) + row_perm.size() * sizeof(index_t);
  }
  /// x ← U⁻¹·L⁻¹·x by dense forward then back substitution; x is already in
  /// pivot order (x[k] = b[row_perm[k]]).
  void solve_in_place(std::span<value_t> x) const;
};

/// Factorize A(perm, perm) densely — perm maps new → old, as
/// minimum_degree_ordering returns it; empty = identity — without forming
/// the permuted sparse matrix (duplicate entries: last wins, as in the
/// sparse kernels' scatter). Pivoting follows LuOptions::pivot_tol /
/// min_pivot over all remaining rows; a column whose largest remaining entry
/// is ≤ min_pivot raises pdslin::Error ("matrix is singular at column j"),
/// like the scalar kernel. opt.threads bounds the trailing-update workers;
/// the factors are bitwise identical for any value. The kernel option does
/// not apply.
DenseLuFactors dense_lu_factorize(const CsrMatrix& a, const LuOptions& opt = {},
                                  std::span<const index_t> perm = {});

/// Fill density the sparse factors are predicted to reach, from the
/// symbolic Cholesky factor of the symmetrized, ordered pattern:
/// nnz(L+U) ≈ 2·nnz(L_sym) − n, divided by n².
double predicted_fill_density(long long l_sym_nnz, index_t n);

/// Storage-based selection rule for the dense root: dense when n² values
/// take no more room than the predicted sparse factors' values plus row
/// indices, (2·nnz(L_sym) − n)·(8 + 4) B ≥ n²·8 B — a predicted fill
/// density of at least 2/3.
bool dense_root_pays(long long l_sym_nnz, index_t n);

}  // namespace pdslin
