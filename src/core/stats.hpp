// Aggregated solver statistics: everything the paper's tables/figures
// report, gathered in one place so the benchmark drivers just print.
#pragma once

#include <string>
#include <vector>

#include "core/dbbd.hpp"
#include "core/schur_assembly.hpp"

namespace pdslin {

struct SolverStats {
  // --- partition phase ---
  double partition_seconds = 0.0;
  DbbdStats partition;  // dim(D), nnz(D), col(E), nnz(E), separator size
  /// Engine actually used by the partition phase: "multilevel", "geometric",
  /// or "hybrid" (budget ran out mid-recursion). Empty for adopt_partition().
  std::string partition_engine;
  long long partition_multilevel_subtrees = 0;  // subtrees bisected multilevel
  long long partition_fallback_subtrees = 0;    // subtrees degraded geometric
  bool partition_budget_exhausted = false;      // budget tripped during setup
  /// max/min interior part size of the induced partition (1.0 = perfect).
  double partition_balance_ratio = 0.0;

  // --- preconditioner phases (per subdomain where meaningful) ---
  std::vector<double> lu_d_seconds;      // LU(D_ℓ)
  std::vector<double> comp_s_seconds;    // G/W solves + T̃ per subdomain
  /// Measured wall-clock of the whole (possibly parallel) subdomain loop.
  /// With the two-level pool this is the real elapsed time; the per-subdomain
  /// vectors above are per-task times, whose *sum* is aggregate CPU work and
  /// whose *max* is the paper's modeled one-process-per-subdomain time.
  double subdomain_wall_seconds = 0.0;
  double gather_seconds = 0.0;           // Ŝ assembly + sparsification
  double lu_s_seconds = 0.0;             // LU(S̃)
  long long schur_dim = 0;               // n_S
  long long schur_nnz = 0;               // nnz(S̃)
  long long precond_nnz = 0;             // stored entries of LU(S̃)
  /// Which LU(S̃) root ran, and the sparse fill density the selection rule
  /// predicted from the symbolic factor (core/preconditioner.hpp): the
  /// dense root runs when it is ≥ 2/3.
  bool lu_schur_dense = false;
  double lu_schur_predicted_density = 0.0;

  // --- iterative solve ---
  double solve_seconds = 0.0;      // wall clock of the last solve() batch
  double solve_cpu_seconds = 0.0;  // process CPU over the same interval
  int iterations = 0;              // Krylov iterations, summed over the batch
  int nrhs = 0;                    // right-hand sides in the last batch
  double relative_residual = 0.0;  // worst column of the batch
  bool converged = false;          // every column converged
  /// Implicit-Schur operator applications (S·y evaluations): cumulative
  /// across solves, and the last batch alone (per-apply rates use the
  /// latter with solve_seconds).
  long long operator_applies = 0;
  long long solve_applies = 0;
  /// Buffer (re)allocation events in the solve path: per-subdomain
  /// workspaces + Krylov workspaces. Must stay flat across repeated
  /// same-shape solve() calls — the steady state is allocation-free.
  long long solve_workspace_allocs = 0;

  /// Seconds per operator apply in the last batch (0 when no applies ran).
  [[nodiscard]] double seconds_per_apply() const;
  /// Krylov iterations per second in the last batch (0 when instantaneous).
  [[nodiscard]] double iterations_per_second() const;

  /// Modeled one-level parallel time: partition + max LU(D) + max Comp(S) +
  /// LU(S̃) + solve (one process per subdomain, §V).
  [[nodiscard]] double parallel_time_one_level() const;
  /// Total serial (measured) time of the preconditioner phases.
  [[nodiscard]] double precond_seconds_serial() const;
  /// Aggregate CPU seconds of the subdomain phase: Σ_ℓ (LU(D_ℓ) + Comp(S_ℓ)).
  /// Compare against subdomain_wall_seconds for the achieved speedup.
  [[nodiscard]] double subdomain_seconds_cpu() const;
  /// Modeled subdomain phase time at one process per subdomain:
  /// max LU(D) + max Comp(S), the quantity the paper's §V tables report.
  [[nodiscard]] double subdomain_seconds_modeled() const;

  [[nodiscard]] std::string summary() const;
};

}  // namespace pdslin
