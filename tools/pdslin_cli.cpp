// pdslin — command-line front end for the hybrid solver.
//
// Usage:
//   pdslin --matrix tdr190k [--scale 1.0]          (suite analogue)
//   pdslin --matrix path/to/A.mtx                  (Matrix Market file)
// Solver options: the flags of the SolverOptions table in
// src/core/options.hpp (visit_options), the source of truth for their
// spellings, values and report keys; README.md lists them. A malformed
// value, an unknown flag or a missing value ends in "pdslin: <message>"
// and exit 2.
// Tool flags:
//   --nrhs N                  right-hand sides solved as one batch      [1]
//                             (one operator/preconditioner/workspace set
//                             shared across the columns)
//   --verbose                 info-level logging
// Observability (docs/OBSERVABILITY.md):
//   --trace-out FILE          record spans, write Chrome trace JSON to FILE
//                             (load in chrome://tracing or ui.perfetto.dev)
//   --report-out FILE         write the machine-readable RunReport JSON
//   PDSLIN_TRACE=1|FILE       env equivalent of --trace-out (FILE names the
//                             output; "1" records without writing)
#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/schur_solver.hpp"
#include "gen/suite.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sparse/ops.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace pdslin;

namespace {

int run(int argc, char** argv) {
  obs::label_this_thread("main");
  std::string matrix;
  std::string trace_out;
  std::string report_out;
  double scale = 1.0;
  index_t nrhs = 1;
  SolverOptions opt = tool_default_options();
  parse_flags(std::vector<std::string>(argv + 1, argv + argc), opt,
              [&](const std::string& flag,
                  const std::function<std::string()>& value) {
                if (flag == "--matrix") {
                  matrix = value();
                } else if (flag == "--scale") {
                  parse_flag_value(flag, value(), scale);
                } else if (flag == "--nrhs") {
                  parse_flag_value(flag, value(), nrhs);
                  if (nrhs < 1) throw UsageError("--nrhs must be >= 1");
                } else if (flag == "--verbose") {
                  set_log_level(LogLevel::Info);
                } else if (flag == "--trace-out") {
                  trace_out = value();
                } else if (flag == "--report-out") {
                  report_out = value();
                } else {
                  return false;
                }
                return true;
              });
  if (matrix.empty()) throw UsageError("--matrix is required");

  obs::trace_init_from_env();
  if (!trace_out.empty()) obs::trace_enable();

  GeneratedProblem problem;
  {
    PDSLIN_SPAN("cli.load_matrix");
    problem = load_problem(matrix, scale, opt.seed);
  }
  std::printf("matrix %s: n=%d nnz=%d\n", problem.name.c_str(), problem.a.rows,
              problem.a.nnz());
  const long long matrix_n = problem.a.rows;
  const long long matrix_nnz = problem.a.nnz();

  SchurSolver solver(std::move(problem.a), opt);
  const CsrMatrix& a = solver.matrix();
  solver.setup(problem.incidence.rows > 0 ? &problem.incidence : nullptr,
               problem.coords);
  solver.factor();

  Rng rng(opt.seed + 777);
  const auto n = static_cast<std::size_t>(a.rows);
  std::vector<value_t> b(n * static_cast<std::size_t>(nrhs));
  std::vector<value_t> x(b.size(), 0.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const std::vector<GmresResult> results = solver.solve_multi(b, x, nrhs);
  int converged_cols = 0;
  for (const GmresResult& r : results) converged_cols += r.converged ? 1 : 0;
  const bool all_converged = converged_cols == nrhs;

  const SolverStats& st = solver.stats();
  const DbbdStats& ps = st.partition;
  std::printf("\n%s\n", st.summary().c_str());
  std::printf("partition engine: %s (%lld multilevel / %lld fallback "
              "subtrees%s, balance=%.3f)\n",
              st.partition_engine.c_str(), st.partition_multilevel_subtrees,
              st.partition_fallback_subtrees,
              st.partition_budget_exhausted ? ", budget exhausted" : "",
              st.partition_balance_ratio);
  std::printf("balance (max/min over %zu subdomains): dim(D)=%s nnz(D)=%s "
              "col(E)=%s nnz(E)=%s\n",
              ps.dim_d.size(),
              format_ratio(max_over_min(std::span<const long long>(ps.dim_d))).c_str(),
              format_ratio(max_over_min(std::span<const long long>(ps.nnz_d))).c_str(),
              format_ratio(max_over_min(std::span<const long long>(ps.nnzcol_e))).c_str(),
              format_ratio(max_over_min(std::span<const long long>(ps.nnz_e))).c_str());
  double worst_residual = 0.0;
  for (index_t j = 0; j < nrhs; ++j) {
    const std::span<const value_t> bj(b.data() + j * n, n);
    const std::span<const value_t> xj(x.data() + j * n, n);
    worst_residual =
        std::max(worst_residual, residual_norm(a, xj, bj) / norm2(bj));
  }
  std::printf("true residual ||Ax-b||/||b|| = %.3e%s\n", worst_residual,
              nrhs > 1 ? " (worst column)" : "");
  std::printf("solve phase: %d/%d columns converged, %lld applies, "
              "%.3f iters/s, %.3f ms/apply, wall=%.3fs cpu=%.3fs, "
              "workspace allocs=%lld\n",
              converged_cols, nrhs, st.solve_applies,
              st.iterations_per_second(), st.seconds_per_apply() * 1e3,
              st.solve_seconds, st.solve_cpu_seconds,
              st.solve_workspace_allocs);
  std::printf("modeled one-level parallel time: %.3f s\n",
              st.parallel_time_one_level());

  if (!report_out.empty()) {
    obs::RunReport report;
    report.tool = "pdslin_cli";
    report.matrix = problem.name;
    report.n = matrix_n;
    report.nnz = matrix_nnz;
    report.add_solver(opt, st);
    report.set_stat("true_relative_residual", worst_residual);
    report.capture_metrics();
    if (!report_write_file(report, report_out)) return 1;
    std::printf("report written to %s\n", report_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!obs::trace_write_file(trace_out)) return 1;
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  obs::trace_finalize_env();
  return all_converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed command line ends in exit 2; bad input (unreadable matrix,
  // k not a power of two, a singular block) in a message and exit 1, never
  // an uncaught-exception abort.
  try {
    return run(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "pdslin: %s\n(see the header of "
                         "tools/pdslin_cli.cpp for usage)\n", e.what());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "pdslin: %s\n", e.what());
    if (!e.location().empty()) {
      log_info("failed check: ", e.expression(), " at ", e.location());
    }
    return 1;
  }
}
