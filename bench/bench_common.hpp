// Shared infrastructure for the table/figure reproduction drivers.
//
// Every driver honours two environment variables:
//   PDSLIN_BENCH_SCALE  — multiplies the default problem scale (default 1.0)
//   PDSLIN_BENCH_SEED   — RNG seed (default 20130520)
// so `for b in build/bench/*; do $b; done` runs the whole evaluation at
// laptop-default sizes, and a bigger machine can crank the scale up.
// PDSLIN_TRACE=1|FILE additionally records spans (see docs/OBSERVABILITY.md).
//
// Besides the human-readable tables, every driver emits one machine-readable
// RunReport line per configuration, prefixed "BENCH " (see emit_bench_report
// below and EXPERIMENTS.md for the harvesting one-liner).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/schur_solver.hpp"
#include "gen/suite.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pdslin::bench {

inline double bench_scale(double default_scale) {
  if (const char* s = std::getenv("PDSLIN_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0.0) return default_scale * v;
  }
  return default_scale;
}

inline std::uint64_t bench_seed() {
  if (const char* s = std::getenv("PDSLIN_BENCH_SEED")) {
    return static_cast<std::uint64_t>(std::strtoull(s, nullptr, 10));
  }
  return 20130520ULL;
}

inline void print_header(const char* title, const char* paper_ref) {
  obs::trace_init_from_env();
  std::printf("\n================================================================\n");
  std::printf("%s\n(reproduces %s of Yamazaki/Li/Rouet/Uçar, IPDPSW 2013)\n", title,
              paper_ref);
  std::printf("================================================================\n");
}

/// Build the standard RunReport for one bench configuration. `tool` is the
/// driver name ("bench/solve_path"); extra config/stats can be added by the
/// caller before emitting.
inline obs::RunReport make_bench_report(const char* tool,
                                        const GeneratedProblem& p,
                                        const SolverOptions& opt,
                                        const SolverStats& st) {
  obs::RunReport r;
  r.tool = tool;
  r.matrix = p.name;
  r.n = p.a.rows;
  r.nnz = p.a.nnz();
  r.add_solver(opt, st);
  r.capture_metrics();
  return r;
}

/// Print the single-line trajectory record: "BENCH {json}". Harvest across
/// all drivers with:
///   for b in build/bench/*; do "$b"; done
///     | sed -n 's/^BENCH //p' >> bench_trajectory.jsonl
inline void emit_bench_report(const obs::RunReport& report) {
  std::printf("BENCH %s\n", report.to_json_line().c_str());
}

inline void emit_bench_report(const char* tool, const GeneratedProblem& p,
                              const SolverOptions& opt, const SolverStats& st) {
  emit_bench_report(make_bench_report(tool, p, opt, st));
}

/// Run the full PDSLin pipeline on one configuration and return its stats.
struct PipelineResult {
  SolverStats stats;
  DbbdStats partition;
  index_t separator = 0;
  double total_one_level = 0.0;
  bool converged = false;
};

inline PipelineResult run_pipeline(const GeneratedProblem& p, SolverOptions opt) {
  SchurSolver solver(p.a, opt);
  solver.setup(p.incidence.rows > 0 ? &p.incidence : nullptr);
  solver.factor();
  Rng rng(977);
  std::vector<value_t> b(p.a.rows), x(p.a.rows, 0.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  solver.solve(b, x);

  PipelineResult r;
  r.stats = solver.stats();
  r.partition = solver.stats().partition;
  r.separator = solver.partition().separator_size();
  r.total_one_level = solver.stats().parallel_time_one_level();
  r.converged = solver.stats().converged;
  return r;
}

/// Benchmark-default solver options: the tools' defaults
/// (tool_default_options) under the bench seed.
inline SolverOptions bench_solver_options() {
  SolverOptions opt = tool_default_options();
  opt.seed = bench_seed();
  return opt;
}

}  // namespace pdslin::bench
