#include "check/differential.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hypergraph/bisect.hpp"
#include "hypergraph/hypergraph.hpp"
#include "serve/service.hpp"
#include "sparse/convert.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pdslin::check {

namespace {

std::vector<value_t> make_rhs(index_t n, index_t nrhs, std::uint64_t seed) {
  Rng rng(seed ^ 0xb5297a4d3f84d5b5ULL);
  std::vector<value_t> b(static_cast<std::size_t>(n) * nrhs);
  for (value_t& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

bool bitwise_equal(const std::vector<value_t>& x, const std::vector<value_t>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(value_t)) == 0);
}

/// Run one pipeline instance; returns false (error in `err`) on a throw.
bool run_pipeline(const GeneratedProblem& prob, const SolverOptions& opt,
                  std::span<const value_t> b, std::vector<value_t>& x,
                  index_t nrhs, std::vector<GmresResult>& results,
                  std::unique_ptr<SchurSolver>& out, std::string& err) {
  try {
    out = std::make_unique<SchurSolver>(prob.a, opt);
    out->setup(prob.incidence.rows > 0 ? &prob.incidence : nullptr);
    out->factor();
    x.assign(static_cast<std::size_t>(prob.a.rows) * nrhs, 0.0);
    results = out->solve_multi(b, x, nrhs);
    return true;
  } catch (const Error& e) {
    err = e.what();
    return false;
  }
}

void check_serve_path(const GeneratedProblem& prob, const CaseSpec& spec,
                      const std::vector<value_t>& b,
                      const std::vector<value_t>& direct_x,
                      CheckReport& rep) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  serve::SolveService service(cfg);
  auto shared_a = std::make_shared<const CsrMatrix>(prob.a);
  std::shared_ptr<const CsrMatrix> shared_inc;
  if (prob.incidence.rows > 0) {
    shared_inc = std::make_shared<const CsrMatrix>(prob.incidence);
  }
  auto make_request = [&] {
    serve::SolveRequest req;
    req.a = shared_a;
    req.incidence = shared_inc;
    req.b = b;
    req.nrhs = spec.nrhs;
    req.opt = solver_options_for(spec);
    return req;
  };

  const serve::SolveResponse cold = service.solve(make_request());
  if (cold.status != serve::ServeStatus::Ok) {
    rep.add("serve.cold_status",
            std::string("cold request ended ") + to_string(cold.status) +
                " although the direct pipeline solved: " + cold.detail);
    return;
  }
  if (!bitwise_equal(cold.x, direct_x)) {
    rep.add("serve.cold_mismatch",
            "served answer differs bitwise from the direct solve");
  }
  const serve::SolveResponse warm = service.solve(make_request());
  if (warm.status != serve::ServeStatus::Ok) {
    rep.add("serve.warm_status",
            std::string("cached request ended ") + to_string(warm.status));
    return;
  }
  if (!warm.cache_hit) {
    rep.add("serve.no_cache_hit",
            "identical repeat request missed the factorization cache");
  }
  if (!bitwise_equal(warm.x, cold.x)) {
    rep.add("serve.warm_mismatch",
            "cached answer differs bitwise from the cold answer");
  }
}

}  // namespace

DifferentialResult run_differential(const CaseSpec& spec,
                                    const DifferentialOptions& opt) {
  DifferentialResult res;
  const GeneratedProblem prob = build_case(spec);
  const index_t n = prob.a.rows;
  res.n = n;

  // Dense oracle on the full system: singularity + condition proxy + X*.
  const DenseLu oracle_lu = dense_lu(dense_from_csr(prob.a));
  res.oracle_singular = oracle_lu.singular;
  res.condition_estimate = oracle_lu.condition_estimate();

  const std::vector<value_t> b = make_rhs(n, spec.nrhs, spec.seed);
  std::vector<value_t> x_oracle;
  if (!oracle_lu.singular) {
    x_oracle.assign(b.size(), 0.0);
    dense_lu_solve(oracle_lu, b, x_oracle, spec.nrhs);
  }

  // Hypergraph incremental-bookkeeping diff (independent of the solver
  // pipeline, but part of every case so the partitioner's bookkeeping is
  // fuzzed over the same matrix distribution).
  if (opt.check_bisection && n >= 4) {
    const Hypergraph h = column_net_model(pattern_of(prob.a));
    HgBisectOptions bopt;
    bopt.seed = spec.seed;
    const HgBisection bis = bisect_hypergraph(h, bopt);
    check_bisection_state(h, bis, res.report);
  }

  // Full pipeline.
  const SolverOptions sopt = solver_options_for(spec);
  std::unique_ptr<SchurSolver> solver;
  std::vector<value_t> x;
  std::vector<GmresResult> results;
  std::string err;
  if (!run_pipeline(prob, sopt, b, x, spec.nrhs, results, solver, err)) {
    res.solver_threw = true;
    res.solver_error = err;
    // A throw is legitimate when the problem is (near-)singular — the
    // pipeline's sparse LU refusing a pivot the oracle also finds
    // degenerate — or when an interior block D_ℓ of the pipeline's own
    // partition is (near-)singular: the hybrid method needs every D_ℓ
    // invertible even inside a healthy global matrix (the singular-block
    // generator plants exactly this). Anything else is a bug.
    bool tolerated = oracle_lu.singular ||
                     res.condition_estimate >= opt.max_condition_for_throw;
    if (!tolerated) {
      try {
        SchurSolver probe(prob.a, sopt);
        probe.setup(prob.incidence.rows > 0 ? &prob.incidence : nullptr);
        tolerated = interior_block_condition(prob.a, probe.partition()) >=
                    opt.max_condition_for_throw;
      } catch (const Error&) {
        // setup itself threw — judged below like any other throw
      }
    }
    if (!tolerated) {
      res.report.add("pipeline.unexpected_throw",
                     "pipeline threw on a well-conditioned matrix (cond ≈ " +
                         std::to_string(res.condition_estimate) + "): " + err,
                     res.condition_estimate);
    }
    return res;
  }
  res.lu_schur_dense = solver->stats().lu_schur_dense;

  // Stage checks on the factored solver. With drops enabled the discarded
  // W̃/G̃ mass is amplified by Ũ_ℓ⁻¹/L̃_ℓ⁻¹ on its way into T̃ = W̃G̃, so the
  // achievable S̃ accuracy degrades with the interior-block conditioning —
  // the exact (zero-drop) configs keep the tight oracle comparison.
  SchurCheckOptions schur_opt;
  if (spec.exact_assembly) {
    schur_opt.rel_tol = opt.exact_schur_rel_tol;
  } else {
    schur_opt.rel_tol =
        opt.dropped_schur_rel_tol *
        std::max(1.0, interior_block_condition(prob.a, solver->partition()));
  }
  check_solver(*solver, schur_opt, res.report);

  // Krylov honesty + solution accuracy.
  check_solution(prob.a, x, b, results, spec.nrhs, opt.solution, res.report);
  res.all_converged =
      std::all_of(results.begin(), results.end(),
                  [](const GmresResult& r) { return r.converged; });
  if (!oracle_lu.singular && res.all_converged &&
      res.condition_estimate < opt.max_condition_for_solution) {
    double x_scale = 0.0;
    for (const value_t v : x_oracle) x_scale = std::max(x_scale, std::abs(v));
    x_scale = std::max(x_scale, 1.0);
    double worst = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      worst = std::max(worst, std::abs(x[i] - x_oracle[i]));
    }
    // Forward-error bound: ‖x − x*‖ ≲ cond(A) · true residual · ‖x*‖. The
    // solver reports the full-system true residual, so the allowance follows
    // the residual it actually achieved, with a ×10 safety factor.
    double max_rel = 0.0;
    for (const GmresResult& r : results) {
      max_rel = std::max(max_rel, static_cast<double>(r.relative_residual));
    }
    const double allowed =
        std::max({1e-8, res.condition_estimate * 1e-11,
                  10.0 * res.condition_estimate * max_rel}) *
        x_scale;
    if (worst > allowed) {
      res.report.add("solution.oracle_mismatch",
                     "‖x − x_oracle‖_max = " + std::to_string(worst) +
                         " exceeds " + std::to_string(allowed) + " (cond ≈ " +
                         std::to_string(res.condition_estimate) + ")",
                     worst / x_scale);
    }
  }

  // Thread determinism: parallel must be bitwise identical to serial. The
  // level-set trisolve lanes rerun against the fully serial engine too —
  // the gather kernel's accumulation order must equal the serial scatter
  // even at one thread.
  if (opt.check_determinism &&
      (spec.threads > 1 || spec.inner_threads > 1 || spec.levelset_trisolve ||
       spec.partition_engine == PartitionEngineAxis::ParallelMultilevel ||
       spec.partition_values != partition::ValueMode::Off)) {
    CaseSpec serial = spec;
    serial.threads = 1;
    serial.inner_threads = 1;
    serial.levelset_trisolve = false;
    // The parallel-partition lane reruns on the serial recursion: the
    // engine's thread-count determinism contract, enforced end to end.
    if (serial.partition_engine == PartitionEngineAxis::ParallelMultilevel) {
      serial.partition_engine = PartitionEngineAxis::Multilevel;
    }
    // A value-weighted lane that already ran fully serial diffs against the
    // parallel partition recursion instead — same contract, other direction:
    // |a_ij|-weighted net costs must not perturb thread-count determinism.
    if (spec.partition_values != partition::ValueMode::Off &&
        spec.threads <= 1 && spec.inner_threads <= 1 &&
        !spec.levelset_trisolve &&
        spec.partition_engine == PartitionEngineAxis::Multilevel) {
      serial.partition_engine = PartitionEngineAxis::ParallelMultilevel;
    }
    std::unique_ptr<SchurSolver> ssolver;
    std::vector<value_t> sx;
    std::vector<GmresResult> sresults;
    std::string serr;
    if (!run_pipeline(prob, solver_options_for(serial), b, sx, spec.nrhs,
                      sresults, ssolver, serr)) {
      res.report.add("determinism.serial_threw",
                     "serial rerun threw where the parallel run solved: " +
                         serr);
    } else if (!bitwise_equal(x, sx)) {
      res.report.add("determinism.threads",
                     "parallel solution differs bitwise from serial");
    }
  }

  // Serve path: cold vs cached vs direct, all bitwise. Only judged when the
  // direct solve converged — otherwise the service legitimately walks its
  // degradation ladder (plain-Krylov fallback) and the answers differ.
  if (spec.serve && res.all_converged) {
    check_serve_path(prob, spec, b, x, res.report);
  }
  return res;
}

}  // namespace pdslin::check
