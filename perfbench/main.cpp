// Repository benchmark program for the PDSLin reproduction.
//
//   pdslin_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--matrix-seed M] [--smoke] [--trace-out FILE]
//                    [--commit ID]
//
// --trace 0 (end-to-end run): drives the library from outside through
// SchurSolver — repeated cold setup()+factor() episodes, each followed by the
// workload's right-hand sides solved one at a time — and reports the
// end-to-end metrics. Library tracing stays off.
//
// --trace 1 (traced run): composes the same pipeline from each layer's public
// functions, wraps every call in a span recorded by this program (spans.hpp)
// and reads counters as deltas of the obs registry around each call; reports
// the per-layer metrics. It also proves the composition is the program the
// end-to-end run times: the composed S̃ must be bitwise equal to
// SchurSolver::schur_tilde() and the composed LU(S̃) fill must equal
// stats().precond_nnz.
//
// Every solve is checked with an independent SpMV on the generated A; the
// first solution of every setup is hashed and must be identical within the
// run (and, in the traced run, between traced and untraced setups).
//
// The last stdout line is one JSON object {"correct","attempted","failed",
// "metrics"}; "PERFBENCH_HOST" and "PERFBENCH_HASH" lines precede it.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/preconditioner.hpp"
#include "core/schur_assembly.hpp"
#include "core/schur_solver.hpp"
#include "core/subdomain.hpp"
#include "gen/suite.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace pdslin;
using perfbench::Span;
using perfbench::SpanRecord;
using perfbench::SpanRecorder;

struct Workload {
  const char* name;
  const char* matrix;  // gen/suite name of the Table-I analogue
  double scale;
  unsigned outer;  // concurrent subdomain tasks (SolverOptions::threads)
  unsigned inner;  // workers per subdomain (assembly.inner_threads)
  int rhs_per_setup;  // solved after every setup; time_to_solution_s
  /// Extra RHS solved after every setup for the latency percentiles only.
  int latency_rhs_per_setup;
};

// Why these two (layer → end-to-end → workload map: perfbench/layers.json):
//  - fusion-2x2: matrix211 analogue on the paper's np = k × np/k layout with
//    2 outer × 2 inner threads. Comp(S) runs in parallel while LU(S̃) stays
//    serial (the Amdahl tail); 32 RHS per setup expose the LU(S̃) apply cost.
//  - circuit-resolve: G3_circuit analogue, one thread, one setup then 256
//    RHS solved one at a time by one caller (closed loop). Partition
//    dominates setup and LU(S̃)/Comp(S) are ≈0 (the bypass workload for
//    Schur-factor work); the solves are about half the run.
constexpr Workload kWorkloads[] = {
    {"fusion-2x2", "matrix211", 0.6, 2, 2, 32, 64},
    {"circuit-resolve", "G3_circuit", 1.0, 1, 1, 256, 0},
};

/// --smoke: tiny problems and few RHS — every code path and check, in seconds.
constexpr double kSmokeScale = 0.15;
constexpr int kSmokeMaxRhs = 8;

/// Cold setups per end-to-end run at least (setup_s is their median).
constexpr int kMinSetups = 3;
/// Solve latencies are read in windows of this many consecutive solves.
constexpr std::size_t kLatencyWindow = 10;
/// The percentiles are taken over the fastest windows (by mean latency)
/// that together hold at least this share of the run's solves, and at least
/// kMinQuietSamples. On a shared host, cache and memory contention from
/// other tenants comes in phases of seconds to minutes that slow every solve,
/// by up to 3x; the fastest quarter of the windows stays clean unless such
/// phases cover more than three quarters of the run's solves.
constexpr double kQuietShare = 0.25;
/// Samples behind the percentiles: a p95 with ≥10 samples beyond it.
constexpr std::size_t kMinQuietSamples = 200;
/// Solve latencies per run at least, so the fastest quarter holds
/// kMinQuietSamples; workloads with fewer RHS per run top up against the
/// last setup (not counted in time_to_solution_s). Latency-only RHS per
/// setup spread the windows over the run and keep the slower first solves
/// after each setup well under 5% of the samples.
constexpr std::size_t kMinLatencySamples = 800;
/// Bound on the independently computed ‖b − A x‖ / ‖b‖ (GMRES runs to 1e-12
/// relative on the Schur system; the library gates the full system at 1e-11).
constexpr double kResidualBound = 1e-10;
/// Generator seed of the workload matrices: gen/suite's default, the one
/// every repository bench uses. --seed varies the right-hand sides only, so
/// runs with different seeds time the same setup work. A claim made on this
/// matrix is re-checked on the held-out matrix seed recorded in
/// perfbench/layers.json, passed as --matrix-seed.
constexpr std::uint64_t kBaselineMatrixSeed = 20130520ULL;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;  // right-hand sides
  std::uint64_t matrix_seed = kBaselineMatrixSeed;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "pdslin_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--matrix-seed") {
      a.matrix_seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(next().c_str());
    } else if (arg == "--trace") {
      a.trace = std::atoi(next().c_str());
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--trace-out") {
      a.trace_out = next();
    } else if (arg == "--commit") {
      a.commit = next();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Benchmark solver options: RHB, k = 8 and the drops of
/// bench/bench_common.hpp's bench_solver_options(), spelled out here so the
/// benchmark's configuration changes only when the benchmark does.
SolverOptions workload_options(const Workload& w) {
  SolverOptions opt;
  opt.partitioning = PartitionMethod::RHB;
  opt.num_subdomains = 8;
  opt.assembly.drop_wg = 1e-6;
  opt.assembly.drop_s = 1e-5;
  opt.partition_epsilon = 0.05;
  opt.seed = 20130520ULL;
  opt.threads = w.outer;
  opt.assembly.inner_threads = w.inner;
  return opt;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile (q in [0,1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The solves of the run's quietest windows (see kQuietShare).
std::vector<double> quiet_latencies(const std::vector<double>& latency_ms) {
  const std::size_t n = latency_ms.size();
  std::vector<std::pair<double, std::size_t>> windows;  // (mean, first solve)
  for (std::size_t i = 0; i < n; i += kLatencyWindow) {
    const std::size_t end = std::min(i + kLatencyWindow, n);
    double sum = 0.0;
    for (std::size_t j = i; j < end; ++j) sum += latency_ms[j];
    windows.emplace_back(sum / static_cast<double>(end - i), i);
  }
  std::sort(windows.begin(), windows.end());
  const std::size_t want = std::max(
      kMinQuietSamples, static_cast<std::size_t>(std::ceil(kQuietShare * n)));
  std::vector<double> kept;
  for (const auto& [mean, i] : windows) {
    if (kept.size() >= want) break;
    const std::size_t end = std::min(i + kLatencyWindow, n);
    kept.insert(kept.end(), latency_ms.begin() + static_cast<std::ptrdiff_t>(i),
                latency_ms.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return kept;
}

/// Right-hand side j of the run: uniform(-1, 1), a pure function of
/// (seed, j), so every setup of a run solves the same sequence.
void make_rhs(std::uint64_t seed, int j, std::vector<value_t>& b) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5851F42D4C957F2DULL *
                                             static_cast<std::uint64_t>(j + 1));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
}

/// ‖b − A x‖ / ‖b‖ with the benchmark's own SpMV on the generated matrix.
double true_residual(const CsrMatrix& a, const std::vector<value_t>& b,
                     const std::vector<value_t>& x) {
  double r2 = 0.0, b2 = 0.0;
  for (index_t i = 0; i < a.rows; ++i) {
    double ax = 0.0;
    for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      ax += a.values[p] * x[a.col_idx[p]];
    }
    const double d = b[i] - ax;
    r2 += d * d;
    b2 += b[i] * b[i];
  }
  return b2 > 0.0 ? std::sqrt(r2 / b2) : std::sqrt(r2);
}

std::uint64_t fnv1a(const std::vector<value_t>& x) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.size() * sizeof(value_t); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool bitwise_equal(const CsrMatrix& a, const CsrMatrix& b) {
  return a.rows == b.rows && a.cols == b.cols && a.row_ptr == b.row_ptr &&
         a.col_idx == b.col_idx && a.values.size() == b.values.size() &&
         std::memcmp(a.values.data(), b.values.data(),
                     a.values.size() * sizeof(value_t)) == 0;
}

long long counter_value(const char* name) { return obs::counter(name).value(); }

/// Metric name → (value, unit), as printed in the result line.
using Metrics = std::map<std::string, std::pair<double, std::string>>;

/// Shared run state: problem, RHS, failure accounting, determinism hash.
struct Run {
  const Workload& w;
  const Args& args;
  GeneratedProblem problem;
  SolverOptions opt;
  int rhs_per_setup = 1;
  int latency_rhs_per_setup = 0;
  long long attempted = 0;
  long long failed = 0;
  bool checks_ok = true;
  std::vector<std::string> errors;
  bool have_hash = false;
  std::uint64_t hash = 0;

  Run(const Workload& wl, const Args& a) : w(wl), args(a) {}

  const CsrMatrix* incidence() const {
    return problem.incidence.rows > 0 ? &problem.incidence : nullptr;
  }

  void fail_check(const std::string& what) {
    if (errors.size() < 8) errors.push_back(what);
    checks_ok = false;
  }

  /// Count one solve as failed if it did not converge or missed the bound.
  void check_solve(int rhs, const GmresResult& r,
                   const std::vector<value_t>& b,
                   const std::vector<value_t>& x) {
    ++attempted;
    const double res = true_residual(problem.a, b, x);
    if (!r.converged || !(res <= kResidualBound)) {
      ++failed;
      if (errors.size() < 8) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "solve of rhs %d failed: converged=%d iterations=%d "
                      "solver residual=%.3e true residual=%.3e",
                      rhs, static_cast<int>(r.converged), r.iterations,
                      r.relative_residual, res);
        errors.push_back(buf);
      }
    }
  }

  /// The first solution of every setup must hash identically.
  void check_hash(const std::vector<value_t>& x, const char* where) {
    const std::uint64_t h = fnv1a(x);
    if (!have_hash) {
      have_hash = true;
      hash = h;
    } else if (h != hash) {
      fail_check(std::string("solution hash differs (") + where + ")");
    }
  }
};

/// One untraced cold setup; returns seconds of setup()+factor(). The
/// previous setup is released and the heap trimmed first, so each setup
/// starts like a fresh process and peak_rss_mb is the peak of one setup,
/// not heap fragmentation accumulated over the run.
double untraced_setup(Run& run, std::unique_ptr<SchurSolver>& solver) {
  solver.reset();
  malloc_trim(0);
  solver = std::make_unique<SchurSolver>(run.problem.a, run.opt);
  const double t0 = wall_seconds();
  solver->setup(run.incidence(), run.problem.coords);
  solver->factor();
  return wall_seconds() - t0;
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0).
// ---------------------------------------------------------------------------

Metrics run_end_to_end(Run& run) {
  const auto n = static_cast<std::size_t>(run.problem.a.rows);
  std::vector<value_t> b(n), x(n);
  std::vector<double> setup_s, tts_s, mem_mb, latency_ms;
  std::map<int, int> iter_hist;  // GMRES iterations → solves
  std::unique_ptr<SchurSolver> solver;
  const double deadline = wall_seconds() + run.args.seconds;
  double last_episode = 0.0;
  int next_rhs = run.rhs_per_setup;

  auto timed_solve = [&](int j) {
    make_rhs(run.args.seed, j, b);
    std::fill(x.begin(), x.end(), 0.0);
    GmresResult r;
    const double t0 = wall_seconds();
    try {
      r = solver->solve(b, x);
    } catch (const std::exception&) {
      r.converged = false;
    }
    const double dt = wall_seconds() - t0;
    latency_ms.push_back(dt * 1e3);
    ++iter_hist[r.iterations];
    run.check_solve(j, r, b, x);
    if (j == 0) run.check_hash(x, "across setups");
    return dt;
  };

  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         wall_seconds() + last_episode <= deadline) {
    const double ep0 = wall_seconds();
    double setup = 0.0;
    try {
      setup = untraced_setup(run, solver);
    } catch (const std::exception& e) {
      solver.reset();
      run.attempted += run.rhs_per_setup;
      run.failed += run.rhs_per_setup;
      run.fail_check(std::string("setup threw: ") + e.what());
      break;
    }
    setup_s.push_back(setup);
    mem_mb.push_back(static_cast<double>(solver->memory_bytes()) / 1e6);
    double solve_all = 0.0;
    for (int j = 0; j < run.rhs_per_setup; ++j) solve_all += timed_solve(j);
    tts_s.push_back(setup + solve_all);
    // Latency-only RHS, spread over the run so that a burst of host noise
    // cannot own the latency percentiles.
    for (int i = 0; i < run.latency_rhs_per_setup; ++i) timed_solve(next_rhs++);
    last_episode = wall_seconds() - ep0;
  }

  // Top up against the last setup so p95 has ≥10 samples beyond it.
  const std::size_t want = run.args.smoke ? 20 : kMinLatencySamples;
  while (solver && latency_ms.size() < want) timed_solve(next_rhs++);

  const std::vector<double> quiet = quiet_latencies(latency_ms);
  std::fprintf(stderr,
               "perfbench: %s setups=%zu solves=%zu (latency percentiles "
               "over the quietest %zu: p50 %.2f ms of all %.2f ms), setup_s:",
               run.w.name, setup_s.size(), latency_ms.size(), quiet.size(),
               quantile(quiet, 0.50), quantile(latency_ms, 0.50));
  for (const double t : setup_s) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "; iterations:");
  for (const auto& [it, count] : iter_hist) {
    std::fprintf(stderr, " %d×%d", count, it);
  }
  std::fprintf(stderr, "\n");
  return {
      {"setup_s", {median(setup_s), "s"}},
      {"time_to_solution_s", {median(tts_s), "s"}},
      {"solve_ms_p50", {quantile(quiet, 0.50), "ms"}},
      {"solve_ms_p95", {quantile(quiet, 0.95), "ms"}},
      {"setup_mb", {median(mem_mb), "MB"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
  };
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1).
// ---------------------------------------------------------------------------

/// One traced setup + solve sequence; returns its per-layer numbers.
std::map<std::string, double> traced_episode(Run& run, SpanRecorder& rec,
                                             double untraced_s) {
  std::map<std::string, double> m;
  const SolverOptions& opt = run.opt;
  const index_t k = opt.num_subdomains;
  SchurSolver solver(run.problem.a, opt);

  Span setup(rec, "setup", -1);
  // partition: SchurSolver::setup
  {
    const long long bis0 = counter_value("rhb.bisections");
    Span sp(rec, "partition", setup.id());
    solver.setup(run.incidence(), run.problem.coords);
    m["partition.s"] = sp.close();
    m["partition.bisections"] =
        static_cast<double>(counter_value("rhb.bisections") - bis0);
  }
  const CsrMatrix& a = solver.matrix();
  const DbbdPartition& dbbd = solver.partition();
  const index_t ns = dbbd.separator_size();
  m["partition.separator"] = static_cast<double>(ns);
  {
    std::vector<long long> dims(k);
    for (index_t l = 0; l < k; ++l) dims[l] = dbbd.domain_size(l);
    m["partition.balance"] = max_over_min(dims);
  }

  // subdomain: extract_subdomain + assemble_subdomain per ℓ, fanned out
  // exactly as SchurSolver::factor() does.
  std::vector<Subdomain> subs(k);
  std::vector<SubdomainFactorization> facts(k);
  {
    std::vector<double> domain_s(k, 0.0);
    const long long flops0 = counter_value("spgemm.flops");
    const long long tasks0 = counter_value("pool.tasks_executed");
    const long long stolen0 = counter_value("pool.tasks_stolen");
    const double cpu0 = process_cpu_seconds();
    Span sd(rec, "subdomain", setup.id());
    auto process_domain = [&](int l) {
      Span d(rec, "subdomain.domain", sd.id(), -1, l);
      {
        Span e(rec, "subdomain.extract", d.id(), -1, l);
        subs[l] = extract_subdomain(a, dbbd, l);
      }
      {
        Span f(rec, "subdomain.assemble", d.id(), -1, l);
        facts[l] = assemble_subdomain(subs[l], opt.assembly);
      }
      domain_s[l] = d.close();
    };
    if (opt.threads > 1) {
      parallel_for(ThreadPool::shared(), k, process_domain, opt.threads);
    } else {
      for (index_t l = 0; l < k; ++l) process_domain(l);
    }
    const double wall = sd.close();
    m["subdomain.s"] = wall;
    m["subdomain.cpu_over_wall"] =
        wall > 0.0 ? (process_cpu_seconds() - cpu0) / wall : 0.0;
    m["subdomain.spgemm_flops"] =
        static_cast<double>(counter_value("spgemm.flops") - flops0);
    m["parallel.tasks"] =
        static_cast<double>(counter_value("pool.tasks_executed") - tasks0);
    m["parallel.stolen"] =
        static_cast<double>(counter_value("pool.tasks_stolen") - stolen0);
    double lu_d = 0.0, comp_s = 0.0, tri = 0.0, gemm = 0.0;
    long long padded = 0, pattern = 0, aborts = 0;
    for (index_t l = 0; l < k; ++l) {
      const SubdomainFactorization& f = facts[l];
      lu_d += f.order_seconds + f.factor_seconds;
      tri += f.solve_g_seconds + f.solve_w_seconds;
      gemm += f.gemm_seconds;
      comp_s += f.solve_g_seconds + f.solve_w_seconds + f.reorder_seconds +
                f.gemm_seconds;
      padded += f.g_stats.padded_zeros + f.w_stats.padded_zeros;
      pattern += f.g_stats.pattern_nnz + f.w_stats.pattern_nnz;
      if (!f.lu.stats.used_panel) ++aborts;
    }
    m["subdomain.lu_d_s"] = lu_d;
    m["subdomain.comp_s_s"] = comp_s;
    m["subdomain.trisolve_s"] = tri;
    m["subdomain.gemm_s"] = gemm;
    m["subdomain.padded_frac"] =
        padded + pattern > 0
            ? static_cast<double>(padded) / static_cast<double>(padded + pattern)
            : 0.0;
    m["subdomain.panel_aborts"] = static_cast<double>(aborts);
    const Summary per_domain = summarize(domain_s);
    m["subdomain.imbalance"] =
        per_domain.avg > 0.0 ? per_domain.max / per_domain.avg : 0.0;
  }

  // gather: extract_separator_block + assemble_schur, with factor()'s
  // whole-budget gather thread count.
  CsrMatrix s_tilde;
  {
    Span g(rec, "gather", setup.id());
    CsrMatrix c_block;
    {
      Span c(rec, "gather.separator_block", g.id());
      c_block = extract_separator_block(a, dbbd);
    }
    {
      Span s(rec, "gather.assemble_schur", g.id());
      s_tilde = assemble_schur(c_block, subs, facts, opt.assembly.drop_s,
                               std::max(1u, opt.threads) *
                                   std::max(1u, opt.assembly.inner_threads));
    }
    m["gather.s"] = g.close();
    m["gather.schur_nnz"] = static_cast<double>(s_tilde.nnz());
  }

  // lu_schur: the SchurPreconditioner constructor.
  std::unique_ptr<SchurPreconditioner> precond;
  {
    const long long fb0 = counter_value("lu.panel.fallbacks");
    const long long fl0 = counter_value("lu.panel.total_flops");
    Span l(rec, "lu_schur", setup.id());
    precond = std::make_unique<SchurPreconditioner>(s_tilde, opt.assembly.lu,
                                                    opt.assembly.trisolve);
    const double s = l.close();
    const bool panel = counter_value("lu.panel.fallbacks") == fb0;
    const double flops =
        2.0 * static_cast<double>(counter_value("lu.panel.total_flops") - fl0);
    m["lu_schur.s"] = s;
    m["lu_schur.fill_nnz"] = static_cast<double>(precond->factor_nnz());
    m["lu_schur.fill_density"] =
        ns > 0 ? static_cast<double>(precond->factor_nnz()) /
                     (static_cast<double>(ns) * static_cast<double>(ns))
               : 0.0;
    m["lu_schur.panel"] = panel ? 1.0 : 0.0;
    // Rate of the panel kernel's counted flops; 0 when it fell back to the
    // scalar kernel (which counts none).
    m["lu_schur.gflops"] = panel && s > 0.0 ? flops / s / 1e9 : 0.0;
  }
  const double traced_setup = setup.close();
  m["trace.setup_s"] = traced_setup;
  m["trace.coverage"] = (m["partition.s"] + m["subdomain.s"] + m["gather.s"] +
                         m["lu_schur.s"]) /
                        traced_setup;
  m["trace.overhead_frac"] = traced_setup / untraced_s - 1.0;

  // The solver's own factorization (untraced, outside the setup span) backs
  // the solves and proves the composition above is the program it runs.
  solver.factor();
  if (!bitwise_equal(s_tilde, solver.schur_tilde())) {
    run.fail_check("composed S~ differs from SchurSolver::schur_tilde()");
  }
  if (precond->factor_nnz() != solver.stats().precond_nnz) {
    run.fail_check("composed LU(S~) fill " +
                   std::to_string(precond->factor_nnz()) +
                   " != stats().precond_nnz " +
                   std::to_string(solver.stats().precond_nnz));
  }

  // solve: SchurSolver::solve per RHS, plus one isolated
  // SchurPreconditioner::apply and one SchurSolver::domain_solve per ℓ on
  // the RHS's separator / interior values.
  const auto n = static_cast<std::size_t>(a.rows);
  std::vector<value_t> b(n), x(n), ysep(ns), zsep(ns);
  std::vector<std::vector<value_t>> f(k), z(k);
  for (index_t l = 0; l < k; ++l) {
    f[l].resize(subs[l].d.rows);
    z[l].resize(subs[l].d.rows);
  }
  const index_t sep_begin = dbbd.domain_offset[k];
  std::vector<double> iters, applies, apply_ms, solve_ms;
  std::vector<std::vector<double>> dom_ms(k);
  long long allocs_after_first = 0;
  const long long tasks0 = counter_value("pool.tasks_executed");
  const long long stolen0 = counter_value("pool.tasks_stolen");
  Span solve(rec, "solve", -1);
  for (int j = 0; j < run.rhs_per_setup; ++j) {
    make_rhs(run.args.seed, j, b);
    std::fill(x.begin(), x.end(), 0.0);
    Span r(rec, "solve.rhs", solve.id(), j);
    GmresResult res;
    {
      Span s(rec, "solve.solve", r.id(), j);
      try {
        res = solver.solve(b, x);
      } catch (const std::exception&) {
        res.converged = false;
      }
      solve_ms.push_back(s.close() * 1e3);
    }
    run.check_solve(j, res, b, x);
    if (j == 0) {
      run.check_hash(x, "traced vs untraced");
      allocs_after_first = solver.stats().solve_workspace_allocs;
    }
    iters.push_back(res.iterations);
    applies.push_back(static_cast<double>(solver.stats().solve_applies));
    for (index_t s = 0; s < ns; ++s) ysep[s] = b[dbbd.perm[sep_begin + s]];
    {
      Span p(rec, "solve.precond_apply", r.id(), j);
      precond->apply(ysep, zsep);
      apply_ms.push_back(p.close() * 1e3);
    }
    for (index_t l = 0; l < k; ++l) {
      for (std::size_t i = 0; i < f[l].size(); ++i) {
        f[l][i] = b[subs[l].interior[i]];
      }
      Span d(rec, "solve.domain_solve", r.id(), j, l);
      solver.domain_solve(l, f[l], z[l]);
      dom_ms[l].push_back(d.close() * 1e3);
    }
  }
  solve.close();
  double dom_sum = 0.0;
  for (index_t l = 0; l < k; ++l) dom_sum += median(dom_ms[l]);
  double applies_total = 0.0, solve_total_ms = 0.0;
  for (std::size_t j = 0; j < solve_ms.size(); ++j) {
    applies_total += applies[j];
    solve_total_ms += solve_ms[j];
  }
  m["solve.iters"] = median(iters);
  m["solve.applies"] = median(applies);
  m["solve.ms"] = median(solve_ms);
  m["solve.precond_apply_ms"] = median(apply_ms);
  m["solve.domain_solve_ms"] = dom_sum;
  m["solve.ms_per_apply"] =
      applies_total > 0.0 ? solve_total_ms / applies_total : 0.0;
  const long long allocs =
      solver.stats().solve_workspace_allocs - allocs_after_first;
  m["solve.allocs"] = static_cast<double>(allocs);
  if (allocs != 0) {
    run.fail_check("solve workspace allocated after the first RHS (" +
                   std::to_string(allocs) + ")");
  }
  m["parallel.solve_tasks"] =
      static_cast<double>(counter_value("pool.tasks_executed") - tasks0);
  m["parallel.solve_stolen"] =
      static_cast<double>(counter_value("pool.tasks_stolen") - stolen0);
  return m;
}

std::map<std::string, std::string> host_facts(const Args& args) {
  std::map<std::string, std::string> h;
  h["nproc"] = std::to_string(std::thread::hardware_concurrency());
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  h["l3_bytes"] = l3 > 0 ? std::to_string(l3) : "unknown";
  h["build_type"] = PERFBENCH_BUILD_TYPE;
  h["compiler"] = PERFBENCH_COMPILER;
  h["commit"] = args.commit;
  h["pool_threads"] = std::to_string(ThreadPool::shared().size());
  return h;
}

Metrics run_traced(Run& run) {
  SpanRecorder rec;
  std::vector<std::map<std::string, double>> episodes;
  std::vector<double> untraced;
  std::unique_ptr<SchurSolver> solver;
  const double deadline = wall_seconds() + run.args.seconds;
  double last_pair = 0.0;
  const auto n = static_cast<std::size_t>(run.problem.a.rows);
  std::vector<value_t> b(n), x(n);
  // Alternate untraced and traced setups; the untraced one gives the
  // reference hash and the denominator of trace.overhead_frac.
  while (episodes.empty() || wall_seconds() + last_pair <= deadline) {
    const double p0 = wall_seconds();
    untraced.push_back(untraced_setup(run, solver));
    make_rhs(run.args.seed, 0, b);
    std::fill(x.begin(), x.end(), 0.0);
    const GmresResult r = solver->solve(b, x);
    run.check_solve(0, r, b, x);
    run.check_hash(x, "untraced setup of the traced run");
    solver.reset();
    episodes.push_back(traced_episode(run, rec, untraced.back()));
    last_pair = wall_seconds() - p0;
  }

  const std::vector<SpanRecord> spans = rec.spans();
  const std::vector<double> self = perfbench::self_seconds(spans);
  std::map<std::string, double> self_by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_by_layer[spans[i].name] += self[i];
  }
  const double nep = static_cast<double>(episodes.size());

  if (!run.args.trace_out.empty()) {
    std::map<std::string, std::string> meta = host_facts(run.args);
    meta["workload"] = run.w.name;
    meta["seed"] = std::to_string(run.args.seed);
    meta["matrix_seed"] = std::to_string(run.args.matrix_seed);
    std::ofstream out(run.args.trace_out);
    out << perfbench::to_chrome_json(spans, meta);
    if (!out) run.fail_check("could not write " + run.args.trace_out);
  }

  static const std::map<std::string, std::string> kUnits = {
      {"partition.s", "s"},
      {"partition.separator", "count"},
      {"partition.balance", "ratio"},
      {"partition.bisections", "count"},
      {"subdomain.s", "s"},
      {"subdomain.lu_d_s", "s"},
      {"subdomain.comp_s_s", "s"},
      {"subdomain.trisolve_s", "s"},
      {"subdomain.gemm_s", "s"},
      {"subdomain.padded_frac", "ratio"},
      {"subdomain.panel_aborts", "count"},
      {"subdomain.imbalance", "ratio"},
      {"subdomain.cpu_over_wall", "ratio"},
      {"subdomain.spgemm_flops", "count"},
      {"gather.s", "s"},
      {"gather.schur_nnz", "count"},
      {"lu_schur.s", "s"},
      {"lu_schur.fill_nnz", "count"},
      {"lu_schur.fill_density", "ratio"},
      {"lu_schur.panel", "count"},
      {"lu_schur.gflops", "GFlop/s"},
      {"solve.iters", "count"},
      {"solve.applies", "count"},
      {"solve.ms", "ms"},
      {"solve.precond_apply_ms", "ms"},
      {"solve.domain_solve_ms", "ms"},
      {"solve.ms_per_apply", "ms"},
      {"solve.allocs", "count"},
      {"parallel.tasks", "count"},
      {"parallel.stolen", "count"},
      {"parallel.solve_tasks", "count"},
      {"parallel.solve_stolen", "count"},
      {"trace.setup_s", "s"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  Metrics metrics;
  for (const auto& [name, unit] : kUnits) {
    std::vector<double> v;
    for (const auto& e : episodes) v.push_back(e.at(name));
    metrics[name] = {median(v), unit};
  }
  // Per-layer self time (mean per traced setup / solve sequence).
  for (const char* layer :
       {"setup", "partition", "subdomain", "gather", "lu_schur", "solve"}) {
    metrics[std::string(layer) + ".self_s"] = {self_by_layer[layer] / nep, "s"};
  }
  std::fprintf(stderr, "perfbench: %s traced setups=%zu spans=%zu\n",
               run.w.name, episodes.size(), spans.size());
  return metrics;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage("unknown workload '" + args.workload + "'");

  // Fix the shared pool to the workload's np = outer × inner before its
  // first use, so the layout does not follow the host's core count.
  const std::string pool = std::to_string(w->outer * w->inner);
  setenv("PDSLIN_POOL_THREADS", pool.c_str(), 1);

  Run run(*w, args);
  const double scale = w->scale * (args.smoke ? kSmokeScale : 1.0);
  run.problem = make_suite_matrix(w->matrix, scale, args.matrix_seed);
  run.opt = workload_options(*w);
  run.rhs_per_setup =
      args.smoke ? std::min(w->rhs_per_setup, kSmokeMaxRhs) : w->rhs_per_setup;
  run.latency_rhs_per_setup = args.smoke ? std::min(w->latency_rhs_per_setup, 2)
                                         : w->latency_rhs_per_setup;

  Metrics metrics;
  try {
    metrics = args.trace == 0 ? run_end_to_end(run) : run_traced(run);
  } catch (const std::exception& e) {
    run.fail_check(std::string("run threw: ") + e.what());
  }

  std::string host = "{";
  for (const auto& [key, value] : host_facts(args)) {
    if (host.size() > 1) host += ',';
    host += "\"" + key + "\":\"" + json_escape(value) + "\"";
  }
  host += ",\"workload\":\"" + std::string(w->name) + "\",\"n\":" +
          std::to_string(run.problem.a.rows) + ",\"nnz\":" +
          std::to_string(run.problem.a.nnz()) + "}";
  std::printf("PERFBENCH_HOST %s\n", host.c_str());
  std::printf("PERFBENCH_HASH %s %llu %016llx\n", w->name,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(run.hash));
  for (const auto& [name, vu] : metrics) {
    if (!std::isfinite(vu.first)) run.fail_check(name + " is not finite");
  }
  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }

  const bool correct = run.checks_ok && run.failed == 0 && !metrics.empty();
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max(1LL, run.attempted));
  out += ", \"failed\": " +
         std::to_string(run.attempted == 0 ? 1LL : run.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char buf[64] = "null";  // JSON has no NaN or infinity
    if (std::isfinite(vu.first)) std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
