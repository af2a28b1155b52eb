// Serve-layer benchmark: throughput of the in-process solve service on a
// repeated-matrix workload with the factorization cache and request batching
// ON versus OFF (the ablation of docs/SERVE.md).
//
// This driver is also a correctness gate, not just a stopwatch:
//   - the cached-path answer must be BITWISE identical to the cold-path
//     answer for every request (exit 1 otherwise);
//   - an injected singular-subdomain request must come back Degraded with a
//     structured detail string while the queue keeps draining (exit 1 if the
//     service aborts or returns the wrong status);
//   - the speedup of ON over OFF must be >= 5x on the repeated workload
//     (exit 1 otherwise — the acceptance criterion of this subsystem).
//
// Both runs start from one untimed warmup request, so the comparison is
// steady-state service (cache warm) versus per-request cold setup.
// Emits one "BENCH {json}" line per configuration plus a summary line with
// the speedup.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "util/timer.hpp"

using namespace pdslin;
using namespace pdslin::bench;

namespace {

struct Workload {
  std::shared_ptr<const CsrMatrix> a;
  std::shared_ptr<const CsrMatrix> incidence;
  std::vector<std::vector<value_t>> rhs;  // one n*nrhs block per request
  index_t nrhs = 1;
};

/// Repeated-matrix workload: `repeats` requests against ONE matrix object
/// (the serving regime the factorization cache exists for), each with its
/// own right-hand sides.
Workload make_workload(const GeneratedProblem& p, int repeats, index_t nrhs) {
  Workload w;
  w.a = std::make_shared<const CsrMatrix>(p.a);
  if (p.incidence.rows > 0) {
    w.incidence = std::make_shared<const CsrMatrix>(p.incidence);
  }
  w.nrhs = nrhs;
  Rng rng(977);
  w.rhs.resize(static_cast<std::size_t>(repeats));
  for (std::vector<value_t>& b : w.rhs) {
    b.resize(static_cast<std::size_t>(p.a.rows) *
             static_cast<std::size_t>(nrhs));
    for (value_t& v : b) v = rng.uniform(-1.0, 1.0);
  }
  return w;
}

serve::SolveRequest make_request(const Workload& w, std::size_t i,
                                 const SolverOptions& opt) {
  serve::SolveRequest r;
  r.a = w.a;
  r.incidence = w.incidence;
  r.b = w.rhs[i];
  r.nrhs = w.nrhs;
  r.opt = opt;
  return r;
}

struct RunResult {
  double seconds = 0.0;
  double solves_per_second = 0.0;
  double hit_rate = 0.0;
  double mean_batch_width = 0.0;
  double p50 = 0.0, p99 = 0.0;
  long long ok = 0, degraded = 0, failed = 0;
  std::vector<std::vector<value_t>> solutions;  // per request, submit order
};

RunResult run_workload(const Workload& w, const SolverOptions& opt, bool cache,
                       bool batch, unsigned workers) {
  obs::MetricsRegistry::instance().reset_values();
  serve::ServiceConfig cfg;
  cfg.enable_cache = cache;
  cfg.enable_batching = batch;
  cfg.workers = workers;
  cfg.queue_capacity = w.rhs.size() + 16;
  serve::SolveService service(cfg);

  // Untimed warmup: primes the factorization cache when it is enabled and
  // the thread pool either way.
  (void)service.solve(make_request(w, 0, opt));

  RunResult out;
  WallTimer wall;
  std::vector<std::future<serve::SolveResponse>> futures;
  futures.reserve(w.rhs.size());
  for (std::size_t i = 0; i < w.rhs.size(); ++i) {
    futures.push_back(service.submit(make_request(w, i, opt)));
  }
  std::vector<double> latencies;
  long long total_nrhs = 0;
  long long hits = 0;
  for (std::future<serve::SolveResponse>& f : futures) {
    serve::SolveResponse resp = f.get();
    switch (resp.status) {
      case serve::ServeStatus::Ok: ++out.ok; break;
      case serve::ServeStatus::Degraded: ++out.degraded; break;
      default: ++out.failed; break;
    }
    if (resp.cache_hit) ++hits;
    latencies.push_back(resp.queue_seconds + resp.setup_seconds +
                        resp.solve_seconds);
    total_nrhs += w.nrhs;
    out.solutions.push_back(std::move(resp.x));
  }
  out.seconds = wall.seconds();
  const serve::ServiceStats st = service.stats();
  out.solves_per_second =
      out.seconds > 0.0 ? static_cast<double>(total_nrhs) / out.seconds : 0.0;
  const auto timed = static_cast<double>(futures.size());
  out.hit_rate = timed > 0.0 ? static_cast<double>(hits) / timed : 0.0;
  out.mean_batch_width = st.mean_batch_width();
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    out.p50 = latencies[latencies.size() / 2];
    out.p99 = latencies[static_cast<std::size_t>(
        0.99 * static_cast<double>(latencies.size() - 1))];
  }
  return out;
}

void emit(const char* config, const GeneratedProblem& p, const RunResult& r) {
  obs::RunReport report;
  report.tool = "bench/serve";
  report.matrix = p.name;
  report.n = p.a.rows;
  report.nnz = p.a.nnz();
  report.set_config("mode", config);
  report.set_stat("wall_seconds", r.seconds);
  report.set_stat("solves_per_second", r.solves_per_second);
  report.set_stat("cache_hit_rate", r.hit_rate);
  report.set_stat("mean_batch_width", r.mean_batch_width);
  report.set_stat("latency_p50_seconds", r.p50);
  report.set_stat("latency_p99_seconds", r.p99);
  report.set_stat("ok", static_cast<double>(r.ok));
  report.set_stat("degraded", static_cast<double>(r.degraded));
  report.set_stat("failed", static_cast<double>(r.failed));
  report.capture_metrics();
  emit_bench_report(report);
}

/// A small diagonally dominant tridiagonal system: trivially solvable by
/// unpreconditioned GMRES, so when the hybrid setup is sabotaged the
/// fallback converges and the ladder lands exactly on Degraded.
Workload make_easy_workload(index_t n) {
  CsrMatrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    if (i > 0) {
      a.col_idx.push_back(i - 1);
      a.values.push_back(-1.0);
    }
    a.col_idx.push_back(i);
    a.values.push_back(4.0);
    if (i + 1 < n) {
      a.col_idx.push_back(i + 1);
      a.values.push_back(-1.0);
    }
    a.row_ptr[i + 1] = static_cast<index_t>(a.col_idx.size());
  }
  GeneratedProblem p;
  p.name = "tridiag";
  p.a = std::move(a);
  return make_workload(p, 1, 1);
}

}  // namespace

int main() {
  print_header("Solve service: factorization cache + request batching",
               "the setup/solve amortization regime of §IV");
  const double scale = bench_scale(0.4);
  const int repeats = 32;
  const index_t nrhs = 4;
  const unsigned workers = 4;

  GeneratedProblem p = make_suite_matrix("tdr190k", scale, bench_seed());
  SolverOptions opt = bench_solver_options();
  const Workload w = make_workload(p, repeats, nrhs);

  std::printf("\nmatrix %s: n=%lld nnz=%lld — %d requests x %d rhs, "
              "%u workers\n",
              p.name.c_str(), static_cast<long long>(p.a.rows),
              static_cast<long long>(p.a.nnz()), repeats,
              static_cast<int>(nrhs), workers);

  std::printf("\n[1/4] cache+batching OFF (cold setup per request)...\n");
  const RunResult off = run_workload(w, opt, false, false, workers);
  emit("off", p, off);
  std::printf("      %.2fs — %.1f solves/s, p50 %.1fms p99 %.1fms\n",
              off.seconds, off.solves_per_second, off.p50 * 1e3,
              off.p99 * 1e3);

  std::printf("[2/4] cache+batching ON...\n");
  const RunResult on = run_workload(w, opt, true, true, workers);
  emit("on", p, on);
  std::printf("      %.2fs — %.1f solves/s, hit rate %.0f%%, mean batch "
              "width %.2f, p50 %.1fms p99 %.1fms\n",
              on.seconds, on.solves_per_second, on.hit_rate * 100.0,
              on.mean_batch_width, on.p50 * 1e3, on.p99 * 1e3);

  int exit_code = 0;

  // Gate 1: bitwise-identical answers, cached path vs cold path.
  std::printf("[3/4] bitwise check: cached-path answers vs cold path...\n");
  if (on.solutions.size() != off.solutions.size()) {
    std::printf("      FAIL: response count differs (%zu vs %zu)\n",
                on.solutions.size(), off.solutions.size());
    exit_code = 1;
  }
  for (std::size_t i = 0; exit_code == 0 && i < on.solutions.size(); ++i) {
    const std::vector<value_t>& a = on.solutions[i];
    const std::vector<value_t>& b = off.solutions[i];
    if (a.size() != b.size() ||
        std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) != 0) {
      std::printf("      FAIL: request %zu differs bitwise between cached "
                  "and cold paths\n", i);
      exit_code = 1;
    }
  }
  if (exit_code == 0) {
    std::printf("      ok: %zu responses bitwise identical\n",
                on.solutions.size());
  }

  // Gate 2: an injected singular-subdomain request degrades in place while
  // healthy requests before and after it keep flowing. min_pivot = 1e30
  // makes every subdomain LU pivot report singular, which is the same
  // failure path a genuinely singular D_l takes.
  std::printf("[4/4] fault injection: singular subdomain mid-stream...\n");
  {
    const Workload easy = make_easy_workload(600);
    SolverOptions sick_opt = opt;
    sick_opt.assembly.lu.min_pivot = 1e30;
    serve::ServiceConfig cfg;
    cfg.workers = workers;
    serve::SolveService service(cfg);
    std::vector<std::future<serve::SolveResponse>> fs;
    fs.push_back(service.submit(make_request(w, 0, opt)));        // healthy
    fs.push_back(service.submit(make_request(easy, 0, sick_opt)));  // singular
    fs.push_back(service.submit(make_request(w, 1, opt)));        // healthy
    const serve::SolveResponse h1 = fs[0].get();
    const serve::SolveResponse sick = fs[1].get();
    const serve::SolveResponse h2 = fs[2].get();
    const bool healthy_ok = h1.status == serve::ServeStatus::Ok &&
                            h2.status == serve::ServeStatus::Ok;
    const bool degraded_ok = sick.status == serve::ServeStatus::Degraded &&
                             !sick.detail.empty();
    std::printf("      healthy=[%s,%s] singular=%s\n      detail=\"%s\"\n",
                serve::to_string(h1.status), serve::to_string(h2.status),
                serve::to_string(sick.status), sick.detail.c_str());
    if (!healthy_ok || !degraded_ok) {
      std::printf("      FAIL: expected Ok/Degraded/Ok with a detail string\n");
      exit_code = 1;
    } else {
      std::printf("      ok: queue drained through the fault\n");
    }
  }

  // Gate 3: the acceptance threshold.
  const double speedup =
      off.seconds > 0.0 && on.seconds > 0.0 ? off.seconds / on.seconds : 0.0;
  std::printf("\nspeedup cache+batching ON vs OFF: %.2fx (threshold 5x)\n",
              speedup);
  if (speedup < 5.0) {
    std::printf("FAIL: below the 5x acceptance threshold\n");
    exit_code = 1;
  }
  if (on.failed + off.failed > 0) {
    std::printf("FAIL: %lld requests Failed\n", on.failed + off.failed);
    exit_code = 1;
  }
  std::printf("%s\n", exit_code == 0 ? "PASS" : "FAIL");
  return exit_code;
}
