// Serve-layer tests: fingerprint keying, the factorization cache (LRU,
// byte pressure, in-flight pinning, symbolic partition reuse), the
// const-solver concurrency contract (two threads against one cached setup
// are bitwise identical to serial), and the service's status ladder
// (Ok / Degraded / Timeout / Rejected / Failed) with queue draining.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/schur_solver.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

using serve::CachedSetup;
using serve::FactorCache;
using serve::FactorCacheConfig;
using serve::Fingerprint;
using serve::ServeStatus;
using serve::SetupKey;
using serve::SolveService;

std::vector<value_t> random_rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

SolverOptions small_options(index_t k = 4) {
  SolverOptions opt;
  opt.num_subdomains = k;
  opt.seed = 3;
  return opt;
}

/// Build a complete (setup + factor) cached entry for the cache tests.
std::shared_ptr<CachedSetup> make_setup(const CsrMatrix& a,
                                        const SolverOptions& opt) {
  auto solver = std::make_shared<SchurSolver>(a, opt);
  solver->setup();
  solver->factor();
  const SetupKey key{serve::fingerprint_of(a), serve::setup_options_hash(opt)};
  return std::make_shared<CachedSetup>(
      key, std::shared_ptr<const SchurSolver>(std::move(solver)));
}

serve::SolveRequest make_request(const std::shared_ptr<const CsrMatrix>& a,
                                 const SolverOptions& opt, index_t nrhs,
                                 std::uint64_t seed) {
  serve::SolveRequest r;
  r.a = a;
  r.opt = opt;
  r.nrhs = nrhs;
  r.b = random_rhs(a->rows * nrhs, seed);
  return r;
}

// ---------------------------------------------------------------- fingerprint

TEST(ServeFingerprint, EqualMatricesEqualFingerprints) {
  const CsrMatrix a = testing::grid_laplacian(8, 8);
  const CsrMatrix b = a;
  EXPECT_EQ(serve::fingerprint_of(a), serve::fingerprint_of(b));
}

TEST(ServeFingerprint, ValueChangeFlipsNumericHalfOnly) {
  const CsrMatrix a = testing::grid_laplacian(8, 8);
  CsrMatrix b = a;
  b.values[5] += 1e-12;  // tiniest numeric perturbation must be seen
  const Fingerprint fa = serve::fingerprint_of(a);
  const Fingerprint fb = serve::fingerprint_of(b);
  EXPECT_EQ(fa.structure, fb.structure);
  EXPECT_NE(fa.values, fb.values);
  EXPECT_NE(fa, fb);
}

TEST(ServeFingerprint, PatternChangeFlipsStructure) {
  const CsrMatrix a = testing::grid_laplacian(8, 8);
  const CsrMatrix b = testing::grid_laplacian(8, 9);
  EXPECT_NE(serve::fingerprint_of(a).structure,
            serve::fingerprint_of(b).structure);
}

TEST(ServeFingerprint, OptionsHashIgnoresSolvePhaseKnobs) {
  SolverOptions a = small_options();
  SolverOptions b = a;
  b.gmres.rel_tolerance = 1e-6;  // solve-phase: must still share a setup
  b.gmres.max_iterations = 17;
  EXPECT_EQ(serve::setup_options_hash(a), serve::setup_options_hash(b));

  SolverOptions c = a;
  c.num_subdomains = 8;  // setup-phase: different key
  EXPECT_NE(serve::setup_options_hash(a), serve::setup_options_hash(c));
  SolverOptions d = a;
  d.assembly.drop_s = 1e-3;
  EXPECT_NE(serve::setup_options_hash(a), serve::setup_options_hash(d));
}

TEST(ServeFingerprint, SymbolicKeyDropsValues) {
  const CsrMatrix a = testing::grid_laplacian(8, 8);
  CsrMatrix b = a;
  b.values[0] *= 2.0;
  const SolverOptions opt = small_options();
  const SetupKey ka{serve::fingerprint_of(a), serve::setup_options_hash(opt)};
  const SetupKey kb{serve::fingerprint_of(b), serve::setup_options_hash(opt)};
  EXPECT_NE(ka, kb);
  EXPECT_EQ(ka.symbolic(), kb.symbolic());
}

TEST(ServeFingerprint, HexRenderingIsPinned) {
  // Workload logs key requests by to_hex(); its layout must not drift.
  EXPECT_EQ(Fingerprint({0x0123456789abcdefull, 0xfedcba9876543210ull}).to_hex(),
            "efcdab8967452301"
            "1032547698badcfe");

  std::vector<Fingerprint> cases = {
      {0, 0},
      {1, 0},
      {0, 1},
      {0xffffffffffffffffull, 0xffffffffffffffffull},
      {0x8000000000000000ull, 0x0000000000000001ull},
      serve::fingerprint_of(testing::grid_laplacian(8, 8)),
      serve::fingerprint_of(testing::grid_laplacian(9, 5)),
  };
  Rng rng(123);
  for (int i = 0; i < 256; ++i) cases.push_back({rng.next(), rng.next()});

  for (const Fingerprint& fp : cases) {
    // Each half little-endian, structure first, two lowercase digits a byte.
    const std::string hex = fp.to_hex();
    ASSERT_EQ(hex.size(), 32u);
    for (std::size_t i = 0; i < 16; ++i) {
      const std::uint64_t half = i < 8 ? fp.structure : fp.values;
      char want[3];
      std::snprintf(want, sizeof(want), "%02x",
                    static_cast<unsigned>(half >> (8 * (i % 8))) & 0xFFu);
      EXPECT_EQ(hex.substr(2 * i, 2), want) << hex;
    }
  }
}

// --------------------------------------------------------------- factor cache

TEST(ServeFactorCache, HitMissAndRecency) {
  const SolverOptions opt = small_options();
  auto s1 = make_setup(testing::grid_laplacian(10, 10), opt);
  FactorCache cache;
  EXPECT_EQ(cache.find(s1->key()), nullptr);
  EXPECT_TRUE(cache.insert(s1));
  EXPECT_EQ(cache.find(s1->key()).get(), s1.get());
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, s1->bytes());
}

TEST(ServeFactorCache, EvictsColdestUnderBytePressure) {
  const SolverOptions opt = small_options();
  auto s1 = make_setup(testing::grid_laplacian(10, 10), opt);
  auto s2 = make_setup(testing::grid_laplacian(11, 11), opt);
  auto s3 = make_setup(testing::grid_laplacian(12, 12), opt);

  FactorCacheConfig cfg;
  cfg.capacity_bytes = s1->bytes() + s2->bytes() + s3->bytes() / 2;
  FactorCache cache(cfg);
  ASSERT_TRUE(cache.insert(s1));
  ASSERT_TRUE(cache.insert(s2));
  // Touch s1 so s2 is the coldest, then squeeze s3 in.
  ASSERT_NE(cache.find(s1->key()), nullptr);
  const auto k1 = s1->key();
  const auto k2 = s2->key();
  s1.reset();
  s2.reset();  // cache holds the only references → evictable
  ASSERT_TRUE(cache.insert(s3));

  EXPECT_EQ(cache.find(k2), nullptr) << "coldest entry should be evicted";
  EXPECT_NE(cache.find(k1), nullptr) << "recently-used entry must survive";
  EXPECT_NE(cache.find(s3->key()), nullptr);
  EXPECT_GE(cache.stats().evictions, 1);
  EXPECT_LE(cache.stats().bytes, cfg.capacity_bytes);
}

TEST(ServeFactorCache, PinnedEntryIsNeverEvicted) {
  const SolverOptions opt = small_options();
  auto s1 = make_setup(testing::grid_laplacian(10, 10), opt);
  auto s2 = make_setup(testing::grid_laplacian(11, 11), opt);

  FactorCacheConfig cfg;
  cfg.capacity_bytes = s1->bytes() + s2->bytes() / 4;  // only one fits
  FactorCache cache(cfg);
  ASSERT_TRUE(cache.insert(s1));
  const auto pin = cache.find(s1->key());  // in-flight solve holds this
  ASSERT_NE(pin, nullptr);
  s1.reset();

  // s2 cannot fit without evicting the pinned s1: insert must refuse and
  // leave the pinned entry resident.
  EXPECT_FALSE(cache.insert(s2));
  EXPECT_NE(cache.find(pin->key()), nullptr);
  EXPECT_GE(cache.stats().insert_rejects, 1);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(ServeFactorCache, OversizedEntryRejected) {
  const SolverOptions opt = small_options();
  auto s1 = make_setup(testing::grid_laplacian(10, 10), opt);
  FactorCacheConfig cfg;
  cfg.capacity_bytes = s1->bytes() / 2;
  FactorCache cache(cfg);
  EXPECT_FALSE(cache.insert(s1));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_GE(cache.stats().insert_rejects, 1);
}

TEST(ServeFactorCache, ReinsertReplacesExistingKey) {
  const SolverOptions opt = small_options();
  const CsrMatrix a = testing::grid_laplacian(10, 10);
  auto s1 = make_setup(a, opt);
  auto s2 = make_setup(a, opt);  // same key
  FactorCache cache;
  ASSERT_TRUE(cache.insert(s1));
  ASSERT_TRUE(cache.insert(s2));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.find(s1->key()).get(), s2.get());
}

TEST(ServeFactorCache, PartitionSurvivesNumericEviction) {
  const SolverOptions opt = small_options();
  const CsrMatrix a = testing::grid_laplacian(12, 12);
  auto s1 = make_setup(a, opt);
  auto s2 = make_setup(testing::grid_laplacian(13, 13), opt);
  const SetupKey k1 = s1->key();

  FactorCacheConfig cfg;
  // Each entry fits alone; the two together do not.
  cfg.capacity_bytes = s1->bytes() + s2->bytes() - 1;
  FactorCache cache(cfg);
  ASSERT_TRUE(cache.insert(s1));
  s1.reset();
  // A different pattern displaces the numeric entry...
  ASSERT_TRUE(cache.insert(s2));
  ASSERT_EQ(cache.find(k1), nullptr);

  // ...but the partition is still there for the symbolic level of the
  // ladder: same pattern + new values re-factors without re-partitioning.
  CsrMatrix a2 = a;
  for (auto& v : a2.values) v *= 1.001;
  const SetupKey k2{serve::fingerprint_of(a2), serve::setup_options_hash(opt)};
  EXPECT_NE(k1, k2);
  const auto part = cache.find_partition(k2);
  ASSERT_NE(part, nullptr);
  EXPECT_GE(cache.stats().symbolic_hits, 1);

  SchurSolver solver(a2, opt);
  solver.adopt_partition(*part);
  solver.factor();
  const auto b = random_rhs(a2.rows, 11);
  std::vector<value_t> x(a2.rows, 0.0);
  EXPECT_TRUE(solver.solve(b, x).converged);

  // The adopted partition must give the same answer as a from-scratch setup.
  SchurSolver fresh(a2, opt);
  fresh.setup();
  fresh.factor();
  std::vector<value_t> xf(a2.rows, 0.0);
  ASSERT_TRUE(fresh.solve(b, xf).converged);
  EXPECT_EQ(0, std::memcmp(x.data(), xf.data(), x.size() * sizeof(value_t)))
      << "symbolic reuse changed the numerics";
}

TEST(ServeFactorCache, AdoptedPartitionChargedFullBytes) {
  // Regression: an entry built through the symbolic-reuse path
  // (adopt_partition + factor) must be byte-charged exactly like a cold
  // setup — the adopted partition skips the partitioner, not the factors,
  // so an undercharge here would let the cache blow its byte budget.
  const SolverOptions opt = small_options();
  const CsrMatrix a = testing::grid_laplacian(12, 12);
  auto cold = make_setup(a, opt);

  FactorCache cache;
  ASSERT_TRUE(cache.insert(cold));

  // Same pattern, uniformly scaled values: same symbolic class, same pivot
  // choices, hence an identical structural footprint.
  CsrMatrix a2 = a;
  for (auto& v : a2.values) v *= 1.0 + 1e-6;
  const SetupKey k2{serve::fingerprint_of(a2), serve::setup_options_hash(opt)};
  const auto part = cache.find_partition(k2);
  ASSERT_NE(part, nullptr);

  auto solver = std::make_shared<SchurSolver>(a2, opt);
  solver->adopt_partition(*part);
  solver->factor();
  auto adopted = std::make_shared<CachedSetup>(
      k2, std::shared_ptr<const SchurSolver>(solver));

  EXPECT_EQ(adopted->bytes(), solver->memory_bytes());
  EXPECT_GT(adopted->bytes(), 0u);
  EXPECT_EQ(adopted->bytes(), cold->bytes())
      << "adopt_partition path accounted a different footprint than setup()";

  const std::size_t bytes_before = cache.stats().bytes;
  ASSERT_TRUE(cache.insert(adopted));
  EXPECT_EQ(cache.stats().bytes, bytes_before + adopted->bytes());
  EXPECT_EQ(cache.stats().entries, 2u);

  // Evicting the adopted entry refunds exactly what it was charged. Drop
  // the first cache's reference first — a pinned entry is never evicted.
  cache.clear();
  auto s3 = make_setup(testing::grid_laplacian(13, 13), opt);
  FactorCacheConfig tight;
  tight.capacity_bytes = adopted->bytes() + s3->bytes() - 1;
  FactorCache small(tight);
  ASSERT_TRUE(small.insert(adopted));
  adopted.reset();  // unpin
  ASSERT_TRUE(small.insert(s3));
  EXPECT_EQ(small.stats().bytes, s3->bytes());
  EXPECT_EQ(small.stats().entries, 1u);
}

TEST(ServeFactorCache, EvictionRacesInFlightPinning) {
  // Many threads hammer one small cache: finders pin entries (shared_ptr)
  // and use the solver while inserters force continual eviction pressure.
  // Pinned entries must never be evicted out from under a solve, and the
  // byte accounting must balance once the storm passes. Runs under the
  // serve TSan label.
  const SolverOptions opt = small_options();
  std::vector<CsrMatrix> mats;
  std::vector<std::shared_ptr<const SchurSolver>> solvers;
  std::vector<SetupKey> keys;
  for (index_t i = 0; i < 4; ++i) {
    mats.push_back(testing::grid_laplacian(10 + i, 10 + i));
    auto solver = std::make_shared<SchurSolver>(mats.back(), opt);
    solver->setup();
    solver->factor();
    keys.push_back(SetupKey{serve::fingerprint_of(mats.back()),
                            serve::setup_options_hash(opt)});
    solvers.push_back(std::move(solver));
  }

  FactorCacheConfig cfg;
  // Room for roughly two entries: every insert beyond that must evict.
  cfg.capacity_bytes =
      solvers[2]->memory_bytes() + solvers[3]->memory_bytes();
  FactorCache cache(cfg);

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<int> pinned_uses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(1000 + t));
      for (int i = 0; i < kIters; ++i) {
        const std::size_t j =
            static_cast<std::size_t>(rng.bounded(keys.size()));
        if (t % 2 == 0) {
          // Inserter: a fresh wrapper each round (only the cache and any
          // in-flight finder hold it), so eviction pressure is real.
          (void)cache.insert(
              std::make_shared<CachedSetup>(keys[j], solvers[j]));
        } else {
          // Finder: pin an entry and actually use it across the race
          // window — an eviction that freed it would explode here.
          if (auto hit = cache.find(keys[j])) {
            auto ctx = hit->take_context();
            const auto b =
                random_rhs(mats[j].rows, static_cast<std::uint64_t>(i));
            std::vector<value_t> x(mats[j].rows, 0.0);
            (void)hit->solver().solve(b, x, *ctx,
                                      hit->solver().options().gmres);
            hit->return_context(std::move(ctx));
            pinned_uses.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(pinned_uses.load(), 0) << "stress never exercised a pinned hit";

  const auto st = cache.stats();
  EXPECT_LE(st.entries, 4u);
  EXPECT_GT(st.evictions, 0);
  // Byte ledger balances: what remains is exactly the sum of live entries.
  std::size_t live = 0;
  for (const SetupKey& k : keys) {
    if (const auto hit = cache.find(k)) live += hit->bytes();
  }
  EXPECT_EQ(cache.stats().bytes, live);
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ------------------------------------------------ const-solver concurrency

TEST(ServeConcurrentSolve, TwoThreadsMatchSerialBitwise) {
  SolverOptions opt = small_options();
  opt.threads = 2;  // concurrent solves also share the global pool
  const CsrMatrix a = testing::grid_laplacian(20, 20);
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();
  const SchurSolver& shared = solver;

  const auto b1 = random_rhs(a.rows, 21);
  const auto b2 = random_rhs(a.rows, 22);

  std::vector<value_t> x1s(a.rows, 0.0), x2s(a.rows, 0.0);
  {
    SchurSolver::SolveContext ctx;
    ASSERT_TRUE(shared.solve(b1, x1s, ctx, opt.gmres).converged);
  }
  {
    SchurSolver::SolveContext ctx;
    ASSERT_TRUE(shared.solve(b2, x2s, ctx, opt.gmres).converged);
  }

  for (int round = 0; round < 4; ++round) {
    std::vector<value_t> x1(a.rows, 0.0), x2(a.rows, 0.0);
    GmresResult r1, r2;
    std::thread t1([&] {
      SchurSolver::SolveContext ctx;
      r1 = shared.solve(b1, x1, ctx, opt.gmres);
    });
    std::thread t2([&] {
      SchurSolver::SolveContext ctx;
      r2 = shared.solve(b2, x2, ctx, opt.gmres);
    });
    t1.join();
    t2.join();
    ASSERT_TRUE(r1.converged);
    ASSERT_TRUE(r2.converged);
    EXPECT_EQ(0, std::memcmp(x1.data(), x1s.data(), x1.size() * sizeof(value_t)))
        << "concurrent solve diverged from serial (round " << round << ")";
    EXPECT_EQ(0, std::memcmp(x2.data(), x2s.data(), x2.size() * sizeof(value_t)))
        << "concurrent solve diverged from serial (round " << round << ")";
  }
}

TEST(ServeConcurrentSolve, ConstMultiMatchesMemberSolve) {
  const CsrMatrix a = testing::grid_laplacian(16, 16);
  SolverOptions opt = small_options();
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();

  const index_t nrhs = 3;
  const auto b = random_rhs(a.rows * nrhs, 31);
  std::vector<value_t> x_member(a.rows * nrhs, 0.0);
  auto r_member = solver.solve_multi(b, x_member, nrhs);

  SchurSolver::SolveContext ctx;
  std::vector<value_t> x_const(a.rows * nrhs, 0.0);
  const SchurSolver& shared = solver;
  auto r_const = shared.solve_multi(b, x_const, nrhs, ctx, opt.gmres);

  ASSERT_EQ(r_member.size(), r_const.size());
  for (std::size_t j = 0; j < r_member.size(); ++j) {
    EXPECT_TRUE(r_const[j].converged);
    EXPECT_EQ(r_member[j].iterations, r_const[j].iterations);
  }
  EXPECT_EQ(0, std::memcmp(x_member.data(), x_const.data(),
                           x_member.size() * sizeof(value_t)));
}

// -------------------------------------------------------------------- service

TEST(ServeService, SolvesCorrectlyAndCachesRepeats) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(14, 14));
  const SolverOptions opt = small_options();
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  SolveService service(cfg);

  const auto first = service.solve(make_request(a, opt, 1, 41));
  ASSERT_EQ(first.status, ServeStatus::Ok);
  EXPECT_FALSE(first.cache_hit);

  const auto again = service.solve(make_request(a, opt, 1, 41));
  ASSERT_EQ(again.status, ServeStatus::Ok);
  EXPECT_TRUE(again.cache_hit);
  ASSERT_EQ(first.x.size(), again.x.size());
  EXPECT_EQ(0, std::memcmp(first.x.data(), again.x.data(),
                           first.x.size() * sizeof(value_t)))
      << "cached-path answer must be bitwise identical to the cold path";

  // Against the dense oracle.
  const auto b = random_rhs(a->rows, 41);
  std::vector<value_t> x_ref;
  ASSERT_TRUE(testing::dense_solve(testing::to_dense(*a), b, x_ref));
  for (index_t i = 0; i < a->rows; ++i) {
    EXPECT_NEAR(first.x[i], x_ref[i], 1e-6);
  }
}

TEST(ServeService, InvalidRequestFailsFast) {
  serve::ServiceConfig cfg;
  SolveService service(cfg);
  serve::SolveRequest bad;  // no matrix at all
  const auto resp = service.solve(std::move(bad));
  EXPECT_EQ(resp.status, ServeStatus::Failed);
  EXPECT_FALSE(resp.detail.empty());
}

TEST(ServeService, DegradedOnSingularSetupAndQueueKeepsDraining) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(12, 12));
  const SolverOptions opt = small_options();
  SolverOptions sick = opt;
  sick.assembly.lu.min_pivot = 1e30;  // every subdomain LU reports singular

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  SolveService service(cfg);

  auto f1 = service.submit(make_request(a, opt, 1, 51));
  auto f2 = service.submit(make_request(a, sick, 1, 52));
  auto f3 = service.submit(make_request(a, opt, 1, 53));
  const auto r1 = f1.get();
  const auto r2 = f2.get();
  const auto r3 = f3.get();

  EXPECT_EQ(r1.status, ServeStatus::Ok);
  ASSERT_EQ(r2.status, ServeStatus::Degraded);
  EXPECT_NE(r2.detail.find("setup failed"), std::string::npos);
  EXPECT_EQ(r3.status, ServeStatus::Ok) << "queue must drain past the fault";

  // The degraded answer is still an answer: residual-checked fallback.
  const auto b = random_rhs(a->rows, 52);
  std::vector<value_t> x_ref;
  ASSERT_TRUE(testing::dense_solve(testing::to_dense(*a), b, x_ref));
  for (index_t i = 0; i < a->rows; ++i) {
    EXPECT_NEAR(r2.x[i], x_ref[i], 1e-5);
  }
}

/// Occupy the service's single worker slot long enough to observe queue
/// behaviour behind it: returns once the blocker batch is dispatched.
std::future<serve::SolveResponse> dispatch_blocker(
    SolveService& service, const std::shared_ptr<const CsrMatrix>& big,
    const SolverOptions& opt) {
  auto fut = service.submit(make_request(big, opt, 1, 61));
  while (service.stats().batches < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return fut;
}

TEST(ServeService, BackpressureRejectsWhenQueueFull) {
  auto big = std::make_shared<const CsrMatrix>(testing::grid_laplacian(40, 40));
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(10, 10));
  const SolverOptions opt = small_options();
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  SolveService service(cfg);

  auto blocker = dispatch_blocker(service, big, opt);
  auto f1 = service.submit(make_request(a, opt, 1, 62));  // queued
  auto f2 = service.submit(make_request(a, opt, 1, 63));  // queued
  auto f3 = service.submit(make_request(a, opt, 1, 64));  // queue full
  const auto r3 = f3.get();
  EXPECT_EQ(r3.status, ServeStatus::Rejected);
  EXPECT_NE(r3.detail.find("queue full"), std::string::npos);

  EXPECT_EQ(blocker.get().status, ServeStatus::Ok);
  EXPECT_EQ(f1.get().status, ServeStatus::Ok);
  EXPECT_EQ(f2.get().status, ServeStatus::Ok);
  EXPECT_GE(service.stats().rejected, 1);
}

TEST(ServeService, RejectsAfterStop) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(10, 10));
  const SolverOptions opt = small_options();
  SolveService service(serve::ServiceConfig{});
  service.stop();
  const auto r = service.solve(make_request(a, opt, 1, 65));
  EXPECT_EQ(r.status, ServeStatus::Rejected);
}

TEST(ServeService, QueueDeadlineYieldsTimeout) {
  auto big = std::make_shared<const CsrMatrix>(testing::grid_laplacian(40, 40));
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(10, 10));
  const SolverOptions opt = small_options();
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  SolveService service(cfg);

  auto blocker = dispatch_blocker(service, big, opt);
  auto req = make_request(a, opt, 1, 66);
  req.timeout_seconds = 1e-6;  // expires while the blocker holds the slot
  auto f = service.submit(std::move(req));
  const auto r = f.get();
  EXPECT_EQ(r.status, ServeStatus::Timeout);
  EXPECT_GT(r.queue_seconds, 0.0);
  EXPECT_EQ(blocker.get().status, ServeStatus::Ok);
}

TEST(ServeService, CoalescesSameKeyRequestsIntoOneBatch) {
  auto big = std::make_shared<const CsrMatrix>(testing::grid_laplacian(40, 40));
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(12, 12));
  const SolverOptions opt = small_options();
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  SolveService service(cfg);

  auto blocker = dispatch_blocker(service, big, opt);
  std::vector<std::future<serve::SolveResponse>> fs;
  for (int i = 0; i < 4; ++i) {
    fs.push_back(service.submit(make_request(a, opt, 1, 70 + i)));
  }
  ASSERT_EQ(blocker.get().status, ServeStatus::Ok);
  for (auto& f : fs) {
    const auto r = f.get();
    EXPECT_EQ(r.status, ServeStatus::Ok);
    EXPECT_EQ(r.batch_width, 4)
        << "four same-key requests queued behind a busy worker must leave "
           "as one coalesced multi-RHS batch";
  }
  const auto st = service.stats();
  EXPECT_EQ(st.batches, 2);  // blocker + the coalesced four
}

TEST(ServeService, BatchedAnswersMatchIndividualSolves) {
  auto big = std::make_shared<const CsrMatrix>(testing::grid_laplacian(40, 40));
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(12, 12));
  const SolverOptions opt = small_options();

  // Reference: each request solved alone, batching off.
  std::vector<std::vector<value_t>> ref;
  {
    serve::ServiceConfig cfg;
    cfg.enable_batching = false;
    SolveService service(cfg);
    for (int i = 0; i < 3; ++i) {
      auto r = service.solve(make_request(a, opt, 1, 80 + i));
      ASSERT_EQ(r.status, ServeStatus::Ok);
      ref.push_back(std::move(r.x));
    }
  }

  // Same requests coalesced into one batch behind a blocker.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  SolveService service(cfg);
  auto blocker = dispatch_blocker(service, big, opt);
  std::vector<std::future<serve::SolveResponse>> fs;
  for (int i = 0; i < 3; ++i) {
    fs.push_back(service.submit(make_request(a, opt, 1, 80 + i)));
  }
  (void)blocker.get();
  for (int i = 0; i < 3; ++i) {
    const auto r = fs[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, ServeStatus::Ok);
    ASSERT_EQ(r.x.size(), ref[static_cast<std::size_t>(i)].size());
    EXPECT_EQ(0, std::memcmp(r.x.data(), ref[static_cast<std::size_t>(i)].data(),
                             r.x.size() * sizeof(value_t)))
        << "batched answer differs from the individually-solved answer";
  }
}

TEST(ServeService, CacheHitRunsTheRequestsOwnGmresOptions) {
  // GMRES options are not part of the cache key, so a setup built for one
  // request serves others whose GMRES options differ; each must still be
  // solved under its own.
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(20, 20));
  SolverOptions opt = small_options();
  opt.assembly.drop_s = 1e-2;  // inexact S̃: GMRES needs several iterations
  SolverOptions capped = opt;
  capped.gmres.max_iterations = 2;
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.enable_batching = false;
  {
    SolveService service(cfg);
    const auto cold = service.solve(make_request(a, capped, 1, 51));
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_NE(cold.status, ServeStatus::Ok);
    const auto hit = service.solve(make_request(a, opt, 1, 52));
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.status, ServeStatus::Ok) << hit.detail;
    ASSERT_EQ(hit.columns.size(), 1u);
    EXPECT_GT(hit.columns[0].iterations, 2);
  }
  {
    SolveService service(cfg);
    const auto cold = service.solve(make_request(a, opt, 1, 51));
    EXPECT_EQ(cold.status, ServeStatus::Ok) << cold.detail;
    const auto hit = service.solve(make_request(a, capped, 1, 52));
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.status, ServeStatus::Failed) << hit.detail;
    ASSERT_EQ(hit.columns.size(), 1u);
    EXPECT_LE(hit.columns[0].iterations, 2);
  }
}

TEST(ServeService, BatchesOnlyRequestsWithEqualSolveOptions) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(8, 8));
  const SolverOptions opt = small_options();
  SolverOptions looser = opt;
  looser.gmres.rel_tolerance = 1e-6;
  std::deque<serve::PendingRequest> queue;
  for (const SolverOptions& o : {opt, looser, opt}) {
    serve::PendingRequest pr;
    pr.req = make_request(a, o, 1, 60);
    pr.key = SetupKey{serve::fingerprint_of(*a), serve::setup_options_hash(o)};
    queue.push_back(std::move(pr));
  }
  ASSERT_EQ(queue[0].key, queue[1].key) << "GMRES options must share a setup";

  const serve::Batch batch = serve::take_batch(queue, serve::BatcherConfig{});
  ASSERT_EQ(batch.requests.size(), 2u);
  EXPECT_EQ(batch.requests[1].req.opt.gmres.rel_tolerance,
            opt.gmres.rel_tolerance);
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.front().req.opt.gmres.rel_tolerance, 1e-6);
}

TEST(ServeService, StopDrainsQueuedDeterministically) {
  // The drain contract (the destructor relies on it to answer every
  // accepted request):
  // stop() rejects new submits, finishes everything already accepted, and
  // returns only once every accepted request has been answered — from any
  // number of racing callers.
  auto big = std::make_shared<const CsrMatrix>(testing::grid_laplacian(40, 40));
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(12, 12));
  const SolverOptions opt = small_options();
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  SolveService service(cfg);

  // Occupy the single worker slot, then park three requests in the queue.
  auto blocker = dispatch_blocker(service, big, opt);
  std::vector<std::future<serve::SolveResponse>> queued;
  for (int i = 0; i < 3; ++i) {
    queued.push_back(service.submit(make_request(a, opt, 1, 70 + i)));
  }

  // Several threads race stop(); one drains, the rest block until done.
  std::vector<std::thread> stoppers;
  for (int t = 0; t < 3; ++t) stoppers.emplace_back([&] { service.stop(); });
  for (auto& th : stoppers) th.join();

  // Everything accepted before stop() is already answered — no waiting.
  ASSERT_EQ(blocker.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(blocker.get().status, ServeStatus::Ok);
  for (auto& f : queued) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "stop() returned before a queued request was answered";
    EXPECT_EQ(f.get().status, ServeStatus::Ok)
        << "queued request must be finished, not dropped";
  }
  EXPECT_GE(service.stats().completed, 4);

  // Submits after (or racing past) the drain are structurally Rejected.
  const auto late = service.solve(make_request(a, opt, 1, 79));
  EXPECT_EQ(late.status, ServeStatus::Rejected);
  EXPECT_EQ(service.stats().completed, 4) << "late submit must not execute";
}

}  // namespace
}  // namespace pdslin
