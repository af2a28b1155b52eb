// Tests for the declared SolverOptions table (core/options.hpp): the enum
// name tables, the role of every row (hashed / batch-splitting / bitwise
// neutral), the RunReport config generated from it, and the shared flag
// parser of pdslin and pdslin_serve.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/options.hpp"
#include "core/stats.hpp"
#include "obs/report.hpp"
#include "serve/fingerprint.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

/// A different valid value for one row: the next enum name, the other
/// bool, the next integer, half the double (or 0.5 for 0).
template <class T>
T changed(const T& v) {
  if constexpr (std::is_enum_v<T>) {
    const auto names = enum_names(v);
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i].value == v) return names[(i + 1) % names.size()].value;
    }
    return names[0].value;
  } else if constexpr (std::is_same_v<T, bool>) {
    return !v;
  } else if constexpr (std::is_floating_point_v<T>) {
    return v == 0.0 ? 0.5 : v * 0.5;
  } else {
    return static_cast<T>(v + 1);
  }
}

/// Copy of `base` with only the row named `key` changed.
SolverOptions with_row_changed(const SolverOptions& base,
                               const std::string& key) {
  SolverOptions out = base;
  visit_options(
      [&](const OptionRow& row, auto& v) {
        if (key == row.key) v = changed(v);
      },
      out);
  return out;
}

/// Copy of `base` with every flagged row changed.
SolverOptions with_flagged_rows_changed(const SolverOptions& base) {
  SolverOptions out = base;
  visit_options(
      [&](const OptionRow& row, auto& v) {
        if (row.flag != nullptr) v = changed(v);
      },
      out);
  return out;
}

std::vector<OptionRow> rows() {
  std::vector<OptionRow> out;
  const SolverOptions opt;
  visit_options([&](const OptionRow& row, const auto&) { out.push_back(row); },
                opt);
  return out;
}

/// The setup hash as it was written out field by field before the table
/// existed: an independent oracle for "exactly these fields are hashed".
std::uint64_t listed_setup_hash(const SolverOptions& opt) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  auto u64 = [&](std::uint64_t v) { h = serve::hash_bytes(&v, sizeof v, h); };
  auto dbl = [&](double v) { h = serve::hash_bytes(&v, sizeof v, h); };
  u64(static_cast<std::uint64_t>(opt.partitioning));
  u64(static_cast<std::uint64_t>(opt.num_subdomains));
  u64(static_cast<std::uint64_t>(opt.metric));
  u64(static_cast<std::uint64_t>(opt.constraints));
  u64(opt.rhb_dynamic_weights ? 1 : 0);
  u64(opt.ngd_weighted ? 1 : 0);
  dbl(opt.partition_epsilon);
  dbl(opt.assembly.drop_wg);
  dbl(opt.assembly.drop_s);
  u64(static_cast<std::uint64_t>(opt.assembly.rhs_block_size));
  u64(static_cast<std::uint64_t>(opt.assembly.rhs_ordering));
  dbl(opt.assembly.lu.pivot_tol);
  dbl(opt.assembly.lu.min_pivot);
  u64(static_cast<std::uint64_t>(opt.assembly.lu.kernel));
  u64(static_cast<std::uint64_t>(opt.assembly.lu.panel_max_width));
  dbl(opt.assembly.lu.panel_relax);
  u64(static_cast<std::uint64_t>(opt.partition_engine));
  dbl(opt.partition_budget_ms);
  dbl(opt.partition_min_quality);
  u64(static_cast<std::uint64_t>(opt.partition_values));
  u64(opt.seed);
  return h;
}

/// Equal on every flagged row.
bool flagged_rows_equal(const SolverOptions& a, const SolverOptions& b) {
  bool equal = true;
  visit_options(
      [&](const OptionRow& row, const auto& x, const auto& y) {
        if (row.flag != nullptr && !(x == y)) {
          ADD_FAILURE() << row.key << " differs";
          equal = false;
        }
      },
      a, b);
  return equal;
}

SolverOptions parse(const std::vector<std::string>& args,
                    SolverOptions opt = tool_default_options()) {
  parse_flags(args, opt, nullptr);
  return opt;
}

std::string parse_error(const std::vector<std::string>& args) {
  try {
    (void)parse(args);
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

template <class E>
void expect_names_round_trip() {
  for (const EnumName<E>& n : enum_names(E{})) {
    E parsed{};
    ASSERT_TRUE(enum_from_string(n.name, parsed)) << n.name;
    EXPECT_EQ(parsed, n.value);
    EXPECT_STREQ(to_string(n.value), n.name);
  }
  E untouched = enum_names(E{})[0].value;
  EXPECT_FALSE(enum_from_string("no-such-name", untouched));
  EXPECT_EQ(untouched, enum_names(E{})[0].value);
}

TEST(Options, EnumNameTablesRoundTrip) {
  expect_names_round_trip<PartitionMethod>();
  expect_names_round_trip<CutMetric>();
  expect_names_round_trip<RhbConstraintMode>();
  expect_names_round_trip<RhsOrdering>();
  expect_names_round_trip<partition::Engine>();
  expect_names_round_trip<partition::ValueMode>();
  expect_names_round_trip<LuKernel>();
  expect_names_round_trip<TrisolveScheduler>();
  EXPECT_STREQ(partition::to_string(partition::Engine::Multilevel),
               "multilevel");
  EXPECT_STREQ(partition::to_string(partition::ValueMode::LogAbs), "logabs");
}

TEST(Options, RowsHaveUniqueKeysAndFlags) {
  std::set<std::string> keys, flags;
  int setup = 0, solve = 0, neutral = 0;
  for (const OptionRow& row : rows()) {
    EXPECT_TRUE(keys.insert(row.key).second) << row.key;
    if (row.flag != nullptr) {
      EXPECT_TRUE(flags.insert(row.flag).second) << row.flag;
    }
    setup += row.role == OptionRole::Setup;
    solve += row.role == OptionRole::Solve;
    neutral += row.role == OptionRole::Neutral;
  }
  EXPECT_EQ(setup, 21);
  EXPECT_EQ(solve, 3);
  EXPECT_EQ(neutral, 10);
  EXPECT_EQ(flags.size(), 22u);
}

TEST(Options, SetupHashCoversExactlyTheListedFields) {
  const SolverOptions defaults;
  EXPECT_EQ(serve::setup_options_hash(defaults), listed_setup_hash(defaults));
  EXPECT_EQ(serve::setup_options_hash(tool_default_options()),
            listed_setup_hash(tool_default_options()));
  for (const OptionRow& row : rows()) {
    const SolverOptions opt = with_row_changed(defaults, row.key);
    EXPECT_EQ(serve::setup_options_hash(opt), listed_setup_hash(opt))
        << row.key;
  }
}

TEST(Options, RolesMatchHashBatchingAndBitwiseContract) {
  // Hypergraph RHS ordering with small blocks, so the hg_rhs rows steer a
  // real §IV-B partition of the right-hand sides.
  SolverOptions base = tool_default_options();
  base.num_subdomains = 4;
  base.assembly.rhs_ordering = RhsOrdering::Hypergraph;
  base.assembly.rhs_block_size = 4;
  const CsrMatrix a = testing::grid_laplacian(24, 24);
  Rng rng(5);
  std::vector<value_t> b(a.rows);
  for (value_t& v : b) v = rng.uniform(-1.0, 1.0);

  auto run = [&](const SolverOptions& opt, CsrMatrix& s_tilde,
                 std::vector<value_t>& x) {
    SchurSolver solver(a, opt);
    solver.setup();
    solver.factor();
    s_tilde = solver.schur_tilde();
    x.assign(b.size(), 0.0);
    ASSERT_TRUE(solver.solve(b, x).converged);
  };
  CsrMatrix s_base;
  std::vector<value_t> x_base;
  run(base, s_base, x_base);

  const std::uint64_t h0 = serve::setup_options_hash(base);
  for (const OptionRow& row : rows()) {
    const SolverOptions opt = with_row_changed(base, row.key);
    const std::uint64_t h = serve::setup_options_hash(opt);
    if (row.role == OptionRole::Setup) {
      EXPECT_NE(h, h0) << row.key << " is Setup but does not split the cache";
      EXPECT_TRUE(same_solve_options(opt, base)) << row.key;
      continue;
    }
    EXPECT_EQ(h, h0) << row.key << " must not split the cache";
    if (row.role == OptionRole::Solve) {
      EXPECT_FALSE(same_solve_options(opt, base))
          << row.key << " is Solve but does not split batches";
      continue;
    }
    EXPECT_TRUE(same_solve_options(opt, base)) << row.key;
    CsrMatrix s;
    std::vector<value_t> x;
    run(opt, s, x);
    EXPECT_EQ(s.row_ptr, s_base.row_ptr) << row.key;
    EXPECT_EQ(s.col_idx, s_base.col_idx) << row.key;
    ASSERT_EQ(s.values.size(), s_base.values.size()) << row.key;
    EXPECT_EQ(0, std::memcmp(s.values.data(), s_base.values.data(),
                             s.values.size() * sizeof(value_t)))
        << row.key << " is Neutral but changes S~";
    EXPECT_EQ(0,
              std::memcmp(x.data(), x_base.data(), x.size() * sizeof(value_t)))
        << row.key << " is Neutral but changes x";
  }
}

TEST(Options, ReportConfigHasOneKeyPerRowAndParsesBack) {
  const SolverOptions defaults = tool_default_options();
  for (const SolverOptions& opt :
       {defaults, with_flagged_rows_changed(defaults)}) {
    obs::RunReport report;
    report.add_solver(opt, SolverStats{});
    EXPECT_EQ(report.config.size(), rows().size());

    // Report config → command line → options.
    std::vector<std::string> args;
    for (const OptionRow& row : rows()) {
      const std::string* value = report.find_config(row.key);
      ASSERT_NE(value, nullptr) << row.key;
      if (row.flag == nullptr) continue;
      if (row.switch_value == nullptr) {
        args.insert(args.end(), {row.flag, *value});
      } else if (*value == row.switch_value) {
        args.emplace_back(row.flag);
      }
    }
    EXPECT_TRUE(flagged_rows_equal(parse(args), opt));
  }
}

TEST(Options, ReportKeepsTheEarlierRenderings) {
  SolverOptions opt = tool_default_options();
  opt.partitioning = PartitionMethod::NGD;
  opt.metric = CutMetric::CutNet;
  opt.partition_values = partition::ValueMode::Abs;
  obs::RunReport report;
  report.add_solver(opt, SolverStats{});
  const std::pair<const char*, const char*> expected[] = {
      {"partitioning", "NGD"},      {"num_subdomains", "8"},
      {"metric", "cnet"},           {"rhs_ordering", "postorder"},
      {"threads", "1"},             {"inner_threads", "1"},
      {"drop_wg", "9.9999999999999995e-07"},
      {"drop_s", "1.0000000000000001e-05"},
      {"epsilon", "0.050000000000000003"},
      {"partition_engine", "auto"}, {"partition_budget_ms", "0"},
      {"partition_values", "abs"},  {"seed", "1"},
      {"constraints", "1"},         {"rhb_dynamic_weights", "true"},
      {"lu.kernel", "panel"},       {"trisolve", "serial"},
      {"gmres.max_iterations", "1000"},
  };
  for (const auto& [key, value] : expected) {
    const std::string* got = report.find_config(key);
    ASSERT_NE(got, nullptr) << key;
    EXPECT_EQ(*got, value) << key;
  }
}

TEST(ParseFlags, EveryFlagSpellingSetsItsField) {
  const SolverOptions opt = parse(
      {"--method", "NGD", "--metric", "con1", "--constraints", "2",
       "--static-weights", "-k", "4", "--epsilon", "0.1",
       "--partition-engine", "geometric", "--partition-budget-ms", "-1",
       "--partition-min-quality", "0.5", "--partition-values", "logabs",
       "--rhs-ordering", "hypergraph", "--block-size", "16", "--drop-wg",
       "1e-4", "--drop-s", "1e-3", "--lu-kernel", "scalar", "--lu-panel-width",
       "0", "--lu-panel-relax", "0.5", "--threads", "2", "--inner-threads",
       "3", "--trisolve", "levelset", "--trisolve-threads", "5", "--seed",
       "18446744073709551615"});
  EXPECT_EQ(opt.partitioning, PartitionMethod::NGD);
  EXPECT_EQ(opt.metric, CutMetric::Con1);
  EXPECT_EQ(opt.constraints, RhbConstraintMode::MultiW1W2);
  EXPECT_FALSE(opt.rhb_dynamic_weights);
  EXPECT_EQ(opt.num_subdomains, 4);
  EXPECT_EQ(opt.partition_epsilon, 0.1);
  EXPECT_EQ(opt.partition_engine, partition::Engine::Geometric);
  EXPECT_EQ(opt.partition_budget_ms, -1.0);
  EXPECT_EQ(opt.partition_min_quality, 0.5);
  EXPECT_EQ(opt.partition_values, partition::ValueMode::LogAbs);
  EXPECT_EQ(opt.assembly.rhs_ordering, RhsOrdering::Hypergraph);
  EXPECT_EQ(opt.assembly.rhs_block_size, 16);
  EXPECT_EQ(opt.assembly.drop_wg, 1e-4);
  EXPECT_EQ(opt.assembly.drop_s, 1e-3);
  EXPECT_EQ(opt.assembly.lu.kernel, LuKernel::Scalar);
  EXPECT_EQ(opt.assembly.lu.panel_max_width, 0);
  EXPECT_EQ(opt.assembly.lu.panel_relax, 0.5);
  EXPECT_EQ(opt.threads, 2u);
  EXPECT_EQ(opt.assembly.inner_threads, 3u);
  EXPECT_EQ(opt.assembly.trisolve.scheduler, TrisolveScheduler::LevelSet);
  EXPECT_EQ(opt.assembly.trisolve.threads, 5u);
  EXPECT_EQ(opt.seed, 18446744073709551615ULL);

  // The remaining spellings of the enum flags.
  EXPECT_EQ(parse({"--method", "RHB"}).partitioning, PartitionMethod::RHB);
  EXPECT_EQ(parse({"--metric", "cnet"}).metric, CutMetric::CutNet);
  EXPECT_EQ(parse({"--metric", "soed"}).metric, CutMetric::Soed);
  EXPECT_EQ(parse({"--constraints", "1"}).constraints,
            RhbConstraintMode::SingleW1);
  EXPECT_EQ(parse({"--rhs-ordering", "natural"}).assembly.rhs_ordering,
            RhsOrdering::Natural);
  EXPECT_EQ(parse({"--lu-kernel", "panel"}).assembly.lu.kernel,
            LuKernel::Panel);
  EXPECT_EQ(parse({"--partition-values", "off"}).partition_values,
            partition::ValueMode::Off);
}

TEST(ParseFlags, ToolDefaultsAndTrisolveThreadsFollowInnerThreads) {
  const SolverOptions none = parse({});
  EXPECT_EQ(none.assembly.drop_wg, 1e-6);
  EXPECT_EQ(none.assembly.drop_s, 1e-5);
  EXPECT_EQ(none.partition_epsilon, 0.05);
  EXPECT_EQ(none.num_subdomains, 8);
  EXPECT_EQ(none.assembly.trisolve.threads, 1u);
  EXPECT_EQ(parse({"--inner-threads", "3"}).assembly.trisolve.threads, 3u);
  EXPECT_EQ(parse({"--inner-threads", "3", "--trisolve-threads", "2"})
                .assembly.trisolve.threads,
            2u);
}

TEST(ParseFlags, RejectsMalformedValuesNamingTheFlag) {
  const std::pair<std::vector<std::string>, const char*> cases[] = {
      {{"--drop-s", "abc"}, "--drop-s"},
      {{"--epsilon", "0.05x"}, "--epsilon"},
      {{"--epsilon", "nan"}, "--epsilon"},
      {{"--drop-wg", "inf"}, "--drop-wg"},
      {{"--constraints", "7"}, "--constraints (expected 1|2)"},
      {{"--method", "rhb"}, "--method"},
      {{"--trisolve", "level"}, "--trisolve"},
      {{"--threads", "-2"}, "--threads"},
      {{"--inner-threads", "-1"}, "--inner-threads"},
      {{"--trisolve-threads", "-3"}, "--trisolve-threads"},
      {{"-k", "-4"}, "-k"},
      {{"--block-size", "-60"}, "--block-size"},
      {{"--seed", "-1"}, "--seed"},
      {{"--threads", "1.5"}, "--threads"},
      {{"--threads", " 2"}, "--threads"},
      {{"--threads", "99999999999"}, "--threads"},
      {{"--drop-s"}, "missing value for --drop-s"},
      {{"--no-such-flag"}, "unknown option --no-such-flag"},
  };
  for (const auto& [args, expect] : cases) {
    const std::string what = parse_error(args);
    EXPECT_NE(what.find(expect), std::string::npos)
        << args.front() << " -> '" << what << "'";
  }
}

TEST(ParseFlags, ToolFlagsAndARestrictedTable) {
  // pdslin_serve's shape: only the thread rows of the table, the rest of
  // the command line is the tool's.
  static constexpr std::string_view kThreadFlags[] = {"--threads",
                                                      "--inner-threads"};
  std::string workload;
  auto tool = [&](const std::string& flag,
                  const std::function<std::string()>& value) {
    if (flag != "--workload") return false;
    workload = value();
    return true;
  };
  SolverOptions opt = tool_default_options();
  parse_flags(std::vector<std::string>{"--workload", "w.json", "--threads",
                                       "2", "--inner-threads", "4"},
              opt, tool, kThreadFlags);
  EXPECT_EQ(workload, "w.json");
  EXPECT_EQ(opt.threads, 2u);
  EXPECT_EQ(opt.assembly.inner_threads, 4u);
  EXPECT_EQ(opt.assembly.trisolve.threads, 1u)
      << "--trisolve-threads is not accepted here, so nothing follows";

  SolverOptions untouched = tool_default_options();
  EXPECT_THROW(parse_flags(std::vector<std::string>{"--drop-s", "1e-3"},
                           untouched, tool, kThreadFlags),
               UsageError);
  EXPECT_EQ(untouched.assembly.drop_s, 1e-5);
}

TEST(ErrorMessage, CheckMessageIsWhatAndLocationIsKept) {
  try {
    PDSLIN_CHECK_MSG(1 + 1 == 3, "cannot open no_such.mtx");
    FAIL() << "check did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "cannot open no_such.mtx");
    EXPECT_EQ(e.expression(), "1 + 1 == 3");
    EXPECT_NE(e.location().find("test_options.cpp:"), std::string::npos)
        << e.location();
  }
  try {
    PDSLIN_CHECK(2 < 1);
    FAIL() << "check did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pdslin check failed: 2 < 1 at "), std::string::npos)
        << what;
  }
  EXPECT_TRUE(Error("plain").location().empty());
}

}  // namespace
}  // namespace pdslin
