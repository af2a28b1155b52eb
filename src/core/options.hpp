// The declared field table of SolverOptions: one row per option with its
// RunReport config key, its command-line flag (if any) and its role in the
// solve service. The flag parser of pdslin and pdslin_serve (parse_flags),
// the serve cache key (serve::setup_options_hash, the Setup rows), batch
// compatibility (same_solve_options, the Solve rows) and the RunReport
// config (RunReport::add_solver, every row) all walk this table, so a new
// SolverOptions field gets a row here and nowhere else.
#pragma once

#include <charconv>
#include <cmath>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/schur_solver.hpp"
#include "obs/json.hpp"
#include "util/enum_names.hpp"

namespace pdslin {

/// What a row's value changes, which decides how the solve service treats it.
enum class OptionRole {
  /// Changes the bits of the setup (partition, factors, S̃): hashed into
  /// the cache key, so differing requests never share a setup.
  Setup,
  /// Applied per solve request (GMRES): requests that differ here share a
  /// cached setup but are not coalesced into one batch.
  Solve,
  /// Bitwise-equal results by contract (thread counts, the trisolve engine,
  /// the §IV-B ordering's internals): neither hashed nor batch-splitting.
  Neutral,
};

struct OptionRow {
  const char* key;   // RunReport config key
  const char* flag;  // command-line flag, nullptr = none
  OptionRole role;
  /// For a flag that takes no argument (--static-weights): the value it
  /// sets, spelled as in the report. nullptr = the flag takes a value.
  const char* switch_value = nullptr;
};

/// Calls f(row, o.member...) for every row in table order, with that
/// member of each given SolverOptions; f takes `const OptionRow&` first.
/// Setup rows are hashed in this order, so reordering them moves every
/// cache key. hg_rhs.block_size has no row: rhs_block_size overwrites it.
template <class F, class... Opt>
void visit_options(F&& f, Opt&... o) {
  static_assert(sizeof...(Opt) > 0 &&
                (std::is_same_v<std::remove_const_t<Opt>, SolverOptions> &&
                 ...));
  using enum OptionRole;
  f({"partitioning", "--method", Setup}, o.partitioning...);
  f({"num_subdomains", "-k", Setup}, o.num_subdomains...);
  f({"metric", "--metric", Setup}, o.metric...);
  f({"constraints", "--constraints", Setup}, o.constraints...);
  f({"rhb_dynamic_weights", "--static-weights", Setup, "false"},
    o.rhb_dynamic_weights...);
  f({"ngd_weighted", nullptr, Setup}, o.ngd_weighted...);
  f({"epsilon", "--epsilon", Setup}, o.partition_epsilon...);
  f({"drop_wg", "--drop-wg", Setup}, o.assembly.drop_wg...);
  f({"drop_s", "--drop-s", Setup}, o.assembly.drop_s...);
  f({"rhs_block_size", "--block-size", Setup}, o.assembly.rhs_block_size...);
  f({"rhs_ordering", "--rhs-ordering", Setup}, o.assembly.rhs_ordering...);
  f({"lu.pivot_tol", nullptr, Setup}, o.assembly.lu.pivot_tol...);
  f({"lu.min_pivot", nullptr, Setup}, o.assembly.lu.min_pivot...);
  f({"lu.kernel", "--lu-kernel", Setup}, o.assembly.lu.kernel...);
  f({"lu.panel_max_width", "--lu-panel-width", Setup},
    o.assembly.lu.panel_max_width...);
  f({"lu.panel_relax", "--lu-panel-relax", Setup},
    o.assembly.lu.panel_relax...);
  f({"partition_engine", "--partition-engine", Setup}, o.partition_engine...);
  f({"partition_budget_ms", "--partition-budget-ms", Setup},
    o.partition_budget_ms...);
  f({"partition_min_quality", "--partition-min-quality", Setup},
    o.partition_min_quality...);
  f({"partition_values", "--partition-values", Setup}, o.partition_values...);
  f({"seed", "--seed", Setup}, o.seed...);

  f({"gmres.restart", nullptr, Solve}, o.gmres.restart...);
  f({"gmres.max_iterations", nullptr, Solve}, o.gmres.max_iterations...);
  f({"gmres.rel_tolerance", nullptr, Solve}, o.gmres.rel_tolerance...);

  f({"threads", "--threads", Neutral}, o.threads...);
  f({"inner_threads", "--inner-threads", Neutral}, o.assembly.inner_threads...);
  f({"lu.threads", nullptr, Neutral}, o.assembly.lu.threads...);
  f({"trisolve", "--trisolve", Neutral}, o.assembly.trisolve.scheduler...);
  f({"trisolve.threads", "--trisolve-threads", Neutral},
    o.assembly.trisolve.threads...);
  f({"hg_rhs.quasi_dense_tau", nullptr, Neutral},
    o.assembly.hg_rhs.quasi_dense_tau...);
  f({"hg_rhs.seed", nullptr, Neutral}, o.assembly.hg_rhs.seed...);
  f({"hg_rhs.coarsen_to", nullptr, Neutral}, o.assembly.hg_rhs.coarsen_to...);
  f({"hg_rhs.refine_passes", nullptr, Neutral},
    o.assembly.hg_rhs.refine_passes...);
  f({"hg_rhs.initial_tries", nullptr, Neutral},
    o.assembly.hg_rhs.initial_tries...);
}

/// A malformed command line. The tools print it and exit 2, unlike
/// pdslin::Error (bad input data, exit 1).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The report rendering of one value: enum names, true|false, the JSON
/// number rendering for doubles (exact round trip), decimal integers.
template <class T>
std::string format_option_value(const T& v) {
  if constexpr (std::is_enum_v<T>) {
    return to_string(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    return obs::json::number_to_string(v);
  } else {
    return std::to_string(v);
  }
}

/// Parse `text`, the value given for `flag`, into `out`: one of the enum's
/// names, true|false, a finite number, or a non-negative integer that fits
/// T. Anything else, trailing characters included, throws UsageError
/// naming the flag. The tools parse their own numeric flags with it too.
template <class T>
void parse_flag_value(std::string_view flag, std::string_view text, T& out) {
  auto bad = [&](const std::string& expected) {
    return UsageError("bad value '" + std::string(text) + "' for " +
                      std::string(flag) + " (expected " + expected + ")");
  };
  if constexpr (std::is_enum_v<T>) {
    if (enum_from_string(text, out)) return;
    std::string names;
    for (const EnumName<T>& n : enum_names(T{})) {
      names += (names.empty() ? "" : "|") + std::string(n.name);
    }
    throw bad(names);
  } else if constexpr (std::is_same_v<T, bool>) {
    if (text != "true" && text != "false") throw bad("true|false");
    out = text == "true";
  } else {
    T v{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    bool ok = ec == std::errc{} && ptr == end;
    if constexpr (std::is_floating_point_v<T>) {
      if (!ok || !std::isfinite(v)) throw bad("a number");
    } else {
      if constexpr (std::is_signed_v<T>) ok = ok && v >= 0;
      if (!ok) throw bad("a non-negative integer");
    }
    out = v;
  }
}

/// Handles a flag the table does not own: returns false when it does not
/// know `flag` either, and calls `value()` to take the flag's argument.
using ToolFlagHandler = std::function<bool(
    const std::string& flag, const std::function<std::string()>& value)>;

/// Parse the command-line arguments `args` (argv without the program name)
/// into `opt`. Table flags go through the table; when `table_flags` is
/// non-empty, only the flags it lists do. Every other argument goes to
/// `tool_flag`. Without an explicit --trisolve-threads (where that flag is
/// accepted) the level-set solve gets one worker per inner thread. Throws
/// UsageError on an unknown flag, a missing value or a malformed one.
void parse_flags(std::span<const std::string> args, SolverOptions& opt,
                 const ToolFlagHandler& tool_flag,
                 std::span<const std::string_view> table_flags = {});

/// Defaults shared by pdslin, pdslin_serve and the bench drivers, looser
/// than the library's: the paper runs with thresholding enabled
/// (drop_wg 1e-6, drop_s 1e-5) and balance tolerance ε = 0.05.
SolverOptions tool_default_options();

/// True when every Solve row agrees, so one solve_multi call can answer
/// requests with either options.
bool same_solve_options(const SolverOptions& a, const SolverOptions& b);

}  // namespace pdslin
