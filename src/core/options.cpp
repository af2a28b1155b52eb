#include "core/options.hpp"

#include <algorithm>

namespace pdslin {

void parse_flags(std::span<const std::string> args, SolverOptions& opt,
                 const ToolFlagHandler& tool_flag,
                 std::span<const std::string_view> table_flags) {
  auto accepted = [&](std::string_view flag) {
    return table_flags.empty() ||
           std::find(table_flags.begin(), table_flags.end(), flag) !=
               table_flags.end();
  };
  bool trisolve_threads_given = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) throw UsageError("missing value for " + arg);
      return args[++i];
    };
    bool owned = false;
    visit_options(
        [&](const OptionRow& row, auto& member) {
          if (row.flag == nullptr || arg != row.flag || !accepted(arg)) return;
          owned = true;
          parse_flag_value(
              arg, row.switch_value ? row.switch_value : value(), member);
        },
        opt);
    if (!owned && !(tool_flag && tool_flag(arg, value))) {
      throw UsageError("unknown option " + arg);
    }
    if (owned && arg == "--trisolve-threads") trisolve_threads_given = true;
  }
  if (accepted("--trisolve-threads") && !trisolve_threads_given) {
    opt.assembly.trisolve.threads = std::max(1u, opt.assembly.inner_threads);
  }
}

SolverOptions tool_default_options() {
  SolverOptions opt;
  opt.assembly.drop_wg = 1e-6;
  opt.assembly.drop_s = 1e-5;
  opt.partition_epsilon = 0.05;
  return opt;
}

bool same_solve_options(const SolverOptions& a, const SolverOptions& b) {
  bool same = true;
  visit_options(
      [&](const OptionRow& row, const auto& x, const auto& y) {
        if (row.role == OptionRole::Solve && !(x == y)) same = false;
      },
      a, b);
  return same;
}

}  // namespace pdslin
