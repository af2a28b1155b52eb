// Registry of the seven Table-I test matrices (synthetic analogues — see
// DESIGN.md §3 for the substitution rationale). Every benchmark driver pulls
// workloads from here by the paper's matrix names.
#pragma once

#include <string>
#include <vector>

#include "gen/problem.hpp"

namespace pdslin {

/// Names in the order of Table I: tdr190k, tdr455k, dds.quad, dds.linear,
/// matrix211, ASIC_680ks, G3_circuit.
std::vector<std::string> suite_names();

/// Generate a suite matrix by Table-I name. `scale` grows/shrinks the
/// problem (1.0 = laptop-default sizes, n ≈ 10k–45k).
GeneratedProblem make_suite_matrix(const std::string& name, double scale = 1.0,
                                   std::uint64_t seed = 20130520);

/// Resolve a tool's `--matrix` argument: a suite name is generated at
/// `scale`/`seed`, anything else is read as a Matrix Market file. Throws
/// pdslin::Error ("cannot open <path>", plus the suite names, since a
/// mistyped suite name lands here) when it is neither.
GeneratedProblem load_problem(const std::string& name_or_path, double scale,
                              std::uint64_t seed);

}  // namespace pdslin
