#include "gen/suite.hpp"

#include <algorithm>
#include <fstream>

#include "gen/cavity.hpp"
#include "gen/circuit.hpp"
#include "gen/fusion.hpp"
#include "sparse/io.hpp"
#include "util/error.hpp"

namespace pdslin {

std::vector<std::string> suite_names() {
  return {"tdr190k",   "tdr455k",    "dds.quad",  "dds.linear",
          "matrix211", "ASIC_680ks", "G3_circuit"};
}

GeneratedProblem make_suite_matrix(const std::string& name, double scale,
                                   std::uint64_t seed) {
  if (name == "tdr190k") return generate_tdr(scale, seed, "tdr190k");
  if (name == "tdr455k") return generate_tdr(2.0 * scale, seed + 1, "tdr455k");
  if (name == "dds.quad") return generate_dds_quad(scale, seed + 2);
  if (name == "dds.linear") return generate_dds_linear(scale, seed + 3);
  if (name == "matrix211") return generate_fusion(scale, seed + 4);
  if (name == "ASIC_680ks") return generate_asic(scale, seed + 5);
  if (name == "G3_circuit") return generate_g3_circuit(scale, seed + 6);
  throw Error("unknown suite matrix: " + name);
}

GeneratedProblem load_problem(const std::string& name_or_path, double scale,
                              std::uint64_t seed) {
  const std::vector<std::string> names = suite_names();
  if (std::find(names.begin(), names.end(), name_or_path) != names.end()) {
    return make_suite_matrix(name_or_path, scale, seed);
  }
  std::ifstream in(name_or_path);
  if (!in.good()) {
    std::string known;
    for (const std::string& s : names) known += (known.empty() ? "" : ", ") + s;
    throw Error("cannot open " + name_or_path +
                " (not a readable file, and not a suite matrix: " + known +
                ")");
  }
  GeneratedProblem p;
  p.a = read_matrix_market(in);
  p.name = name_or_path;
  return p;
}

}  // namespace pdslin
