// RunReport: one machine-readable record of a solver or bench run — config,
// phase times, SolverStats scalars, and a metrics snapshot — serialized to a
// single stable JSON schema (docs/OBSERVABILITY.md documents it). The CLI
// (--report-out), every bench driver ("BENCH {...}" lines), and the tests
// (emit → parse → compare round-trips) all speak this schema.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace pdslin {
struct SolverStats;   // core/stats.hpp
struct SolverOptions;  // core/schur_solver.hpp
}  // namespace pdslin

namespace pdslin::obs {

inline constexpr int kRunReportSchemaVersion = 1;

struct RunReport {
  int schema_version = kRunReportSchemaVersion;
  std::string tool;    // "pdslin_cli", "bench/solve_path", ...
  std::string matrix;  // suite name or file path
  long long n = 0;
  long long nnz = 0;

  /// Configuration as ordered key → string pairs (stable rendering of
  /// enums/numbers chosen by the producer).
  std::vector<std::pair<std::string, std::string>> config;
  /// Phase wall-clock seconds in pipeline order (partition, subdomains,
  /// gather, lu_schur, solve, ...).
  std::vector<std::pair<std::string, double>> phases;
  /// Scalar statistics (iterations, residuals, counters). Counter-like
  /// entries are whole numbers; JSON renders them without a fraction.
  std::vector<std::pair<std::string, double>> stats;
  /// Snapshot of the process metrics registry at report time.
  std::vector<MetricSample> metrics;

  void set_config(std::string key, std::string value);
  void set_phase(std::string name, double seconds);
  void set_stat(std::string name, double value);
  [[nodiscard]] const double* find_stat(std::string_view name) const;
  [[nodiscard]] const std::string* find_config(std::string_view key) const;

  /// Fill config/phases/stats from a finished solver run: one config key
  /// per row of the SolverOptions table (core/options.hpp). Adds to
  /// whatever is already present (call set_config first for
  /// producer-specific keys).
  void add_solver(const SolverOptions& opt, const SolverStats& stats);
  /// Capture the current metrics registry.
  void capture_metrics();

  /// Pretty (indented) JSON document.
  [[nodiscard]] std::string to_json() const;
  /// Compact single-line JSON (the bench "BENCH {...}" trajectory format).
  [[nodiscard]] std::string to_json_line() const;
  /// Parse a document produced by either serializer; throws pdslin::Error
  /// on malformed input or wrong schema version.
  static RunReport from_json(const std::string& text);

  bool operator==(const RunReport&) const = default;
};

/// to_json() to a file; returns false (and logs) on I/O error.
bool report_write_file(const RunReport& report, const std::string& path);

}  // namespace pdslin::obs
