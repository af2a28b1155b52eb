// Replayable seed artifacts: a CaseSpec (plus the violations it produced)
// serialized as a small JSON document. The fuzz driver writes one per
// minimized failure; tests/corpus/*.json commits them; the Corpus.* test and
// `pdslin_fuzz --replay` re-run them byte-for-byte. Parsing reuses the
// observability layer's JSON reader (obs/json.hpp).
#pragma once

#include <string>

#include "check/generators.hpp"
#include "check/invariants.hpp"

namespace pdslin::check {

/// Schema v1:
/// {
///   "artifact": "pdslin-fuzz-case", "version": 1,
///   "spec": { family, n, seed, density, partitioning, num_subdomains,
///             threads, inner_threads, nrhs, exact_assembly, serve,
///             lu_kernel, levelset_trisolve, partition_engine,
///             partition_values },
///   "violations": [ { checker, detail, magnitude }, … ]   // optional
/// }
std::string artifact_to_json(const CaseSpec& spec,
                             const CheckReport* report = nullptr);

/// Parse an artifact document; throws pdslin::Error on malformed input or
/// schema mismatch. Violations (if present) are ignored — replay recomputes.
CaseSpec artifact_from_json(std::string_view text);

/// Write/read artifact files (throws pdslin::Error on I/O failure).
void write_artifact(const std::string& path, const CaseSpec& spec,
                    const CheckReport* report = nullptr);
CaseSpec load_artifact(const std::string& path);

}  // namespace pdslin::check
