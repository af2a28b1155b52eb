// Span recorder owned by the benchmark: every span wraps one call into a
// pdslin layer from the benchmark's own code, so the per-layer numbers do not
// depend on (or perturb) the library's internal tracer. Spans carry an
// explicit parent and the right-hand-side id they belong to, and are exported
// as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 = root
  std::string name;
  int rhs = -1;    // right-hand-side id, -1 outside the solve layer
  int index = -1;  // subdomain ℓ where the span covers one subdomain
  unsigned tid = 0;
  double start_s = 0.0;  // seconds since the recorder was created
  double end_s = 0.0;
  [[nodiscard]] double seconds() const { return end_s - start_s; }
};

/// Thread-safe: spans of the subdomain fan-out close on pool workers.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  std::int64_t next_id();
  void record(SpanRecord rec);

  /// Snapshot ordered by span id (open order).
  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  std::int64_t next_id_ = 0;       // guarded by mutex_
};

/// RAII span: opens on construction, records on close() or destruction.
class Span {
 public:
  Span(SpanRecorder& rec, const char* name, std::int64_t parent, int rhs = -1,
       int index = -1);
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::int64_t id() const { return rec_.id; }
  /// Close the span now; returns its duration in seconds. Idempotent.
  double close();

 private:
  SpanRecorder& recorder_;
  SpanRecord rec_;
  bool open_ = true;
};

/// Chrome trace-event JSON ({"traceEvents":[...]}) of the given spans, with
/// id/parent/rhs/index in each event's args. `metadata` pairs are added as a
/// top-level "metadata" object of string values.
std::string to_chrome_json(const std::vector<SpanRecord>& spans,
                           const std::map<std::string, std::string>& metadata);

/// Self time of each span: its duration minus the part of its interval that
/// the union of its children's intervals covers (children may run in
/// parallel on other threads). Indexed like `spans`.
std::vector<double> self_seconds(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
