#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

unsigned thread_slot() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot = next.fetch_add(1);
  return slot;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

std::int64_t SpanRecorder::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanRecorder::record(SpanRecord rec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(rec));
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::vector<SpanRecord> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

Span::Span(SpanRecorder& rec, const char* name, std::int64_t parent, int rhs,
           int index)
    : recorder_(rec) {
  rec_.id = rec.next_id();
  rec_.parent = parent;
  rec_.name = name;
  rec_.rhs = rhs;
  rec_.index = index;
  rec_.tid = thread_slot();
  rec_.start_s = rec.now();
}

double Span::close() {
  if (open_) {
    open_ = false;
    rec_.end_s = recorder_.now();
    recorder_.record(rec_);
  }
  return rec_.seconds();
}

std::string to_chrome_json(const std::vector<SpanRecord>& spans,
                           const std::map<std::string, std::string>& metadata) {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":";
    append_escaped(out, s.name);
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%lld,\"parent\":%lld,\"rhs\":%d,\"index\":%d}}",
                  s.tid, s.start_s * 1e6, s.seconds() * 1e6,
                  static_cast<long long>(s.id), static_cast<long long>(s.parent),
                  s.rhs, s.index);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\",\"metadata\":{";
  first = true;
  for (const auto& [key, value] : metadata) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, key);
    out += ':';
    append_escaped(out, value);
  }
  out += "}}\n";
  return out;
}

std::vector<double> self_seconds(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::int64_t, std::size_t> pos;
  for (std::size_t i = 0; i < spans.size(); ++i) pos[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = pos.find(s.parent);
    if (it != pos.end()) children[it->second].emplace_back(s.start_s, s.end_s);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

}  // namespace perfbench
