#include "serve/fingerprint.hpp"

#include <cstdio>
#include <type_traits>

#include "core/options.hpp"

namespace pdslin::serve {

std::uint64_t hash_bytes(const void* data, std::size_t len,
                         std::uint64_t seed) {
  // FNV-1a, 64-bit. Not cryptographic; collision handling in the cache is
  // "wrong setup reused", so the tests pin distinctness for the perturbation
  // classes the service actually sees (value edits, pattern edits).
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

std::uint64_t hash_u64(std::uint64_t v, std::uint64_t h) {
  return hash_bytes(&v, sizeof(v), h);
}

std::uint64_t hash_double(double v, std::uint64_t h) {
  return hash_bytes(&v, sizeof(v), h);
}

}  // namespace

Fingerprint fingerprint_of(const CsrMatrix& a) {
  Fingerprint fp;
  // Dimensions first so an empty n×m pattern differs from an empty p×q one.
  std::uint64_t h = hash_u64(static_cast<std::uint64_t>(a.rows),
                             0x9e3779b97f4a7c15ULL);
  h = hash_u64(static_cast<std::uint64_t>(a.cols), h);
  h = hash_bytes(a.row_ptr.data(), a.row_ptr.size() * sizeof(index_t), h);
  h = hash_bytes(a.col_idx.data(), a.col_idx.size() * sizeof(index_t), h);
  fp.structure = h;
  fp.values = a.has_values()
                  ? hash_bytes(a.values.data(),
                               a.values.size() * sizeof(value_t))
                  : 0;
  return fp;
}

std::uint64_t setup_options_hash(const pdslin::SolverOptions& opt) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  visit_options(
      [&](const OptionRow& row, const auto& v) {
        if (row.role != OptionRole::Setup) return;
        if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>) {
          h = hash_double(v, h);
        } else {
          h = hash_u64(static_cast<std::uint64_t>(v), h);
        }
      },
      opt);
  return h;
}

std::string Fingerprint::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint64_t half : {structure, values}) {
    for (int i = 0; i < 8; ++i) {
      const unsigned byte = static_cast<unsigned>(half >> (8 * i)) & 0xFFu;
      out.push_back(digits[byte >> 4]);
      out.push_back(digits[byte & 0xFu]);
    }
  }
  return out;
}

std::string Fingerprint::to_string() const {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx:%016llx",
                static_cast<unsigned long long>(structure),
                static_cast<unsigned long long>(values));
  return buf;
}

std::string SetupKey::to_string() const {
  char buf[56];
  std::snprintf(buf, sizeof(buf), "%s@%016llx", fp.to_string().c_str(),
                static_cast<unsigned long long>(options));
  return buf;
}

}  // namespace pdslin::serve
