#include "direct/dense_lu.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace pdslin {

namespace {

using Size = std::size_t;

/// Panel width — also the depth of every trailing GEMM update.
constexpr index_t kPanel = 64;
/// Register tile of the GEMM microkernel: kMr rows × kNr columns of C. The
/// unroll pragmas below spell out the same constants.
constexpr index_t kMr = 4;
constexpr index_t kNr = 4;

/// C −= A·B on one kMr × kNr register tile. A is a packed kMr-row sliver
/// (a[k·kMr + i]), B a packed kNr-column sliver (b[k·kNr + j]), both
/// zero-padded, so only the mr × nr corner of C is written back. Every
/// element sums its kc products in ascending k, then subtracts the sum once.
void gemm_micro(index_t kc, const value_t* __restrict a,
                const value_t* __restrict b, value_t* __restrict c, Size ldc,
                index_t mr, index_t nr) {
  value_t acc[kNr][kMr] = {};
  for (index_t k = 0; k < kc; ++k) {
    const value_t* ak = a + static_cast<Size>(k) * kMr;
    const value_t* bk = b + static_cast<Size>(k) * kNr;
#pragma GCC unroll 4
    for (index_t j = 0; j < kNr; ++j) {
#pragma GCC unroll 4
      for (index_t i = 0; i < kMr; ++i) acc[j][i] += ak[i] * bk[j];
    }
  }
  if (mr == kMr && nr == kNr) {
#pragma GCC unroll 4
    for (index_t j = 0; j < kNr; ++j) {
#pragma GCC unroll 4
      for (index_t i = 0; i < kMr; ++i) c[j * ldc + i] -= acc[j][i];
    }
  } else {
    for (index_t j = 0; j < nr; ++j) {
      for (index_t i = 0; i < mr; ++i) c[j * ldc + i] -= acc[j][i];
    }
  }
}

/// y −= a·x over len elements, in fixed chunks of four so -O2 vectorizes
/// the chunk body; each element still takes one multiply and one subtract.
void axpy_minus(value_t* __restrict y, const value_t* __restrict x, value_t a,
                index_t len) {
  index_t i = 0;
  for (; i + 4 <= len; i += 4) {
#pragma GCC unroll 4
    for (index_t l = 0; l < 4; ++l) y[i + l] -= x[i + l] * a;
  }
  for (; i < len; ++i) y[i] -= x[i] * a;
}

/// Shape of one step: the panel is columns [kb, r0) and the trailing
/// matrix rows and columns [r0, n).
struct Step {
  index_t n, kb, r0;
  [[nodiscard]] index_t nb() const { return r0 - kb; }
};

value_t* column(std::vector<value_t>& lu, index_t n, index_t j) {
  return lu.data() + static_cast<Size>(j) * static_cast<Size>(n);
}

/// Unblocked elimination of the panel over all remaining rows, with the
/// row interchanges applied inside the panel only.
void factor_panel(std::vector<value_t>& lu, const Step& st,
                  std::vector<index_t>& piv, const LuOptions& opt) {
  const index_t n = st.n;
  for (index_t j = st.kb; j < st.r0; ++j) {
    value_t* col = column(lu, n, j);
    index_t p = -1;
    value_t pmax = 0.0;
    for (index_t i = j; i < n; ++i) {
      const value_t v = std::abs(col[i]);
      if (v > pmax) {
        pmax = v;
        p = i;
      }
    }
    PDSLIN_CHECK_MSG(p >= 0 && pmax > opt.min_pivot,
                     "matrix is singular at column " + std::to_string(j));
    const value_t diag = std::abs(col[j]);
    if (diag >= opt.pivot_tol * pmax && diag > opt.min_pivot) p = j;
    piv[j] = p;
    if (p != j) {
      for (index_t c = st.kb; c < st.r0; ++c) {
        value_t* cc = column(lu, n, c);
        std::swap(cc[j], cc[p]);
      }
    }
    const value_t pv = col[j];
    for (index_t i = j + 1; i < n; ++i) col[i] /= pv;
    for (index_t c = j + 1; c < st.r0; ++c) {
      value_t* cc = column(lu, n, c);
      if (cc[j] != 0.0) axpy_minus(cc + j + 1, col + j + 1, cc[j], n - j - 1);
    }
  }
}

/// L21 (rows [r0, n) of the panel) packed into kMr-row slivers, k-major,
/// zero-padded to a whole sliver.
void pack_lower(const std::vector<value_t>& lu, const Step& st,
                std::vector<value_t>& apack) {
  const index_t n = st.n, nb = st.nb(), m = n - st.r0;
  const index_t slivers = (m + kMr - 1) / kMr;
  apack.assign(static_cast<Size>(slivers) * kMr * nb, 0.0);
  for (index_t k = 0; k < nb; ++k) {
    const value_t* col = lu.data() + static_cast<Size>(st.kb + k) * n;
    for (index_t r = 0; r < m; ++r) {
      apack[(static_cast<Size>(r / kMr) * nb + k) * kMr + r % kMr] =
          col[st.r0 + r];
    }
  }
}

/// Trailing update of columns [c0, c1): the panel's row interchanges, U12 =
/// L11⁻¹·A12 (unit lower TRSM), then A22 −= L21·U12 through the microkernel.
void update_tile(std::vector<value_t>& lu, const Step& st,
                 const std::vector<index_t>& piv,
                 const std::vector<value_t>& apack, index_t c0, index_t c1,
                 std::vector<value_t>& bpack) {
  const index_t n = st.n, nb = st.nb();
  for (index_t c = c0; c < c1; ++c) {
    value_t* col = column(lu, n, c);
    for (index_t j = st.kb; j < st.r0; ++j) {
      if (piv[j] != j) std::swap(col[j], col[piv[j]]);
    }
    for (index_t k = st.kb; k < st.r0; ++k) {
      if (col[k] == 0.0) continue;
      const value_t* l = lu.data() + static_cast<Size>(k) * n;
      axpy_minus(col + k + 1, l + k + 1, col[k], st.r0 - k - 1);
    }
  }
  const index_t m = n - st.r0;
  if (m == 0) return;

  const index_t w = c1 - c0;
  const index_t col_slivers = (w + kNr - 1) / kNr;
  bpack.assign(static_cast<Size>(col_slivers) * kNr * nb, 0.0);
  for (index_t q = 0; q < w; ++q) {
    const value_t* col = lu.data() + static_cast<Size>(c0 + q) * n + st.kb;
    value_t* dst = bpack.data() + static_cast<Size>(q / kNr) * kNr * nb + q % kNr;
    for (index_t k = 0; k < nb; ++k) dst[static_cast<Size>(k) * kNr] = col[k];
  }

  // Down each kNr-column strip in turn: its B sliver stays in L1 and the
  // C tiles it writes are contiguous, while L21 streams from cache.
  const index_t row_slivers = (m + kMr - 1) / kMr;
  for (index_t q = 0; q < col_slivers; ++q) {
    const value_t* bq = bpack.data() + static_cast<Size>(q) * kNr * nb;
    const index_t nr = std::min(kNr, w - q * kNr);
    value_t* cq = column(lu, n, c0 + q * kNr) + st.r0;
    for (index_t s = 0; s < row_slivers; ++s) {
      gemm_micro(nb, apack.data() + static_cast<Size>(s) * kMr * nb, bq,
                 cq + s * kMr, static_cast<Size>(n), std::min(kMr, m - s * kMr),
                 nr);
    }
  }
}

}  // namespace

DenseLuFactors dense_lu_factorize(const CsrMatrix& a, const LuOptions& opt,
                                  std::span<const index_t> perm) {
  PDSLIN_SPAN("lu.dense.factor");
  PDSLIN_CHECK_MSG(a.rows == a.cols, "LU requires a square matrix");
  PDSLIN_CHECK_MSG(a.has_values() || a.col_idx.empty(),
                   "LU requires numeric values");
  const index_t n = a.rows;
  PDSLIN_CHECK(perm.empty() || perm.size() == static_cast<std::size_t>(n));
  std::vector<index_t> inv(n);
  for (index_t k = 0; k < n; ++k) inv[perm.empty() ? k : perm[k]] = k;
  DenseLuFactors f;
  f.n = n;
  f.lu.assign(static_cast<Size>(n) * static_cast<Size>(n), 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      column(f.lu, n, inv[a.col_idx[p]])[inv[i]] = a.values[p];
    }
  }

  const unsigned workers = std::max(1u, opt.threads);
  std::vector<std::vector<value_t>> bpack(workers);  // per-range B packs
  std::vector<index_t> piv(n);
  std::vector<value_t> apack;
  const index_t panels = (n + kPanel - 1) / kPanel;
  for (index_t kb = 0; kb < n; kb += kPanel) {
    const Step st{n, kb, std::min(n, kb + kPanel)};
    factor_panel(f.lu, st, piv, opt);
    pack_lower(f.lu, st, apack);
    // Column tiles of the trailing matrix sit on the panel grid; each range
    // of tiles writes its own columns, so the split changes no result.
    const index_t first = kb / kPanel + 1;
    parallel_ranges(ThreadPool::shared(), panels - first, workers,
                    [&](unsigned r, long long tb, long long te) {
                      for (auto t = static_cast<index_t>(first + tb);
                           t < first + te; ++t) {
                        update_tile(f.lu, st, piv, apack, t * kPanel,
                                    std::min(n, (t + 1) * kPanel), bpack[r]);
                      }
                    });
    const long long nb = st.nb(), m = n - st.r0;
    f.gemm_flops += nb * m * m;
  }
  for (long long r = 0; r < n; ++r) f.total_flops += r * r;

  // Deferred interchanges: every later panel's swaps reach the L columns
  // left of it, in panel order.
  parallel_ranges(ThreadPool::shared(), panels, workers,
                  [&](unsigned, long long tb, long long te) {
                    for (auto t = static_cast<index_t>(tb); t < te; ++t) {
                      const index_t c1 = std::min(n, (t + 1) * kPanel);
                      for (index_t c = t * kPanel; c < c1; ++c) {
                        value_t* col = column(f.lu, n, c);
                        for (index_t j = c1; j < n; ++j) {
                          if (piv[j] != j) std::swap(col[j], col[piv[j]]);
                        }
                      }
                    }
                  });

  f.row_perm.resize(n);
  for (index_t k = 0; k < n; ++k) f.row_perm[k] = k;
  for (index_t j = 0; j < n; ++j) std::swap(f.row_perm[j], f.row_perm[piv[j]]);

  obs::counter("lu.dense.factorizations").add(1);
  obs::counter("lu.panel.gemm_flops").add(f.gemm_flops);
  obs::counter("lu.panel.total_flops").add(f.total_flops);
  return f;
}

void DenseLuFactors::solve_in_place(std::span<value_t> x) const {
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(n));
  value_t* v = x.data();
  for (index_t j = 0; j < n; ++j) {
    const value_t* col = lu.data() + static_cast<Size>(j) * n;
    axpy_minus(v + j + 1, col + j + 1, v[j], n - j - 1);
  }
  for (index_t j = n - 1; j >= 0; --j) {
    const value_t* col = lu.data() + static_cast<Size>(j) * n;
    v[j] /= col[j];
    axpy_minus(v, col, v[j], j);
  }
}

double predicted_fill_density(long long l_sym_nnz, index_t n) {
  if (n <= 0) return 0.0;
  return (2.0 * static_cast<double>(l_sym_nnz) - static_cast<double>(n)) /
         (static_cast<double>(n) * static_cast<double>(n));
}

bool dense_root_pays(long long l_sym_nnz, index_t n) {
  if (n <= 0) return false;
  const long long nn = n;
  return (2 * l_sym_nnz - nn) * static_cast<long long>(sizeof(value_t) + sizeof(index_t)) >=
         nn * nn * static_cast<long long>(sizeof(value_t));
}

}  // namespace pdslin
