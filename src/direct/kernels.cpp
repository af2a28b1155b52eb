#include "direct/kernels.hpp"

#include <cmath>

namespace pdslin::panel {

template <typename T>
void trsm_unit_lower(const T* tri, index_t nr, index_t tri0, index_t w,
                     T* y, index_t ncol) {
  for (index_t kp = 0; kp < w; ++kp) {
    const T* lk = tri + static_cast<std::size_t>(kp) * nr + tri0;
    const T* yk = y + static_cast<std::size_t>(kp) * ncol;
    for (index_t k = kp + 1; k < w; ++k) {
      const T c = lk[k];
      if (c == T(0)) continue;  // structural padding: term is an exact zero
      T* row = y + static_cast<std::size_t>(k) * ncol;
      for (index_t q = 0; q < ncol; ++q) row[q] -= c * yk[q];
    }
  }
}

template <typename T>
void gemm_minus(const T* lblk, index_t lda, index_t ni, index_t w,
                const T* y, index_t ncol, T* c) {
  for (index_t k = 0; k < w; ++k) {
    const T* a = lblk + static_cast<std::size_t>(k) * lda;
    const T* yk = y + static_cast<std::size_t>(k) * ncol;
    for (index_t q = 0; q < ncol; ++q) {
      const T b = yk[q];
      if (b == T(0)) continue;
      T* col = c + static_cast<std::size_t>(q) * ni;
      for (index_t i = 0; i < ni; ++i) col[i] -= a[i] * b;
    }
  }
}

template <typename T>
index_t factorize_panel(T* pan, index_t nr, index_t tri0, index_t w,
                        double pivot_tol, double min_pivot, bool* singular) {
  for (index_t jj = 0; jj < w; ++jj) {
    T* col = pan + static_cast<std::size_t>(jj) * nr;
    // Left-looking internal updates, ascending in-panel pivot order; the
    // updating U entry is final by induction (rows above were finished by
    // earlier iterations).
    for (index_t kp = 0; kp < jj; ++kp) {
      const T u = col[tri0 + kp];
      if (u == T(0)) continue;
      const T* lk = pan + static_cast<std::size_t>(kp) * nr;
      for (index_t i = tri0 + kp + 1; i < nr; ++i) col[i] -= lk[i] * u;
    }
    // Threshold pivot check, exactly the scalar kernel's rule.
    const index_t dpos = tri0 + jj;
    double pmax = 0.0;
    for (index_t i = dpos; i < nr; ++i) {
      const double av = std::abs(static_cast<double>(col[i]));
      if (av > pmax) pmax = av;
    }
    const double dv = std::abs(static_cast<double>(col[dpos]));
    if (!(pmax > min_pivot)) {
      *singular = true;
      return jj;
    }
    if (!(dv >= pivot_tol * pmax && dv > min_pivot)) {
      *singular = false;  // off-diagonal pivot wanted → scalar kernel's job
      return jj;
    }
    const T pv = col[dpos];
    for (index_t i = dpos + 1; i < nr; ++i) col[i] /= pv;
  }
  return -1;
}

template <typename T>
void gather_block(const T* pan, index_t nr, const index_t* pos, index_t nrows,
                  const index_t* jloc, index_t ncol, bool row_major, T* out) {
  if (row_major) {
    for (index_t i = 0; i < nrows; ++i) {
      const index_t p = pos[i];
      T* row = out + static_cast<std::size_t>(i) * ncol;
      if (p < 0) {
        for (index_t q = 0; q < ncol; ++q) row[q] = T(0);
      } else {
        for (index_t q = 0; q < ncol; ++q) {
          row[q] = pan[static_cast<std::size_t>(jloc[q]) * nr + p];
        }
      }
    }
  } else {
    for (index_t q = 0; q < ncol; ++q) {
      const T* src = pan + static_cast<std::size_t>(jloc[q]) * nr;
      T* col = out + static_cast<std::size_t>(q) * nrows;
      for (index_t i = 0; i < nrows; ++i) {
        const index_t p = pos[i];
        col[i] = p < 0 ? T(0) : src[p];
      }
    }
  }
}

template <typename T>
void scatter_block(const T* block, index_t nrows, index_t ncol, bool row_major,
                   const index_t* pos, const index_t* jloc, T* pan,
                   index_t nr) {
  if (row_major) {
    for (index_t i = 0; i < nrows; ++i) {
      const index_t p = pos[i];
      if (p < 0) continue;
      const T* row = block + static_cast<std::size_t>(i) * ncol;
      for (index_t q = 0; q < ncol; ++q) {
        pan[static_cast<std::size_t>(jloc[q]) * nr + p] = row[q];
      }
    }
  } else {
    for (index_t q = 0; q < ncol; ++q) {
      T* dst = pan + static_cast<std::size_t>(jloc[q]) * nr;
      const T* col = block + static_cast<std::size_t>(q) * nrows;
      for (index_t i = 0; i < nrows; ++i) {
        const index_t p = pos[i];
        if (p >= 0) dst[p] = col[i];
      }
    }
  }
}

template void trsm_unit_lower<double>(const double*, index_t, index_t, index_t,
                                      double*, index_t);
template void gemm_minus<double>(const double*, index_t, index_t, index_t,
                                 const double*, index_t, double*);
template index_t factorize_panel<double>(double*, index_t, index_t, index_t,
                                         double, double, bool*);
template void gather_block<double>(const double*, index_t, const index_t*,
                                   index_t, const index_t*, index_t, bool,
                                   double*);
template void scatter_block<double>(const double*, index_t, index_t, bool,
                                    const index_t*, const index_t*, double*,
                                    index_t);

}  // namespace pdslin::panel
