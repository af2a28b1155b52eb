#include "direct/panel_lu.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "direct/kernels.hpp"
#include "direct/symbolic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/pipeline.hpp"
#include "sparse/convert.hpp"
#include "sparse/symmetrize.hpp"
#include "util/error.hpp"

namespace pdslin {

namespace {

/// One supernode→supernode update edge: source panel `src` updates the
/// target through the rows rows[jb, je) of src's row list (the target
/// columns hit by src's below-diagonal block).
struct UpdateEdge {
  index_t src;
  index_t jb, je;
};

struct PanelSymbolic {
  Supernodes sn;
  std::vector<index_t> sn_parent;     // supernodal elimination forest
  std::vector<index_t> rows;          // concatenated sorted row lists
  std::vector<std::size_t> row_ptr;   // per-panel slice of `rows`
  std::vector<index_t> tri0;          // local row of the first panel column
  std::vector<std::size_t> arena_off; // packed-panel offsets (cells)
  std::size_t arena_cells = 0;
  std::vector<std::vector<UpdateEdge>> upd;  // per target, ascending src
  long long l_nnz_bound = 0;          // symbolic L entries (incl. diagonal)
  long long u_nnz_bound = 0;
};

PanelSymbolic panel_symbolic(const CscMatrix& a, const LuOptions& opt) {
  PDSLIN_SPAN("lu.panel.symbolic");
  const index_t n = a.rows;

  // Pattern of Aᵀ, reinterpreting the CSC arrays as CSR (no values).
  CsrMatrix at;
  at.rows = a.cols;
  at.cols = a.rows;
  at.row_ptr = a.col_ptr;
  at.col_idx = a.row_idx;
  const CsrMatrix sym = symmetrize_abs(at);
  const SymbolicFactor sf = symbolic_cholesky(sym);

  PanelSymbolic ps;
  ps.sn = relaxed_supernodes(sf.parent, sf.col_counts, opt.panel_max_width,
                             std::max(0.0, opt.panel_relax));
  const index_t np = ps.sn.count();

  const CscMatrix lpat = cholesky_pattern(sym);  // diag-first, sorted
  const CscMatrix upat = transpose(lpat);        // col j = row j of L, sorted
  ps.l_nnz_bound = lpat.nnz();
  ps.u_nnz_bound = upat.nnz();

  ps.sn_parent.resize(np);
  ps.row_ptr.assign(np + 1, 0);
  ps.tri0.resize(np);
  ps.arena_off.resize(np);

  // Per-panel row list: union of the full symbolic column patterns (U rows
  // above the panel, the triangle — always complete, every member column
  // contributes its diagonal — and the shared below-diagonal rows).
  std::vector<index_t> mark(n, -1);
  std::vector<index_t> local;
  for (index_t p = 0; p < np; ++p) {
    const index_t c0 = ps.sn.start[p], c1 = ps.sn.start[p + 1];
    local.clear();
    for (index_t j = c0; j < c1; ++j) {
      for (index_t r : upat.col_rows(j)) {
        if (mark[r] != p) { mark[r] = p; local.push_back(r); }
      }
      for (index_t r : lpat.col_rows(j)) {
        if (mark[r] != p) { mark[r] = p; local.push_back(r); }
      }
    }
    std::sort(local.begin(), local.end());
    const auto t0 = std::lower_bound(local.begin(), local.end(), c0);
    ps.tri0[p] = static_cast<index_t>(t0 - local.begin());
    PDSLIN_CHECK_MSG(local[ps.tri0[p] + (c1 - c0) - 1] == c1 - 1,
                     "panel triangle is not contiguous");
    ps.arena_off[p] = ps.arena_cells;
    ps.arena_cells += local.size() * static_cast<std::size_t>(c1 - c0);
    ps.rows.insert(ps.rows.end(), local.begin(), local.end());
    ps.row_ptr[p + 1] = ps.rows.size();

    const index_t last = c1 - 1;
    ps.sn_parent[p] = sf.parent[last] < 0 ? -1 : ps.sn.of_column[sf.parent[last]];
  }

  // Update edges: the below-diagonal rows of panel d, grouped by target
  // panel. Built in ascending d, so every target sees its updaters in
  // ascending pivot order — the order the numeric phase must apply them in.
  ps.upd.resize(np);
  for (index_t d = 0; d < np; ++d) {
    const index_t c1 = ps.sn.start[d + 1];
    const index_t w = ps.sn.width(d);
    std::size_t q = ps.row_ptr[d] + ps.tri0[d] + w;  // first below-diag row
    const std::size_t qe = ps.row_ptr[d + 1];
    while (q < qe) {
      const index_t t = ps.sn.of_column[ps.rows[q]];
      std::size_t r = q;
      while (r < qe && ps.sn.of_column[ps.rows[r]] == t) ++r;
      PDSLIN_CHECK(ps.rows[q] >= c1 && t > d);
      ps.upd[t].push_back({d, static_cast<index_t>(q - ps.row_ptr[d]),
                           static_cast<index_t>(r - ps.row_ptr[d])});
      q = r;
    }
  }
  return ps;
}

/// Per-worker scratch: the global→local row map for the panel being built
/// plus reusable gather buffers.
template <typename T>
struct Workspace {
  std::vector<index_t> rowpos;  // size n, -1 outside the current panel
  std::vector<index_t> pos;     // update-local positions in the target
  std::vector<index_t> jloc;    // target-local column indices
  std::vector<T> y;             // TRSM block (w_d × nJ, row-major)
  std::vector<T> c;             // GEMM block (ni × nJ, column-major)
  long long gemm_flops = 0;
  long long other_flops = 0;
};

template <typename T>
bool panel_numeric(const CscMatrix& a, const LuOptions& opt,
                   const PanelSymbolic& ps, std::vector<T>& arena,
                   LuPanelStats& stats) {
  PDSLIN_SPAN("lu.panel.numeric");
  const index_t n = a.rows;
  const index_t np = ps.sn.count();
  arena.assign(ps.arena_cells, T(0));

  const unsigned workers = std::max(1u, opt.threads);
  const unsigned nw = std::min<unsigned>(workers, np == 0 ? 1u
                                                          : static_cast<unsigned>(np));
  std::vector<Workspace<T>> ws(nw);
  for (auto& w : ws) w.rowpos.assign(n, -1);

  std::atomic<bool> abort{false};

  auto body = [&](unsigned widx, index_t p) {
    if (abort.load(std::memory_order_relaxed)) return;
    Workspace<T>& s = ws[widx];
    const index_t c0 = ps.sn.start[p], c1 = ps.sn.start[p + 1];
    const index_t wp = c1 - c0;
    const index_t* prows = ps.rows.data() + ps.row_ptr[p];
    const index_t nr = static_cast<index_t>(ps.row_ptr[p + 1] - ps.row_ptr[p]);
    T* pan = arena.data() + ps.arena_off[p];

    for (index_t i = 0; i < nr; ++i) s.rowpos[prows[i]] = i;

    // Scatter A's columns (assignment in storage order: duplicate entries
    // resolve last-wins, exactly as the scalar kernel's scatter does).
    for (index_t j = c0; j < c1; ++j) {
      T* col = pan + static_cast<std::size_t>(j - c0) * nr;
      for (index_t ptr = a.col_ptr[j]; ptr < a.col_ptr[j + 1]; ++ptr) {
        col[s.rowpos[a.row_idx[ptr]]] = static_cast<T>(a.values[ptr]);
      }
    }

    // External updates, ascending source panel = ascending pivot blocks.
    for (const UpdateEdge& e : ps.upd[p]) {
      const index_t d = e.src;
      const index_t d0 = ps.sn.start[d];
      const index_t wd = ps.sn.width(d);
      const index_t* drows = ps.rows.data() + ps.row_ptr[d];
      const index_t nrd =
          static_cast<index_t>(ps.row_ptr[d + 1] - ps.row_ptr[d]);
      const T* dpan = arena.data() + ps.arena_off[d];
      const index_t tri0d = ps.tri0[d];
      const index_t below0d = tri0d + wd;
      const index_t nj = e.je - e.jb;
      const index_t ni = nrd - below0d;

      s.jloc.resize(nj);
      for (index_t q = 0; q < nj; ++q) s.jloc[q] = drows[e.jb + q] - c0;

      // U-part: Y = L_dd⁻¹ · (target rows at d's columns).
      s.pos.resize(wd);
      for (index_t k = 0; k < wd; ++k) s.pos[k] = s.rowpos[d0 + k];
      s.y.resize(static_cast<std::size_t>(wd) * nj);
      panel::gather_block(pan, nr, s.pos.data(), wd, s.jloc.data(), nj, true,
                          s.y.data());
      panel::trsm_unit_lower(dpan, nrd, tri0d, wd, s.y.data(), nj);
      panel::scatter_block(s.y.data(), wd, nj, true, s.pos.data(),
                           s.jloc.data(), pan, nr);

      // Below block: C -= L_d(below, :) · Y.
      s.pos.resize(std::max(ni, wd));
      for (index_t i = 0; i < ni; ++i) s.pos[i] = s.rowpos[drows[below0d + i]];
      s.c.resize(static_cast<std::size_t>(ni) * nj);
      panel::gather_block(pan, nr, s.pos.data(), ni, s.jloc.data(), nj, false,
                          s.c.data());
      panel::gemm_minus(dpan + below0d, nrd, ni, wd, s.y.data(), nj,
                        s.c.data());
      panel::scatter_block(s.c.data(), ni, nj, false, s.pos.data(),
                           s.jloc.data(), pan, nr);

      s.gemm_flops += static_cast<long long>(ni) * nj * wd;
      s.other_flops += static_cast<long long>(nj) * wd * (wd - 1) / 2;
    }

    // In-panel dense factorization (threshold pivoting on the diagonal).
    bool singular = false;
    const index_t bad = panel::factorize_panel(pan, nr, ps.tri0[p], wp,
                                               opt.pivot_tol, opt.min_pivot,
                                               &singular);
    if (bad >= 0) abort.store(true, std::memory_order_relaxed);
    const long long depth = nr - ps.tri0[p];
    for (index_t jj = 0; jj < wp; ++jj) {
      s.other_flops += static_cast<long long>(jj) * (depth - jj);
    }

    for (index_t i = 0; i < nr; ++i) s.rowpos[prows[i]] = -1;
  };

  if (nw <= 1) {
    for (index_t p = 0; p < np && !abort.load(std::memory_order_relaxed); ++p) {
      body(0, p);
    }
  } else {
    run_tree_pipeline(ThreadPool::shared(), ps.sn_parent, nw, body);
  }

  for (const auto& w : ws) {
    stats.gemm_flops += w.gemm_flops;
    stats.total_flops += w.gemm_flops + w.other_flops;
  }
  return !abort.load(std::memory_order_relaxed);
}

/// Extract clean CSC factors from the packed panels. Pivoting kept every
/// diagonal, so pivot positions are row indices and row_perm is identity;
/// exact zeros (structural padding and numerically cancelled entries) are
/// dropped, exactly as the scalar kernel's scatter drops them.
template <typename T>
LuFactors panel_extract(const PanelSymbolic& ps, const std::vector<T>& arena,
                        index_t n) {
  LuFactors f;
  f.n = n;
  f.row_perm.resize(n);
  for (index_t r = 0; r < n; ++r) f.row_perm[r] = r;

  CscMatrix& L = f.lower;
  CscMatrix& U = f.upper;
  L = CscMatrix(n, n);
  U = CscMatrix(n, n);
  L.row_idx.reserve(ps.l_nnz_bound);
  L.values.reserve(ps.l_nnz_bound);
  U.row_idx.reserve(ps.u_nnz_bound);
  U.values.reserve(ps.u_nnz_bound);

  for (index_t p = 0; p < ps.sn.count(); ++p) {
    const index_t c0 = ps.sn.start[p], c1 = ps.sn.start[p + 1];
    const index_t* prows = ps.rows.data() + ps.row_ptr[p];
    const index_t nr = static_cast<index_t>(ps.row_ptr[p + 1] - ps.row_ptr[p]);
    const T* pan = arena.data() + ps.arena_off[p];
    for (index_t j = c0; j < c1; ++j) {
      const T* col = pan + static_cast<std::size_t>(j - c0) * nr;
      const index_t dpos = ps.tri0[p] + (j - c0);
      for (index_t i = 0; i < dpos; ++i) {
        const value_t v = static_cast<value_t>(col[i]);
        if (v != 0.0) {
          U.row_idx.push_back(prows[i]);
          U.values.push_back(v);
        }
      }
      U.row_idx.push_back(j);  // diagonal last
      U.values.push_back(static_cast<value_t>(col[dpos]));
      U.col_ptr[j + 1] = static_cast<index_t>(U.row_idx.size());

      L.row_idx.push_back(j);  // unit diagonal first
      L.values.push_back(1.0);
      for (index_t i = dpos + 1; i < nr; ++i) {
        const value_t v = static_cast<value_t>(col[i]);
        if (v != 0.0) {
          L.row_idx.push_back(prows[i]);
          L.values.push_back(v);
        }
      }
      L.col_ptr[j + 1] = static_cast<index_t>(L.row_idx.size());
    }
  }
  return f;
}

template <typename T>
std::optional<LuFactors> panel_factorize_typed(const CscMatrix& a,
                                               const LuOptions& opt,
                                               PanelSymbolic&& ps) {
  LuPanelStats stats;
  std::vector<T> arena;
  if (!panel_numeric<T>(a, opt, ps, arena, stats)) return std::nullopt;

  LuFactors f = panel_extract<T>(ps, arena, a.rows);
  stats.used_panel = true;
  stats.panel_count = ps.sn.count();
  stats.avg_width = ps.sn.average_width();
  stats.max_width = ps.sn.max_width();
  stats.wide_col_fraction = ps.sn.wide_column_fraction(4);
  stats.panel_bytes =
      static_cast<long long>(ps.arena_cells) * static_cast<long long>(sizeof(T));
  f.stats = stats;
  f.panels = std::move(ps.sn);

  obs::counter("lu.panel.factorizations").add(1);
  obs::counter("lu.panel.panels_total").add(stats.panel_count);
  obs::counter("lu.panel.cols_total").add(f.n);
  obs::counter("lu.panel.gemm_flops").add(stats.gemm_flops);
  obs::counter("lu.panel.total_flops").add(stats.total_flops);
  obs::gauge("lu.panel.count").set(static_cast<double>(stats.panel_count));
  obs::gauge("lu.panel.avg_width").set(stats.avg_width);
  obs::gauge("lu.panel.max_width").set(static_cast<double>(stats.max_width));
  obs::gauge("lu.panel.wide_col_fraction").set(stats.wide_col_fraction);
  obs::gauge("lu.panel.gemm_fraction")
      .set(stats.total_flops > 0
               ? static_cast<double>(stats.gemm_flops) /
                     static_cast<double>(stats.total_flops)
               : 0.0);
  return f;
}

}  // namespace

std::optional<LuFactors> panel_lu_factorize(const CscMatrix& a,
                                            const LuOptions& opt) {
  PDSLIN_CHECK_MSG(a.rows == a.cols, "LU requires a square matrix");
  PanelSymbolic ps = panel_symbolic(a, opt);
  return panel_factorize_typed<double>(a, opt, std::move(ps));
}

}  // namespace pdslin
