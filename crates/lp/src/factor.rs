//! Sparse LU factorization of the simplex basis, plus the product-form
//! eta file that absorbs pivots between refactorizations.
//!
//! ## Representation
//!
//! The basis matrix `B` is `m × m`; its column `i` is the (sparse)
//! constraint column of the variable basic in row `i`. [`LuFactors`] holds
//! `B = P · L · U · Q` implicitly:
//!
//! * columns are eliminated in increasing-nonzero-count order (`Q`, a
//!   cheap fill-reducing heuristic — slack singletons go first and never
//!   create fill);
//! * rows are chosen by partial pivoting at each step (`P`);
//! * `L` is unit lower triangular, stored as one sparse column per
//!   elimination step over *original* row indices;
//! * `U` is upper triangular, stored as one sparse column per step over
//!   *step* indices plus a dense diagonal.
//!
//! The numeric phase is Gilbert–Peierls left-looking elimination: the
//! nonzero pattern of each column's triangular solve is discovered by a
//! depth-first search over the column DAG of `L`, so factorization work is
//! proportional to the *fill-in flops*, not to `m²` — the property
//! `crates/lp/tests/sparse_scaling.rs` locks in.
//!
//! Between refactorizations each basis exchange appends an eta to the
//! [`EtaFile`]: `B_new = B_old · E` where `E` is the identity with column
//! `r` replaced by `w = B_old⁻¹ a_q`. FTRAN applies `E⁻¹` after the LU
//! solves, BTRAN applies them transposed in reverse order before the LU
//! solves. The file is reset on every refactorization, so its length — and
//! with it the per-iteration cost drift — is bounded by
//! [`SimplexOptions::refactor_every`](crate::SimplexOptions::refactor_every).
//!
//! Both [`LuFactors`] and [`EtaFile`] keep their per-column / per-eta data
//! in *flat* arrays (one contiguous entry pool plus end offsets) rather
//! than nested `Vec`s: refactorization via [`LuFactors::factorize_into`]
//! and [`EtaFile::clear`] recycle the pools, so the simplex pivot loop is
//! allocation-free in steady state and FTRAN/BTRAN walk memory linearly.

/// A sparse matrix column: `(row, coefficient)` pairs, rows strictly
/// increasing.
pub type SparseCol = Vec<(usize, f64)>;

/// Sparse LU factors of a basis matrix (see module docs).
///
/// `L` and `U` columns live in flat entry pools sliced by cumulative end
/// offsets, so [`factorize_into`](LuFactors::factorize_into) can rebuild
/// the factors without allocating once the pools have warmed up.
#[derive(Clone, Debug, Default)]
pub struct LuFactors {
    m: usize,
    /// `colorder[k]` = basis position eliminated at step `k`.
    colorder: Vec<usize>,
    /// End offset into `lentries` of each step's L column.
    lends: Vec<usize>,
    /// L columns, flattened: `(original_row, multiplier)` for rows not yet
    /// pivotal at that step. Unit diagonal is implicit.
    lentries: Vec<(usize, f64)>,
    /// End offset into `uentries` of each step's U column.
    uends: Vec<usize>,
    /// U columns, flattened: `(earlier_step, value)` entries above the
    /// diagonal.
    uentries: Vec<(usize, f64)>,
    /// U diagonal (the pivots), one per step.
    udiag: Vec<f64>,
    /// Pivot row (original index) of each step.
    prow: Vec<usize>,
}

/// Scratch buffers for [`LuFactors::ftran`] / [`LuFactors::btran`] /
/// [`LuFactors::factorize`], reused across calls so the hot loop never
/// allocates.
#[derive(Clone, Debug, Default)]
pub struct LuWorkspace {
    /// Dense accumulator indexed by original row.
    row: Vec<f64>,
    /// Dense accumulator indexed by elimination step.
    step: Vec<f64>,
    /// DFS stack: `(step, next_child_index)`.
    stack: Vec<(usize, usize)>,
    /// Visit markers (generation counter avoids clearing).
    mark: Vec<u64>,
    generation: u64,
    /// Topological order of steps touched by the current column.
    topo: Vec<usize>,
    /// original row -> step at which it became pivotal (factorize only).
    row_step: Vec<usize>,
    /// `(nonzero count, basis position)` sort keys (factorize only).
    keys: Vec<(usize, usize)>,
}

impl LuWorkspace {
    /// Workspace sized for `m`-row factors (grows on demand).
    pub fn new(m: usize) -> Self {
        let mut w = LuWorkspace::default();
        w.resize(m);
        w
    }

    fn resize(&mut self, m: usize) {
        if self.row.len() < m {
            self.row.resize(m, 0.0);
            self.step.resize(m, 0.0);
            self.mark.resize(m, 0);
        }
    }
}

impl LuFactors {
    /// Factorize the basis whose column at position `i` is `col(i)`.
    /// Returns `None` when the basis is numerically singular (no pivot of
    /// magnitude `>= singular_tol` in some column).
    pub fn factorize<'a>(
        m: usize,
        col: impl Fn(usize) -> &'a [(usize, f64)],
        singular_tol: f64,
        ws: &mut LuWorkspace,
    ) -> Option<LuFactors> {
        let mut f = LuFactors::default();
        if f.factorize_into(m, col, singular_tol, ws) {
            Some(f)
        } else {
            None
        }
    }

    /// [`factorize`](LuFactors::factorize) into `self`, recycling the entry
    /// pools from the previous factorization so a refactorization inside
    /// the pivot loop does not allocate. Returns `false` when the basis is
    /// numerically singular, leaving `self` cleared (callers keep the old
    /// factors elsewhere — see `refactorize` in the simplex).
    pub fn factorize_into<'a>(
        &mut self,
        m: usize,
        col: impl Fn(usize) -> &'a [(usize, f64)],
        singular_tol: f64,
        ws: &mut LuWorkspace,
    ) -> bool {
        ws.resize(m);
        ws.row_step.clear();
        ws.row_step.resize(m, usize::MAX);
        self.m = m;
        // Fill-reducing column order: fewest nonzeros first (slack and
        // artificial singletons eliminate for free). The `(len, i)` key
        // makes the unstable sort reproduce stable-sort tie order without
        // the merge-sort scratch allocation.
        ws.keys.clear();
        ws.keys.extend((0..m).map(|i| (col(i).len(), i)));
        ws.keys.sort_unstable();
        self.colorder.clear();
        self.colorder.extend(ws.keys.iter().map(|&(_, i)| i));

        self.lends.clear();
        self.lentries.clear();
        self.uends.clear();
        self.uentries.clear();
        self.udiag.clear();
        self.udiag.resize(m, 0.0);
        self.prow.clear();
        self.prow.resize(m, usize::MAX);

        for k in 0..m {
            let a = col(self.colorder[k]);
            // A singleton in a row no earlier step claimed (every slack
            // and artificial of a typical basis) is its own pivot: nothing
            // to eliminate, no fill.
            if let [(r, v)] = *a {
                if ws.row_step[r] == usize::MAX && v.abs() >= singular_tol {
                    self.udiag[k] = v;
                    self.prow[k] = r;
                    ws.row_step[r] = k;
                    self.lends.push(self.lentries.len());
                    self.uends.push(self.uentries.len());
                    continue;
                }
            }
            // --- symbolic: reachable steps, topological order ---
            ws.generation += 1;
            let generation = ws.generation;
            ws.topo.clear();
            for &(r, _) in a {
                let s0 = ws.row_step[r];
                if s0 == usize::MAX || ws.mark[s0] == generation {
                    continue;
                }
                // DFS from s0 over the L column DAG
                ws.mark[s0] = generation;
                ws.stack.push((s0, 0));
                while let Some(&mut (s, ref mut child)) = ws.stack.last_mut() {
                    let lcol = self.lcol(s);
                    let mut descended = false;
                    while *child < lcol.len() {
                        let rr = lcol[*child].0;
                        *child += 1;
                        let ss = ws.row_step[rr];
                        if ss != usize::MAX && ws.mark[ss] != generation {
                            ws.mark[ss] = generation;
                            ws.stack.push((ss, 0));
                            descended = true;
                            break;
                        }
                    }
                    if !descended {
                        ws.stack.pop();
                        ws.topo.push(s);
                    }
                }
            }
            // ws.topo is in reverse topological order: dependencies last.

            // --- numeric: sparse triangular solve L x = a ---
            for &(r, v) in a {
                ws.row[r] = v;
            }
            for idx in (0..ws.topo.len()).rev() {
                let s = ws.topo[idx];
                let xp = ws.row[self.prow[s]];
                if xp != 0.0 {
                    for &(r, lv) in self.lcol(s) {
                        ws.row[r] -= xp * lv;
                    }
                }
            }

            // --- pivot: largest remaining entry in a non-pivotal row ---
            let mut piv_row = usize::MAX;
            let mut piv_val = 0.0f64;
            // candidate rows: original pattern + fill (rows of visited L cols)
            // collect via topo + original pattern
            let consider = |r: usize, row: &[f64], piv_row: &mut usize, piv_val: &mut f64| {
                if ws.row_step[r] == usize::MAX {
                    let v = row[r].abs();
                    if v > *piv_val {
                        *piv_val = v;
                        *piv_row = r;
                    }
                }
            };
            for &(r, _) in a {
                consider(r, &ws.row, &mut piv_row, &mut piv_val);
            }
            for &s in &ws.topo {
                for &(r, _) in self.lcol(s) {
                    consider(r, &ws.row, &mut piv_row, &mut piv_val);
                }
            }
            if piv_val < singular_tol {
                // clean the work vector before bailing
                for &(r, _) in a {
                    ws.row[r] = 0.0;
                }
                for &s in &ws.topo {
                    for idx in self.lrange(s) {
                        ws.row[self.lentries[idx].0] = 0.0;
                    }
                }
                return false;
            }
            let pivot = ws.row[piv_row];

            // --- gather U column (pivotal rows) and L column (the rest),
            // appended to the flat pools (this step's slices stay
            // contiguous: only completed steps are read below) ---
            for &(r, _) in a {
                harvest(self, ws, r, piv_row, pivot);
            }
            for ti in 0..ws.topo.len() {
                let s = ws.topo[ti];
                for idx in self.lrange(s) {
                    let r = self.lentries[idx].0;
                    harvest(self, ws, r, piv_row, pivot);
                }
            }
            ws.row[piv_row] = 0.0;

            self.udiag[k] = pivot;
            self.prow[k] = piv_row;
            ws.row_step[piv_row] = k;
            self.lends.push(self.lentries.len());
            self.uends.push(self.uentries.len());
        }

        true
    }

    /// Byte range of step `k`'s L column in the flat pool.
    #[inline]
    fn lrange(&self, k: usize) -> std::ops::Range<usize> {
        let start = if k == 0 { 0 } else { self.lends[k - 1] };
        start..self.lends[k]
    }

    /// Step `k`'s L column: `(original_row, multiplier)` entries.
    #[inline]
    fn lcol(&self, k: usize) -> &[(usize, f64)] {
        &self.lentries[self.lrange(k)]
    }

    /// Step `k`'s U column: `(earlier_step, value)` entries.
    #[inline]
    fn ucol(&self, k: usize) -> &[(usize, f64)] {
        let start = if k == 0 { 0 } else { self.uends[k - 1] };
        &self.uentries[start..self.uends[k]]
    }

    /// Number of rows (= columns) of the factored basis.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Stored nonzeros across `L` and `U` (implicit unit diagonal of `L`
    /// excluded, diagonal of `U` included).
    pub fn nnz(&self) -> usize {
        self.lentries.len() + self.uentries.len() + self.m
    }

    /// FTRAN: solve `B x = b`.
    ///
    /// `rhs` is indexed by original row; `out` receives the solution
    /// indexed by **basis position** (so `out[i]` pairs with the variable
    /// basic in row `i`). Both must have length at least `dim()`; only the
    /// first `dim()` entries are read and written.
    pub fn ftran(&self, rhs: &[f64], out: &mut [f64], ws: &mut LuWorkspace) {
        ws.resize(self.m);
        ws.row[..self.m].copy_from_slice(&rhs[..self.m]);
        // L solve (forward, original-row space)
        for k in 0..self.m {
            let xp = ws.row[self.prow[k]];
            if xp != 0.0 {
                for &(r, lv) in self.lcol(k) {
                    ws.row[r] -= xp * lv;
                }
            }
        }
        // gather into step space
        for k in 0..self.m {
            ws.step[k] = ws.row[self.prow[k]];
            ws.row[self.prow[k]] = 0.0;
        }
        // U solve (backward, step space)
        for k in (0..self.m).rev() {
            // right-hand sides are sparse columns: most steps carry zero
            if ws.step[k] != 0.0 {
                let yk = ws.step[k] / self.udiag[k];
                ws.step[k] = yk;
                for &(j, uv) in self.ucol(k) {
                    ws.step[j] -= uv * yk;
                }
            }
        }
        // scatter to basis positions
        for k in 0..self.m {
            out[self.colorder[k]] = ws.step[k];
        }
    }

    /// BTRAN: solve `yᵀ B = cᵀ` (equivalently `Bᵀ y = c`).
    ///
    /// `c` is indexed by basis position (e.g. the basic cost vector);
    /// `out` receives the duals indexed by **original row**.
    pub fn btran(&self, c: &[f64], out: &mut [f64], ws: &mut LuWorkspace) {
        ws.resize(self.m);
        // Uᵀ solve (forward, step space)
        for k in 0..self.m {
            let mut v = c[self.colorder[k]];
            for &(j, uv) in self.ucol(k) {
                v -= uv * ws.step[j];
            }
            ws.step[k] = if v != 0.0 { v / self.udiag[k] } else { 0.0 };
        }
        // Lᵀ solve (backward): rows in L column `k` are pivotal at steps
        // > k, so their dual values are already final at step k.
        for k in (0..self.m).rev() {
            let mut v = ws.step[k];
            for &(r, lv) in self.lcol(k) {
                v -= lv * out[r];
            }
            out[self.prow[k]] = v;
        }
    }
}

/// Move `ws.row[r]` into the current step's L or U column of `f` (zeroing
/// the work entry): not-yet-pivotal rows become L multipliers, pivotal rows
/// become U entries at their step index.
#[inline]
fn harvest(f: &mut LuFactors, ws: &mut LuWorkspace, r: usize, piv_row: usize, pivot: f64) {
    let v = ws.row[r];
    ws.row[r] = 0.0;
    if v == 0.0 || r == piv_row {
        return;
    }
    match ws.row_step[r] {
        usize::MAX => f.lentries.push((r, v / pivot)),
        s => f.uentries.push((s, v)),
    }
}

/// The eta file: product-form updates appended since the last
/// refactorization, applied after (FTRAN) or before (BTRAN) the LU solves.
///
/// Storage is flat — one `(pivot_position, pivot_value, end_offset)` head
/// per eta over a shared entry pool — so [`push`](EtaFile::push) in the
/// pivot loop is allocation-free once the pool has warmed up and the apply
/// loops walk memory linearly instead of chasing one heap `Vec` per eta.
#[derive(Clone, Debug, Default)]
pub struct EtaFile {
    /// Per eta: basis position `r` of the exchange, pivot element `w[r]`,
    /// and the end offset of its nonzeros in `entries` (start = previous
    /// eta's end).
    heads: Vec<(usize, f64, usize)>,
    /// `(position, w[position])` for every eta's off-pivot nonzeros.
    entries: Vec<(usize, f64)>,
    nnz: usize,
}

/// Entries of `w` smaller than this are dropped when an eta is recorded;
/// they are far below every pivot/feasibility tolerance in use and carry
/// only rounding noise.
pub const ETA_DROP_TOL: f64 = 1e-13;

impl EtaFile {
    /// An empty file.
    pub fn new() -> Self {
        EtaFile::default()
    }

    /// Forget all updates (called on refactorization). Keeps the pool
    /// capacity, so steady-state pivoting never reallocates.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.entries.clear();
        self.nnz = 0;
    }

    /// Number of updates currently in the file.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// `true` when no updates are pending.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Total stored nonzeros (pivots included).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Record the exchange at position `r` with FTRAN image `w`
    /// (dense, basis-position indexed). Returns the nonzeros stored.
    pub fn push(&mut self, r: usize, w: &[f64]) -> usize {
        let start = self.entries.len();
        for (i, &v) in w.iter().enumerate() {
            if i != r && v.abs() > ETA_DROP_TOL {
                self.entries.push((i, v));
            }
        }
        let stored = self.entries.len() - start + 1;
        self.nnz += stored;
        self.heads.push((r, w[r], self.entries.len()));
        stored
    }

    /// Apply the file to an FTRAN result (in basis-position space):
    /// `x ← Eₖ⁻¹ … E₁⁻¹ x` in recording order.
    pub fn apply_ftran(&self, x: &mut [f64]) {
        let mut start = 0;
        for &(r, wr, end) in &self.heads {
            let xr = x[r];
            if xr != 0.0 {
                let t = xr / wr;
                x[r] = t;
                for &(i, wi) in &self.entries[start..end] {
                    x[i] -= wi * t;
                }
            }
            start = end;
        }
    }

    /// Apply the file to a BTRAN input (basis-position space), newest
    /// first: `cᵀ ← cᵀ Eₖ⁻¹` for k descending.
    pub fn apply_btran(&self, c: &mut [f64]) {
        for (k, &(r, wr, end)) in self.heads.iter().enumerate().rev() {
            let start = if k == 0 { 0 } else { self.heads[k - 1].2 };
            let mut v = c[r];
            for &(i, wi) in &self.entries[start..end] {
                v -= c[i] * wi;
            }
            c[r] = v / wr;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Dense reference multiply `B x` for verification.
    fn mat_vec(m: usize, cols: &[SparseCol], x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m];
        for (i, col) in cols.iter().enumerate() {
            for &(r, a) in col {
                out[r] += a * x[i];
            }
        }
        out
    }

    fn check_roundtrip(m: usize, cols: &[SparseCol]) {
        let mut ws = LuWorkspace::new(m);
        let lu = LuFactors::factorize(m, |i| &cols[i], 1e-12, &mut ws).expect("nonsingular");
        // FTRAN: B x = b  →  B x must reproduce b
        let b: Vec<f64> = (0..m).map(|i| (i as f64) - 1.5).collect();
        let mut x = vec![0.0; m];
        lu.ftran(&b, &mut x, &mut ws);
        let bx = mat_vec(m, cols, &x);
        for i in 0..m {
            assert!(
                (bx[i] - b[i]).abs() < 1e-9,
                "ftran row {i}: {} vs {}",
                bx[i],
                b[i]
            );
        }
        // BTRAN: yᵀ B = cᵀ  →  check column-wise
        let c: Vec<f64> = (0..m).map(|i| 1.0 + (i as f64) * 0.25).collect();
        let mut y = vec![0.0; m];
        lu.btran(&c, &mut y, &mut ws);
        for (i, col) in cols.iter().enumerate() {
            let dot: f64 = col.iter().map(|&(r, a)| y[r] * a).sum();
            assert!(
                (dot - c[i]).abs() < 1e-9,
                "btran col {i}: {dot} vs {}",
                c[i]
            );
        }
    }

    #[test]
    fn identity_roundtrip() {
        let cols: Vec<SparseCol> = (0..5).map(|i| vec![(i, 1.0)]).collect();
        check_roundtrip(5, &cols);
    }

    #[test]
    fn permuted_scaled_diagonal() {
        let cols: Vec<SparseCol> = vec![
            vec![(3, 2.0)],
            vec![(0, -1.0)],
            vec![(2, 0.5)],
            vec![(1, 4.0)],
        ];
        check_roundtrip(4, &cols);
    }

    #[test]
    fn dense_ish_matrix_roundtrip() {
        // deterministic pseudo-random nonsingular matrix
        let m = 12;
        let mut cols: Vec<SparseCol> = Vec::new();
        let mut seed = 9_u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..m {
            let mut col: SparseCol = Vec::new();
            for r in 0..m {
                let v = rng();
                if v.abs() > 0.55 || r == i {
                    // diagonal kept to guarantee nonsingularity
                    col.push((r, if r == i { v + 3.0 } else { v }));
                }
            }
            cols.push(col);
        }
        check_roundtrip(m, &cols);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        // two identical columns
        let cols: Vec<SparseCol> = vec![
            vec![(0, 1.0), (1, 1.0)],
            vec![(0, 1.0), (1, 1.0)],
            vec![(2, 1.0)],
        ];
        let mut ws = LuWorkspace::new(3);
        assert!(LuFactors::factorize(3, |i| &cols[i], 1e-12, &mut ws).is_none());
        // the workspace must be clean for the next factorization
        let good: Vec<SparseCol> = (0..3).map(|i| vec![(i, 1.0)]).collect();
        assert!(LuFactors::factorize(3, |i| &good[i], 1e-12, &mut ws).is_some());
    }

    #[test]
    fn eta_file_tracks_basis_exchanges() {
        // B0 = I (3x3); exchange position 1 with a column whose ftran
        // image is w = [0.5, 2.0, -1.0].
        let cols: Vec<SparseCol> = (0..3).map(|i| vec![(i, 1.0)]).collect();
        let mut ws = LuWorkspace::new(3);
        let lu = LuFactors::factorize(3, |i| &cols[i], 1e-12, &mut ws).unwrap();
        let mut etas = EtaFile::new();
        let w = [0.5, 2.0, -1.0];
        etas.push(1, &w);
        assert_eq!(etas.len(), 1);
        assert_eq!(etas.nnz(), 3);

        // new basis: columns [e0, w, e2] (since B0 = I). Solve B x = b.
        let b = [1.0, 4.0, 2.0];
        let mut x = vec![0.0; 3];
        lu.ftran(&b, &mut x, &mut ws);
        etas.apply_ftran(&mut x);
        // verify: e0*x0 + w*x1 + e2*x2 = b
        assert!((x[0] + 0.5 * x[1] - 1.0).abs() < 1e-12);
        assert!((2.0 * x[1] - 4.0).abs() < 1e-12);
        assert!((x[2] - 1.0 * x[1] - 2.0).abs() < 1e-12);

        // btran: yT Bnew = cT
        let c = [3.0, 1.0, -2.0];
        let mut ct = c.to_vec();
        etas.apply_btran(&mut ct);
        let mut y = vec![0.0; 3];
        lu.btran(&ct, &mut y, &mut ws);
        assert!((y[0] - 3.0).abs() < 1e-12, "col 0: {}", y[0]);
        let dot_w = 0.5 * y[0] + 2.0 * y[1] - 1.0 * y[2];
        assert!((dot_w - 1.0).abs() < 1e-12, "col w: {dot_w}");
        assert!((y[2] - (-2.0)).abs() < 1e-12, "col 2: {}", y[2]);

        etas.clear();
        assert!(etas.is_empty());
        assert_eq!(etas.nnz(), 0);
    }
}
