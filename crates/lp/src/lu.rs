//! Sparse LU factorization of simplex basis matrices.
//!
//! The revised simplex refactorizes its basis every few dozen pivots. Basis
//! matrices arising from the siting formulation are extremely sparse (3–6
//! nonzeros per column), so a dense factorization would dominate solve time.
//! [`SparseLu`] implements a left-looking column LU with partial pivoting:
//! `P·B·Q = L·U` with `L` unit lower triangular and `U` upper triangular,
//! both stored column-wise in pivot-position space. `Q` is the
//! triangularization preorder ([`SparseLu::col_order`]): a caller that
//! renumbers its basis slots by it, as the revised simplex does after every
//! factorization, solves with `Q = I`, and `P` is the row order
//! ([`SparseLu::row_at`], [`SparseLu::position_of`]).
//!
//! Factorization reads the basis columns straight from the column store,
//! reuses its work arrays from call to call, and eliminates each column
//! only over its symbolic reach — the earlier pivots its nonzeros can reach
//! through `L` (Gilbert–Peierls) — so it costs `O(nnz(B) + flops)` plus a
//! sort of each reach, not `O(n²)` probes of every earlier pivot; a column
//! with one nonzero in a row not yet pivoted is pivoted on directly.
//!
//! The solves run in place in position space and report the nonzeros of
//! their result in ascending position. [`SparseLu::ftran_in_place`] sweeps
//! `L` over the positions whose `L` column is nonempty from the first
//! nonzero position on, then `U` backward over every position, skipping
//! zero values. [`SparseLu::btran_in_place`] solves `Uᵀ` row-wise over a
//! row copy of `U` built once per factorization, from the first nonzero
//! position on, then `Lᵀ` by a dot product at each position whose `L`
//! column is nonempty. So a solve costs `O(n)` index checks in its `U`
//! sweep plus the `L` and `U` entries of its nonzero positions.

// Index loops here sweep multiple parallel arrays of the numerical kernel;
// iterator rewrites obscure the linear algebra.
#![allow(clippy::needless_range_loop)]
use crate::model::SolveError;

/// A sparse matrix stored in compressed-column form, used to hand basis
/// columns to the factorization.
#[derive(Debug, Clone, Default)]
pub struct ColMatrix {
    n_rows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl ColMatrix {
    /// Creates an empty matrix with `n_rows` rows and no columns.
    pub fn new(n_rows: usize) -> Self {
        Self {
            n_rows,
            col_ptr: vec![0],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends a column given as `(row, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of range.
    pub fn push_col<I: IntoIterator<Item = (usize, f64)>>(&mut self, entries: I) {
        for (r, v) in entries {
            assert!(r < self.n_rows, "row index {r} out of range");
            if v != 0.0 {
                self.row_idx.push(r);
                self.values.push(v);
            }
        }
        self.col_ptr.push(self.row_idx.len());
    }

    /// Builds the `n_cols` columns of the matrix whose row `i` holds the
    /// `(column, value)` entries of the `i`-th item of `rows`, by a counting
    /// transpose: each column lists its rows in ascending order (a row's
    /// entries for one column in their given order), and zero values are
    /// dropped as [`ColMatrix::push_col`] drops them.
    ///
    /// # Panics
    ///
    /// Panics if any column index is `n_cols` or more.
    pub fn from_rows<R, E>(n_cols: usize, rows: R) -> Self
    where
        R: Iterator<Item = E> + Clone,
        E: IntoIterator<Item = (usize, f64)>,
    {
        let mut col_ptr = vec![0usize; n_cols + 1];
        let mut n_rows = 0;
        for row in rows.clone() {
            n_rows += 1;
            for (j, v) in row {
                if v != 0.0 {
                    col_ptr[j + 1] += 1;
                }
            }
        }
        for j in 0..n_cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = col_ptr[n_cols];
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut cursor = col_ptr.clone();
        for (i, row) in rows.enumerate() {
            for (j, v) in row {
                if v != 0.0 {
                    let t = cursor[j];
                    row_idx[t] = i;
                    values[t] = v;
                    cursor[j] += 1;
                }
            }
        }
        Self {
            n_rows,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The `(row, value)` entries of column `j`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (rows, values) = self.col_slices(j);
        rows.iter().copied().zip(values.iter().copied())
    }

    /// The row indices and values of column `j`'s entries.
    pub(crate) fn col_slices(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Column `j`'s value in row `i`, if it has an entry there.
    pub(crate) fn get(&self, j: usize, i: usize) -> Option<f64> {
        self.entry(j, i).map(|e| self.values[e])
    }

    /// The index, in the store of every column's entries, of column `j`'s
    /// entry in row `i`, if it has one. Columns list their rows ascending.
    fn entry(&self, j: usize, i: usize) -> Option<usize> {
        let lo = self.col_ptr[j];
        self.row_idx[lo..self.col_ptr[j + 1]]
            .binary_search(&i)
            .ok()
            .map(|e| lo + e)
    }

    /// Replaces the entries of the listed columns, given in ascending
    /// column order, each with its new nonzero `(row, value)` entries in
    /// ascending row order; the other columns keep theirs.
    pub(crate) fn replace_cols(&mut self, cols: &[(usize, Vec<(usize, f64)>)]) {
        let mut new_ptr = Vec::with_capacity(self.col_ptr.len());
        let mut new_idx = Vec::with_capacity(self.row_idx.len());
        let mut new_values = Vec::with_capacity(self.values.len());
        new_ptr.push(0);
        let mut from = 0;
        for next in cols.iter().map(Some).chain([None]) {
            // The run of unchanged columns before `next`, copied whole.
            let to = next.map_or(self.col_ptr.len() - 1, |(j, _)| *j);
            let (lo, hi, base) = (self.col_ptr[from], self.col_ptr[to], new_idx.len());
            new_ptr.extend(self.col_ptr[from + 1..=to].iter().map(|&p| p - lo + base));
            new_idx.extend_from_slice(&self.row_idx[lo..hi]);
            new_values.extend_from_slice(&self.values[lo..hi]);
            if let Some((j, entries)) = next {
                for &(i, v) in entries {
                    new_idx.push(i);
                    new_values.push(v);
                }
                new_ptr.push(new_idx.len());
                from = j + 1;
            }
        }
        self.col_ptr = new_ptr;
        self.row_idx = new_idx;
        self.values = new_values;
    }

    /// Multiplies `self · x` into a fresh vector (used by tests/validation).
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        for j in 0..self.n_cols() {
            let xj = x[j];
            if xj != 0.0 {
                for (r, v) in self.col(j) {
                    y[r] += v * xj;
                }
            }
        }
        y
    }
}

/// A row-wise (CSR) copy of a [`ColMatrix`] whose rows keep their *live*
/// entries first.
///
/// The revised simplex prices by pivot row: `αᵣ = ρᵀ·A` where `ρ = B⁻ᵀ·eᵣ`
/// is hyper-sparse on the siting bases. With only column access, forming
/// the pivot row means scanning every column of `A` — `O(nnz(A))` per
/// pivot. With a row copy it is a gather over the rows where `ρ` is
/// nonzero, and over only the live entries of each: a column that can
/// never enter (basic, or fixed) is dead, and its entries sit after the
/// row's live ones, where the gather does not read them.
///
/// Each row lists its live entries, then its dead ones. A build
/// ([`RowMatrix::from_cols`], or the solver's rebuild around its live
/// columns) leaves each part in ascending column order; moving one column
/// across the boundary of every row it touches is one swap per row, so
/// later orders depend on the history of those moves. The column form
/// stays the source of truth for FTRANs and factorization.
#[derive(Debug, Clone, Default)]
pub struct RowMatrix {
    row_ptr: Vec<usize>,
    /// Row `i`'s first `live[i]` entries are its live ones.
    live: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    /// For each entry of the column store, its index in `col_idx`.
    at: Vec<usize>,
}

impl RowMatrix {
    /// Builds the CSR copy of `cols` with every column live.
    pub fn from_cols(cols: &ColMatrix) -> Self {
        let mut rows = Self::default();
        rows.partition(cols, |_| true);
        rows
    }

    /// (Re)builds this copy of `cols`, each row with the entries of the
    /// columns `live` accepts first, by one counting transpose (`O(nnz +
    /// rows)`) into the arrays of the previous build.
    pub(crate) fn partition(&mut self, cols: &ColMatrix, live: impl Fn(usize) -> bool) {
        let n_rows = cols.n_rows();
        let nnz = cols.nnz();
        self.row_ptr.clear();
        self.row_ptr.resize(n_rows + 1, 0);
        self.live.clear();
        self.live.resize(n_rows, 0);
        for j in 0..cols.n_cols() {
            let is_live = live(j);
            for &i in cols.col_slices(j).0 {
                self.row_ptr[i + 1] += 1;
                self.live[i] += usize::from(is_live);
            }
        }
        for i in 0..n_rows {
            self.row_ptr[i + 1] += self.row_ptr[i];
        }
        self.col_idx.resize(nnz, 0);
        self.values.resize(nnz, 0.0);
        self.at.resize(nnz, 0);
        // Each row's fill cursor in its live part and in its dead part.
        let mut next_live: Vec<usize> = self.row_ptr[..n_rows].to_vec();
        let mut next_dead: Vec<usize> = (0..n_rows).map(|i| next_live[i] + self.live[i]).collect();
        for j in 0..cols.n_cols() {
            let cursor = if live(j) {
                &mut next_live
            } else {
                &mut next_dead
            };
            let lo = cols.col_ptr[j];
            for e in lo..cols.col_ptr[j + 1] {
                let i = cols.row_idx[e];
                let p = cursor[i];
                cursor[i] += 1;
                self.col_idx[p] = j;
                self.values[p] = cols.values[e];
                self.at[e] = p;
            }
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.row_ptr.len().saturating_sub(1)
    }

    /// The `(column, value)` entries of row `i`: its live entries, then its
    /// dead ones (see the type's docs for their order).
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Number of entries in row `i`, live and dead.
    pub(crate) fn row_len(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// The column indices and values of row `i`'s live entries.
    pub(crate) fn live_slices(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = lo + self.live[i];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Moves column `j`'s entry in every row it touches to the live part of
    /// the row (`live`) or out of it, by one swap with the entry at the
    /// part's boundary. `j` must currently be on the other side.
    pub(crate) fn set_live(&mut self, cols: &ColMatrix, j: usize, live: bool) {
        for e in cols.col_ptr[j]..cols.col_ptr[j + 1] {
            let i = cols.row_idx[e];
            if !live {
                self.live[i] -= 1;
            }
            let boundary = self.row_ptr[i] + self.live[i];
            if live {
                self.live[i] += 1;
            }
            let p = self.at[e];
            if p != boundary {
                let other = self.col_idx[boundary];
                let Some(other_e) = cols.entry(other, i) else {
                    unreachable!("row {i}'s copy lists column {other}, which has no entry there");
                };
                self.col_idx.swap(p, boundary);
                self.values.swap(p, boundary);
                self.at[other_e] = p;
                self.at[e] = boundary;
            }
        }
    }
}

/// Sparse LU factors of a square basis matrix, with row pivoting. The
/// default holds no factors: a placeholder until a basis is factorized.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    n: usize,
    /// L (unit diagonal implicit), columns in position space, entries strictly
    /// below the diagonal.
    l_ptr: Vec<usize>,
    l_idx: Vec<usize>,
    l_val: Vec<f64>,
    /// The positions whose L column is nonempty, ascending: the only ones
    /// the L sweeps of the solves visit.
    l_nonempty: Vec<usize>,
    /// U columns in position space, entries strictly above the diagonal.
    u_ptr: Vec<usize>,
    u_idx: Vec<usize>,
    u_val: Vec<f64>,
    u_diag: Vec<f64>,
    /// The same entries of U by row, for the `Uᵀ` sweep of BTRAN: row `p`
    /// holds `(k, U[p, k])` for `k > p`, in ascending `k`.
    ur_ptr: Vec<usize>,
    ur_idx: Vec<usize>,
    ur_val: Vec<f64>,
    /// `row_of[p]` = original row pivoted at position `p`.
    row_of: Vec<usize>,
    /// `pos_of[r]` = pivot position of original row `r`.
    pos_of: Vec<usize>,
    /// `col_of[p]` = index, in the list of basis columns factorized, of
    /// the column factored at position `p` (the triangularization
    /// preorder: `P·B·Q = L·U`).
    col_of: Vec<usize>,
    /// Work arrays of the factorization, kept for the next one.
    work: Workspace,
}

/// The factorization's work arrays. Between calls `x` is all zero and
/// `mark` all `false`; the rest are rewritten before they are read.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// The basis by row for the preorder: row `r` lists, ascending, the
    /// basis indices of the columns with an entry in it.
    t_ptr: Vec<usize>,
    t_idx: Vec<usize>,
    ccnt: Vec<usize>,
    rcnt: Vec<usize>,
    col_active: Vec<bool>,
    row_active: Vec<bool>,
    col_stack: Vec<usize>,
    row_stack: Vec<usize>,
    back: Vec<usize>,
    /// Dense elimination workspace indexed by original row, with the list
    /// of touched rows for its sparse reset.
    x: Vec<f64>,
    mark: Vec<bool>,
    touched: Vec<usize>,
    /// `seen[p] == k` stamps position `p` as reached for column `k`.
    seen: Vec<usize>,
    reach: Vec<usize>,
}

/// Smallest acceptable pivot magnitude.
const PIVOT_TOL: f64 = 1e-11;

/// Structured factorization failure, rich enough to drive basis repair:
/// a warm-start installer can swap the dead column for the slack of a
/// not-yet-pivoted row and retry.
#[derive(Debug, Clone)]
pub enum FactorizeError {
    /// The matrix is not square.
    NotSquare {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// No acceptable pivot exists for position `col`: that basis column is
    /// (numerically) dependent on its predecessors.
    Singular {
        /// Zero-based index, in the list of basis columns factorized, of
        /// the failing column.
        col: usize,
        /// `pivoted[r]` is `true` for original rows already holding a pivot
        /// when the factorization gave up; any `false` row is a valid
        /// replacement target.
        pivoted: Vec<bool>,
    },
}

impl std::fmt::Display for FactorizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorizeError::NotSquare { rows, cols } => {
                write!(f, "basis not square: {rows}x{cols}")
            }
            FactorizeError::Singular { col, .. } => {
                write!(f, "singular basis at column {col}")
            }
        }
    }
}

impl std::error::Error for FactorizeError {}

/// The crate-boundary collapse into the solver error type: callers that do
/// not repair singular bases themselves treat a failed factorization as
/// numerical trouble.
impl From<FactorizeError> for SolveError {
    fn from(e: FactorizeError) -> Self {
        SolveError::Numerical(e.to_string())
    }
}

impl SparseLu {
    /// Factorizes the square matrix whose columns are given by `basis`,
    /// reporting singularity with enough structure for the caller to repair
    /// the basis (see [`FactorizeError`]).
    ///
    /// # Errors
    ///
    /// [`FactorizeError::NotSquare`] / [`FactorizeError::Singular`].
    pub fn factorize(basis: &ColMatrix) -> Result<Self, FactorizeError> {
        let mut lu = Self::default();
        let all: Vec<usize> = (0..basis.n_cols()).collect();
        lu.refactor(basis, &all)?;
        Ok(lu)
    }

    /// Factorizes, in place of the current factors, the square matrix whose
    /// `k`-th column is column `basis[k]` of `cols`, read straight from
    /// `cols`. On an error the factors are unusable until a factorization
    /// succeeds.
    ///
    /// # Errors
    ///
    /// [`FactorizeError::NotSquare`] when `basis` does not list one column
    /// per row of `cols`; [`FactorizeError::Singular`] as for
    /// [`SparseLu::factorize`].
    pub fn refactor(&mut self, cols: &ColMatrix, basis: &[usize]) -> Result<(), FactorizeError> {
        let n = cols.n_rows();
        if basis.len() != n {
            return Err(FactorizeError::NotSquare {
                rows: n,
                cols: basis.len(),
            });
        }
        self.n = n;
        self.triangular_order(cols, basis);
        self.l_ptr.clear();
        self.l_ptr.push(0);
        self.l_idx.clear();
        self.l_val.clear();
        self.l_nonempty.clear();
        self.u_ptr.clear();
        self.u_ptr.push(0);
        self.u_idx.clear();
        self.u_val.clear();
        self.u_diag.clear();
        self.u_diag.resize(n, 0.0);
        self.row_of.clear();
        self.row_of.resize(n, usize::MAX);
        self.pos_of.clear();
        self.pos_of.resize(n, usize::MAX);
        let w = &mut self.work;
        // Membership of the touched list must be tracked with an explicit
        // mark — testing `x[r] == 0.0` would re-add a row whose value
        // cancelled exactly to zero, duplicating entries in L.
        w.x.resize(n, 0.0);
        w.mark.resize(n, false);
        w.seen.clear();
        w.seen.resize(n, usize::MAX);

        for k in 0..n {
            let (rows, vals) = cols.col_slices(basis[self.col_of[k]]);
            // A single nonzero in a row not yet pivoted is the pivot: the
            // reach is empty and L column k stays empty.
            if let ([r], [v]) = (rows, vals) {
                if self.pos_of[*r] == usize::MAX {
                    self.u_ptr.push(self.u_idx.len());
                    if v.abs() <= PIVOT_TOL {
                        return Err(singular(&self.col_of, &self.pos_of, k));
                    }
                    self.u_diag[k] = *v;
                    self.row_of[k] = *r;
                    self.pos_of[*r] = k;
                    self.l_ptr.push(self.l_idx.len());
                    continue;
                }
            }
            // Scatter the column ordered at position k, seeding the reach
            // with the positions of its already-pivoted rows.
            for (&r, &v) in rows.iter().zip(vals) {
                if !w.mark[r] {
                    w.mark[r] = true;
                    w.touched.push(r);
                }
                w.x[r] += v;
                let p = self.pos_of[r];
                if p != usize::MAX && w.seen[p] != k {
                    w.seen[p] = k;
                    w.reach.push(p);
                }
            }
            // Symbolic step (Gilbert–Peierls): pivot p can update the rows
            // of L column p only, so the positions whose value can become
            // nonzero are those reachable from the seeds through the L
            // columns built so far. Every other position holds an exact
            // 0.0, which the elimination below would skip anyway. `reach`
            // doubles as the traversal's worklist.
            let mut next = 0;
            while next < w.reach.len() {
                let p = w.reach[next];
                next += 1;
                for &r in &self.l_idx[self.l_ptr[p]..self.l_ptr[p + 1]] {
                    let q = self.pos_of[r];
                    if q != usize::MAX && w.seen[q] != k {
                        w.seen[q] = k;
                        w.reach.push(q);
                    }
                }
            }
            // L column p holds only rows pivoted after p, so ascending
            // position order is a topological order of the reach. It is
            // also the order a scan over every earlier pivot visits them
            // in, so the factors are bit-identical to that scan's (the
            // tests keep it as `factorize_dense_scan`).
            w.reach.sort_unstable();

            // Left-looking elimination over the reach: a pivot p only
            // updates rows that were not pivoted before p, so
            // increasing-order processing over original-row workspace is
            // exact. The work grows with the reach and the flops, not with
            // k.
            for &p in &w.reach {
                let pr = self.row_of[p];
                let xp = w.x[pr];
                if xp == 0.0 {
                    continue;
                }
                // U[p, k] = xp; eliminate using L column p.
                self.u_idx.push(p);
                self.u_val.push(xp);
                for t in self.l_ptr[p]..self.l_ptr[p + 1] {
                    let r = self.l_idx[t];
                    if !w.mark[r] {
                        w.mark[r] = true;
                        w.touched.push(r);
                    }
                    w.x[r] -= self.l_val[t] * xp;
                }
                w.x[pr] = 0.0;
            }
            w.reach.clear();
            self.u_ptr.push(self.u_idx.len());

            // Partial pivot among unpivoted rows.
            let mut piv_row = usize::MAX;
            let mut piv_abs = PIVOT_TOL;
            for &r in &w.touched {
                if self.pos_of[r] == usize::MAX {
                    let a = w.x[r].abs();
                    if a > piv_abs {
                        piv_abs = a;
                        piv_row = r;
                    }
                }
            }
            if piv_row != usize::MAX {
                let piv_val = w.x[piv_row];
                self.u_diag[k] = piv_val;
                self.row_of[k] = piv_row;
                self.pos_of[piv_row] = k;

                // L column k: remaining unpivoted nonzeros, scaled.
                for &r in &w.touched {
                    if r != piv_row && self.pos_of[r] == usize::MAX && w.x[r] != 0.0 {
                        self.l_idx.push(r);
                        self.l_val.push(w.x[r] / piv_val);
                    }
                }
                if self.l_idx.len() > self.l_ptr[k] {
                    self.l_nonempty.push(k);
                }
                self.l_ptr.push(self.l_idx.len());
            }

            // Sparse reset.
            for &r in &w.touched {
                w.x[r] = 0.0;
                w.mark[r] = false;
            }
            w.touched.clear();
            if piv_row == usize::MAX {
                return Err(singular(&self.col_of, &self.pos_of, k));
            }
        }

        // Convert L's row indices from original-row space to position space so
        // the triangular solves are pure position-space sweeps.
        for idx in &mut self.l_idx {
            *idx = self.pos_of[*idx];
        }
        self.index_u_rows();
        Ok(())
    }

    /// Computes a fill-reducing column order for a simplex basis into
    /// `col_of`: the classic doubly-bordered triangularization. Column
    /// singletons peel to the front (their L columns are empty, so later
    /// eliminations through them create no fill), row singletons peel to
    /// the back in reverse (their off-pivot entries land in U), and only the
    /// residual "bump" — ordered sparsest column first — can fill in.
    /// Simplex bases are mostly slacks and chain-structured columns, so the
    /// bump is typically tiny; without this preorder the plain left-looking
    /// factorization was observed to fill a 1.3k-row siting basis from ~4k
    /// to ~90k nonzeros, making LU solves (and refactorization itself) the
    /// dominant solver cost.
    fn triangular_order(&mut self, cols: &ColMatrix, basis: &[usize]) {
        let n = basis.len();
        let w = &mut self.work;
        // The basis by row, a counting transpose over the basis indices.
        w.t_ptr.clear();
        w.t_ptr.resize(n + 1, 0);
        w.ccnt.clear();
        for &j in basis {
            let rows = cols.col_slices(j).0;
            w.ccnt.push(rows.len());
            for &r in rows {
                w.t_ptr[r + 1] += 1;
            }
        }
        for r in 0..n {
            w.t_ptr[r + 1] += w.t_ptr[r];
        }
        w.t_idx.resize(w.t_ptr[n], 0);
        // `rcnt` is each row's fill cursor, then its count.
        w.rcnt.clear();
        w.rcnt.extend_from_slice(&w.t_ptr[..n]);
        for (k, &j) in basis.iter().enumerate() {
            for &r in cols.col_slices(j).0 {
                w.t_idx[w.rcnt[r]] = k;
                w.rcnt[r] += 1;
            }
        }
        for r in 0..n {
            w.rcnt[r] -= w.t_ptr[r];
        }
        w.col_active.clear();
        w.col_active.resize(n, true);
        w.row_active.clear();
        w.row_active.resize(n, true);
        w.col_stack.clear();
        w.col_stack.extend((0..n).filter(|&k| w.ccnt[k] == 1));
        w.row_stack.clear();
        w.row_stack.extend((0..n).filter(|&r| w.rcnt[r] == 1));
        w.back.clear();
        let front = &mut self.col_of;
        front.clear();

        // Peel until neither kind of singleton remains. Stack entries can go
        // stale as counts change; validity is re-checked on pop.
        loop {
            let mut peeled: Option<(usize, usize, bool)> = None; // (col, row, to front)
            while let Some(k) = w.col_stack.pop() {
                if w.col_active[k] && w.ccnt[k] == 1 {
                    // A stale count with no active row left just means this
                    // column misses its singleton turn and falls through to
                    // the bump — the preorder is a fill heuristic, never a
                    // correctness requirement, so degrade instead of panicking.
                    match cols
                        .col_slices(basis[k])
                        .0
                        .iter()
                        .find(|&&r| w.row_active[r])
                    {
                        Some(&r) => {
                            peeled = Some((k, r, true));
                            break;
                        }
                        None => continue,
                    }
                }
            }
            if peeled.is_none() {
                while let Some(r) = w.row_stack.pop() {
                    if w.row_active[r] && w.rcnt[r] == 1 {
                        match w.t_idx[w.t_ptr[r]..w.t_ptr[r + 1]]
                            .iter()
                            .find(|&&k| w.col_active[k])
                        {
                            Some(&k) => {
                                peeled = Some((k, r, false));
                                break;
                            }
                            None => continue,
                        }
                    }
                }
            }
            let Some((k, r, to_front)) = peeled else {
                break;
            };
            if to_front {
                front.push(k);
            } else {
                w.back.push(k);
            }
            w.col_active[k] = false;
            for &r2 in cols.col_slices(basis[k]).0 {
                if w.row_active[r2] {
                    w.rcnt[r2] -= 1;
                    if w.rcnt[r2] == 1 {
                        w.row_stack.push(r2);
                    }
                }
            }
            w.row_active[r] = false;
            for &k2 in &w.t_idx[w.t_ptr[r]..w.t_ptr[r + 1]] {
                if w.col_active[k2] {
                    w.ccnt[k2] -= 1;
                    if w.ccnt[k2] == 1 {
                        w.col_stack.push(k2);
                    }
                }
            }
        }

        // The bump: whatever the peel could not order, sparsest column first
        // (deterministic tie-break on index).
        let bump_from = front.len();
        front.extend((0..n).filter(|&k| w.col_active[k]));
        front[bump_from..].sort_unstable_by_key(|&k| (w.ccnt[k], k));
        front.extend(w.back.iter().rev());
    }

    /// Builds the row copy of `U` from its columns (a counting transpose,
    /// `O(n + nnz(U))`) into the arrays of the last one. Columns are
    /// visited in ascending `k`, so each row lists its entries in ascending
    /// `k`.
    fn index_u_rows(&mut self) {
        let n = self.n;
        self.ur_ptr.clear();
        self.ur_ptr.resize(n + 1, 0);
        for &p in &self.u_idx {
            self.ur_ptr[p + 1] += 1;
        }
        for p in 0..n {
            self.ur_ptr[p + 1] += self.ur_ptr[p];
        }
        let nnz = self.u_idx.len();
        self.ur_idx.resize(nnz, 0);
        self.ur_val.resize(nnz, 0.0);
        // `seen` serves as the fill cursor of each row.
        let cursor = &mut self.work.seen;
        cursor.clear();
        cursor.extend_from_slice(&self.ur_ptr[..n]);
        for k in 0..n {
            for t in self.u_ptr[k]..self.u_ptr[k + 1] {
                let p = self.u_idx[t];
                self.ur_idx[cursor[p]] = k;
                self.ur_val[cursor[p]] = self.u_val[t];
                cursor[p] += 1;
            }
        }
    }

    /// Nonzeros stored in the factors (fill-in indicator).
    pub fn fill_nnz(&self) -> usize {
        self.l_idx.len() + self.u_idx.len() + self.n
    }

    /// `col_order()[p]` is the index, in the list of basis columns
    /// factorized, of the column factored at position `p`.
    pub fn col_order(&self) -> &[usize] {
        &self.col_of
    }

    /// The original row pivoted at position `p`.
    pub fn row_at(&self, p: usize) -> usize {
        self.row_of[p]
    }

    /// The pivot position of original row `r`.
    pub fn position_of(&self, r: usize) -> usize {
        self.pos_of[r]
    }

    /// Solves `L·U·x = z` in place, where `x` enters as `z = P·b` (`x[p] =
    /// b[row_at(p)]`) and leaves as the solution in position space, which
    /// is basis-column space for a caller whose slots follow
    /// [`SparseLu::col_order`]. `x` must be zero before position `first`.
    /// `nz` receives the positions of the solution's nonzeros, ascending.
    ///
    /// The `L` sweep visits only the positions from `first` on whose `L`
    /// column is nonempty; the `U` sweep runs backward over every position,
    /// skipping zero values. Updates propagate toward position 0, so it
    /// cannot be truncated at `first`; visiting from the top, it meets the
    /// nonzeros in descending order.
    pub fn ftran_in_place(&self, x: &mut [f64], first: usize, nz: &mut Vec<usize>) {
        debug_assert_eq!(x.len(), self.n);
        let start = self.l_nonempty.partition_point(|&k| k < first);
        for &k in &self.l_nonempty[start..] {
            let yk = x[k];
            if yk != 0.0 {
                for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                    x[self.l_idx[t]] -= self.l_val[t] * yk;
                }
            }
        }
        nz.clear();
        for k in (0..self.n).rev() {
            let xk = x[k];
            if xk != 0.0 {
                let xk = xk / self.u_diag[k];
                x[k] = xk;
                if xk == 0.0 {
                    continue; // underflow: its terms are zeros
                }
                nz.push(k);
                for t in self.u_ptr[k]..self.u_ptr[k + 1] {
                    x[self.u_idx[t]] -= self.u_val[t] * xk;
                }
            }
        }
        nz.reverse();
    }

    /// Solves `(L·U)ᵀ·y = c` in place: `y` enters as `c` in position space
    /// (basis-column space for a caller whose slots follow
    /// [`SparseLu::col_order`]) and leaves as `P·y'` for the solution `y'`
    /// of `Bᵀ·y' = c` (`y'[row_at(p)] = y[p]`). `y` must be zero before
    /// position `first`. `nz` receives the positions of the solution's
    /// nonzeros, ascending; `spare` is scratch.
    ///
    /// The forward `Uᵀ` sweep runs row-wise from `first`: once position `k`
    /// is final, its term leaves for every later position of `U` row `k`,
    /// and a position whose value is zero is skipped. So it costs `O(n −
    /// first)` plus the `U` rows of the nonzero positions, not every `U`
    /// entry from the first nonzero position on — the saving on a
    /// hyper-sparse right-hand side such as a pivot row's `eᵣ`. The
    /// backward `Lᵀ` sweep is a dot product at each position whose `L`
    /// column is nonempty; `L` is small on simplex bases, and its columns
    /// are not stored in position order, so a row-wise `Lᵀ` would reorder
    /// its sums.
    ///
    /// `U`'s columns hold their entries in ascending position, so each
    /// position receives the same nonzero terms in the same order as a dot
    /// product over its `U` column would subtract them: the result is
    /// bit-identical to that dot product up to the sign of a zero.
    pub fn btran_in_place(
        &self,
        y: &mut [f64],
        first: usize,
        nz: &mut Vec<usize>,
        spare: &mut Vec<usize>,
    ) {
        debug_assert_eq!(y.len(), self.n);
        nz.clear();
        for k in first..self.n {
            let s = y[k];
            if s == 0.0 {
                continue;
            }
            let wk = s / self.u_diag[k];
            y[k] = wk;
            if wk == 0.0 {
                continue; // underflow: its terms are zeros
            }
            nz.push(k);
            for t in self.ur_ptr[k]..self.ur_ptr[k + 1] {
                y[self.ur_idx[t]] -= self.ur_val[t] * wk;
            }
        }
        // Lᵀ·v = w (backward, unit diagonal). A position that was zero and
        // is not now joins the list, descending in `spare`.
        spare.clear();
        for &k in self.l_nonempty.iter().rev() {
            let mut s = y[k];
            let was_zero = s == 0.0;
            for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                s -= self.l_val[t] * y[self.l_idx[t]];
            }
            y[k] = s;
            if was_zero && s != 0.0 {
                spare.push(k);
            }
        }
        merge_descending(nz, spare);
    }

    /// Solves `B·x = b` in place: `b` enters in original-row space and leaves
    /// as `x` in the order of the basis columns factorized.
    pub fn ftran(&self, b: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(b.len(), self.n);
        scratch.clear();
        scratch.extend(self.row_of.iter().map(|&r| b[r]));
        self.ftran_in_place(scratch, 0, &mut Vec::new());
        for p in 0..self.n {
            b[self.col_of[p]] = scratch[p];
        }
    }

    /// Solves `Bᵀ·y = c` in place: `c` enters in the order of the basis
    /// columns factorized and leaves as `y` in original-row space.
    pub fn btran(&self, c: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(c.len(), self.n);
        scratch.clear();
        scratch.extend(self.col_of.iter().map(|&k| c[k]));
        self.btran_in_place(scratch, 0, &mut Vec::new(), &mut Vec::new());
        for p in 0..self.n {
            c[self.row_of[p]] = scratch[p];
        }
    }
}

/// The error for the column factored at position `k`, which has no
/// acceptable pivot.
fn singular(col_of: &[usize], pos_of: &[usize], k: usize) -> FactorizeError {
    FactorizeError::Singular {
        col: col_of[k],
        pivoted: pos_of.iter().map(|&p| p != usize::MAX).collect(),
    }
}

/// Merges the distinct positions of `desc`, in descending order, into the
/// ascending list `asc`, which holds none of them.
fn merge_descending(asc: &mut Vec<usize>, desc: &[usize]) {
    if desc.is_empty() {
        return;
    }
    let mut i = asc.len();
    asc.resize(i + desc.len(), 0);
    let mut out = asc.len();
    for &d in desc {
        while i > 0 && asc[i - 1] > d {
            out -= 1;
            i -= 1;
            asc[out] = asc[i];
        }
        out -= 1;
        asc[out] = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn dense_to_cols(a: &[&[f64]]) -> ColMatrix {
        let n = a.len();
        let mut m = ColMatrix::new(n);
        for j in 0..n {
            m.push_col((0..n).map(|i| (i, a[i][j])).filter(|&(_, v)| v != 0.0));
        }
        m
    }

    fn assert_solves(a: &[&[f64]]) {
        let n = a.len();
        let m = dense_to_cols(a);
        let lu = SparseLu::factorize(&m).expect("factorize");
        let mut scratch = Vec::new();

        // FTRAN against known product.
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let mut b = m.mul_vec(&x_true);
        lu.ftran(&mut b, &mut scratch);
        for i in 0..n {
            assert!(
                (b[i] - x_true[i]).abs() < 1e-9,
                "ftran mismatch at {i}: {} vs {}",
                b[i],
                x_true[i]
            );
        }

        // BTRAN: check Bᵀ·y = c.
        let c_true: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.25).collect();
        let mut c = c_true.clone();
        lu.btran(&mut c, &mut scratch);
        for j in 0..n {
            let mut dot = 0.0;
            for (r, v) in m.col(j) {
                dot += v * c[r];
            }
            assert!(
                (dot - c_true[j]).abs() < 1e-9,
                "btran residual at {j}: {dot} vs {}",
                c_true[j]
            );
        }
    }

    #[test]
    fn identity() {
        assert_solves(&[&[1.0, 0.0], &[0.0, 1.0]]);
    }

    #[test]
    fn permuted_identity() {
        assert_solves(&[&[0.0, 0.0, 1.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
    }

    #[test]
    fn general_dense_3x3() {
        assert_solves(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]);
    }

    #[test]
    fn requires_pivoting() {
        // Zero on the diagonal forces a row exchange.
        assert_solves(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert_solves(&[&[0.0, 2.0, 3.0], &[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]);
    }

    #[test]
    fn negative_slack_columns() {
        // Simplex bases mix ±unit columns with structural columns.
        assert_solves(&[&[-1.0, 0.0, 0.5], &[0.0, -1.0, 2.0], &[0.0, 0.0, 1.5]]);
    }

    #[test]
    fn singular_is_detected() {
        let m = dense_to_cols(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(SparseLu::factorize(&m).is_err());
    }

    #[test]
    fn not_square_is_detected() {
        let mut m = ColMatrix::new(3);
        m.push_col([(0, 1.0)]);
        assert!(SparseLu::factorize(&m).is_err());
    }

    #[test]
    fn bidiagonal_chain_like_battery_dynamics() {
        // The structure produced by battery level-linking constraints.
        let n = 50;
        let mut m = ColMatrix::new(n);
        for j in 0..n {
            let mut col = vec![(j, 1.0)];
            if j > 0 {
                col.push((j - 1, -0.75));
            }
            m.push_col(col);
        }
        let lu = SparseLu::factorize(&m).expect("factorize");
        // No fill-in beyond the original bidiagonal pattern.
        assert!(lu.fill_nnz() <= 2 * n);
        let mut scratch = Vec::new();
        let x_true: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.3 - 1.0).collect();
        let mut b = m.mul_vec(&x_true);
        lu.ftran(&mut b, &mut scratch);
        for i in 0..n {
            assert!((b[i] - x_true[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_cancellation_does_not_duplicate_l_entries() {
        // Regression test: unit-coefficient matrices cancel exactly during
        // elimination; re-adding a row to the touched list on the 0→nonzero
        // transition used to duplicate L entries (applied twice in solves).
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        for _ in 0..50 {
            let n = 12;
            let mut rows: Vec<Vec<f64>> = vec![vec![0.0; n]; n];
            for (i, row) in rows.iter_mut().enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    if rng.gen_bool(0.45) {
                        // ±1 entries make exact cancellation common.
                        *cell = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    }
                    if i == j {
                        *cell += 3.0;
                    }
                }
            }
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            assert_solves(&refs);
        }
    }

    #[test]
    fn row_matrix_mirrors_columns() {
        let mut m = ColMatrix::new(3);
        m.push_col([(0, 1.0), (2, -2.0)]);
        m.push_col([(1, 3.0)]);
        m.push_col([(0, 4.0), (1, 5.0), (2, 6.0)]);
        m.push_col([]);
        let rows = RowMatrix::from_cols(&m);
        assert_eq!(rows.n_rows(), 3);
        let collect = |i: usize| rows.row(i).collect::<Vec<_>>();
        assert_eq!(collect(0), vec![(0, 1.0), (2, 4.0)]);
        assert_eq!(collect(1), vec![(1, 3.0), (2, 5.0)]);
        assert_eq!(collect(2), vec![(0, -2.0), (2, 6.0)]);
    }

    #[test]
    fn columns_transposed_from_rows_match_columns_pushed_one_by_one() {
        // Rows with zero entries, empty rows and columns no row touches.
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let (n_rows, n_cols) = (30, 25);
        let rows: Vec<Vec<(usize, f64)>> = (0..n_rows)
            .map(|_| {
                (0..rng.gen_range(0..6usize))
                    .map(|_| {
                        let v = if rng.gen_bool(0.2) {
                            0.0
                        } else {
                            rng.gen_range(-3.0..3.0)
                        };
                        (rng.gen_range(0..n_cols), v)
                    })
                    .collect()
            })
            .collect();
        let transposed = ColMatrix::from_rows(n_cols, rows.iter().map(|r| r.iter().copied()));
        let mut pushed = ColMatrix::new(n_rows);
        for j in 0..n_cols {
            pushed.push_col(rows.iter().enumerate().flat_map(|(i, r)| {
                r.iter()
                    .filter(move |&&(c, _)| c == j)
                    .map(move |&(_, v)| (i, v))
            }));
        }
        assert_eq!(transposed.n_rows(), n_rows);
        assert_eq!(transposed.n_cols(), n_cols);
        assert_eq!(transposed.nnz(), pushed.nnz());
        for j in 0..n_cols {
            let col = |m: &ColMatrix| m.col(j).map(|(r, v)| (r, v.to_bits())).collect::<Vec<_>>();
            assert_eq!(col(&transposed), col(&pushed), "column {j}");
        }
    }

    /// Column `q` of `m` scattered to its rows' pivot positions (`P·a_q`),
    /// and the first position it touches.
    fn in_positions(lu: &SparseLu, m: &ColMatrix, q: usize) -> (Vec<f64>, usize) {
        let mut x = vec![0.0; m.n_rows()];
        let mut first = m.n_rows();
        for (r, v) in m.col(q) {
            let p = lu.position_of(r);
            x[p] += v;
            first = first.min(p);
        }
        (x, first)
    }

    /// The positions where `v` is nonzero, ascending.
    fn nonzeros(v: &[f64]) -> Vec<usize> {
        (0..v.len()).filter(|&p| v[p] != 0.0).collect()
    }

    #[test]
    fn sparse_solves_agree_with_dense_solves() {
        // Diagonally dominated random matrices, then siting-shaped bases.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut bases: Vec<ColMatrix> = (0..30)
            .map(|trial| {
                let n = 5 + trial % 11;
                let mut rows: Vec<Vec<f64>> = vec![vec![0.0; n]; n];
                for (i, row) in rows.iter_mut().enumerate() {
                    for (j, cell) in row.iter_mut().enumerate() {
                        if rng.gen_bool(0.35) {
                            *cell = rng.gen_range(-2.0..2.0);
                        }
                        if i == j {
                            *cell += 4.0;
                        }
                    }
                }
                let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
                dense_to_cols(&refs)
            })
            .collect();
        let sizes: &[usize] = if cfg!(miri) { &[24] } else { &[24, 90, 400] };
        for &n in sizes {
            for _ in 0..4 {
                bases.push(siting_shaped_basis(&mut rng, n, false));
            }
        }
        let mut scratch = Vec::new();
        let (mut nz, mut spare) = (Vec::new(), Vec::new());
        let mut solved = 0;
        for m in &bases {
            let Ok(lu) = SparseLu::factorize(m) else {
                continue;
            };
            let n = m.n_rows();
            let order = lu.col_order();

            // In-place FTRAN of a random column == dense FTRAN of the same,
            // position p holding basis column order[p].
            let q = rng.gen_range(0..n);
            let mut dense = vec![0.0; n];
            for (r, v) in m.col(q) {
                dense[r] = v;
            }
            lu.ftran(&mut dense, &mut scratch);
            let (mut x, first) = in_positions(&lu, m, q);
            lu.ftran_in_place(&mut x, first, &mut nz);
            for p in 0..n {
                assert!(
                    (dense[order[p]] - x[p]).abs() < 1e-12,
                    "n={n}: in-place ftran mismatch at position {p}"
                );
            }
            assert_eq!(nz, nonzeros(&x), "n={n}: ftran nonzero list");

            // In-place BTRAN of a unit vector == dot-product BTRAN, row
            // row_at(p) holding position p.
            let k = rng.gen_range(0..n);
            let mut dots = vec![0.0; n];
            dots[k] = 1.0;
            btran_dot_products(&lu, &mut dots, &mut scratch);
            let p0 = (0..n).find(|&p| order[p] == k).expect("a permutation");
            let mut y = vec![0.0; n];
            y[p0] = 1.0;
            lu.btran_in_place(&mut y, p0, &mut nz, &mut spare);
            for p in 0..n {
                assert!(
                    (dots[lu.row_at(p)] - y[p]).abs() < 1e-12,
                    "n={n}: in-place btran mismatch at position {p}"
                );
            }
            assert_eq!(nz, nonzeros(&y), "n={n}: btran nonzero list");
            solved += 1;
        }
        assert!(solved > 30, "{solved} bases solved");
    }

    /// The solves with both `L` sweeps over every position, as they ran
    /// before [`SparseLu`] listed its nonempty `L` columns: the reference
    /// the listed sweeps must match bit for bit.
    fn ftran_full_sweeps(lu: &SparseLu, x: &mut [f64]) {
        let n = lu.n;
        for k in 0..n {
            let yk = x[k];
            if yk != 0.0 {
                for t in lu.l_ptr[k]..lu.l_ptr[k + 1] {
                    x[lu.l_idx[t]] -= lu.l_val[t] * yk;
                }
            }
        }
        for k in (0..n).rev() {
            let xk = x[k] / lu.u_diag[k];
            x[k] = xk;
            if xk != 0.0 {
                for t in lu.u_ptr[k]..lu.u_ptr[k + 1] {
                    x[lu.u_idx[t]] -= lu.u_val[t] * xk;
                }
            }
        }
    }

    /// See [`ftran_full_sweeps`].
    fn btran_full_sweeps(lu: &SparseLu, y: &mut [f64]) {
        let n = lu.n;
        for k in 0..n {
            let s = y[k];
            if s == 0.0 {
                continue;
            }
            let wk = s / lu.u_diag[k];
            y[k] = wk;
            for t in lu.ur_ptr[k]..lu.ur_ptr[k + 1] {
                y[lu.ur_idx[t]] -= lu.ur_val[t] * wk;
            }
        }
        for k in (0..n).rev() {
            let mut s = y[k];
            for t in lu.l_ptr[k]..lu.l_ptr[k + 1] {
                s -= lu.l_val[t] * y[lu.l_idx[t]];
            }
            y[k] = s;
        }
    }

    #[test]
    fn l_sweeps_over_nonempty_columns_are_bit_identical_to_full_sweeps() {
        let sizes: &[usize] = if cfg!(miri) {
            &[8, 24]
        } else {
            &[8, 24, 90, 400, 1500]
        };
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let (mut nz, mut spare) = (Vec::new(), Vec::new());
        let (mut solves, mut skipped) = (0, 0);
        for &n in sizes {
            for trial in 0..6 {
                let Ok(lu) = SparseLu::factorize(&siting_shaped_basis(&mut rng, n, false)) else {
                    continue;
                };
                skipped += n - lu.l_nonempty.len();
                // A unit vector, 3–6 nonzeros, and a dense right-hand side.
                for kind in 0..3 {
                    let mut c = vec![0.0; n];
                    match kind {
                        0 => c[rng.gen_range(0..n)] = 1.0,
                        1 => {
                            for _ in 0..rng.gen_range(3..7) {
                                c[rng.gen_range(0..n)] = rng.gen_range(-2.0..2.0);
                            }
                        }
                        _ => c.iter_mut().for_each(|x| *x = rng.gen_range(-2.0..2.0)),
                    }
                    let first = c.iter().position(|&v| v != 0.0).unwrap_or(n);
                    let mut full = c.clone();
                    ftran_full_sweeps(&lu, &mut full);
                    let mut listed = c.clone();
                    lu.ftran_in_place(&mut listed, first, &mut nz);
                    assert_eq!(
                        bits_up_to_zero_sign(&listed),
                        bits_up_to_zero_sign(&full),
                        "ftran n={n} trial={trial} kind={kind}"
                    );
                    let mut full = c.clone();
                    btran_full_sweeps(&lu, &mut full);
                    let mut listed = c;
                    lu.btran_in_place(&mut listed, first, &mut nz, &mut spare);
                    assert_eq!(
                        bits_up_to_zero_sign(&listed),
                        bits_up_to_zero_sign(&full),
                        "btran n={n} trial={trial} kind={kind}"
                    );
                    assert_eq!(
                        nz,
                        nonzeros(&listed),
                        "btran n={n} trial={trial} kind={kind}"
                    );
                    solves += 1;
                }
            }
        }
        // The listed sweeps must have skipped positions with empty L
        // columns for the comparison to mean anything.
        assert!(
            solves > 0 && skipped > 0,
            "solves {solves}, skipped {skipped}"
        );
    }

    #[test]
    fn random_matrices_round_trip() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for trial in 0..20 {
            let n = 4 + trial % 13;
            // Diagonally-dominated random matrix: always nonsingular.
            let mut rows: Vec<Vec<f64>> = vec![vec![0.0; n]; n];
            for (i, row) in rows.iter_mut().enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    if rng.gen_bool(0.4) {
                        *cell = rng.gen_range(-2.0..2.0);
                    }
                    if i == j {
                        *cell += 4.0;
                    }
                }
            }
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            assert_solves(&refs);
        }
    }

    /// [`SparseLu::factorize`] without the symbolic reach: every earlier
    /// pivot is probed for every column (`for p in 0..k`), `O(n²)` probes
    /// in all. The reference the reach must match bit for bit.
    fn factorize_dense_scan(basis: &ColMatrix) -> Result<SparseLu, FactorizeError> {
        let n = basis.n_rows();
        if basis.n_cols() != n {
            return Err(FactorizeError::NotSquare {
                rows: n,
                cols: basis.n_cols(),
            });
        }
        let mut lu = SparseLu {
            n,
            l_ptr: vec![0],
            u_ptr: vec![0],
            u_diag: vec![0.0; n],
            row_of: vec![usize::MAX; n],
            pos_of: vec![usize::MAX; n],
            ..SparseLu::default()
        };
        lu.triangular_order(basis, &(0..n).collect::<Vec<_>>());
        let mut x = vec![0.0; n];
        let mut mark = vec![false; n];
        let mut touched: Vec<usize> = Vec::new();
        for k in 0..n {
            for (r, v) in basis.col(lu.col_of[k]) {
                if !mark[r] {
                    mark[r] = true;
                    touched.push(r);
                }
                x[r] += v;
            }
            for p in 0..k {
                let pr = lu.row_of[p];
                let xp = x[pr];
                if xp == 0.0 {
                    continue;
                }
                lu.u_idx.push(p);
                lu.u_val.push(xp);
                for t in lu.l_ptr[p]..lu.l_ptr[p + 1] {
                    let r = lu.l_idx[t];
                    if !mark[r] {
                        mark[r] = true;
                        touched.push(r);
                    }
                    x[r] -= lu.l_val[t] * xp;
                }
                x[pr] = 0.0;
            }
            lu.u_ptr.push(lu.u_idx.len());
            let mut piv_row = usize::MAX;
            let mut piv_abs = PIVOT_TOL;
            for &r in &touched {
                if lu.pos_of[r] == usize::MAX && x[r].abs() > piv_abs {
                    piv_abs = x[r].abs();
                    piv_row = r;
                }
            }
            if piv_row == usize::MAX {
                return Err(singular(&lu.col_of, &lu.pos_of, k));
            }
            let piv_val = x[piv_row];
            lu.u_diag[k] = piv_val;
            lu.row_of[k] = piv_row;
            lu.pos_of[piv_row] = k;
            for &r in &touched {
                if r != piv_row && lu.pos_of[r] == usize::MAX && x[r] != 0.0 {
                    lu.l_idx.push(r);
                    lu.l_val.push(x[r] / piv_val);
                }
            }
            lu.l_ptr.push(lu.l_idx.len());
            for &r in &touched {
                x[r] = 0.0;
                mark[r] = false;
            }
            touched.clear();
        }
        for idx in &mut lu.l_idx {
            *idx = lu.pos_of[*idx];
        }
        lu.index_u_rows();
        Ok(lu)
    }

    /// [`SparseLu::btran`] with a dot product per position in the `Uᵀ`
    /// sweep, as it ran before the row copy of `U`: every `U` entry from
    /// the first nonzero position on is read. The reference the row-wise
    /// sweep must match bit for bit.
    fn btran_dot_products(lu: &SparseLu, c: &mut [f64], scratch: &mut Vec<f64>) {
        let n = lu.n;
        scratch.resize(n, 0.0);
        let first = (0..n).find(|&k| c[lu.col_of[k]] != 0.0).unwrap_or(n);
        scratch[..first].fill(0.0);
        for k in first..n {
            let mut s = c[lu.col_of[k]];
            for t in lu.u_ptr[k]..lu.u_ptr[k + 1] {
                s -= lu.u_val[t] * scratch[lu.u_idx[t]];
            }
            scratch[k] = if s != 0.0 { s / lu.u_diag[k] } else { 0.0 };
        }
        for k in (0..n).rev() {
            let mut s = scratch[k];
            for t in lu.l_ptr[k]..lu.l_ptr[k + 1] {
                s -= lu.l_val[t] * scratch[lu.l_idx[t]];
            }
            scratch[k] = s;
        }
        for p in 0..n {
            c[lu.row_of[p]] = scratch[p];
        }
    }

    /// Bit patterns with both zeros mapped to `+0`: the row-wise sweep may
    /// differ from the dot products in the sign of a zero only.
    fn bits_up_to_zero_sign(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|&x| if x == 0.0 { 0 } else { x.to_bits() })
            .collect()
    }

    /// A basis shaped like the siting LP's: ±1 unit slack columns, runs of
    /// bidiagonal battery-chain columns (level `t` in the balance rows of
    /// hours `t` and `t+1`), and a bump of ±1 columns coupling the chain
    /// and bump rows, whose eliminations fill in and cancel exactly. Every
    /// column owns a distinct home row, so a draw is structurally
    /// nonsingular; `dependent` copies one column over another to force an
    /// exact dependency.
    fn siting_shaped_basis(rng: &mut ChaCha8Rng, n: usize, dependent: bool) -> ColMatrix {
        fn unit(rng: &mut ChaCha8Rng) -> f64 {
            if rng.gen_bool(0.5) {
                1.0
            } else {
                -1.0
            }
        }
        let mut home: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            home.swap(i, rng.gen_range(0..i + 1));
        }
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut bump = Vec::new();
        while cols.len() < n {
            let j = cols.len();
            match rng.gen_range(0..10) {
                0..=4 => cols.push(vec![(home[j], unit(rng))]),
                5..=7 => {
                    let len = rng.gen_range(2..16).min(n - j);
                    let decay = if rng.gen_bool(0.5) { -1.0 } else { -0.9 };
                    for i in 0..len {
                        let mut col = vec![(home[j + i], 1.0)];
                        if i + 1 < len {
                            col.push((home[j + i + 1], decay));
                        }
                        cols.push(col);
                    }
                }
                _ => {
                    bump.push(j);
                    cols.push(vec![(home[j], unit(rng))]);
                }
            }
        }
        // Couple the bump columns mostly to each other's home rows, so a
        // cyclic core survives the triangular preorder and fills L, and
        // sometimes to a chain row.
        let chain: Vec<usize> = (0..n).filter(|&j| cols[j].len() > 1).collect();
        for &j in &bump {
            for _ in 0..rng.gen_range(1..4) {
                let owner = if chain.is_empty() || rng.gen_bool(0.75) {
                    bump[rng.gen_range(0..bump.len())]
                } else {
                    chain[rng.gen_range(0..chain.len())]
                };
                cols[j].push((home[owner], unit(rng)));
            }
        }
        if dependent && n > 1 {
            let from = rng.gen_range(0..n);
            let to = (from + rng.gen_range(1..n)) % n;
            cols[to] = cols[from].clone();
        }
        let mut b = ColMatrix::new(n);
        for col in cols {
            b.push_col(col);
        }
        b
    }

    #[test]
    fn symbolic_reach_is_bit_identical_to_dense_scan() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Miri interprets every probe of the quadratic reference, so it
        // checks the same property on small bases only.
        let sizes: &[usize] = if cfg!(miri) {
            &[3, 8, 24]
        } else {
            &[3, 8, 24, 90, 400, 1500]
        };
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let (mut factored, mut singular, mut filled) = (0, 0, 0);
        for &n in sizes {
            for trial in 0..8 {
                let b = siting_shaped_basis(&mut rng, n, trial % 4 == 3);
                match (SparseLu::factorize(&b), factorize_dense_scan(&b)) {
                    (Ok(reach), Ok(scan)) => {
                        assert_eq!(reach.l_ptr, scan.l_ptr, "n={n} trial={trial}");
                        assert_eq!(reach.l_idx, scan.l_idx, "n={n} trial={trial}");
                        assert_eq!(bits(&reach.l_val), bits(&scan.l_val), "n={n} trial={trial}");
                        assert_eq!(reach.u_ptr, scan.u_ptr, "n={n} trial={trial}");
                        assert_eq!(reach.u_idx, scan.u_idx, "n={n} trial={trial}");
                        assert_eq!(bits(&reach.u_val), bits(&scan.u_val), "n={n} trial={trial}");
                        assert_eq!(
                            bits(&reach.u_diag),
                            bits(&scan.u_diag),
                            "n={n} trial={trial}"
                        );
                        assert_eq!(reach.row_of, scan.row_of, "n={n} trial={trial}");
                        assert_eq!(reach.col_of, scan.col_of, "n={n} trial={trial}");
                        factored += 1;
                        if !reach.l_idx.is_empty() {
                            filled += 1;
                        }
                    }
                    (
                        Err(FactorizeError::Singular { col, pivoted }),
                        Err(FactorizeError::Singular {
                            col: scan_col,
                            pivoted: scan_pivoted,
                        }),
                    ) => {
                        assert_eq!(col, scan_col, "n={n} trial={trial}");
                        assert_eq!(pivoted, scan_pivoted, "n={n} trial={trial}");
                        singular += 1;
                    }
                    (reach, scan) => panic!(
                        "n={n} trial={trial}: reach gave {:?}, dense scan gave {:?}",
                        reach.err().map(|e| e.to_string()),
                        scan.err().map(|e| e.to_string())
                    ),
                }
            }
        }
        // The draws must exercise elimination through L and both outcomes.
        assert!(
            factored > 0 && singular > 0 && filled > 0,
            "factored {factored}, singular {singular}, with L entries {filled}"
        );
    }

    /// Asserts that `got` holds the same factors as `want`, bit for bit.
    fn assert_same_factors(got: &SparseLu, want: &SparseLu, case: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.l_ptr, want.l_ptr, "{case}");
        assert_eq!(got.l_idx, want.l_idx, "{case}");
        assert_eq!(bits(&got.l_val), bits(&want.l_val), "{case}");
        assert_eq!(got.u_ptr, want.u_ptr, "{case}");
        assert_eq!(got.u_idx, want.u_idx, "{case}");
        assert_eq!(bits(&got.u_val), bits(&want.u_val), "{case}");
        assert_eq!(bits(&got.u_diag), bits(&want.u_diag), "{case}");
        assert_eq!(got.ur_ptr, want.ur_ptr, "{case}");
        assert_eq!(got.ur_idx, want.ur_idx, "{case}");
        assert_eq!(bits(&got.ur_val), bits(&want.ur_val), "{case}");
        assert_eq!(got.row_of, want.row_of, "{case}");
        assert_eq!(got.col_of, want.col_of, "{case}");
    }

    #[test]
    fn copy_free_factorization_is_bit_identical_to_dense_scan() {
        // Each basis's columns sit at shuffled indices of a wider store,
        // between decoy columns, and one `SparseLu` refactors every draw in
        // turn, singular ones included, so its reused work arrays carry
        // over from factorizations that succeeded and that failed.
        let sizes: &[usize] = if cfg!(miri) {
            &[3, 8, 24]
        } else {
            &[3, 8, 24, 90, 400, 1500]
        };
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut lu = SparseLu::default();
        let (mut factored, mut singular, mut singletons) = (0, 0, 0);
        for &n in sizes {
            for trial in 0..8 {
                let b = siting_shaped_basis(&mut rng, n, trial % 4 == 3);
                let width = 2 * n;
                let mut at: Vec<usize> = (0..width).collect();
                for i in (1..width).rev() {
                    at.swap(i, rng.gen_range(0..i + 1));
                }
                let basis = &at[..n];
                let mut store = ColMatrix::new(n);
                for j in 0..width {
                    match basis.iter().position(|&a| a == j) {
                        Some(k) => store.push_col(b.col(k)),
                        None => store.push_col([(rng.gen_range(0..n), 1.0), (0, -2.0)]),
                    }
                }
                singletons += (0..n).filter(|&k| b.col(k).count() == 1).count();
                let case = format!("n={n} trial={trial}");
                match (lu.refactor(&store, basis), factorize_dense_scan(&b)) {
                    (Ok(()), Ok(scan)) => {
                        assert_same_factors(&lu, &scan, &case);
                        factored += 1;
                    }
                    (
                        Err(FactorizeError::Singular { col, pivoted }),
                        Err(FactorizeError::Singular {
                            col: scan_col,
                            pivoted: scan_pivoted,
                        }),
                    ) => {
                        assert_eq!(col, scan_col, "{case}");
                        assert_eq!(pivoted, scan_pivoted, "{case}");
                        singular += 1;
                    }
                    (got, scan) => panic!(
                        "{case}: refactor gave {:?}, dense scan gave {:?}",
                        got.err().map(|e| e.to_string()),
                        scan.err().map(|e| e.to_string())
                    ),
                }
            }
        }
        assert!(
            factored > 0 && singular > 0 && singletons > 0,
            "factored {factored}, singular {singular}, singleton columns {singletons}"
        );
    }

    #[test]
    fn row_wise_btran_is_bit_identical_to_dot_products() {
        let sizes: &[usize] = if cfg!(miri) {
            &[3, 8, 24]
        } else {
            &[3, 8, 24, 90, 400, 1500]
        };
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut scratch = Vec::new();
        let (mut solves, mut multi_term) = (0, 0);
        for &n in sizes {
            for trial in 0..8 {
                let Ok(lu) = SparseLu::factorize(&siting_shaped_basis(&mut rng, n, false)) else {
                    continue;
                };
                multi_term += (0..n)
                    .filter(|&k| lu.u_ptr[k + 1] - lu.u_ptr[k] >= 2)
                    .count();
                // A unit vector (a pivot row's eᵣ), 3–6 nonzeros, and a
                // dense right-hand side (a dual BTRAN of basic costs).
                for kind in 0..3 {
                    let mut c = vec![0.0; n];
                    match kind {
                        0 => c[rng.gen_range(0..n)] = 1.0,
                        1 => {
                            for _ in 0..rng.gen_range(3..7) {
                                c[rng.gen_range(0..n)] = rng.gen_range(-2.0..2.0);
                            }
                        }
                        _ => c.iter_mut().for_each(|x| *x = rng.gen_range(-2.0..2.0)),
                    }
                    let mut rows = c.clone();
                    lu.btran(&mut rows, &mut scratch);
                    let mut dots = c;
                    btran_dot_products(&lu, &mut dots, &mut scratch);
                    assert_eq!(
                        bits_up_to_zero_sign(&rows),
                        bits_up_to_zero_sign(&dots),
                        "n={n} trial={trial} kind={kind}"
                    );
                    solves += 1;
                }
            }
        }
        // Positions that sum two or more U terms are where an order change
        // would show.
        assert!(
            solves > 0 && multi_term > 0,
            "solves {solves}, multi-term columns {multi_term}"
        );
    }
}
