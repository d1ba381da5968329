//! Sparse LU factorization of simplex basis matrices.
//!
//! The revised simplex refactorizes its basis every few dozen pivots. Basis
//! matrices arising from the siting formulation are extremely sparse (3–6
//! nonzeros per column), so a dense factorization would dominate solve time.
//! [`SparseLu`] implements a left-looking column LU with partial pivoting:
//! `P·B·Q = L·U` with `L` unit lower triangular and `U` upper triangular,
//! both stored column-wise in pivot-position space. Each column is
//! eliminated only over its symbolic reach — the earlier pivots its
//! nonzeros can reach through `L` (Gilbert–Peierls) — so factorization costs
//! `O(nnz(B) + flops)` plus a sort of each reach, not `O(n²)` probes of
//! every earlier pivot. Triangular solves use a dense workspace. FTRAN
//! costs `O(n)` index arithmetic plus the `L` and `U` columns of the
//! positions whose value is nonzero. BTRAN solves `Uᵀ` row-wise over a row
//! copy of `U` built once per factorization, so it costs `O(n)` plus the
//! `U` rows of the nonzero positions, and then `Lᵀ` by dot products in
//! `O(n + nnz(L))`.

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
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
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

/// A row-wise (CSR) mirror of a [`ColMatrix`].
///
/// The revised simplex prices by pivot row: `αᵣ = ρᵀ·A` where `ρ = B⁻ᵀ·eᵣ`
/// is hyper-sparse on the siting bases. With only column access, forming
/// the pivot row means scanning every column of `A` — `O(nnz(A))` per
/// pivot. With a row mirror it is a gather over the rows where `ρ` is
/// nonzero: `O(Σ_{ρᵢ≠0} nnz(rowᵢ))`, typically a few dozen entries.
///
/// The mirror is immutable and built once per solve; the column form stays
/// the source of truth for FTRANs and factorization.
#[derive(Debug, Clone, Default)]
pub struct RowMatrix {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl RowMatrix {
    /// Builds the CSR mirror of `cols` (two-pass counting transpose,
    /// `O(nnz)`): the compressed columns of `colsᵀ`, whose rows are the
    /// columns of `cols`.
    pub fn from_cols(cols: &ColMatrix) -> Self {
        let t = ColMatrix::from_rows(cols.n_rows(), (0..cols.n_cols()).map(|j| cols.col(j)));
        Self {
            row_ptr: t.col_ptr,
            col_idx: t.row_idx,
            values: t.values,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.row_ptr.len().saturating_sub(1)
    }

    /// The `(column, value)` entries of row `i`, in column order.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
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
    /// `col_of[p]` = original column factored at position `p` (the
    /// triangularization preorder: `P·B·Q = L·U`).
    col_of: Vec<usize>,
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
        /// Zero-based position of the failing column.
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

/// Computes a fill-reducing column order for a simplex basis: the classic
/// doubly-bordered triangularization. Column singletons peel to the front
/// (their L columns are empty, so later eliminations through them create no
/// fill), row singletons peel to the back in reverse (their off-pivot
/// entries land in U), and only the residual "bump" — ordered sparsest
/// column first — can fill in. Simplex bases are mostly slacks and
/// chain-structured columns, so the bump is typically tiny; without this
/// preorder the plain left-looking factorization was observed to fill a
/// 1.3k-row siting basis from ~4k to ~90k nonzeros, making LU solves (and
/// refactorization itself) the dominant solver cost.
fn triangular_order(b: &ColMatrix) -> Vec<usize> {
    let n = b.n_rows();
    let rows = RowMatrix::from_cols(b);
    let mut ccnt: Vec<usize> = (0..n).map(|j| b.col(j).count()).collect();
    let mut rcnt: Vec<usize> = (0..n).map(|r| rows.row(r).count()).collect();
    let mut col_active = vec![true; n];
    let mut row_active = vec![true; n];
    let mut col_stack: Vec<usize> = (0..n).filter(|&j| ccnt[j] == 1).collect();
    let mut row_stack: Vec<usize> = (0..n).filter(|&r| rcnt[r] == 1).collect();
    let mut front: Vec<usize> = Vec::with_capacity(n);
    let mut back: Vec<usize> = Vec::new();

    // Peel until neither kind of singleton remains. Stack entries can go
    // stale as counts change; validity is re-checked on pop.
    loop {
        let mut peeled: Option<(usize, usize, bool)> = None; // (col, row, to front)
        while let Some(j) = col_stack.pop() {
            if col_active[j] && ccnt[j] == 1 {
                // A stale count with no active row left just means this
                // column misses its singleton turn and falls through to
                // the bump — the preorder is a fill heuristic, never a
                // correctness requirement, so degrade instead of panicking.
                match b.col(j).map(|(r, _)| r).find(|&r| row_active[r]) {
                    Some(r) => {
                        peeled = Some((j, r, true));
                        break;
                    }
                    None => continue,
                }
            }
        }
        if peeled.is_none() {
            while let Some(r) = row_stack.pop() {
                if row_active[r] && rcnt[r] == 1 {
                    match rows.row(r).map(|(j, _)| j).find(|&j| col_active[j]) {
                        Some(j) => {
                            peeled = Some((j, r, false));
                            break;
                        }
                        None => continue,
                    }
                }
            }
        }
        let Some((j, r, to_front)) = peeled else {
            break;
        };
        if to_front {
            front.push(j);
        } else {
            back.push(j);
        }
        col_active[j] = false;
        for (r2, _) in b.col(j) {
            if row_active[r2] {
                rcnt[r2] -= 1;
                if rcnt[r2] == 1 {
                    row_stack.push(r2);
                }
            }
        }
        row_active[r] = false;
        for (j2, _) in rows.row(r) {
            if col_active[j2] {
                ccnt[j2] -= 1;
                if ccnt[j2] == 1 {
                    col_stack.push(j2);
                }
            }
        }
    }

    // The bump: whatever the peel could not order, sparsest column first
    // (deterministic tie-break on index).
    let mut bump: Vec<usize> = (0..n).filter(|&j| col_active[j]).collect();
    bump.sort_unstable_by_key(|&j| (ccnt[j], j));
    front.extend(bump);
    back.reverse();
    front.extend(back);
    front
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
        let n = basis.n_rows();
        if basis.n_cols() != n {
            return Err(FactorizeError::NotSquare {
                rows: n,
                cols: basis.n_cols(),
            });
        }
        let mut lu = SparseLu {
            n,
            l_ptr: Vec::with_capacity(n + 1),
            l_idx: Vec::new(),
            l_val: Vec::new(),
            u_ptr: Vec::with_capacity(n + 1),
            u_idx: Vec::new(),
            u_val: Vec::new(),
            u_diag: vec![0.0; n],
            ur_ptr: Vec::new(),
            ur_idx: Vec::new(),
            ur_val: Vec::new(),
            row_of: vec![usize::MAX; n],
            pos_of: vec![usize::MAX; n],
            col_of: triangular_order(basis),
        };
        lu.l_ptr.push(0);
        lu.u_ptr.push(0);

        // Dense workspace indexed by ORIGINAL row index, plus the list of
        // touched entries for sparse reset. Membership must be tracked with
        // an explicit mark — testing `x[r] == 0.0` would re-add a row whose
        // value cancelled exactly to zero, duplicating entries in L.
        let mut x = vec![0.0; n];
        let mut mark = vec![false; n];
        let mut touched: Vec<usize> = Vec::with_capacity(64);
        // Symbolic reach of the current column: `seen[p] == k` stamps
        // position p as reached for column k, so it never needs clearing.
        let mut seen = vec![usize::MAX; n];
        let mut reach: Vec<usize> = Vec::with_capacity(64);

        for k in 0..n {
            // Scatter the column ordered at position k, seeding the reach
            // with the positions of its already-pivoted rows.
            for (r, v) in basis.col(lu.col_of[k]) {
                if !mark[r] {
                    mark[r] = true;
                    touched.push(r);
                }
                x[r] += v;
                let p = lu.pos_of[r];
                if p != usize::MAX && seen[p] != k {
                    seen[p] = k;
                    reach.push(p);
                }
            }
            // Symbolic step (Gilbert–Peierls): pivot p can update the rows
            // of L column p only, so the positions whose value can become
            // nonzero are those reachable from the seeds through the L
            // columns built so far. Every other position holds an exact
            // 0.0, which the elimination below would skip anyway. `reach`
            // doubles as the traversal's worklist.
            let mut next = 0;
            while next < reach.len() {
                let p = reach[next];
                next += 1;
                for &r in &lu.l_idx[lu.l_ptr[p]..lu.l_ptr[p + 1]] {
                    let q = lu.pos_of[r];
                    if q != usize::MAX && seen[q] != k {
                        seen[q] = k;
                        reach.push(q);
                    }
                }
            }
            // L column p holds only rows pivoted after p, so ascending
            // position order is a topological order of the reach. It is
            // also the order a scan over every earlier pivot visits them
            // in, so the factors are bit-identical to that scan's (the
            // tests keep it as `factorize_dense_scan`).
            reach.sort_unstable();

            // Left-looking elimination over the reach: a pivot p only
            // updates rows that were not pivoted before p, so
            // increasing-order processing over original-row workspace is
            // exact. The work grows with the reach and the flops, not with
            // k.
            for &p in &reach {
                let pr = lu.row_of[p];
                let xp = x[pr];
                if xp == 0.0 {
                    continue;
                }
                // U[p, k] = xp; eliminate using L column p.
                lu.u_idx.push(p);
                lu.u_val.push(xp);
                let lo = lu.l_ptr[p];
                let hi = lu.l_ptr[p + 1];
                for t in lo..hi {
                    let r = lu.l_idx[t];
                    if !mark[r] {
                        mark[r] = true;
                        touched.push(r);
                    }
                    x[r] -= lu.l_val[t] * xp;
                }
                x[pr] = 0.0;
            }
            reach.clear();
            lu.u_ptr.push(lu.u_idx.len());

            // Partial pivot among unpivoted rows.
            let mut piv_row = usize::MAX;
            let mut piv_abs = PIVOT_TOL;
            for &r in &touched {
                if lu.pos_of[r] == usize::MAX {
                    let a = x[r].abs();
                    if a > piv_abs {
                        piv_abs = a;
                        piv_row = r;
                    }
                }
            }
            if piv_row == usize::MAX {
                return Err(FactorizeError::Singular {
                    col: lu.col_of[k],
                    pivoted: lu.pos_of.iter().map(|&p| p != usize::MAX).collect(),
                });
            }
            let piv_val = x[piv_row];
            lu.u_diag[k] = piv_val;
            lu.row_of[k] = piv_row;
            lu.pos_of[piv_row] = k;

            // L column k: remaining unpivoted nonzeros, scaled.
            for &r in &touched {
                if r != piv_row && lu.pos_of[r] == usize::MAX && x[r] != 0.0 {
                    lu.l_idx.push(r);
                    lu.l_val.push(x[r] / piv_val);
                }
            }
            lu.l_ptr.push(lu.l_idx.len());

            // Sparse reset.
            for &r in &touched {
                x[r] = 0.0;
                mark[r] = false;
            }
            touched.clear();
        }

        // Convert L's row indices from original-row space to position space so
        // the triangular solves are pure position-space sweeps.
        for idx in &mut lu.l_idx {
            *idx = lu.pos_of[*idx];
        }
        lu.index_u_rows();
        Ok(lu)
    }

    /// Builds the row copy of `U` from its columns (a counting transpose,
    /// `O(n + nnz(U))`). Columns are visited in ascending `k`, so each row
    /// lists its entries in ascending `k`.
    fn index_u_rows(&mut self) {
        let n = self.n;
        let mut ptr = vec![0usize; n + 1];
        for &p in &self.u_idx {
            ptr[p + 1] += 1;
        }
        for p in 0..n {
            ptr[p + 1] += ptr[p];
        }
        let nnz = self.u_idx.len();
        let mut idx = vec![0usize; nnz];
        let mut val = vec![0.0f64; nnz];
        let mut cursor = ptr.clone();
        for k in 0..n {
            for t in self.u_ptr[k]..self.u_ptr[k + 1] {
                let p = self.u_idx[t];
                idx[cursor[p]] = k;
                val[cursor[p]] = self.u_val[t];
                cursor[p] += 1;
            }
        }
        self.ur_ptr = ptr;
        self.ur_idx = idx;
        self.ur_val = val;
    }

    /// Nonzeros stored in the factors (fill-in indicator).
    pub fn fill_nnz(&self) -> usize {
        self.l_idx.len() + self.u_idx.len() + self.n
    }

    /// Solves `B·x = b` in place: `b` enters in original-row space and leaves
    /// as `x` in basis-column (position) space.
    pub fn ftran(&self, b: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(b.len(), self.n);
        scratch.resize(self.n, 0.0);
        // z = P·b
        for p in 0..self.n {
            scratch[p] = b[self.row_of[p]];
        }
        // L·y = z (forward, unit diagonal)
        for k in 0..self.n {
            let yk = scratch[k];
            if yk != 0.0 {
                for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                    scratch[self.l_idx[t]] -= self.l_val[t] * yk;
                }
            }
        }
        // U·x = y (backward)
        for k in (0..self.n).rev() {
            let xk = scratch[k] / self.u_diag[k];
            scratch[k] = xk;
            if xk != 0.0 {
                for t in self.u_ptr[k]..self.u_ptr[k + 1] {
                    scratch[self.u_idx[t]] -= self.u_val[t] * xk;
                }
            }
        }
        // x = Q·(position-space solution)
        for p in 0..self.n {
            b[self.col_of[p]] = scratch[p];
        }
    }

    /// Solves `B·x = b` for a *sparse* right-hand side given as `(row,
    /// value)` entries in original-row space, writing the solution (in
    /// basis-column space) into `out`, which must be all-zero on entry.
    ///
    /// Exploits hyper-sparsity two ways: the permutation gather of the
    /// dense path is replaced by scattering only the given entries, and the
    /// forward `L` sweep starts at the first pivot position the input
    /// touches (everything before it provably stays zero). The backward
    /// `U` sweep still spans all positions but skips zero values, so a
    /// single-column FTRAN on a near-triangular basis costs `O(n)` index
    /// arithmetic plus work proportional to the true fill.
    pub fn ftran_sparse<I: IntoIterator<Item = (usize, f64)>>(
        &self,
        entries: I,
        out: &mut [f64],
        scratch: &mut Vec<f64>,
    ) {
        debug_assert_eq!(out.len(), self.n);
        scratch.clear();
        scratch.resize(self.n, 0.0);
        let mut first = self.n;
        for (r, v) in entries {
            let p = self.pos_of[r];
            scratch[p] += v;
            if p < first {
                first = p;
            }
        }
        // L·y = P·b (forward, unit diagonal): positions before `first` are
        // zero on input and L is lower triangular, so they stay zero.
        for k in first..self.n {
            let yk = scratch[k];
            if yk != 0.0 {
                for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                    scratch[self.l_idx[t]] -= self.l_val[t] * yk;
                }
            }
        }
        // U·x = y (backward). Updates propagate toward position 0, so the
        // sweep cannot be truncated at `first`, only value-skipped.
        for k in (0..self.n).rev() {
            let xk = scratch[k];
            if xk != 0.0 {
                let xk = xk / self.u_diag[k];
                scratch[k] = xk;
                for t in self.u_ptr[k]..self.u_ptr[k + 1] {
                    scratch[self.u_idx[t]] -= self.u_val[t] * xk;
                }
            }
        }
        // x = Q·y, scattering only nonzeros into the caller's zeroed buffer.
        for p in 0..self.n {
            let v = scratch[p];
            if v != 0.0 {
                out[self.col_of[p]] = v;
            }
        }
    }

    /// Solves `Bᵀ·y = c` in place: `c` enters in basis-column space and
    /// leaves as `y` in original-row space.
    ///
    /// The forward `Uᵀ` sweep runs row-wise: once position `k` is final,
    /// its term leaves for every later position of `U` row `k`, and a
    /// position whose value is zero is skipped. So it costs `O(n)` plus the
    /// `U` rows of the nonzero positions, not every `U` entry from the
    /// first nonzero position on — the saving on a hyper-sparse right-hand
    /// side such as a pivot row's `eᵣ`. The backward `Lᵀ` sweep is a dot
    /// product per position, `O(n + nnz(L))`; `L` is small on simplex
    /// bases, and its columns are not stored in position order, so a
    /// row-wise `Lᵀ` would reorder its sums.
    ///
    /// `U`'s columns hold their entries in ascending position, so each
    /// position receives the same nonzero terms in the same order as a dot
    /// product over its `U` column would subtract them: the result is
    /// bit-identical to that dot product up to the sign of a zero.
    pub fn btran(&self, c: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(c.len(), self.n);
        scratch.resize(self.n, 0.0);
        // w = Qᵀ·c
        for k in 0..self.n {
            scratch[k] = c[self.col_of[k]];
        }
        // Uᵀ·w = Qᵀ·c (forward, row-wise).
        for k in 0..self.n {
            let s = scratch[k];
            if s == 0.0 {
                scratch[k] = 0.0;
                continue;
            }
            let wk = s / self.u_diag[k];
            scratch[k] = wk;
            for t in self.ur_ptr[k]..self.ur_ptr[k + 1] {
                scratch[self.ur_idx[t]] -= self.ur_val[t] * wk;
            }
        }
        // Lᵀ·v = w (backward, unit diagonal).
        for k in (0..self.n).rev() {
            let mut s = scratch[k];
            for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                s -= self.l_val[t] * scratch[self.l_idx[t]];
            }
            scratch[k] = s;
        }
        // y = Pᵀ·v
        for p in 0..self.n {
            c[self.row_of[p]] = scratch[p];
        }
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

    #[test]
    fn sparse_solves_agree_with_dense_solves() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for trial in 0..30 {
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
            let m = dense_to_cols(&refs);
            let lu = SparseLu::factorize(&m).expect("factorize");
            let mut scratch = Vec::new();

            // Sparse FTRAN of a random column == dense FTRAN of the same.
            let q = rng.gen_range(0..n);
            let mut dense = vec![0.0; n];
            for (r, v) in m.col(q) {
                dense[r] = v;
            }
            lu.ftran(&mut dense, &mut scratch);
            let mut sparse = vec![0.0; n];
            lu.ftran_sparse(m.col(q), &mut sparse, &mut scratch);
            for i in 0..n {
                assert!(
                    (dense[i] - sparse[i]).abs() < 1e-12,
                    "ftran_sparse mismatch at {i}"
                );
            }

            // Unit BTRAN, row-wise == dot products.
            let r = rng.gen_range(0..n);
            let mut rows = vec![0.0; n];
            rows[r] = 1.0;
            lu.btran(&mut rows, &mut scratch);
            let mut dots = vec![0.0; n];
            dots[r] = 1.0;
            btran_dot_products(&lu, &mut dots, &mut scratch);
            for i in 0..n {
                assert!(
                    (rows[i] - dots[i]).abs() < 1e-12,
                    "row-wise btran mismatch at {i}"
                );
            }
        }
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
            l_idx: Vec::new(),
            l_val: Vec::new(),
            u_ptr: vec![0],
            u_idx: Vec::new(),
            u_val: Vec::new(),
            u_diag: vec![0.0; n],
            ur_ptr: Vec::new(),
            ur_idx: Vec::new(),
            ur_val: Vec::new(),
            row_of: vec![usize::MAX; n],
            pos_of: vec![usize::MAX; n],
            col_of: triangular_order(basis),
        };
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
                return Err(FactorizeError::Singular {
                    col: lu.col_of[k],
                    pivoted: lu.pos_of.iter().map(|&p| p != usize::MAX).collect(),
                });
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
