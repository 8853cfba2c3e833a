//! Exact factorized representation of a simplex basis.
//!
//! The revised simplex ([`revised`](crate::revised)) never maintains a
//! transformed tableau. Instead it keeps the basis inverse `B⁻¹` in
//! *product form*: a sequence of elementary eta matrices produced by a
//! sparsity-ordered Gaussian elimination of the basis columns (the
//! (re)factorization — the exact-arithmetic analogue of an LU factor),
//! followed by one eta per simplex pivot since the last refactorization
//! (the Bartels–Golub/Forrest–Tomlin-style update file). Solves against
//! the basis are
//!
//! * **FTRAN** — `x = B⁻¹ a` (the transformed entering column / the
//!   transformed right-hand side), applying the etas in order, and
//! * **BTRAN** — `y = B⁻ᵀ c` (the simplex multipliers used for pricing,
//!   and unit rows for the artificial-cleanup and dual-ratio scans),
//!   applying the transposed etas in reverse.
//!
//! Everything is exact `Q` arithmetic: a factorization is *only* a
//! change of representation, so refactorizing at any point cannot change
//! any value the simplex ever compares — the pivot path is independent
//! of the refactorization schedule (a unit test in `revised.rs` pins
//! this).

use numeric::Q;

/// A sparse vector over row slots: `(slot, value)` pairs, ascending.
pub(crate) type SVec = Vec<(usize, Q)>;

/// One elementary transformation `E⁻¹`: applying it to `x` performs
/// `x[pivot] ← x[pivot] / u[pivot]` followed by
/// `x[i] ← x[i] − u[i] · x[pivot]` for every other stored entry.
///
/// The pivot entry `u[pivot]` is stored apart from the off-pivot
/// entries, so an application reads it directly instead of searching the
/// column for it, and skips the division when it is 1 (unit pivots are
/// the common case: slack and artificial columns, and refactorizations
/// prefer them). Both applications compute exactly the values the plain
/// formulas above do; only wasted work is skipped.
#[derive(Clone, Debug)]
pub(crate) struct Eta {
    pivot: usize,
    /// `u[pivot]`, nonzero.
    pivot_value: Q,
    /// Nonzero entries of the pivot column `u` other than the pivot
    /// entry; ascending by slot.
    off: SVec,
}

impl Eta {
    /// The eta of the pivot at `pivot` on the dense transformed column
    /// `u`.
    fn from_dense(pivot: usize, u: &[Q]) -> Self {
        debug_assert!(!u[pivot].is_zero(), "pivot element must be nonzero");
        let off: SVec = u
            .iter()
            .enumerate()
            .filter(|(i, v)| *i != pivot && !v.is_zero())
            .map(|(i, v)| (i, v.clone()))
            .collect();
        Eta { pivot, pivot_value: u[pivot].clone(), off }
    }

    /// Stored nonzeros, the pivot entry included: what the
    /// refactorization fill trigger counts.
    fn nnz(&self) -> usize {
        self.off.len() + 1
    }

    /// `v / u[pivot]`.
    fn divide_by_pivot(&self, v: Q) -> Q {
        if self.pivot_value.is_one() {
            v
        } else {
            v / self.pivot_value.clone()
        }
    }

    /// Forward application (`x ← E⁻¹ x`) on a dense vector.
    fn apply(&self, x: &mut [Q]) {
        if x[self.pivot].is_zero() {
            return;
        }
        let t = self.divide_by_pivot(std::mem::take(&mut x[self.pivot]));
        for (i, v) in &self.off {
            x[*i] = x[*i].clone() - v.clone() * t.clone();
        }
        x[self.pivot] = t;
    }

    /// Transposed application (`y ← E⁻ᵀ y`) on a dense vector: only the
    /// pivot component changes, to `(y_p − Σ_{i≠p} u_i y_i) / u_p`. When
    /// `y_p` and every `y_i` it reads are zero, that is 0 again, and the
    /// application returns at once.
    fn apply_transposed(&self, y: &mut [Q]) {
        let mut acc: Option<Q> = (!y[self.pivot].is_zero()).then(|| y[self.pivot].clone());
        for (i, v) in &self.off {
            if !y[*i].is_zero() {
                let term = v.clone() * y[*i].clone();
                acc = Some(match acc {
                    Some(a) => a - term,
                    None => -term,
                });
            }
        }
        if let Some(acc) = acc {
            y[self.pivot] = self.divide_by_pivot(acc);
        }
    }
}

/// Product-form factorization of a basis: `B⁻¹ = U · P · F` where `F` is
/// the eta product from the last (re)factorization, `P` the row
/// permutation its pivot choices induced, and `U` the per-pivot update
/// etas appended since.
#[derive(Clone, Debug)]
pub(crate) struct Factorization {
    m: usize,
    /// Etas from the last refactorization, in application order.
    factor: Vec<Eta>,
    /// `perm[slot]` = position the factorization pivots left that slot's
    /// value in; `None` while the factorization is the identity.
    perm: Option<Vec<usize>>,
    /// Update etas appended by simplex pivots, in application order.
    updates: Vec<Eta>,
    factor_nnz: usize,
    update_nnz: usize,
}

impl Factorization {
    /// The identity basis (`B = I`): no etas at all.
    pub(crate) fn identity(m: usize) -> Self {
        Factorization {
            m,
            factor: Vec::new(),
            perm: None,
            updates: Vec::new(),
            factor_nnz: 0,
            update_nnz: 0,
        }
    }

    pub(crate) fn update_count(&self) -> usize {
        self.updates.len()
    }

    pub(crate) fn update_nnz(&self) -> usize {
        self.update_nnz
    }

    pub(crate) fn factor_nnz(&self) -> usize {
        self.factor_nnz
    }

    /// `x = B⁻¹ a` for a sparse `a`, written into `out` (resized dense).
    pub(crate) fn ftran_sparse(&self, a: &SVec, out: &mut Vec<Q>) {
        out.clear();
        out.resize(self.m, Q::zero());
        for (i, v) in a {
            out[*i] = v.clone();
        }
        self.ftran_inplace(out);
    }

    /// `x ← B⁻¹ x` on an already-dense vector of length `m`.
    pub(crate) fn ftran_inplace(&self, x: &mut Vec<Q>) {
        debug_assert_eq!(x.len(), self.m);
        for eta in &self.factor {
            eta.apply(x);
        }
        if let Some(perm) = &self.perm {
            let mut permuted = vec![Q::zero(); self.m];
            for (slot, &pos) in perm.iter().enumerate() {
                permuted[slot] = std::mem::take(&mut x[pos]);
            }
            *x = permuted;
        }
        for eta in &self.updates {
            eta.apply(x);
        }
    }

    /// `y ← B⁻ᵀ y` on a dense vector of length `m` (slot space in,
    /// constraint space out).
    pub(crate) fn btran_inplace(&self, y: &mut Vec<Q>) {
        debug_assert_eq!(y.len(), self.m);
        for eta in self.updates.iter().rev() {
            eta.apply_transposed(y);
        }
        if let Some(perm) = &self.perm {
            let mut permuted = vec![Q::zero(); self.m];
            for (slot, &pos) in perm.iter().enumerate() {
                permuted[pos] = std::mem::take(&mut y[slot]);
            }
            *y = permuted;
        }
        for eta in self.factor.iter().rev() {
            eta.apply_transposed(y);
        }
    }

    /// Record a simplex pivot at `(slot, u)` where `u = B⁻¹ A_q` is the
    /// transformed entering column (dense). `u[slot]` must be nonzero.
    pub(crate) fn append_update(&mut self, slot: usize, u: &[Q]) {
        let eta = Eta::from_dense(slot, u);
        self.update_nnz += eta.nnz();
        self.updates.push(eta);
    }

    /// Rebuild `F`/`P` from scratch out of the given basis columns
    /// (`cols[slot]` = the original-space column basic in `slot`) and
    /// clear the update file. Columns are eliminated sparsest-first with
    /// free row-pivot choice (unit pivots preferred) — the sparsity
    /// heuristic of an LU refactorization. Panics if the columns are
    /// singular, which a legal pivot sequence can never produce.
    pub(crate) fn refactor(&mut self, cols: &[&SVec]) {
        assert_eq!(cols.len(), self.m, "one basis column per row slot");
        self.factor.clear();
        self.updates.clear();
        self.perm = None;
        self.factor_nnz = 0;
        self.update_nnz = 0;
        let mut perm = vec![usize::MAX; self.m];
        let mut pivoted = vec![false; self.m];
        let mut order: Vec<usize> = (0..self.m).collect();
        order.sort_by_key(|&s| (cols[s].len(), s));
        let mut x: Vec<Q> = Vec::new();
        for slot in order {
            let pos = self
                .eliminate(cols[slot], &pivoted, &mut x)
                .expect("basis columns of a legal pivot sequence are independent");
            perm[slot] = pos;
            pivoted[pos] = true;
        }
        self.perm = Some(perm);
    }

    /// One elimination step shared by [`refactor`](Self::refactor) and
    /// the warm-start crash: apply the factor etas built so far to `col`,
    /// pick a pivot position among the still-unpivoted slots (unit
    /// pivots preferred, then smallest index), append the eta, and
    /// return the chosen position — or `None` if the column is dependent
    /// on the already-eliminated ones.
    pub(crate) fn eliminate(
        &mut self,
        col: &SVec,
        pivoted: &[bool],
        x: &mut Vec<Q>,
    ) -> Option<usize> {
        debug_assert!(self.perm.is_none() && self.updates.is_empty(), "crash-phase only");
        x.clear();
        x.resize(self.m, Q::zero());
        for (i, v) in col {
            x[*i] = v.clone();
        }
        for eta in &self.factor {
            eta.apply(x);
        }
        let mut pos = None;
        for (i, v) in x.iter().enumerate() {
            if pivoted[i] || v.is_zero() {
                continue;
            }
            if v.is_one() || *v == -Q::one() {
                pos = Some(i);
                break;
            }
            if pos.is_none() {
                pos = Some(i);
            }
        }
        let pos = pos?;
        let eta = Eta::from_dense(pos, x);
        self.factor_nnz += eta.nnz();
        self.factor.push(eta);
        Some(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: i64) -> Q {
        Q::from_int(v)
    }

    /// Factor a dense 3×3 and check FTRAN/BTRAN against hand inverses.
    #[test]
    fn ftran_btran_roundtrip() {
        // B = [[2,0,1],[0,1,0],[0,1,3]] (columns in slot order).
        let cols: Vec<SVec> =
            vec![vec![(0, q(2))], vec![(1, q(1)), (2, q(1))], vec![(0, q(1)), (2, q(3))]];
        let mut f = Factorization::identity(3);
        f.refactor(&cols.iter().collect::<Vec<_>>());
        // B⁻¹ B e_k = e_k for every basis column.
        let mut x = Vec::new();
        for (k, c) in cols.iter().enumerate() {
            f.ftran_sparse(c, &mut x);
            for (i, v) in x.iter().enumerate() {
                assert_eq!(*v, if i == k { Q::one() } else { Q::zero() }, "col {k} slot {i}");
            }
        }
        // BTRAN: Bᵀ y = c  ⇔  y = B⁻ᵀ c; verify Bᵀ y = c.
        let mut y = vec![q(3), q(-1), q(5)];
        let c = y.clone();
        f.btran_inplace(&mut y);
        for (k, col) in cols.iter().enumerate() {
            let mut acc = Q::zero();
            for (i, v) in col {
                acc += v.clone() * y[*i].clone();
            }
            assert_eq!(acc, c[k], "col {k}");
        }
    }

    /// BTRAN of every unit vector — mostly zeros, so most etas see a
    /// zero pivot component with nonzero entries elsewhere, or nothing
    /// at all — solves `Bᵀ y = e_k`, through factor and update etas.
    #[test]
    fn btran_unit_vectors_through_updates() {
        let cols: Vec<SVec> = vec![
            vec![(0, q(2)), (2, q(1))],
            vec![(1, q(1)), (2, q(1))],
            vec![(0, q(1)), (2, q(3))],
        ];
        let mut f = Factorization::identity(3);
        f.refactor(&cols.iter().collect::<Vec<_>>());
        // Replace slot 0's column by a = (1, 2, 6) through an update eta
        // (its transformed pivot entry is -1/5).
        let a: SVec = vec![(0, q(1)), (1, q(2)), (2, q(6))];
        let mut u = Vec::new();
        f.ftran_sparse(&a, &mut u);
        f.append_update(0, &u);
        let basis = [a, cols[1].clone(), cols[2].clone()];
        for k in 0..3 {
            let mut y = vec![Q::zero(); 3];
            y[k] = Q::one();
            f.btran_inplace(&mut y);
            for (s, col) in basis.iter().enumerate() {
                let dot = Q::sum(col.iter().map(|(i, v)| v.clone() * y[*i].clone()));
                assert_eq!(dot, if s == k { Q::one() } else { Q::zero() }, "e_{k}, column {s}");
            }
        }
    }

    /// Update etas compose with the factorization exactly.
    #[test]
    fn update_after_refactor() {
        let cols: Vec<SVec> = vec![vec![(0, q(1)), (1, q(1))], vec![(1, q(2))]];
        let mut f = Factorization::identity(2);
        f.refactor(&cols.iter().collect::<Vec<_>>());
        // Replace slot 1's column by a = (1, 3): u = B⁻¹ a.
        let a: SVec = vec![(0, q(1)), (1, q(3))];
        let mut u = Vec::new();
        f.ftran_sparse(&a, &mut u);
        f.append_update(1, &u);
        // Now FTRAN(a) must be e_1 and FTRAN(old col 0) still e_0.
        let mut x = Vec::new();
        f.ftran_sparse(&a, &mut x);
        assert_eq!(x, vec![Q::zero(), Q::one()]);
        f.ftran_sparse(&cols[0], &mut x);
        assert_eq!(x, vec![Q::one(), Q::zero()]);
    }

    #[test]
    fn dependent_column_detected() {
        let mut f = Factorization::identity(2);
        let c1: SVec = vec![(0, q(1)), (1, q(2))];
        let c2: SVec = vec![(0, q(2)), (1, q(4))];
        let mut pivoted = vec![false; 2];
        let mut x = Vec::new();
        let p1 = f.eliminate(&c1, &pivoted, &mut x).unwrap();
        pivoted[p1] = true;
        assert_eq!(f.eliminate(&c2, &pivoted, &mut x), None, "2·c1 is dependent");
    }
}
