//! Batched column kernels shared by the three program executors.
//!
//! The [`crate::ExecContext`] already stores every cell's parsed number
//! (`numeric_pairs` per column, `number_at` per cell); the executors
//! historically still walked tables cell-by-cell through `Value` dispatch.
//! The kernels here are the batched counterparts: tight sequential loops
//! over `&[f64]` slices and `(row, f64)` pair lists that the optimizer can
//! keep in registers, plus a [`KernelScratch`] pool of reusable row-index /
//! numeric / key buffers so the hot generation loop stops allocating
//! per-expression views.
//!
//! ## Bit-exactness contract
//!
//! Every kernel replicates the exact fold order and comparator of the
//! per-cell code path it replaces — sequential left-to-right folds, stable
//! sorts with the same comparator, the same tie rules. None of them
//! reassociate floating-point operations: the speedup comes from removing
//! per-cell `Value` dispatch, bounds-checked gathers and per-view
//! allocations, not from reordering arithmetic. This is what lets the
//! fixed-seed golden digests stay byte-identical while the executors
//! switch between the kernel and per-cell fallback paths. The dispatch
//! rules (when a column is kernel-eligible, when the per-cell fallback
//! runs) live with each executor; the parity property tests pin the two
//! paths equal on adversarial tables.

use std::cmp::Ordering;

/// Reusable buffers for the kernel paths, one per generation worker.
///
/// Holds a pool of row-index buffers (executor "views"), a numeric gather
/// buffer, a keyed-sort buffer for arg-superlatives and a highlighted-cell
/// accumulator. A default-constructed scratch is always valid; buffers are
/// cleared on acquisition, never read across uses.
#[derive(Debug, Clone, Default)]
pub struct KernelScratch {
    rows_pool: Vec<Vec<usize>>,
    /// Numeric gather buffer for aggregate/sort kernels.
    pub nums: Vec<f64>,
    /// Keyed-sort buffer for nth-arg-superlatives.
    pub keys: Vec<(f64, usize)>,
    /// Highlighted-cell accumulator. Dedup happens once at the end of an
    /// evaluation (sort + dedup), which yields the same sorted set the
    /// executors historically collected through a hash set.
    pub hl: Vec<(usize, usize)>,
}

impl KernelScratch {
    /// Acquires a cleared row-index buffer from the pool (or allocates the
    /// first time). Return it with [`KernelScratch::put_rows`] when the view
    /// is consumed so later expressions reuse the capacity.
    pub fn take_rows(&mut self) -> Vec<usize> {
        let mut rows = self.rows_pool.pop().unwrap_or_default();
        rows.clear();
        rows
    }

    /// Returns a row-index buffer to the pool.
    pub fn put_rows(&mut self, rows: Vec<usize>) {
        // Unbounded growth is impossible: the pool can only hold as many
        // buffers as the deepest expression ever held live at once.
        self.rows_pool.push(rows);
    }
}

/// Sequential sum, identical to `xs.iter().sum::<f64>()`.
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for &x in xs {
        acc += x;
    }
    acc
}

/// Sequential max fold, identical to
/// `xs.iter().cloned().fold(f64::MIN, f64::max)`.
#[inline]
pub fn fold_max(xs: &[f64]) -> f64 {
    let mut acc = f64::MIN;
    for &x in xs {
        acc = acc.max(x);
    }
    acc
}

/// Sequential min fold, identical to
/// `xs.iter().cloned().fold(f64::MAX, f64::min)`.
#[inline]
pub fn fold_min(xs: &[f64]) -> f64 {
    let mut acc = f64::MAX;
    for &x in xs {
        acc = acc.min(x);
    }
    acc
}

/// The comparator `Value::cmp` uses between two `Value::Number`s: IEEE
/// partial order with incomparable pairs collapsing to `Equal`. All kernel
/// sorts use this so their permutations match `Value`-keyed sorts exactly.
#[inline]
pub fn number_cmp(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// First row index holding the maximum value: the head of a stable
/// descending `Value`-keyed sort over the same `(row, value)` sequence.
#[inline]
pub fn argmax_pairs(pairs: impl Iterator<Item = (usize, f64)>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (ri, v) in pairs {
        match best {
            Some((_, bv)) if number_cmp(v, bv) != Ordering::Greater => {}
            _ => best = Some((ri, v)),
        }
    }
    best.map(|(ri, _)| ri)
}

/// First row index holding the minimum value: the head of a stable
/// ascending `Value`-keyed sort over the same `(row, value)` sequence.
#[inline]
pub fn argmin_pairs(pairs: impl Iterator<Item = (usize, f64)>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (ri, v) in pairs {
        match best {
            Some((_, bv)) if number_cmp(v, bv) != Ordering::Less => {}
            _ => best = Some((ri, v)),
        }
    }
    best.map(|(ri, _)| ri)
}

/// Row index holding the `n`-th largest (`descending`) or smallest value
/// (1-based), with ties broken by input order: stable-sorts the
/// caller-filled `(value, row)` buffer in place and reads element `n-1`.
pub fn nth_arg_pairs(keys: &mut [(f64, usize)], n: usize, descending: bool) -> Option<usize> {
    if descending {
        keys.sort_by(|a, b| number_cmp(b.0, a.0));
    } else {
        keys.sort_by(|a, b| number_cmp(a.0, b.0));
    }
    keys.get(n.checked_sub(1)?).map(|&(_, ri)| ri)
}

/// Sorts `nums` ascending with `f64::total_cmp` — the executors' shared
/// ordering for nth-max/nth-min aggregates.
#[inline]
pub fn sort_total(nums: &mut [f64]) {
    nums.sort_by(f64::total_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_iterator_sum() {
        let xs = [1.5, -2.25, 1e308, -1e308, 0.125];
        assert_eq!(sum(&xs).to_bits(), xs.iter().sum::<f64>().to_bits());
        assert_eq!(sum(&[]), 0.0);
    }

    #[test]
    fn folds_match_per_cell_folds() {
        let xs = [3.0, -0.0, 0.0, 7.5, 7.5, -2.0];
        assert_eq!(fold_max(&xs).to_bits(), xs.iter().cloned().fold(f64::MIN, f64::max).to_bits());
        assert_eq!(fold_min(&xs).to_bits(), xs.iter().cloned().fold(f64::MAX, f64::min).to_bits());
    }

    #[test]
    fn argmax_is_first_max_argmin_is_first_min() {
        let pairs = [(0usize, 2.0), (1, 9.0), (2, 9.0), (3, -1.0), (4, -1.0)];
        assert_eq!(argmax_pairs(pairs.iter().copied()), Some(1));
        assert_eq!(argmin_pairs(pairs.iter().copied()), Some(3));
        assert_eq!(argmax_pairs(std::iter::empty()), None);
    }

    #[test]
    fn nth_arg_matches_stable_sort() {
        let nth = |n, descending| {
            let mut keys = [(2.0, 0usize), (9.0, 1), (9.0, 2), (-1.0, 3)];
            nth_arg_pairs(&mut keys, n, descending)
        };
        // Descending: 9(row1), 9(row2), 2(row0), -1(row3).
        assert_eq!(nth(1, true), Some(1));
        assert_eq!(nth(2, true), Some(2));
        assert_eq!(nth(3, true), Some(0));
        // Ascending: -1(row3), 2(row0), 9(row1), 9(row2).
        assert_eq!(nth(2, false), Some(0));
        assert_eq!(nth(0, false), None);
        assert_eq!(nth(5, false), None);
    }

    #[test]
    fn rows_pool_recycles_capacity() {
        let mut scratch = KernelScratch::default();
        let mut rows = scratch.take_rows();
        rows.extend(0..100);
        let cap = rows.capacity();
        scratch.put_rows(rows);
        let rows = scratch.take_rows();
        assert!(rows.is_empty());
        assert_eq!(rows.capacity(), cap);
    }
}
