//! Batched column kernels shared by the three program executors.
//!
//! The executors gather a column's numeric readings (`Value::as_number` of
//! each cell, a `match` on a value table typing already parsed) into a
//! buffer and reduce it here: tight sequential loops over `&[f64]` slices
//! and `(row, f64)` pair lists that the optimizer can keep in registers,
//! plus a [`KernelScratch`] pool of reusable row-index / numeric / key
//! buffers so the hot generation loop stops allocating per-expression
//! views.
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

use crate::value::Value;
use rustc_hash::FxHashMap;
use std::cmp::Ordering;
use std::collections::BTreeMap;

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

/// First-occurrence classes of [`Value::loosely_equals`].
///
/// [`LooseIndex::insert`] returns the earliest class whose representative
/// (its first value) loosely equals the value, exactly like the pairwise
/// scan `reps.iter().position(|r| r.loosely_equals(v))`, or opens a new
/// class. Nulls are one class and texts are looked up by their lowercased
/// form. A finite numeric reading looks in an epsilon window of an ordered
/// key map, confirms each candidate with `loosely_equals` and takes the
/// smallest class; a non-finite one is compared with every numeric class.
/// Dates sit in a map of their own: a date loosely equals another date
/// only when it is the same date, so a date looks up its exact key there,
/// and numbers and booleans scan the window in both maps. Distinct dates
/// whose ordinals crowd one window (years near the `i32` limit) then cost
/// a lookup each, not a pass over the column.
/// DESIGN.md §5 gives the exactness argument. Memory is allocated per class.
#[derive(Debug, Default)]
pub struct LooseIndex {
    classes: usize,
    null: Option<usize>,
    texts: FxHashMap<String, usize>,
    /// Number and boolean representatives with a finite reading, keyed by
    /// ([`order_key`] of the reading, class).
    finite: BTreeMap<(u64, usize), Value>,
    /// Date representatives, keyed like `finite` by their ordinal.
    dates: BTreeMap<(u64, usize), Value>,
    non_finite: Vec<(usize, Value)>,
    /// Reused buffer for the lowercased text key.
    key: String,
}

impl LooseIndex {
    /// Returns `v`'s class and whether `v` opened it.
    pub fn insert(&mut self, v: &Value) -> (usize, bool) {
        let finite = v.as_number().filter(|n| n.is_finite());
        let found = match v {
            Value::Null => self.null,
            Value::Text(t) => {
                self.key.clear();
                self.key.push_str(t);
                self.key.make_ascii_lowercase();
                self.texts.get(&self.key).copied()
            }
            _ => {
                let window = match finite {
                    // nearly_equal bounds |n - m| by 1e-6 * max(|n|, |m|, 1).
                    Some(n) => {
                        let w = 2e-6 * n.abs().max(1.0) + f64::EPSILON;
                        (order_key(n - w), 0)..=(order_key(n + w), usize::MAX)
                    }
                    None => (0, 0)..=(u64::MAX, usize::MAX),
                };
                let dates = match (v, finite) {
                    (Value::Date(_), Some(n)) => (order_key(n), 0)..=(order_key(n), usize::MAX),
                    _ => window.clone(),
                };
                self.finite
                    .range(window)
                    .chain(self.dates.range(dates))
                    .map(|(&(_, class), rep)| (class, rep))
                    .chain(self.non_finite.iter().map(|(class, rep)| (*class, rep)))
                    .filter(|(_, rep)| rep.loosely_equals(v))
                    .map(|(class, _)| class)
                    .min()
            }
        };
        if let Some(class) = found {
            return (class, false);
        }
        let class = self.classes;
        self.classes += 1;
        match (v, finite) {
            (Value::Null, _) => self.null = Some(class),
            (Value::Text(_), _) => {
                self.texts.insert(self.key.clone(), class);
            }
            (Value::Date(_), Some(n)) => {
                self.dates.insert((order_key(n), class), v.clone());
            }
            (_, Some(n)) => {
                self.finite.insert((order_key(n), class), v.clone());
            }
            (_, None) => self.non_finite.push((class, v.clone())),
        }
        (class, true)
    }
}

/// The image of `x` in `u64` that sorts like `f64::total_cmp`.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
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

    /// The scan [`LooseIndex`] replaces: each value joins the first
    /// representative that loosely equals it.
    fn pairwise_classes(values: &[Value]) -> Vec<usize> {
        let mut reps: Vec<&Value> = Vec::new();
        let mut classes = Vec::new();
        for v in values {
            classes.push(reps.iter().position(|r| r.loosely_equals(v)).unwrap_or_else(|| {
                reps.push(v);
                reps.len() - 1
            }));
        }
        classes
    }

    #[test]
    fn loose_index_matches_pairwise_scan() {
        use crate::{Column, ColumnType, Date, Schema, Table};
        let n = Value::Number;
        let far = |day| Value::Date(Date { year: 999_999, month: 1, day });
        let far_ordinal = far(1).as_number().unwrap_or_else(|| panic!("date reading"));
        let huge = |day| Value::Date(Date { year: 2_000_000_000, month: 3, day });
        let huge_ordinal = huge(7).as_number().unwrap_or_else(|| panic!("date reading"));
        let cases = [
            vec![n(f64::INFINITY), n(5.0)],
            vec![n(5.0), n(f64::INFINITY)],
            vec![n(f64::NEG_INFINITY), n(f64::INFINITY)],
            vec![n(f64::NAN), n(5.0), n(f64::NAN)],
            vec![n(1.0), Value::Null, n(-3.0), Value::Null, Value::Bool(true), n(f64::INFINITY)],
            // Not transitive: the third value equals both earlier classes.
            vec![n(1.0), n(1.0000018), n(1.0000009)],
            // Adjacent dates with nearly equal ordinals stay apart.
            vec![far(2), far(1), n(far_ordinal)],
            // Distinct dates whose ordinals share one window, beside a
            // number at one of their ordinals (after them, then before).
            {
                let mut v: Vec<Value> = (1..=28).map(huge).collect();
                v.extend([n(huge_ordinal), huge(7), Value::Bool(true), huge(28)]);
                v
            },
            vec![n(huge_ordinal), huge(1), huge(2), huge(7), Value::Bool(false)],
            vec![Value::text("Apple"), Value::text("APPLE"), Value::text("5"), n(5.0)],
        ];
        for values in cases {
            let mut index = LooseIndex::default();
            let classes: Vec<usize> = values.iter().map(|v| index.insert(v).0).collect();
            assert_eq!(classes, pairwise_classes(&values), "{values:?}");

            let schema = Schema::new(vec![Column::new("c", ColumnType::Number)]);
            let rows = values.iter().map(|v| vec![v.clone()]).collect();
            let table = Table::new("t", schema, rows).unwrap_or_else(|e| panic!("{e}"));
            let mut naive: Vec<Value> = Vec::new();
            for v in values.iter().filter(|v| !v.is_null()) {
                if !naive.iter().any(|s| s.loosely_equals(v)) {
                    naive.push(v.clone());
                }
            }
            assert_eq!(table.distinct(0), naive, "{values:?}");
        }
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
