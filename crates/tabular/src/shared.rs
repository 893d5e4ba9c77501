//! Cheaply clonable shared table handle.
//!
//! Accepted samples carry their table evidence around the pipeline, the
//! operators and the models. Storing a [`Table`] by value made every
//! accepted sample deep-copy its table (hundreds of `String` allocations on
//! wide zoo tables); [`SharedTable`] wraps the table in an [`Arc`] so a
//! sample costs one reference-count bump instead. The wrapper is
//! transparent on purpose: `Deref<Target = Table>`, `Debug`/`PartialEq`/
//! serde all delegate to the inner table, so fixed-seed golden digests
//! (FNV over `Debug`) and JSON round-trips are byte-identical to the
//! by-value representation.
//!
//! Split evidence ("the table minus the verbalized row") is a *view*:
//! [`SharedTable::without_row`] stores the base handle and the row in O(1)
//! and builds the sub-table with [`Table::select_rows`] on first deref. A
//! view's base is always a whole table, so a consumer that only needs the
//! base ([`SharedTable::base`], [`SharedTable::omitted_row`]) — the serving
//! response encoder — never materializes the copy.

use crate::table::Table;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A reference-counted, immutable table handle. Clones are O(1).
#[derive(Clone)]
pub struct SharedTable(Arc<Evidence>);

enum Evidence {
    Whole(Table),
    /// `base` (always [`Evidence::Whole`]) minus its row `row`, built on
    /// first deref and shared by every clone of the handle.
    WithoutRow {
        base: SharedTable,
        row: usize,
        table: OnceLock<Table>,
    },
}

impl SharedTable {
    /// Wraps a table. The table becomes immutable behind the handle; build
    /// a new `Table` (and wrap it) to "modify" one.
    pub fn new(table: Table) -> SharedTable {
        SharedTable(Arc::new(Evidence::Whole(table)))
    }

    /// The table minus its row `row`, in O(1): the handle keeps this
    /// table's base and the row, and derefs to exactly
    /// `select_rows` of the other rows. A row past the end leaves the table
    /// whole (which is what `select_rows` of every row would give). A view
    /// of a view first materializes its own table, so every view's base is
    /// a whole table.
    pub fn without_row(&self, row: usize) -> SharedTable {
        if row >= self.n_rows() {
            return self.clone();
        }
        let base = match &*self.0 {
            Evidence::Whole(_) => self.clone(),
            Evidence::WithoutRow { .. } => SharedTable::new(self.as_table().clone()),
        };
        SharedTable(Arc::new(Evidence::WithoutRow { base, row, table: OnceLock::new() }))
    }

    /// The whole table this evidence is cut from: a view's base, or the
    /// handle itself for a whole table. Never materializes a view.
    pub fn base(&self) -> &SharedTable {
        match &*self.0 {
            Evidence::Whole(_) => self,
            Evidence::WithoutRow { base, .. } => base,
        }
    }

    /// The row of [`SharedTable::base`] this view omits; `None` for a whole
    /// table.
    pub fn omitted_row(&self) -> Option<usize> {
        match &*self.0 {
            Evidence::Whole(_) => None,
            Evidence::WithoutRow { row, .. } => Some(*row),
        }
    }

    /// Whether two handles share one allocation (clones of each other).
    pub fn ptr_eq(a: &SharedTable, b: &SharedTable) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The table, materializing a view on first use.
    pub fn as_table(&self) -> &Table {
        match &*self.0 {
            Evidence::Whole(table) => table,
            Evidence::WithoutRow { base, row, table } => table.get_or_init(|| without(base, *row)),
        }
    }

    /// Extracts the inner table, cloning only when the handle is shared.
    pub fn into_table(self) -> Table {
        match Arc::try_unwrap(self.0) {
            Ok(Evidence::Whole(table)) => table,
            Ok(Evidence::WithoutRow { base, row, table }) => {
                table.into_inner().unwrap_or_else(|| without(&base, row))
            }
            Err(shared) => SharedTable(shared).as_table().clone(),
        }
    }
}

/// `table` minus its row `row`: `select_rows` of every other row.
fn without(table: &Table, row: usize) -> Table {
    let keep: Vec<usize> = (0..table.n_rows()).filter(|&r| r != row).collect();
    table.select_rows(&keep)
}

impl Deref for SharedTable {
    type Target = Table;

    fn deref(&self) -> &Table {
        self.as_table()
    }
}

impl AsRef<Table> for SharedTable {
    fn as_ref(&self) -> &Table {
        self.as_table()
    }
}

impl From<Table> for SharedTable {
    fn from(table: Table) -> SharedTable {
        SharedTable::new(table)
    }
}

impl From<SharedTable> for Table {
    fn from(shared: SharedTable) -> Table {
        shared.into_table()
    }
}

// Debug must render exactly like `Table` — the golden pipeline digests hash
// the `Debug` of whole samples.
impl fmt::Debug for SharedTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_table().fmt(f)
    }
}

impl fmt::Display for SharedTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_table(), f)
    }
}

impl PartialEq for SharedTable {
    fn eq(&self, other: &SharedTable) -> bool {
        if SharedTable::ptr_eq(self, other) {
            return true;
        }
        // Equal bases minus the same row are equal views; comparing the
        // bases spares materializing either side.
        let row = self.omitted_row();
        if row.is_some() && row == other.omitted_row() && self.base() == other.base() {
            return true;
        }
        self.as_table() == other.as_table()
    }
}

impl PartialEq<Table> for SharedTable {
    fn eq(&self, other: &Table) -> bool {
        self.as_table() == other
    }
}

impl Serialize for SharedTable {
    fn to_value(&self) -> serde::Value {
        self.as_table().to_value()
    }
}

impl Deserialize for SharedTable {
    fn from_value(v: &serde::Value) -> Result<SharedTable, serde::Error> {
        Table::from_value(v).map(SharedTable::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::from_strings("t", &[vec!["a", "b"], vec!["x", "1"], vec!["y", "2"]])
            .unwrap_or_else(|e| panic!("test table: {e}"))
    }

    /// Tables with mixed column types, nulls, a one-row and a header-only
    /// table, so a view is checked on every shape `select_rows` sees.
    fn tables() -> Vec<Table> {
        let grid = |rows: &[&[&str]]| -> Table {
            let rows: Vec<Vec<&str>> = rows.iter().map(|r| r.to_vec()).collect();
            Table::from_strings("views", &rows).unwrap_or_else(|e| panic!("test table: {e}"))
        };
        vec![
            table(),
            grid(&[
                &["name", "score", "city", "when"],
                &["Ada", "91", "Oslo", "1990-05-01"],
                &["-", "84", "Lima", "n/a"],
                &["Cleo", "n/a", "Oslo", "2001-08-23"],
                &["Ada", "70", "", "2000-01-01"],
                &["Bo", "withdrew", "Kyiv", "1999-12-31"],
            ]),
            grid(&[&["only"], &["1"]]),
            grid(&[&["a", "b"]]),
        ]
    }

    #[test]
    fn debug_matches_inner_table() {
        let t = table();
        let shared = SharedTable::new(t.clone());
        assert_eq!(format!("{shared:?}"), format!("{t:?}"));
    }

    #[test]
    fn serde_round_trip_matches_table_json() -> Result<(), serde_json::Error> {
        let t = table();
        let shared = SharedTable::new(t.clone());
        assert_eq!(serde_json::to_string(&shared)?, serde_json::to_string(&t)?);
        let back: SharedTable = serde_json::from_str(&serde_json::to_string(&t)?)?;
        assert_eq!(back, t);
        Ok(())
    }

    #[test]
    fn clone_shares_storage() {
        let shared = SharedTable::new(table());
        let copy = shared.clone();
        assert!(SharedTable::ptr_eq(&shared, &copy));
        assert_eq!(shared, copy);
    }

    #[test]
    fn into_table_unwraps_without_clone_when_unique() {
        let t = table();
        let shared = SharedTable::new(t.clone());
        assert_eq!(shared.into_table(), t);
        let view = SharedTable::new(t.clone()).without_row(0);
        assert_eq!(view.into_table(), t.select_rows(&[1]));
    }

    #[test]
    fn without_row_matches_select_rows_of_the_other_rows() -> Result<(), serde_json::Error> {
        for t in tables() {
            let base = SharedTable::new(t.clone());
            for row in 0..t.n_rows() {
                let keep: Vec<usize> = (0..t.n_rows()).filter(|&r| r != row).collect();
                let expected = t.select_rows(&keep);
                let view = base.without_row(row);
                assert_eq!(view.omitted_row(), Some(row));
                assert!(SharedTable::ptr_eq(view.base(), &base), "a view holds its base");
                assert_eq!(format!("{view:?}"), format!("{expected:?}"), "row {row}");
                assert_eq!(serde_json::to_string(&view)?, serde_json::to_string(&expected)?);
                assert_eq!(view, expected);
                assert_eq!(view, SharedTable::new(expected.clone()));
                assert_eq!(SharedTable::new(expected), view);
                // Views of equal bases compare equal without sharing one.
                assert_eq!(view, SharedTable::new(t.clone()).without_row(row));
                assert_eq!(view.clone(), view);
            }
        }
        Ok(())
    }

    #[test]
    fn views_of_different_rows_differ_unless_the_rows_match() {
        let t = table();
        let base = SharedTable::new(t.clone());
        assert_ne!(base.without_row(0), base.without_row(1));
        assert_ne!(base.without_row(0), base);
        // Two identical rows: dropping either leaves the same table.
        let twins = Table::from_strings("t", &[vec!["a"], vec!["x"], vec!["x"]])
            .unwrap_or_else(|e| panic!("test table: {e}"));
        let twins = SharedTable::new(twins);
        assert_eq!(twins.without_row(0), twins.without_row(1));
    }

    #[test]
    fn without_row_past_the_end_and_of_a_view() {
        let t = tables().swap_remove(1);
        let base = SharedTable::new(t.clone());
        let whole = base.without_row(t.n_rows());
        assert_eq!(whole.omitted_row(), None);
        assert_eq!(whole, t);
        // A view of a view has a whole base: the first view, materialized.
        let twice = base.without_row(0).without_row(0);
        assert_eq!(twice.omitted_row(), Some(0));
        assert_eq!(twice.base().omitted_row(), None);
        assert_eq!(twice, t.select_rows(&[2, 3, 4]));
        assert_eq!(base.omitted_row(), None);
        assert!(SharedTable::ptr_eq(base.base(), &base));
    }
}
