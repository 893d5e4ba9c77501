//! Table-To-Text operator (paper §IV-A, Eq. 5: `f(T) → T_sub, S`).
//!
//! Follows MQA-QG's `DescribeEnt`: one table row is verbalized into a
//! natural-language sentence, and the row is removed from the table (the
//! caller's evidence is `SharedTable::without_row`, an O(1) view). The
//! paper adds a *filtering step* — "if important information in the table
//! is missing from the generated sentence, we will discard it" — which is
//! implemented here as a faithfulness check that every non-null cell value
//! of the row is recoverable from the sentence.

use rand::Rng;
use std::fmt::Write as _;
use tabular::{Table, Value};

/// Reusable buffers for the streaming Table-To-Text entry points
/// ([`describe_row_with`], [`is_faithful_with`], [`table_to_text_with`]).
/// One per worker, reused across samples.
#[derive(Debug, Clone, Default)]
pub struct TextScratch {
    facts: String,
    lower: String,
    cell: String,
    cell_lower: String,
}

/// Verbalizes a row into a sentence ("Defense has a total deputies of 42
/// and a budget of 9000.").
pub fn describe_row(table: &Table, row: usize, rng: &mut impl Rng) -> Option<String> {
    let mut out = String::new();
    describe_row_with(table, row, rng, &mut TextScratch::default(), &mut out).then_some(out)
}

/// [`describe_row`] through caller-owned buffers: the sentence is written
/// into `out` (cleared first) and `true` is returned, or `false` when the
/// row cannot be verbalized. Draw-for-draw identical to [`describe_row`].
pub fn describe_row_with(
    table: &Table,
    row: usize,
    rng: &mut impl Rng,
    scratch: &mut TextScratch,
    out: &mut String,
) -> bool {
    let Some(cells) = table.row(row) else { return false };
    let ecol = table.entity_column();
    let Some(entity) = cells.get(ecol).filter(|v| !v.is_null()) else { return false };
    // Stream the facts ", "-separated, remembering the final separator so
    // it can be widened to " and " afterwards — same surface text as the
    // old join-then-format construction.
    let facts = &mut scratch.facts;
    facts.clear();
    let mut n_facts = 0usize;
    let mut last_sep = 0usize;
    for (ci, v) in cells.iter().enumerate() {
        if ci == ecol || v.is_null() {
            continue;
        }
        let Some(col) = table.column_name(ci) else { return false };
        if n_facts > 0 {
            last_sep = facts.len();
            facts.push_str(", ");
        }
        let _ = match rng.gen_range(0..3) {
            0 => write!(facts, "a {col} of {v}"),
            1 => write!(facts, "a recorded {col} of {v}"),
            _ => write!(facts, "{col} equal to {v}"),
        };
        n_facts += 1;
    }
    if n_facts == 0 {
        return false;
    }
    if n_facts > 1 {
        facts.replace_range(last_sep..last_sep + 2, " and ");
    }
    out.clear();
    let _ = match rng.gen_range(0..2) {
        0 => write!(out, "{entity} has {facts}."),
        _ => write!(out, "In {}, {entity} has {facts}.", table.title),
    };
    true
}

/// The faithfulness filter: true when every non-null cell value of `row`
/// appears in `sentence` (so no table information was lost by generation).
pub fn is_faithful(table: &Table, row: usize, sentence: &str) -> bool {
    is_faithful_with(table, row, sentence, &mut TextScratch::default())
}

/// [`is_faithful`] through caller-owned buffers (no per-call allocation).
pub fn is_faithful_with(
    table: &Table,
    row: usize,
    sentence: &str,
    scratch: &mut TextScratch,
) -> bool {
    let Some(cells) = table.row(row) else { return false };
    let TextScratch { lower, cell, cell_lower, .. } = scratch;
    lower.clear();
    lower.extend(sentence.chars().flat_map(char::to_lowercase));
    cells.iter().all(|v| match v {
        Value::Null => true,
        other => {
            cell.clear();
            let _ = write!(cell, "{other}");
            cell_lower.clear();
            cell_lower.extend(cell.chars().flat_map(char::to_lowercase));
            lower.contains(cell_lower.as_str())
        }
    })
}

/// The result of one Table-To-Text application. The sub-table is the
/// input minus `highlight_row`, which callers hold as the view
/// `SharedTable::without_row(highlight_row)` rather than a copy.
#[derive(Debug, Clone)]
pub struct SplitResult {
    /// The generated sentence.
    pub sentence: String,
    /// The entity name of the removed row (useful for linking).
    pub entity: String,
}

/// Applies the operator to the row containing `highlight_row` (one of the
/// execution's highlighted cells, per §III-A). Returns `None` when the row
/// cannot be verbalized faithfully — the paper's filtering step.
pub fn table_to_text(
    table: &Table,
    highlight_row: usize,
    rng: &mut impl Rng,
) -> Option<SplitResult> {
    table_to_text_with(table, highlight_row, rng, &mut TextScratch::default())
}

/// [`table_to_text`] through caller-owned buffers. The returned
/// [`SplitResult`] still owns its strings (they outlive the scratch), but
/// all intermediate fact/lowercase buffers come from `scratch`.
pub fn table_to_text_with(
    table: &Table,
    highlight_row: usize,
    rng: &mut impl Rng,
    scratch: &mut TextScratch,
) -> Option<SplitResult> {
    if table.n_rows() < 2 {
        return None; // splitting a 1-row table leaves no table evidence
    }
    let mut sentence = String::new();
    if !describe_row_with(table, highlight_row, rng, scratch, &mut sentence) {
        return None;
    }
    if !is_faithful_with(table, highlight_row, &sentence, scratch) {
        return None;
    }
    let ecol = table.entity_column();
    let entity = table.cell(highlight_row, ecol)?.to_string();
    Some(SplitResult { sentence, entity })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> Table {
        Table::from_strings(
            "Departments",
            &[
                vec!["department", "total deputies", "budget"],
                vec!["Commerce", "18", "500"],
                vec!["Defense", "42", "9000"],
                vec!["Treasury", "30", "3000"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"))
    }

    #[test]
    fn describe_row_mentions_all_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = describe_row(&table(), 1, &mut rng).unwrap_or_else(|| panic!("describe_row"));
        assert!(s.contains("Defense"), "{s}");
        assert!(s.contains("42"), "{s}");
        assert!(s.contains("9000"), "{s}");
        assert!(s.contains("total deputies"), "{s}");
    }

    #[test]
    fn split_verbalizes_the_highlighted_row() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = table_to_text(&table(), 1, &mut rng).unwrap_or_else(|| panic!("table_to_text"));
        assert_eq!(r.entity, "Defense");
        assert!(r.sentence.contains("Defense"));
        assert!(is_faithful(&table(), 1, &r.sentence), "{}", r.sentence);
    }

    #[test]
    fn faithfulness_checker() {
        let t = table();
        assert!(is_faithful(&t, 0, "Commerce has a total deputies of 18 and a budget of 500."));
        assert!(!is_faithful(&t, 0, "Commerce has a budget of 500.")); // 18 missing
    }

    #[test]
    fn single_row_table_not_splittable() {
        let t = Table::from_strings("t", &[vec!["a", "b"], vec!["x", "1"]])
            .unwrap_or_else(|e| panic!("test table: {e:?}"));
        let mut rng = StdRng::seed_from_u64(3);
        assert!(table_to_text(&t, 0, &mut rng).is_none());
    }

    #[test]
    fn row_with_null_entity_not_describable() {
        let t = Table::from_strings("t", &[vec!["name", "v"], vec!["", "1"], vec!["x", "2"]])
            .unwrap_or_else(|e| panic!("test table: {e:?}"));
        let mut rng = StdRng::seed_from_u64(4);
        assert!(describe_row(&t, 0, &mut rng).is_none());
        assert!(describe_row(&t, 1, &mut rng).is_some());
    }

    #[test]
    fn nulls_skipped_in_description() {
        let t = Table::from_strings(
            "t",
            &[vec!["name", "a", "b"], vec!["x", "", "7"], vec!["y", "1", "2"]],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"));
        let mut rng = StdRng::seed_from_u64(5);
        let s = describe_row(&t, 0, &mut rng).unwrap_or_else(|| panic!("describe_row"));
        assert!(s.contains('7'), "{s}");
        assert!(is_faithful(&t, 0, &s));
    }
}
