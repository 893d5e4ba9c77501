//! Text-To-Table operator (paper §IV-A, Eq. 6: `f(T, P) → T_expand`).
//!
//! The inverse of Table-To-Text: find a sentence in the table's surrounding
//! paragraph that describes a record matching the table's schema, extract
//! the record (pattern/alignment-based information extraction, the
//! reproduction's stand-in for the seq2seq text-to-table model of Wu et al.
//! \[52\]), and append it to the table to form an expanded table. The paper's
//! row-name filtering step is implemented by requiring an extractable
//! entity and at least one value for a known column.

use tabular::text::split_sentences;
use tabular::{Table, Value};

/// A record extracted from one sentence: entity name plus (column → value)
/// assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedRecord {
    pub entity: String,
    /// `(column index, value)` pairs, excluding the entity column.
    pub fields: Vec<(usize, Value)>,
}

/// Extracts a record from a sentence given the target schema. Handles the
/// phrasing families produced by `describe_row` and by the corpora's
/// context generator:
///
/// * `"<entity> has a <col> of <val>[, a <col> of <val>][ and a <col> of <val>]."`
/// * `"<entity> has <col> equal to <val> ..."`
/// * `"The <col> of <entity> is <val>."`
pub fn extract_record(sentence: &str, table: &Table) -> Option<ExtractedRecord> {
    let s = sentence.trim().trim_end_matches(['.', '!', '?']);
    let lower = s.to_lowercase();
    // Column mentions sorted by position.
    let mut mentions: Vec<(usize, usize, usize)> = Vec::new(); // (start, len, col_idx)
    for (ci, col) in table.schema().columns().iter().enumerate() {
        let cname = col.name.to_lowercase();
        if cname.is_empty() {
            continue;
        }
        let mut from = 0usize;
        while let Some(pos) = lower[from..].find(&cname) {
            let start = from + pos;
            mentions.push((start, cname.len(), ci));
            from = start + cname.len();
        }
    }
    if mentions.is_empty() {
        return None;
    }
    mentions.sort_unstable();
    // Drop overlapping mentions (keep the longest at each position).
    let mut kept: Vec<(usize, usize, usize)> = Vec::new();
    for m in mentions {
        match kept.last() {
            Some(&(ls, ll, _)) if m.0 < ls + ll => {
                if m.1 > ll {
                    kept.pop();
                    kept.push(m);
                }
            }
            _ => kept.push(m),
        }
    }

    let ecol = table.entity_column();
    // Entity: prefer "the <col> of <entity> is" frame, else sentence subject.
    let mut entity: Option<String> = None;
    let mut fields: Vec<(usize, Value)> = Vec::new();

    for (i, &(start, len, ci)) in kept.iter().enumerate() {
        let after_start = start + len;
        let after_end = kept.get(i + 1).map(|&(s2, _, _)| s2).unwrap_or(s.len());
        let after = &s[after_start..after_end.min(s.len())];
        if ci == ecol {
            // "the <entity-col> of X is ..." doesn't occur; entity handled below.
            continue;
        }
        if let Some(v) = value_after(after) {
            fields.push((ci, v));
        }
    }

    // Sentence subject = tokens before "has" / "recorded" / "'s".
    if entity.is_none() {
        if let Some(pos) = lower.find(" has ") {
            let subject = s[..pos].trim();
            let subject =
                subject.trim_start_matches("In ").split(',').next_back().unwrap_or(subject).trim();
            if !subject.is_empty() {
                entity = Some(subject.to_string());
            }
        }
    }
    // "The <col> of <entity> is <val>" frame.
    if entity.is_none() {
        if let Some(of_pos) = lower.find(" of ") {
            if let Some(is_pos) = lower[of_pos..].find(" is ") {
                let candidate = s[of_pos + 4..of_pos + is_pos].trim();
                if !candidate.is_empty() {
                    entity = Some(candidate.to_string());
                }
            }
        }
    }

    let entity = entity?;
    if fields.is_empty() {
        return None;
    }
    Some(ExtractedRecord { entity, fields })
}

/// Parses the value phrase following a column mention: skips connective
/// tokens (`of`, `is`, `was`, `equal`, `to`, `a`, `:`), then takes tokens up
/// to a delimiter (`,`, `and`, end).
fn value_after(after: &str) -> Option<Value> {
    let cleaned = after.trim_start_matches([':', ' ']);
    let mut toks = cleaned.split_whitespace().peekable();
    while let Some(&t) = toks.peek() {
        let tl = t.to_lowercase();
        if ["of", "is", "was", "equal", "to", "a", "an", "the"].contains(&tl.as_str()) {
            toks.next();
        } else {
            break;
        }
    }
    let mut value_toks: Vec<&str> = Vec::new();
    for t in toks {
        let stripped = t.trim_end_matches([',', ';']);
        let tl = stripped.to_lowercase();
        if tl == "and" || tl == "with" || tl.is_empty() {
            break;
        }
        value_toks.push(stripped);
        if t.ends_with(',') {
            break;
        }
        if value_toks.len() >= 4 {
            break;
        }
    }
    if value_toks.is_empty() {
        return None;
    }
    let text = value_toks.join(" ");
    let v = Value::parse(&text);
    if v.is_null() {
        None
    } else {
        Some(v)
    }
}

/// The result of one Text-To-Table application.
#[derive(Debug, Clone)]
pub struct ExpandResult {
    /// The table with the extracted record appended.
    pub expanded: Table,
    /// Which sentence (index into the split paragraph) was consumed.
    pub sentence_index: usize,
    /// The extracted record.
    pub record: ExtractedRecord,
}

/// Scans the paragraph for the first sentence describing a record that fits
/// the table's schema and is *not already present*, and appends it.
pub fn text_to_table(table: &Table, paragraph: &str) -> Option<ExpandResult> {
    let sentences = split_sentences(paragraph);
    let ecol = table.entity_column();
    for (si, sentence) in sentences.iter().enumerate() {
        let Some(record) = extract_record(sentence, table) else { continue };
        // Row-name filter: skip records whose entity already has a row.
        let entity_val = Value::text(record.entity.clone());
        let exists = (0..table.n_rows())
            .any(|r| table.cell(r, ecol).is_some_and(|v| v.loosely_equals(&entity_val)));
        if exists {
            continue;
        }
        // Require at least half of the non-entity columns to be filled —
        // sparse extractions create unusable rows.
        let needed = (table.n_cols().saturating_sub(1)).div_ceil(2);
        if record.fields.len() < needed.max(1) {
            continue;
        }
        let mut row = vec![Value::Null; table.n_cols()];
        row[ecol] = entity_val;
        for (ci, v) in &record.fields {
            row[*ci] = v.clone();
        }
        let mut expanded = table.clone();
        expanded.push_row(row).ok()?;
        expanded.reinfer_types();
        return Some(ExpandResult { expanded, sentence_index: si, record });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::from_strings(
            "Departments",
            &[
                vec!["department", "total deputies", "budget"],
                vec!["Commerce", "18", "500"],
                vec!["Defense", "42", "9000"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"))
    }

    #[test]
    fn extract_describe_row_style() {
        let r = extract_record("Energy has a total deputies of 12 and a budget of 700.", &table())
            .unwrap_or_else(|| panic!("extract_record"));
        assert_eq!(r.entity, "Energy");
        assert_eq!(r.fields.len(), 2);
        assert_eq!(r.fields[0], (1, Value::Number(12.0)));
        assert_eq!(r.fields[1], (2, Value::Number(700.0)));
    }

    #[test]
    fn extract_equal_to_style() {
        let r = extract_record(
            "Energy has total deputies equal to 12 and budget equal to 700.",
            &table(),
        )
        .unwrap_or_else(|| panic!("extract_record"));
        assert_eq!(r.entity, "Energy");
        assert_eq!(r.fields.len(), 2);
    }

    #[test]
    fn extract_with_title_prefix() {
        let r = extract_record(
            "In Departments, Energy has a total deputies of 12 and a budget of 700.",
            &table(),
        )
        .unwrap_or_else(|| panic!("extract_record"));
        assert_eq!(r.entity, "Energy");
    }

    #[test]
    fn extract_fails_without_columns() {
        assert!(extract_record("Energy is a nice department to work for.", &table()).is_none());
    }

    #[test]
    fn expansion_appends_row() {
        let p = "The department was reorganized in 1977. Energy has a total deputies of 12 and a budget of 700. Funding grew later.";
        let r = text_to_table(&table(), p).unwrap_or_else(|| panic!("text_to_table"));
        assert_eq!(r.expanded.n_rows(), 3);
        assert_eq!(r.sentence_index, 1);
        let last = r.expanded.row(2).unwrap_or_else(|| panic!("row 2"));
        assert_eq!(last[0].to_string(), "Energy");
        assert_eq!(last[1], Value::Number(12.0));
    }

    #[test]
    fn expansion_skips_existing_entities() {
        let p = "Defense has a total deputies of 42 and a budget of 9000.";
        assert!(text_to_table(&table(), p).is_none());
    }

    #[test]
    fn expansion_requires_enough_fields() {
        let p = "Energy has a budget of 700.";
        // only 1 of 2 non-entity fields -> exactly the threshold (ceil(2/2)=1)
        let r = text_to_table(&table(), p);
        assert!(r.is_some());
        let p2 = "Energy also exists.";
        assert!(text_to_table(&table(), p2).is_none());
    }

    #[test]
    fn expanded_types_reinferred() {
        let p = "Energy has a total deputies of 12 and a budget of 700.";
        let r = text_to_table(&table(), p).unwrap_or_else(|| panic!("text_to_table"));
        let col = r.expanded.schema().column(1).unwrap_or_else(|| panic!("column 1"));
        assert_eq!(col.ty, tabular::ColumnType::Number);
    }

    #[test]
    fn roundtrip_with_describe_row() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let full = Table::from_strings(
            "Departments",
            &[
                vec!["department", "total deputies", "budget"],
                vec!["Commerce", "18", "500"],
                vec!["Defense", "42", "9000"],
                vec!["Energy", "12", "700"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"));
        let mut rng = StdRng::seed_from_u64(7);
        // Split Energy out, then recover it from the sentence.
        let split = crate::table_to_text::table_to_text(&full, 2, &mut rng)
            .unwrap_or_else(|| panic!("table_to_text"));
        let sub_table = tabular::SharedTable::new(full).without_row(2);
        let restored =
            text_to_table(&sub_table, &split.sentence).unwrap_or_else(|| panic!("text_to_table"));
        assert_eq!(restored.expanded.n_rows(), 3);
        let recovered = restored.expanded.row(2).unwrap_or_else(|| panic!("row 2"));
        assert_eq!(recovered[0].to_string(), "Energy");
        assert_eq!(recovered[1], Value::Number(12.0));
        assert_eq!(recovered[2], Value::Number(700.0));
    }
}
