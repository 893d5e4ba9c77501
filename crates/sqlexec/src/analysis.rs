//! Static analysis of SQL templates: typechecking without a table.
//!
//! [`analyze`] inspects a parsed [`SqlTemplate`] and reports defects that
//! would otherwise surface one failed instantiation at a time at runtime,
//! plus the [`SchemaRequirement`] a table must satisfy for
//! [`SqlTemplate::try_instantiate`] to have any chance of succeeding.
//!
//! Type rules:
//!
//! * **unpaired-value-hole** — every distinct `valN` placeholder must occur
//!   in at least one `WHERE` comparison directly against a column
//!   placeholder (`value_hole_columns` pairing). An unpaired hole never
//!   receives a sampled value, so substitution deterministically fails with
//!   `MalformedTemplate` on every table and every RNG stream.
//! * **hole-type-conflict** — reusing a column hole index with differing
//!   type annotations (`c1` vs `c1_number`) is a silent misbinding: only
//!   the first occurrence's constraint is honored during binding, the rest
//!   are ignored.
//!
//! Requirement rules (sound *and* complete for the binding phase): typed
//! holes bind to distinct columns of the exact inferred
//! [`tabular::ColumnType`] and
//! are assigned before untyped holes, so binding succeeds on a table iff it
//! has at least as many columns of each constrained type as there are holes
//! constraining it, and at least as many columns overall as there are
//! distinct holes. Any paired value hole additionally needs one row — on an
//! empty table every candidate pool is empty and value sampling fails with
//! `NoValueCandidates` before consuming a draw from that pool.

use crate::ast::{ColumnRef, PlaceholderType, SelectStmt};
use crate::template::{value_hole_columns, SqlTemplate};
use tabular::{SchemaRequirement, TemplateAnalysis, TemplateIssue};

/// Statically analyzes a SQL template. See the module docs for the rules.
pub fn analyze(template: &SqlTemplate) -> TemplateAnalysis {
    let stmt = template.stmt();
    let mut issues = Vec::new();

    // Every (index, ty) occurrence, not just the first per index: conflict
    // detection needs to see the annotations instantiation ignores.
    let mut occurrences: Vec<(usize, Option<PlaceholderType>)> = Vec::new();
    stmt.visit_columns(&mut |c| {
        if let ColumnRef::Placeholder { index, ty } = c {
            occurrences.push((*index, *ty));
        }
    });
    let mut hole_indices: Vec<usize> = occurrences.iter().map(|&(i, _)| i).collect();
    hole_indices.sort_unstable();
    hole_indices.dedup();
    for &index in &hole_indices {
        let mut tys: Vec<Option<PlaceholderType>> =
            occurrences.iter().filter(|&&(i, _)| i == index).map(|&(_, ty)| ty).collect();
        tys.dedup();
        if tys.len() > 1 {
            issues.push(TemplateIssue::new(
                "hole-type-conflict",
                format!("c{index}"),
                format!(
                    "column hole c{index} is annotated with conflicting types; \
                     only the first occurrence's constraint binds"
                ),
            ));
        }
    }

    let paired: Vec<(usize, usize)> = value_hole_columns(stmt);
    for val_idx in value_hole_indices(stmt) {
        if !paired.iter().any(|&(v, _)| v == val_idx) {
            issues.push(TemplateIssue::new(
                "unpaired-value-hole",
                format!("val{val_idx}"),
                format!(
                    "value hole val{val_idx} is not compared against any column hole \
                     in the where clause; instantiation always fails with MalformedTemplate"
                ),
            ));
        }
    }

    // Requirement from the binding semantics: first-occurrence type per
    // hole (the constraint try_instantiate actually enforces).
    let holes = template.column_holes();
    let mut requirement = SchemaRequirement { min_cols: holes.len(), ..SchemaRequirement::NONE };
    for (_, ty) in &holes {
        match ty {
            Some(PlaceholderType::Number) => requirement.min_number_cols += 1,
            Some(PlaceholderType::Date) => requirement.min_date_cols += 1,
            Some(PlaceholderType::Text) => requirement.min_text_cols += 1,
            None => {}
        }
    }
    if !paired.is_empty() {
        requirement.min_rows = 1;
    }

    if issues.is_empty() {
        let abs = crate::absint::interpret(template);
        TemplateAnalysis {
            issues,
            requirement,
            degeneracies: abs.degeneracies,
            summary: abs.summary,
            survival: abs.survival,
        }
    } else {
        // Malformed templates never reach a bank; the abstract layer stays
        // at its sound default and the cost model writes them off.
        TemplateAnalysis {
            issues,
            requirement,
            degeneracies: Vec::new(),
            summary: tabular::AbsSummary::TOP,
            survival: 0.0,
        }
    }
}

/// Every distinct `valN` index anywhere in the statement (select items,
/// where clause, order by), in first-appearance order.
fn value_hole_indices(stmt: &SelectStmt) -> Vec<usize> {
    use crate::ast::{Cond, Expr, SelectItem};
    let mut found = Vec::new();
    fn walk_expr(e: &Expr, found: &mut Vec<usize>) {
        match e {
            Expr::ValuePlaceholder(i) if !found.contains(i) => found.push(*i),
            Expr::Binary { lhs, rhs, .. } => {
                walk_expr(lhs, found);
                walk_expr(rhs, found);
            }
            _ => {}
        }
    }
    fn walk_cond(c: &Cond, found: &mut Vec<usize>) {
        match c {
            Cond::Compare { lhs, rhs, .. } => {
                walk_expr(lhs, found);
                walk_expr(rhs, found);
            }
            Cond::And(a, b) | Cond::Or(a, b) => {
                walk_cond(a, found);
                walk_cond(b, found);
            }
        }
    }
    for item in &stmt.items {
        match item {
            SelectItem::Expr(e) | SelectItem::Aggregate { arg: Some(e), .. } => {
                walk_expr(e, &mut found)
            }
            _ => {}
        }
    }
    if let Some(w) = &stmt.where_clause {
        walk_cond(w, &mut found);
    }
    if let Some((e, _)) = &stmt.order_by {
        walk_expr(e, &mut found);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SqlTemplate {
        SqlTemplate::parse(text).unwrap_or_else(|e| panic!("template {text:?}: {e}"))
    }

    #[test]
    fn well_typed_template_is_clean_with_exact_requirement() {
        let a = analyze(&parse("select c1 from w where c2_number > val1 and c3_date = val2"));
        assert!(a.is_clean(), "{:?}", a.issues);
        assert_eq!(
            a.requirement,
            SchemaRequirement {
                min_rows: 1,
                min_cols: 3,
                min_number_cols: 1,
                min_date_cols: 1,
                ..SchemaRequirement::NONE
            }
        );
    }

    #[test]
    fn template_without_value_holes_needs_no_rows() {
        let a = analyze(&parse("select c1 from w order by c2_number desc limit 1"));
        assert!(a.is_clean());
        assert_eq!(a.requirement.min_rows, 0);
        assert_eq!(a.requirement.min_cols, 2);
        assert_eq!(a.requirement.min_number_cols, 1);
    }

    #[test]
    fn unpaired_value_hole_is_flagged() {
        // val1 appears in the select list, never compared to a column hole.
        let a = analyze(&parse("select val1 from w where c1 = val2"));
        assert_eq!(a.issues.len(), 1);
        assert_eq!(a.issues[0].code, "unpaired-value-hole");
        assert_eq!(a.issues[0].locus, "val1");
    }

    #[test]
    fn conflicting_hole_annotations_are_flagged() {
        let a = analyze(&parse("select c1 from w order by c1_number desc limit 1"));
        assert_eq!(a.issues.len(), 1);
        assert_eq!(a.issues[0].code, "hole-type-conflict");
        assert_eq!(a.issues[0].locus, "c1");
    }

    #[test]
    fn schema_infeasible_requirement_is_reported_not_flagged() {
        // Demanding two numeric columns is not a template defect — it just
        // narrows which tables qualify.
        let a = analyze(&parse("select c1_number from w order by c2_number desc limit 1"));
        assert!(a.is_clean());
        assert_eq!(a.requirement.min_number_cols, 2);
        assert_eq!(a.requirement.min_cols, 2);
    }
}
