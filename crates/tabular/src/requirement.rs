//! Schema-feasibility requirements computed by the template analyzers.
//!
//! A [`SchemaRequirement`] is the table-independent summary of what a
//! program template needs from a table before instantiation can possibly
//! succeed: how many columns of each inferred [`ColumnType`], how many
//! distinct columns overall, whether at least one row / addressable numeric
//! cell must exist. The per-DSL `analysis` modules (sqlexec / logicforms /
//! arithexpr) compute one per template; the pipeline compares it against a
//! table's [`ExecContext`] census to *prefilter* (template, table) pairs
//! that would only fail at runtime.
//!
//! Requirements form a join semilattice under pointwise `max` / `or`
//! ([`SchemaRequirement::join`]): `a.join(b)` is the weakest requirement at
//! least as strong as both, so the requirement of a compound program is the
//! join of its parts' requirements. [`SchemaRequirement::NONE`] is the
//! bottom element (satisfied by every table, including the empty one).
//!
//! **Soundness contract.** `!req.satisfied_by(ctx)` may only hold when
//! instantiating the template on the table behind `ctx` fails for *every*
//! RNG stream — the analyzers must under-approximate, never guess. The
//! workspace property tests (`tests/property_tests.rs`) pin this against
//! the production `try_instantiate` entry points under many seeds.

use crate::context::ExecContext;
use crate::schema::ColumnType;

/// What a template provably needs from a table (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchemaRequirement {
    /// Minimum row count (1 when the template must sample any cell value).
    pub min_rows: usize,
    /// Minimum total column count (distinct column holes of any type).
    pub min_cols: usize,
    /// Minimum columns inferred as [`ColumnType::Number`].
    pub min_number_cols: usize,
    /// Minimum columns inferred as [`ColumnType::Date`].
    pub min_date_cols: usize,
    /// Minimum columns inferred as [`ColumnType::Text`].
    pub min_text_cols: usize,
    /// Minimum cells addressable as `the <col> of <row>` (arithmetic
    /// templates; see `ExecContext::addressable_cells`).
    pub min_addressable_cells: usize,
    /// Whether at least one `Number` column must exist (arithmetic
    /// column-aggregation holes bind only to schema-`Number` columns).
    pub needs_number_column: bool,
    /// Minimum count of numeric cells that some *single* column must hold
    /// (abstract-interpretation tightening: a constant-ordinal `nth_max
    /// {{ n ; c ; ... }}` errors with `Empty` on every column with fewer
    /// than `n` numeric cells, so instantiation deterministically fails
    /// unless one column clears the bar).
    pub min_col_numeric_values: usize,
}

impl SchemaRequirement {
    /// The bottom of the lattice: satisfied by every table.
    pub const NONE: SchemaRequirement = SchemaRequirement {
        min_rows: 0,
        min_cols: 0,
        min_number_cols: 0,
        min_date_cols: 0,
        min_text_cols: 0,
        min_addressable_cells: 0,
        needs_number_column: false,
        min_col_numeric_values: 0,
    };

    /// Pointwise join (max / or): the weakest requirement implying both.
    pub fn join(self, other: SchemaRequirement) -> SchemaRequirement {
        SchemaRequirement {
            min_rows: self.min_rows.max(other.min_rows),
            min_cols: self.min_cols.max(other.min_cols),
            min_number_cols: self.min_number_cols.max(other.min_number_cols),
            min_date_cols: self.min_date_cols.max(other.min_date_cols),
            min_text_cols: self.min_text_cols.max(other.min_text_cols),
            min_addressable_cells: self.min_addressable_cells.max(other.min_addressable_cells),
            needs_number_column: self.needs_number_column || other.needs_number_column,
            min_col_numeric_values: self.min_col_numeric_values.max(other.min_col_numeric_values),
        }
    }

    /// `true` for the bottom element (no table can fail it).
    pub fn is_trivial(&self) -> bool {
        *self == SchemaRequirement::NONE
    }

    /// Whether the table behind `ctx` meets every bound. `false` means the
    /// analyzers proved instantiation cannot succeed on this table.
    pub fn satisfied_by(&self, ctx: &ExecContext) -> bool {
        ctx.n_rows() >= self.min_rows
            && ctx.n_cols() >= self.min_cols
            && ctx.column_type_count(ColumnType::Number) >= self.min_number_cols
            && ctx.column_type_count(ColumnType::Date) >= self.min_date_cols
            && ctx.column_type_count(ColumnType::Text) >= self.min_text_cols
            && ctx.addressable_cells().len() >= self.min_addressable_cells
            && (!self.needs_number_column || ctx.column_type_count(ColumnType::Number) > 0)
            && (self.min_col_numeric_values == 0
                || (0..ctx.n_cols()).any(|c| ctx.numeric_count(c) >= self.min_col_numeric_values))
    }
}

/// One static defect found in a template, independent of any table.
///
/// `code` is a stable kebab-case identifier (ratcheted by
/// `xtask audit-templates`); `locus` names the offending construct inside
/// the template (a hole like `val1`, an operator path like `and.arg0`);
/// `message` explains the defect and its deterministic runtime consequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateIssue {
    pub code: &'static str,
    pub locus: String,
    pub message: String,
}

impl TemplateIssue {
    pub fn new(
        code: &'static str,
        locus: impl Into<String>,
        message: impl Into<String>,
    ) -> TemplateIssue {
        TemplateIssue { code, locus: locus.into(), message: message.into() }
    }
}

impl std::fmt::Display for TemplateIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} ({})", self.locus, self.message, self.code)
    }
}

/// The result of statically analyzing one template: every well-formedness
/// defect found, the weakest [`SchemaRequirement`] a table must meet for
/// instantiation to have any chance of succeeding, plus the
/// abstract-interpretation layer — degeneracy diagnostics (the A-rule
/// family), the joined [`AbsSummary`](crate::absdom::AbsSummary), and the static discard-cost model's
/// survival estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateAnalysis {
    /// Well-formedness defects (typechecker rules). A template with issues
    /// is rejected outright and never enters a bank.
    pub issues: Vec<TemplateIssue>,
    pub requirement: SchemaRequirement,
    /// Degeneracy convictions from the abstract interpreter (codes `A001`
    /// always-true/false or constant output, `A002` dead branch, `A003`
    /// vacuous predicate). Kept separate from `issues`: a degenerate
    /// template still executes, it just produces worthless samples.
    pub degeneracies: Vec<TemplateIssue>,
    /// The template's abstract result, joined over all hole assignments.
    pub summary: crate::absdom::AbsSummary,
    /// Static estimate in `[0, 1]` of the probability one instantiation
    /// attempt survives the generation funnel (the discard-cost model,
    /// calibrated against `PipelineReport` counters).
    pub survival: f64,
}

impl TemplateAnalysis {
    /// A defect-free analysis with the given requirement and the sound
    /// default abstract layer (top summary, no convictions, survival 1).
    pub fn clean(requirement: SchemaRequirement) -> TemplateAnalysis {
        TemplateAnalysis {
            issues: Vec::new(),
            requirement,
            degeneracies: Vec::new(),
            summary: crate::absdom::AbsSummary::TOP,
            survival: 1.0,
        }
    }

    /// Whether the template typechecked without any defect. Degeneracies do
    /// not count: they are quality findings, not malformedness.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Whether the abstract interpreter convicted the template of producing
    /// degenerate (constant / tautological / vacuous) output.
    pub fn is_degenerate(&self) -> bool {
        !self.degeneracies.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn table(rows: &[Vec<&str>]) -> Table {
        Table::from_strings("t", rows).unwrap_or_else(|e| panic!("test table: {e}"))
    }

    #[test]
    fn bottom_is_satisfied_by_the_empty_table() {
        let empty = table(&[vec!["a", "b"]]);
        assert!(SchemaRequirement::NONE.satisfied_by(&ExecContext::new(&empty)));
        assert!(SchemaRequirement::NONE.is_trivial());
    }

    #[test]
    fn join_is_pointwise_max() {
        let a = SchemaRequirement { min_rows: 1, min_number_cols: 2, ..SchemaRequirement::NONE };
        let b = SchemaRequirement {
            min_cols: 3,
            min_number_cols: 1,
            needs_number_column: true,
            ..SchemaRequirement::NONE
        };
        let j = a.join(b);
        assert_eq!(j.min_rows, 1);
        assert_eq!(j.min_cols, 3);
        assert_eq!(j.min_number_cols, 2);
        assert!(j.needs_number_column);
        // Commutative, idempotent, NONE is the identity.
        assert_eq!(a.join(b), b.join(a));
        assert_eq!(j.join(j), j);
        assert_eq!(a.join(SchemaRequirement::NONE), a);
    }

    #[test]
    fn satisfied_by_checks_the_type_census() {
        let t = table(&[vec!["name", "pts", "when"], vec!["Ada", "3", "1990-05-01"]]);
        let c = ExecContext::new(&t);
        let needs_number = SchemaRequirement { min_number_cols: 1, ..SchemaRequirement::NONE };
        let needs_two_numbers = SchemaRequirement { min_number_cols: 2, ..SchemaRequirement::NONE };
        let needs_date = SchemaRequirement { min_date_cols: 1, ..SchemaRequirement::NONE };
        assert!(needs_number.satisfied_by(&c));
        assert!(!needs_two_numbers.satisfied_by(&c));
        assert!(needs_date.satisfied_by(&c));
    }

    #[test]
    fn satisfied_by_checks_per_column_numeric_values() {
        // `pts` has 2 numeric cells, `misc` only 1; 3 numeric cells exist
        // overall but no single column holds 3.
        let t = table(&[vec!["name", "pts", "misc"], vec!["Ada", "3", "x"], vec!["Bel", "5", "9"]]);
        let c = ExecContext::new(&t);
        let two = SchemaRequirement { min_col_numeric_values: 2, ..SchemaRequirement::NONE };
        let three = SchemaRequirement { min_col_numeric_values: 3, ..SchemaRequirement::NONE };
        assert!(two.satisfied_by(&c));
        assert!(!three.satisfied_by(&c));
        assert_eq!(two.join(three).min_col_numeric_values, 3);
        assert!(!two.is_trivial());
    }

    #[test]
    fn analysis_degeneracy_layer_defaults() {
        let a = TemplateAnalysis::clean(SchemaRequirement::NONE);
        assert!(a.is_clean());
        assert!(!a.is_degenerate());
        assert_eq!(a.summary, crate::absdom::AbsSummary::TOP);
        assert_eq!(a.survival, 1.0);
    }

    #[test]
    fn satisfied_by_checks_rows_and_addressable_cells() {
        let empty = table(&[vec!["name", "pts"]]);
        let row_req = SchemaRequirement { min_rows: 1, ..SchemaRequirement::NONE };
        assert!(!row_req.satisfied_by(&ExecContext::new(&empty)));
        let cells_req = SchemaRequirement { min_addressable_cells: 2, ..SchemaRequirement::NONE };
        let one_cell = table(&[vec!["name", "pts"], vec!["Ada", "3"]]);
        assert!(!cells_req.satisfied_by(&ExecContext::new(&one_cell)));
        let two_cells = table(&[vec!["name", "pts", "wins"], vec!["Ada", "3", "4"]]);
        assert!(cells_req.satisfied_by(&ExecContext::new(&two_cells)));
    }
}
