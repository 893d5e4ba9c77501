//! SQL template abstraction and sampling.
//!
//! Implements the paper's program-template machinery for SQL queries
//! (§IV-B/§IV-C): a template is a `SelectStmt` whose column references are
//! placeholders (`c1`, `c2_number`) and whose compared constants are value
//! placeholders (`val1`). [`SqlTemplate::try_instantiate`] performs the random
//! sampling strategy — column placeholders are filled with randomly chosen
//! columns of a matching type, then each value placeholder is filled with a
//! random cell value *from the column it is compared against*, which keeps
//! the internal relationships of the original program intact.
//!
//! The inverse direction, [`abstract_query`], turns a concrete query into a
//! template (used when mining templates from a seed corpus) and produces the
//! normalized signature used for the redundancy filtration step.

use crate::ast::*;
use crate::parser::{parse, ParseError};
use rand::seq::SliceRandom;
use rand::Rng;
use rustc_hash::FxHashMap;
use tabular::{ColumnType, ExecContext, Table, Value};

/// Why instantiating a template on a given table failed — the structured
/// discard reasons the pipeline telemetry aggregates (instead of an opaque
/// `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlInstantiateError {
    /// No table column satisfies a column hole's type constraint (e.g. the
    /// template needs two numeric columns but the table has one).
    NoCompatibleColumn,
    /// A bound column has no non-null cell to fill a value hole from.
    NoValueCandidates,
    /// The template itself is malformed: a value hole not compared against
    /// any column hole, or a dangling reference during substitution.
    MalformedTemplate,
}

impl std::fmt::Display for SqlInstantiateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlInstantiateError::NoCompatibleColumn => write!(f, "no compatible column"),
            SqlInstantiateError::NoValueCandidates => write!(f, "no value candidates"),
            SqlInstantiateError::MalformedTemplate => write!(f, "malformed template"),
        }
    }
}

impl std::error::Error for SqlInstantiateError {}

/// A reusable SQL program template.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlTemplate {
    stmt: SelectStmt,
}

/// Reusable buffers for [`SqlTemplate::try_instantiate`]: the hole
/// list, the shuffled column pool, and the hole→column / hole→value
/// assignments. One per worker; reused across every instantiation attempt
/// so the per-attempt path allocates nothing but the instantiated
/// statement itself.
#[derive(Debug, Clone, Default)]
pub struct SqlScratch {
    holes: Vec<(usize, Option<PlaceholderType>)>,
    available: Vec<usize>,
    assignment: FxHashMap<usize, usize>,
    values: FxHashMap<usize, Value>,
    /// Kernel buffers shared with the compiled executor (row views,
    /// highlight accumulation) so per-sample execution stops allocating.
    pub kern: tabular::KernelScratch,
}

impl SqlTemplate {
    /// Parses template text such as
    /// `select c1 from w order by c2_number desc limit 1`.
    pub fn parse(text: &str) -> Result<SqlTemplate, ParseError> {
        Ok(SqlTemplate { stmt: parse(text)? })
    }

    /// The underlying (hole-y) statement.
    pub fn stmt(&self) -> &SelectStmt {
        &self.stmt
    }

    /// Normalized signature for deduplication: the rendered template text.
    /// Two mined queries with the same logic structure abstract to the same
    /// signature (paper: "dropping redundant program templates").
    pub fn signature(&self) -> String {
        self.stmt.to_string()
    }

    /// Distinct column placeholders with their type constraints, in
    /// first-appearance order.
    pub fn column_holes(&self) -> Vec<(usize, Option<PlaceholderType>)> {
        let mut seen = Vec::new();
        self.column_holes_into(&mut seen);
        seen
    }

    /// [`SqlTemplate::column_holes`] into a caller-owned buffer (cleared
    /// first).
    fn column_holes_into(&self, seen: &mut Vec<(usize, Option<PlaceholderType>)>) {
        seen.clear();
        self.stmt.visit_columns(&mut |c| {
            if let ColumnRef::Placeholder { index, ty } = c {
                if !seen.iter().any(|(i, _)| i == index) {
                    seen.push((*index, *ty));
                }
            }
        });
    }

    /// Instantiates the template on `ctx`'s table using the random sampling
    /// strategy, reading value candidates from `ctx` and reusing `scratch`.
    /// Fails with the reason the table cannot satisfy the template (e.g. it
    /// needs two numeric columns but the table has one).
    pub fn try_instantiate(
        &self,
        ctx: &ExecContext,
        rng: &mut impl Rng,
        scratch: &mut SqlScratch,
    ) -> Result<SelectStmt, SqlInstantiateError> {
        self.sample(ctx.table(), Some(ctx), rng, scratch)
    }

    /// [`SqlTemplate::try_instantiate`] with an optional context; `None` is
    /// the oracle of [`crate::reference::try_instantiate`].
    pub(crate) fn sample(
        &self,
        table: &Table,
        ctx: Option<&ExecContext>,
        rng: &mut impl Rng,
        scratch: &mut SqlScratch,
    ) -> Result<SelectStmt, SqlInstantiateError> {
        let SqlScratch { holes, available, assignment, values, kern: _ } = scratch;
        self.column_holes_into(holes);
        // Assign typed holes first so an untyped hole cannot steal the only
        // column satisfying a type constraint.
        holes.sort_by_key(|(_, ty)| ty.is_none());
        available.clear();
        available.extend(0..table.n_cols());
        available.shuffle(rng);
        assignment.clear();
        for (hole_idx, ty) in holes.iter() {
            let pos = available
                .iter()
                .position(|&ci| {
                    let col_ty = table.schema().column(ci).map(|c| c.ty);
                    match ty {
                        None => true,
                        Some(PlaceholderType::Number) => {
                            matches!(col_ty, Some(ColumnType::Number))
                        }
                        Some(PlaceholderType::Date) => matches!(col_ty, Some(ColumnType::Date)),
                        Some(PlaceholderType::Text) => matches!(col_ty, Some(ColumnType::Text)),
                    }
                })
                .ok_or(SqlInstantiateError::NoCompatibleColumn)?;
            let ci = available.remove(pos);
            assignment.insert(*hole_idx, ci);
        }
        // Pair each value placeholder with the column placeholder it is
        // compared against, then sample a value from that column.
        let pairs = value_hole_columns(&self.stmt);
        values.clear();
        for (val_idx, col_hole) in pairs {
            let ci = *assignment.get(&col_hole).ok_or(SqlInstantiateError::MalformedTemplate)?;
            let v = match ctx {
                Some(ctx) => ctx
                    .non_null_values(ci)
                    .choose(rng)
                    .map(|&v| v.clone())
                    .ok_or(SqlInstantiateError::NoValueCandidates)?,
                None => {
                    let candidates: Vec<Value> =
                        table.column_values(ci).into_iter().filter(|v| !v.is_null()).collect();
                    candidates.choose(rng).ok_or(SqlInstantiateError::NoValueCandidates)?.clone()
                }
            };
            values.insert(val_idx, v);
        }
        let stmt = substitute(&self.stmt, table, assignment, values)
            .ok_or(SqlInstantiateError::MalformedTemplate)?;
        debug_assert!(!stmt.has_placeholders());
        Ok(stmt)
    }
}

/// For every `valN` placeholder, the index of the column placeholder it is
/// compared against. Returns `None`-free map only for well-formed templates;
/// unpaired value holes are simply missing from the result (instantiation
/// will then fail, which discards the malformed template). Shared with the
/// static analyzer (`crate::analysis`) so "paired" means the same thing at
/// typecheck time and at instantiation time.
pub(crate) fn value_hole_columns(stmt: &SelectStmt) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    fn scan_cond(c: &Cond, pairs: &mut Vec<(usize, usize)>) {
        match c {
            Cond::Compare { lhs, rhs, .. } => {
                scan_pair(lhs, rhs, pairs);
                scan_pair(rhs, lhs, pairs);
            }
            Cond::And(a, b) | Cond::Or(a, b) => {
                scan_cond(a, pairs);
                scan_cond(b, pairs);
            }
        }
    }
    fn scan_pair(a: &Expr, b: &Expr, pairs: &mut Vec<(usize, usize)>) {
        if let (Expr::ValuePlaceholder(v), Expr::Column(ColumnRef::Placeholder { index, .. })) =
            (a, b)
        {
            pairs.push((*v, *index));
        }
    }
    if let Some(w) = &stmt.where_clause {
        scan_cond(w, &mut pairs);
    }
    pairs
}

fn substitute(
    stmt: &SelectStmt,
    table: &Table,
    cols: &FxHashMap<usize, usize>,
    vals: &FxHashMap<usize, Value>,
) -> Option<SelectStmt> {
    let sub_col = |c: &ColumnRef| -> Option<ColumnRef> {
        match c {
            ColumnRef::Named(n) => Some(ColumnRef::Named(n.clone())),
            ColumnRef::Placeholder { index, .. } => {
                let ci = cols.get(index)?;
                Some(ColumnRef::Named(table.column_name(*ci)?.to_string()))
            }
        }
    };
    fn sub_expr(
        e: &Expr,
        sub_col: &impl Fn(&ColumnRef) -> Option<ColumnRef>,
        vals: &FxHashMap<usize, Value>,
    ) -> Option<Expr> {
        Some(match e {
            Expr::Column(c) => Expr::Column(sub_col(c)?),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::ValuePlaceholder(i) => Expr::Literal(vals.get(i)?.clone()),
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(sub_expr(lhs, sub_col, vals)?),
                rhs: Box::new(sub_expr(rhs, sub_col, vals)?),
            },
        })
    }
    fn sub_cond(
        c: &Cond,
        sub_col: &impl Fn(&ColumnRef) -> Option<ColumnRef>,
        vals: &FxHashMap<usize, Value>,
    ) -> Option<Cond> {
        Some(match c {
            Cond::Compare { op, lhs, rhs } => Cond::Compare {
                op: *op,
                lhs: sub_expr(lhs, sub_col, vals)?,
                rhs: sub_expr(rhs, sub_col, vals)?,
            },
            Cond::And(a, b) => Cond::And(
                Box::new(sub_cond(a, sub_col, vals)?),
                Box::new(sub_cond(b, sub_col, vals)?),
            ),
            Cond::Or(a, b) => Cond::Or(
                Box::new(sub_cond(a, sub_col, vals)?),
                Box::new(sub_cond(b, sub_col, vals)?),
            ),
        })
    }
    let items = stmt
        .items
        .iter()
        .map(|i| {
            Some(match i {
                SelectItem::Star => SelectItem::Star,
                SelectItem::Expr(e) => SelectItem::Expr(sub_expr(e, &sub_col, vals)?),
                SelectItem::Aggregate { func, arg, distinct } => SelectItem::Aggregate {
                    func: *func,
                    arg: match arg {
                        Some(e) => Some(sub_expr(e, &sub_col, vals)?),
                        None => None,
                    },
                    distinct: *distinct,
                },
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(SelectStmt {
        items,
        distinct: stmt.distinct,
        where_clause: match &stmt.where_clause {
            Some(w) => Some(sub_cond(w, &sub_col, vals)?),
            None => None,
        },
        group_by: match &stmt.group_by {
            Some(g) => Some(sub_col(g)?),
            None => None,
        },
        order_by: match &stmt.order_by {
            Some((e, d)) => Some((sub_expr(e, &sub_col, vals)?, *d)),
            None => None,
        },
        limit: stmt.limit,
    })
}

/// Abstracts a concrete query over `table` into a template: each distinct
/// named column becomes `cN` (with a `_number`/`_date` suffix from the
/// table's schema), and each literal compared against a column becomes
/// `valN`. Used by the template mining step (§IV-B).
pub fn abstract_query(stmt: &SelectStmt, table: &Table) -> SqlTemplate {
    let mut col_map: FxHashMap<String, usize> = FxHashMap::default();
    let mut next_col = 1usize;
    let mut next_val = 1usize;

    let mut map_col = |c: &ColumnRef| -> ColumnRef {
        match c {
            ColumnRef::Named(name) => {
                let key = name.to_ascii_lowercase();
                let index = *col_map.entry(key).or_insert_with(|| {
                    let i = next_col;
                    next_col += 1;
                    i
                });
                let ty = table
                    .column_index(name)
                    .and_then(|ci| table.schema().column(ci))
                    .and_then(|c| match c.ty {
                        ColumnType::Number => Some(PlaceholderType::Number),
                        ColumnType::Date => Some(PlaceholderType::Date),
                        _ => None,
                    });
                ColumnRef::Placeholder { index, ty }
            }
            other => other.clone(),
        }
    };

    fn abs_expr(e: &Expr, map_col: &mut impl FnMut(&ColumnRef) -> ColumnRef) -> Expr {
        match e {
            Expr::Column(c) => Expr::Column(map_col(c)),
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(abs_expr(lhs, map_col)),
                rhs: Box::new(abs_expr(rhs, map_col)),
            },
            other => other.clone(),
        }
    }

    fn abs_cond(
        c: &Cond,
        map_col: &mut impl FnMut(&ColumnRef) -> ColumnRef,
        next_val: &mut usize,
    ) -> Cond {
        match c {
            Cond::Compare { op, lhs, rhs } => {
                // Literal compared against a column becomes a value hole.
                let (mut l, mut r) = (abs_expr(lhs, map_col), abs_expr(rhs, map_col));
                if matches!(l, Expr::Column(ColumnRef::Placeholder { .. }))
                    && matches!(r, Expr::Literal(_))
                {
                    r = Expr::ValuePlaceholder(*next_val);
                    *next_val += 1;
                } else if matches!(r, Expr::Column(ColumnRef::Placeholder { .. }))
                    && matches!(l, Expr::Literal(_))
                {
                    l = Expr::ValuePlaceholder(*next_val);
                    *next_val += 1;
                }
                Cond::Compare { op: *op, lhs: l, rhs: r }
            }
            Cond::And(a, b) => Cond::And(
                Box::new(abs_cond(a, map_col, next_val)),
                Box::new(abs_cond(b, map_col, next_val)),
            ),
            Cond::Or(a, b) => Cond::Or(
                Box::new(abs_cond(a, map_col, next_val)),
                Box::new(abs_cond(b, map_col, next_val)),
            ),
        }
    }

    let items = stmt
        .items
        .iter()
        .map(|i| match i {
            SelectItem::Star => SelectItem::Star,
            SelectItem::Expr(e) => SelectItem::Expr(abs_expr(e, &mut map_col)),
            SelectItem::Aggregate { func, arg, distinct } => SelectItem::Aggregate {
                func: *func,
                arg: arg.as_ref().map(|e| abs_expr(e, &mut map_col)),
                distinct: *distinct,
            },
        })
        .collect();
    let where_clause = stmt.where_clause.as_ref().map(|w| abs_cond(w, &mut map_col, &mut next_val));
    let group_by = stmt.group_by.as_ref().map(&mut map_col);
    let order_by = stmt.order_by.as_ref().map(|(e, d)| (abs_expr(e, &mut map_col), *d));
    SqlTemplate {
        stmt: SelectStmt {
            items,
            distinct: stmt.distinct,
            where_clause,
            group_by,
            order_by,
            limit: stmt.limit,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecError, QueryResult};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tabular::KernelScratch;

    fn table() -> Table {
        Table::from_strings(
            "t",
            &[
                vec!["name", "city", "score", "year"],
                vec!["alpha", "oslo", "10", "2001-01-01"],
                vec!["beta", "lima", "25", "2005-06-05"],
                vec!["gamma", "kyiv", "17", "1999-12-31"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e}"))
    }

    /// [`SqlTemplate::try_instantiate`] on `t` with a fresh context.
    fn instantiate(
        tpl: &SqlTemplate,
        t: &Table,
        rng: &mut StdRng,
    ) -> Result<SelectStmt, SqlInstantiateError> {
        tpl.try_instantiate(&ExecContext::new(t), rng, &mut SqlScratch::default())
    }

    fn run(stmt: &SelectStmt, t: &Table) -> Result<QueryResult, ExecError> {
        execute(stmt, t, &mut KernelScratch::default())
    }

    #[test]
    fn instantiate_superlative_template() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = SqlTemplate::parse("select c1 from w order by c2_number desc limit 1")?;
        let mut rng = StdRng::seed_from_u64(7);
        let stmt = instantiate(&tpl, &table(), &mut rng)?;
        assert!(!stmt.has_placeholders());
        let r = run(&stmt, &table())?;
        assert!(!r.is_empty());
        Ok(())
    }

    #[test]
    fn instantiate_respects_type_constraints() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = SqlTemplate::parse("select c1 from w where c2_number > val1")?;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let stmt = instantiate(&tpl, &table(), &mut rng)?;
            let rendered = stmt.to_string();
            // The compared column must be the (only) numeric column `score`.
            assert!(rendered.contains("score >"), "got {rendered}");
        }
        Ok(())
    }

    #[test]
    fn instantiate_value_comes_from_bound_column() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = SqlTemplate::parse("select c1 from w where c2_number = val1")?;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let stmt = instantiate(&tpl, &table(), &mut rng)?;
            let r = run(&stmt, &table())?;
            // Sampling from the real column means equality always matches.
            assert!(!r.is_empty(), "instantiated query found nothing: {stmt}");
        }
        Ok(())
    }

    #[test]
    fn instantiate_fails_when_types_unavailable() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings("t", &[vec!["a", "b"], vec!["x", "y"]])?;
        let tpl = SqlTemplate::parse("select c1 from w where c2_number > val1")?;
        let mut rng = StdRng::seed_from_u64(1);
        assert!(instantiate(&tpl, &t, &mut rng).is_err());
        assert_eq!(instantiate(&tpl, &t, &mut rng), Err(SqlInstantiateError::NoCompatibleColumn));
        Ok(())
    }

    #[test]
    fn try_instantiate_reports_missing_values() -> Result<(), Box<dyn std::error::Error>> {
        // A text column whose cells are all null: binding succeeds, value
        // sampling cannot.
        let t = Table::from_strings("t", &[vec!["a", "b"], vec!["x", ""], vec!["y", ""]])?;
        let tpl = SqlTemplate::parse("select c1 from w where c2 = val1")?;
        let mut rng = StdRng::seed_from_u64(2);
        let mut saw_no_values = false;
        for _ in 0..20 {
            if let Err(SqlInstantiateError::NoValueCandidates) = instantiate(&tpl, &t, &mut rng) {
                saw_no_values = true;
            }
        }
        assert!(saw_no_values);
        Ok(())
    }

    #[test]
    fn instantiate_distinct_columns_for_distinct_holes() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = SqlTemplate::parse("select c1 from w where c2 = val1")?;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let stmt = instantiate(&tpl, &table(), &mut rng)?;
            // c1 and c2 must not both map to the same column.
            let rendered = stmt.to_string();
            let sel_col = rendered.split_whitespace().nth(1).ok_or("unexpected None")?.to_string();
            assert!(!rendered[rendered.find("where").ok_or("unexpected None")?..]
                .starts_with(&format!("where {sel_col} =")));
        }
        Ok(())
    }

    #[test]
    fn abstraction_dedups_same_structure() -> Result<(), Box<dyn std::error::Error>> {
        let t = table();
        let a = parse("select [name] from w order by [score] desc limit 1")?;
        let b = parse("select [city] from w order by [score] desc limit 1")?;
        let sig_a = abstract_query(&a, &t).signature();
        let sig_b = abstract_query(&b, &t).signature();
        assert_eq!(sig_a, sig_b);
        assert_eq!(sig_a, "select c1 from w order by c2_number desc limit 1");
        Ok(())
    }

    #[test]
    fn abstraction_introduces_value_holes() -> Result<(), Box<dyn std::error::Error>> {
        let t = table();
        let q = parse("select [score] from w where [name] = 'alpha'")?;
        let sig = abstract_query(&q, &t).signature();
        assert_eq!(sig, "select c1_number from w where c2 = val1");
        Ok(())
    }

    #[test]
    fn abstract_then_instantiate_roundtrip_executes() -> Result<(), Box<dyn std::error::Error>> {
        let t = table();
        let q = parse("select count(*) from w where [score] > 12")?;
        let tpl = abstract_query(&q, &t);
        let mut rng = StdRng::seed_from_u64(21);
        let stmt = instantiate(&tpl, &t, &mut rng)?;
        let r = run(&stmt, &t)?;
        assert_eq!(r.rows.len(), 1);
        Ok(())
    }

    #[test]
    fn column_holes_reports_types() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = SqlTemplate::parse("select c1 from w where c2_number > val1 and c3_date = val2")?;
        let holes = tpl.column_holes();
        assert_eq!(
            holes,
            vec![(1, None), (2, Some(PlaceholderType::Number)), (3, Some(PlaceholderType::Date)),]
        );
        Ok(())
    }
}
