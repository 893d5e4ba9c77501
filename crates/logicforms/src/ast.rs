//! Logical-form AST (the Logic2Text DSL of Chen et al. \[7\]).
//!
//! A logical form is a nested application `func { arg1 ; arg2 ; ... }`
//! executed against a table; the root of a fact-verification program always
//! evaluates to a boolean (the claim's truth value). The operator inventory
//! covers the reasoning types the paper lists (§II-C): count, superlative,
//! comparative, aggregation, majority, unique, and ordinal.

use std::fmt;

/// All supported logical-form operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LfOp {
    // --- view producers (table subsets) ---
    /// `filter_eq { view ; col ; val }` — rows whose `col` equals `val`.
    FilterEq,
    /// `filter_not_eq { view ; col ; val }`
    FilterNotEq,
    /// `filter_greater { view ; col ; val }`
    FilterGreater,
    /// `filter_less { view ; col ; val }`
    FilterLess,
    /// `filter_greater_eq { view ; col ; val }`
    FilterGreaterEq,
    /// `filter_less_eq { view ; col ; val }`
    FilterLessEq,
    /// `filter_all { view ; col }` — rows with a non-empty `col`.
    FilterAll,

    // --- row producers ---
    /// `argmax { view ; col }` — the row with the maximum `col`.
    Argmax,
    /// `argmin { view ; col }`
    Argmin,
    /// `nth_argmax { view ; col ; n }` — row with the n-th largest `col` (1-based).
    NthArgmax,
    /// `nth_argmin { view ; col ; n }`
    NthArgmin,

    // --- scalar producers ---
    /// `count { view }` — number of rows.
    Count,
    /// `max { view ; col }` — maximum value.
    Max,
    /// `min { view ; col }`
    Min,
    /// `sum { view ; col }`
    Sum,
    /// `avg { view ; col }`
    Avg,
    /// `nth_max { view ; col ; n }` — n-th largest value.
    NthMax,
    /// `nth_min { view ; col ; n }`
    NthMin,
    /// `hop { row ; col }` — value of `col` in `row`.
    Hop,
    /// `diff { a ; b }` — numeric difference `a - b`.
    Diff,

    // --- boolean producers ---
    /// `eq { a ; b }` — loose equality.
    Eq,
    /// `not_eq { a ; b }`
    NotEq,
    /// `round_eq { a ; b }` — numeric equality with 1% tolerance.
    RoundEq,
    /// `greater { a ; b }`
    Greater,
    /// `less { a ; b }`
    Less,
    /// `and { a ; b }` — boolean conjunction.
    And,
    /// `only { view }` — view has exactly one row (the *unique* type).
    Only,

    // --- majority family (view ; col ; val -> bool) ---
    /// `all_eq { view ; col ; val }` — every row's `col` equals `val`.
    AllEq,
    AllNotEq,
    AllGreater,
    AllLess,
    AllGreaterEq,
    AllLessEq,
    /// `most_eq { view ; col ; val }` — a strict majority of rows match.
    MostEq,
    MostNotEq,
    MostGreater,
    MostLess,
    MostGreaterEq,
    MostLessEq,
}

impl LfOp {
    /// Canonical surface name.
    pub fn name(self) -> &'static str {
        use LfOp::*;
        match self {
            FilterEq => "filter_eq",
            FilterNotEq => "filter_not_eq",
            FilterGreater => "filter_greater",
            FilterLess => "filter_less",
            FilterGreaterEq => "filter_greater_eq",
            FilterLessEq => "filter_less_eq",
            FilterAll => "filter_all",
            Argmax => "argmax",
            Argmin => "argmin",
            NthArgmax => "nth_argmax",
            NthArgmin => "nth_argmin",
            Count => "count",
            Max => "max",
            Min => "min",
            Sum => "sum",
            Avg => "avg",
            NthMax => "nth_max",
            NthMin => "nth_min",
            Hop => "hop",
            Diff => "diff",
            Eq => "eq",
            NotEq => "not_eq",
            RoundEq => "round_eq",
            Greater => "greater",
            Less => "less",
            And => "and",
            Only => "only",
            AllEq => "all_eq",
            AllNotEq => "all_not_eq",
            AllGreater => "all_greater",
            AllLess => "all_less",
            AllGreaterEq => "all_greater_eq",
            AllLessEq => "all_less_eq",
            MostEq => "most_eq",
            MostNotEq => "most_not_eq",
            MostGreater => "most_greater",
            MostLess => "most_less",
            MostGreaterEq => "most_greater_eq",
            MostLessEq => "most_less_eq",
        }
    }

    /// Parses a surface name.
    pub fn from_name(name: &str) -> Option<LfOp> {
        use LfOp::*;
        Some(match name {
            "filter_eq" => FilterEq,
            "filter_not_eq" => FilterNotEq,
            "filter_greater" => FilterGreater,
            "filter_less" => FilterLess,
            "filter_greater_eq" => FilterGreaterEq,
            "filter_less_eq" => FilterLessEq,
            "filter_all" => FilterAll,
            "argmax" => Argmax,
            "argmin" => Argmin,
            "nth_argmax" => NthArgmax,
            "nth_argmin" => NthArgmin,
            "count" => Count,
            "max" => Max,
            "min" => Min,
            "sum" => Sum,
            "avg" => Avg,
            "nth_max" => NthMax,
            "nth_min" => NthMin,
            "hop" => Hop,
            "diff" => Diff,
            "eq" => Eq,
            "not_eq" => NotEq,
            "round_eq" => RoundEq,
            "greater" => Greater,
            "less" => Less,
            "and" => And,
            "only" => Only,
            "all_eq" => AllEq,
            "all_not_eq" => AllNotEq,
            "all_greater" => AllGreater,
            "all_less" => AllLess,
            "all_greater_eq" => AllGreaterEq,
            "all_less_eq" => AllLessEq,
            "most_eq" => MostEq,
            "most_not_eq" => MostNotEq,
            "most_greater" => MostGreater,
            "most_less" => MostLess,
            "most_greater_eq" => MostGreaterEq,
            "most_less_eq" => MostLessEq,
            _ => return None,
        })
    }

    /// Required argument count.
    pub fn arity(self) -> usize {
        use LfOp::*;
        match self {
            Count | Only => 1,
            FilterAll | Argmax | Argmin | Max | Min | Sum | Avg | Hop | Diff | Eq | NotEq
            | RoundEq | Greater | Less | And => 2,
            FilterEq | FilterNotEq | FilterGreater | FilterLess | FilterGreaterEq
            | FilterLessEq | NthArgmax | NthArgmin | NthMax | NthMin | AllEq | AllNotEq
            | AllGreater | AllLess | AllGreaterEq | AllLessEq | MostEq | MostNotEq
            | MostGreater | MostLess | MostGreaterEq | MostLessEq => 3,
        }
    }

    /// Whether this operator needs numeric column values.
    pub fn is_numeric(self) -> bool {
        use LfOp::*;
        matches!(
            self,
            FilterGreater
                | FilterLess
                | FilterGreaterEq
                | FilterLessEq
                | Argmax
                | Argmin
                | NthArgmax
                | NthArgmin
                | Max
                | Min
                | Sum
                | Avg
                | NthMax
                | NthMin
                | Diff
                | Greater
                | Less
                | RoundEq
                | AllGreater
                | AllLess
                | AllGreaterEq
                | AllLessEq
                | MostGreater
                | MostLess
                | MostGreaterEq
                | MostLessEq
        )
    }
}

impl fmt::Display for LfOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The coarse logic categories of Logic2Text, used to stratify template
/// sampling and to pick surface-realization grammars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicType {
    Count,
    Superlative,
    Ordinal,
    Comparative,
    Aggregation,
    Majority,
    Unique,
}

impl fmt::Display for LogicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LogicType::Count => "count",
            LogicType::Superlative => "superlative",
            LogicType::Ordinal => "ordinal",
            LogicType::Comparative => "comparative",
            LogicType::Aggregation => "aggregation",
            LogicType::Majority => "majority",
            LogicType::Unique => "unique",
        };
        f.write_str(s)
    }
}

/// A node of a logical form: an operator application or a leaf symbol.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum LfExpr {
    /// `func { arg1 ; ... }`
    Apply(LfOp, Vec<LfExpr>),
    /// The whole table (`all_rows`).
    #[default]
    AllRows,
    /// A column-name leaf.
    Column(String),
    /// A constant leaf (cell value, number, string).
    Const(String),
    /// A column placeholder `c1` (templates only).
    ColumnHole(usize),
    /// A value placeholder `val1` (templates only), remembering which
    /// column hole it samples from.
    ValueHole(usize),
}

impl LfExpr {
    /// True if the tree contains any template hole.
    pub fn has_holes(&self) -> bool {
        match self {
            LfExpr::ColumnHole(_) | LfExpr::ValueHole(_) => true,
            LfExpr::Apply(_, args) => args.iter().any(LfExpr::has_holes),
            _ => false,
        }
    }

    /// The dominant logic category of this program (by root-ish inspection,
    /// following Logic2Text's own categorization).
    pub fn logic_type(&self) -> LogicType {
        fn contains(e: &LfExpr, pred: &impl Fn(LfOp) -> bool) -> bool {
            match e {
                LfExpr::Apply(op, args) => pred(*op) || args.iter().any(|a| contains(a, pred)),
                _ => false,
            }
        }
        use LfOp::*;
        if contains(self, &|op| matches!(op, NthArgmax | NthArgmin | NthMax | NthMin)) {
            LogicType::Ordinal
        } else if contains(self, &|op| matches!(op, Argmax | Argmin | Max | Min)) {
            LogicType::Superlative
        } else if contains(self, &|op| {
            matches!(
                op,
                AllEq
                    | AllNotEq
                    | AllGreater
                    | AllLess
                    | AllGreaterEq
                    | AllLessEq
                    | MostEq
                    | MostNotEq
                    | MostGreater
                    | MostLess
                    | MostGreaterEq
                    | MostLessEq
            )
        }) {
            LogicType::Majority
        } else if contains(self, &|op| matches!(op, Only)) {
            LogicType::Unique
        } else if contains(self, &|op| matches!(op, Count)) {
            LogicType::Count
        } else if contains(self, &|op| matches!(op, Sum | Avg)) {
            LogicType::Aggregation
        } else {
            LogicType::Comparative
        }
    }

    /// Visits every node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&LfExpr)) {
        f(self);
        if let LfExpr::Apply(_, args) = self {
            for a in args {
                a.visit(f);
            }
        }
    }
}

impl fmt::Display for LfExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LfExpr::Apply(op, args) => {
                write!(f, "{op} {{ ")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ; ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, " }}")
            }
            LfExpr::AllRows => write!(f, "all_rows"),
            LfExpr::Column(c) => write!(f, "{c}"),
            LfExpr::Const(v) => write!(f, "{v}"),
            LfExpr::ColumnHole(i) => write!(f, "c{i}"),
            LfExpr::ValueHole(i) => write!(f, "val{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_name_roundtrip() {
        for op in [
            LfOp::FilterEq,
            LfOp::Argmax,
            LfOp::NthMax,
            LfOp::MostGreaterEq,
            LfOp::Hop,
            LfOp::And,
            LfOp::Only,
        ] {
            assert_eq!(LfOp::from_name(op.name()), Some(op));
        }
        assert_eq!(LfOp::from_name("bogus"), None);
    }

    #[test]
    fn arity_spot_checks() {
        assert_eq!(LfOp::Count.arity(), 1);
        assert_eq!(LfOp::Hop.arity(), 2);
        assert_eq!(LfOp::FilterEq.arity(), 3);
        assert_eq!(LfOp::NthArgmax.arity(), 3);
    }

    #[test]
    fn display_nested() {
        let e = LfExpr::Apply(
            LfOp::Eq,
            vec![
                LfExpr::Apply(
                    LfOp::Hop,
                    vec![
                        LfExpr::Apply(
                            LfOp::Argmax,
                            vec![LfExpr::AllRows, LfExpr::Column("score".into())],
                        ),
                        LfExpr::Column("name".into()),
                    ],
                ),
                LfExpr::Const("alpha".into()),
            ],
        );
        assert_eq!(e.to_string(), "eq { hop { argmax { all_rows ; score } ; name } ; alpha }");
    }

    #[test]
    fn logic_type_classification() {
        use LfExpr::*;
        let count = Apply(
            LfOp::Eq,
            vec![
                Apply(
                    LfOp::Count,
                    vec![Apply(
                        LfOp::FilterEq,
                        vec![AllRows, Column("a".into()), Const("x".into())],
                    )],
                ),
                Const("3".into()),
            ],
        );
        assert_eq!(count.logic_type(), LogicType::Count);
        let superl = Apply(
            LfOp::Eq,
            vec![
                Apply(
                    LfOp::Hop,
                    vec![
                        Apply(LfOp::Argmax, vec![AllRows, Column("s".into())]),
                        Column("n".into()),
                    ],
                ),
                Const("x".into()),
            ],
        );
        assert_eq!(superl.logic_type(), LogicType::Superlative);
        let ordinal = Apply(
            LfOp::Eq,
            vec![
                Apply(LfOp::NthMax, vec![AllRows, Column("s".into()), Const("2".into())]),
                Const("5".into()),
            ],
        );
        assert_eq!(ordinal.logic_type(), LogicType::Ordinal);
    }

    #[test]
    fn has_holes_detection() {
        let t = LfExpr::Apply(
            LfOp::FilterEq,
            vec![LfExpr::AllRows, LfExpr::ColumnHole(1), LfExpr::ValueHole(1)],
        );
        assert!(t.has_holes());
        let c = LfExpr::Apply(
            LfOp::FilterEq,
            vec![LfExpr::AllRows, LfExpr::Column("a".into()), LfExpr::Const("x".into())],
        );
        assert!(!c.has_holes());
    }
}
