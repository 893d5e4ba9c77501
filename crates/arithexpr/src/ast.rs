//! Arithmetic-expression AST (the FinQA DSL of Chen et al. \[6\]).
//!
//! A program is a sequence of steps, each applying one operation; later
//! steps reference earlier results with `#0`, `#1`, ... The paper's example
//! (§IV-B):
//!
//! ```text
//! subtract( the Stockholders' equity of 2019 , the Stockholders' equity of 2018 ),
//! divide( #0 , the Stockholders' equity of 2018 )
//! ```
//!
//! Cell arguments use the `col_name of row_name` convention the paper
//! introduces so programs carry enough information to resolve against a
//! table. Six math operations and four table aggregations are supported.

use std::fmt;

/// An arithmetic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AeOp {
    Add,
    Subtract,
    Multiply,
    Divide,
    /// `greater(a, b)` — yields a yes/no answer.
    Greater,
    /// `exp(a, b)` — a raised to the b-th power.
    Exp,
    /// `table_max(col)` — max over a numeric column.
    TableMax,
    TableMin,
    TableSum,
    TableAverage,
}

impl AeOp {
    pub fn name(self) -> &'static str {
        match self {
            AeOp::Add => "add",
            AeOp::Subtract => "subtract",
            AeOp::Multiply => "multiply",
            AeOp::Divide => "divide",
            AeOp::Greater => "greater",
            AeOp::Exp => "exp",
            AeOp::TableMax => "table_max",
            AeOp::TableMin => "table_min",
            AeOp::TableSum => "table_sum",
            AeOp::TableAverage => "table_average",
        }
    }

    pub fn from_name(name: &str) -> Option<AeOp> {
        Some(match name {
            "add" => AeOp::Add,
            "subtract" => AeOp::Subtract,
            "multiply" => AeOp::Multiply,
            "divide" => AeOp::Divide,
            "greater" => AeOp::Greater,
            "exp" => AeOp::Exp,
            "table_max" => AeOp::TableMax,
            "table_min" => AeOp::TableMin,
            "table_sum" => AeOp::TableSum,
            "table_average" => AeOp::TableAverage,
            _ => return None,
        })
    }

    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            AeOp::TableMax | AeOp::TableMin | AeOp::TableSum | AeOp::TableAverage => 1,
            _ => 2,
        }
    }

    /// Whether this is a whole-column aggregation.
    pub fn is_table_op(self) -> bool {
        matches!(self, AeOp::TableMax | AeOp::TableMin | AeOp::TableSum | AeOp::TableAverage)
    }
}

impl fmt::Display for AeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An argument of a step.
#[derive(Debug, Clone, PartialEq)]
pub enum AeArg {
    /// A numeric constant.
    Const(f64),
    /// Reference to an earlier step's result (`#0` is the first step).
    StepRef(usize),
    /// A table cell addressed as `col of row`.
    Cell { col: String, row: String },
    /// A whole column (argument of table ops).
    Column(String),
    /// Template hole for a cell (`val1`).
    CellHole(usize),
    /// Template hole for a column (`c1`).
    ColumnHole(usize),
}

impl fmt::Display for AeArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AeArg::Const(n) => write!(f, "{}", tabular::format_number(*n)),
            AeArg::StepRef(i) => write!(f, "#{i}"),
            AeArg::Cell { col, row } => write!(f, "the {col} of {row}"),
            AeArg::Column(c) => write!(f, "{c}"),
            AeArg::CellHole(i) => write!(f, "val{i}"),
            AeArg::ColumnHole(i) => write!(f, "c{i}"),
        }
    }
}

/// One step of a program.
#[derive(Debug, Clone, PartialEq)]
pub struct AeStep {
    pub op: AeOp,
    pub args: Vec<AeArg>,
}

impl fmt::Display for AeStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args: Vec<String> = self.args.iter().map(|a| a.to_string()).collect();
        write!(f, "{}( {} )", self.op, args.join(" , "))
    }
}

/// A complete arithmetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct AeProgram {
    pub steps: Vec<AeStep>,
}

impl AeProgram {
    /// True if any argument is a template hole.
    pub fn has_holes(&self) -> bool {
        self.steps
            .iter()
            .any(|s| s.args.iter().any(|a| matches!(a, AeArg::CellHole(_) | AeArg::ColumnHole(_))))
    }

    /// All cell references in order.
    pub fn cells(&self) -> Vec<(&str, &str)> {
        self.steps
            .iter()
            .flat_map(|s| s.args.iter())
            .filter_map(|a| match a {
                AeArg::Cell { col, row } => Some((col.as_str(), row.as_str())),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for AeProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let steps: Vec<String> = self.steps.iter().map(|s| s.to_string()).collect();
        write!(f, "{}", steps.join(" , "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_name_roundtrip() {
        for op in [
            AeOp::Add,
            AeOp::Subtract,
            AeOp::Divide,
            AeOp::Greater,
            AeOp::Exp,
            AeOp::TableSum,
            AeOp::TableAverage,
        ] {
            assert_eq!(AeOp::from_name(op.name()), Some(op));
        }
        assert_eq!(AeOp::from_name("modulo"), None);
    }

    #[test]
    fn arity() {
        assert_eq!(AeOp::Add.arity(), 2);
        assert_eq!(AeOp::TableMax.arity(), 1);
    }

    #[test]
    fn display_paper_example() {
        let p = AeProgram {
            steps: vec![
                AeStep {
                    op: AeOp::Subtract,
                    args: vec![
                        AeArg::Cell { col: "Stockholders' equity".into(), row: "2019".into() },
                        AeArg::Cell { col: "Stockholders' equity".into(), row: "2018".into() },
                    ],
                },
                AeStep {
                    op: AeOp::Divide,
                    args: vec![
                        AeArg::StepRef(0),
                        AeArg::Cell { col: "Stockholders' equity".into(), row: "2018".into() },
                    ],
                },
            ],
        };
        assert_eq!(
            p.to_string(),
            "subtract( the Stockholders' equity of 2019 , the Stockholders' equity of 2018 ) , divide( #0 , the Stockholders' equity of 2018 )"
        );
        assert_eq!(p.cells().len(), 3);
    }

    #[test]
    fn has_holes() {
        let p = AeProgram {
            steps: vec![AeStep {
                op: AeOp::Subtract,
                args: vec![AeArg::CellHole(1), AeArg::CellHole(2)],
            }],
        };
        assert!(p.has_holes());
    }
}
