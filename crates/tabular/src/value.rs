//! Cell values and their total ordering.
//!
//! Tabular reasoning constantly compares, sorts and aggregates cell values of
//! mixed provenance (strings scraped from Wikipedia infoboxes, currency
//! amounts from financial reports, dates from schedules). `Value` is the
//! single dynamic value type used across the workspace: every program
//! executor (SQL, logical forms, arithmetic expressions) consumes and
//! produces `Value`s.
//!
//! Unlike `f64`, `Value` has a *total* order (`Ord`): numbers sort before
//! text, `Null` sorts first, and NaN is normalized away at construction so
//! sorting and superlative operators (`argmax`, `ORDER BY`) are always
//! well-defined.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A calendar date (no time component), as found in table cells.
///
/// Only validity checks needed for ordering and display are performed; the
/// synthetic corpora only generate valid dates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    pub year: i32,
    pub month: u8,
    pub day: u8,
}

impl Date {
    /// Creates a date, returning `None` if the month/day are out of range.
    pub fn new(year: i32, month: u8, day: u8) -> Option<Date> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return None;
        }
        Some(Date { year, month, day })
    }

    /// Parses `YYYY-MM-DD`, `YYYY/MM/DD`, or `Month D, YYYY` forms.
    pub fn parse(s: &str) -> Option<Date> {
        let s = s.trim();
        for sep in ['-', '/'] {
            let mut parts = s.split(sep);
            let (a, b, c) = (parts.next(), parts.next(), parts.next());
            if let (Some(a), Some(b), Some(c), None) = (a, b, c, parts.next()) {
                let y = a.parse::<i32>().ok()?;
                let m = b.parse::<u8>().ok()?;
                let d = c.parse::<u8>().ok()?;
                return Date::new(y, m, d);
            }
        }
        // "January 5, 1999": tokens separated by commas and/or whitespace.
        let mut toks = s.split(|c: char| c == ',' || c.is_whitespace()).filter(|t| !t.is_empty());
        let (a, b, c) = (toks.next(), toks.next(), toks.next());
        if let (Some(a), Some(b), Some(c), None) = (a, b, c, toks.next()) {
            let m = month_from_name(a)?;
            let d = b.parse::<u8>().ok()?;
            let y = c.parse::<i32>().ok()?;
            return Date::new(y, m, d);
        }
        None
    }

    /// Days since a fixed epoch-ish origin; monotone in calendar order, used
    /// for date arithmetic in programs (e.g. `diff` on date columns).
    pub fn ordinal(&self) -> i64 {
        let mut days = i64::from(self.year) * 365 + i64::from(self.year / 4)
            - i64::from(self.year / 100)
            + i64::from(self.year / 400);
        for m in 1..self.month {
            days += i64::from(days_in_month(self.year, m));
        }
        days + i64::from(self.day)
    }
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

fn month_from_name(name: &str) -> Option<u8> {
    const MONTHS: [&str; 12] = [
        "january",
        "february",
        "march",
        "april",
        "may",
        "june",
        "july",
        "august",
        "september",
        "october",
        "november",
        "december",
    ];
    let lower = name.to_ascii_lowercase();
    MONTHS
        .iter()
        .position(|m| *m == lower || m.starts_with(&lower) && lower.len() >= 3)
        .map(|i| (i + 1) as u8)
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A dynamically typed table cell value.
///
/// `Number` holds a finite `f64` (NaN/inf are rejected at construction),
/// which covers both the integer counts and the decimal financial figures
/// that appear in the UCTR corpora.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Missing / empty cell.
    Null,
    /// Boolean, produced by logical-form executors.
    Bool(bool),
    /// A finite numeric value.
    Number(f64),
    /// A calendar date.
    Date(Date),
    /// Free-form text.
    Text(String),
}

impl Value {
    /// Builds a `Number`, normalizing non-finite input to `Null` so that the
    /// total order is never violated downstream.
    pub fn number(x: f64) -> Value {
        if x.is_finite() {
            Value::Number(x)
        } else {
            Value::Null
        }
    }

    /// Builds a `Text` value, trimming surrounding whitespace.
    pub fn text(s: impl Into<String>) -> Value {
        let s: String = s.into();
        Value::Text(s.trim().to_string())
    }

    /// Parses a raw cell string with light type sniffing: empty → `Null`,
    /// numeric (with optional `$`, `%`, thousands separators) → `Number`,
    /// date-like → `Date`, otherwise `Text`.
    pub fn parse(raw: &str) -> Value {
        let s = raw.trim();
        if s.is_empty()
            || s == "-"
            || s.eq_ignore_ascii_case("n/a")
            || s.eq_ignore_ascii_case("none")
        {
            return Value::Null;
        }
        if let Some(n) = parse_numeric(s) {
            return Value::Number(n);
        }
        if let Some(d) = Date::parse(s) {
            return Value::Date(d);
        }
        if s.eq_ignore_ascii_case("true") || s.eq_ignore_ascii_case("yes") {
            Value::Bool(true)
        } else if s.eq_ignore_ascii_case("false") || s.eq_ignore_ascii_case("no") {
            Value::Bool(false)
        } else {
            Value::Text(s.to_string())
        }
    }

    /// Returns the numeric content, if this value is (or trivially coerces
    /// to) a number. Dates coerce to their ordinal so date columns support
    /// comparisons and `diff`.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Date(d) => Some(d.ordinal() as f64),
            _ => None,
        }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Type tag used for ordering across variants and for schema inference.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Number(_) => 2,
            Value::Date(_) => 3,
            Value::Text(_) => 4,
        }
    }

    /// Loose equality used by program executors: numbers compare with a
    /// relative epsilon (generated data goes through `f64` formatting round
    /// trips), text compares case-insensitively.
    pub fn loosely_equals(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Number(a), Value::Number(b)) => nearly_equal(*a, *b),
            (Value::Text(a), Value::Text(b)) => a.eq_ignore_ascii_case(b),
            (Value::Date(a), Value::Date(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Null, Value::Null) => true,
            // Cross-type numeric coercion (e.g. "3" parsed as text vs 3.0).
            _ => match (self.as_number(), other.as_number()) {
                (Some(a), Some(b)) => nearly_equal(a, b),
                _ => false,
            },
        }
    }
}

/// Relative-epsilon float equality used across all executors.
pub fn nearly_equal(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-6 * scale
}

fn parse_numeric(s: &str) -> Option<f64> {
    // Fast path: no financial punctuation to strip, parse the slice as-is
    // (same result as the scrubbing path below, which would copy the
    // string unchanged).
    if !s.contains([',', '$', '%', '(']) {
        let t = s.trim();
        if t.is_empty() {
            return None;
        }
        return t.parse::<f64>().ok().filter(|x| x.is_finite());
    }
    let mut cleaned = s.replace([',', '$', '%'], "");
    let mut negative = false;
    // Financial negatives: "(1,234)".
    if cleaned.starts_with('(') && cleaned.ends_with(')') {
        negative = true;
        cleaned = cleaned[1..cleaned.len() - 1].to_string();
    }
    let cleaned = cleaned.trim();
    if cleaned.is_empty() {
        return None;
    }
    // Reject things like "3 points" that `f64::from_str` would reject anyway,
    // but accept leading +/-.
    cleaned.parse::<f64>().ok().filter(|x| x.is_finite()).map(|x| if negative { -x } else { x })
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Number(a), Value::Number(b)) => a.to_bits() == b.to_bits() || a == b,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Null, Value::Null) => true,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Number(a), Value::Number(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            // `==` equates 0.0 and -0.0; adding 0.0 maps -0.0 to 0.0 and
            // leaves every other finite value's bits alone.
            Value::Number(n) => (n + 0.0).to_bits().hash(state),
            Value::Date(d) => d.hash(state),
            Value::Text(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Bool(b) => write!(f, "{b}"),
            // Inline the integer fast path of `format_number` so Display
            // (the verbalization hot path) allocates nothing for the
            // common whole-number case.
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => write!(f, "{}", *n as i64),
            Value::Number(n) => write!(f, "{}", format_number(*n)),
            Value::Date(d) => write!(f, "{d}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

/// Formats a number the way tables print them: integers without a decimal
/// point, everything else with up to 4 significant decimals.
pub fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        let s = format!("{n:.4}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_empty_is_null() {
        assert!(Value::parse("").is_null());
        assert!(Value::parse("  ").is_null());
        assert!(Value::parse("-").is_null());
        assert!(Value::parse("N/A").is_null());
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(Value::parse("42"), Value::Number(42.0));
        assert_eq!(Value::parse("-3.5"), Value::Number(-3.5));
        assert_eq!(Value::parse("1,234"), Value::Number(1234.0));
        assert_eq!(Value::parse("$5,000"), Value::Number(5000.0));
        assert_eq!(Value::parse("12%"), Value::Number(12.0));
        assert_eq!(Value::parse("(1,234)"), Value::Number(-1234.0));
    }

    #[test]
    fn parse_dates() {
        assert_eq!(Value::parse("1999-01-05"), Value::Date(Date { year: 1999, month: 1, day: 5 }));
        assert_eq!(
            Value::parse("January 5, 1999"),
            Value::Date(Date { year: 1999, month: 1, day: 5 })
        );
        assert_eq!(
            Value::parse("2020/12/31"),
            Value::Date(Date { year: 2020, month: 12, day: 31 })
        );
    }

    #[test]
    fn parse_booleans_and_text() {
        assert_eq!(Value::parse("yes"), Value::Bool(true));
        assert_eq!(Value::parse("FALSE"), Value::Bool(false));
        assert_eq!(Value::parse("hello world"), Value::Text("hello world".into()));
    }

    #[test]
    fn invalid_dates_rejected() {
        assert!(Date::new(2021, 2, 29).is_none());
        assert!(Date::new(2020, 2, 29).is_some()); // leap year
        assert!(Date::new(2021, 13, 1).is_none());
        assert!(Date::new(2021, 4, 31).is_none());
    }

    #[test]
    fn date_parse_rejects_garbage() {
        assert!(Date::parse("Banuary 5, 1999").is_none());
        assert!(Date::parse("1999-13-01").is_none());
        assert!(Date::parse("1999-02-30").is_none());
        assert!(Date::parse("not a date").is_none());
        assert!(Date::parse("").is_none());
    }

    #[test]
    fn date_parse_month_prefixes() {
        // Abbreviated month names resolve by prefix.
        assert_eq!(Date::parse("Jan 5, 1999"), Date::new(1999, 1, 5));
        assert_eq!(Date::parse("Sep 1, 2000"), Date::new(2000, 9, 1));
    }

    #[test]
    fn date_ordinal_is_monotone() {
        let a = Date::new(1999, 12, 31).unwrap_or_else(|| panic!("date"));
        let b = Date::new(2000, 1, 1).unwrap_or_else(|| panic!("date"));
        assert!(a.ordinal() < b.ordinal());
        assert!(a < b);
    }

    #[test]
    fn total_order_across_types() {
        let mut vals = [
            Value::Text("abc".into()),
            Value::Number(1.0),
            Value::Null,
            Value::Bool(true),
            Value::Date(Date::new(2000, 1, 1).unwrap_or_else(|| panic!("date"))),
        ];
        vals.sort();
        assert!(vals[0].is_null());
        assert!(matches!(vals[1], Value::Bool(_)));
        assert!(matches!(vals[2], Value::Number(_)));
        assert!(matches!(vals[3], Value::Date(_)));
        assert!(matches!(vals[4], Value::Text(_)));
    }

    #[test]
    fn non_finite_normalized() {
        assert!(Value::number(f64::NAN).is_null());
        assert!(Value::number(f64::INFINITY).is_null());
        assert_eq!(Value::number(1.5), Value::Number(1.5));
    }

    #[test]
    fn signed_zeros_hash_like_they_compare() {
        use std::hash::{Hash, Hasher};
        let hash = |v: &Value| {
            let mut h = rustc_hash::FxHasher::default();
            v.hash(&mut h);
            h.finish()
        };
        let zero = Value::parse("0");
        for v in [Value::parse("-0"), Value::parse("(0)"), Value::number(-0.0)] {
            assert_eq!(v, zero);
            assert_eq!(hash(&v), hash(&zero), "{v:?}");
        }
    }

    #[test]
    fn loose_equality() {
        assert!(Value::Number(0.1 + 0.2).loosely_equals(&Value::Number(0.3)));
        assert!(Value::text("Apple").loosely_equals(&Value::text("apple")));
        assert!(!Value::text("Apple").loosely_equals(&Value::text("pear")));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(42.0), "42");
        assert_eq!(format_number(3.5), "3.5");
        assert_eq!(format_number(4.98765), "4.9877");
        assert_eq!(format_number(-7.0), "-7");
    }

    #[test]
    fn display_roundtrip_via_parse_for_numbers() {
        for n in [0.0, 1.0, -2.5, 1234.0, 0.125] {
            let v = Value::Number(n);
            let reparsed = Value::parse(&v.to_string());
            assert!(v.loosely_equals(&reparsed), "{v} vs {reparsed}");
        }
    }
}
