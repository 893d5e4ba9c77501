//! Abstract domains for template-level abstract interpretation.
//!
//! The per-DSL `absint` passes (sqlexec / logicforms / arithexpr) evaluate
//! every template over these lattices, *joined across all hole
//! assignments*: a `valN` hole denotes "any cell value", a column hole
//! "any column of the right type", so the abstract result encloses every
//! concrete outcome any instantiation on any table can produce. Three
//! domains cover the three result sorts of the program layer:
//!
//! * [`Interval`] — numeric results. Bounds are IEEE `f64` and the
//!   transfer functions use plain IEEE endpoint arithmetic, which is sound
//!   by rounding monotonicity: for an exact result `r` in `[lo*, hi*]`,
//!   `fl(r)` lies in `[fl(lo*), fl(hi*)]`, and overflow widens bounds to
//!   `±inf` rather than dropping them. Cell values are always finite
//!   (`Value::parse` filters non-finite spellings), so the abstraction of
//!   a cell is [`Interval::FINITE`]; derived results may still overflow,
//!   so operator outputs can be fully unbounded.
//! * [`Kleene`] — truth values, as the *set* of booleans a program can
//!   yield (errors excluded): `True` = {true}, `False` = {false},
//!   `Unknown` = {true, false}, `Never` = {} (the program can only error
//!   or never produces a truth value at all). The refinement check
//!   [`Kleene::admits`] is what the soundness property test pins: every
//!   concrete truth outcome must be admitted by the abstract verdict.
//! * [`Card`] — row-set cardinalities as a three-flag powerset lattice
//!   over {empty, exactly-one, many}: filters down-close, `limit 1`
//!   truncates, and [`Card::count_interval`] bridges back into the
//!   numeric domain for `count`-style operators.
//!
//! [`AbsSummary`] packages the joined fixed point of one template; the
//! degeneracy rules (A001/A002/A003) and the static discard-cost model
//! read it, and `TemplateAnalysis` carries it to the abstract-soundness
//! suite, which checks it against concrete runs.

use std::fmt;

/// A closed interval of `f64` values, the numeric abstract domain.
///
/// Invariant: either `lo <= hi`, or the interval is [`Interval::EMPTY`]
/// (`lo = +inf, hi = -inf`), the bottom element. `NaN` never appears in
/// the bounds; a `NaN` concrete value is only admitted by
/// [`Interval::TOP`] (transfer functions widen to top whenever a `NaN`
/// result is possible).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

// Transfer functions are named after the DSL operations they abstract,
// not std::ops: they are total over EMPTY/TOP and widen instead of
// following IEEE semantics, so an `a + b` spelling would mislead.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// Bottom: no numeric result is possible.
    pub const EMPTY: Interval = Interval { lo: f64::INFINITY, hi: f64::NEG_INFINITY };
    /// Top: any `f64`, including non-finite ones.
    pub const TOP: Interval = Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY };
    /// Any *finite* `f64` — the abstraction of a parsed cell value
    /// (`Value::parse` rejects `nan`/`inf` spellings).
    pub const FINITE: Interval = Interval { lo: f64::MIN, hi: f64::MAX };

    /// The interval holding exactly `x`. A non-finite `x` (overflowed
    /// constant, `NaN`) widens to [`Interval::TOP`] so the no-`NaN`-bounds
    /// invariant holds.
    pub fn point(x: f64) -> Interval {
        if x.is_nan() {
            Interval::TOP
        } else {
            Interval { lo: x, hi: x }
        }
    }

    /// `[lo, hi]`, normalizing malformed bounds to a sound enclosure.
    pub fn new(lo: f64, hi: f64) -> Interval {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            Interval::TOP
        } else {
            Interval { lo, hi }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    pub fn is_top(&self) -> bool {
        self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY
    }

    /// A single-value interval (degenerate: the program's numeric output
    /// is a compile-time constant).
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether the concrete value `x` is enclosed. `NaN` is admitted only
    /// by [`Interval::TOP`] — the transfer functions widen to top whenever
    /// a `NaN` outcome is reachable.
    pub fn contains(&self, x: f64) -> bool {
        if x.is_nan() {
            self.is_top()
        } else {
            self.lo <= x && x <= self.hi
        }
    }

    /// Least upper bound.
    pub fn join(self, other: Interval) -> Interval {
        if self.is_empty() {
            other
        } else if other.is_empty() {
            self
        } else {
            Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
        }
    }

    fn map_bounds(lo: f64, hi: f64) -> Interval {
        // IEEE endpoint arithmetic can yield NaN only from inf - inf /
        // 0 * inf shapes; those concrete outcomes are possible too, so
        // widen the affected side all the way out.
        Interval {
            lo: if lo.is_nan() { f64::NEG_INFINITY } else { lo },
            hi: if hi.is_nan() { f64::INFINITY } else { hi },
        }
    }

    pub fn add(self, other: Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval::map_bounds(self.lo + other.lo, self.hi + other.hi)
    }

    pub fn sub(self, other: Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval::map_bounds(self.lo - other.hi, self.hi - other.lo)
    }

    pub fn mul(self, other: Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        // With an unbounded operand the 0 * inf = NaN corner is concretely
        // reachable; only finite-bounded operands keep endpoint products
        // exhaustive.
        if !(self.lo.is_finite()
            && self.hi.is_finite()
            && other.lo.is_finite()
            && other.hi.is_finite())
        {
            return Interval::TOP;
        }
        let products =
            [self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for p in products {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        Interval::map_bounds(lo, hi)
    }

    /// Division as the executors implement it: an exact-zero denominator
    /// is a runtime error (no result), so a zero *point* denominator is
    /// [`Interval::EMPTY`]. A denominator interval merely containing zero
    /// still admits values arbitrarily close to it, making the quotient
    /// unbounded — only a nonzero point denominator keeps bounds.
    pub fn div(self, other: Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        if other.is_point() {
            if other.lo == 0.0 {
                return Interval::EMPTY;
            }
            if other.lo.is_finite() && self.lo.is_finite() && self.hi.is_finite() {
                let (a, b) = (self.lo / other.lo, self.hi / other.lo);
                return Interval::map_bounds(a.min(b), a.max(b));
            }
        }
        Interval::TOP
    }

    /// `powf` as the arithmetic executor applies it (a non-finite result
    /// is a runtime error). Only the IEEE-guaranteed constant shapes stay
    /// precise: `pow(x, 0) = 1` and `pow(1, y) = 1` for *every* `x`/`y`,
    /// and two point operands replay the concrete computation.
    pub fn exp(self, other: Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        if (other.is_point() && other.lo == 0.0) || (self.is_point() && self.lo == 1.0) {
            return Interval::point(1.0);
        }
        if self.is_point() && other.is_point() {
            let v = self.lo.powf(other.lo);
            return if v.is_finite() { Interval::point(v) } else { Interval::EMPTY };
        }
        Interval::TOP
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "∅")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// The sign abstraction of an interval — a coarse readback used by the
/// degeneracy rules (e.g. `count { ... }` is [`Sign::NonNegative`], so
/// `less {{ count ; 0 }}` is always false).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sign {
    /// The empty interval: no value at all.
    Never,
    Negative,
    Zero,
    Positive,
    NonNegative,
    NonPositive,
    /// Both signs possible.
    AnySign,
}

impl Interval {
    /// The sign lattice point this interval maps to.
    pub fn sign(&self) -> Sign {
        if self.is_empty() {
            Sign::Never
        } else if self.lo == 0.0 && self.hi == 0.0 {
            Sign::Zero
        } else if self.lo > 0.0 {
            Sign::Positive
        } else if self.hi < 0.0 {
            Sign::Negative
        } else if self.lo >= 0.0 {
            Sign::NonNegative
        } else if self.hi <= 0.0 {
            Sign::NonPositive
        } else {
            Sign::AnySign
        }
    }
}

/// Three-valued Kleene logic plus a bottom, read as the *set* of booleans
/// a program can yield: `True` = {true}, `False` = {false}, `Unknown` =
/// {true, false}, `Never` = {} (only errors, or no truth value at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kleene {
    Never,
    True,
    False,
    #[default]
    Unknown,
}

// `not` deliberately mirrors the DSL's logical negation (total over
// `Never`), not std::ops::Not.
#[allow(clippy::should_implement_trait)]
impl Kleene {
    pub fn from_bool(b: bool) -> Kleene {
        if b {
            Kleene::True
        } else {
            Kleene::False
        }
    }

    /// Whether the concrete truth outcome `b` is admitted — the refinement
    /// `b ⊑ self` the soundness property test asserts.
    pub fn admits(self, b: bool) -> bool {
        match self {
            Kleene::Never => false,
            Kleene::True => b,
            Kleene::False => !b,
            Kleene::Unknown => true,
        }
    }

    /// A single determined truth value — the claim is degenerate.
    pub fn is_constant(self) -> bool {
        matches!(self, Kleene::True | Kleene::False)
    }

    /// Least upper bound (set union).
    pub fn join(self, other: Kleene) -> Kleene {
        match (self, other) {
            (Kleene::Never, x) | (x, Kleene::Never) => x,
            (a, b) if a == b => a,
            _ => Kleene::Unknown,
        }
    }

    /// Pointwise conjunction over the value sets (strict: an empty side
    /// empties the result, mirroring the executors' strict `and`).
    pub fn and(self, other: Kleene) -> Kleene {
        match (self, other) {
            (Kleene::Never, _) | (_, Kleene::Never) => Kleene::Never,
            (Kleene::False, _) | (_, Kleene::False) => Kleene::False,
            (Kleene::True, Kleene::True) => Kleene::True,
            _ => Kleene::Unknown,
        }
    }

    /// Pointwise disjunction over the value sets.
    pub fn or(self, other: Kleene) -> Kleene {
        match (self, other) {
            (Kleene::Never, _) | (_, Kleene::Never) => Kleene::Never,
            (Kleene::True, _) | (_, Kleene::True) => Kleene::True,
            (Kleene::False, Kleene::False) => Kleene::False,
            _ => Kleene::Unknown,
        }
    }

    /// Pointwise negation.
    pub fn not(self) -> Kleene {
        match self {
            Kleene::Never => Kleene::Never,
            Kleene::True => Kleene::False,
            Kleene::False => Kleene::True,
            Kleene::Unknown => Kleene::Unknown,
        }
    }
}

impl fmt::Display for Kleene {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kleene::Never => "never",
            Kleene::True => "true",
            Kleene::False => "false",
            Kleene::Unknown => "unknown",
        })
    }
}

/// The cardinality lattice for row sets: which of {empty, exactly one,
/// two-or-more} a produced view can be. The powerset of three flags, with
/// pointwise-or join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Card {
    pub can_empty: bool,
    pub can_one: bool,
    pub can_many: bool,
}

impl Card {
    /// Bottom: no row set is ever produced.
    pub const NEVER: Card = Card { can_empty: false, can_one: false, can_many: false };
    /// Top: any cardinality (e.g. `all_rows` over an unknown table).
    pub const ANY: Card = Card { can_empty: true, can_one: true, can_many: true };
    /// Exactly the empty view (a provably unsatisfiable filter).
    pub const EMPTY_ONLY: Card = Card { can_empty: true, can_one: false, can_many: false };

    pub fn join(self, other: Card) -> Card {
        Card {
            can_empty: self.can_empty || other.can_empty,
            can_one: self.can_one || other.can_one,
            can_many: self.can_many || other.can_many,
        }
    }

    /// The effect of an arbitrary row filter: any subset of the input can
    /// survive, so the lattice point down-closes.
    pub fn filter(self) -> Card {
        let any = self.can_empty || self.can_one || self.can_many;
        Card { can_empty: any, can_one: self.can_one || self.can_many, can_many: self.can_many }
    }

    /// The effect of `limit 1`: many collapses to one.
    pub fn limit_one(self) -> Card {
        Card { can_empty: self.can_empty, can_one: self.can_one || self.can_many, can_many: false }
    }

    /// Whether a concrete row count is admitted.
    pub fn admits(self, n: usize) -> bool {
        match n {
            0 => self.can_empty,
            1 => self.can_one,
            _ => self.can_many,
        }
    }

    /// `true` when every admitted view is empty (and some view *is*
    /// produced): the program's result set is degenerate.
    pub fn is_always_empty(self) -> bool {
        self == Card::EMPTY_ONLY
    }

    /// The bridge into the numeric domain: the interval of row counts
    /// (`count { view }`, `select count(*)`).
    pub fn count_interval(self) -> Interval {
        if self == Card::NEVER {
            return Interval::EMPTY;
        }
        let lo = if self.can_empty {
            0.0
        } else if self.can_one {
            1.0
        } else {
            2.0
        };
        let hi = if self.can_many {
            f64::INFINITY
        } else if self.can_one {
            1.0
        } else {
            0.0
        };
        Interval::new(lo, hi)
    }
}

impl fmt::Display for Card {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.can_empty {
            parts.push("0");
        }
        if self.can_one {
            parts.push("1");
        }
        if self.can_many {
            parts.push("2+");
        }
        write!(f, "{{{}}}", parts.join(","))
    }
}

/// The abstract result of one template, joined over every hole assignment
/// and table: the numeric answers it can produce, the truth values it can
/// yield, and the cardinalities of row sets it can emit. Components that
/// a program sort cannot produce sit at their bottom element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsSummary {
    pub value: Interval,
    pub truth: Kleene,
    pub rows: Card,
}

impl AbsSummary {
    /// The all-top summary — the sound default when no pass ran.
    pub const TOP: AbsSummary =
        AbsSummary { value: Interval::TOP, truth: Kleene::Unknown, rows: Card::ANY };

    /// The all-bottom summary, for folding joins.
    pub const NEVER: AbsSummary =
        AbsSummary { value: Interval::EMPTY, truth: Kleene::Never, rows: Card::NEVER };

    pub fn join(self, other: AbsSummary) -> AbsSummary {
        AbsSummary {
            value: self.value.join(other.value),
            truth: self.truth.join(other.truth),
            rows: self.rows.join(other.rows),
        }
    }
}

impl Default for AbsSummary {
    fn default() -> AbsSummary {
        AbsSummary::TOP
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_lattice_basics() {
        let a = Interval::new(1.0, 3.0);
        let b = Interval::new(2.0, 5.0);
        assert_eq!(a.join(b), Interval::new(1.0, 5.0));
        assert_eq!(a.join(Interval::EMPTY), a);
        assert!(Interval::EMPTY.is_empty());
        assert!(Interval::TOP.is_top());
        assert!(Interval::point(2.0).is_point());
        assert!(a.contains(2.5));
        assert!(!a.contains(0.0));
        assert!(!a.contains(f64::NAN), "NaN only lives in TOP");
        assert!(Interval::TOP.contains(f64::NAN));
        assert_eq!(Interval::point(f64::NAN), Interval::TOP);
        assert_eq!(Interval::new(3.0, 1.0), Interval::TOP, "malformed bounds widen");
    }

    #[test]
    fn interval_arithmetic_is_sound_on_samples() {
        let a = Interval::new(1.0, 3.0);
        let b = Interval::new(-2.0, 4.0);
        for x in [1.0, 2.0, 3.0] {
            for y in [-2.0, 0.0, 4.0] {
                assert!(a.add(b).contains(x + y), "{x}+{y}");
                assert!(a.sub(b).contains(x - y), "{x}-{y}");
                assert!(a.mul(b).contains(x * y), "{x}*{y}");
                if y != 0.0 {
                    assert!(a.div(Interval::point(y)).contains(x / y), "{x}/{y}");
                }
            }
        }
    }

    #[test]
    fn interval_overflow_widens_not_drops() {
        let big = Interval::new(f64::MAX / 2.0, f64::MAX);
        let sum = big.add(big);
        assert!(sum.contains(f64::INFINITY), "overflowed bound must stay enclosed: {sum}");
        // FINITE ops stay closed over the double-rounding.
        let f = Interval::FINITE;
        assert!(f.add(f).contains(f64::MAX));
        assert!(f.mul(f).is_top() || f.mul(f).contains(f64::INFINITY));
    }

    #[test]
    fn division_by_zero_point_is_empty() {
        let a = Interval::new(1.0, 2.0);
        assert_eq!(a.div(Interval::point(0.0)), Interval::EMPTY);
        assert_eq!(a.div(Interval::point(2.0)), Interval::new(0.5, 1.0));
        assert!(a.div(Interval::new(-1.0, 1.0)).is_top(), "denominator spanning 0 is unbounded");
    }

    #[test]
    fn exp_constant_shapes() {
        assert_eq!(Interval::TOP.exp(Interval::point(0.0)), Interval::point(1.0));
        assert_eq!(Interval::point(1.0).exp(Interval::TOP), Interval::point(1.0));
        assert_eq!(Interval::point(2.0).exp(Interval::point(10.0)), Interval::point(1024.0));
        assert_eq!(
            Interval::point(1e308).exp(Interval::point(2.0)),
            Interval::EMPTY,
            "non-finite powf is a runtime error, not a value"
        );
        assert!(Interval::FINITE.exp(Interval::point(2.0)).is_top());
    }

    #[test]
    fn sign_readback() {
        assert_eq!(Interval::new(0.0, f64::INFINITY).sign(), Sign::NonNegative);
        assert_eq!(Interval::point(0.0).sign(), Sign::Zero);
        assert_eq!(Interval::new(1.0, 5.0).sign(), Sign::Positive);
        assert_eq!(Interval::new(-5.0, -1.0).sign(), Sign::Negative);
        assert_eq!(Interval::new(-1.0, 0.0).sign(), Sign::NonPositive);
        assert_eq!(Interval::TOP.sign(), Sign::AnySign);
        assert_eq!(Interval::EMPTY.sign(), Sign::Never);
    }

    #[test]
    fn kleene_tables() {
        use Kleene::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(False), False);
        assert_eq!(True.not(), False);
        assert_eq!(Unknown.not(), Unknown);
        assert_eq!(Never.and(True), Never, "strict: an erroring side empties the set");
        assert_eq!(True.join(False), Unknown);
        assert_eq!(Never.join(True), True);
        assert!(True.admits(true) && !True.admits(false));
        assert!(Unknown.admits(true) && Unknown.admits(false));
        assert!(!Never.admits(true) && !Never.admits(false));
        assert!(True.is_constant() && !Unknown.is_constant());
    }

    #[test]
    fn card_lattice() {
        assert_eq!(Card::ANY.filter(), Card::ANY);
        let exactly_many = Card { can_empty: false, can_one: false, can_many: true };
        assert_eq!(exactly_many.filter(), Card::ANY, "filters down-close");
        assert!(!exactly_many.limit_one().can_many);
        assert!(exactly_many.limit_one().can_one);
        assert!(Card::EMPTY_ONLY.is_always_empty());
        assert!(!Card::ANY.is_always_empty());
        assert!(Card::ANY.admits(0) && Card::ANY.admits(1) && Card::ANY.admits(7));
        assert!(!Card::EMPTY_ONLY.admits(1));
        assert_eq!(Card::EMPTY_ONLY.count_interval(), Interval::point(0.0));
        assert_eq!(exactly_many.count_interval(), Interval::new(2.0, f64::INFINITY));
        assert_eq!(Card::NEVER.count_interval(), Interval::EMPTY);
        assert_eq!(Card::ANY.count_interval(), Interval::new(0.0, f64::INFINITY));
    }

    #[test]
    fn summary_join_and_defaults() {
        let s = AbsSummary::NEVER.join(AbsSummary {
            value: Interval::point(1.0),
            truth: Kleene::True,
            rows: Card::EMPTY_ONLY,
        });
        assert_eq!(s.value, Interval::point(1.0));
        assert_eq!(s.truth, Kleene::True);
        assert!(s.rows.is_always_empty());
        assert_eq!(AbsSummary::default(), AbsSummary::TOP);
        assert_eq!(AbsSummary::TOP.join(s), AbsSummary::TOP);
    }
}
