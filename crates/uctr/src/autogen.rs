//! Automatic program generation (the paper's stated future work, §VII:
//! "explore an auto program-generation method based on the existing data
//! distributions to make the framework more flexible").
//!
//! Instead of relying only on a fixed mined template bank, [`AutoGenerator`]
//! *learns* the distribution of a seed corpus of logical-form templates —
//! which operators appear, how often, and with what sub-structures — and
//! synthesizes novel templates by recombining operator subtrees under the
//! DSL's type discipline. Every synthesized template is validated by trial
//! instantiation on a probe table before it is admitted, so the enlarged
//! bank stays executable.
//!
//! The generator works over a typed grammar view of the logical-form DSL:
//!
//! ```text
//! Bool  := eq(Scalar, Scalar) | greater | less | and(Bool, Bool)
//!        | only(View) | majority(View, col, val)
//! Scalar := count(View) | max/min/sum/avg(View, col)
//!        | nth_max/nth_min(View, col, n) | hop(Row, col) | diff(Scalar, Scalar)
//! Row   := argmax/argmin(View, col) | nth_argmax/nth_argmin(View, col, n)
//! View  := all_rows | filter_*(View, col, val)
//! ```

use logicforms::{LfExpr, LfOp, LfScratch, LfTemplate};
use rand::seq::SliceRandom;
use rand::Rng;
use rustc_hash::FxHashMap;
use std::fmt::Write as _;
use tabular::{ExecContext, Table};

/// Learned operator statistics from a seed template corpus.
#[derive(Debug, Clone, Default)]
pub struct ProgramDistribution {
    /// Operator frequencies in the seed corpus.
    op_counts: FxHashMap<LfOp, usize>,
    /// Observed filter-chain depths (how many nested filters under a view).
    filter_depths: Vec<usize>,
    total_ops: usize,
}

impl ProgramDistribution {
    /// Fits the distribution on a corpus of templates (accepts anything
    /// yielding `&LfTemplate` — a slice, or
    /// [`crate::TemplateBank::logic`]'s borrowed view).
    pub fn fit<'a, I>(templates: I) -> ProgramDistribution
    where
        I: IntoIterator<Item = &'a LfTemplate>,
    {
        let mut dist = ProgramDistribution::default();
        for t in templates {
            t.expr().visit(&mut |node| {
                if let LfExpr::Apply(op, _) = node {
                    *dist.op_counts.entry(*op).or_insert(0) += 1;
                    dist.total_ops += 1;
                }
            });
            dist.filter_depths.push(filter_depth(t.expr()));
        }
        dist
    }

    /// Relative frequency of an operator (with add-one smoothing so unseen
    /// operators can still be proposed occasionally).
    pub fn weight(&self, op: LfOp) -> f64 {
        (self.op_counts.get(&op).copied().unwrap_or(0) as f64 + 1.0)
            / (self.total_ops as f64 + 40.0)
    }

    /// Samples one operator from a candidate list by learned weight.
    fn sample_op(&self, candidates: &[LfOp], rng: &mut impl Rng) -> LfOp {
        let total: f64 = candidates.iter().map(|&op| self.weight(op)).sum();
        let mut roll = rng.gen_range(0.0..total);
        for &op in candidates {
            let w = self.weight(op);
            if roll < w {
                return op;
            }
            roll -= w;
        }
        // Unreachable for the non-empty candidate lists the callers
        // pass; a neutral root op keeps this total.
        candidates.last().copied().unwrap_or(LfOp::Eq)
    }

    /// Typical filter depth (samples from the observed distribution).
    fn sample_filter_depth(&self, rng: &mut impl Rng) -> usize {
        self.filter_depths.choose(rng).copied().unwrap_or(1).min(2)
    }
}

fn filter_depth(e: &LfExpr) -> usize {
    match e {
        LfExpr::Apply(op, args) if is_filter(*op) => 1 + filter_depth(&args[0]),
        LfExpr::Apply(_, args) => args.iter().map(filter_depth).max().unwrap_or(0),
        _ => 0,
    }
}

fn is_filter(op: LfOp) -> bool {
    use LfOp::*;
    matches!(
        op,
        FilterEq | FilterNotEq | FilterGreater | FilterLess | FilterGreaterEq | FilterLessEq
    )
}

/// Auto program generator over the logical-form DSL.
pub struct AutoGenerator {
    dist: ProgramDistribution,
    /// Next free hole indexes during one synthesis.
    next_col: usize,
    next_val: usize,
}

impl AutoGenerator {
    /// Builds a generator whose proposal distribution follows the seed
    /// corpus (typically [`crate::TemplateBank::builtin`]'s logic side).
    pub fn fit<'a, I>(seed: I) -> AutoGenerator
    where
        I: IntoIterator<Item = &'a LfTemplate>,
    {
        AutoGenerator { dist: ProgramDistribution::fit(seed), next_col: 1, next_val: 1 }
    }

    /// Synthesizes one boolean-rooted template.
    pub fn propose(&mut self, rng: &mut impl Rng) -> LfTemplate {
        self.next_col = 1;
        self.next_val = 1;
        let expr = self.gen_bool(rng, 0);
        LfTemplate::from_expr(expr)
    }

    /// Synthesizes up to `n` *validated* novel templates: each must
    /// instantiate and execute on the probe table for both truth targets,
    /// and must not duplicate a signature in `existing`.
    pub fn generate(
        &mut self,
        n: usize,
        probe: &Table,
        existing: &mut rustc_hash::FxHashSet<String>,
        rng: &mut impl Rng,
    ) -> Vec<LfTemplate> {
        let mut out = Vec::with_capacity(n);
        let ctx = ExecContext::new(probe);
        let mut scratch = LfScratch::default();
        // Most proposals repeat a signature already seen, so each is
        // rendered into this one buffer and copied only when admitted.
        let mut sig = String::new();
        let mut attempts = 0;
        while out.len() < n && attempts < n * 40 {
            attempts += 1;
            let tpl = self.propose(rng);
            sig.clear();
            let _ = write!(sig, "{}", tpl.expr());
            if existing.contains(sig.as_str()) {
                continue;
            }
            // Validation: instantiable to a Supported AND a Refuted claim.
            let ok_true = tpl.try_instantiate(&ctx, rng, true, &mut scratch).is_ok();
            let ok_false = tpl.try_instantiate(&ctx, rng, false, &mut scratch).is_ok();
            if ok_true && ok_false {
                existing.insert(sig.clone());
                out.push(tpl);
            }
        }
        out
    }

    fn fresh_col(&mut self) -> LfExpr {
        let i = self.next_col;
        self.next_col += 1;
        LfExpr::ColumnHole(i)
    }

    fn fresh_val(&mut self) -> LfExpr {
        let i = self.next_val;
        self.next_val += 1;
        LfExpr::ValueHole(i)
    }

    fn gen_view(&mut self, rng: &mut impl Rng, depth: usize) -> LfExpr {
        let want = self.dist.sample_filter_depth(rng);
        if depth >= want {
            return LfExpr::AllRows;
        }
        self.gen_filtered_view(rng, depth)
    }

    /// A view guaranteed to carry at least one filter on top.
    fn gen_filtered_view(&mut self, rng: &mut impl Rng, depth: usize) -> LfExpr {
        use LfOp::*;
        let op = self
            .dist
            .sample_op(&[FilterEq, FilterGreater, FilterLess, FilterGreaterEq, FilterLessEq], rng);
        let inner = self.gen_view(rng, depth + 1);
        LfExpr::Apply(op, vec![inner, self.fresh_col(), self.fresh_val()])
    }

    fn gen_row(&mut self, rng: &mut impl Rng) -> LfExpr {
        use LfOp::*;
        let op = self.dist.sample_op(&[Argmax, Argmin, NthArgmax, NthArgmin], rng);
        let view = self.gen_view(rng, 1); // keep superlative views shallow
        match op {
            Argmax | Argmin => LfExpr::Apply(op, vec![view, self.fresh_col()]),
            _ => LfExpr::Apply(op, vec![view, self.fresh_col(), self.fresh_val()]),
        }
    }

    fn gen_scalar(&mut self, rng: &mut impl Rng, depth: usize) -> LfExpr {
        use LfOp::*;
        let ops: &[LfOp] = if depth >= 2 {
            &[Count, Max, Min, Sum, Avg, Hop]
        } else {
            &[Count, Max, Min, Sum, Avg, NthMax, NthMin, Hop, Diff]
        };
        let op = self.dist.sample_op(ops, rng);
        match op {
            Count => LfExpr::Apply(op, vec![self.gen_view(rng, 0)]),
            Max | Min | Sum | Avg => {
                LfExpr::Apply(op, vec![self.gen_view(rng, 1), self.fresh_col()])
            }
            NthMax | NthMin => {
                LfExpr::Apply(op, vec![self.gen_view(rng, 1), self.fresh_col(), self.fresh_val()])
            }
            Hop => LfExpr::Apply(op, vec![self.gen_row(rng), self.fresh_col()]),
            Diff => {
                let a = self.gen_scalar(rng, depth + 1);
                let b = self.gen_scalar(rng, depth + 1);
                LfExpr::Apply(op, vec![a, b])
            }
            // `ops` above admits only the scalar operators already matched;
            // fall back to a count so the synthesis stays well-typed.
            _ => LfExpr::Apply(Count, vec![self.gen_view(rng, 0)]),
        }
    }

    fn gen_bool(&mut self, rng: &mut impl Rng, depth: usize) -> LfExpr {
        use LfOp::*;
        let ops: &[LfOp] = if depth >= 1 {
            &[Eq, RoundEq, Greater, Less, Only, MostEq, MostGreater, MostLess, AllGreater, AllLess]
        } else {
            &[
                Eq,
                NotEq,
                RoundEq,
                Greater,
                Less,
                And,
                Only,
                MostEq,
                MostGreater,
                MostLess,
                AllGreater,
                AllLess,
                AllGreaterEq,
                AllLessEq,
            ]
        };
        let op = self.dist.sample_op(ops, rng);
        match op {
            Eq | NotEq | RoundEq => {
                let scalar = self.gen_scalar(rng, 0);
                LfExpr::Apply(op, vec![scalar, self.fresh_val()])
            }
            Greater | Less => {
                // Either scalar-vs-literal or scalar-vs-scalar.
                let a = self.gen_scalar(rng, 0);
                let b = if rng.gen_bool(0.5) { self.fresh_val() } else { self.gen_scalar(rng, 1) };
                LfExpr::Apply(op, vec![a, b])
            }
            And => {
                let a = self.gen_bool(rng, depth + 1);
                let b = self.gen_bool(rng, depth + 1);
                LfExpr::Apply(op, vec![a, b])
            }
            Only => LfExpr::Apply(op, vec![self.gen_filtered_view(rng, 1)]),
            _ => {
                // Majority family.
                LfExpr::Apply(op, vec![LfExpr::AllRows, self.fresh_col(), self.fresh_val()])
            }
        }
    }
}

/// Convenience: extend a template bank with `n` auto-generated logic
/// templates validated on `probe`.
pub fn extend_bank_auto(
    bank: &mut crate::TemplateBank,
    n: usize,
    probe: &Table,
    seed: u64,
) -> usize {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut gen = AutoGenerator::fit(bank.logic());
    let mut existing: rustc_hash::FxHashSet<String> =
        bank.logic().iter().map(|t| t.signature()).collect();
    let new_templates = gen.generate(n, probe, &mut existing, &mut rng);
    let mut added = 0;
    for t in new_templates {
        if bank.add_logic(t) {
            added += 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TemplateBank;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn probe() -> Table {
        Table::from_strings(
            "probe",
            &[
                vec!["name", "city", "points", "wins"],
                vec!["Reds", "Oslo", "77", "21"],
                vec!["Blues", "Lima", "64", "18"],
                vec!["Greens", "Kyiv", "81", "24"],
                vec!["Golds", "Quito", "59", "15"],
                vec!["Silvers", "Porto", "70", "19"],
            ],
        )
        .unwrap_or_else(|e| panic!("probe table: {e:?}"))
    }

    #[test]
    fn distribution_reflects_seed_corpus() {
        let bank = TemplateBank::builtin();
        let dist = ProgramDistribution::fit(bank.logic());
        // eq is the most common root in the builtin bank.
        assert!(dist.weight(LfOp::Eq) > dist.weight(LfOp::NotEq));
        assert!(dist.weight(LfOp::FilterEq) > 0.0);
    }

    #[test]
    fn proposals_are_boolean_rooted_templates() {
        let bank = TemplateBank::builtin();
        let mut gen = AutoGenerator::fit(bank.logic());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let tpl = gen.propose(&mut rng);
            assert!(tpl.expr().has_holes(), "template without holes: {}", tpl.signature());
            // Round-trips through the parser.
            let reparsed = logicforms::parse(&tpl.signature())
                .unwrap_or_else(|e| panic!("reparse {}: {e}", tpl.signature()));
            assert_eq!(&reparsed, tpl.expr());
        }
    }

    #[test]
    fn generated_templates_are_valid_and_novel() {
        let bank = TemplateBank::builtin();
        let mut gen = AutoGenerator::fit(bank.logic());
        let mut existing: rustc_hash::FxHashSet<String> =
            bank.logic().iter().map(|t| t.signature()).collect();
        let before = existing.len();
        let mut rng = StdRng::seed_from_u64(2);
        let new_templates = gen.generate(10, &probe(), &mut existing, &mut rng);
        assert!(new_templates.len() >= 5, "only {} generated", new_templates.len());
        assert_eq!(existing.len(), before + new_templates.len());
        // Each validated template instantiates with correct labels.
        let table = probe();
        let ctx = ExecContext::new(&table);
        let mut scratch = LfScratch::default();
        for t in &new_templates {
            let claim = t.try_instantiate(&ctx, &mut rng, true, &mut scratch);
            if let Ok(c) = claim {
                let truth = logicforms::evaluate_truth(&c.expr, &ctx, &mut scratch.kern)
                    .unwrap_or_else(|e| panic!("evaluate: {e:?}"));
                assert!(truth);
            }
        }
    }

    #[test]
    fn extend_bank_grows_bank() {
        let mut bank = TemplateBank::builtin();
        let before = bank.logic().len();
        let added = extend_bank_auto(&mut bank, 8, &probe(), 3);
        assert!(added >= 4, "only {added} added");
        assert_eq!(bank.logic().len(), before + added);
    }

    #[test]
    fn pipeline_runs_with_auto_extended_bank() {
        let mut bank = TemplateBank::builtin();
        extend_bank_auto(&mut bank, 8, &probe(), 5);
        let pipeline = crate::UctrPipeline::new(crate::UctrConfig::verification()).with_bank(bank);
        let samples = pipeline.generate(&[crate::TableWithContext::bare(probe())]);
        assert!(!samples.is_empty());
    }
}
