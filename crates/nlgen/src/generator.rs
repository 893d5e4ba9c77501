//! The unified NL-Generator (paper §IV-A, Eq. 3: `f(P) → L`).
//!
//! Combines the per-program-type realizers, the n-gram fluency model, and
//! the noise channel into one module with the same contract as the paper's
//! fine-tuned GPT-2/BART generators: program in, natural-language sentence
//! out. `fit` plays the role of fine-tuning — it trains the reranker LM on
//! a seed corpus of gold-style sentences.

use crate::arith_gen::realize_arith;
use crate::logic_gen::realize_logic;
use crate::ngram::{seed_corpus, NgramLm, ScoreScratch};
use crate::noise::{apply_noise, NoiseConfig};
use crate::pool::StrPool;
use crate::sql_gen::realize_sql;
use arithexpr::AeProgram;
use logicforms::LfExpr;
use rand::Rng;
use sqlexec::SelectStmt;

/// Number of candidate realizations proposed per program before reranking.
const CANDIDATES: usize = 6;

/// Reusable buffers for [`NlGenerator::verbalize`]: the candidate vector
/// the realizers fill and the LM's scoring scratch. One per worker; reused
/// across every sample the worker generates. A reused scratch yields the
/// same sentences as a fresh one.
#[derive(Debug, Clone, Default)]
pub struct NlScratch {
    candidates: Vec<String>,
    score: ScoreScratch,
    pool: StrPool,
}

impl NlScratch {
    /// Candidates proposed by the most recent verbalization (including the
    /// winner, pre-noise) — readable until the next `verbalize` call.
    pub fn candidates(&self) -> &[String] {
        &self.candidates
    }
}

/// Program-to-text generator over all three program types.
#[derive(Debug, Clone)]
pub struct NlGenerator {
    lm: NgramLm,
    noise: NoiseConfig,
}

impl Default for NlGenerator {
    fn default() -> Self {
        NlGenerator::new()
    }
}

impl NlGenerator {
    /// A generator "fine-tuned" on the built-in seed corpus.
    pub fn new() -> NlGenerator {
        let mut lm = NgramLm::new(3);
        lm.fit(&seed_corpus());
        NlGenerator { lm, noise: NoiseConfig::default() }
    }

    /// A generator with an untrained LM (candidates are picked in proposal
    /// order) — the "no fine-tuning" ablation.
    pub fn untrained() -> NlGenerator {
        NlGenerator { lm: NgramLm::new(3), noise: NoiseConfig::default() }
    }

    /// Extends the fluency model with additional in-domain sentences
    /// (the counterpart of continuing fine-tuning on domain data).
    pub fn fit<S: AsRef<str>>(&mut self, corpus: &[S]) {
        self.lm.fit(corpus);
    }

    /// Replaces the noise configuration.
    pub fn with_noise(mut self, noise: NoiseConfig) -> NlGenerator {
        self.noise = noise;
        self
    }

    /// Replaces the fluency model (used by the n-gram-order ablation).
    pub fn with_lm(mut self, lm: NgramLm) -> NlGenerator {
        self.lm = lm;
        self
    }

    /// Access to the underlying LM (for benchmarking / analysis).
    pub fn lm(&self) -> &NgramLm {
        &self.lm
    }

    /// Verbalizes an instantiated program of any kind: the kind-specific
    /// realizer proposes candidates into `scratch`, the LM reranks them
    /// (each scored once, ties keeping the later candidate), and the noise
    /// channel perturbs the winner. The proposed candidates stay readable
    /// via [`NlScratch::candidates`] until the next call.
    pub fn verbalize(
        &self,
        program: ProgramRef<'_>,
        rng: &mut impl Rng,
        scratch: &mut NlScratch,
    ) -> String {
        let buf = &mut scratch.candidates;
        let pool = &mut scratch.pool;
        match program {
            ProgramRef::Sql(stmt) => realize_sql(stmt, rng, CANDIDATES, buf, pool),
            ProgramRef::Logic(expr) => realize_logic(expr, rng, CANDIDATES, buf, pool),
            ProgramRef::Arith(prog) => realize_arith(prog, rng, CANDIDATES, buf, pool),
        }
        let chosen = match self.lm.best(&scratch.candidates, &mut scratch.score) {
            Some(i) => scratch.candidates[i].as_str(),
            // The realizers always propose at least one candidate.
            None => "",
        };
        apply_noise(chosen, self.noise, rng)
    }
}

/// A borrowed view of an instantiated program of any kind, for uniform
/// verbalization via [`NlGenerator::verbalize`].
#[derive(Debug, Clone, Copy)]
pub enum ProgramRef<'a> {
    /// An instantiated SQL `SELECT` statement.
    Sql(&'a SelectStmt),
    /// An instantiated logical-form expression.
    Logic(&'a LfExpr),
    /// An instantiated arithmetic program.
    Arith(&'a AeProgram),
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One verbalization through a fresh scratch: the sentence and the
    /// proposed candidates.
    fn verbalize(g: &NlGenerator, program: ProgramRef<'_>, seed: u64) -> (String, Vec<String>) {
        let mut scratch = NlScratch::default();
        let text = g.verbalize(program, &mut StdRng::seed_from_u64(seed), &mut scratch);
        (text, scratch.candidates().to_vec())
    }

    fn top_deputies() -> SelectStmt {
        sqlexec::parse("select [department] from w order by [total deputies] desc limit 1")
            .unwrap_or_else(|e| panic!("parse: {e}"))
    }

    #[test]
    fn sql_generation_end_to_end() {
        let g = NlGenerator::new().with_noise(NoiseConfig::off());
        let (text, candidates) = verbalize(&g, ProgramRef::Sql(&top_deputies()), 1);
        assert!(text.to_lowercase().contains("department"), "{text}");
        assert!(candidates.contains(&text), "{text} not among {candidates:?}");
    }

    #[test]
    fn logic_generation_end_to_end() {
        let g = NlGenerator::new().with_noise(NoiseConfig::off());
        let e = logicforms::parse("eq { count { filter_eq { all_rows ; material ; PLA } } ; 3 }")
            .unwrap_or_else(|e| panic!("parse: {e}"));
        let (text, _) = verbalize(&g, ProgramRef::Logic(&e), 2);
        assert!(text.contains('3'), "{text}");
        assert!(text.ends_with('.'), "{text}");
    }

    #[test]
    fn arith_generation_end_to_end() {
        let g = NlGenerator::new().with_noise(NoiseConfig::off());
        let p = arithexpr::parse(
            "subtract( the 2019 of Equity , the 2018 of Equity ), divide( #0 , the 2018 of Equity )",
        )
        .unwrap_or_else(|e| panic!("parse: {e}"));
        let (text, _) = verbalize(&g, ProgramRef::Arith(&p), 3);
        // Any of the percentage-change phrasings (lexicon::PCT_CHANGE or the
        // "by what percentage" form) is a faithful realization.
        let lower = text.to_lowercase();
        assert!(lower.contains("percent") || lower.contains("relative change"), "{text}");
    }

    #[test]
    fn lm_reranking_changes_choice() {
        // With a heavily biased LM, the winner should track the bias.
        let mut biased = NlGenerator::untrained().with_noise(NoiseConfig::off());
        biased.fit(&["what is the name with the most amount of points?"]);
        let stmt = sqlexec::parse("select [name] from w order by [points] desc limit 1")
            .unwrap_or_else(|e| panic!("parse: {e}"));
        let (text, _) = verbalize(&biased, ProgramRef::Sql(&stmt), 4);
        assert!(text.to_lowercase().contains("points"), "{text}");
    }

    #[test]
    fn fit_extends_vocabulary() {
        let mut g = NlGenerator::new();
        let before = g.lm().vocab_size();
        g.fit(&["totally new domain specific vocabulary flange widget"]);
        assert!(g.lm().vocab_size() > before);
    }

    #[test]
    fn noise_applies_when_enabled() {
        let g = NlGenerator::new().with_noise(NoiseConfig { sentence_rate: 1.0 });
        let stmt = top_deputies();
        let mut rng = StdRng::seed_from_u64(5);
        let mut scratch = NlScratch::default();
        let mut saw_noise = false;
        for _ in 0..20 {
            let text = g.verbalize(ProgramRef::Sql(&stmt), &mut rng, &mut scratch);
            if !scratch.candidates().contains(&text) {
                saw_noise = true;
                break;
            }
        }
        assert!(saw_noise, "noise channel never fired at rate 1.0");
    }
}
