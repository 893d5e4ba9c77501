//! Trainable n-gram language model with interpolated smoothing.
//!
//! Stands in for the fine-tuned generator's learned fluency preferences:
//! the grammar proposes several candidate realizations of a program, and
//! the LM (fit on a seed corpus of gold-style questions/claims, playing the
//! role of the paper's fine-tuning sets) reranks them. Stupid-backoff-style
//! interpolation over orders 1..=N keeps unseen n-grams from zeroing a
//! candidate.
//!
//! Scoring is the pipeline's verbalization hot path (every candidate of
//! every sample is scored), so the model interns tokens to `u32` ids at
//! training time and keys its count tables by id slices: a `score` call
//! performs no per-token `String` allocation and no key `join`s — tokens
//! stream through one reusable buffer and n-gram lookups borrow subslices
//! of one id vector.

use rustc_hash::FxHashMap;
use tabular::text::for_each_token;

/// Sentence-boundary markers (interned like ordinary tokens).
const BOS: &str = "<s>";
const EOS: &str = "</s>";

/// Id for tokens never seen at training time. Never interned, so lookups
/// containing it miss every count table — exactly how an unseen token
/// string behaved when the tables were string-keyed.
const UNSEEN: u32 = u32::MAX;

/// An interpolated n-gram language model.
#[derive(Debug, Clone, Default)]
pub struct NgramLm {
    order: usize,
    /// Token interner: populated by `observe`, read-only during `score`.
    ids: FxHashMap<String, u32>,
    /// counts[k] maps a (k+1)-gram of token ids to its count.
    counts: Vec<FxHashMap<Box<[u32]>, u32>>,
    /// context counts for each order (k-gram prefix counts).
    context: Vec<FxHashMap<Box<[u32]>, u32>>,
    vocab: usize,
    total_unigrams: u64,
}

/// Reusable buffers for [`NgramLm::score`]: the token-id sequence of
/// the sentence being scored and the tokenizer's string scratch.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    ids: Vec<u32>,
    buf: String,
}

impl NgramLm {
    /// Creates an empty model of the given order (≥ 1).
    pub fn new(order: usize) -> NgramLm {
        let order = order.max(1);
        NgramLm {
            order,
            ids: FxHashMap::default(),
            counts: vec![FxHashMap::default(); order],
            context: vec![FxHashMap::default(); order],
            vocab: 0,
            total_unigrams: 0,
        }
    }

    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of training sentences is not stored; vocabulary size is.
    pub fn vocab_size(&self) -> usize {
        self.vocab
    }

    fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(token.to_string(), id);
        id
    }

    fn lookup(&self, token: &str) -> u32 {
        self.ids.get(token).copied().unwrap_or(UNSEEN)
    }

    /// Adds one sentence to the model.
    pub fn observe(&mut self, sentence: &str) {
        let mut toks: Vec<u32> = Vec::with_capacity(16);
        let bos = self.intern(BOS);
        for _ in 0..self.order.saturating_sub(1) {
            toks.push(bos);
        }
        let mut buf = String::new();
        let mut raw: Vec<String> = Vec::with_capacity(16);
        for_each_token(sentence, &mut buf, |t| raw.push(t.to_string()));
        for t in &raw {
            let id = self.intern(t);
            toks.push(id);
        }
        toks.push(self.intern(EOS));
        for n in 1..=self.order {
            if toks.len() < n {
                continue;
            }
            for w in toks.windows(n) {
                *self.counts[n - 1].entry(Box::from(w)).or_insert(0) += 1;
                if n > 1 {
                    *self.context[n - 1].entry(Box::from(&w[..n - 1])).or_insert(0) += 1;
                }
            }
        }
        self.vocab = self.counts[0].len();
        self.total_unigrams = self.counts[0].values().map(|&c| u64::from(c)).sum();
    }

    /// Trains on a corpus of sentences.
    pub fn fit<S: AsRef<str>>(&mut self, corpus: &[S]) {
        for s in corpus {
            self.observe(s.as_ref());
        }
    }

    /// Average per-token log2 probability of a sentence (higher = more
    /// fluent under the model). Length-normalized so candidates of
    /// different lengths are comparable. `scratch` holds the token buffers,
    /// so scoring allocates nothing once it has grown.
    pub fn score(&self, sentence: &str, scratch: &mut ScoreScratch) -> f64 {
        let toks = &mut scratch.ids;
        toks.clear();
        let bos = self.lookup(BOS);
        for _ in 0..self.order.saturating_sub(1) {
            toks.push(bos);
        }
        for_each_token(sentence, &mut scratch.buf, |t| {
            toks.push(self.ids.get(t).copied().unwrap_or(UNSEEN));
        });
        toks.push(self.lookup(EOS));
        let start = self.order.saturating_sub(1);
        if toks.len() <= start {
            return f64::NEG_INFINITY;
        }
        let mut total = 0.0;
        let mut n_scored = 0usize;
        for i in start..toks.len() {
            let p = self.token_prob(toks, i);
            total += p.log2();
            n_scored += 1;
        }
        total / n_scored.max(1) as f64
    }

    /// Probability of token i given its history: stupid backoff with a 0.4
    /// discount per backoff level, ending at an add-one unigram estimate.
    fn token_prob(&self, toks: &[u32], i: usize) -> f64 {
        let mut discount = 1.0;
        let max_n = self.order.min(i + 1);
        for n in (2..=max_n).rev() {
            let gram = &toks[i + 1 - n..=i];
            let ctx = &toks[i + 1 - n..i];
            if let (Some(&c), Some(&cc)) =
                (self.counts[n - 1].get(gram), self.context[n - 1].get(ctx))
            {
                if cc > 0 && c > 0 {
                    return discount * f64::from(c) / f64::from(cc);
                }
            }
            discount *= 0.4;
        }
        let c = self.counts[0].get(&toks[i..=i]).copied().unwrap_or(0);
        discount * (f64::from(c) + 1.0) / (self.total_unigrams as f64 + self.vocab as f64 + 1.0)
    }

    /// Index of the best candidate under the model. Each candidate is
    /// scored exactly once; ties keep the *later* candidate, matching
    /// `Iterator::max_by` over the score-per-comparison form this replaced.
    pub fn best(&self, candidates: &[String], scratch: &mut ScoreScratch) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, cand) in candidates.iter().enumerate() {
            let s = self.score(cand, scratch);
            best = match best {
                Some((bi, bs))
                    if s.partial_cmp(&bs).unwrap_or(std::cmp::Ordering::Equal)
                        == std::cmp::Ordering::Less =>
                {
                    Some((bi, bs))
                }
                _ => Some((i, s)),
            };
        }
        best.map(|(i, _)| i)
    }
}

/// Built-in seed corpus standing in for the SQUALL / Logic2Text / FinQA
/// fine-tuning sets: gold-style questions and claims in the phrasing the
/// benchmarks use. The default generator's LM is fit on this.
pub fn seed_corpus() -> Vec<&'static str> {
    vec![
        // SQUALL-style questions
        "what is the department with the most amount of total deputies?",
        "which team has the highest number of points?",
        "which player scored the fewest goals in the season?",
        "what is the name of the city with the largest population?",
        "how many teams scored more than 50 points?",
        "how many players are from brazil?",
        "what is the total number of wins for the reds?",
        "what is the average attendance across all games?",
        "what is the sum of the budgets of all departments?",
        "which country finished first in the rankings?",
        "what is the difference between the highest and lowest scores?",
        "who was the first driver to finish the race?",
        "what was the score of the last game of the season?",
        "which model has the highest speed?",
        // Logic2Text-style claims
        "there are 3 materials used for basic printer settings.",
        "the reds scored the most points in the league.",
        "most of the teams scored more than 40 points.",
        "all of the games were played in october.",
        "the second highest price was 349 dollars.",
        "only one team is from oslo.",
        "the average price of the printers was 311.5.",
        "the total attendance for the season was 50000.",
        "the blues scored 13 fewer points than the reds.",
        "there is only one printer that uses abs material.",
        // FinQA / TAT-QA-style questions
        "what was the percentage change in stockholders' equity between 2018 and 2019?",
        "what was the change in revenue from 2018 to 2019?",
        "what was the total of operating costs in 2019 and 2018?",
        "what was the average revenue for 2018 and 2019?",
        "what was the ratio of revenue to operating costs in 2019?",
        "was the revenue in 2019 greater than the revenue in 2018?",
        "what was the difference between revenue and operating costs in 2019?",
        "what was the sum of all values for revenue?",
        "what was the highest quarterly revenue during 2019?",
        "what percentage did operating costs decrease from 2018 to 2019?",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained() -> NgramLm {
        let mut lm = NgramLm::new(3);
        lm.fit(&seed_corpus());
        lm
    }

    /// [`NgramLm::score`] through a fresh scratch.
    fn score(lm: &NgramLm, sentence: &str) -> f64 {
        lm.score(sentence, &mut ScoreScratch::default())
    }

    /// The candidate [`NgramLm::best`] picks, through a fresh scratch.
    fn best<'a>(lm: &NgramLm, candidates: &'a [String]) -> &'a String {
        let i = lm.best(candidates, &mut ScoreScratch::default());
        &candidates[i.unwrap_or_else(|| panic!("no best candidate"))]
    }

    #[test]
    fn prefers_fluent_order() {
        let lm = trained();
        let fluent = "what is the department with the most total deputies?";
        let shuffled = "deputies what most the is department total with the?";
        assert!(score(&lm, fluent) > score(&lm, shuffled));
    }

    #[test]
    fn prefers_seen_phrasing() {
        let lm = trained();
        let natural = "which team has the highest number of points?";
        let awkward = "which team has the maximum magnitude of points?";
        assert!(score(&lm, natural) > score(&lm, awkward));
    }

    #[test]
    fn best_picks_highest() {
        let lm = trained();
        let candidates = vec![
            "points team which highest has the?".to_string(),
            "which team has the highest points?".to_string(),
        ];
        let best = best(&lm, &candidates);
        assert_eq!(best, &candidates[1]);
    }

    #[test]
    fn best_matches_max_by_tie_semantics() {
        // Identical candidates score identically; `max_by` keeps the last
        // of equally-maximal elements, and `best` must do the same.
        let lm = trained();
        let candidates = vec![
            "what is the total?".to_string(),
            "completely different phrasing here".to_string(),
            "what is the total?".to_string(),
        ];
        let best = best(&lm, &candidates);
        assert!(std::ptr::eq(best, &candidates[2]), "tie must keep the later candidate");
        let reference = candidates
            .iter()
            .max_by(|a, b| {
                score(&lm, a).partial_cmp(&score(&lm, b)).unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or_else(|| panic!("reference max_by"));
        assert!(std::ptr::eq(best, reference));
    }

    #[test]
    fn reused_scratch_scores_like_a_fresh_one() {
        let lm = trained();
        let mut scratch = ScoreScratch::default();
        for s in ["what is the total?", "the reds scored the most points.", "zyzzyva"] {
            let fresh = score(&lm, s);
            let reused = lm.score(s, &mut scratch);
            assert_eq!(fresh.to_bits(), reused.to_bits(), "score divergence on {s:?}");
        }
    }

    #[test]
    fn unseen_tokens_get_nonzero_probability() {
        let lm = trained();
        let s = score(&lm, "zyzzyva quux flibbertigibbet");
        assert!(s.is_finite());
        assert!(s < score(&lm, "what is the total?"));
    }

    #[test]
    fn empty_model_scores_finite() {
        let lm = NgramLm::new(2);
        assert!(score(&lm, "anything at all").is_finite());
    }

    #[test]
    fn order_one_model_works() {
        let mut lm = NgramLm::new(1);
        lm.fit(&["a a a b"]);
        assert!(score(&lm, "a a") > score(&lm, "b b"));
    }

    #[test]
    fn observe_updates_vocab() {
        let mut lm = NgramLm::new(2);
        assert_eq!(lm.vocab_size(), 0);
        lm.observe("one two three");
        assert!(lm.vocab_size() >= 3);
    }
}
