//! Sparse multinomial logistic regression with hashed features.
//!
//! The learnable core of every reasoning model in the reproduction: a
//! max-entropy classifier over hashed sparse features trained with AdaGrad
//! SGD. It plays the role of the neural encoders' classification heads
//! (paper Eq. 7) at CPU-training speed, and — critically for the
//! experiments — its accuracy depends on the *training data quality*, which
//! is the quantity the paper varies.

use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};

/// Feature-space dimensionality (hashing trick).
pub const FEATURE_DIM: usize = 1 << 18;

/// A sparse feature vector: (hashed index, value) pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureVec {
    entries: Vec<(u32, f32)>,
}

impl FeatureVec {
    pub fn new() -> FeatureVec {
        FeatureVec::default()
    }

    /// Hashes a named feature into the index space.
    pub fn hash_name(name: &str) -> u32 {
        let mut h = FxHasher::default();
        name.hash(&mut h);
        (h.finish() % FEATURE_DIM as u64) as u32
    }

    /// Adds (accumulates) a named feature.
    pub fn add(&mut self, name: &str, value: f64) {
        let idx = Self::hash_name(name);
        match self.entries.iter_mut().find(|(i, _)| *i == idx) {
            Some((_, v)) => *v += value as f32,
            None => self.entries.push((idx, value as f32)),
        }
    }

    /// Adds a binary indicator feature.
    pub fn flag(&mut self, name: &str) {
        self.add(name, 1.0);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.entries.iter().copied()
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    pub epochs: usize,
    pub learning_rate: f64,
    pub l2: f64,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 12, learning_rate: 0.5, l2: 1e-6, seed: 17 }
    }
}

/// A trained multinomial logistic-regression model.
#[derive(Debug, Clone)]
pub struct LinearModel {
    n_classes: usize,
    /// Row-major [n_classes × FEATURE_DIM] weights.
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl LinearModel {
    /// An untrained (zero-weight) model: predicts class 0 with uniform
    /// probabilities — the "no fine-tuning" baseline.
    pub fn zeros(n_classes: usize) -> LinearModel {
        LinearModel {
            n_classes,
            weights: vec![0.0; n_classes * FEATURE_DIM],
            bias: vec![0.0; n_classes],
        }
    }

    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Trains with AdaGrad SGD on (features, class) pairs.
    pub fn train(
        examples: &[(FeatureVec, usize)],
        n_classes: usize,
        cfg: TrainConfig,
    ) -> LinearModel {
        let mut model = LinearModel::zeros(n_classes);
        if examples.is_empty() {
            return model;
        }
        model.train_more(examples, cfg);
        model
    }

    /// Continues training an existing model (the fine-tuning step of the
    /// few-shot and augmentation experiments).
    pub fn train_more(&mut self, examples: &[(FeatureVec, usize)], cfg: TrainConfig) {
        if examples.is_empty() {
            return;
        }
        let mut grad_sq: Vec<f32> = vec![1e-8; self.n_classes * FEATURE_DIM];
        let mut bias_sq: Vec<f32> = vec![1e-8; self.n_classes];
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng_state = cfg.seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut next_rand = move || {
            // xorshift64*
            rng_state ^= rng_state >> 12;
            rng_state ^= rng_state << 25;
            rng_state ^= rng_state >> 27;
            rng_state = rng_state.wrapping_mul(0x2545F4914F6CDD1D);
            rng_state
        };
        let lr = cfg.learning_rate as f32;
        let l2 = cfg.l2 as f32;
        let mut probs = vec![0.0f32; self.n_classes];
        for _epoch in 0..cfg.epochs {
            // Fisher–Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = (next_rand() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            for &ei in &order {
                let (fv, label) = &examples[ei];
                self.predict_proba_into(fv, &mut probs);
                for c in 0..self.n_classes {
                    let err = probs[c] - if c == *label { 1.0 } else { 0.0 };
                    if err == 0.0 {
                        continue;
                    }
                    // bias update
                    let g = err;
                    bias_sq[c] += g * g;
                    self.bias[c] -= lr * g / bias_sq[c].sqrt();
                    let row = c * FEATURE_DIM;
                    for (idx, val) in fv.iter() {
                        let w = &mut self.weights[row + idx as usize];
                        let g = err * val + l2 * *w;
                        let gs = &mut grad_sq[row + idx as usize];
                        *gs += g * g;
                        *w -= lr * g / gs.sqrt();
                    }
                }
            }
        }
    }

    /// Raw scores per class.
    pub fn scores(&self, fv: &FeatureVec) -> Vec<f32> {
        let mut out = self.bias.clone();
        for (c, slot) in out.iter_mut().enumerate() {
            let row = c * FEATURE_DIM;
            let mut s = 0.0f32;
            for (idx, val) in fv.iter() {
                s += self.weights[row + idx as usize] * val;
            }
            *slot += s;
        }
        out
    }

    fn predict_proba_into(&self, fv: &FeatureVec, probs: &mut [f32]) {
        let scores = self.scores(fv);
        let max = scores.iter().cloned().fold(f32::MIN, f32::max);
        let mut z = 0.0f32;
        for (p, s) in probs.iter_mut().zip(&scores) {
            *p = (s - max).exp();
            z += *p;
        }
        for p in probs.iter_mut() {
            *p /= z;
        }
    }

    /// Most probable class (ties resolve to the lowest class index).
    pub fn predict(&self, fv: &FeatureVec) -> usize {
        let scores = self.scores(fv);
        let mut best = 0usize;
        for (i, &s) in scores.iter().enumerate().skip(1) {
            if s > scores[best] {
                best = i;
            }
        }
        best
    }

    /// Score of a single class — used as a ranking score by the QA model.
    pub fn class_score(&self, fv: &FeatureVec, class: usize) -> f32 {
        let row = class * FEATURE_DIM;
        let mut s = self.bias[class];
        for (idx, val) in fv.iter() {
            s += self.weights[row + idx as usize] * val;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(feats: &[(&str, f64)]) -> FeatureVec {
        let mut v = FeatureVec::new();
        for (n, x) in feats {
            v.add(n, *x);
        }
        v
    }

    #[test]
    fn featurevec_accumulates() -> Result<(), Box<dyn std::error::Error>> {
        let mut v = FeatureVec::new();
        v.add("a", 1.0);
        v.add("a", 2.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v.iter().next().ok_or("empty feature vector")?.1, 3.0);
        Ok(())
    }

    #[test]
    fn learns_linearly_separable_data() {
        let mut examples = Vec::new();
        for i in 0..50 {
            examples.push((fv(&[("pos", 1.0), (&format!("noise{i}"), 0.3)]), 1usize));
            examples.push((fv(&[("neg", 1.0), (&format!("noise{}", i + 100), 0.3)]), 0usize));
        }
        let model = LinearModel::train(&examples, 2, TrainConfig::default());
        assert_eq!(model.predict(&fv(&[("pos", 1.0)])), 1);
        assert_eq!(model.predict(&fv(&[("neg", 1.0)])), 0);
    }

    #[test]
    fn learns_three_classes() {
        let mut examples = Vec::new();
        for _ in 0..30 {
            examples.push((fv(&[("a", 1.0)]), 0usize));
            examples.push((fv(&[("b", 1.0)]), 1usize));
            examples.push((fv(&[("c", 1.0)]), 2usize));
        }
        let model = LinearModel::train(&examples, 3, TrainConfig::default());
        assert_eq!(model.predict(&fv(&[("a", 1.0)])), 0);
        assert_eq!(model.predict(&fv(&[("b", 1.0)])), 1);
        assert_eq!(model.predict(&fv(&[("c", 1.0)])), 2);
    }

    #[test]
    fn zero_model_gives_uniform_probs() {
        let model = LinearModel::zeros(3);
        let mut p = [0.0f32; 3];
        model.predict_proba_into(&fv(&[("x", 1.0)]), &mut p);
        for pi in p {
            assert!((pi - 1.0 / 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut examples = Vec::new();
        for _ in 0..10 {
            examples.push((fv(&[("a", 1.0)]), 0usize));
            examples.push((fv(&[("b", 1.0)]), 1usize));
        }
        let model = LinearModel::train(&examples, 2, TrainConfig::default());
        let mut p = [0.0f32; 2];
        model.predict_proba_into(&fv(&[("a", 0.5), ("b", 0.5)]), &mut p);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn fine_tuning_shifts_decision() {
        // Train on one mapping, fine-tune on the opposite with more epochs.
        let base: Vec<(FeatureVec, usize)> = (0..20).map(|_| (fv(&[("x", 1.0)]), 0usize)).collect();
        let mut model = LinearModel::train(&base, 2, TrainConfig::default());
        assert_eq!(model.predict(&fv(&[("x", 1.0)])), 0);
        let flip: Vec<(FeatureVec, usize)> =
            (0..200).map(|_| (fv(&[("x", 1.0)]), 1usize)).collect();
        model.train_more(&flip, TrainConfig { epochs: 30, ..TrainConfig::default() });
        assert_eq!(model.predict(&fv(&[("x", 1.0)])), 1);
    }

    #[test]
    fn empty_training_is_zero_model() {
        let model = LinearModel::train(&[], 2, TrainConfig::default());
        assert_eq!(model.predict(&fv(&[("x", 1.0)])), 0);
    }

    #[test]
    fn deterministic_training() {
        let examples: Vec<(FeatureVec, usize)> =
            (0..20).map(|i| (fv(&[(&format!("f{}", i % 3), 1.0)]), (i % 3) as usize)).collect();
        let a = LinearModel::train(&examples, 3, TrainConfig::default());
        let b = LinearModel::train(&examples, 3, TrainConfig::default());
        let t = fv(&[("f1", 1.0)]);
        assert_eq!(a.scores(&t), b.scores(&t));
    }
}
