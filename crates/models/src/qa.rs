//! Table question answering: candidate generation + learned ranking.
//!
//! The reproduction's counterpart of TAGOP (and, on WikiSQL, TAPEX): the
//! model enumerates *answer candidates* from the evidence — cell values,
//! filtered lookups, column aggregates, row-arithmetic results (difference,
//! percentage change, ratio, two-value average), yes/no, and spans from the
//! context sentences — and scores each candidate with a trained linear
//! ranker over question–candidate match features. TAGOP's "tag cells, then
//! apply an operator" pipeline maps onto candidate provenance (which cells)
//! and candidate type (which operator); what training data teaches is the
//! association between question phrasing and operator/provenance choice,
//! which is where synthetic-data coverage shows up in EM/F1.

use crate::features::{detect_cues, evidence_table, extract_numbers};
use crate::linear::{FeatureVec, LinearModel, TrainConfig};
use tabular::text::{normalize_answer, tokenize};
use tabular::{format_number, ColumnType, Table, Value};
use uctr::Sample;

/// One answer candidate with its ranking features.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Raw answer text.
    pub text: String,
    /// Candidate kind ("cell", "agg_max", "arith_pct", ...), i.e. the
    /// implied operator.
    pub kind: String,
    pub features: FeatureVec,
}

/// Question cue profile for QA.
#[derive(Debug, Clone, Default)]
struct QaCues {
    count: bool,
    supmax: bool,
    supmin: bool,
    total: bool,
    average: bool,
    pct: bool,
    diff: bool,
    ratio: bool,
    yesno: bool,
    lookup: bool,
}

fn qa_cues(question: &str) -> QaCues {
    let lower = question.to_lowercase();
    let c = detect_cues(question);
    let has = |words: &[&str]| words.iter().any(|w| lower.contains(w));
    QaCues {
        count: has(&["how many", "what number of"]),
        supmax: c.superlative_max,
        supmin: c.superlative_min,
        total: c.total,
        average: c.average,
        pct: has(&["percent", "percentage", "relative change"]),
        diff: has(&["difference", "change in", "gap", "differ"]),
        ratio: has(&["ratio", "product"]),
        yesno: lower.starts_with("was ")
            || lower.starts_with("does ")
            || lower.starts_with("did ")
            || lower.starts_with("is ")
            || lower.contains("greater than") && lower.starts_with("w"),
        lookup: has(&["what is the", "tell me the", "which", "name the", "listed", "recorded"]),
    }
}

/// Overlap of a phrase's tokens with the question tokens.
fn overlap(question_tokens: &[String], phrase: &str) -> f64 {
    let toks = tokenize(phrase);
    if toks.is_empty() {
        return 0.0;
    }
    let hit = toks.iter().filter(|t| question_tokens.contains(t)).count();
    hit as f64 / toks.len() as f64
}

fn base_features(
    kind: &str,
    cues: &QaCues,
    question_tokens: &[String],
    col_header: Option<&str>,
    row_entity: Option<&str>,
    text: &str,
) -> FeatureVec {
    let mut fv = FeatureVec::new();
    fv.flag(&format!("type:{kind}"));
    // cue × type crossings: the core operator-selection evidence.
    for (cue, on) in [
        ("count", cues.count),
        ("supmax", cues.supmax),
        ("supmin", cues.supmin),
        ("total", cues.total),
        ("avg", cues.average),
        ("pct", cues.pct),
        ("diff", cues.diff),
        ("ratio", cues.ratio),
        ("yesno", cues.yesno),
        ("lookup", cues.lookup),
    ] {
        if on {
            fv.flag(&format!("x:{cue}:{kind}"));
        }
    }
    if let Some(h) = col_header {
        fv.add("ov:col", overlap(question_tokens, h));
    }
    if let Some(e) = row_entity {
        fv.add("ov:row", overlap(question_tokens, e));
    }
    // A candidate literally present in the question is usually a condition,
    // not the answer.
    let self_mention = overlap(question_tokens, text);
    fv.add("ov:self", self_mention);
    // Lexical × type features: surface phrasing learned from the training
    // distribution (see the note in `features.rs`).
    for tok in question_tokens {
        if tok.len() > 2 && tok.parse::<f64>().is_err() {
            fv.add(&format!("w:{tok}:{kind}"), 0.15);
        }
    }
    fv.add("bias", 1.0);
    fv
}

/// Enumerates candidates for a sample.
pub fn generate_candidates(sample: &Sample) -> Vec<Candidate> {
    let table = evidence_table(sample);
    let cues = qa_cues(&sample.text);
    let qtokens = tokenize(&sample.text);
    let qnumbers = extract_numbers(&sample.text);
    let mut out: Vec<Candidate> = Vec::new();
    let ecol = table.entity_column();

    let entity_of = |ri: usize| -> Option<String> {
        table.cell(ri, ecol).filter(|v| !v.is_null()).map(|v| v.to_string())
    };

    // --- cell candidates ---
    for ri in 0..table.n_rows() {
        for ci in 0..table.n_cols() {
            let Some(v) = table.cell(ri, ci) else { continue };
            if v.is_null() {
                continue;
            }
            let text = v.to_string();
            let mut fv = base_features(
                "cell",
                &cues,
                &qtokens,
                table.column_name(ci),
                entity_of(ri).as_deref(),
                &text,
            );
            if ci == ecol {
                fv.flag("cell:is_entity_col");
            }
            out.push(Candidate { text, kind: "cell".into(), features: fv });
        }
    }

    // --- numeric column statistics ---
    let numeric_cols: Vec<usize> = table.schema().columns_of_type(ColumnType::Number);
    for &ci in &numeric_cols {
        let header = table.column_name(ci).unwrap_or("").to_string();
        let vals: Vec<f64> = table.column_values(ci).iter().filter_map(Value::as_number).collect();
        if vals.is_empty() {
            continue;
        }
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        let sum: f64 = vals.iter().sum();
        let avg = sum / vals.len() as f64;
        for (kind, value) in
            [("agg_max", max), ("agg_min", min), ("agg_sum", sum), ("agg_avg", avg)]
        {
            let text = format_number(value);
            let fv = base_features(kind, &cues, &qtokens, Some(&header), None, &text);
            out.push(Candidate { text, kind: kind.to_string(), features: fv });
        }
        // argmax/argmin entities (superlative lookups).
        if let Some(am) = table.argmax(ci).and_then(&entity_of) {
            let fv = base_features("argmax_ent", &cues, &qtokens, Some(&header), Some(&am), &am);
            out.push(Candidate { text: am, kind: "argmax_ent".into(), features: fv });
        }
        if let Some(am) = table.argmin(ci).and_then(&entity_of) {
            let fv = base_features("argmin_ent", &cues, &qtokens, Some(&header), Some(&am), &am);
            out.push(Candidate { text: am, kind: "argmin_ent".into(), features: fv });
        }
    }

    // --- counting candidates ---
    // total rows
    {
        let text = format_number(table.n_rows() as f64);
        let fv = base_features("count_all", &cues, &qtokens, None, None, &text);
        out.push(Candidate { text, kind: "count_all".into(), features: fv });
    }
    // rows matching a question-mentioned value (equality filters)
    for ci in 0..table.n_cols() {
        let header = table.column_name(ci).unwrap_or("").to_string();
        for tok in &qtokens {
            let matches = table
                .column_values(ci)
                .iter()
                .filter(|v| !v.is_null() && v.to_string().to_lowercase() == *tok)
                .count();
            if matches > 0 {
                let text = format_number(matches as f64);
                let mut fv =
                    base_features("count_filter", &cues, &qtokens, Some(&header), None, &text);
                fv.flag("count:has_filter_value");
                out.push(Candidate { text, kind: "count_filter".into(), features: fv });
            }
        }
    }
    // threshold counts for question numbers over numeric columns
    for &ci in &numeric_cols {
        let header = table.column_name(ci).unwrap_or("").to_string();
        for &n in &qnumbers {
            let vals: Vec<f64> =
                table.column_values(ci).iter().filter_map(Value::as_number).collect();
            let gt = vals.iter().filter(|&&v| v > n).count();
            let lt = vals.iter().filter(|&&v| v < n).count();
            for (kind, k) in [("count_gt", gt), ("count_lt", lt)] {
                if k > 0 {
                    let text = format_number(k as f64);
                    let fv = base_features(kind, &cues, &qtokens, Some(&header), None, &text);
                    out.push(Candidate { text, kind: kind.to_string(), features: fv });
                }
            }
        }
    }

    // --- filtered lookup candidates (multi-row answers joined) ---
    for fc in 0..table.n_cols() {
        // filter values that the question mentions
        let distinct = table.distinct(fc);
        for val in &distinct {
            let vs = val.to_string().to_lowercase();
            if vs.is_empty() || !sample.text.to_lowercase().contains(&vs) {
                continue;
            }
            let rows: Vec<usize> = (0..table.n_rows())
                .filter(|&r| table.cell(r, fc).is_some_and(|v| v.loosely_equals(val)))
                .collect();
            if rows.is_empty() {
                continue;
            }
            for tc in 0..table.n_cols() {
                if tc == fc {
                    continue;
                }
                let texts: Vec<String> = rows
                    .iter()
                    .filter_map(|&r| table.cell(r, tc))
                    .filter(|v| !v.is_null())
                    .map(|v| v.to_string())
                    .collect();
                if texts.is_empty() {
                    continue;
                }
                let text = texts.join(", ");
                let mut fv = base_features(
                    "lookup",
                    &cues,
                    &qtokens,
                    table.column_name(tc),
                    Some(&val.to_string()),
                    &text,
                );
                fv.flag("lookup:filter_mentioned");
                out.push(Candidate { text, kind: "lookup".into(), features: fv });
            }
        }
    }

    // --- row-arithmetic candidates ---
    for ri in 0..table.n_rows() {
        let row_ent = entity_of(ri);
        for (i, &ca) in numeric_cols.iter().enumerate() {
            for &cb in numeric_cols.iter().skip(i + 1) {
                let (Some(a), Some(b)) = (
                    table.cell(ri, ca).and_then(Value::as_number),
                    table.cell(ri, cb).and_then(Value::as_number),
                ) else {
                    continue;
                };
                let ha = table.column_name(ca).unwrap_or("");
                let hb = table.column_name(cb).unwrap_or("");
                let pair_header = format!("{ha} {hb}");
                let mut push = |kind: &str, value: f64| {
                    if !value.is_finite() {
                        return;
                    }
                    let text = format_number(round6(value));
                    let fv = base_features(
                        kind,
                        &cues,
                        &qtokens,
                        Some(&pair_header),
                        row_ent.as_deref(),
                        &text,
                    );
                    out.push(Candidate { text, kind: kind.to_string(), features: fv });
                };
                push("arith_diff", a - b);
                push("arith_diff", b - a);
                push("arith_sum", a + b);
                push("arith_avg2", (a + b) / 2.0);
                if b != 0.0 {
                    push("arith_pct", (a - b) / b);
                    push("arith_ratio", a / b);
                }
                if a != 0.0 {
                    push("arith_pct", (b - a) / a);
                    push("arith_ratio", b / a);
                }
                push("arith_prod", a * b);
            }
        }
    }

    // --- same-column row-pair arithmetic (same period, two line items) ---
    for &ci in &numeric_cols {
        let header = table.column_name(ci).unwrap_or("").to_string();
        let cells_in_col: Vec<(usize, f64)> = (0..table.n_rows())
            .filter_map(|ri| table.cell(ri, ci).and_then(Value::as_number).map(|n| (ri, n)))
            .collect();
        for (i, &(ra, a)) in cells_in_col.iter().enumerate() {
            for &(rb, b) in cells_in_col.iter().skip(i + 1) {
                let pair_ent = format!(
                    "{} {}",
                    entity_of(ra).unwrap_or_default(),
                    entity_of(rb).unwrap_or_default()
                );
                let mut push = |kind: &str, value: f64| {
                    if !value.is_finite() {
                        return;
                    }
                    let text = format_number(round6(value));
                    let fv =
                        base_features(kind, &cues, &qtokens, Some(&header), Some(&pair_ent), &text);
                    out.push(Candidate { text, kind: kind.to_string(), features: fv });
                };
                push("arith_diff", a - b);
                push("arith_diff", b - a);
                push("arith_sum", a + b);
                push("arith_avg2", (a + b) / 2.0);
                if b != 0.0 {
                    push("arith_pct", (a - b) / b);
                    push("arith_ratio", a / b);
                }
                if a != 0.0 {
                    push("arith_pct", (b - a) / a);
                    push("arith_ratio", b / a);
                }
            }
        }
    }

    // --- proportion candidates: cell / column sum ---
    for &ci in &numeric_cols {
        let header = table.column_name(ci).unwrap_or("").to_string();
        let sum: f64 = table.column_values(ci).iter().filter_map(Value::as_number).sum();
        if sum == 0.0 {
            continue;
        }
        for ri in 0..table.n_rows() {
            let Some(v) = table.cell(ri, ci).and_then(Value::as_number) else { continue };
            let text = format_number(round6(v / sum));
            let fv = base_features(
                "arith_prop",
                &cues,
                &qtokens,
                Some(&header),
                entity_of(ri).as_deref(),
                &text,
            );
            out.push(Candidate { text, kind: "arith_prop".into(), features: fv });
        }
    }

    // --- column-pair sum differences: sum(A) - sum(B) ---
    for (i, &ca) in numeric_cols.iter().enumerate() {
        for &cb in numeric_cols.iter().skip(i + 1) {
            let sa: f64 = table.column_values(ca).iter().filter_map(Value::as_number).sum();
            let sb: f64 = table.column_values(cb).iter().filter_map(Value::as_number).sum();
            let pair = format!(
                "{} {}",
                table.column_name(ca).unwrap_or(""),
                table.column_name(cb).unwrap_or("")
            );
            for (kind, v) in [("arith_sumdiff", sa - sb), ("arith_sumdiff", sb - sa)] {
                let text = format_number(round6(v));
                let fv = base_features(kind, &cues, &qtokens, Some(&pair), None, &text);
                out.push(Candidate { text, kind: kind.to_string(), features: fv });
            }
        }
    }

    // --- range lookups: rows with n1 <= col <= n2 for question numbers ---
    if qnumbers.len() >= 2 {
        for &ci in &numeric_cols {
            let header = table.column_name(ci).unwrap_or("").to_string();
            for (i, &n1) in qnumbers.iter().enumerate() {
                for &n2 in qnumbers.iter().skip(i + 1) {
                    let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
                    let rows: Vec<usize> = (0..table.n_rows())
                        .filter(|&r| {
                            table
                                .cell(r, ci)
                                .and_then(Value::as_number)
                                .is_some_and(|v| v >= lo && v <= hi)
                        })
                        .collect();
                    if rows.is_empty() {
                        continue;
                    }
                    for tc in 0..table.n_cols() {
                        if tc == ci {
                            continue;
                        }
                        let texts: Vec<String> = rows
                            .iter()
                            .filter_map(|&r| table.cell(r, tc))
                            .filter(|v| !v.is_null())
                            .map(|v| v.to_string())
                            .collect();
                        if texts.is_empty() {
                            continue;
                        }
                        let text = texts.join(", ");
                        let fv = base_features(
                            "lookup_range",
                            &cues,
                            &qtokens,
                            table.column_name(tc),
                            Some(&header),
                            &text,
                        );
                        out.push(Candidate { text, kind: "lookup_range".into(), features: fv });
                    }
                }
            }
        }
    }

    // --- filtered superlatives: among rows where col==v, argmax/argmin of
    // a numeric column, projected onto each other column ---
    for fc in 0..table.n_cols() {
        for val in table.distinct(fc) {
            let vs = val.to_string().to_lowercase();
            if vs.is_empty() || !sample.text.to_lowercase().contains(&vs) {
                continue;
            }
            let rows: Vec<usize> = (0..table.n_rows())
                .filter(|&r| table.cell(r, fc).is_some_and(|v| v.loosely_equals(&val)))
                .collect();
            if rows.len() < 2 {
                continue;
            }
            for &sc in &numeric_cols {
                if sc == fc {
                    continue;
                }
                let best_max = rows
                    .iter()
                    .filter_map(|&r| table.cell(r, sc).and_then(Value::as_number).map(|n| (n, r)))
                    .max_by(|a, b| a.0.total_cmp(&b.0));
                let best_min = rows
                    .iter()
                    .filter_map(|&r| table.cell(r, sc).and_then(Value::as_number).map(|n| (n, r)))
                    .min_by(|a, b| a.0.total_cmp(&b.0));
                for (kind, best) in
                    [("lookup_filter_max", best_max), ("lookup_filter_min", best_min)]
                {
                    let Some((_, ri)) = best else { continue };
                    for tc in 0..table.n_cols() {
                        if tc == sc || tc == fc {
                            continue;
                        }
                        let Some(v) = table.cell(ri, tc) else { continue };
                        if v.is_null() {
                            continue;
                        }
                        let text = v.to_string();
                        let fv = base_features(
                            kind,
                            &cues,
                            &qtokens,
                            table.column_name(sc),
                            Some(&val.to_string()),
                            &text,
                        );
                        out.push(Candidate { text, kind: kind.to_string(), features: fv });
                    }
                }
            }
        }
    }

    // --- compound counts: rows matching an equality filter AND a numeric
    // threshold from the question ---
    if !qnumbers.is_empty() {
        for fc in 0..table.n_cols() {
            for val in table.distinct(fc) {
                let vs = val.to_string().to_lowercase();
                if vs.is_empty() || !sample.text.to_lowercase().contains(&vs) {
                    continue;
                }
                for &nc in &numeric_cols {
                    if nc == fc {
                        continue;
                    }
                    for &n in &qnumbers {
                        for (kind, pred) in [
                            (
                                "count_filter_gt",
                                Box::new(move |v: f64| v > n) as Box<dyn Fn(f64) -> bool>,
                            ),
                            ("count_filter_lt", Box::new(move |v: f64| v < n)),
                        ] {
                            let k = (0..table.n_rows())
                                .filter(|&r| {
                                    table.cell(r, fc).is_some_and(|v| v.loosely_equals(&val))
                                        && table
                                            .cell(r, nc)
                                            .and_then(Value::as_number)
                                            .is_some_and(&pred)
                                })
                                .count();
                            if k > 0 {
                                let text = format_number(k as f64);
                                let fv = base_features(
                                    kind,
                                    &cues,
                                    &qtokens,
                                    table.column_name(nc),
                                    Some(&val.to_string()),
                                    &text,
                                );
                                out.push(Candidate { text, kind: kind.to_string(), features: fv });
                            }
                        }
                    }
                }
            }
        }
    }

    // --- yes/no candidates ---
    if cues.yesno {
        let truth = resolve_comparison(sample, &table);
        for yes in [true, false] {
            let mut fv =
                base_features("yesno", &cues, &qtokens, None, None, if yes { "yes" } else { "no" });
            match truth {
                Some(t) if t == yes => fv.flag("yesno:consistent"),
                Some(_) => fv.flag("yesno:inconsistent"),
                None => fv.flag("yesno:unresolved"),
            }
            out.push(Candidate {
                text: if yes { "yes" } else { "no" }.to_string(),
                kind: "yesno".into(),
                features: fv,
            });
        }
    }

    // --- context-number candidates (text evidence not in any record) ---
    for sentence in &sample.context {
        let sent_tokens = tokenize(sentence);
        for (ti, tok) in sent_tokens.iter().enumerate() {
            if tok.parse::<f64>().is_ok() {
                let mut fv = base_features("ctx_num", &cues, &qtokens, None, None, tok);
                fv.add("ov:ctx_sent", overlap(&qtokens, sentence));
                // The words immediately before the number name what it
                // measures ("a budget of 700"); their overlap with the
                // question is the column-selection evidence for text spans.
                let lo = ti.saturating_sub(4);
                let prefix = sent_tokens[lo..ti].join(" ");
                fv.add("ov:ctx_prefix", overlap(&qtokens, &prefix));
                out.push(Candidate { text: tok.clone(), kind: "ctx_num".into(), features: fv });
            }
        }
    }

    // Deduplicate by (normalized text, dominant type flag is folded by
    // keeping the first occurrence — scores differ by provenance anyway).
    out
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Tries to resolve a comparative yes/no question: find two (entity,
/// column) referenced numbers in question order and compare them.
fn resolve_comparison(sample: &Sample, table: &Table) -> Option<bool> {
    let lower = sample.text.to_lowercase();
    let ecol = table.entity_column();
    // Collect (position, value) for every resolvable entity+numeric-column pair.
    let mut refs: Vec<(usize, f64)> = Vec::new();
    for ri in 0..table.n_rows() {
        let ent = table.cell(ri, ecol)?.to_string().to_lowercase();
        if ent.is_empty() {
            continue;
        }
        let Some(pos) = lower.find(&ent) else { continue };
        for ci in 0..table.n_cols() {
            if ci == ecol {
                continue;
            }
            let header = table.column_name(ci)?.to_lowercase();
            if header.is_empty() || !lower.contains(&header) {
                continue;
            }
            if let Some(n) = table.cell(ri, ci).and_then(Value::as_number) {
                refs.push((pos, n));
            }
        }
    }
    refs.sort_by_key(|&(p, _)| p);
    refs.dedup_by_key(|&mut (p, _)| p);
    if refs.len() >= 2 {
        Some(refs[0].1 > refs[1].1)
    } else {
        None
    }
}

/// The learned QA model: a binary ranker over candidates.
#[derive(Debug, Clone)]
pub struct QaModel {
    ranker: LinearModel,
    space: CandidateSpace,
}

/// Which candidate kinds the model may answer with. `CellsAndAggs` emulates
/// cell-selection models like TAPAS, which handle lookups and simple
/// aggregation but not free-form arithmetic (paper Table III: TAPAS 18.9 EM
/// on TAT-QA vs TAGOP 55.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateSpace {
    #[default]
    Full,
    CellsAndAggs,
}

impl CandidateSpace {
    /// Whether a candidate kind is available under this space.
    pub fn allows(self, kind: &str) -> bool {
        match self {
            CandidateSpace::Full => true,
            CandidateSpace::CellsAndAggs => {
                matches!(
                    kind,
                    "cell"
                        | "agg_max"
                        | "agg_min"
                        | "agg_sum"
                        | "agg_avg"
                        | "argmax_ent"
                        | "argmin_ent"
                        | "count_all"
                        | "count_filter"
                        | "lookup"
                        | "ctx_num"
                )
            }
        }
    }
}

impl QaModel {
    /// An untrained model (uniform scores) — the TAPEX-without-fine-tuning
    /// baseline of Table VI.
    pub fn untrained() -> QaModel {
        QaModel { ranker: LinearModel::zeros(2), space: CandidateSpace::Full }
    }

    /// Trains the ranker on labeled QA samples.
    pub fn train(samples: &[Sample]) -> QaModel {
        Self::train_with(samples, TrainConfig { epochs: 8, ..TrainConfig::default() })
    }

    /// Trains with explicit hyperparameters.
    pub fn train_with(samples: &[Sample], cfg: TrainConfig) -> QaModel {
        Self::train_in_space(samples, cfg, CandidateSpace::Full)
    }

    /// Trains a model restricted to a candidate space.
    pub fn train_in_space(samples: &[Sample], cfg: TrainConfig, space: CandidateSpace) -> QaModel {
        let mut model = QaModel { ranker: LinearModel::zeros(2), space };
        let examples = model.examples(samples);
        model.ranker = LinearModel::train(&examples, 2, cfg);
        model
    }

    /// Continues training (few-shot fine-tuning / augmentation stage 2).
    pub fn fine_tune(&mut self, samples: &[Sample], cfg: TrainConfig) {
        let examples = self.examples(samples);
        self.ranker.train_more(&examples, cfg);
    }

    fn examples(&self, samples: &[Sample]) -> Vec<(FeatureVec, usize)> {
        let mut out = Vec::new();
        for s in samples {
            let Some(gold) = s.label.as_answer() else { continue };
            let gold_norm = normalize_answer(gold);
            let candidates: Vec<Candidate> =
                generate_candidates(s).into_iter().filter(|c| self.space.allows(&c.kind)).collect();
            let has_pos = candidates.iter().any(|c| normalize_answer(&c.text) == gold_norm);
            if !has_pos {
                continue; // unanswerable under the candidate space
            }
            for c in candidates {
                let label = usize::from(normalize_answer(&c.text) == gold_norm);
                out.push((c.features, label));
            }
        }
        out
    }

    /// Predicts the answer text for a sample.
    pub fn predict(&self, sample: &Sample) -> String {
        let candidates: Vec<Candidate> = generate_candidates(sample)
            .into_iter()
            .filter(|c| self.space.allows(&c.kind))
            .collect();
        candidates
            .into_iter()
            .max_by(|a, b| {
                let sa = self.ranker.class_score(&a.features, 1)
                    - self.ranker.class_score(&a.features, 0);
                let sb = self.ranker.class_score(&b.features, 1)
                    - self.ranker.class_score(&b.features, 0);
                sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|c| c.text)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpora::{wikisql_like, CorpusConfig};

    fn table() -> Result<Table, tabular::TableError> {
        Table::from_strings(
            "Departments",
            &[
                vec!["department", "total deputies", "budget"],
                vec!["Commerce", "18", "500"],
                vec!["Defense", "42", "9000"],
                vec!["Treasury", "30", "3000"],
            ],
        )
    }

    #[test]
    fn candidates_cover_cells_and_aggregates() -> Result<(), Box<dyn std::error::Error>> {
        let s = Sample::qa(table()?, "What is the total budget?", "12500");
        let cands = generate_candidates(&s);
        let texts: Vec<&str> = cands.iter().map(|c| c.text.as_str()).collect();
        assert!(texts.contains(&"Defense"));
        assert!(texts.contains(&"12500"), "sum missing: {texts:?}");
        assert!(texts.contains(&"42"));
        assert!(texts.contains(&"3")); // row count
        Ok(())
    }

    #[test]
    fn candidates_include_percentage_change() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings(
            "fin",
            &[vec!["item", "2019", "2018"], vec!["Equity", "3200", "4000"]],
        )?;
        let s = Sample::qa(
            t,
            "In percentage terms, how did Equity move between 2018 and 2019?",
            "-0.2",
        );
        let cands = generate_candidates(&s);
        assert!(cands.iter().any(|c| c.text == "-0.2"), "pct candidate missing");
        Ok(())
    }

    #[test]
    fn candidates_from_context_records() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = Sample::qa(table()?, "What is the budget of Energy?", "700");
        s.context = vec!["Energy has a total deputies of 12 and a budget of 700.".to_string()];
        let cands = generate_candidates(&s);
        assert!(cands.iter().any(|c| c.text == "700"));
        Ok(())
    }

    #[test]
    fn yes_no_candidates_for_comparatives() -> Result<(), Box<dyn std::error::Error>> {
        let s = Sample::qa(
            table()?,
            "Was the budget of Defense greater than the budget of Treasury?",
            "yes",
        );
        let cands = generate_candidates(&s);
        assert!(cands.iter().any(|c| c.text == "yes"));
        assert!(cands.iter().any(|c| c.text == "no"));
        Ok(())
    }

    #[test]
    fn trained_model_beats_untrained() -> Result<(), Box<dyn std::error::Error>> {
        let b = wikisql_like(CorpusConfig {
            n_tables: 40,
            train_per_table: 8,
            eval_per_table: 2,
            seed: 3,
        });
        let trained = QaModel::train(&b.gold.train);
        let untrained = QaModel::untrained();
        let answers = b
            .gold
            .dev
            .iter()
            .map(|s| s.label.as_answer().ok_or("dev sample without an answer"))
            .collect::<Result<Vec<_>, _>>()?;
        let em = |m: &QaModel| {
            let hits = b
                .gold
                .dev
                .iter()
                .zip(&answers)
                .filter(|(s, a)| normalize_answer(&m.predict(s)) == normalize_answer(a))
                .count();
            hits as f64 / b.gold.dev.len() as f64
        };
        let em_trained = em(&trained);
        let em_untrained = em(&untrained);
        assert!(
            em_trained > em_untrained + 0.15,
            "trained {em_trained:.3} vs untrained {em_untrained:.3}"
        );
        assert!(em_trained > 0.3, "trained EM too low: {em_trained:.3}");
        Ok(())
    }

    #[test]
    fn same_column_pair_arithmetic_candidates() -> Result<(), Box<dyn std::error::Error>> {
        // Difference of two rows' values in the same column (a common
        // FinQA/TAT-QA gold shape).
        let t = Table::from_strings(
            "fin",
            &[vec!["item", "2019"], vec!["Revenue", "8800"], vec!["Costs", "6100"]],
        )?;
        let s = Sample::qa(
            t,
            "How far apart are Revenue's 2019 figure and Costs's 2019 figure?",
            "2700",
        );
        let cands = generate_candidates(&s);
        assert!(cands.iter().any(|c| c.text == "2700" && c.kind == "arith_diff"));
        assert!(cands.iter().any(|c| c.text == "-2700"));
        Ok(())
    }

    #[test]
    fn proportion_and_sumdiff_candidates() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings(
            "fin",
            &[
                vec!["item", "2019", "2018"],
                vec!["Revenue", "8000", "7000"],
                vec!["Costs", "2000", "3000"],
            ],
        )?;
        let s = Sample::qa(t, "What share of the 2019 total does Costs account for?", "0.2");
        let cands = generate_candidates(&s);
        assert!(
            cands.iter().any(|c| c.text == "0.2" && c.kind == "arith_prop"),
            "proportion missing"
        );
        // sum(2019)=10000, sum(2018)=10000 -> sumdiff 0
        assert!(cands.iter().any(|c| c.kind == "arith_sumdiff"));
        Ok(())
    }

    #[test]
    fn range_lookup_candidates() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings(
            "t",
            &[vec!["name", "pts"], vec!["a", "10"], vec!["b", "20"], vec!["c", "30"]],
        )?;
        let s = Sample::qa(t, "Which name has pts of at least 15 and at most 25?", "b");
        let cands = generate_candidates(&s);
        assert!(
            cands.iter().any(|c| c.text == "b" && c.kind == "lookup_range"),
            "range lookup missing"
        );
        Ok(())
    }

    #[test]
    fn filtered_superlative_candidates() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings(
            "t",
            &[
                vec!["name", "group", "pts"],
                vec!["a", "x", "10"],
                vec!["b", "x", "25"],
                vec!["c", "y", "30"],
            ],
        )?;
        let s = Sample::qa(
            t,
            "Name the entry that leads in pts, considering only rows where group equals x?",
            "b",
        );
        let cands = generate_candidates(&s);
        assert!(
            cands.iter().any(|c| c.text == "b" && c.kind == "lookup_filter_max"),
            "filtered superlative missing"
        );
        Ok(())
    }

    #[test]
    fn compound_count_candidates() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings(
            "t",
            &[
                vec!["name", "group", "pts"],
                vec!["a", "x", "10"],
                vec!["b", "x", "25"],
                vec!["c", "y", "30"],
            ],
        )?;
        let s = Sample::qa(t, "How many entries have group x while pts exceeds 15?", "1");
        let cands = generate_candidates(&s);
        assert!(
            cands.iter().any(|c| c.text == "1" && c.kind == "count_filter_gt"),
            "compound count missing"
        );
        Ok(())
    }

    #[test]
    fn candidate_space_restriction() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings(
            "fin",
            &[vec!["item", "2019", "2018"], vec!["Equity", "3200", "4000"]],
        )?;
        let s = Sample::qa(
            t,
            "In percentage terms, how did Equity move between 2018 and 2019?",
            "-0.2",
        );
        let full = generate_candidates(&s);
        assert!(full.iter().any(|c| c.kind.starts_with("arith")));
        assert!(CandidateSpace::CellsAndAggs.allows("cell"));
        assert!(!CandidateSpace::CellsAndAggs.allows("arith_pct"));
        Ok(())
    }

    #[test]
    fn lookup_candidates_join_multi_rows() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings(
            "t",
            &[
                vec!["name", "group", "pts"],
                vec!["a", "x", "1"],
                vec!["b", "x", "2"],
                vec!["c", "y", "3"],
            ],
        )?;
        let s = Sample::qa(t, "Tell me the name recorded where group equals x?", "a, b");
        let cands = generate_candidates(&s);
        assert!(cands.iter().any(|c| c.text == "a, b"), "joined lookup missing");
        Ok(())
    }
}
