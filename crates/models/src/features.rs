//! Evidence-analysis features for fact verification.
//!
//! The verifier follows the paradigm of paper Eq. 7 — encode (table,
//! context, claim) and classify — with a feature encoder instead of BERT.
//! The features are *verification signals*: the claim is approximately
//! checked against the table (do its numbers match cells? aggregates?
//! counts? is a mentioned entity the argmax of a mentioned column?) and
//! each check is crossed with the claim's logic cue words. What the model
//! must *learn from training data* is which cue–signal combinations imply
//! Supported vs Refuted — which is exactly where training-data coverage
//! (UCTR vs MQA-QG vs gold) shows up in the scores.

use crate::linear::FeatureVec;
use tabular::text::tokenize;
use tabular::{nearly_equal, ColumnType, Table, Value};
use uctr::Sample;

/// Builds the effective evidence table for a sample: the sample's table
/// plus any records extractable from its context sentences. Joint
/// table-text reasoning (both for the verifier and for QA candidate
/// generation) needs the textual record re-integrated — a split sample's
/// sub-table alone would contradict its gold label.
pub fn evidence_table(sample: &Sample) -> Table {
    let mut table = sample.table.as_table().clone();
    if table.n_cols() == 0 {
        return table;
    }
    for sentence in &sample.context {
        if let Some(rec) = textops::extract_record(sentence, &table) {
            let ecol = table.entity_column();
            let entity = Value::text(rec.entity.clone());
            let exists = (0..table.n_rows())
                .any(|r| table.cell(r, ecol).is_some_and(|v| v.loosely_equals(&entity)));
            if exists {
                continue;
            }
            let mut row = vec![Value::Null; table.n_cols()];
            row[ecol] = entity;
            for (ci, v) in &rec.fields {
                row[*ci] = v.clone();
            }
            let _ = table.push_row(row);
        }
    }
    table.reinfer_types();
    table
}

/// Precomputed statistics of one numeric column.
#[derive(Debug, Clone)]
struct ColStats {
    header: String,
    max: f64,
    min: f64,
    sum: f64,
    avg: f64,
    values: Vec<f64>,
    argmax_entity: Option<String>,
    argmin_entity: Option<String>,
}

/// Precomputed per-table statistics used by the signal extractors.
#[derive(Debug, Clone)]
pub struct TableStats {
    n_rows: usize,
    numeric: Vec<ColStats>,
    /// All cell strings, lowercased.
    cell_texts: Vec<String>,
    /// Entity-column values, lowercased.
    entities: Vec<String>,
    /// Column headers, lowercased.
    headers: Vec<String>,
}

impl TableStats {
    pub fn compute(table: &Table) -> TableStats {
        let ecol = table.entity_column();
        let mut numeric = Vec::new();
        for ci in 0..table.n_cols() {
            if table.schema().column(ci).map(|c| c.ty) != Some(ColumnType::Number) {
                continue;
            }
            let mut values = Vec::new();
            let mut argmax: Option<(f64, usize)> = None;
            let mut argmin: Option<(f64, usize)> = None;
            for ri in 0..table.n_rows() {
                let Some(n) = table.cell(ri, ci).and_then(Value::as_number) else { continue };
                values.push(n);
                if argmax.is_none_or(|(m, _)| n > m) {
                    argmax = Some((n, ri));
                }
                if argmin.is_none_or(|(m, _)| n < m) {
                    argmin = Some((n, ri));
                }
            }
            if values.is_empty() {
                continue;
            }
            let sum: f64 = values.iter().sum();
            let entity_of = |ri: usize| {
                table.cell(ri, ecol).filter(|v| !v.is_null()).map(|v| v.to_string().to_lowercase())
            };
            numeric.push(ColStats {
                header: table.column_name(ci).unwrap_or("").to_lowercase(),
                max: values.iter().cloned().fold(f64::MIN, f64::max),
                min: values.iter().cloned().fold(f64::MAX, f64::min),
                sum,
                avg: sum / values.len() as f64,
                values: values.clone(),
                argmax_entity: argmax.and_then(|(_, ri)| entity_of(ri)),
                argmin_entity: argmin.and_then(|(_, ri)| entity_of(ri)),
            });
        }
        let cell_texts = table
            .rows()
            .iter()
            .flatten()
            .filter(|v| !v.is_null())
            .map(|v| v.to_string().to_lowercase())
            .collect();
        let entities = (0..table.n_rows())
            .filter_map(|ri| table.cell(ri, ecol))
            .filter(|v| !v.is_null())
            .map(|v| v.to_string().to_lowercase())
            .collect();
        let headers = table.schema().columns().iter().map(|c| c.name.to_lowercase()).collect();
        TableStats { n_rows: table.n_rows(), numeric, cell_texts, entities, headers }
    }
}

/// Logic cue groups extracted from claim text.
#[derive(Debug, Clone, Default)]
pub struct Cues {
    pub superlative_max: bool,
    pub superlative_min: bool,
    pub count: bool,
    pub majority: bool,
    pub universal: bool,
    pub unique: bool,
    pub average: bool,
    pub total: bool,
    pub negation: bool,
    pub comparative: bool,
    pub ordinal: bool,
}

/// Detects cue words/phrases in a claim or question.
pub fn detect_cues(text: &str) -> Cues {
    let lower = text.to_lowercase();
    let has = |words: &[&str]| words.iter().any(|w| lower.contains(w));
    Cues {
        // Cue detection stands in for a pretrained encoder's general
        // English reading ability: it recognizes standard superlative /
        // count / majority constructions in ANY phrasing (both the
        // synthetic generator's and a human annotator's), while
        // corpus-specific question idioms must be learned from training
        // data via the lexical features.
        superlative_max: has(&[
            "highest",
            "most ",
            "greatest",
            "largest",
            "top",
            "maximum",
            "no entry posts a higher",
            "no row has a higher",
            "leads",
            "ahead of",
        ]),
        superlative_min: has(&[
            "lowest",
            "least",
            "smallest",
            "fewest",
            "minimum",
            "no entry posts a lower",
            "falls short",
            "last",
        ]),
        count: has(&["there are", "number of", "how many", "count", "a total of", "exactly"]),
        majority: has(&["most of the", "majority", "more than half"]),
        universal: has(&["all of the", "every", "without exception", "all "]),
        unique: has(&["only one", "a single", "only 1"]),
        average: has(&["average", "mean", "typical"]),
        total: has(&["total", "sum", "combined", "overall"]),
        negation: has(&["not the case", "it is false", " not ", "never", "no longer"]),
        comparative: has(&[
            "more than",
            "less than",
            "greater than",
            "fewer than",
            "higher than",
            "lower than",
            "above",
            "below",
            "gap between",
            "difference",
        ]),
        ordinal: has(&["second", "third", "fourth", "2nd", "3rd", "4th", "rank"]),
    }
}

/// Extracts the numbers mentioned in a text.
pub fn extract_numbers(text: &str) -> Vec<f64> {
    tokenize(text).iter().filter_map(|t| t.parse::<f64>().ok()).collect()
}

fn close(a: f64, b: f64) -> bool {
    nearly_equal(a, b) || (a - b).abs() <= 0.015 * a.abs().max(b.abs()).max(1.0)
}

/// Builds the verification feature vector for a sample.
pub fn verifier_features(sample: &Sample) -> FeatureVec {
    let mut fv = FeatureVec::new();
    // Signals are computed over the evidence table (sample table + records
    // restored from the context), so joint table-text claims check out.
    let evidence = evidence_table(sample);
    let sample = &Sample { table: evidence.into(), ..sample.clone() };
    let stats = TableStats::compute(&sample.table);
    let claim_lower = sample.text.to_lowercase();
    let claim_tokens = tokenize(&sample.text);
    let numbers = extract_numbers(&sample.text);
    let cues = detect_cues(&sample.text);

    // --- cue indicator features ---
    for (name, on) in [
        ("cue:supmax", cues.superlative_max),
        ("cue:supmin", cues.superlative_min),
        ("cue:count", cues.count),
        ("cue:majority", cues.majority),
        ("cue:universal", cues.universal),
        ("cue:unique", cues.unique),
        ("cue:average", cues.average),
        ("cue:total", cues.total),
        ("cue:negation", cues.negation),
        ("cue:comparative", cues.comparative),
        ("cue:ordinal", cues.ordinal),
    ] {
        if on {
            fv.flag(name);
        }
    }

    // --- number/cell matching signals ---
    let mut any_cell_match = false;
    let mut any_agg: [bool; 4] = [false; 4]; // max, min, sum, avg
    let mut count_match = false;
    for &n in &numbers {
        let cell_match =
            stats.cell_texts.iter().any(|c| c.parse::<f64>().is_ok_and(|x| close(x, n)));
        if cell_match {
            any_cell_match = true;
        }
        for col in &stats.numeric {
            if close(n, col.max) {
                any_agg[0] = true;
            }
            if close(n, col.min) {
                any_agg[1] = true;
            }
            if close(n, col.sum) {
                any_agg[2] = true;
            }
            if close(n, col.avg) {
                any_agg[3] = true;
            }
        }
        if n.fract() == 0.0 && (n as usize) <= stats.n_rows {
            // Candidate count: rows matching some claim-mentioned value.
            let k = n as usize;
            if k == stats.n_rows {
                count_match = true;
            }
            // count of cells equal to any claim-mentioned value (substring
            // scan so multiword values like "Red Lions" match too)
            for ci in 0..sample.table.n_cols() {
                for v in sample.table.distinct(ci) {
                    let vs = v.to_string().to_lowercase();
                    if vs.len() < 2 || !claim_lower.contains(&vs) {
                        continue;
                    }
                    let c = sample
                        .table
                        .column_values(ci)
                        .iter()
                        .filter(|cell| cell.loosely_equals(&v))
                        .count();
                    if c == k && c > 0 {
                        count_match = true;
                    }
                }
            }
            // count of cells beyond/below another claim-mentioned threshold
            // ("there are 2 rows whose points is more than 70") — only
            // over columns the claim actually names, to keep the signal
            // from firing coincidentally.
            for &t in &numbers {
                if t == n {
                    continue;
                }
                for col in &stats.numeric {
                    if col.header.is_empty() || !claim_lower.contains(&col.header) {
                        continue;
                    }
                    let gt = col.values.iter().filter(|&&v| v > t).count();
                    let lt = col.values.iter().filter(|&&v| v < t).count();
                    if gt == k || lt == k {
                        count_match = true;
                    }
                }
            }
        }
    }
    if any_cell_match {
        fv.flag("sig:num_cell_match");
    } else if !numbers.is_empty() {
        fv.flag("sig:num_cell_miss");
    }
    for (i, name) in ["max", "min", "sum", "avg"].iter().enumerate() {
        if any_agg[i] {
            fv.flag(&format!("sig:num_agg_{name}"));
        }
    }
    if count_match {
        fv.flag("sig:count_match");
    } else if cues.count && !numbers.is_empty() {
        fv.flag("sig:count_miss");
    }

    // --- entity / superlative signals ---
    let mentioned_entities: Vec<&String> = stats
        .entities
        .iter()
        .filter(|e| !e.is_empty() && claim_lower.contains(e.as_str()))
        .collect();
    fv.add("sig:n_entities_mentioned", mentioned_entities.len() as f64);
    let mentioned_cols: Vec<&ColStats> = stats
        .numeric
        .iter()
        .filter(|c| !c.header.is_empty() && claim_lower.contains(&c.header))
        .collect();
    let mut argmax_hit = false;
    let mut argmax_miss = false;
    let mut argmin_hit = false;
    let mut argmin_miss = false;
    for col in &mentioned_cols {
        for ent in &mentioned_entities {
            if col.argmax_entity.as_deref() == Some(ent.as_str()) {
                argmax_hit = true;
            } else if cues.superlative_max {
                argmax_miss = true;
            }
            if col.argmin_entity.as_deref() == Some(ent.as_str()) {
                argmin_hit = true;
            } else if cues.superlative_min {
                argmin_miss = true;
            }
        }
    }
    for (name, on) in [
        ("sig:argmax_hit", argmax_hit),
        ("sig:argmax_miss", argmax_miss),
        ("sig:argmin_hit", argmin_hit),
        ("sig:argmin_miss", argmin_miss),
    ] {
        if on {
            fv.flag(name);
        }
    }
    // Cue × signal crossings (the decisive evidence for the learner).
    if cues.superlative_max {
        fv.flag(if argmax_hit { "x:supmax_hit" } else { "x:supmax_nohit" });
    }
    if cues.superlative_min {
        fv.flag(if argmin_hit { "x:supmin_hit" } else { "x:supmin_nohit" });
    }
    if cues.count {
        fv.flag(if count_match { "x:count_hit" } else { "x:count_nohit" });
    }
    if cues.average {
        fv.flag(if any_agg[3] { "x:avg_hit" } else { "x:avg_nohit" });
    }
    if cues.total {
        fv.flag(if any_agg[2] { "x:sum_hit" } else { "x:sum_nohit" });
    }

    // --- majority / universal signals ---
    if (cues.majority || cues.universal) && !numbers.is_empty() {
        let mut all_true = false;
        let mut most_true = false;
        let mut all_false_possible = false;
        for col in if mentioned_cols.is_empty() {
            stats.numeric.iter().collect::<Vec<_>>()
        } else {
            mentioned_cols.clone()
        } {
            for &n in &numbers {
                let gt = col.values.iter().filter(|&&v| v > n).count();
                let lt = col.values.iter().filter(|&&v| v < n).count();
                let eq = col.values.iter().filter(|&&v| close(v, n)).count();
                let total = col.values.len();
                for k in [gt, lt, eq] {
                    if k == total && total > 0 {
                        all_true = true;
                    }
                    if 2 * k > total {
                        most_true = true;
                    }
                    if k < total {
                        all_false_possible = true;
                    }
                }
            }
        }
        if cues.universal {
            fv.flag(if all_true { "x:all_hit" } else { "x:all_nohit" });
        }
        if cues.majority {
            fv.flag(if most_true { "x:most_hit" } else { "x:most_nohit" });
        }
        let _ = all_false_possible;
    }

    // --- row-consistency signal: does the claimed value sit in the
    // mentioned entity's own row? (the basic single-row fact check --
    // decisive for simple claims like "X has a budget of 700") ---
    {
        let ecol = sample.table.entity_column();
        let mut row_hit = false;
        let mut row_miss = false;
        for ri in 0..sample.table.n_rows() {
            let Some(ent) = sample.table.cell(ri, ecol).filter(|v| !v.is_null()) else { continue };
            let ent_l = ent.to_string().to_lowercase();
            if ent_l.is_empty() || !claim_lower.contains(&ent_l) {
                continue;
            }
            let row = sample.table.row(ri).unwrap_or(&[]);
            for &n in &numbers {
                let hit = row.iter().filter_map(tabular::Value::as_number).any(|x| close(x, n));
                if hit {
                    row_hit = true;
                } else {
                    row_miss = true;
                }
            }
            // Text values: a non-entity text cell from this row mentioned?
            for (ci, cell) in row.iter().enumerate() {
                if ci == ecol {
                    continue;
                }
                if let tabular::Value::Text(t) = cell {
                    let tl = t.to_lowercase();
                    if tl.len() > 1 && claim_lower.contains(&tl) {
                        row_hit = true;
                    }
                }
            }
        }
        if row_hit {
            fv.flag("sig:row_value_hit");
        }
        if row_miss {
            fv.flag("sig:row_value_miss");
        }
    }

    // --- unique signal ---
    if cues.unique {
        let unique_hit = claim_tokens.iter().any(|tok| {
            let c = stats.cell_texts.iter().filter(|c| c == &tok).count();
            c == 1
        });
        fv.flag(if unique_hit { "x:unique_hit" } else { "x:unique_nohit" });
    }

    // --- context (text evidence) signals ---
    let context = sample.context_text().to_lowercase();
    if !context.is_empty() {
        let ctx_tokens = tokenize(&context);
        let overlap = claim_tokens.iter().filter(|t| ctx_tokens.contains(t)).count();
        fv.add("sig:ctx_overlap", overlap as f64 / claim_tokens.len().max(1) as f64);
        let mut ctx_num_hit = false;
        let mut ctx_num_miss = false;
        for &n in &numbers {
            let hit = ctx_tokens.iter().any(|t| t.parse::<f64>().is_ok_and(|x| close(x, n)));
            if hit {
                ctx_num_hit = true;
            } else {
                ctx_num_miss = true;
            }
        }
        if ctx_num_hit {
            fv.flag("sig:ctx_num_hit");
        }
        if ctx_num_miss {
            fv.flag("sig:ctx_num_miss");
        }
    } else {
        fv.flag("sig:no_context");
    }

    // --- claim-table lexical coverage (Unknown detection) ---
    // Only content words count: function words and free-standing numbers
    // (already handled by the numeric signals above) would dilute the
    // ratio and make ordinary count/threshold claims look off-topic.
    const STOP: &[&str] = &[
        "the", "a", "an", "of", "is", "was", "are", "were", "has", "have", "in", "on", "for", "to",
        "and", "or", "that", "than", "more", "less", "there", "rows", "row", "whose", "with",
        "its", "it", "as", "by", "at", "from", "their", "most", "all", "only", "not", "entries",
        "entry", "table", "one", "no", "be",
    ];
    let content_tokens: Vec<&String> = claim_tokens
        .iter()
        .filter(|t| t.len() > 2 && t.parse::<f64>().is_err() && !STOP.contains(&t.as_str()))
        .collect();
    let covered = content_tokens
        .iter()
        .filter(|t| {
            stats.cell_texts.iter().any(|c| c.contains(t.as_str()))
                || stats.headers.iter().any(|h| h.contains(t.as_str()))
                || context.contains(t.as_str())
        })
        .count();
    let coverage =
        if content_tokens.is_empty() { 1.0 } else { covered as f64 / content_tokens.len() as f64 };
    fv.add("sig:coverage", coverage);
    if coverage < 0.35 {
        fv.flag("sig:low_coverage");
    }
    // A claim is anchored when it mentions an entity, matches a cell value,
    // or names a column it quantifies over.
    let mentions_header =
        stats.headers.iter().any(|h| !h.is_empty() && claim_lower.contains(h.as_str()));
    let ent_or_num_anchor = !mentioned_entities.is_empty() || any_cell_match || mentions_header;
    if !ent_or_num_anchor {
        fv.flag("sig:no_anchor");
    }

    // --- lexical features ---
    // Like a fine-tuned encoder, the model also conditions on surface
    // phrasing. These features are what make training-distribution phrasing
    // matter: a model trained on synthetic phrasings transfers its signal
    // weights but not its lexical weights to human-phrased claims (the
    // supervised-vs-unsupervised gap of the paper's tables).
    for tok in &claim_tokens {
        if tok.len() > 2 && tok.parse::<f64>().is_err() {
            fv.add(&format!("w:{tok}"), 0.35);
        }
    }
    for pair in claim_tokens.windows(2) {
        fv.add(&format!("b:{} {}", pair[0], pair[1]), 0.2);
    }

    fv.add("bias", 1.0);
    fv
}

#[cfg(test)]
mod tests {
    use super::*;
    use uctr::Verdict;

    fn table() -> Result<Table, tabular::TableError> {
        Table::from_strings(
            "Printers",
            &[
                vec!["model", "material", "speed", "price"],
                vec!["P100", "PLA", "60", "199"],
                vec!["P200", "ABS", "80", "299"],
                vec!["P300", "PLA", "95", "399"],
            ],
        )
    }

    #[test]
    fn cues_detected() {
        let c = detect_cues("Most of the rows have a speed above 70.");
        assert!(c.majority);
        let c = detect_cues("P300 has the highest speed.");
        assert!(c.superlative_max);
        let c = detect_cues("There are 2 rows whose material is PLA.");
        assert!(c.count);
        let c = detect_cues("It is not the case that the average price is 299.");
        assert!(c.negation && c.average);
    }

    #[test]
    fn numbers_extracted() {
        assert_eq!(extract_numbers("there are 3 rows and 2.5 points"), vec![3.0, 2.5]);
    }

    #[test]
    fn supmax_hit_feature_fires_for_true_superlative() -> Result<(), Box<dyn std::error::Error>> {
        let s =
            uctr::Sample::verification(table()?, "P300 has the highest speed.", Verdict::Supported);
        let fv = verifier_features(&s);
        let hit = FeatureVec::hash_name("x:supmax_hit");
        assert!(fv.iter().any(|(i, _)| i == hit), "expected supmax_hit");
        Ok(())
    }

    #[test]
    fn supmax_nohit_for_false_superlative() -> Result<(), Box<dyn std::error::Error>> {
        let s =
            uctr::Sample::verification(table()?, "P100 has the highest speed.", Verdict::Refuted);
        let fv = verifier_features(&s);
        let nohit = FeatureVec::hash_name("x:supmax_nohit");
        assert!(fv.iter().any(|(i, _)| i == nohit), "expected supmax_nohit");
        Ok(())
    }

    #[test]
    fn count_signals() -> Result<(), Box<dyn std::error::Error>> {
        let s = uctr::Sample::verification(
            table()?,
            "There are 2 rows whose material is PLA.",
            Verdict::Supported,
        );
        let fv = verifier_features(&s);
        let hit = FeatureVec::hash_name("x:count_hit");
        assert!(fv.iter().any(|(i, _)| i == hit));
        let s = uctr::Sample::verification(
            table()?,
            "There are 3 rows whose material is PLA.",
            Verdict::Refuted,
        );
        let fv = verifier_features(&s);
        // 3 == n_rows so count_match also fires; at minimum the vector is
        // non-empty and contains the count cue.
        assert!(!fv.is_empty());
        Ok(())
    }

    #[test]
    fn aggregate_signal() -> Result<(), Box<dyn std::error::Error>> {
        // avg price = 299
        let s =
            uctr::Sample::verification(table()?, "The average price is 299.", Verdict::Supported);
        let fv = verifier_features(&s);
        let hit = FeatureVec::hash_name("x:avg_hit");
        assert!(fv.iter().any(|(i, _)| i == hit));
        Ok(())
    }

    #[test]
    fn low_coverage_flags_unknown_style_claims() -> Result<(), Box<dyn std::error::Error>> {
        let s = uctr::Sample::verification(
            table()?,
            "The gross domestic product of Ruritania quadrupled in 1931.",
            Verdict::Unknown,
        );
        let fv = verifier_features(&s);
        let flag = FeatureVec::hash_name("sig:no_anchor");
        assert!(fv.iter().any(|(i, _)| i == flag));
        Ok(())
    }

    #[test]
    fn row_consistency_signal() -> Result<(), Box<dyn std::error::Error>> {
        let t = table()?;
        // Claimed value sits in P200's row.
        let s =
            uctr::Sample::verification(t.clone(), "P200 has a price of 299.", Verdict::Supported);
        let fv = verifier_features(&s);
        let hit = FeatureVec::hash_name("sig:row_value_hit");
        assert!(fv.iter().any(|(i, _)| i == hit));
        // Claimed value belongs to a different row.
        let s = uctr::Sample::verification(t, "P200 has a price of 199.", Verdict::Refuted);
        let fv = verifier_features(&s);
        let miss = FeatureVec::hash_name("sig:row_value_miss");
        assert!(fv.iter().any(|(i, _)| i == miss));
        Ok(())
    }

    #[test]
    fn threshold_count_signal() -> Result<(), Box<dyn std::error::Error>> {
        let t = table()?;
        // speeds: 60, 80, 95 -> exactly 2 are above 70.
        let s = uctr::Sample::verification(
            t,
            "There are 2 rows whose speed is more than 70.",
            Verdict::Supported,
        );
        let fv = verifier_features(&s);
        let hit = FeatureVec::hash_name("x:count_hit");
        assert!(fv.iter().any(|(i, _)| i == hit), "threshold count signal missing");
        Ok(())
    }

    #[test]
    fn multiword_value_count_signal() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings(
            "t",
            &[
                vec!["team", "pts"],
                vec!["Red Lions", "3"],
                vec!["Red Lions", "4"],
                vec!["Blue Sharks", "5"],
            ],
        )?;
        let s = uctr::Sample::verification(
            t,
            "There are 2 entries that list Red Lions as their team.",
            Verdict::Supported,
        );
        let fv = verifier_features(&s);
        let hit = FeatureVec::hash_name("x:count_hit");
        assert!(fv.iter().any(|(i, _)| i == hit), "multiword count signal missing");
        Ok(())
    }

    #[test]
    fn context_signals_for_text_samples() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = uctr::Sample::verification(
            Table::from_strings("t", &[vec![]])?,
            "P900 reports 44 as its speed.",
            Verdict::Supported,
        );
        s.context = vec!["P900 has a speed of 44 and a price of 120.".to_string()];
        let fv = verifier_features(&s);
        let hit = FeatureVec::hash_name("sig:ctx_num_hit");
        assert!(fv.iter().any(|(i, _)| i == hit));
        Ok(())
    }
}
