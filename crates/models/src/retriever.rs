//! The first-stage evidence retriever (paper §V-A).
//!
//! FEVEROUS's pipeline retrieves sentences and table cells before the
//! verdict predictor runs, and the FEVEROUS *score* counts a prediction as
//! correct only when the retrieved set covers the gold evidence. The paper
//! reuses the benchmark's trained retriever; the reproduction's stand-in
//! scores each cell by lexical affinity with the claim — its own value,
//! its row's entity, its column header, and exact numeric matches — and
//! returns the top-K cells.
//!
//! Gold evidence is recovered by *re-executing the sample's generating
//! program* and taking its highlighted cells; program-free samples fall
//! back to anchor cells (cells whose value the claim mentions).

use tabular::text::tokenize;
use tabular::{ExecContext, KernelScratch};
use uctr::Sample;

/// Default retrieval budget (cells per claim).
pub const DEFAULT_RETRIEVE_K: usize = 8;

/// A configurable lexical-affinity cell retriever.
#[derive(Debug, Clone, Copy)]
pub struct Retriever {
    /// How many cells to return.
    pub k: usize,
}

impl Default for Retriever {
    fn default() -> Self {
        Retriever { k: DEFAULT_RETRIEVE_K }
    }
}

impl Retriever {
    pub fn with_budget(k: usize) -> Retriever {
        Retriever { k }
    }

    /// Retrieves the top-K cells for a sample's claim.
    pub fn retrieve(&self, sample: &Sample) -> Vec<(usize, usize)> {
        let table = &sample.table;
        if table.n_cols() == 0 || table.n_rows() == 0 {
            return Vec::new();
        }
        let lower = sample.text.to_lowercase();
        let qtokens = tokenize(&sample.text);
        let ecol = textops::entity_column(table);
        let mut scored: Vec<(f64, (usize, usize))> = Vec::new();
        for ri in 0..table.n_rows() {
            let ent = table
                .cell(ri, ecol)
                .filter(|v| !v.is_null())
                .map(|v| v.to_string().to_lowercase())
                .unwrap_or_default();
            let row_mentioned = !ent.is_empty() && lower.contains(&ent);
            for ci in 0..table.n_cols() {
                let Some(v) = table.cell(ri, ci) else { continue };
                if v.is_null() {
                    continue;
                }
                let vs = v.to_string().to_lowercase();
                let mut score = 0.0;
                if vs.len() > 1 && lower.contains(&vs) {
                    score += 2.0;
                }
                if row_mentioned {
                    score += 1.0;
                }
                if let Some(h) = table.column_name(ci) {
                    let h = h.to_lowercase();
                    if !h.is_empty() && lower.contains(&h) {
                        score += 1.5;
                    }
                }
                if let Some(n) = v.as_number() {
                    if qtokens
                        .iter()
                        .any(|t| t.parse::<f64>().is_ok_and(|x| tabular::nearly_equal(x, n)))
                    {
                        score += 2.0;
                    }
                }
                if score > 0.0 {
                    scored.push((score, (ri, ci)));
                }
            }
        }
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        scored.into_iter().take(self.k).map(|(_, c)| c).collect()
    }

    /// Fraction of samples whose gold evidence is fully covered by the
    /// retrieved set (evidence recall, the retrieval half of the FEVEROUS
    /// score), as a percentage.
    pub fn evidence_recall(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let covered = samples
            .iter()
            .filter(|s| {
                let gold = gold_evidence_cells(s);
                let retrieved = self.retrieve(s);
                gold.iter().all(|c| retrieved.contains(c))
            })
            .count();
        100.0 * covered as f64 / samples.len() as f64
    }
}

/// The gold evidence of a sample: the table cells its generating program
/// highlighted (recomputed by re-executing the program), or — for samples
/// without a program — the cells whose value the claim mentions.
pub fn gold_evidence_cells(sample: &Sample) -> Vec<(usize, usize)> {
    let table = &sample.table;
    let mut kern = KernelScratch::default();
    match &sample.program {
        uctr::ProgramKind::Sql(q) => sqlexec::parse(q)
            .ok()
            .and_then(|stmt| sqlexec::execute(&stmt, table, &mut kern).ok())
            .map(|r| r.highlighted)
            .unwrap_or_default(),
        uctr::ProgramKind::Logic(f) => logicforms::parse(f)
            .ok()
            .and_then(|e| logicforms::evaluate(&e, &ExecContext::new(table), &mut kern).ok())
            .map(|o| o.highlighted)
            .unwrap_or_default(),
        uctr::ProgramKind::Arith(p) => arithexpr::parse(p)
            .ok()
            .and_then(|prog| arithexpr::execute(&prog, &ExecContext::new(table), &mut kern).ok())
            .map(|o| o.highlighted)
            .unwrap_or_default(),
        uctr::ProgramKind::None => {
            let lower = sample.text.to_lowercase();
            let mut cells = Vec::new();
            for ri in 0..sample.table.n_rows() {
                for ci in 0..sample.table.n_cols() {
                    if let Some(v) = sample.table.cell(ri, ci) {
                        if v.is_null() {
                            continue;
                        }
                        let vs = v.to_string().to_lowercase();
                        if vs.len() > 1 && lower.contains(&vs) {
                            cells.push((ri, ci));
                        }
                    }
                }
            }
            cells
        }
    }
}

/// Convenience wrapper with the default budget (kept for API stability).
pub fn retrieve_cells(sample: &Sample) -> Vec<(usize, usize)> {
    Retriever::default().retrieve(sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Table;
    use uctr::{ProgramKind, Verdict};

    fn sample() -> Result<Sample, tabular::TableError> {
        let t = Table::from_strings(
            "Printers",
            &[
                vec!["model", "speed", "price"],
                vec!["P100", "60", "199"],
                vec!["P300", "95", "399"],
            ],
        )?;
        let mut s = Sample::verification(t, "P300 has the highest speed.", Verdict::Supported);
        s.program =
            ProgramKind::Logic("eq { hop { argmax { all_rows ; speed } ; model } ; P300 }".into());
        Ok(s)
    }

    #[test]
    fn retrieval_budget_is_respected() -> Result<(), Box<dyn std::error::Error>> {
        let s = sample()?;
        for k in [1, 3, 8] {
            assert!(Retriever::with_budget(k).retrieve(&s).len() <= k);
        }
        Ok(())
    }

    #[test]
    fn mentioned_cell_ranks_first() -> Result<(), Box<dyn std::error::Error>> {
        let s = sample()?;
        let top = Retriever::with_budget(1).retrieve(&s);
        // "P300" itself is the strongest lexical match.
        assert_eq!(top, vec![(1, 0)]);
        Ok(())
    }

    #[test]
    fn recall_grows_with_budget() -> Result<(), Box<dyn std::error::Error>> {
        let samples = vec![sample()?];
        let low = Retriever::with_budget(1).evidence_recall(&samples);
        let high = Retriever::with_budget(8).evidence_recall(&samples);
        assert!(high >= low);
        assert_eq!(high, 100.0, "budget 8 must cover this 2x3 table's evidence");
        Ok(())
    }

    #[test]
    fn gold_evidence_reexecutes_program() -> Result<(), Box<dyn std::error::Error>> {
        let s = sample()?;
        let cells = gold_evidence_cells(&s);
        assert!(cells.contains(&(1, 0))); // P300's model cell
        assert!(cells.contains(&(0, 1))); // speed column scanned
        Ok(())
    }

    #[test]
    fn program_free_samples_use_anchor_cells() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = sample()?;
        s.program = ProgramKind::None;
        let cells = gold_evidence_cells(&s);
        assert!(cells.contains(&(1, 0)), "{cells:?}");
        Ok(())
    }

    #[test]
    fn empty_table_retrieves_nothing() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings("e", &[vec![]])?;
        let s = Sample::verification(t, "anything", Verdict::Unknown);
        assert!(Retriever::default().retrieve(&s).is_empty());
        Ok(())
    }
}
