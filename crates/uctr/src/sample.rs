//! Reasoning-sample data model.
//!
//! A [`Sample`] is one training/evaluation instance of a tabular reasoning
//! task: evidence (table and/or context sentences), a natural-language
//! question or claim, and a gold label (an answer string or a verdict).
//! Both the synthetic data UCTR generates and the gold benchmark data from
//! the corpora crate use this type, so models train and evaluate on one
//! representation.
//!
//! This module owns the sample's JSON form in both of its shapes: the
//! self-contained one of [`Dataset`] files (the evidence table inline), and
//! the shared-table one a serving response uses (each evidence table once
//! per response, samples citing it by index).

use serde::{field, Deserialize, Error, Serialize, Value};
use std::fmt;
use tabular::SharedTable;

/// Fact-verification verdicts (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    Supported,
    Refuted,
    /// Not enough information (FEVEROUS "NEI" / SEM-TAB-FACTS "Unknown").
    Unknown,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Supported => "Supported",
            Verdict::Refuted => "Refuted",
            Verdict::Unknown => "Unknown",
        };
        f.write_str(s)
    }
}

/// Gold output of a sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Label {
    /// Fact verification.
    Verdict(Verdict),
    /// Question answering (normalized answer text).
    Answer(String),
}

impl Label {
    pub fn as_verdict(&self) -> Option<Verdict> {
        match self {
            Label::Verdict(v) => Some(*v),
            Label::Answer(_) => None,
        }
    }

    pub fn as_answer(&self) -> Option<&str> {
        match self {
            Label::Answer(a) => Some(a),
            Label::Verdict(_) => None,
        }
    }
}

/// Which evidence the sample's reasoning needs (paper Table III splits
/// TAT-QA results by this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvidenceType {
    TableOnly,
    TextOnly,
    TableText,
}

impl fmt::Display for EvidenceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EvidenceType::TableOnly => "Table",
            EvidenceType::TextOnly => "Text",
            EvidenceType::TableText => "Table-Text",
        };
        f.write_str(s)
    }
}

/// The program that generated a synthetic sample (kept for analysis and the
/// Table IX reproduction). Gold samples carry `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProgramKind {
    Sql(String),
    Logic(String),
    Arith(String),
    None,
}

/// TAT-QA-style answer kinds, used for per-type metric breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnswerKind {
    /// Span(s) copied from the evidence.
    Span,
    /// Counting questions.
    Count,
    /// Arithmetic computation.
    Arithmetic,
    /// Verdict tasks.
    NotApplicable,
}

/// One reasoning instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Table evidence (possibly a sub-table after splitting, held as the
    /// O(1) view [`SharedTable::without_row`]). Shared: cloning a sample
    /// (or fanning one table out over many samples) bumps a reference count
    /// instead of deep-copying the grid.
    pub table: SharedTable,
    /// Context sentences (surrounding text and/or generated sentences).
    pub context: Vec<String>,
    /// The question or claim.
    pub text: String,
    /// Gold label.
    pub label: Label,
    /// Evidence needed.
    pub evidence: EvidenceType,
    /// Originating program (synthetic samples only).
    pub program: ProgramKind,
    /// Answer kind for QA breakdowns.
    pub answer_kind: AnswerKind,
    /// Topic tag (used by the Figure 1 topic-shift experiment).
    pub topic: String,
}

impl Sample {
    /// A QA sample over a table only.
    pub fn qa(
        table: impl Into<SharedTable>,
        text: impl Into<String>,
        answer: impl Into<String>,
    ) -> Sample {
        Sample {
            table: table.into(),
            context: Vec::new(),
            text: text.into(),
            label: Label::Answer(answer.into()),
            evidence: EvidenceType::TableOnly,
            program: ProgramKind::None,
            answer_kind: AnswerKind::Span,
            topic: String::new(),
        }
    }

    /// A verification sample over a table only.
    pub fn verification(
        table: impl Into<SharedTable>,
        claim: impl Into<String>,
        verdict: Verdict,
    ) -> Sample {
        Sample {
            table: table.into(),
            context: Vec::new(),
            text: claim.into(),
            label: Label::Verdict(verdict),
            evidence: EvidenceType::TableOnly,
            program: ProgramKind::None,
            answer_kind: AnswerKind::NotApplicable,
            topic: String::new(),
        }
    }

    /// Full evidence text (context joined), for text-side feature
    /// extraction.
    pub fn context_text(&self) -> String {
        self.context.join(" ")
    }

    /// The sample's JSON object: `table`, the caller's rendering of the
    /// evidence, then every other field in declaration order. This is the
    /// one list of sample fields, shared by both JSON shapes.
    fn to_object(&self, mut table: Vec<(String, Value)>) -> Value {
        table.extend([
            ("context".to_string(), self.context.to_value()),
            ("text".to_string(), self.text.to_value()),
            ("label".to_string(), self.label.to_value()),
            ("evidence".to_string(), self.evidence.to_value()),
            ("program".to_string(), self.program.to_value()),
            ("answer_kind".to_string(), self.answer_kind.to_value()),
            ("topic".to_string(), self.topic.to_value()),
        ]);
        Value::Obj(table)
    }

    /// Inverse of [`Sample::to_object`]; `table` resolves the evidence
    /// from the object's fields.
    fn from_object(
        v: &Value,
        table: impl FnOnce(&[(String, Value)]) -> Result<SharedTable, Error>,
    ) -> Result<Sample, Error> {
        let o = v.as_obj().ok_or_else(|| Error::expected("object", v))?;
        Ok(Sample {
            table: table(o)?,
            context: field(o, "context")?,
            text: field(o, "text")?,
            label: field(o, "label")?,
            evidence: field(o, "evidence")?,
            program: field(o, "program")?,
            answer_kind: field(o, "answer_kind")?,
            topic: field(o, "topic")?,
        })
    }
}

/// The self-contained form: the evidence table inline, a split view as the
/// sub-table it derefs to.
impl Serialize for Sample {
    fn to_value(&self) -> Value {
        self.to_object(vec![("table".to_string(), self.table.to_value())])
    }
}

impl Deserialize for Sample {
    fn from_value(v: &Value) -> Result<Sample, Error> {
        Sample::from_object(v, |o| field(o, "table"))
    }
}

/// Encodes samples in the shared-table form of a serving response. Returns
/// `(tables, samples)`: `tables` lists every distinct evidence base once,
/// de-duplicated by handle in order of first use, and each sample object
/// carries `table` (an index into `tables`) plus, for split evidence,
/// `omitted_row` (the row of that base its view drops). No view is
/// materialized.
pub(crate) fn samples_to_wire(samples: &[Sample]) -> (Value, Value) {
    let mut bases: Vec<&SharedTable> = Vec::new();
    let encoded = samples
        .iter()
        .map(|s| {
            let base = s.table.base();
            // Samples of one input are adjacent, so search from the end.
            let index =
                bases.iter().rposition(|b| SharedTable::ptr_eq(b, base)).unwrap_or_else(|| {
                    bases.push(base);
                    bases.len() - 1
                });
            let mut table = vec![("table".to_string(), index.to_value())];
            if let Some(row) = s.table.omitted_row() {
                table.push(("omitted_row".to_string(), row.to_value()));
            }
            s.to_object(table)
        })
        .collect();
    (bases.to_value(), Value::Arr(encoded))
}

/// Decodes [`samples_to_wire`]'s output. A table index past `tables`, or an
/// omitted row past its base, is an error. Every view of one base shares
/// the one decoded table.
pub(crate) fn samples_from_wire(tables: &Value, samples: &Value) -> Result<Vec<Sample>, Error> {
    let tables: Vec<SharedTable> =
        Deserialize::from_value(tables).map_err(|e| Error::custom(format!("tables: {e}")))?;
    let samples = samples.as_arr().ok_or_else(|| Error::expected("array", samples))?;
    let evidence = |o: &[(String, Value)]| -> Result<SharedTable, Error> {
        let index: usize = field(o, "table")?;
        let base = tables.get(index).ok_or_else(|| {
            Error::custom(format!("table index {index} past the {} tables", tables.len()))
        })?;
        match field::<Option<usize>>(o, "omitted_row")? {
            None => Ok(base.clone()),
            Some(row) if row < base.n_rows() => Ok(base.without_row(row)),
            Some(row) => Err(Error::custom(format!(
                "omitted row {row} past the {} rows of table {index}",
                base.n_rows()
            ))),
        }
    };
    samples
        .iter()
        .enumerate()
        .map(|(i, v)| {
            Sample::from_object(v, evidence).map_err(|e| Error::custom(format!("sample {i}: {e}")))
        })
        .collect()
}

/// A named collection of samples with train/dev/test splits.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    pub name: String,
    pub train: Vec<Sample>,
    pub dev: Vec<Sample>,
    pub test: Vec<Sample>,
}

impl Dataset {
    pub fn new(name: impl Into<String>) -> Dataset {
        Dataset { name: name.into(), ..Default::default() }
    }

    pub fn len(&self) -> usize {
        self.train.len() + self.dev.len() + self.test.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the dataset to pretty JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Deserializes a dataset from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<Dataset> {
        serde_json::from_str(json)
    }

    /// Writes the dataset to a JSON file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = self.to_json().map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a dataset from a JSON file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Dataset> {
        let json = std::fs::read_to_string(path)?;
        Dataset::from_json(&json).map_err(std::io::Error::other)
    }

    /// Counts samples per evidence type across all splits.
    pub fn evidence_counts(&self) -> [(EvidenceType, usize); 3] {
        let mut table_only = 0;
        let mut text_only = 0;
        let mut both = 0;
        for s in self.train.iter().chain(&self.dev).chain(&self.test) {
            match s.evidence {
                EvidenceType::TableOnly => table_only += 1,
                EvidenceType::TextOnly => text_only += 1,
                EvidenceType::TableText => both += 1,
            }
        }
        [
            (EvidenceType::TableOnly, table_only),
            (EvidenceType::TextOnly, text_only),
            (EvidenceType::TableText, both),
        ]
    }

    /// Counts verdicts across all splits (verification datasets).
    pub fn verdict_counts(&self) -> [(Verdict, usize); 3] {
        let mut sup = 0;
        let mut refuted = 0;
        let mut unk = 0;
        for s in self.train.iter().chain(&self.dev).chain(&self.test) {
            match s.label.as_verdict() {
                Some(Verdict::Supported) => sup += 1,
                Some(Verdict::Refuted) => refuted += 1,
                Some(Verdict::Unknown) => unk += 1,
                None => {}
            }
        }
        [(Verdict::Supported, sup), (Verdict::Refuted, refuted), (Verdict::Unknown, unk)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Table;

    fn t() -> Table {
        Table::from_strings("t", &[vec!["a", "b"], vec!["x", "1"]])
            .unwrap_or_else(|e| panic!("test table: {e:?}"))
    }

    #[test]
    fn constructors() {
        let qa = Sample::qa(t(), "what is b when a is x?", "1");
        assert_eq!(qa.label.as_answer(), Some("1"));
        assert_eq!(qa.evidence, EvidenceType::TableOnly);
        let ver = Sample::verification(t(), "a is x.", Verdict::Supported);
        assert_eq!(ver.label.as_verdict(), Some(Verdict::Supported));
    }

    #[test]
    fn dataset_counts() {
        let mut d = Dataset::new("toy");
        d.train.push(Sample::verification(t(), "c1", Verdict::Supported));
        d.train.push(Sample::verification(t(), "c2", Verdict::Refuted));
        let mut s = Sample::verification(t(), "c3", Verdict::Supported);
        s.evidence = EvidenceType::TableText;
        d.dev.push(s);
        assert_eq!(d.len(), 3);
        let v = d.verdict_counts();
        assert_eq!(v[0].1, 2);
        assert_eq!(v[1].1, 1);
        let e = d.evidence_counts();
        assert_eq!(e[0].1, 2);
        assert_eq!(e[2].1, 1);
    }

    #[test]
    fn serde_roundtrip() {
        let s = Sample::qa(t(), "q?", "a");
        let json = serde_json::to_string(&s).unwrap_or_else(|e| panic!("serialize: {e}"));
        let back: Sample =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("deserialize: {e}"));
        assert_eq!(back.text, "q?");
        assert_eq!(back.label, Label::Answer("a".into()));
    }

    #[test]
    fn dataset_json_roundtrip() {
        let mut d = Dataset::new("toy");
        d.train.push(Sample::qa(t(), "q1?", "1"));
        d.dev.push(Sample::verification(t(), "c1.", Verdict::Refuted));
        let json = d.to_json().unwrap_or_else(|e| panic!("to_json: {e}"));
        let back = Dataset::from_json(&json).unwrap_or_else(|e| panic!("from_json: {e}"));
        assert_eq!(back.name, "toy");
        assert_eq!(back.train.len(), 1);
        assert_eq!(back.dev[0].label.as_verdict(), Some(Verdict::Refuted));
    }

    /// The derived form `Sample` had before its serde impls were written
    /// by hand, field for field, with the evidence as a whole table.
    #[derive(Serialize)]
    struct Derived {
        table: SharedTable,
        context: Vec<String>,
        text: String,
        label: Label,
        evidence: EvidenceType,
        program: ProgramKind,
        answer_kind: AnswerKind,
        topic: String,
    }

    #[test]
    fn json_matches_the_derived_form_for_whole_and_split_evidence() {
        let table = SharedTable::new(
            Table::from_strings("t", &[vec!["a", "b"], vec!["x", "1"], vec!["y", "2"]])
                .unwrap_or_else(|e| panic!("test table: {e:?}")),
        );
        for evidence in [table.clone(), table.without_row(0), table.without_row(1)] {
            let mut s = Sample::qa(evidence.clone(), "q?", "2");
            s.context = vec!["x has a b of 1.".into()];
            s.evidence = EvidenceType::TableText;
            s.program = ProgramKind::Sql("select c2 from w".into());
            s.topic = "toy".into();
            let derived = Derived {
                table: SharedTable::new(evidence.as_table().clone()),
                context: s.context.clone(),
                text: s.text.clone(),
                label: s.label.clone(),
                evidence: s.evidence,
                program: s.program.clone(),
                answer_kind: s.answer_kind,
                topic: s.topic.clone(),
            };
            let json = serde_json::to_string(&s).unwrap_or_else(|e| panic!("serialize: {e}"));
            let expected =
                serde_json::to_string(&derived).unwrap_or_else(|e| panic!("serialize: {e}"));
            assert_eq!(json, expected);
            let mut d = Dataset::new("split");
            d.train.push(s.clone());
            let back = Dataset::from_json(&d.to_json().unwrap_or_else(|e| panic!("to_json: {e}")))
                .unwrap_or_else(|e| panic!("from_json: {e}"));
            assert_eq!(back.train, vec![s]);
        }
    }

    #[test]
    fn dataset_file_roundtrip() {
        let mut d = Dataset::new("disk");
        d.test.push(Sample::qa(t(), "q?", "a"));
        let path = std::env::temp_dir().join("uctr_dataset_roundtrip_test.json");
        d.save(&path).unwrap_or_else(|e| panic!("save: {e}"));
        let back = Dataset::load(&path).unwrap_or_else(|e| panic!("load: {e}"));
        assert_eq!(back.test.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn context_text_joins() {
        let mut s = Sample::qa(t(), "q?", "a");
        s.context = vec!["First.".into(), "Second.".into()];
        assert_eq!(s.context_text(), "First. Second.");
    }
}
