//! # uctr — Unsupervised Complex Tabular Reasoning
//!
//! The paper's primary contribution: a unified framework that synthesizes
//! labeled tabular-reasoning data from **unlabeled tables** by sampling
//! program templates (SQL / logical forms / arithmetic expressions),
//! executing them with the Program-Executor, converting them to natural
//! language with the NL-Generator, and composing joint table-text samples
//! with the Table-To-Text / Text-To-Table operators (Li et al., ICDE 2023).
//!
//! ```
//! use tabular::Table;
//! use uctr::{TableWithContext, UctrConfig, UctrPipeline};
//!
//! let table = Table::from_strings("Teams", &[
//!     vec!["team", "city", "points", "wins"],
//!     vec!["Reds", "Oslo", "77", "21"],
//!     vec!["Blues", "Lima", "64", "18"],
//!     vec!["Greens", "Kyiv", "81", "24"],
//! ]).unwrap();
//! let pipeline = UctrPipeline::new(UctrConfig::verification());
//! let samples = pipeline.generate(&[TableWithContext::bare(table)]);
//! assert!(!samples.is_empty());
//! ```

pub mod analysis;
pub mod autogen;
pub mod mining;
pub mod mqaqg;
pub mod pipeline;
pub mod program;
pub mod sample;
pub mod serve;
pub mod telemetry;
pub mod templates;

pub use analysis::{
    analyze_text, AnalyzedTemplate, TemplateDiagnostic, TemplateDiagnostics, PARSE_ERROR,
};
pub use autogen::{extend_bank_auto, AutoGenerator, ProgramDistribution};
pub use mining::{mined_bank, MergeRecord, MineOutcome, Miner, MinerStats};
pub use mqaqg::{generate_mqaqg, MqaQgConfig};
pub use pipeline::{TableWithContext, TaskKind, UctrConfig, UctrPipeline};
pub use program::{execute_sql, sql_answer_kind, AnyTemplate, GenScratch, Program, ProgramOutput};
pub use sample::{AnswerKind, Dataset, EvidenceType, Label, ProgramKind, Sample, Verdict};
pub use serve::{
    Client, Daemon, GenRequest, GenResponse, RequestSpec, ServeConfig, ServeStats, SubmitError,
    WireTable,
};
pub use telemetry::{
    DiscardReport, KindReport, KindSlot, PipelineReport, SourceReport, TelemetryBank, TimingReport,
};
pub use templates::{
    AddOutcome, FeasibleSet, TemplateBank, BUILTIN_ARITH, BUILTIN_LOGIC, BUILTIN_SQL,
};
// Re-exported so analysis consumers (e.g. the xtask auditor) need only a
// `uctr` dependency.
pub use tabular::{SchemaRequirement, TemplateAnalysis, TemplateIssue};
