//! The UCTR data-generation pipeline (paper §III and Algorithm 1).
//!
//! Orchestrates the four basic components — Program-Executor, NL-Generator,
//! Table-To-Text, Text-To-Table — over a collection of unlabeled tables
//! (with optional surrounding text) and produces labeled [`Sample`]s:
//!
//! * **table-only** samples: instantiate a program on the table, execute,
//!   verbalize (the homogeneous setting);
//! * **table splitting** (§III-A): execute on the full table, move one
//!   highlighted row into a generated sentence, keep the rest as the
//!   sub-table — a joint table-text sample;
//! * **table expansion** (§III-B): integrate a record from the surrounding
//!   paragraph into the table, generate against the expanded table, and
//!   emit the original table + paragraph as the evidence;
//! * **text-only** samples: a row verbalized to a sentence with a lookup
//!   question about it (the A2 ablation source).
//!
//! Every config flag corresponds to a row of the paper's ablation grid
//! (Table VIII).

use crate::program::{GenScratch, ProgramOutput};
use crate::sample::{AnswerKind, EvidenceType, Label, ProgramKind, Sample, Verdict};
use crate::telemetry::{Discard, KindSlot, PipelineReport, Source, Stage, TelemetryBank, Timer};
use crate::templates::{FeasibleSet, TemplateBank};
use nlgen::{NlGenerator, NoiseConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use tabular::{ExecContext, SharedTable, Table};
use textops::{table_to_text_with, text_to_table};

/// Which task the generated data trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    QuestionAnswering,
    FactVerification,
}

/// Pipeline configuration; every flag maps to an ablation row (Table VIII).
#[derive(Debug, Clone)]
pub struct UctrConfig {
    pub task: TaskKind,
    /// Program types (columns of the ablation grid).
    pub use_sql: bool,
    pub use_logic: bool,
    pub use_arith: bool,
    /// Data sources (rows of the ablation grid).
    pub table_only: bool,
    pub text_only: bool,
    /// Table-To-Text / Text-To-Table joint samples ("Table↔Text").
    pub table_split: bool,
    pub table_expand: bool,
    /// How many programs to attempt per table per enabled source.
    pub samples_per_table: usize,
    /// Generation-noise configuration.
    pub noise: NoiseConfig,
    /// Fraction of verification samples turned into `Unknown` by pairing a
    /// claim with evidence that cannot decide it.
    pub unknown_rate: f64,
    pub seed: u64,
}

impl UctrConfig {
    /// Standard QA configuration (SQL + arithmetic, all sources).
    pub fn qa() -> UctrConfig {
        UctrConfig {
            task: TaskKind::QuestionAnswering,
            use_sql: true,
            use_logic: false,
            use_arith: true,
            table_only: true,
            text_only: true,
            table_split: true,
            table_expand: true,
            samples_per_table: 8,
            noise: NoiseConfig::default(),
            unknown_rate: 0.0,
            seed: 13,
        }
    }

    /// Standard fact-verification configuration (logical forms).
    pub fn verification() -> UctrConfig {
        UctrConfig {
            task: TaskKind::FactVerification,
            use_sql: false,
            use_logic: true,
            use_arith: false,
            table_only: true,
            text_only: true,
            table_split: true,
            table_expand: true,
            samples_per_table: 8,
            noise: NoiseConfig::default(),
            unknown_rate: 0.0,
            seed: 13,
        }
    }

    /// The `-w/o T2T` ablation: no Table-To-Text / Text-To-Table operators.
    pub fn without_t2t(mut self) -> UctrConfig {
        self.table_split = false;
        self.table_expand = false;
        self
    }
}

/// One unlabeled input: a table with optional surrounding text and a topic
/// tag (used for the Figure 1 topic-shift experiment).
#[derive(Debug, Clone)]
pub struct TableWithContext {
    /// The input table, behind a shared handle so every accepted sample
    /// over it clones a reference count instead of the grid.
    pub table: SharedTable,
    pub paragraph: Option<String>,
    pub topic: String,
}

impl TableWithContext {
    pub fn bare(table: impl Into<SharedTable>) -> TableWithContext {
        TableWithContext { table: table.into(), paragraph: None, topic: String::new() }
    }
}

/// The unified UCTR pipeline.
pub struct UctrPipeline {
    config: UctrConfig,
    bank: TemplateBank,
    generator: NlGenerator,
}

impl UctrPipeline {
    /// Builds a pipeline with the built-in template bank and a default
    /// generator configured by `config.noise`.
    pub fn new(config: UctrConfig) -> UctrPipeline {
        let generator = NlGenerator::new().with_noise(config.noise);
        UctrPipeline { config, bank: TemplateBank::builtin(), generator }
    }

    /// Replaces the template bank (e.g. with mined templates).
    pub fn with_bank(mut self, bank: TemplateBank) -> UctrPipeline {
        self.bank = bank;
        self
    }

    /// Replaces the NL generator (e.g. a domain-fit one).
    pub fn with_generator(mut self, generator: NlGenerator) -> UctrPipeline {
        self.generator = generator;
        self
    }

    pub fn config(&self) -> &UctrConfig {
        &self.config
    }

    /// Runs Algorithm 1 over the inputs and returns the synthetic samples.
    pub fn generate(&self, inputs: &[TableWithContext]) -> Vec<Sample> {
        self.generate_with_report(inputs).0
    }

    /// Like [`UctrPipeline::generate`], but also returns the run's
    /// [`PipelineReport`] — the per-kind / per-source generation funnel and
    /// wall-clock histograms gathered from lock-free counters.
    pub fn generate_with_report(
        &self,
        inputs: &[TableWithContext],
    ) -> (Vec<Sample>, PipelineReport) {
        let tel = TelemetryBank::new();
        let mut out: Vec<Sample> = Vec::new();
        let mut scratch = GenScratch::default();
        self.generate_request(&self.config, inputs, &mut out, &tel, &mut scratch);
        let report = tel.report(1);
        (out, report)
    }

    /// Serving entry point ([`crate::serve`]): runs the full generation
    /// loop — including finalization — under a caller-supplied config (the
    /// per-request override of seed / task / samples-per-table), appending
    /// accepted samples to `out`, recording telemetry into `tel`, and
    /// reusing the caller's warm `scratch` buffers.
    ///
    /// The sample bytes are a pure function of `(cfg, inputs)`: every input
    /// seeds its own RNG stream from `(cfg.seed, input index)` exactly like
    /// the batch paths, and finalization reseeds from `cfg.seed` over the
    /// samples this call appended — never over pre-existing `out` content.
    /// Nothing depends on the calling thread or on co-running requests,
    /// which is what makes daemon responses byte-identical regardless of
    /// worker interleaving.
    pub fn generate_request(
        &self,
        cfg: &UctrConfig,
        inputs: &[TableWithContext],
        out: &mut Vec<Sample>,
        tel: &TelemetryBank,
        scratch: &mut GenScratch,
    ) {
        let base = out.len();
        for (index, input) in inputs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(input_seed(cfg.seed, index as u64));
            self.generate_for(cfg, input, &mut rng, out, tel, scratch);
        }
        self.finalize(cfg, &mut out[base..], tel);
    }

    /// Parallel variant of [`UctrPipeline::generate`]: workers pull inputs
    /// off a shared work queue and the claimed ranges are concatenated in
    /// input order. Every input owns an RNG stream derived from
    /// `(config.seed, input index)`, so the output — and the telemetry
    /// counters — are identical for a fixed seed *regardless of thread
    /// count*. Useful when synthesizing tens of thousands of samples (the
    /// paper generates up to ~80k for FEVEROUS).
    pub fn generate_parallel(&self, inputs: &[TableWithContext], threads: usize) -> Vec<Sample> {
        self.generate_parallel_with_report(inputs, threads).0
    }

    /// Like [`UctrPipeline::generate_parallel`], but also returns the run's
    /// [`PipelineReport`].
    ///
    /// Scheduling is a chunked-claim work queue rather than static
    /// sharding: each worker repeatedly `fetch_add`s a shared atomic
    /// cursor to claim the next contiguous range of inputs, so a worker
    /// that lands on a heavy table (a ragged zoo's 200-row outlier) never
    /// strands the untouched remainder of a pre-assigned shard — the other
    /// workers keep draining the queue. Determinism survives because
    /// content and order are decoupled from scheduling: sample bytes
    /// depend only on the per-input seed (global index), and each claim
    /// remembers its start index so ranges re-sort into input order after
    /// the join.
    ///
    /// Each worker fills a private [`TelemetryBank`] (no shared cache
    /// lines on the hot path); banks are merged after the workers are
    /// joined.
    pub fn generate_parallel_with_report(
        &self,
        inputs: &[TableWithContext],
        threads: usize,
    ) -> (Vec<Sample>, PipelineReport) {
        let threads = threads.clamp(1, inputs.len().max(1));
        if threads == 1 {
            return self.generate_with_report(inputs);
        }
        // ~8 claims per worker: granular enough to rebalance ragged
        // workloads, coarse enough that the cursor is touched per range,
        // not per input.
        let claim = (inputs.len() / (threads * 8)).max(1);
        let cursor = AtomicUsize::new(0);
        let tel = TelemetryBank::new();
        let mut ranges: Vec<(usize, Vec<Sample>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let worker_tel = TelemetryBank::new();
                        let mut scratch = GenScratch::default();
                        let mut claimed: Vec<(usize, Vec<Sample>)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(claim, Ordering::Relaxed);
                            if start >= inputs.len() {
                                break;
                            }
                            let end = (start + claim).min(inputs.len());
                            let mut out = Vec::new();
                            for (offset, input) in inputs[start..end].iter().enumerate() {
                                let mut rng = StdRng::seed_from_u64(input_seed(
                                    self.config.seed,
                                    (start + offset) as u64,
                                ));
                                self.generate_for(
                                    &self.config,
                                    input,
                                    &mut rng,
                                    &mut out,
                                    &worker_tel,
                                    &mut scratch,
                                );
                            }
                            claimed.push((start, out));
                        }
                        (claimed, worker_tel)
                    })
                })
                .collect();
            let mut ranges = Vec::new();
            for h in handles {
                #[expect(
                    clippy::expect_used,
                    reason = "A panicked generation worker has already torn down its shard; \
                              propagating the panic to the caller is the only sound recovery, and \
                              expect names the invariant in the abort message."
                )]
                let (claimed, worker_tel) = h.join().expect("generation worker panicked");
                tel.merge(&worker_tel);
                ranges.extend(claimed);
            }
            ranges
        });
        // Claimed ranges are disjoint and cover 0..len, so sorting by start
        // and flattening restores exact input order.
        ranges.sort_by_key(|(start, _)| *start);
        let mut out: Vec<Sample> = ranges.into_iter().flat_map(|(_, v)| v).collect();
        self.finalize(&self.config, &mut out, &tel);
        (out, tel.report(threads))
    }

    /// Post-generation passes over the merged sample list. Runs on the
    /// final, input-ordered output with a fresh seed so its effect is
    /// independent of how generation was sharded.
    fn finalize(&self, cfg: &UctrConfig, out: &mut [Sample], tel: &TelemetryBank) {
        // Unknown verdicts: pair a fraction of claims with evidence from a
        // different table so the claim becomes undecidable.
        if cfg.task == TaskKind::FactVerification && cfg.unknown_rate > 0.0 {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            self.inject_unknowns(cfg, out, &mut rng, tel);
        }
    }

    fn generate_for(
        &self,
        cfg: &UctrConfig,
        input: &TableWithContext,
        rng: &mut StdRng,
        out: &mut Vec<Sample>,
        tel: &TelemetryBank,
        scratch: &mut GenScratch,
    ) {
        let table = &input.table;
        let degenerate = table.n_rows() == 0 || table.n_cols() == 0;
        tel.input(degenerate);
        if degenerate {
            return;
        }
        // One execution context per input table, shared by all
        // `samples_per_table` program runs against it — and one feasible
        // template set derived from it: the schema index is consulted once
        // per context, so each of the attempts below is a straight uniform
        // draw over the feasible stratum (no per-pair requirement check).
        let ctx = ExecContext::new(table);
        let feasible = self.bank.feasible_set(&ctx);
        let n = cfg.samples_per_table;
        let push = |source: Source, s: Sample, out: &mut Vec<Sample>| {
            tel.source_accept(source);
            tel.stage(KindSlot::of(&s.program), Stage::Accepted);
            out.push(with_topic(s, input));
        };

        if cfg.table_only {
            for _ in 0..n {
                tel.source_attempt(Source::TableOnly);
                if let Some(s) =
                    self.table_only_sample(cfg, table, &ctx, &feasible, rng, tel, scratch)
                {
                    push(Source::TableOnly, s, out);
                }
            }
        }
        if cfg.text_only {
            // The (empty) evidence table of a text-only sample depends only
            // on the input's title: build it once per input and share the
            // handle across every accepted sample.
            let empty = Table::from_strings(&table.title, &[vec![]]).ok().map(SharedTable::new);
            for _ in 0..n.div_ceil(2) {
                tel.source_attempt(Source::TextOnly);
                if let Some(s) = self.text_only_sample(cfg, &ctx, empty.as_ref(), rng, tel, scratch)
                {
                    push(Source::TextOnly, s, out);
                }
            }
        }
        if cfg.table_split {
            for _ in 0..n {
                tel.source_attempt(Source::TableSplit);
                if let Some(s) = self.split_sample(cfg, table, &ctx, &feasible, rng, tel, scratch) {
                    push(Source::TableSplit, s, out);
                }
            }
        }
        if cfg.table_expand {
            if let Some(paragraph) = &input.paragraph {
                // The paragraph integration is deterministic (no RNG), so
                // hoist it — and the expanded table's execution context and
                // feasible template set — out of the attempt loop.
                let expanded = text_to_table(table, paragraph);
                let expanded_ctx = expanded.as_ref().map(|e| ExecContext::new(&e.expanded));
                let expanded_feasible = expanded_ctx.as_ref().map(|e| self.bank.feasible_set(e));
                // The evidence context (the paragraph split into sentences)
                // is likewise deterministic per input: split once, clone per
                // accepted sample.
                let context = tabular::text::split_sentences(paragraph);
                for _ in 0..n {
                    tel.source_attempt(Source::TableExpand);
                    let (Some(ectx), Some(efs)) = (&expanded_ctx, &expanded_feasible) else {
                        continue;
                    };
                    if let Some(s) =
                        self.expand_sample(cfg, table, &context, ectx, efs, rng, tel, scratch)
                    {
                        push(Source::TableExpand, s, out);
                    }
                }
            }
        }
    }

    /// A program executed directly on the table (homogeneous setting).
    #[expect(
        clippy::too_many_arguments,
        reason = "The sample keeps the shared table handle, which the context's borrow cannot give."
    )]
    fn table_only_sample(
        &self,
        cfg: &UctrConfig,
        table: &SharedTable,
        ctx: &ExecContext,
        feasible: &FeasibleSet<'_>,
        rng: &mut StdRng,
        tel: &TelemetryBank,
        scratch: &mut GenScratch,
    ) -> Option<Sample> {
        let (text, ProgramOutput { label, program, answer_kind, .. }) =
            self.run_program(cfg, ctx, feasible, rng, tel, scratch)?;
        Some(Sample {
            table: table.clone(),
            context: Vec::new(),
            text,
            label,
            evidence: EvidenceType::TableOnly,
            program,
            answer_kind,
            topic: String::new(),
        })
    }

    /// Table splitting (§III-A): program on the full table, one highlighted
    /// row verbalized into a sentence, evidence = sub-table + sentence. The
    /// sub-table is the O(1) view `table.without_row(row)`, never a copy.
    #[expect(
        clippy::too_many_arguments,
        reason = "The sub-table view needs the shared table handle, which the context's borrow \
                  cannot give."
    )]
    fn split_sample(
        &self,
        cfg: &UctrConfig,
        table: &SharedTable,
        ctx: &ExecContext,
        feasible: &FeasibleSet<'_>,
        rng: &mut StdRng,
        tel: &TelemetryBank,
        scratch: &mut GenScratch,
    ) -> Option<Sample> {
        if table.n_rows() < 3 {
            return None;
        }
        let (text, ProgramOutput { label, program, answer_kind, highlighted }) =
            self.run_program(cfg, ctx, feasible, rng, tel, scratch)?;
        let kind = KindSlot::of(&program);
        // Pick a highlighted row to move into text.
        let rows = &mut scratch.rows;
        rows.clear();
        rows.extend(highlighted.iter().map(|&(r, _)| r));
        rows.sort_unstable();
        rows.dedup();
        let Some(&row) = rows.choose(rng) else {
            tel.discard(kind, Discard::PostFilter);
            return None;
        };
        let Some(split) = table_to_text_with(table, row, rng, &mut scratch.text) else {
            tel.discard(kind, Discard::PostFilter);
            return None;
        };
        Some(Sample {
            table: table.without_row(row),
            context: vec![split.sentence],
            text,
            label,
            evidence: EvidenceType::TableText,
            program,
            answer_kind,
            topic: String::new(),
        })
    }

    /// Table expansion (§III-B): integrate a record from the paragraph,
    /// generate on the expanded table, evidence = original table + text.
    /// The caller performs (and caches) the paragraph integration, its
    /// context `ectx` and the sentence-split evidence context, since all
    /// are deterministic per input.
    #[expect(
        clippy::too_many_arguments,
        reason = "The evidence is the original table and its paragraph, beside the expanded \
                  table's context and feasible set."
    )]
    fn expand_sample(
        &self,
        cfg: &UctrConfig,
        table: &SharedTable,
        context: &[String],
        ectx: &ExecContext,
        efs: &FeasibleSet<'_>,
        rng: &mut StdRng,
        tel: &TelemetryBank,
        scratch: &mut GenScratch,
    ) -> Option<Sample> {
        let (text, ProgramOutput { label, program, answer_kind, highlighted }) =
            self.run_program(cfg, ectx, efs, rng, tel, scratch)?;
        // Only keep samples whose reasoning actually touches the new row —
        // otherwise the paragraph is decoration, not evidence.
        let new_row = ectx.n_rows() - 1;
        if !highlighted.iter().any(|&(r, _)| r == new_row) {
            tel.discard(KindSlot::of(&program), Discard::PostFilter);
            return None;
        }
        Some(Sample {
            table: table.clone(),
            context: context.to_vec(),
            text,
            label,
            evidence: EvidenceType::TableText,
            program,
            answer_kind,
            topic: String::new(),
        })
    }

    /// Text-only sample: a verbalized row with a lookup question (QA) or a
    /// claim about it (verification).
    fn text_only_sample(
        &self,
        cfg: &UctrConfig,
        ctx: &ExecContext,
        empty: Option<&SharedTable>,
        rng: &mut StdRng,
        tel: &TelemetryBank,
        scratch: &mut GenScratch,
    ) -> Option<Sample> {
        tel.stage(KindSlot::None, Stage::Attempted);
        let sample = self.text_only_inner(cfg, ctx, empty, rng, scratch);
        if sample.is_none() {
            tel.discard(KindSlot::None, Discard::PostFilter);
        }
        sample
    }

    fn text_only_inner(
        &self,
        cfg: &UctrConfig,
        ctx: &ExecContext,
        empty: Option<&SharedTable>,
        rng: &mut StdRng,
        scratch: &mut GenScratch,
    ) -> Option<Sample> {
        let GenScratch { cols, buf, text, .. } = scratch;
        let table = ctx.table();
        let row = rng.gen_range(0..table.n_rows());
        let mut sentence = String::new();
        if !textops::describe_row_with(table, row, rng, text, &mut sentence) {
            return None;
        }
        let ecol = textops::entity_column(table);
        let entity = table.cell(row, ecol).filter(|v| !v.is_null())?.to_string();
        // Pick a non-entity, non-null cell to ask about.
        cols.clear();
        cols.extend(
            (0..table.n_cols())
                .filter(|&c| c != ecol && table.cell(row, c).is_some_and(|v| !v.is_null())),
        );
        let &col = cols.choose(rng)?;
        let col_name = table.column_name(col)?.to_string();
        let value = table.cell(row, col)?.to_string();
        let empty_table = empty?;
        match cfg.task {
            TaskKind::QuestionAnswering => Some(Sample {
                table: empty_table.clone(),
                context: vec![sentence],
                text: format!("What is the {col_name} of {entity}?"),
                label: Label::Answer(value),
                evidence: EvidenceType::TextOnly,
                program: ProgramKind::None,
                answer_kind: AnswerKind::Span,
                topic: String::new(),
            }),
            TaskKind::FactVerification => {
                let supported = rng.gen_bool(0.5);
                let (claim_value, verdict) = if supported {
                    (value, Verdict::Supported)
                } else {
                    // A different value from the same column. The context's
                    // non-null pool is the column scan minus nulls in row
                    // order, so the filtered index buffer has the same
                    // length as the old rendered `Vec<String>` — `choose`
                    // consumes the identical draw.
                    use std::fmt::Write as _;
                    let pool = ctx.non_null_values(col);
                    cols.clear();
                    for (i, v) in pool.iter().enumerate() {
                        buf.clear();
                        let _ = write!(buf, "{v}");
                        if *buf != value {
                            cols.push(i);
                        }
                    }
                    match cols.choose(rng) {
                        Some(&i) => (pool[i].to_string(), Verdict::Refuted),
                        None => return None,
                    }
                };
                Some(Sample {
                    table: empty_table.clone(),
                    context: vec![sentence],
                    text: format!("The {col_name} of {entity} is {claim_value}."),
                    label: Label::Verdict(verdict),
                    evidence: EvidenceType::TextOnly,
                    program: ProgramKind::None,
                    answer_kind: AnswerKind::NotApplicable,
                    topic: String::new(),
                })
            }
        }
    }

    /// Samples a program kind per the config and drives one template
    /// through the generic funnel: Attempted → instantiate → Instantiated →
    /// execute → Executed → verbalize. Every kind-specific behavior lives
    /// in [`crate::program::AnyTemplate`] and [`crate::program::Program`];
    /// this is the only place the telemetry funnel is driven. Returns the
    /// verbalized text and the program's output.
    fn run_program(
        &self,
        cfg: &UctrConfig,
        ctx: &ExecContext,
        feasible: &FeasibleSet<'_>,
        rng: &mut StdRng,
        tel: &TelemetryBank,
        scratch: &mut GenScratch,
    ) -> Option<(String, ProgramOutput)> {
        let kind = match cfg.task {
            TaskKind::FactVerification => KindSlot::Logic,
            TaskKind::QuestionAnswering => {
                // Enabled kinds on the stack — the draw order (sql, arith,
                // logic) and the single `choose` call are part of the
                // fixed-seed determinism contract. The feasible-set draw
                // below must consume exactly one draw when feasible
                // templates exist and none otherwise.
                let mut kinds = [KindSlot::Sql; 3];
                let mut n = 0;
                for (flag, slot) in [
                    (cfg.use_sql, KindSlot::Sql),
                    (cfg.use_arith, KindSlot::Arith),
                    (cfg.use_logic, KindSlot::Logic),
                ] {
                    if flag {
                        kinds[n] = slot;
                        n += 1;
                    }
                }
                *kinds[..n].choose(rng)?
            }
        };
        tel.stage(kind, Stage::Attempted);
        // Schema-indexed template selection: the caller computed the
        // context's feasible set once (one `satisfied_by` per distinct
        // requirement lattice point), so selection is a single uniform
        // draw over the feasible stratum — the per-pair requirement check
        // that used to sit here is gone. Soundness (pinned by the property
        // tests): a requirement only rejects tables on which
        // `try_instantiate` fails under *every* RNG stream, so no
        // reachable sample is ever lost. Draw-order contract: on a table
        // satisfying every lattice point the feasible stratum IS the full
        // stratum in insertion order, so the draw is stream-identical to
        // the pre-index bank draw — the byte-identical golden outputs rely
        // on the golden tables satisfying every builtin requirement
        // (asserted in tests/golden_pipeline.rs).
        let Some(tpl) = feasible.choose(kind, rng) else {
            if self.bank.stratum_len(kind) == 0 {
                tel.discard(kind, Discard::NoTemplate);
            } else {
                // A non-empty stratum with an empty feasible set: every
                // template of this kind is statically infeasible on this
                // table. The funnel keeps counting these as prefiltered
                // skips (zero draws consumed).
                tel.prefilter(kind);
            }
            return None;
        };
        let mut inst =
            match tel.timed(Timer::Instantiate, || tpl.try_instantiate(ctx, rng, scratch)) {
                Ok(inst) => inst,
                Err(reason) => {
                    tel.discard(kind, reason);
                    return None;
                }
            };
        tel.stage(kind, Stage::Instantiated);
        if inst.pre_executed() {
            tel.stage(kind, Stage::Executed);
        } else {
            match tel.timed(Timer::Execute, || inst.execute(ctx, scratch)) {
                Ok(()) => tel.stage(kind, Stage::Executed),
                Err(reason) => {
                    tel.discard(kind, reason);
                    return None;
                }
            }
        }
        let text = tel.timed(Timer::NlGen, || inst.verbalize(&self.generator, rng, scratch));
        Some((text, inst.output()))
    }

    /// Replaces the evidence of a random fraction of claims with evidence
    /// from another sample, relabeling them `Unknown`.
    fn inject_unknowns(
        &self,
        cfg: &UctrConfig,
        samples: &mut [Sample],
        rng: &mut StdRng,
        tel: &TelemetryBank,
    ) {
        let n = samples.len();
        if n < 2 {
            return;
        }
        for i in 0..n {
            if !rng.gen_bool(cfg.unknown_rate.min(1.0)) {
                continue;
            }
            let j = rng.gen_range(0..n - 1);
            let j = if j >= i { j + 1 } else { j };
            // Claim i paired with evidence j: the evidence cannot decide the
            // claim (different table), so the gold verdict becomes Unknown.
            // A view's title is its base's, so compare those and leave
            // split evidence unmaterialized.
            if samples[j].table.base().title == samples[i].table.base().title {
                continue; // same source table could still decide the claim
            }
            let (table, context, evidence) =
                (samples[j].table.clone(), samples[j].context.clone(), samples[j].evidence);
            samples[i].table = table;
            samples[i].context = context;
            samples[i].evidence = evidence;
            samples[i].label = Label::Verdict(Verdict::Unknown);
            tel.unknown_injected();
        }
    }
}

fn with_topic(mut s: Sample, input: &TableWithContext) -> Sample {
    s.topic = input.topic.clone();
    s
}

/// Derives a per-input RNG seed from the pipeline seed and the input's
/// global index (splitmix64-style mix). Both the sequential and the
/// parallel paths seed each input's RNG this way, which is what makes
/// generation independent of the thread count.
fn input_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> Vec<TableWithContext> {
        let t1 = Table::from_strings(
            "Teams",
            &[
                vec!["team", "city", "points", "wins"],
                vec!["Reds", "Oslo", "77", "21"],
                vec!["Blues", "Lima", "64", "18"],
                vec!["Greens", "Kyiv", "81", "24"],
                vec!["Golds", "Quito", "59", "15"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e}"));
        let t2 = Table::from_strings(
            "Budgets",
            &[
                vec!["department", "2019", "2018"],
                vec!["Revenue", "8800", "8000"],
                vec!["Costs", "6100", "5900"],
                vec!["Equity", "3200", "4000"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e}"));
        vec![
            TableWithContext {
                table: t1.into(),
                paragraph: Some(
                    "The league expanded recently. Silvers has a city of Rome, a points of 70 and a wins of 19. Attendance rose."
                        .to_string(),
                ),
                topic: "sports".into(),
            },
            TableWithContext {
                table: t2.into(),
                paragraph: Some("Margins has a 2019 of 2700 and a 2018 of 2100.".to_string()),
                topic: "finance".into(),
            },
        ]
    }

    #[test]
    fn qa_pipeline_generates_labeled_samples() {
        let pipeline =
            UctrPipeline::new(UctrConfig { noise: NoiseConfig::off(), ..UctrConfig::qa() });
        let samples = pipeline.generate(&inputs());
        assert!(samples.len() > 10, "only {} samples", samples.len());
        for s in &samples {
            assert!(!s.text.is_empty());
            let answer =
                s.label.as_answer().unwrap_or_else(|| panic!("QA sample without answer label"));
            assert!(!answer.is_empty());
        }
    }

    #[test]
    fn verification_pipeline_generates_both_verdicts() {
        let pipeline = UctrPipeline::new(UctrConfig {
            noise: NoiseConfig::off(),
            ..UctrConfig::verification()
        });
        let samples = pipeline.generate(&inputs());
        let sup =
            samples.iter().filter(|s| s.label.as_verdict() == Some(Verdict::Supported)).count();
        let refuted =
            samples.iter().filter(|s| s.label.as_verdict() == Some(Verdict::Refuted)).count();
        assert!(sup > 0, "no supported claims in {} samples", samples.len());
        assert!(refuted > 0, "no refuted claims in {} samples", samples.len());
    }

    #[test]
    fn evidence_types_cover_sources() {
        let pipeline =
            UctrPipeline::new(UctrConfig { noise: NoiseConfig::off(), ..UctrConfig::qa() });
        let samples = pipeline.generate(&inputs());
        let has = |e: EvidenceType| samples.iter().any(|s| s.evidence == e);
        assert!(has(EvidenceType::TableOnly));
        assert!(has(EvidenceType::TextOnly));
        assert!(has(EvidenceType::TableText));
    }

    #[test]
    fn without_t2t_has_no_joint_samples_from_split() {
        let cfg = UctrConfig { noise: NoiseConfig::off(), ..UctrConfig::qa() }.without_t2t();
        let pipeline = UctrPipeline::new(cfg);
        let samples = pipeline.generate(&inputs());
        // text_only still enabled -> TextOnly remains, but no TableText.
        assert!(samples.iter().all(|s| s.evidence != EvidenceType::TableText));
    }

    #[test]
    fn schema_prefilter_skips_infeasible_pairs() {
        // A text-only table: every arithmetic template needs numeric cells
        // (or a number column), so each arith attempt is provably
        // infeasible and must be prefiltered rather than burned on the
        // instantiation sampler.
        let t = Table::from_strings(
            "t",
            &[
                vec!["name", "city"],
                vec!["Reds", "Oslo"],
                vec!["Blues", "Lima"],
                vec!["Greens", "Kyiv"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e}"));
        let cfg = UctrConfig {
            noise: NoiseConfig::off(),
            text_only: false,
            table_split: false,
            table_expand: false,
            ..UctrConfig::qa()
        };
        let (_, report) = UctrPipeline::new(cfg).generate_with_report(&[TableWithContext::bare(t)]);
        let arith = report
            .kinds
            .iter()
            .find(|k| k.kind == "arith")
            .unwrap_or_else(|| panic!("report always carries an arith row"));
        assert_eq!(
            arith.prefiltered, arith.attempted,
            "every arith attempt on a numberless table is prefiltered"
        );
        assert_eq!(arith.instantiated, 0);
        assert!(report.prefiltered() > 0, "expected prefilter hits:\n{}", report.summary());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = UctrConfig { noise: NoiseConfig::off(), ..UctrConfig::qa() };
        let a = UctrPipeline::new(cfg.clone()).generate(&inputs());
        let b = UctrPipeline::new(cfg).generate(&inputs());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.label, y.label);
        }
    }

    #[test]
    fn unknown_injection_produces_unknowns() {
        let cfg = UctrConfig {
            unknown_rate: 0.3,
            noise: NoiseConfig::off(),
            ..UctrConfig::verification()
        };
        let samples = UctrPipeline::new(cfg).generate(&inputs());
        let unknowns =
            samples.iter().filter(|s| s.label.as_verdict() == Some(Verdict::Unknown)).count();
        assert!(unknowns > 0, "no Unknown labels among {}", samples.len());
    }

    /// A ragged workload for the scheduler: degenerate tables that cost
    /// nothing, tall split-heavy tables, and paragraph-bearing
    /// expand-heavy tables, interleaved so contiguous chunks have very
    /// different costs.
    fn ragged_zoo() -> Vec<TableWithContext> {
        let empty = Table::from_strings("empty", &[vec!["a", "b"]])
            .unwrap_or_else(|e| panic!("test table: {e}"));
        let mut zoo = Vec::new();
        for i in 0..4 {
            zoo.push(TableWithContext::bare(empty.clone()));
            let mut rows = vec![vec!["team".to_string(), "points".to_string()]];
            for r in 0..(6 + 3 * i) {
                rows.push(vec![format!("Team{i}{r}"), format!("{}", 40 + 7 * r + i)]);
            }
            let grid: Vec<Vec<&str>> =
                rows.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
            let tall = Table::from_strings(format!("tall{i}"), &grid)
                .unwrap_or_else(|e| panic!("test table: {e}"));
            zoo.push(TableWithContext::bare(tall));
            zoo.extend(inputs().into_iter().map(|mut input| {
                input.topic = format!("zoo{i}");
                input
            }));
        }
        zoo
    }

    #[test]
    fn parallel_generation_is_deterministic_and_complete() {
        let cfg = UctrConfig { noise: NoiseConfig::off(), ..UctrConfig::qa() };
        let pipeline = UctrPipeline::new(cfg);
        let data = ragged_zoo();
        let (baseline, base_report) = pipeline.generate_with_report(&data);
        assert!(!baseline.is_empty());
        // Any thread count must reproduce the sequential output byte for
        // byte, including every deterministic telemetry counter.
        for threads in 1..=8 {
            let (samples, report) = pipeline.generate_parallel_with_report(&data, threads);
            assert_eq!(samples.len(), baseline.len(), "sample count at {threads} threads");
            for (x, y) in samples.iter().zip(&baseline) {
                assert_eq!(x.text, y.text, "text at {threads} threads");
                assert_eq!(x.label, y.label, "label at {threads} threads");
                assert_eq!(x.evidence, y.evidence, "evidence at {threads} threads");
                assert_eq!(x.topic, y.topic, "topic at {threads} threads");
                assert_eq!(x.context, y.context, "context at {threads} threads");
            }
            assert!(
                report.deterministic_eq(&base_report),
                "telemetry diverged at {threads} threads:\n{}\nvs sequential:\n{}",
                report.summary(),
                base_report.summary()
            );
        }
    }

    #[test]
    fn generate_request_matches_dedicated_pipeline() {
        // A pipeline built for QA must serve a verification request with a
        // different seed byte-identically to a pipeline constructed with
        // that config — the property the serving daemon relies on to share
        // one template bank across per-request config overrides. Note the
        // generator's noise is pipeline-level (both off here); the request
        // override covers task / seed / samples_per_table / source flags.
        let base = UctrConfig { noise: NoiseConfig::off(), ..UctrConfig::qa() };
        let pipeline = UctrPipeline::new(base);
        let req_cfg = UctrConfig {
            noise: NoiseConfig::off(),
            seed: 99,
            samples_per_table: 3,
            unknown_rate: 0.2,
            ..UctrConfig::verification()
        };
        let tel = TelemetryBank::new();
        let mut scratch = GenScratch::default();
        let mut cold = Vec::new();
        pipeline.generate_request(&req_cfg, &inputs(), &mut cold, &tel, &mut scratch);
        let expected = UctrPipeline::new(req_cfg.clone()).generate(&inputs());
        assert_eq!(cold.len(), expected.len());
        for (x, y) in cold.iter().zip(&expected) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.label, y.label);
            assert_eq!(x.context, y.context);
        }
        // Re-serving the same request with warm scratch (and a dirty output
        // buffer from an unrelated request) must not change a byte: the
        // finalize pass only sees the samples this call appended.
        let mut warm = Vec::new();
        pipeline.generate_request(
            &UctrConfig { noise: NoiseConfig::off(), ..UctrConfig::qa() },
            &inputs(),
            &mut warm,
            &tel,
            &mut scratch,
        );
        let offset = warm.len();
        pipeline.generate_request(&req_cfg, &inputs(), &mut warm, &tel, &mut scratch);
        assert_eq!(warm.len() - offset, expected.len());
        for (x, y) in warm[offset..].iter().zip(&expected) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.label, y.label);
        }
    }

    #[test]
    fn topics_propagate() {
        let pipeline =
            UctrPipeline::new(UctrConfig { noise: NoiseConfig::off(), ..UctrConfig::qa() });
        let samples = pipeline.generate(&inputs());
        assert!(samples.iter().any(|s| s.topic == "sports"));
        assert!(samples.iter().any(|s| s.topic == "finance"));
    }

    #[test]
    fn split_samples_answer_survives_split() {
        // For split samples, the question was generated against the FULL
        // table; model evidence is sub-table + sentence. The gold answer is
        // stored before splitting, so it must be non-empty and the sample
        // must carry exactly one context sentence.
        let pipeline =
            UctrPipeline::new(UctrConfig { noise: NoiseConfig::off(), ..UctrConfig::qa() });
        let samples = pipeline.generate(&inputs());
        for s in samples.iter().filter(|s| s.evidence == EvidenceType::TableText) {
            if s.context.len() == 1 {
                assert!(!s.context[0].is_empty());
            }
        }
    }
}
