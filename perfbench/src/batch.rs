//! Batch workloads: the paper's corpus synthesis (Algorithm 1) over a table
//! collection, through `UctrPipeline::generate_parallel_with_report`.
//!
//! One operation is a pass pair: the QA pipeline, then the verification
//! pipeline, each over every input at nproc threads. Each pass is checked,
//! outside the timed interval, against a single-thread
//! `generate_with_report` reference: same sample digest, same funnel
//! counters.

use crate::estimate::{table_cost, TableCost};
use crate::report::Outcome;
use crate::stats::{median, quantile, samples_digest, sorted, tail_quantile, Digest};
use crate::trace::{Kind, Trace};
use crate::{alloc, inputs};
use std::hint::black_box;
use std::time::{Duration, Instant};
use uctr::{PipelineReport, TableWithContext, TemplateBank, UctrConfig, UctrPipeline};

#[derive(Clone, Copy)]
pub enum Shape {
    /// The ragged zoo: degenerate to 224-row tables, split- and
    /// paragraph-heavy families; per-sample work dominates.
    Ragged,
    /// Two 10k+-row wide tables; context build dominates.
    Wide,
}

/// Set-up is timed this many times at the start of a run, again after
/// the references and again after the timed window, so that the fastest
/// of all, which is reported, does not hang on one stretch of host speed.
const SETUP_REPS: usize = 3;

/// Traced runs spend about this long on single-thread attribution passes,
/// shared among the sets (at least one pass pair each).
const SINGLE_SECS: f64 = 1.0;

/// Everything a pass needs before it can run: the mined bank and the two
/// pipelines over it.
struct Setup {
    bank: TemplateBank,
    pipelines: [UctrPipeline; 2],
}

fn set_up() -> Setup {
    let bank = uctr::mined_bank(uctr::mining::SYNTHETIC_SEED);
    let pipelines = [
        UctrPipeline::new(UctrConfig::qa()).with_bank(bank.clone()),
        UctrPipeline::new(UctrConfig::verification()).with_bank(bank.clone()),
    ];
    Setup { bank, pipelines }
}

/// Builds the set-up `SETUP_REPS` times, adding each time to `secs`, and
/// returns the last. The previous set-up is dropped first, so a run never
/// holds two at once.
fn set_up_timed(previous: Option<Setup>, secs: &mut Vec<f64>) -> Setup {
    let mut setup = previous;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(black_box(set_up()));
        secs.push(t.elapsed().as_secs_f64());
    }
    setup.expect("set-up ran at least once")
}

/// One timed pass and what it produced.
struct Pass {
    secs: f64,
    samples: usize,
    report: PipelineReport,
    armed: bool,
    /// Allocations counted during the pass (0 unless armed).
    allocs: u64,
    span: (Instant, Instant),
}

/// One input collection and what each pipeline must produce on it.
struct Set {
    inputs: Vec<TableWithContext>,
    /// Per pipeline: the single-thread reference digest and funnel.
    references: Vec<(Digest, PipelineReport)>,
}

impl Set {
    fn new(inputs: Vec<TableWithContext>, pipelines: &[UctrPipeline; 2]) -> Set {
        let references = pipelines
            .iter()
            .map(|p| {
                let (samples, report) = p.generate_with_report(&inputs);
                (samples_digest(&samples), report)
            })
            .collect();
        Set { inputs, references }
    }

    /// Runs `pipeline` (index `which`) at `threads`, counting allocations
    /// when `armed`, and checks the output against the reference outside
    /// the timed interval.
    fn pass(
        &self,
        pipelines: &[UctrPipeline; 2],
        which: usize,
        threads: usize,
        armed: bool,
        out: &mut Outcome,
    ) -> Pass {
        let before = alloc::allocations();
        alloc::arm(armed);
        let t0 = Instant::now();
        let (samples, report) =
            pipelines[which].generate_parallel_with_report(&self.inputs, threads);
        let t1 = Instant::now();
        alloc::arm(false);
        let allocs = alloc::allocations() - before;
        let (digest, reference) = &self.references[which];
        out.attempted += 1;
        if samples_digest(&samples) != *digest || !report.deterministic_eq(reference) {
            out.failed += 1;
            out.notes.push(format!("MISMATCH: a {threads}-thread pass differs from its reference"));
        }
        let secs = (t1 - t0).as_secs_f64();
        Pass { secs, samples: samples.len(), report, armed, allocs, span: (t0, t1) }
    }
}

pub fn run(shape: Shape, seed: u64, seconds: u64, traced: bool, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_secs = Vec::new();
    let setup = set_up_timed(None, &mut setup_secs);

    let sets: Vec<Set> = match shape {
        Shape::Ragged => vec![inputs::ragged(seed, inputs::RAGGED_SCALE)],
        Shape::Wide => (0..inputs::WIDE_SETS).map(|k| inputs::wide(seed, k)).collect(),
    }
    .into_iter()
    .map(|inputs| Set::new(inputs, &setup.pipelines))
    .collect();
    for (k, set) in sets.iter().enumerate() {
        out.notes.push(format!(
            "set {k}: {} tables; reference digests {} (single-thread)",
            set.inputs.len(),
            set.references
                .iter()
                .map(|(d, r)| format!("{}/{}", d.hex(), r.accepted()))
                .collect::<Vec<_>>()
                .join(" "),
        ));
    }

    let setup = set_up_timed(Some(setup), &mut setup_secs);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Warm-up pair: page in the bank and grow the allocator's arenas.
    for which in 0..2 {
        sets[0].pass(&setup.pipelines, which, threads, false, &mut out);
    }

    // Pairs cycle through the sets, so a run's median spans every set.
    let budget = Duration::from_secs(seconds);
    let mut timed = Duration::ZERO;
    let mut passes: Vec<Pass> = Vec::new();
    while timed < budget {
        let pair = passes.len() / 2;
        // Traced runs arm the allocation counter on every other cycle
        // through the sets, so trace.overhead compares armed and unarmed
        // pairs of one process over the same inputs.
        let armed = traced && (pair / sets.len()) % 2 == 1;
        for which in 0..2 {
            let set = &sets[pair % sets.len()];
            let pass = set.pass(&setup.pipelines, which, threads, armed, &mut out);
            timed += pass.span.1 - pass.span.0;
            passes.push(pass);
        }
    }

    let setup = set_up_timed(Some(setup), &mut setup_secs);
    out.set_setup(&setup_secs);

    let pairs: Vec<&[Pass]> = passes.chunks(2).collect();
    let pair_secs = |p: &[Pass]| p.iter().map(|x| x.secs).sum::<f64>();
    let unarmed: Vec<&[Pass]> = pairs.iter().copied().filter(|p| !p[0].armed).collect();
    let times = sorted(unarmed.iter().map(|p| 1e3 * pair_secs(p)).collect());
    // The median of per-pair rates shrugs off bursts of host noise that a
    // total over the window would absorb.
    let rate = |ps: &[&[Pass]]| {
        median(
            &ps.iter()
                .map(|p| p.iter().map(|x| x.samples).sum::<usize>() as f64 / pair_secs(p))
                .collect::<Vec<_>>(),
        )
    };
    out.set("samples_per_s", rate(&unarmed));
    out.set("p50_ms", quantile(&times, 0.5));
    out.notes.push(format!(
        "timed: {} pass pairs at {threads} threads over {} set(s); pair p50 {:.1} ms",
        pairs.len(),
        sets.len(),
        quantile(&times, 0.5)
    ));

    if traced {
        out.set("p99_ms", quantile(&times, tail_quantile(times.len(), 0.99)));
        let armed: Vec<&[Pass]> = pairs.iter().copied().filter(|p| p[0].armed).collect();
        let armed_samples: usize = armed.iter().flat_map(|p| p.iter()).map(|x| x.samples).sum();
        let allocs: u64 = armed.iter().flat_map(|p| p.iter()).map(|x| x.allocs).sum();
        out.set("pipeline.allocs_per_sample", allocs as f64 / armed_samples.max(1) as f64);
        let armed_ms: Vec<f64> = armed.iter().map(|p| 1e3 * pair_secs(p)).collect();
        out.set("trace.overhead", median(&armed_ms) / quantile(&times, 0.5) - 1.0);
        for pass in &passes {
            trace.measured("pipeline.pass_parallel", 0, None, pass.span, threads as u32);
        }
        // Layer shares come from single-thread passes: at nproc threads a
        // pass's capacity also holds the idle tail of its last claims. They
        // cover every set, as the timed pairs do, and each set's estimates
        // bracket its own passes, so a shift in host speed between the two
        // lands half on each side.
        let per_set: Vec<(Estimates, Vec<Pass>)> = sets
            .iter()
            .map(|set| {
                let before = estimate(&setup.bank, &set.inputs);
                let mut single = Vec::new();
                let mut secs = 0.0;
                while secs < SINGLE_SECS / sets.len() as f64 {
                    for which in 0..2 {
                        let pass = set.pass(&setup.pipelines, which, 1, false, &mut out);
                        secs += pass.secs;
                        single.push(pass);
                    }
                }
                (before.mean(&estimate(&setup.bank, &set.inputs)), single)
            })
            .collect();
        // Speed-up per set, over the same inputs at both thread counts.
        let speedups: Vec<f64> = per_set
            .iter()
            .enumerate()
            .filter_map(|(k, (_, single))| {
                let timed: Vec<&[Pass]> = pairs
                    .iter()
                    .enumerate()
                    .filter(|(i, p)| i % sets.len() == k && !p[0].armed)
                    .map(|(_, p)| *p)
                    .collect();
                let single: Vec<&[Pass]> = single.chunks(2).collect();
                (!timed.is_empty()).then(|| rate(&timed) / rate(&single))
            })
            .collect();
        out.set("pipeline.parallel_speedup", median(&speedups));
        layers(&mut out, trace, &per_set);
    }
    out.set("failed_frac", out.failed as f64 / out.attempted.max(1) as f64);
    out
}

/// Per-pass costs of the layers a pass does not report, from its inputs.
struct Estimates {
    ctx_per_pass: f64,
    expand_per_pass: f64,
    expand_calls: u64,
    /// Mean `table_to_text` cost over the split-eligible inputs.
    split_per_call: f64,
}

impl Estimates {
    fn mean(&self, other: &Estimates) -> Estimates {
        Estimates {
            ctx_per_pass: (self.ctx_per_pass + other.ctx_per_pass) / 2.0,
            expand_per_pass: (self.expand_per_pass + other.expand_per_pass) / 2.0,
            expand_calls: self.expand_calls,
            split_per_call: (self.split_per_call + other.split_per_call) / 2.0,
        }
    }
}

fn estimate(bank: &TemplateBank, inputs: &[TableWithContext]) -> Estimates {
    let costs: Vec<TableCost> = inputs.iter().filter_map(|i| table_cost(bank, i)).collect();
    let expands: Vec<f64> = costs.iter().filter_map(|c| c.expand_ns).collect();
    let splits: Vec<f64> = costs.iter().filter_map(|c| c.split_ns).collect();
    Estimates {
        ctx_per_pass: costs.iter().map(|c| c.ctx_ns).sum(),
        expand_per_pass: expands.iter().sum(),
        expand_calls: expands.len() as u64,
        split_per_call: splits.iter().sum::<f64>() / splits.len().max(1) as f64,
    }
}

fn timing(report: &PipelineReport, name: &str) -> (f64, u64) {
    report.timing(name).map_or((0.0, 0), |t| (t.total_ns as f64, t.count))
}

fn source_accepted(report: &PipelineReport, name: &str) -> u64 {
    report.sources.iter().find(|s| s.source == name).map_or(0, |s| s.accepted)
}

/// The per-layer table: one span per pass, with the reported timers and
/// the estimated layers (from the pass's own set) as children. What no
/// layer accounts for is the unattributed share; it reads negative when
/// the estimates over-count.
fn layers(out: &mut Outcome, trace: &mut Trace, per_set: &[(Estimates, Vec<Pass>)]) {
    let (mut ctx_ns, mut capacity_ns, mut attributed_ns) = (0.0, 0.0, 0.0);
    let mut totals = [(0.0f64, 0u64); 3];
    let (mut split_ns, mut split_calls, mut expand_ns, mut expand_calls) = (0.0, 0u64, 0.0, 0u64);
    let (mut attempts, mut accepted, mut prefiltered, mut kind_attempts) = (0u64, 0u64, 0u64, 0u64);
    let passes = per_set.iter().flat_map(|(est, passes)| passes.iter().map(move |p| (est, p)));
    let mut n = 0usize;
    for (i, (est, pass)) in passes.enumerate() {
        n += 1;
        let span = trace.measured("pipeline.pass", i as u64, None, pass.span, 1);
        capacity_ns += trace.spans[span].capacity_ns() as f64;
        for (slot, (timer, layer)) in [
            ("instantiate", "program.instantiate"),
            ("execute", "program.execute"),
            ("nl_gen", "nlgen.verbalize"),
        ]
        .iter()
        .enumerate()
        {
            let (ns, calls) = timing(&pass.report, timer);
            totals[slot].0 += ns;
            totals[slot].1 += calls;
            attributed_ns += ns;
            trace.derived(span, layer, ns as u64, Kind::Reported);
        }
        let splits = source_accepted(&pass.report, "table_split");
        let split = est.split_per_call * splits as f64;
        trace.derived(span, "tabular.ctx_build", est.ctx_per_pass as u64, Kind::Estimate);
        trace.derived(span, "textops.expand", est.expand_per_pass as u64, Kind::Estimate);
        trace.derived(span, "textops.split", split as u64, Kind::Estimate);
        ctx_ns += est.ctx_per_pass;
        (split_ns, split_calls) = (split_ns + split, split_calls + splits);
        (expand_ns, expand_calls) =
            (expand_ns + est.expand_per_pass, expand_calls + est.expand_calls);
        attributed_ns += est.ctx_per_pass + est.expand_per_pass + split;
        attempts += pass.report.attempted();
        accepted += pass.report.accepted();
        prefiltered += pass.report.prefiltered();
        kind_attempts += pass.report.kinds.iter().map(|k| k.attempted).sum::<u64>();
    }
    let ops = (n as f64 / 2.0).max(1.0);
    out.set("tabular.ctx_build_ms", ctx_ns / ops / 1e6);
    out.set("tabular.ctx_build_share", ctx_ns / capacity_ns);
    for (slot, (us, calls)) in [
        ("program.instantiate_us", "program.instantiate_calls"),
        ("program.execute_us", "program.execute_calls"),
        ("nlgen.verbalize_us", "nlgen.verbalize_calls"),
    ]
    .iter()
    .enumerate()
    {
        out.set(us, totals[slot].0 / totals[slot].1.max(1) as f64 / 1e3);
        out.set(calls, totals[slot].1 as f64 / ops);
    }
    out.set("textops.split_us", split_ns / split_calls.max(1) as f64 / 1e3);
    out.set("textops.expand_us", expand_ns / expand_calls.max(1) as f64 / 1e3);
    out.set("pipeline.attempts", attempts as f64 / ops);
    out.set("pipeline.accepted", accepted as f64 / ops);
    out.set("pipeline.accept_ratio", accepted as f64 / attempts.max(1) as f64);
    out.set("pipeline.prefilter_ratio", prefiltered as f64 / kind_attempts.max(1) as f64);
    out.set("pipeline.unattributed_share", 1.0 - attributed_ns / capacity_ns);
    out.notes.push(format!(
        "split calls counted as accepted split samples: {:.0} per pair",
        split_calls as f64 / ops
    ));
}
