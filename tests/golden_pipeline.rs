//! Golden fixed-seed pipeline output (refactor guard).
//!
//! The program-layer refactor (a unified program layer + ExecContext) must be
//! behavior-preserving: for a fixed seed and fixed inputs, the generated
//! samples and the deterministic telemetry counters must be *identical* to
//! the pre-refactor pipeline. These digests were captured from the
//! per-kind generation loops that predate `run_program`; any RNG-draw or
//! counter-order drift in the unified `run_program` changes them.

// Integration-test helpers run outside #[cfg(test)], so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used)]

use std::sync::OnceLock;

use tabular::Table;
use uctr::mining::SYNTHETIC_SEED;
use uctr::{KindSlot, TableWithContext, TemplateBank, UctrConfig, UctrPipeline};

/// FNV-1a 64-bit, so the expectation is a single stable integer per run.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn inputs() -> Vec<TableWithContext> {
    let teams = Table::from_strings(
        "Teams",
        &[
            vec!["team", "wins", "losses", "founded"],
            vec!["Sharks", "12", "4", "1990-05-01"],
            vec!["Lions", "9", "7", "1985-03-12"],
            vec!["Bears", "15", "1", "2001-08-23"],
            vec!["Wolves", "7", "9", "1999-11-30"],
        ],
    )
    .unwrap();
    let budgets = Table::from_strings(
        "Budgets",
        &[
            vec!["department", "budget", "staff"],
            vec!["Research", "1200", "30"],
            vec!["Marketing", "800", "18"],
            vec!["Operations", "2100", "55"],
        ],
    )
    .unwrap();
    let albums = Table::from_strings(
        "Albums",
        &[
            vec!["album", "year", "sales", "certified"],
            vec!["Dawn", "1998", "1500000", "yes"],
            vec!["Harbor", "2003", "870000", "no"],
            vec!["Meridian", "2010", "2300000", "yes"],
            vec!["Atlas", "2015", "640000", "no"],
            vec!["Voyage", "2019", "1100000", "yes"],
        ],
    )
    .unwrap();
    vec![
        TableWithContext {
            table: teams.into(),
            paragraph: Some(
                "The Sharks were founded on 1990-05-01 and have 12 wins this season. \
                 The Bears lead the league with 15 wins and only 1 loss."
                    .into(),
            ),
            topic: "sports".into(),
        },
        TableWithContext {
            table: budgets.into(),
            paragraph: Some(
                "Research has a budget of 1200 with 30 staff. \
                 Operations is the largest department with a budget of 2100."
                    .into(),
            ),
            topic: "finance".into(),
        },
        TableWithContext { table: albums.into(), paragraph: None, topic: "music".into() },
    ]
}

/// One canonical byte rendering of a run: every sample field (via `Debug`,
/// which round-trips f64s exactly) plus the deterministic report sections.
fn run_digests(config: UctrConfig) -> (u64, u64, u64) {
    pipeline_digests(UctrPipeline::new(config))
}

/// [`run_digests`] over the builtin bank extended with the mined corpus.
fn mined_run_digests(config: UctrConfig) -> (u64, u64, u64) {
    pipeline_digests(UctrPipeline::new(config).with_bank(mined().clone()))
}

fn pipeline_digests(pipeline: UctrPipeline) -> (u64, u64, u64) {
    let (samples, report) = pipeline.generate_with_report(&inputs());
    let sample_digest = fnv1a(format!("{samples:?}").as_bytes());
    let counters = format!(
        "{:?}",
        (
            report.inputs_total,
            report.inputs_degenerate,
            report.unknown_injected,
            &report.kinds,
            &report.sources,
        )
    );
    (sample_digest, fnv1a(counters.as_bytes()), report.accepted())
}

#[test]
fn qa_run_is_byte_identical_to_prerefactor() {
    let (samples, counters, accepted) = run_digests(UctrConfig::qa());
    assert_eq!(
        (samples, counters, accepted),
        (EXPECT_QA.0, EXPECT_QA.1, EXPECT_QA.2),
        "fixed-seed QA output drifted from the pre-refactor pipeline"
    );
}

#[test]
fn verification_run_is_byte_identical_to_prerefactor() {
    let (samples, counters, accepted) = run_digests(UctrConfig::verification());
    assert_eq!(
        (samples, counters, accepted),
        (EXPECT_VERIF.0, EXPECT_VERIF.1, EXPECT_VERIF.2),
        "fixed-seed verification output drifted from the pre-refactor pipeline"
    );
}

#[test]
fn alternate_seed_run_is_byte_identical_to_prerefactor() {
    let mut config = UctrConfig::qa();
    config.seed = 2024;
    config.use_logic = true;
    let (samples, counters, accepted) = run_digests(config);
    assert_eq!(
        (samples, counters, accepted),
        (EXPECT_ALT.0, EXPECT_ALT.1, EXPECT_ALT.2),
        "fixed-seed all-kinds output drifted from the pre-refactor pipeline"
    );
}

#[test]
fn golden_tables_are_never_prefiltered() {
    // Draw-order contract behind the byte-identity above: a prefilter skip
    // consumes zero RNG draws, whereas letting the instantiation sampler
    // fail consumes several — the two are NOT stream-equivalent. The
    // golden runs stay byte-identical with the prefilter enabled only
    // because these tables satisfy every builtin template requirement, so
    // the prefilter never fires on them. If a new builtin template or a
    // stronger requirement rule makes this fail, the digests must be
    // re-captured (they will have legitimately changed).
    for config in [UctrConfig::qa(), UctrConfig::verification()] {
        let (_, report) = UctrPipeline::new(config).generate_with_report(&inputs());
        assert_eq!(
            report.prefiltered(),
            0,
            "a golden table stopped satisfying a builtin requirement:\n{}",
            report.summary()
        );
    }
}

#[test]
fn tightened_requirements_never_drop_a_golden_sample() {
    // The abstract interpreter tightens SchemaRequirements (e.g.
    // `min_col_numeric_values` from constant nth ordinals). The byte
    // identity above survives that only because the tightening never fires
    // on a builtin template — the builtin nth ordinals are value holes, so
    // the joined requirement is exactly the pre-absint one and the
    // prefilter's draw-order contract is untouched. Pin that: should a
    // builtin template ever gain a tightened requirement, this fails
    // before the digests silently shift.
    for any in uctr::TemplateBank::builtin().templates() {
        let a = any.analyze();
        assert_eq!(
            a.requirement.min_col_numeric_values,
            0,
            "builtin `{}` gained a tightened numeric-values requirement; golden digests \
             must be re-captured deliberately",
            any.signature()
        );
        // And the tightened requirement still admits every golden table.
        for input in inputs() {
            let ctx = tabular::ExecContext::new(&input.table);
            assert!(
                a.requirement.satisfied_by(&ctx),
                "builtin `{}` is no longer feasible on golden table `{}`",
                any.signature(),
                input.table.title
            );
        }
    }
}

/// Digests of the four `CorpusConfig::tiny()` benchmarks (gold splits and
/// unlabeled inputs) and of the gold evidence cells of every gold sample.
/// The annotator and the retriever draw values and highlight cells through
/// the program executors, so this pins the executor path they run on.
fn corpora_digests() -> [(u64, u64); 4] {
    [
        corpora::wikisql_like(corpora::CorpusConfig::tiny()),
        corpora::feverous_like(corpora::CorpusConfig::tiny()),
        corpora::tatqa_like(corpora::CorpusConfig::tiny()),
        corpora::semtab_like(corpora::CorpusConfig::tiny()),
    ]
    .map(|b| {
        let gold = &b.gold;
        let cells: Vec<_> = gold
            .train
            .iter()
            .chain(&gold.dev)
            .chain(&gold.test)
            .map(models::gold_evidence_cells)
            .collect();
        (fnv1a(format!("{b:?}").as_bytes()), fnv1a(format!("{cells:?}").as_bytes()))
    })
}

#[test]
fn corpora_benchmarks_are_byte_identical() {
    assert_eq!(
        corpora_digests(),
        EXPECT_CORPORA,
        "fixed-seed corpora output or gold evidence cells drifted"
    );
}

/// `uctr::mined_bank(SYNTHETIC_SEED)`, built once per test binary: a build
/// takes over a second in a debug build, and every mined-bank test reads it.
fn mined() -> &'static TemplateBank {
    static BANK: OnceLock<TemplateBank> = OnceLock::new();
    BANK.get_or_init(|| uctr::mined_bank(SYNTHETIC_SEED))
}

/// Digest of everything the mined bank feeds the pipeline: each template's
/// `kind: signature` in insertion order, the sampling slots of every
/// stratum (a canonical equivalent leaves a repeat slot on its
/// representative, which `ci/mined_templates.txt` cannot show), the schema
/// lattice points and the canonical keys.
fn mined_bank_digest() -> u64 {
    use std::fmt::Write as _;
    let bank = mined();
    let mut text = String::new();
    for t in bank.templates() {
        let _ = writeln!(text, "{}: {}", t.kind().name(), t.signature());
    }
    for kind in [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith] {
        let _ = writeln!(text, "{kind:?} slots {:?}", bank.stratum(kind));
    }
    let _ = writeln!(text, "{:?}", bank.lattice_points());
    let _ = writeln!(text, "{:?}", bank.canonical_keys());
    fnv1a(text.as_bytes())
}

#[test]
fn mined_bank_is_byte_identical() {
    assert_eq!(
        (mined_bank_digest(), mined().len()),
        EXPECT_MINED_BANK,
        "the mined bank's templates, sampling slots, lattice points or canonical keys drifted"
    );
}

#[test]
fn mined_bank_runs_are_byte_identical() {
    assert_eq!(
        mined_run_digests(UctrConfig::qa()),
        EXPECT_MINED_QA,
        "fixed-seed QA output over the mined bank drifted"
    );
    assert_eq!(
        mined_run_digests(UctrConfig::verification()),
        EXPECT_MINED_VERIF,
        "fixed-seed verification output over the mined bank drifted"
    );
}

/// Prints current digests; run with `--nocapture` to regenerate the
/// constants above after an *intentional* behavior change.
#[test]
fn print_current_digests() {
    println!("const EXPECT_CORPORA: [(u64, u64); 4] = {:#x?};", corpora_digests());
    let (digest, len) = (mined_bank_digest(), mined().len());
    println!("const EXPECT_MINED_BANK: (u64, usize) = ({digest:#x}, {len});");
    for (name, d) in [
        ("EXPECT_QA", run_digests(UctrConfig::qa())),
        ("EXPECT_VERIF", run_digests(UctrConfig::verification())),
        ("EXPECT_ALT", {
            let mut config = UctrConfig::qa();
            config.seed = 2024;
            config.use_logic = true;
            run_digests(config)
        }),
        ("EXPECT_MINED_QA", mined_run_digests(UctrConfig::qa())),
        ("EXPECT_MINED_VERIF", mined_run_digests(UctrConfig::verification())),
    ] {
        println!("const {name}: (u64, u64, u64) = ({:#x}, {:#x}, {});", d.0, d.1, d.2);
    }
}

// The sample digests (first components) are unchanged since the
// pre-refactor capture: the schema prefilter added alongside the counters'
// `prefiltered` field must not alter a single generated byte. The counter
// digests (second components) were re-captured when `KindReport` gained
// that field.
const EXPECT_QA: (u64, u64, u64) = (0x6d5a4d9013979880, 0xbe26621e2e7ec12d, 56);
const EXPECT_VERIF: (u64, u64, u64) = (0x648fbc6273502dd5, 0x434d9110cb2cb1b0, 56);
const EXPECT_ALT: (u64, u64, u64) = (0xb23eed0c8013e5d9, 0x4b9b471f893117b, 58);
// Captured from the corpora before the annotator and the retriever moved
// onto the context-and-scratch executor entry points.
const EXPECT_CORPORA: [(u64, u64); 4] = [
    (0x24513268dc1970f4, 0xd62825d1c90c5f11),
    (0xde2febe580d5d1fa, 0x7bae038a98527148),
    (0x17fe8e30d7198963, 0x22c37d7ffc5c257a),
    (0xc14ec18593da1ec6, 0x6fc613a0005a96a1),
];
// Captured at the parent of the in-place logic-form attempt rewrite, so
// that rewrite and every later set-up optimisation must reproduce them.
const EXPECT_MINED_BANK: (u64, usize) = (0x363307f5e4f6e1f9, 2180);
const EXPECT_MINED_QA: (u64, u64, u64) = (0xd0aeac027028e939, 0xa07969109c20903c, 58);
const EXPECT_MINED_VERIF: (u64, u64, u64) = (0x66f14f0f8113d335, 0x6869186ba3d1f5c3, 55);
