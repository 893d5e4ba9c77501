//! CLI for the workspace auditors. See `xtask --help`.

// This is the workspace's CLI tool: printing reports is its interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::ratchet::{self, RatchetStatus};

const USAGE: &str = "\
xtask — program-template audits and the template miner for UCTR

USAGE:
    cargo run -p xtask -- audit-templates [OPTIONS]
    cargo run -p xtask -- audit-equivalence [OPTIONS]
    cargo run -p xtask -- mine [OPTIONS]

AUDIT-TEMPLATES OPTIONS:
    --root <DIR>            workspace root (default: auto-detected)
    --mined <FILE>          also audit a mined corpus (`kind: template` lines;
                            repeatable). With --check, the per-kind clean
                            mined counts are compared against the grow-only
                            `floors` section of the health file; with
                            --write, the floors are rewritten from them.
    --health <FILE>         health ratchet file (default: ci/template_health.json)
    --check                 fail unless diagnostic counts match the health file
    --write                 rewrite the health file from current counts
    --json <FILE>           write the machine-readable report (per template:
                            issues, A-rule degeneracies, survival estimate,
                            tightened schema requirement)
    --md <FILE>             write a markdown summary table (for CI job
                            summaries), incl. the A-rule count table
                            (A001 degeneracy, A002 dead branch, A003
                            vacuous predicate)
    --quiet                 suppress per-diagnostic lines

AUDIT-EQUIVALENCE OPTIONS:
    --root <DIR>            workspace root (default: auto-detected)
    --health <FILE>         health ratchet file (default: ci/template_health.json);
                            this audit owns only its `equivalence` counts group —
                            audit-templates ignores that group and preserves it
    --seeds <N>             differential-witness seeds per table (default: 32)
    --check                 fail unless the `equivalence` counts match the
                            health file exactly (two-sided)
    --write                 rewrite the `equivalence` group from current counts,
                            leaving every other group and the floors untouched
    --json <FILE>           write the machine-readable report (classes per kind,
                            merged classes with their pruned members, witness
                            failures)
    --md <FILE>             write a markdown summary table (for CI job summaries)
    --quiet                 suppress per-merge lines

    Regardless of --check, the audit FAILS if any canonical merge lacks a
    differential witness (unverified_merges must be zero).

MINE OPTIONS:
    --root <DIR>            workspace root (default: auto-detected)
    --out <FILE>            mined corpus output (default: ci/mined_templates.txt)
    --check                 do not write; fail if the regenerated corpus
                            differs from the committed file (determinism gate)

The determinism and panic-discipline rules are clippy lints:
`cargo clippy --workspace --all-targets -- -D warnings` (DESIGN.md §6).

EXIT CODES:
    0  clean (or counts match the health file exactly)
    1  health regression/staleness, a failed witness gate, or a stale
       mined corpus
    2  usage or I/O error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run: fn(&[String]) -> Result<bool, String> = match args.first().map(String::as_str) {
        Some("audit-templates") => run_audit_cli,
        Some("audit-equivalence") => run_equiv_cli,
        Some("mine") => run_mine_cli,
        Some("-h" | "--help") | None => {
            print!("{USAGE}");
            return ExitCode::from(u8::from(args.is_empty()) * 2);
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args[1..]) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Workspace root: two levels up from this crate's manifest.
fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap_or_else(|_| {
        // Fall back to the cwd `cargo run` was invoked from.
        PathBuf::from(".")
    })
}

fn resolve(root: &Path, path: &Path) -> PathBuf {
    if path.is_absolute() || path.exists() {
        path.to_path_buf()
    } else {
        root.join(path)
    }
}

/// Renders a path relative to the workspace root with forward slashes.
fn rel_display(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

// ----------------------------------------------------- audit-templates ----

struct AuditOpts {
    root: PathBuf,
    mined: Vec<PathBuf>,
    health: PathBuf,
    check: bool,
    write: bool,
    json: Option<PathBuf>,
    md: Option<PathBuf>,
    quiet: bool,
}

fn run_audit_cli(args: &[String]) -> Result<bool, String> {
    let opts = parse_audit_opts(args).map_err(|e| format!("{e}\n\n{USAGE}"))?;
    run_audit(&opts)
}

fn parse_audit_opts(args: &[String]) -> Result<AuditOpts, String> {
    let mut opts = AuditOpts {
        root: default_root(),
        mined: Vec::new(),
        health: PathBuf::from("ci/template_health.json"),
        check: false,
        write: false,
        json: None,
        md: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut path_arg = |name: &str| {
            it.next().map(PathBuf::from).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--root" => opts.root = path_arg("--root")?,
            "--mined" => opts.mined.push(path_arg("--mined")?),
            "--health" => opts.health = path_arg("--health")?,
            "--check" => opts.check = true,
            "--write" => opts.write = true,
            "--json" => opts.json = Some(path_arg("--json")?),
            "--md" => opts.md = Some(path_arg("--md")?),
            "--quiet" => opts.quiet = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn run_audit(opts: &AuditOpts) -> Result<bool, String> {
    use xtask::audit;

    let mut groups = vec![("builtin".to_string(), audit::builtin_templates())];
    for path in &opts.mined {
        let path = resolve(&opts.root, path);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let entries = audit::parse_mined(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        groups.push((rel_display(&opts.root, &path), entries));
    }
    let outcome = audit::audit(&groups);

    if !opts.quiet {
        for t in &outcome.templates {
            for issue in t.analysis.issues.iter().chain(&t.analysis.degeneracies) {
                println!(
                    "{}: {}:{}:{}: {} ({})",
                    t.source,
                    t.analysis.kind.name(),
                    t.analysis.signature,
                    issue.locus,
                    issue.message,
                    issue.code,
                );
            }
        }
    }

    let health_path = resolve(&opts.root, &opts.health);
    let mut status: Option<RatchetStatus> = None;
    let mut clean = true;
    if opts.check {
        let mut recorded = ratchet::load(&health_path)?;
        // The `equivalence` group belongs to `audit-equivalence`; this
        // audit neither produces nor compares it.
        recorded.counts.remove(xtask::equivalence::GROUP);
        let (mut regressions, mut stale) = ratchet::compare(&outcome.counts, &recorded);
        for d in &regressions {
            eprintln!(
                "template health REGRESSION: {}/{} rose {} -> {} — fix the template(s) or \
                 regenerate with `cargo run -p xtask -- audit-templates --write`",
                d.group, d.key, d.recorded, d.current
            );
        }
        for d in &stale {
            eprintln!(
                "template health stale: {}/{} fell {} -> {} — lock in the improvement with \
                 `cargo run -p xtask -- audit-templates --write`",
                d.group, d.key, d.recorded, d.current
            );
        }
        if !opts.mined.is_empty() {
            let mined = audit::mined_counts(&outcome);
            let (floor_regressions, floor_stale) = ratchet::compare_floors(&mined, &recorded);
            for d in &floor_regressions {
                eprintln!(
                    "mined-template floor REGRESSION: {}/{} fell {} -> {} — the mined corpus \
                     may only grow; restore the lost templates or justify the drop by \
                     regenerating with `cargo run -p xtask -- audit-templates --mined ... --write`",
                    d.group, d.key, d.recorded, d.current
                );
            }
            for d in &floor_stale {
                eprintln!(
                    "mined-template floor stale: {}/{} rose {} -> {} — lock in the gain with \
                     `cargo run -p xtask -- audit-templates --mined ... --write`",
                    d.group, d.key, d.recorded, d.current
                );
            }
            regressions.extend(floor_regressions);
            stale.extend(floor_stale);
        }
        clean = regressions.is_empty() && stale.is_empty();
        status =
            Some(RatchetStatus { path: rel_display(&opts.root, &health_path), regressions, stale });
    }

    if opts.write {
        let (comment, existing_floors, equivalence) = match ratchet::load(&health_path) {
            Ok(existing) => {
                let equiv = existing.counts.get(xtask::equivalence::GROUP).cloned();
                (existing.comment, existing.floors, equiv)
            }
            Err(_) => (default_health_comment(), ratchet::Counts::new(), None),
        };
        let floors =
            if opts.mined.is_empty() { existing_floors } else { audit::mined_counts(&outcome) };
        let mut counts = outcome.counts.clone();
        if let Some(group) = equivalence {
            // Carry the other audit's group through unchanged.
            counts.insert(xtask::equivalence::GROUP.to_string(), group);
        }
        let new = ratchet::Ratchet { comment, counts, floors };
        std::fs::write(&health_path, ratchet::render(&new))
            .map_err(|e| format!("cannot write {}: {e}", health_path.display()))?;
        println!("wrote template health {}", health_path.display());
    }

    if let Some(path) = &opts.json {
        std::fs::write(path, audit::json_report(&outcome, status.as_ref()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = &opts.md {
        std::fs::write(path, audit::markdown_summary(&outcome, status.as_ref()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    println!(
        "xtask audit-templates: {} template(s), {} clean, {} degenerate, {} diagnostic(s){}",
        outcome.total(),
        outcome.clean_total(),
        outcome.degenerate_total(),
        outcome.diagnostics_total(),
        match (opts.check, clean) {
            (true, true) => " — health ok",
            (true, false) => " — HEALTH CHECK FAILED",
            (false, _) => "",
        }
    );
    Ok(clean)
}

// --------------------------------------------------- audit-equivalence ----

struct EquivOpts {
    root: PathBuf,
    health: PathBuf,
    seeds: u32,
    check: bool,
    write: bool,
    json: Option<PathBuf>,
    md: Option<PathBuf>,
    quiet: bool,
}

fn run_equiv_cli(args: &[String]) -> Result<bool, String> {
    let opts = parse_equiv_opts(args).map_err(|e| format!("{e}\n\n{USAGE}"))?;
    run_equiv(&opts)
}

fn parse_equiv_opts(args: &[String]) -> Result<EquivOpts, String> {
    let mut opts = EquivOpts {
        root: default_root(),
        health: PathBuf::from("ci/template_health.json"),
        seeds: uctr::analysis::WITNESS_SEEDS,
        check: false,
        write: false,
        json: None,
        md: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_arg =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--root" => opts.root = PathBuf::from(value_arg("--root")?),
            "--health" => opts.health = PathBuf::from(value_arg("--health")?),
            "--seeds" => {
                opts.seeds = value_arg("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds must be an integer: {e}"))?;
            }
            "--check" => opts.check = true,
            "--write" => opts.write = true,
            "--json" => opts.json = Some(PathBuf::from(value_arg("--json")?)),
            "--md" => opts.md = Some(PathBuf::from(value_arg("--md")?)),
            "--quiet" => opts.quiet = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn run_equiv(opts: &EquivOpts) -> Result<bool, String> {
    use xtask::equivalence;

    let miner = mine_corpus();
    let report = uctr::analysis::EquivalenceReport::over(miner.bank(), miner.merges(), opts.seeds);
    let rep_signatures: Vec<String> =
        miner.bank().templates().iter().map(|t| t.signature()).collect();

    if !opts.quiet {
        for class in report.classes.iter().filter(|c| !c.pruned.is_empty()) {
            println!(
                "merged: {} <= {} pruned equivalent(s): {}",
                rep_signatures.get(class.representative).map_or("?", String::as_str),
                class.pruned.len(),
                class.pruned.join(" | "),
            );
        }
    }
    // The hard gate prints its evidence unconditionally: an unverified
    // merge is a soundness bug in the canonicalizer, not a count drift.
    for failure in &report.failures {
        eprintln!("UNVERIFIED MERGE: {failure}");
    }
    let gate_ok = report.unverified_merges == 0;

    let current = equivalence::counts(&report);
    let health_path = resolve(&opts.root, &opts.health);
    let mut status: Option<RatchetStatus> = None;
    let mut clean = true;
    if opts.check {
        let recorded = ratchet::load(&health_path)?;
        // Compare only this audit's group, two-sided; the rest of the
        // file belongs to audit-templates.
        let mut recorded_group = ratchet::Counts::new();
        if let Some(group) = recorded.counts.get(equivalence::GROUP) {
            recorded_group.insert(equivalence::GROUP.to_string(), group.clone());
        }
        let recorded = ratchet::Ratchet {
            comment: recorded.comment,
            counts: recorded_group,
            floors: ratchet::Counts::new(),
        };
        let (regressions, stale) = ratchet::compare(&current, &recorded);
        for d in &regressions {
            eprintln!(
                "equivalence REGRESSION: {}/{} rose {} -> {} — the canonical structure of the \
                 mined bank changed; inspect the merge log, then regenerate with \
                 `cargo run -p xtask -- audit-equivalence --write`",
                d.group, d.key, d.recorded, d.current
            );
        }
        for d in &stale {
            eprintln!(
                "equivalence stale: {}/{} fell {} -> {} — lock in the change with \
                 `cargo run -p xtask -- audit-equivalence --write`",
                d.group, d.key, d.recorded, d.current
            );
        }
        clean = regressions.is_empty() && stale.is_empty();
        status =
            Some(RatchetStatus { path: rel_display(&opts.root, &health_path), regressions, stale });
    }

    if opts.write {
        let mut existing = match ratchet::load(&health_path) {
            Ok(existing) => existing,
            Err(_) => ratchet::Ratchet {
                comment: default_health_comment(),
                counts: ratchet::Counts::new(),
                floors: ratchet::Counts::new(),
            },
        };
        existing.counts.extend(current.clone());
        std::fs::write(&health_path, ratchet::render(&existing))
            .map_err(|e| format!("cannot write {}: {e}", health_path.display()))?;
        println!("wrote equivalence counts into {}", health_path.display());
    }

    if let Some(path) = &opts.json {
        std::fs::write(path, equivalence::json_report(&report, &rep_signatures, status.as_ref()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = &opts.md {
        std::fs::write(path, equivalence::markdown_summary(&report, status.as_ref()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    println!(
        "xtask audit-equivalence: {} class(es) ({} merged), {} pruned, {} verified merge(s), \
         {} unverified{}",
        report.class_count(),
        report.merged_classes(),
        report.pruned_total(),
        report.verified_merges,
        report.unverified_merges,
        match (opts.check, clean, gate_ok) {
            (_, _, false) => " — WITNESS GATE FAILED",
            (true, true, true) => " — equivalence ok",
            (true, false, true) => " — EQUIVALENCE CHECK FAILED",
            (false, _, true) => "",
        }
    );
    Ok(clean && gate_ok)
}

// ------------------------------------------------------------------ mine ----

struct MineOpts {
    root: PathBuf,
    out: PathBuf,
    check: bool,
}

fn run_mine_cli(args: &[String]) -> Result<bool, String> {
    let opts = parse_mine_opts(args).map_err(|e| format!("{e}\n\n{USAGE}"))?;
    run_mine(&opts)
}

fn parse_mine_opts(args: &[String]) -> Result<MineOpts, String> {
    let mut opts = MineOpts {
        root: default_root(),
        out: PathBuf::from("ci/mined_templates.txt"),
        check: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_arg =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--root" => opts.root = PathBuf::from(value_arg("--root")?),
            "--out" => opts.out = PathBuf::from(value_arg("--out")?),
            "--check" => opts.check = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// Mines the full deterministic corpus: every gold split of the four tiny
/// benchmark generators, then the synthetic seed corpus. Fixed seeds end to
/// end, so two runs of `mine` produce byte-identical output — which is
/// exactly what `--check` gates in CI.
fn mine_corpus() -> uctr::mining::Miner {
    use corpora::{feverous_like, semtab_like, tatqa_like, wikisql_like, CorpusConfig};

    let mut miner = uctr::mining::Miner::new();
    let cfg = CorpusConfig::tiny();
    for bench in [wikisql_like(cfg), feverous_like(cfg), tatqa_like(cfg), semtab_like(cfg)] {
        miner.mine_samples(&bench.gold.train);
        miner.mine_samples(&bench.gold.dev);
        miner.mine_samples(&bench.gold.test);
    }
    miner.mine_synthetic_corpus();
    miner
}

fn run_mine(opts: &MineOpts) -> Result<bool, String> {
    use uctr::telemetry::KindSlot;

    let miner = mine_corpus();
    let stats = miner.stats();
    for kind in [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith] {
        let k = stats.kind(kind);
        println!(
            "xtask mine: {:<5} {} mined, {} duplicate(s), {} equivalent pruned, {} rejected, \
             {} degenerate, {} over budget, {} parse failure(s)",
            kind.name(),
            k.mined,
            k.duplicates,
            k.equivalent,
            k.rejected,
            k.degenerate,
            k.over_budget,
            k.parse_failures,
        );
    }
    println!("xtask mine: {} template(s) total", stats.mined_total());

    let lines = miner.corpus_lines();
    let out = resolve(&opts.root, &opts.out);
    if opts.check {
        let committed = std::fs::read_to_string(&out)
            .map_err(|e| format!("cannot read {}: {e}", out.display()))?;
        if committed == lines {
            println!("xtask mine: {} is up to date — determinism ok", out.display());
            Ok(true)
        } else {
            eprintln!(
                "xtask mine: {} DIFFERS from the regenerated corpus — rerun \
                 `cargo run -p xtask -- mine` and commit the result",
                out.display()
            );
            Ok(false)
        }
    } else {
        std::fs::write(&out, &lines).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("wrote mined corpus {}", out.display());
        Ok(true)
    }
}

fn default_health_comment() -> String {
    "Per-kind per-diagnostic-code counts over the builtin template bank, measured by \
     `cargo run -p xtask -- audit-templates`. CI compares two-sided: counts above these \
     values mean an ill-typed template slipped in; counts below mean templates were \
     fixed and this file must be regenerated with --write. Missing entries are zero. \
     The `equivalence` group is owned by `cargo run -p xtask -- audit-equivalence` \
     (canonical classes, pruned equivalents and differential-witness counts over \
     the mined bank) and is ignored/preserved by audit-templates."
        .to_string()
}
