//! Cross-template equivalence audit (`cargo run -p xtask -- audit-equivalence`).
//!
//! Rebuilds the deterministic mined corpus, asks [`uctr::analysis::EquivalenceReport`]
//! for the canonical-form equivalence classes over the resulting bank and
//! the differential verification of every miner merge. The scalar results are ratcheted
//! two-sided under the `equivalence` counts group of
//! `ci/template_health.json` — the same file `audit-templates` maintains,
//! which ignores this group and leaves it intact on `--write`.
//!
//! On top of the ratchet sits one **hard gate**: `unverified_merges` must
//! be zero. A merge the differential witness could not confirm (any
//! disagreement, or zero productive cells) fails the audit regardless of
//! what the health file records.

use std::collections::BTreeMap;

use serde::Value;
use uctr::analysis::EquivalenceReport;
use uctr::KindSlot;

use crate::ratchet::{Counts, RatchetStatus};

/// The counts group inside `ci/template_health.json` owned by this audit.
pub const GROUP: &str = "equivalence";

/// The kind prefixes canonical keys carry, in `KindSlot` order.
const CANON_PREFIXES: [&str; 3] = ["sql:", "lf:", "ae:"];

/// Classes per kind, recovered from the kind-prefixed canonical keys.
pub fn classes_per_kind(report: &EquivalenceReport) -> [usize; 3] {
    let mut out = [0usize; 3];
    for class in &report.classes {
        for (slot, prefix) in CANON_PREFIXES.iter().enumerate() {
            if class.canonical.starts_with(prefix) {
                out[slot] += 1;
            }
        }
    }
    out
}

/// The ratchet key space for the `equivalence` group. Every value is a
/// deterministic function of the mined corpus, so the two-sided compare
/// doubles as a determinism gate on the whole analyzer stack.
pub fn counts(report: &EquivalenceReport) -> Counts {
    let per_kind = classes_per_kind(report);
    let mut group = BTreeMap::new();
    group.insert("classes".to_string(), report.class_count() as i64);
    group.insert("merged_classes".to_string(), report.merged_classes() as i64);
    group.insert("verified_merges".to_string(), report.verified_merges as i64);
    for kind in [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith] {
        group.insert(format!("classes_{}", kind.name()), per_kind[kind as usize] as i64);
        group.insert(
            format!("pruned_{}", kind.name()),
            report.pruned_per_kind[kind as usize] as i64,
        );
    }
    let mut counts = Counts::new();
    counts.insert(GROUP.to_string(), group);
    counts
}

/// Builds the machine-readable JSON report (stable key order).
/// `rep_signatures[i]` is the signature of bank template `i`.
pub fn json_report(
    report: &EquivalenceReport,
    rep_signatures: &[String],
    ratchet: Option<&RatchetStatus>,
) -> String {
    let per_kind = classes_per_kind(report);
    let kinds = Value::Obj(
        [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith]
            .iter()
            .map(|&kind| {
                (
                    kind.name().to_string(),
                    Value::Obj(vec![
                        ("classes".to_string(), Value::Int(per_kind[kind as usize] as i64)),
                        (
                            "pruned".to_string(),
                            Value::Int(report.pruned_per_kind[kind as usize] as i64),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    // Only the multi-member classes carry information worth serializing;
    // singletons are the bank itself.
    let merged = Value::Arr(
        report
            .classes
            .iter()
            .filter(|c| !c.pruned.is_empty())
            .map(|c| {
                Value::Obj(vec![
                    (
                        "representative".to_string(),
                        Value::Str(
                            rep_signatures
                                .get(c.representative)
                                .cloned()
                                .unwrap_or_else(|| format!("#{}", c.representative)),
                        ),
                    ),
                    ("canonical".to_string(), Value::Str(c.canonical.clone())),
                    (
                        "pruned".to_string(),
                        Value::Arr(c.pruned.iter().map(|s| Value::Str(s.clone())).collect()),
                    ),
                ])
            })
            .collect(),
    );
    let mut root = vec![
        ("tool".to_string(), Value::Str("xtask audit-equivalence".to_string())),
        ("schema_version".to_string(), Value::Int(1)),
        ("classes".to_string(), Value::Int(report.class_count() as i64)),
        ("merged_classes".to_string(), Value::Int(report.merged_classes() as i64)),
        ("pruned_total".to_string(), Value::Int(report.pruned_total() as i64)),
        ("verified_merges".to_string(), Value::Int(report.verified_merges as i64)),
        ("unverified_merges".to_string(), Value::Int(report.unverified_merges as i64)),
        ("kinds".to_string(), kinds),
        ("merged".to_string(), merged),
        (
            "failures".to_string(),
            Value::Arr(report.failures.iter().map(|f| Value::Str(f.clone())).collect()),
        ),
    ];
    if let Some(status) = ratchet {
        root.push(("ratchet".to_string(), status.json()));
    }
    let mut text =
        serde_json::to_string_pretty(&Value::Obj(root)).expect("report JSON always renders");
    text.push('\n');
    text
}

/// Renders the class/pruned table for `$GITHUB_STEP_SUMMARY`.
pub fn markdown_summary(report: &EquivalenceReport, ratchet: Option<&RatchetStatus>) -> String {
    let per_kind = classes_per_kind(report);
    let mut md =
        String::from("## xtask audit-equivalence — canonical classes & equivalence pruning\n\n");
    md.push_str("| kind | classes | pruned equivalents |\n|---|---:|---:|\n");
    for kind in [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith] {
        md.push_str(&format!(
            "| `{}` | {} | {} |\n",
            kind.name(),
            per_kind[kind as usize],
            report.pruned_per_kind[kind as usize]
        ));
    }
    md.push_str(&format!(
        "\n{} class(es), {} absorbed at least one pruned template; {} template(s) pruned, \
         {} merge(s) differentially verified.\n",
        report.class_count(),
        report.merged_classes(),
        report.pruned_total(),
        report.verified_merges,
    ));
    if report.unverified_merges == 0 {
        md.push_str("\nDifferential witness gate: **ok** — every merge verified.\n");
    } else {
        md.push_str(&format!(
            "\nDifferential witness gate: **FAILED** — {} unverified merge(s):\n\n",
            report.unverified_merges
        ));
        for f in &report.failures {
            md.push_str(&format!("- `{f}`\n"));
        }
    }
    if let Some(status) = ratchet {
        if status.regressions.is_empty() && status.stale.is_empty() {
            md.push_str(&format!(
                "\nHealth file `{}` (group `{GROUP}`): **ok** — counts match exactly.\n",
                status.path
            ));
        } else {
            md.push_str(&format!(
                "\nHealth file `{}` (group `{GROUP}`): **FAILED**\n\n",
                status.path
            ));
            for d in &status.regressions {
                md.push_str(&format!(
                    "- regression: `{}`/`{}` was {}, now {}\n",
                    d.group, d.key, d.recorded, d.current
                ));
            }
            for d in &status.stale {
                md.push_str(&format!(
                    "- stale: `{}`/`{}` was {}, now {} (re-run with --write)\n",
                    d.group, d.key, d.recorded, d.current
                ));
            }
        }
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use uctr::analysis::EquivalenceClass;

    fn sample_report() -> EquivalenceReport {
        EquivalenceReport {
            classes: vec![
                EquivalenceClass {
                    representative: 0,
                    canonical: "sql: select c1 from w".to_string(),
                    pruned: vec![],
                },
                EquivalenceClass {
                    representative: 1,
                    canonical: "ae: add( cell1 , cell2 )".to_string(),
                    pruned: vec!["add( the B of A , the D of C )".to_string()],
                },
            ],
            pruned_per_kind: [0, 0, 1],
            verified_merges: 1,
            unverified_merges: 0,
            failures: vec![],
        }
    }

    #[test]
    fn counts_cover_every_ratchet_key_under_the_equivalence_group() {
        let c = counts(&sample_report());
        assert_eq!(c.len(), 1, "exactly one group");
        let group = &c[GROUP];
        assert_eq!(group["classes"], 2);
        assert_eq!(group["classes_sql"], 1);
        assert_eq!(group["classes_arith"], 1);
        assert_eq!(group["classes_logic"], 0);
        assert_eq!(group["merged_classes"], 1);
        assert_eq!(group["pruned_arith"], 1);
        assert_eq!(group["pruned_sql"], 0);
        assert_eq!(group["verified_merges"], 1);
    }

    #[test]
    fn json_report_names_representatives_and_serializes_merged_classes_only() {
        let reps = vec!["select c1 from w".to_string(), "add( cell1 , cell2 )".to_string()];
        let json = json_report(&sample_report(), &reps, None);
        assert!(json.contains("\"tool\": \"xtask audit-equivalence\""));
        assert!(json.contains("\"unverified_merges\": 0"));
        assert!(json.contains("add( cell1 , cell2 )"), "merged class representative is named");
        assert!(!json.contains("select c1 from w\","), "singleton classes are not serialized");
    }

    #[test]
    fn markdown_summary_renders_the_gate_verdict() {
        let ok = markdown_summary(&sample_report(), None);
        assert!(ok.contains("| `arith` | 1 | 1 |"));
        assert!(ok.contains("Differential witness gate: **ok**"));

        let mut bad = sample_report();
        bad.unverified_merges = 1;
        bad.failures.push("arith: a => b: table 0 seed 0 mismatch".to_string());
        let md = markdown_summary(&bad, None);
        assert!(md.contains("**FAILED** — 1 unverified merge(s)"));
        assert!(md.contains("table 0 seed 0 mismatch"));
    }
}
