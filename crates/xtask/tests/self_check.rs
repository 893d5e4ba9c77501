//! Workspace self-check: live template audits must agree with the committed
//! health file. These are the same comparisons the CI `template-audit` and
//! `mine-and-audit` jobs perform, so `cargo test` catches a stale
//! `ci/template_health.json` before CI does.

use std::path::Path;

#[test]
fn builtin_templates_match_committed_health_file() {
    // Same comparison as the CI `audit-templates --check` step: the builtin
    // bank's static diagnostics must agree with ci/template_health.json.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let outcome =
        xtask::audit::audit(&[("builtin".to_string(), xtask::audit::builtin_templates())]);
    let mut health = xtask::ratchet::load(&root.join("ci/template_health.json")).unwrap();
    // The `equivalence` group is audit-equivalence's; this comparison
    // covers only the typecheck diagnostics.
    health.counts.remove(xtask::equivalence::GROUP);
    let (regressions, stale) = xtask::ratchet::compare(&outcome.counts, &health);
    assert!(
        regressions.is_empty(),
        "builtin templates picked up new diagnostics vs ci/template_health.json: {regressions:?}"
    );
    assert!(
        stale.is_empty(),
        "ci/template_health.json is stale — regenerate with \
         `cargo run -p xtask -- audit-templates --write`: {stale:?}"
    );
}

#[test]
fn committed_mined_corpus_is_audit_clean_and_matches_the_floors() {
    // Same comparison as the CI `mine-and-audit` job: the committed mined
    // corpus must parse, audit with zero diagnostics, and cover the
    // grow-only per-kind floors recorded in ci/template_health.json.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("ci/mined_templates.txt")).unwrap();
    let entries = xtask::audit::parse_mined(&text).unwrap();
    assert!(entries.len() >= 1000, "mined corpus shrank below 1000 templates: {}", entries.len());
    let outcome = xtask::audit::audit(&[
        ("builtin".to_string(), xtask::audit::builtin_templates()),
        ("ci/mined_templates.txt".to_string(), entries),
    ]);
    assert_eq!(
        outcome.diagnostics_total(),
        0,
        "committed mined corpus must audit clean: {:?}",
        outcome.counts
    );
    let health = xtask::ratchet::load(&root.join("ci/template_health.json")).unwrap();
    let mined = xtask::audit::mined_counts(&outcome);
    let (regressions, stale) = xtask::ratchet::compare_floors(&mined, &health);
    assert!(
        regressions.is_empty(),
        "mined corpus fell below its grow-only floors — the corpus may only grow: {regressions:?}"
    );
    assert!(
        stale.is_empty(),
        "ci/template_health.json floors are stale — lock in the gain with \
         `cargo run -p xtask -- audit-templates --mined ci/mined_templates.txt --write`: {stale:?}"
    );
}
