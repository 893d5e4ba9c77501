//! Static template health audit (`cargo run -p xtask -- audit-templates`).
//!
//! Runs the uctr template typechecker ([`uctr::analyze_text`]) over the
//! builtin template bank plus any `--mined` corpus files, without touching
//! a table: every template is parsed, typechecked, and reduced to its
//! [`uctr::SchemaRequirement`]. Diagnostic counts per `(kind, code)` are
//! ratcheted in `ci/template_health.json` with the two-sided compare in
//! [`crate::ratchet`]: a new diagnostic is a regression, a fixed one must
//! be locked in with `--write`.
//!
//! Mined corpus files are plain text, one template per line in the form
//! `kind: template-source` (kind ∈ `sql` | `logic` | `arith`); blank lines
//! and `#` comments are ignored.
//!
//! Beyond the typecheck, the audit surfaces the abstract interpreter's
//! degeneracy convictions (the **A-rule family**, counted into the same
//! two-sided ratchet key space as the type diagnostics):
//!
//! * **A001** — constant output: the program's answer or label is fixed
//!   before any table is read (always-true/always-false claim, echo
//!   select, provably empty result set);
//! * **A002** — dead branch: one side of a conjunction/disjunction or an
//!   intermediate comparison is statically decided;
//! * **A003** — vacuous predicate: an atom that reads no data (self
//!   comparison, literal-vs-literal).

use std::collections::BTreeMap;

use serde::Value;
use uctr::{analyze_text, AnalyzedTemplate, KindSlot, SchemaRequirement};

use crate::ratchet::{Counts, RatchetStatus};

/// One analyzed template with its provenance.
pub struct AuditedTemplate {
    /// `builtin`, or the mined corpus path it was read from.
    pub source: String,
    pub analysis: AnalyzedTemplate,
}

/// The full audit result: every template plus the ratchet key space
/// (kind name → diagnostic code → count).
pub struct AuditOutcome {
    pub templates: Vec<AuditedTemplate>,
    pub counts: Counts,
}

impl AuditOutcome {
    pub fn total(&self) -> usize {
        self.templates.len()
    }

    pub fn clean_total(&self) -> usize {
        self.templates.iter().filter(|t| t.analysis.is_clean()).count()
    }

    pub fn degenerate_total(&self) -> usize {
        self.templates.iter().filter(|t| t.analysis.is_degenerate()).count()
    }

    pub fn diagnostics_total(&self) -> i64 {
        self.counts.values().flat_map(|per_code| per_code.values()).sum()
    }
}

/// The group label under which the builtin bank is audited; everything
/// else is a mined corpus.
pub const BUILTIN_SOURCE: &str = "builtin";

/// Per-kind counts of *clean, non-degenerate* mined (non-builtin)
/// templates, keyed for the grow-only `floors` section of
/// `ci/template_health.json` (group `mined`, key = kind name). Ill-typed
/// and A-rule-convicted mined templates are excluded — they are already
/// ratcheted downward through the diagnostic counts.
pub fn mined_counts(outcome: &AuditOutcome) -> Counts {
    let mut counts = Counts::new();
    for t in &outcome.templates {
        if t.source == BUILTIN_SOURCE || !t.analysis.is_clean() || t.analysis.is_degenerate() {
            continue;
        }
        *counts
            .entry("mined".to_string())
            .or_default()
            .entry(t.analysis.kind.name().to_string())
            .or_insert(0) += 1;
    }
    counts
}

/// The builtin bank as `(kind, source)` pairs — the same sources
/// `TemplateBank::builtin_checked` admits.
pub fn builtin_templates() -> Vec<(KindSlot, String)> {
    let mut out = Vec::new();
    for (kind, sources) in [
        (KindSlot::Sql, uctr::BUILTIN_SQL),
        (KindSlot::Logic, uctr::BUILTIN_LOGIC),
        (KindSlot::Arith, uctr::BUILTIN_ARITH),
    ] {
        out.extend(sources.iter().map(|s| (kind, (*s).to_string())));
    }
    out
}

/// Parses a mined corpus file (`kind: template` per line).
pub fn parse_mined(text: &str) -> Result<Vec<(KindSlot, String)>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (kind, template) = line
            .split_once(':')
            .ok_or_else(|| format!("line {}: expected `kind: template`", idx + 1))?;
        let kind = match kind.trim() {
            "sql" => KindSlot::Sql,
            "logic" => KindSlot::Logic,
            "arith" => KindSlot::Arith,
            other => {
                return Err(format!(
                    "line {}: unknown kind `{other}` (expected sql, logic, or arith)",
                    idx + 1
                ))
            }
        };
        out.push((kind, template.trim().to_string()));
    }
    Ok(out)
}

/// Analyzes every template in every `(source-label, templates)` group.
pub fn audit(groups: &[(String, Vec<(KindSlot, String)>)]) -> AuditOutcome {
    let mut templates = Vec::new();
    let mut counts: Counts = BTreeMap::new();
    for (source, entries) in groups {
        for (kind, text) in entries {
            let analysis = analyze_text(*kind, text);
            let per_code = counts.entry(kind.name().to_string()).or_default();
            for issue in analysis.issues.iter().chain(&analysis.degeneracies) {
                *per_code.entry(issue.code.to_string()).or_insert(0) += 1;
            }
            templates.push(AuditedTemplate { source: source.clone(), analysis });
        }
    }
    AuditOutcome { templates, counts }
}

/// Per-kind rollup used by both report emitters.
struct KindStats {
    kind: &'static str,
    total: usize,
    clean: usize,
    degenerate: usize,
    diagnostics: i64,
    need_numbers: usize,
}

fn kind_stats(outcome: &AuditOutcome) -> Vec<KindStats> {
    [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith]
        .into_iter()
        .map(|kind| {
            let of_kind: Vec<_> =
                outcome.templates.iter().filter(|t| t.analysis.kind == kind).collect();
            KindStats {
                kind: kind.name(),
                total: of_kind.len(),
                clean: of_kind.iter().filter(|t| t.analysis.is_clean()).count(),
                degenerate: of_kind.iter().filter(|t| t.analysis.is_degenerate()).count(),
                diagnostics: outcome
                    .counts
                    .get(kind.name())
                    .map(|per_code| per_code.values().sum())
                    .unwrap_or(0),
                need_numbers: of_kind
                    .iter()
                    .filter(|t| needs_numbers(&t.analysis.requirement))
                    .count(),
            }
        })
        .filter(|s| s.total > 0)
        .collect()
}

/// The abstract-interpretation rule family, in report order.
pub const A_RULES: [&str; 3] = ["A001", "A002", "A003"];

fn needs_numbers(req: &SchemaRequirement) -> bool {
    req.needs_number_column || req.min_number_cols > 0
}

/// Builds the machine-readable JSON report (stable key order).
pub fn json_report(outcome: &AuditOutcome, ratchet: Option<&RatchetStatus>) -> String {
    let counts = Value::Obj(
        outcome
            .counts
            .iter()
            .map(|(kind, per_code)| {
                (
                    kind.clone(),
                    Value::Obj(
                        per_code.iter().map(|(code, &n)| (code.clone(), Value::Int(n))).collect(),
                    ),
                )
            })
            .collect(),
    );
    let templates = Value::Arr(
        outcome
            .templates
            .iter()
            .map(|t| {
                let req = &t.analysis.requirement;
                let issue_objs = |issues: &[uctr::TemplateIssue]| {
                    Value::Arr(
                        issues
                            .iter()
                            .map(|i| {
                                Value::Obj(vec![
                                    ("code".to_string(), Value::Str(i.code.to_string())),
                                    ("locus".to_string(), Value::Str(i.locus.clone())),
                                    ("message".to_string(), Value::Str(i.message.clone())),
                                ])
                            })
                            .collect(),
                    )
                };
                Value::Obj(vec![
                    ("source".to_string(), Value::Str(t.source.clone())),
                    ("kind".to_string(), Value::Str(t.analysis.kind.name().to_string())),
                    ("template".to_string(), Value::Str(t.analysis.signature.clone())),
                    ("clean".to_string(), Value::Bool(t.analysis.is_clean())),
                    ("degenerate".to_string(), Value::Bool(t.analysis.is_degenerate())),
                    ("survival".to_string(), Value::Str(format!("{:.4}", t.analysis.survival))),
                    (
                        "requirement".to_string(),
                        Value::Obj(vec![
                            ("min_rows".to_string(), Value::Int(req.min_rows as i64)),
                            ("min_cols".to_string(), Value::Int(req.min_cols as i64)),
                            ("min_number_cols".to_string(), Value::Int(req.min_number_cols as i64)),
                            ("min_date_cols".to_string(), Value::Int(req.min_date_cols as i64)),
                            ("min_text_cols".to_string(), Value::Int(req.min_text_cols as i64)),
                            (
                                "min_addressable_cells".to_string(),
                                Value::Int(req.min_addressable_cells as i64),
                            ),
                            (
                                "min_col_numeric_values".to_string(),
                                Value::Int(req.min_col_numeric_values as i64),
                            ),
                            (
                                "needs_number_column".to_string(),
                                Value::Bool(req.needs_number_column),
                            ),
                        ]),
                    ),
                    ("issues".to_string(), issue_objs(&t.analysis.issues)),
                    ("degeneracies".to_string(), issue_objs(&t.analysis.degeneracies)),
                ])
            })
            .collect(),
    );
    let mut root = vec![
        ("tool".to_string(), Value::Str("xtask audit-templates".to_string())),
        ("schema_version".to_string(), Value::Int(1)),
        ("templates_total".to_string(), Value::Int(outcome.total() as i64)),
        ("templates_clean".to_string(), Value::Int(outcome.clean_total() as i64)),
        ("diagnostics_total".to_string(), Value::Int(outcome.diagnostics_total())),
        ("counts".to_string(), counts),
        ("templates".to_string(), templates),
    ];
    if let Some(status) = ratchet {
        root.push(("ratchet".to_string(), status.json()));
    }
    let mut text =
        serde_json::to_string_pretty(&Value::Obj(root)).expect("report JSON always renders");
    text.push('\n');
    text
}

/// Renders the per-kind health table for `$GITHUB_STEP_SUMMARY`.
pub fn markdown_summary(outcome: &AuditOutcome, ratchet: Option<&RatchetStatus>) -> String {
    let mut md =
        String::from("## xtask audit-templates — template typecheck & schema feasibility\n\n");
    md.push_str("| kind | templates | clean | degenerate | diagnostics | need numeric column |\n");
    md.push_str("|---|---:|---:|---:|---:|---:|\n");
    for s in kind_stats(outcome) {
        md.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            s.kind, s.total, s.clean, s.degenerate, s.diagnostics, s.need_numbers
        ));
    }
    md.push_str(&format!(
        "\n{} template(s) analyzed, {} clean, {} degenerate, {} diagnostic(s).\n",
        outcome.total(),
        outcome.clean_total(),
        outcome.degenerate_total(),
        outcome.diagnostics_total()
    ));
    // The A-rule family always renders, zeros included: a reviewer should
    // see "A002: 0" rather than wonder whether the rule ran.
    md.push_str("\n### Abstract-interpretation rules\n\n");
    md.push_str("| rule | meaning | count |\n|---|---|---:|\n");
    let a_rule_total = |code: &str| -> i64 {
        outcome.counts.values().filter_map(|per_code| per_code.get(code)).sum()
    };
    for (code, meaning) in A_RULES.iter().zip([
        "constant output / decided claim / empty result",
        "dead branch",
        "vacuous predicate",
    ]) {
        md.push_str(&format!("| `{code}` | {meaning} | {} |\n", a_rule_total(code)));
    }
    if outcome.diagnostics_total() > 0 {
        md.push_str("\n| kind | code | count |\n|---|---|---:|\n");
        for (kind, per_code) in &outcome.counts {
            for (code, n) in per_code {
                if *n != 0 {
                    md.push_str(&format!("| `{kind}` | `{code}` | {n} |\n"));
                }
            }
        }
    }
    if let Some(status) = ratchet {
        if status.regressions.is_empty() && status.stale.is_empty() {
            md.push_str(&format!(
                "\nHealth file `{}`: **ok** — counts match exactly.\n",
                status.path
            ));
        } else {
            md.push_str(&format!("\nHealth file `{}`: **FAILED**\n\n", status.path));
            for d in &status.regressions {
                md.push_str(&format!(
                    "- regression: `{}`/`{}` rose {} → {}\n",
                    d.group, d.key, d.recorded, d.current
                ));
            }
            for d in &status.stale {
                md.push_str(&format!(
                    "- stale: `{}`/`{}` fell {} → {} (re-run with --write)\n",
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

    #[test]
    fn builtin_bank_audits_clean() {
        let outcome = audit(&[("builtin".to_string(), builtin_templates())]);
        assert_eq!(outcome.clean_total(), outcome.total());
        assert_eq!(outcome.diagnostics_total(), 0);
        assert!(outcome.total() > 40, "builtin bank shrank to {}", outcome.total());
    }

    #[test]
    fn mined_lines_parse_and_reject() {
        let good = "# comment\n\nsql: select count ( * ) from w\nlogic: eq { count { all_rows } ; val1 }\narith: add( val1 , val2 )\n";
        let parsed = parse_mined(good).unwrap_or_else(|e| panic!("parse_mined: {e}"));
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].0, KindSlot::Sql);
        assert_eq!(parsed[2].1, "add( val1 , val2 )");
        assert!(parse_mined("prose without a kind prefix\n").is_err());
        assert!(parse_mined("prolog: fact(x)\n").is_err());
    }

    #[test]
    fn ill_typed_mined_templates_are_counted_by_code() {
        let mined = vec![
            (KindSlot::Logic, "count { all_rows }".to_string()), // non-boolean root
            (KindSlot::Arith, "add( val1".to_string()),          // parse error
        ];
        let outcome = audit(&[("mined.txt".to_string(), mined)]);
        assert_eq!(outcome.total(), 2);
        assert_eq!(outcome.clean_total(), 0);
        let logic = outcome.counts.get("logic").and_then(|c| c.get("non-boolean-root"));
        assert_eq!(logic.copied(), Some(1), "{:?}", outcome.counts);
        let arith = outcome.counts.get("arith").and_then(|c| c.get(uctr::PARSE_ERROR));
        assert_eq!(arith.copied(), Some(1), "{:?}", outcome.counts);
    }

    #[test]
    fn mined_counts_exclude_builtins_and_ill_typed_templates() {
        let mined = vec![
            (KindSlot::Sql, "select c1 from w".to_string()),
            (KindSlot::Arith, "table_sum( c1 )".to_string()),
            (KindSlot::Logic, "count { all_rows }".to_string()), // ill-typed
        ];
        let outcome = audit(&[
            (BUILTIN_SOURCE.to_string(), builtin_templates()),
            ("mined.txt".to_string(), mined),
        ]);
        let counts = mined_counts(&outcome);
        let mined = counts.get("mined").cloned().unwrap_or_default();
        assert_eq!(mined.get("sql").copied(), Some(1));
        assert_eq!(mined.get("arith").copied(), Some(1));
        assert_eq!(mined.get("logic").copied(), None, "ill-typed templates are not counted");
    }

    #[test]
    fn reports_render_without_ratchet() {
        let outcome = audit(&[("builtin".to_string(), builtin_templates())]);
        let json = json_report(&outcome, None);
        assert!(json.contains("\"templates_total\""));
        assert!(json.contains("\"needs_number_column\""));
        assert!(json.contains("\"min_col_numeric_values\""));
        assert!(json.contains("\"survival\""));
        let md = markdown_summary(&outcome, None);
        assert!(md.contains("| `sql` |"), "{md}");
        assert!(md.contains("clean"), "{md}");
        // The A-rule table renders with explicit zero rows.
        for code in A_RULES {
            assert!(md.contains(&format!("| `{code}` |")), "{md}");
        }
    }

    #[test]
    fn builtin_bank_has_no_degeneracies() {
        let outcome = audit(&[("builtin".to_string(), builtin_templates())]);
        for t in &outcome.templates {
            assert!(
                !t.analysis.is_degenerate(),
                "builtin template convicted: {} {:?}",
                t.analysis.signature,
                t.analysis.degeneracies
            );
        }
        assert_eq!(outcome.degenerate_total(), 0);
    }

    #[test]
    fn degenerate_mined_templates_are_counted_under_a_rules() {
        let mined = vec![
            (KindSlot::Sql, "select c1 from w where c1 = val1".to_string()), // echo: A001
            (
                KindSlot::Logic,
                "greater { max { all_rows ; c1 } ; max { all_rows ; c1 } }".to_string(),
            ), // self-comparison: always false
            (KindSlot::Arith, "subtract( the c1 of r1 , the c1 of r1 )".to_string()), // const 0
        ];
        let outcome = audit(&[("mined.txt".to_string(), mined)]);
        assert_eq!(outcome.degenerate_total(), 3, "{:?}", outcome.counts);
        // Degeneracies never contaminate the typecheck clean count.
        assert_eq!(outcome.clean_total(), 3);
        for kind in ["sql", "logic", "arith"] {
            let a001 = outcome.counts.get(kind).and_then(|c| c.get("A001"));
            assert!(a001.is_some(), "{kind} missing A001: {:?}", outcome.counts);
        }
        // Convicted templates are excluded from the grow-only mined floors.
        assert!(!mined_counts(&outcome).contains_key("mined"), "{:?}", mined_counts(&outcome));
        let json = json_report(&outcome, None);
        assert!(json.contains("\"degenerate\": true"), "{json}");
        let md = markdown_summary(&outcome, None);
        assert!(md.contains("| `A001` |"), "{md}");
    }
}
