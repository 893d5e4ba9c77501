//! Count ratchets for the template audits (`ci/template_health.json`).
//!
//! CI compares the live measurement against a committed bound and fails on
//! regression, the same gate pattern as `ci/acceptance_floor.json`. Here the
//! bound is a count per `(group, key)` and the check is two-sided:
//!
//! * count **above** the recorded value → a regression (for example a new
//!   template diagnostic); fix it.
//! * count **below** the recorded value → the file is stale; regenerate it
//!   with the audit's `--write` so the improvement can never regress
//!   silently.
//!
//! Missing `(group, key)` pairs are implicitly zero in both directions, so
//! entries never need seeding: the first hit in a clean group is a
//! regression from 0.
//!
//! A ratchet file may additionally carry a `floors` section with the same
//! `(group, key)` shape but the *opposite* direction ([`compare_floors`]):
//! counts may only grow. `ci/template_health.json` uses it to pin the
//! per-kind mined-template counts — the mined corpus may gain templates but
//! never silently lose them.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use serde::Value;

pub type Counts = BTreeMap<String, BTreeMap<String, i64>>;

#[derive(Debug, Clone, Default)]
pub struct Ratchet {
    pub comment: String,
    pub counts: Counts,
    /// Grow-only counts (see [`compare_floors`]); empty in ratchet files
    /// that predate the section, and omitted from [`render`] when empty.
    pub floors: Counts,
}

/// One `(group, key)` mismatch between the measurement and the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diff {
    pub group: String,
    pub key: String,
    pub recorded: i64,
    pub current: i64,
}

/// Ratchet comparison outcome carried into an audit's report.
pub struct RatchetStatus {
    pub path: String,
    pub regressions: Vec<Diff>,
    pub stale: Vec<Diff>,
}

impl RatchetStatus {
    /// The `ratchet` object of an audit's JSON report.
    pub fn json(&self) -> Value {
        let status = if !self.regressions.is_empty() {
            "regressions"
        } else if !self.stale.is_empty() {
            "stale"
        } else {
            "ok"
        };
        Value::Obj(vec![
            ("path".to_string(), Value::Str(self.path.clone())),
            ("status".to_string(), Value::Str(status.to_string())),
        ])
    }
}

pub fn load(path: &Path) -> Result<Ratchet, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read ratchet {}: {e}", path.display()))?;
    let value: Value = serde_json::parse_value(&text)
        .map_err(|e| format!("ratchet {} is not valid JSON: {e}", path.display()))?;
    let obj = value.as_obj().ok_or("ratchet root must be a JSON object")?;
    let mut ratchet = Ratchet::default();
    for (key, val) in obj {
        match key.as_str() {
            "comment" => {
                ratchet.comment = val.as_str().unwrap_or_default().to_string();
            }
            "counts" => ratchet.counts = parse_counts(val, "counts")?,
            "floors" => ratchet.floors = parse_counts(val, "floors")?,
            other => return Err(format!("ratchet has unknown top-level key `{other}`")),
        }
    }
    Ok(ratchet)
}

fn parse_counts(val: &Value, section: &str) -> Result<Counts, String> {
    let mut counts = Counts::new();
    let groups = val.as_obj().ok_or_else(|| format!("ratchet `{section}` must be an object"))?;
    for (group, entries) in groups {
        let entries = entries
            .as_obj()
            .ok_or_else(|| format!("ratchet {section} for `{group}` must be an object"))?;
        let mut per_key = BTreeMap::new();
        for (key, n) in entries {
            let n = n
                .as_f64()
                .ok_or_else(|| format!("ratchet {section} {group}/{key} must be a number"))?
                as i64;
            per_key.insert(key.clone(), n);
        }
        counts.insert(group.clone(), per_key);
    }
    Ok(counts)
}

/// Renders the ratchet deterministically (sorted keys, trailing newline).
/// The `floors` section is emitted only when it carries a non-zero entry,
/// so pre-existing two-sided ratchet files render byte-identically.
pub fn render(ratchet: &Ratchet) -> String {
    let mut root = vec![
        ("comment".to_string(), Value::Str(ratchet.comment.clone())),
        ("counts".to_string(), render_counts(&ratchet.counts)),
    ];
    if ratchet.floors.values().any(|entries| entries.values().any(|&n| n != 0)) {
        root.push(("floors".to_string(), render_counts(&ratchet.floors)));
    }
    let mut text =
        serde_json::to_string_pretty(&Value::Obj(root)).expect("ratchet JSON always renders");
    text.push('\n');
    text
}

fn render_counts(counts: &Counts) -> Value {
    Value::Obj(
        counts
            .iter()
            .filter(|(_, entries)| entries.values().any(|&n| n != 0))
            .map(|(group, entries)| {
                let per_key = entries
                    .iter()
                    .filter(|(_, &n)| n != 0)
                    .map(|(key, &n)| (key.clone(), Value::Int(n)))
                    .collect();
                (group.clone(), Value::Obj(per_key))
            })
            .collect(),
    )
}

/// Compares a measurement against the recorded ratchet.
/// Returns `(regressions, stale)`.
pub fn compare(current: &Counts, ratchet: &Ratchet) -> (Vec<Diff>, Vec<Diff>) {
    diff(current, &ratchet.counts, Ordering::Greater)
}

/// Compares a measurement against the recorded grow-only floors: the
/// inverse direction of [`compare`]. Returns `(regressions, stale)` —
/// a count **below** its floor is a regression (something was lost); a
/// count **above** it is stale (the floor should be raised with `--write`
/// so the gain can never regress silently). Missing pairs are implicitly
/// zero on both sides.
pub fn compare_floors(current: &Counts, ratchet: &Ratchet) -> (Vec<Diff>, Vec<Diff>) {
    diff(current, &ratchet.floors, Ordering::Less)
}

/// Every `(group, key)` of either side, in sorted order, whose counts
/// differ: a regression when `current` compares to `recorded` as `worse`,
/// stale otherwise.
fn diff(current: &Counts, recorded: &Counts, worse: Ordering) -> (Vec<Diff>, Vec<Diff>) {
    let count = |counts: &Counts, group: &str, key: &str| {
        counts.get(group).and_then(|r| r.get(key)).copied().unwrap_or(0)
    };
    let keys: BTreeSet<(&String, &String)> = current
        .iter()
        .chain(recorded)
        .flat_map(|(group, entries)| entries.keys().map(move |key| (group, key)))
        .collect();
    let mut regressions = Vec::new();
    let mut stale = Vec::new();
    for (group, key) in keys {
        let (cur, rec) = (count(current, group, key), count(recorded, group, key));
        let diff = Diff { group: group.clone(), key: key.clone(), recorded: rec, current: cur };
        match cur.cmp(&rec) {
            Ordering::Equal => {}
            order if order == worse => regressions.push(diff),
            _ => stale.push(diff),
        }
    }
    (regressions, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(&str, &str, i64)]) -> Counts {
        let mut c: Counts = BTreeMap::new();
        for &(group, key, n) in entries {
            c.entry(group.to_string()).or_default().insert(key.to_string(), n);
        }
        c
    }

    #[test]
    fn compare_is_two_sided_with_implicit_zeros() {
        let ratchet =
            Ratchet { counts: counts(&[("a", "P002", 3), ("b", "P001", 1)]), ..Ratchet::default() };
        // a/P002 regressed, b/P001 improved (stale), c/D001 regressed from
        // an implicit zero.
        let current = counts(&[("a", "P002", 4), ("b", "P001", 0), ("c", "D001", 1)]);
        let (regressions, stale) = compare(&current, &ratchet);
        let reg: Vec<_> = regressions
            .iter()
            .map(|d| (d.group.as_str(), d.key.as_str(), d.recorded, d.current))
            .collect();
        assert_eq!(reg, vec![("a", "P002", 3, 4), ("c", "D001", 0, 1)]);
        let st: Vec<_> = stale.iter().map(|d| (d.group.as_str(), d.current)).collect();
        assert_eq!(st, vec![("b", 0)]);
    }

    #[test]
    fn compare_clean_when_counts_match() {
        let ratchet = Ratchet { counts: counts(&[("a", "P002", 2)]), ..Ratchet::default() };
        let (regressions, stale) =
            compare(&counts(&[("a", "P002", 2), ("b", "P001", 0)]), &ratchet);
        assert!(regressions.is_empty() && stale.is_empty());
    }

    #[test]
    fn render_load_roundtrip_drops_zero_entries() -> Result<(), String> {
        let ratchet = Ratchet {
            comment: "test".to_string(),
            counts: counts(&[("a", "P002", 2), ("a", "P001", 0), ("z", "D001", 0)]),
            floors: Counts::new(),
        };
        let rendered = render(&ratchet);
        assert!(rendered.ends_with('\n'));
        let path = std::env::temp_dir().join(format!("xtask_ratchet_{}.json", std::process::id()));
        std::fs::write(&path, &rendered).map_err(|e| e.to_string())?;
        let loaded = load(&path);
        let _ = std::fs::remove_file(&path);
        let loaded = loaded?;
        assert_eq!(loaded.comment, "test");
        assert_eq!(loaded.counts, counts(&[("a", "P002", 2)]), "zero entries are filtered");
        Ok(())
    }

    #[test]
    fn compare_floors_is_grow_only() {
        let ratchet = Ratchet {
            floors: counts(&[("mined", "sql", 700), ("mined", "logic", 300)]),
            ..Ratchet::default()
        };
        // sql shrank (regression), logic grew (stale: raise the floor),
        // arith appeared above an implicit zero floor (stale).
        let current =
            counts(&[("mined", "sql", 650), ("mined", "logic", 320), ("mined", "arith", 10)]);
        let (regressions, stale) = compare_floors(&current, &ratchet);
        let reg: Vec<_> = regressions
            .iter()
            .map(|d| (d.group.as_str(), d.key.as_str(), d.recorded, d.current))
            .collect();
        assert_eq!(reg, vec![("mined", "sql", 700, 650)]);
        let st: Vec<_> = stale.iter().map(|d| (d.key.as_str(), d.recorded, d.current)).collect();
        assert_eq!(st, vec![("arith", 0, 10), ("logic", 300, 320)]);
        let (regressions, stale) =
            compare_floors(&counts(&[("mined", "sql", 700), ("mined", "logic", 300)]), &ratchet);
        assert!(regressions.is_empty() && stale.is_empty());
    }

    #[test]
    fn floors_roundtrip_and_are_omitted_when_empty() -> Result<(), String> {
        let without = Ratchet {
            comment: "test".to_string(),
            counts: counts(&[("a", "P002", 2)]),
            floors: Counts::new(),
        };
        assert!(
            !render(&without).contains("floors"),
            "empty floors must not change pre-existing ratchet files"
        );
        let with = Ratchet { floors: counts(&[("mined", "sql", 700)]), ..without.clone() };
        let rendered = render(&with);
        assert!(rendered.contains("floors"));
        let path =
            std::env::temp_dir().join(format!("xtask_ratchet_floors_{}.json", std::process::id()));
        std::fs::write(&path, &rendered).map_err(|e| e.to_string())?;
        let loaded = load(&path);
        let _ = std::fs::remove_file(&path);
        let loaded = loaded?;
        assert_eq!(loaded.floors, counts(&[("mined", "sql", 700)]));
        assert_eq!(loaded.counts, counts(&[("a", "P002", 2)]));
        Ok(())
    }

    #[test]
    fn load_rejects_unknown_top_level_keys() -> Result<(), String> {
        let path =
            std::env::temp_dir().join(format!("xtask_ratchet_bad_{}.json", std::process::id()));
        std::fs::write(&path, "{\"counts\": {}, \"extra\": 1}").map_err(|e| e.to_string())?;
        let res = load(&path);
        let _ = std::fs::remove_file(&path);
        assert!(res.is_err());
        Ok(())
    }
}
