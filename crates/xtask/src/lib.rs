//! # xtask — program-template audits for UCTR
//!
//! `cargo run -p xtask -- audit-templates` statically typechecks the
//! builtin program-template bank (plus optional `--mined` corpora) with
//! the uctr analysis layer and ratchets per-kind diagnostic counts in
//! `ci/template_health.json`. See `DESIGN.md` §7 and [`audit`].
//!
//! `cargo run -p xtask -- audit-equivalence` rebuilds the mined corpus,
//! reports canonical-form equivalence classes and pruned equivalents, and
//! differentially verifies every canonical merge the miner performed —
//! ratcheted under the `equivalence` group of the same health file, with
//! a hard zero gate on unverified merges. See [`equivalence`].
//!
//! `cargo run -p xtask -- mine` regenerates `ci/mined_templates.txt`; with
//! `--check` it gates that the committed corpus is reproduced byte for byte.
//!
//! These are domain checks clippy cannot do. The determinism and
//! panic-discipline rules are clippy lints at `deny`, configured in the
//! workspace `Cargo.toml` and `clippy.toml` (`DESIGN.md` §6).

pub mod audit;
pub mod equivalence;
pub mod ratchet;
