//! # nlgen — the NL-Generator module of UCTR
//!
//! Maps programs of all three types (SQL queries, logical forms, arithmetic
//! expressions) to natural-language questions and claims (paper §IV-A,
//! `f(P) → L`). The paper fine-tunes GPT-2/BART for this; the reproduction
//! substitutes a compositional grammar realizer per program type, an
//! n-gram fluency model trained on a seed corpus (the fine-tuning stand-in)
//! that reranks candidate realizations, and a noise channel reproducing the
//! generation errors the paper reports in §V-F. See DESIGN.md for the
//! substitution rationale.
//!
//! ```
//! use nlgen::{NlGenerator, NlScratch, ProgramRef};
//! use rand::SeedableRng;
//!
//! let g = NlGenerator::new();
//! let stmt = sqlexec::parse("select [department] from w order by [total deputies] desc limit 1").unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let text = g.verbalize(ProgramRef::Sql(&stmt), &mut rng, &mut NlScratch::default());
//! assert!(text.ends_with('?'));
//! ```

pub mod arith_gen;
pub mod generator;
pub mod lexicon;
pub mod logic_gen;
pub mod ngram;
pub mod noise;
pub mod pool;
pub mod sql_gen;

pub use arith_gen::realize_arith;
pub use generator::{NlGenerator, NlScratch, ProgramRef};
pub use logic_gen::realize_logic;
pub use ngram::{seed_corpus, NgramLm, ScoreScratch};
pub use noise::{apply_noise, NoiseConfig};
pub use pool::StrPool;
pub use sql_gen::realize_sql;
