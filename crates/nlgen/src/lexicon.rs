//! Lexical resources for surface realization.
//!
//! The neural NL-Generator of the paper owes its output diversity to the
//! fine-tuning corpus; our grammar-based substitute gets diversity from a
//! lexicon of interchangeable word choices per semantic slot. Each slot's
//! alternatives were chosen to mirror the phrasings observed in SQUALL /
//! Logic2Text / FinQA gold questions (see paper Table IX).

use rand::seq::SliceRandom;
use rand::Rng;

/// Synonym bank for one semantic slot.
#[derive(Debug, Clone)]
pub struct Slot {
    options: &'static [&'static str],
}

impl Slot {
    pub const fn new(options: &'static [&'static str]) -> Slot {
        Slot { options }
    }

    /// Picks one alternative at random.
    pub fn pick(&self, rng: &mut impl Rng) -> &'static str {
        self.options.choose(rng).copied().unwrap_or("")
    }

    /// All alternatives (used to enumerate candidate realizations).
    pub fn all(&self) -> &'static [&'static str] {
        self.options
    }
}

/// Superlative adjectives for "maximum".
pub const MOST: Slot = Slot::new(&["highest", "most", "greatest", "largest", "top", "maximum"]);
/// Superlative adjectives for "minimum".
pub const LEAST: Slot = Slot::new(&["lowest", "least", "smallest", "fewest", "minimum"]);
/// Wh-starters for entity questions.
pub const WHICH: Slot = Slot::new(&["which", "what"]);
/// Question verbs for numeric lookups.
pub const WHAT_IS: Slot = Slot::new(&["what is", "what was", "what's"]);
/// Counting starters.
pub const HOW_MANY: Slot = Slot::new(&["how many", "what number of"]);
/// "more than" comparatives.
pub const MORE_THAN: Slot =
    Slot::new(&["more than", "greater than", "above", "over", "higher than"]);
/// "less than" comparatives.
pub const LESS_THAN: Slot = Slot::new(&["less than", "fewer than", "below", "under", "lower than"]);
/// Total/sum nouns.
pub const TOTAL: Slot = Slot::new(&["total", "sum", "combined total"]);
/// Average nouns.
pub const AVERAGE: Slot = Slot::new(&["average", "mean"]);
/// Difference nouns.
pub const DIFFERENCE: Slot = Slot::new(&["difference", "change", "gap"]);
/// Percentage-change phrasings.
pub const PCT_CHANGE: Slot = Slot::new(&["percentage change", "percent change", "relative change"]);
/// Claim copulas.
pub const IS_ARE: Slot = Slot::new(&["is", "was"]);
/// Majority adverbs ("most of the").
pub const MAJORITY: Slot = Slot::new(&["most of the", "the majority of"]);
/// Universal adverbs ("all of the").
pub const ALL_OF: Slot = Slot::new(&["all of the", "every", "all"]);
/// Ordinal words 1..=9 (index 0 unused).
pub const ORDINALS: [&str; 10] = [
    "zeroth", "first", "second", "third", "fourth", "fifth", "sixth", "seventh", "eighth", "ninth",
];

/// Renders an ordinal (1 -> "first", 12 -> "12th").
pub fn ordinal_word(n: usize) -> String {
    let mut out = String::new();
    ordinal_into(n, &mut out);
    out
}

/// [`ordinal_word`] appending to a caller-owned buffer.
pub fn ordinal_into(n: usize, out: &mut String) {
    use std::fmt::Write as _;
    if n < ORDINALS.len() {
        out.push_str(ORDINALS[n]);
    } else {
        let suffix = match (n % 10, n % 100) {
            (1, 11) | (2, 12) | (3, 13) => "th",
            (1, _) => "st",
            (2, _) => "nd",
            (3, _) => "rd",
            _ => "th",
        };
        let _ = write!(out, "{n}{suffix}");
    }
}

/// Naive pluralization for count phrasings ("row" -> "rows").
pub fn pluralize(word: &str) -> String {
    let mut out = String::with_capacity(word.len() + 3);
    pluralize_into(word, &mut out);
    out
}

/// [`pluralize`] appending to a caller-owned buffer.
pub fn pluralize_into(word: &str, out: &mut String) {
    if word.ends_with('s') || word.ends_with("sh") || word.ends_with("ch") || word.ends_with('x') {
        out.push_str(word);
        out.push_str("es");
    } else if word.ends_with('y')
        && !word.ends_with("ay")
        && !word.ends_with("ey")
        && !word.ends_with("oy")
        && !word.ends_with("uy")
    {
        out.push_str(&word[..word.len() - 1]);
        out.push_str("ies");
    } else {
        out.push_str(word);
        out.push('s');
    }
}

/// Capitalizes the first character and ensures terminal punctuation.
pub fn sentence_case(text: &str, terminal: char) -> String {
    let trimmed = text.trim();
    let mut out = String::with_capacity(trimmed.len() + 1);
    let mut chars = trimmed.chars();
    if let Some(first) = chars.next() {
        out.extend(first.to_uppercase());
        out.push_str(chars.as_str());
    }
    if !out.ends_with(['.', '?', '!']) {
        out.push(terminal);
    }
    out
}

/// One-pass `sentence_case(&tidy(text), terminal)` into a caller-owned
/// buffer: collapses doubled spaces, trims, capitalizes the first
/// character, and ensures terminal punctuation. `dst` is cleared first.
pub fn finish_sentence(src: &str, terminal: char, dst: &mut String) {
    dst.clear();
    dst.reserve(src.len() + 1);
    let mut started = false;
    let mut pending_space = false;
    for c in src.chars() {
        if c == ' ' {
            // Leading spaces are trimmed; interior runs collapse to one,
            // emitted lazily so trailing spaces are trimmed too.
            if started {
                pending_space = true;
            }
            continue;
        }
        if pending_space {
            dst.push(' ');
            pending_space = false;
        }
        if started {
            dst.push(c);
        } else {
            dst.extend(c.to_uppercase());
            started = true;
        }
    }
    if !dst.ends_with(['.', '?', '!']) {
        dst.push(terminal);
    }
}

/// Collapses doubled spaces left by empty slots.
pub fn tidy(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last_space = false;
    for c in text.chars() {
        if c == ' ' {
            if !last_space {
                out.push(c);
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out.trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn slots_pick_from_options() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert!(MOST.all().contains(&MOST.pick(&mut rng)));
        }
    }

    #[test]
    fn ordinal_words() {
        assert_eq!(ordinal_word(1), "first");
        assert_eq!(ordinal_word(3), "third");
        assert_eq!(ordinal_word(12), "12th");
        assert_eq!(ordinal_word(21), "21st");
        assert_eq!(ordinal_word(22), "22nd");
        assert_eq!(ordinal_word(23), "23rd");
        assert_eq!(ordinal_word(24), "24th");
    }

    #[test]
    fn plurals() {
        assert_eq!(pluralize("row"), "rows");
        assert_eq!(pluralize("match"), "matches");
        assert_eq!(pluralize("city"), "cities");
        assert_eq!(pluralize("day"), "days");
        assert_eq!(pluralize("boss"), "bosses");
    }

    #[test]
    fn sentence_case_adds_punct() {
        assert_eq!(sentence_case("which team won", '?'), "Which team won?");
        assert_eq!(sentence_case("it is true", '.'), "It is true.");
        assert_eq!(sentence_case("already done.", '.'), "Already done.");
    }

    #[test]
    fn tidy_collapses_spaces() {
        assert_eq!(tidy("a  b   c "), "a b c");
    }
}
