//! Text utilities shared by the NL generator, operators and models:
//! tokenization, normalization, and bag-of-words similarity.
//!
//! The reasoning models link question/claim tokens to table cells, and the
//! evaluation metrics (numeracy-focused F1, EM) are defined over normalized
//! token bags — this module is the single source of truth for both.

use rustc_hash::FxHashMap;

/// Lowercases, strips punctuation (keeping digits, letters, `.`, `-` inside
/// numbers), and splits on whitespace.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut buf = String::new();
    for_each_token(text, &mut buf, |t| tokens.push(t.to_string()));
    tokens
}

/// Streaming core of [`tokenize`]: calls `f` once per token, borrowing the
/// reusable `buf` instead of allocating a `String` per token. The token
/// sequence is exactly `tokenize(text)` — hot paths (n-gram scoring) use
/// this to stay allocation-free, everything else goes through `tokenize`.
pub fn for_each_token(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    buf.clear();
    // Count of raw (pre-strip) token boundaries, mirroring `tokens.len()`
    // in the collecting form: the leading-minus rule keys off it.
    let mut raw_tokens = 0usize;
    for ch in text.chars() {
        let c = ch.to_ascii_lowercase();
        if c.is_alphanumeric() {
            buf.push(c);
        } else if (c == '.' || c == '-')
            && !buf.is_empty()
            && buf.chars().all(|x| x.is_ascii_digit() || x == '.' || x == '-')
        {
            // keep decimal points / minus inside numeric tokens: "3.5", "-2"
            buf.push(c);
        } else {
            if !buf.is_empty() {
                raw_tokens += 1;
                emit(buf, &mut f);
            }
            if c == '-' && raw_tokens == 0 {
                // leading minus of a number
                buf.push('-');
            }
        }
    }
    if !buf.is_empty() && buf != "-" {
        emit(buf, &mut f);
    }
}

/// Strips trailing periods/dashes that came from sentence ends
/// ("42." -> "42"), emits the token if anything is left, and resets `buf`.
fn emit(buf: &mut String, f: &mut impl FnMut(&str)) {
    while buf.ends_with('.') || buf.ends_with('-') {
        buf.pop();
    }
    if !buf.is_empty() {
        f(buf);
    }
    buf.clear();
}

/// Normalizes an answer string for exact-match comparison: tokenizes,
/// removes articles, canonicalizes numbers.
pub fn normalize_answer(text: &str) -> String {
    let toks = tokenize(text);
    let kept: Vec<String> = toks
        .into_iter()
        .filter(|t| t != "a" && t != "an" && t != "the")
        .map(|t| canonical_number(&t).unwrap_or(t))
        .collect();
    kept.join(" ")
}

/// Canonicalizes a numeric token: "5.0" → "5", "05" → "5", "5." → "5",
/// "-0" → "0".
fn canonical_number(tok: &str) -> Option<String> {
    let n: f64 = tok.parse().ok()?;
    let s = crate::value::format_number(n);
    // format_number rounds to four decimals and trims zeros, so a tiny
    // negative ("-0.00001") or a literal "-0" comes back as "-0"; negative
    // zero and zero must compare equal under exact match.
    if s == "-0" {
        return Some("0".to_string());
    }
    Some(s)
}

/// Token frequency map.
pub fn token_counts(tokens: &[String]) -> FxHashMap<&str, usize> {
    let mut m: FxHashMap<&str, usize> = FxHashMap::default();
    for t in tokens {
        *m.entry(t.as_str()).or_insert(0) += 1;
    }
    m
}

/// Bag-of-words F1 between two token sequences (the SQuAD-style token F1
/// underlying TAT-QA's numeracy-focused F1).
pub fn token_f1(pred: &[String], gold: &[String]) -> f64 {
    if pred.is_empty() && gold.is_empty() {
        return 1.0;
    }
    if pred.is_empty() || gold.is_empty() {
        return 0.0;
    }
    let pc = token_counts(pred);
    let gc = token_counts(gold);
    let mut overlap = 0usize;
    for (tok, &n) in &pc {
        if let Some(&m) = gc.get(tok) {
            overlap += n.min(m);
        }
    }
    if overlap == 0 {
        return 0.0;
    }
    let precision = overlap as f64 / pred.len() as f64;
    let recall = overlap as f64 / gold.len() as f64;
    2.0 * precision * recall / (precision + recall)
}

/// Splits a paragraph into sentences on `.`, `!`, `?` boundaries, keeping
/// abbreviating periods inside numbers intact.
pub fn split_sentences(paragraph: &str) -> Vec<String> {
    let mut sentences = Vec::new();
    let mut cur = String::new();
    let chars: Vec<char> = paragraph.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        cur.push(c);
        if c == '!' || c == '?' {
            sentences.push(std::mem::take(&mut cur));
        } else if c == '.' {
            let prev_digit = i > 0 && chars[i - 1].is_ascii_digit();
            let next_digit = chars.get(i + 1).is_some_and(|n| n.is_ascii_digit());
            let next_space_or_end = chars.get(i + 1).is_none_or(|n| n.is_whitespace());
            if !(prev_digit && next_digit) && next_space_or_end {
                sentences.push(std::mem::take(&mut cur));
            }
        }
    }
    if !cur.trim().is_empty() {
        sentences.push(cur);
    }
    sentences.into_iter().map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basic() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize("score: 3.5 points"), vec!["score", "3.5", "points"]);
    }

    #[test]
    fn tokenize_keeps_negative_numbers() {
        assert_eq!(tokenize("-2 degrees"), vec!["-2", "degrees"]);
    }

    #[test]
    fn tokenize_strips_sentence_final_period() {
        assert_eq!(tokenize("It was 42."), vec!["it", "was", "42"]);
    }

    #[test]
    fn normalize_answer_numbers_and_articles() {
        assert_eq!(normalize_answer("The answer is 5.0"), "answer is 5");
        assert_eq!(normalize_answer("An Apple"), "apple");
    }

    #[test]
    fn canonical_number_normalizes_zero_and_dot_forms() {
        assert_eq!(canonical_number("5.0").as_deref(), Some("5"));
        assert_eq!(canonical_number("05").as_deref(), Some("5"));
        assert_eq!(canonical_number("5.").as_deref(), Some("5"));
        assert_eq!(canonical_number("-0").as_deref(), Some("0"));
        assert_eq!(canonical_number("-0.0").as_deref(), Some("0"));
        // Rounds to four decimals, so a tiny negative must not leave "-0".
        assert_eq!(canonical_number("-0.00001").as_deref(), Some("0"));
        assert_eq!(canonical_number("-2.5").as_deref(), Some("-2.5"));
        assert_eq!(canonical_number("not-a-number"), None);
    }

    #[test]
    fn normalize_answer_zero_signs_agree() {
        assert_eq!(normalize_answer("-0"), normalize_answer("0"));
        assert_eq!(normalize_answer("The total is -0.00001"), "total is 0");
    }

    #[test]
    fn token_f1_cases() {
        let p = tokenize("the quick fox");
        let g = tokenize("quick brown fox");
        let f1 = token_f1(&p, &g);
        assert!((f1 - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(token_f1(&[], &[]), 1.0);
        assert_eq!(token_f1(&p, &[]), 0.0);
    }

    #[test]
    fn token_f1_perfect_match() {
        let p = tokenize("42");
        let g = tokenize("42");
        assert_eq!(token_f1(&p, &g), 1.0);
    }

    #[test]
    fn sentence_splitting() {
        let s = split_sentences("Revenue was 3.5 million. It grew 10%! Why? Because.");
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], "Revenue was 3.5 million.");
        assert_eq!(s[2], "Why?");
    }

    #[test]
    fn sentence_splitting_decimal_not_boundary() {
        let s = split_sentences("The reading is 3.17 today. Done.");
        assert_eq!(s.len(), 2);
        assert!(s[0].contains("3.17"));
    }

    #[test]
    fn for_each_token_matches_tokenize() {
        // Edge cases of the token grammar: decimals, leading/trailing
        // minus, dash-only tokens, punctuation runs, empty input.
        for text in [
            "What is the score of Team-A?",
            "-2.5 vs 3.5. done.",
            "--5 - 7-",
            " - ",
            "",
            "a.b.c 42. 3.17%",
            "Ångström café 1,234",
        ] {
            let collected = tokenize(text);
            let mut streamed = Vec::new();
            let mut buf = String::new();
            for_each_token(text, &mut buf, |t| streamed.push(t.to_string()));
            assert_eq!(streamed, collected, "divergence on {text:?}");
        }
    }
}
