//! Answer normalisation: the text wrangling a judge performs before
//! comparing a model response to the golden answer.

/// Lowercases, trims, strips leading articles and surrounding
/// punctuation, and collapses whitespace. Lowercases the whole text
/// once (so a word-final `Σ` becomes `ς`) and writes its words, joined
/// by one space, into one output buffer.
pub fn normalize_text(s: &str) -> String {
    let lowered = s.to_lowercase();
    let mut out = String::with_capacity(lowered.len());
    let words = lowered
        .split(|c: char| !(c.is_alphanumeric() || matches!(c, '.' | '-' | '+' | '\'')))
        .filter(|word| !word.is_empty())
        .skip_while(|word| matches!(*word, "a" | "an" | "the"));
    for word in words {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(word);
    }
    out
}

/// Extracts an MC option letter from typical response shapes:
/// `(b)`, `b)`, `B.`, `answer: b`, `The answer is (B) …`.
pub fn extract_choice_letter(s: &str) -> Option<char> {
    let lower = s.trim().to_lowercase();
    // parenthesised letter anywhere
    let bytes = lower.as_bytes();
    for i in 0..bytes.len().saturating_sub(2) {
        if bytes[i] == b'(' && bytes[i + 2] == b')' && (b'a'..=b'd').contains(&bytes[i + 1]) {
            return Some(bytes[i + 1] as char);
        }
    }
    // leading "b)", "b.", "b:" or a lone letter
    let mut head = lower.split_whitespace().next()?.chars();
    if let (Some(letter @ 'a'..='d'), None | Some(')' | '.' | ':'), None) =
        (head.next(), head.next(), head.next())
    {
        return Some(letter);
    }
    // "answer is b" / "answer: b"
    if let Some(pos) = lower.find("answer") {
        let tail = &lower[pos..];
        for token in tail.split_whitespace().skip(1).take(3) {
            let mut chars = token.chars();
            if let (Some(letter @ 'a'..='d'), _, None) = (chars.next(), chars.next(), chars.next())
            {
                return Some(letter);
            }
        }
    }
    None
}

/// Parses the first number in a response, handling sign, decimals,
/// scientific notation and `0x` hexadecimal.
pub fn extract_number(s: &str) -> Option<f64> {
    let lower = s.trim().to_lowercase();
    for raw in lower.split(|c: char| c.is_whitespace() || c == '=' || c == ',') {
        let token = raw.trim_matches(|c: char| {
            !(c.is_ascii_hexdigit() || c == '.' || c == '-' || c == '+' || c == 'x' || c == 'e')
        });
        if token.is_empty() {
            continue;
        }
        if let Some(hex) = token.strip_prefix("0x") {
            if let Ok(v) = u64::from_str_radix(hex, 16) {
                return Some(v as f64);
            }
        }
        if token
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+' || c == '.')
        {
            if let Ok(v) = token.parse::<f64>() {
                return Some(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocation-per-step `normalize_text` the one-buffer version
    /// replaced: the reference the differential test holds it to.
    fn reference_normalize_text(s: &str) -> String {
        let lowered = s.trim().to_lowercase();
        let stripped: String = lowered
            .chars()
            .map(|c| {
                if c.is_alphanumeric() || c == '.' || c == '-' || c == '+' || c == '\'' {
                    c
                } else {
                    ' '
                }
            })
            .collect();
        let mut words: Vec<&str> = stripped.split_whitespace().collect();
        while let Some(first) = words.first() {
            if ["a", "an", "the"].contains(first) {
                words.remove(0);
            } else {
                break;
            }
        }
        words.join(" ")
    }

    /// The `Vec<char>` `extract_choice_letter` the current one replaced.
    fn reference_extract_choice_letter(s: &str) -> Option<char> {
        let lower = s.trim().to_lowercase();
        let bytes = lower.as_bytes();
        for i in 0..bytes.len().saturating_sub(2) {
            if bytes[i] == b'(' && bytes[i + 2] == b')' && (b'a'..=b'd').contains(&bytes[i + 1]) {
                return Some(bytes[i + 1] as char);
            }
        }
        let first = lower.split_whitespace().next()?;
        let head: Vec<char> = first.chars().collect();
        if head.len() <= 2
            && ('a'..='d').contains(&head[0])
            && (head.len() == 1 || matches!(head[1], ')' | '.' | ':'))
        {
            return Some(head[0]);
        }
        if let Some(pos) = lower.find("answer") {
            let tail = &lower[pos..];
            for token in tail.split_whitespace().skip(1).take(3) {
                let t: Vec<char> = token.chars().collect();
                if t.len() <= 2 && ('a'..='d').contains(&t[0]) {
                    return Some(t[0]);
                }
            }
        }
        None
    }

    /// Pieces a response is built from: ASCII letters of both cases
    /// (the option letters most), digits, the punctuation the rules
    /// look at, every char `char::is_whitespace` accepts, the words the
    /// rules key on, and non-ASCII text whose lowercasing is not
    /// char-by-char (`Σ` ending a word, `İ`) or leaves ASCII (`µ`, `Ω`,
    /// full-width letters).
    fn piece() -> impl Strategy<Value = String> {
        static PIECES: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        proptest::sample::select(PIECES.get_or_init(pieces).clone())
    }

    fn pieces() -> Vec<String> {
        let mut pieces: Vec<String> = ('a'..='z').chain('A'..='Z').map(String::from).collect();
        pieces.extend(["a", "b", "c", "d", "A", "B", "C", "D"].map(String::from));
        pieces.extend(('0'..='9').map(String::from));
        pieces.extend("().,:;=+-'".chars().map(String::from));
        pieces.extend(
            (0..=u32::from(char::MAX))
                .filter_map(char::from_u32)
                .filter(|c| c.is_whitespace())
                .map(String::from),
        );
        pieces.extend([" ", " "].map(String::from));
        pieces.extend(
            "answer Answer ANSWER: is (b) (C) b) D. a: the An half-adder S'Q 2-to-1 \
             ΟΔΟΣ Σ ΣΑ İ µ Ω Ａ ｂ Ｃ ｄ"
                .split_whitespace()
                .map(String::from),
        );
        pieces
    }

    /// A run of leading articles in mixed case, each followed by a
    /// space, a tab or a no-break space.
    fn articles() -> impl Strategy<Value = String> {
        let article = proptest::sample::select(
            ["a", "A", "an", "An", "aN", "the", "The", "THE", "tHe"].to_vec(),
        );
        let gap = proptest::sample::select([" ", "\t", "\u{a0}", "  "].to_vec());
        proptest::collection::vec((article, gap), 0..4).prop_map(|run| {
            run.into_iter()
                .map(|(article, gap)| format!("{article}{gap}"))
                .collect()
        })
    }

    /// Half the time nothing, else an option-letter token's start: a
    /// letter near `a`–`d` in either case and the mark after it.
    fn letter_lead() -> impl Strategy<Value = String> {
        let letter = proptest::sample::select("aAbBcCdDeE".chars().collect::<Vec<_>>());
        let mark = proptest::sample::select(["", ")", ".", ":", ";", "x"].to_vec());
        prop_oneof![
            Just(String::new()),
            (letter, mark).prop_map(|(letter, mark)| format!("{letter}{mark}")),
        ]
    }

    fn response() -> impl Strategy<Value = String> {
        let rest = proptest::collection::vec(piece(), 0..16);
        (articles(), letter_lead(), rest)
            .prop_map(|(articles, lead, rest)| articles + &lead + &rest.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn text_functions_match_their_references(s in response()) {
            prop_assert_eq!(normalize_text(&s), reference_normalize_text(&s), "{:?}", s);
            prop_assert_eq!(
                extract_choice_letter(&s),
                reference_extract_choice_letter(&s),
                "{:?}",
                s
            );
        }
    }

    #[test]
    fn unicode_lowercasing_keeps_its_context() {
        for s in [
            "ΟΔΟΣ ΟΔΟΣ.",
            " İstanbul ",
            "µΩ ａＢ",
            "The  ΣΑ\u{a0}Σ",
            "\x0bA) x",
        ] {
            assert_eq!(normalize_text(s), reference_normalize_text(s), "{s:?}");
            assert_eq!(
                extract_choice_letter(s),
                reference_extract_choice_letter(s),
                "{s:?}"
            );
        }
        assert_eq!(normalize_text("ΟΔΟΣ ΟΔΟΣ."), "οδος οδος.");
    }

    #[test]
    fn text_normalisation() {
        assert_eq!(normalize_text("  The Half-Adder! "), "half-adder");
        assert_eq!(
            normalize_text("A  2-to-1   Multiplexer"),
            "2-to-1 multiplexer"
        );
        assert_eq!(normalize_text("S'Q + SR'"), "s'q + sr'");
    }

    #[test]
    fn letters_from_common_shapes() {
        assert_eq!(extract_choice_letter("(b) Q = S'Q + S"), Some('b'));
        assert_eq!(extract_choice_letter("B."), Some('b'));
        assert_eq!(extract_choice_letter("c) because..."), Some('c'));
        assert_eq!(extract_choice_letter("The answer is (D)"), Some('d'));
        assert_eq!(extract_choice_letter("answer: a"), Some('a'));
        assert_eq!(extract_choice_letter("I think it's probably fine"), None);
        assert_eq!(extract_choice_letter("42"), None);
    }

    #[test]
    fn numbers_from_common_shapes() {
        assert_eq!(extract_number("5.5 minutes"), Some(5.5));
        assert_eq!(extract_number("-3.25"), Some(-3.25));
        assert_eq!(extract_number("approximately 1e6 rad/s"), Some(1e6));
        assert_eq!(extract_number("0x8000123"), Some(f64::from(0x8000123u32)));
        assert_eq!(extract_number("no number here"), None);
        assert_eq!(extract_number("the result = 42 volts"), Some(42.0));
    }

    #[test]
    fn hex_and_decimal_disambiguation() {
        assert_eq!(extract_number("0x10"), Some(16.0));
        assert_eq!(extract_number("10"), Some(10.0));
    }
}
