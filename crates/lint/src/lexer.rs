//! A minimal Rust lexer for lint analysis.
//!
//! Produces a flat token stream with line numbers, with comments, string
//! literals, char literals, and numeric literals stripped — so rules match
//! against *code*, never against text inside a string or doc comment. The
//! digraphs `::`, `=>`, and `->` are merged into single tokens; every other
//! piece of punctuation is a single-character token.
//!
//! This is deliberately not a full parser: rules are token-pattern
//! heuristics, and the repo accepts rare false positives (suppressed via
//! `lint-allow.toml`) in exchange for a dependency-free analyzer that works
//! in offline builds.

/// One lexed token: its text and the 1-based source line it starts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    pub text: String,
    pub line: u32,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Skip a `"…"` string starting at the opening quote; returns the index
/// just past the closing quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    debug_assert_eq!(b[i], b'"');
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // A `\` line continuation still ends a source line.
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// If `b[i..]` starts a raw (byte) string — `r"…"`, `r#"…"#`, `br##"…"##` —
/// skip it and return the index past the closing delimiter.
fn try_raw_string(b: &[u8], i: usize, line: &mut u32) -> Option<usize> {
    let mut j = i;
    if b.get(j) == Some(&b'b') {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    // Scan for `"` followed by `hashes` hash marks.
    while j < b.len() {
        if b[j] == b'\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if b[j] == b'"' {
            let end = j + 1;
            if b[end..].iter().take(hashes).filter(|&&c| c == b'#').count() == hashes {
                return Some(end + hashes);
            }
        }
        j += 1;
    }
    Some(j)
}

/// Skip a `'…'` char literal starting at the opening quote.
fn skip_char_literal(b: &[u8], mut i: usize) -> usize {
    debug_assert_eq!(b[i], b'\'');
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Lex `src` into tokens. Never fails: unknown bytes become single-char
/// punctuation tokens, and unterminated literals consume to end of input.
pub fn lex(src: &str) -> Vec<Tok> {
    lex_impl(src, false)
}

/// [`lex`], but numeric literals are kept as tokens (their source text,
/// suffix and all). The item parser and the indexing check read them.
pub fn lex_full(src: &str) -> Vec<Tok> {
    lex_impl(src, true)
}

fn lex_impl(src: &str, emit_numbers: bool) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == b'"' {
            i = skip_string(b, i, &mut line);
        } else if (c == b'r' || c == b'b') && {
            let mut l2 = line;
            if let Some(j) = try_raw_string(b, i, &mut l2) {
                line = l2;
                i = j;
                true
            } else {
                false
            }
        } {
            // Raw (byte) string consumed by the guard above.
        } else if c == b'b' && b.get(i + 1) == Some(&b'"') {
            i = skip_string(b, i + 1, &mut line);
        } else if c == b'b' && b.get(i + 1) == Some(&b'\'') {
            i = skip_char_literal(b, i + 1);
        } else if c == b'\'' {
            // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`).
            let next = b.get(i + 1).copied();
            if next == Some(b'\\') {
                i = skip_char_literal(b, i);
            } else if next.is_some_and(is_ident_start) && b.get(i + 2) != Some(&b'\'') {
                // Lifetime: skip the quote and the identifier.
                i += 2;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
            } else {
                i = skip_char_literal(b, i);
            }
        } else if is_ident_start(c) {
            let start = i;
            while i < b.len() && is_ident_continue(b[i]) {
                i += 1;
            }
            toks.push(Tok {
                text: src[start..i].to_string(),
                line,
            });
        } else if c.is_ascii_digit() {
            // Numeric literal (decimal, hex, float, suffixed). Emitted only
            // in full mode: no per-file *rule* matches on numbers, but the
            // parser keeps them. Consume `.` only when followed by
            // a digit, so ranges (`0..n`) and method calls (`1.max(x)`)
            // survive as separate tokens.
            let start = i;
            i += 1;
            loop {
                if i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                } else if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    i += 2;
                } else {
                    break;
                }
            }
            if emit_numbers {
                toks.push(Tok {
                    text: src[start..i].to_string(),
                    line,
                });
            }
        } else {
            // Punctuation; merge the digraphs rules care about.
            let two = b.get(i + 1).map(|&n| (c, n));
            let text = match two {
                Some((b':', b':')) => "::",
                Some((b'=', b'>')) => "=>",
                Some((b'-', b'>')) => "->",
                _ => {
                    toks.push(Tok {
                        text: (c as char).to_string(),
                        line,
                    });
                    i += 1;
                    continue;
                }
            };
            toks.push(Tok {
                text: text.to_string(),
                line,
            });
            i += 2;
        }
    }
    toks
}

/// Mark tokens covered by `#[cfg(test)]` items (and everything nested in
/// them) so rules skip test-only code. Returns one flag per token.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < texts.len() {
        // `# [ cfg ( test ) ]`
        if texts[i] == "#"
            && texts.get(i + 1) == Some(&"[")
            && texts.get(i + 2) == Some(&"cfg")
            && texts.get(i + 3) == Some(&"(")
            && texts.get(i + 4) == Some(&"test")
            && texts.get(i + 5) == Some(&")")
            && texts.get(i + 6) == Some(&"]")
        {
            let mut j = i + 7;
            // Skip any further attributes on the same item.
            while texts.get(j) == Some(&"#") && texts.get(j + 1) == Some(&"[") {
                let mut depth = 0i32;
                while j < texts.len() {
                    match texts[j] {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            let end = item_end(&texts, j);
            for flag in mask.iter_mut().take(end).skip(i) {
                *flag = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    mask
}

/// Keywords that open an item or a `let` statement (after any
/// `pub`/`pub(…)`): those end at their `;` or body, never at a `,`
/// (generics and patterns carry commas).
const ITEM_KWS: &[&str] = &[
    "fn",
    "impl",
    "mod",
    "struct",
    "enum",
    "union",
    "trait",
    "use",
    "const",
    "static",
    "type",
    "macro_rules",
    "unsafe",
    "async",
    "extern",
    "let",
];

/// Index one past the end of the attributed item or statement starting
/// at `start`: the first `;` outside brackets, or the matching close of
/// the first `{`. An attributed struct field, struct-literal field, match
/// arm or argument (no item keyword) also ends at a `,` outside brackets,
/// and anything ends before the closer of the bracket that encloses it.
fn item_end(texts: &[&str], start: usize) -> usize {
    let mut k = start;
    if texts.get(k) == Some(&"pub") {
        k += 1;
    }
    if texts.get(k) == Some(&"(") {
        k += 3; // `pub(crate)`, `pub(super)`
    }
    let is_item = texts.get(k).is_some_and(|t| ITEM_KWS.contains(t));
    let mut depth = 0i32;
    let mut j = start;
    while j < texts.len() {
        match texts[j] {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
                if depth == 0 && texts[j] == "}" {
                    return j + 1;
                }
            }
            ";" if depth == 0 => return j + 1,
            "," if depth == 0 && !is_item => return j + 1,
            _ => {}
        }
        j += 1;
    }
    texts.len()
}

/// The extent (token range, exclusive end) of the body of `fn <name>`,
/// for every function with that name in the stream.
pub fn fn_extents(toks: &[Tok], name: &str) -> Vec<(usize, usize)> {
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    let mut out = Vec::new();
    for i in 0..texts.len() {
        if texts[i] == "fn" && texts.get(i + 1) == Some(&name) {
            // First `{` after the signature opens the body.
            let mut j = i + 2;
            while j < texts.len() && texts[j] != "{" && texts[j] != ";" {
                j += 1;
            }
            if texts.get(j) == Some(&"{") {
                out.push((j, item_end(&texts, j)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let t = texts(
            r##"let x = "HashMap"; // HashMap
            /* HashMap */ let y = r#"HashMap"#; let c = 'H';"##,
        );
        assert!(!t.contains(&"HashMap".to_string()), "{t:?}");
        assert!(t.contains(&"let".to_string()));
    }

    #[test]
    fn digraphs_merge() {
        let t = texts("a::b, _ => x -> y");
        assert_eq!(t, ["a", "::", "b", ",", "_", "=>", "x", "->", "y"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // If `'a` were lexed as an unterminated char literal the rest of
        // the line would be swallowed.
        let t = texts("fn f<'a>(x: &'a str) { x.iter() }");
        assert!(t.contains(&"iter".to_string()));
    }

    #[test]
    fn ranges_survive_number_lexing() {
        let t = texts("for i in 0..10 { }");
        assert_eq!(t, ["for", "i", "in", ".", ".", "{", "}"]);
    }

    #[test]
    fn full_lex_keeps_numbers() {
        let t: Vec<String> = lex_full("const V: u16 = 2; x[0x1f]; 1.5f64")
            .into_iter()
            .map(|t| t.text)
            .collect();
        assert_eq!(
            t,
            ["const", "V", ":", "u16", "=", "2", ";", "x", "[", "0x1f", "]", ";", "1.5f64"]
        );
    }

    #[test]
    fn line_numbers_track_comments_and_strings() {
        let toks = lex("// one\n/* two\nthree */\nlet x = \"a\nb\";\nfin");
        let fin = toks.iter().find(|t| t.text == "fin").unwrap();
        assert_eq!(fin.line, 6);
    }

    #[test]
    fn string_line_continuations_count_lines() {
        let toks = lex("let s = \"a \\\n b\";\nfin");
        assert_eq!(toks.last().unwrap().line, 3);
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { b.unwrap(); } }\nfn tail() {}";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let live = toks.iter().position(|t| t.text == "a").unwrap();
        let dead = toks.iter().position(|t| t.text == "b").unwrap();
        let tail = toks.iter().position(|t| t.text == "tail").unwrap();
        assert!(!mask[live]);
        assert!(mask[dead]);
        assert!(!mask[tail]);
    }

    #[test]
    fn cfg_test_field_masks_only_itself() {
        let src = "struct S { #[cfg(test)]\nprobe: Vec<u8>, live: u8 }\n\
                   fn new() -> S { S { #[cfg(test)]\nprobe: Vec::new(), live: a() } }\n\
                   fn f() { #[cfg(test)]\n{ b(); } c(); }\nfn tail() {}";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let at = |name: &str| mask[toks.iter().position(|t| t.text == name).unwrap()];
        assert!(
            at("probe") && at("b"),
            "the attributed field and block are masked"
        );
        assert!(!at("live") && !at("a") && !at("c") && !at("tail"));
    }

    #[test]
    fn fn_extent_covers_body_only() {
        let src = "fn alpha() { x.unwrap(); }\nfn beta() { y.unwrap(); }";
        let toks = lex(src);
        let ext = fn_extents(&toks, "beta");
        assert_eq!(ext.len(), 1);
        let (s, e) = ext[0];
        let body: Vec<&str> = toks[s..e].iter().map(|t| t.text.as_str()).collect();
        assert!(body.contains(&"y"));
        assert!(!body.contains(&"x"));
    }
}
