//! A minimal Rust lexer: just enough structure for the lint's rules.
//!
//! The build environment has no registry access, so `syn` is not available;
//! the rules only need identifier/punctuation streams with accurate line
//! numbers plus the comment text (for `lint: allow` annotations), which a
//! few hundred lines of hand lexing provide. String,
//! char, raw-string and nested block-comment forms are handled so that rule
//! keywords inside literals or comments can never fire.

/// Lexical class of a [`Tok`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `unsafe`, ...).
    Ident,
    /// A single punctuation character (`:`, `[`, `!`, ...).
    Punct,
    /// String / byte-string / raw-string literal.
    Str,
    /// Character literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Identifier text; for punctuation the single character; for a
    /// string literal its source text, quotes included.
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Tok {
    /// True for an identifier with exactly this text.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True for this punctuation character.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// One comment (line or block, doc or plain) with its line span.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Full text including the `//` / `/*` markers.
    pub text: String,
    pub line: u32,
    pub end_line: u32,
    /// True when a token precedes the comment on its starting line
    /// (a trailing comment annotates that line; an own-line comment
    /// annotates the next code line).
    pub trailing: bool,
}

/// Lexer output: the token stream plus every comment.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Lexes `src`. Unterminated literals are tolerated (the rest of the file
/// is swallowed into the literal) — the lint must never panic on weird but
/// compiling source, and rustc would have rejected truly broken files.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let mut last_tok_line: u32 = 0;

    // Advances past one char, maintaining line/col.
    macro_rules! bump {
        () => {{
            if b[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < b.len() {
        let c = b[i];
        let (tline, tcol) = (line, col);
        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < b.len() && (b[i + 1] == '/' || b[i + 1] == '*') {
            let start = i;
            let trailing = last_tok_line == line;
            if b[i + 1] == '/' {
                while i < b.len() && b[i] != '\n' {
                    bump!();
                }
            } else {
                // Nested block comments, as Rust allows.
                let mut depth = 0u32;
                while i < b.len() {
                    if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        depth += 1;
                        bump!();
                        bump!();
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        depth -= 1;
                        bump!();
                        bump!();
                        if depth == 0 {
                            break;
                        }
                    } else {
                        bump!();
                    }
                }
            }
            out.comments.push(Comment {
                text: b[start..i].iter().collect(),
                line: tline,
                end_line: line,
                trailing,
            });
            continue;
        }
        // Raw / byte string starts: r", r#", br", b" (with any # count).
        if c == 'r' || c == 'b' {
            let mut j = i;
            if b[j] == 'b' && j + 1 < b.len() && b[j + 1] == 'r' {
                j += 1;
            }
            if b[j] == 'r' || b[j] == 'b' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < b.len() && b[k] == '#' && b[j] == 'r' {
                    hashes += 1;
                    k += 1;
                }
                if k < b.len() && b[k] == '"' {
                    // Consume through the matching closing quote.
                    let start = i;
                    while i <= k {
                        bump!();
                    }
                    'scan: while i < b.len() {
                        if b[i] == '\\' && hashes == 0 && b[j] == 'b' {
                            // Plain byte string: escapes are active.
                            bump!();
                            if i < b.len() {
                                bump!();
                            }
                            continue;
                        }
                        if b[i] == '"' {
                            let mut h = 0usize;
                            while h < hashes && i + 1 + h < b.len() && b[i + 1 + h] == '#' {
                                h += 1;
                            }
                            if h == hashes {
                                for _ in 0..=hashes {
                                    bump!();
                                }
                                break 'scan;
                            }
                        }
                        bump!();
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Str,
                        text: b[start..i].iter().collect(),
                        line: tline,
                        col: tcol,
                    });
                    last_tok_line = tline;
                    continue;
                }
            }
            // Not a literal prefix: fall through to identifier lexing.
        }
        // Plain strings.
        if c == '"' {
            let start = i;
            bump!();
            while i < b.len() {
                if b[i] == '\\' {
                    bump!();
                    if i < b.len() {
                        bump!();
                    }
                } else if b[i] == '"' {
                    bump!();
                    break;
                } else {
                    bump!();
                }
            }
            out.tokens.push(Tok {
                kind: TokKind::Str,
                text: b[start..i].iter().collect(),
                line: tline,
                col: tcol,
            });
            last_tok_line = tline;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = b.get(i + 1).copied();
            let after = b.get(i + 2).copied();
            let is_lifetime =
                matches!(next, Some(n) if n.is_alphabetic() || n == '_') && after != Some('\'');
            bump!();
            if is_lifetime {
                let mut text = String::from("'");
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    text.push(b[i]);
                    bump!();
                }
                out.tokens.push(Tok {
                    kind: TokKind::Lifetime,
                    text,
                    line: tline,
                    col: tcol,
                });
            } else {
                while i < b.len() {
                    if b[i] == '\\' {
                        bump!();
                        if i < b.len() {
                            bump!();
                        }
                    } else if b[i] == '\'' {
                        bump!();
                        break;
                    } else {
                        bump!();
                    }
                }
                out.tokens.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: tline,
                    col: tcol,
                });
            }
            last_tok_line = tline;
            continue;
        }
        // Numbers. A `.` continues the literal only when a digit follows,
        // so ranges like `0..n` stay three tokens.
        if c.is_ascii_digit() {
            let mut text = String::new();
            while i < b.len() {
                let d = b[i];
                if d.is_ascii_alphanumeric()
                    || d == '_'
                    || (d == '.' && b.get(i + 1).is_some_and(|n| n.is_ascii_digit()))
                {
                    text.push(d);
                    bump!();
                } else {
                    break;
                }
            }
            out.tokens.push(Tok {
                kind: TokKind::Num,
                text,
                line: tline,
                col: tcol,
            });
            last_tok_line = tline;
            continue;
        }
        // Identifiers / keywords.
        if c.is_alphabetic() || c == '_' {
            let mut text = String::new();
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                text.push(b[i]);
                bump!();
            }
            out.tokens.push(Tok {
                kind: TokKind::Ident,
                text,
                line: tline,
                col: tcol,
            });
            last_tok_line = tline;
            continue;
        }
        // Everything else: single-char punctuation.
        let mut text = String::new();
        text.push(c);
        bump!();
        out.tokens.push(Tok {
            kind: TokKind::Punct,
            text,
            line: tline,
            col: tcol,
        });
        last_tok_line = tline;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_and_paths() {
        let l = lex("use std::collections::HashMap;");
        let idents: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["use", "std", "collections", "HashMap"]);
    }

    #[test]
    fn strings_and_comments_hide_keywords() {
        let l = lex("let s = \"HashMap unsafe\"; // HashMap too\n/* unsafe */");
        assert!(!l.tokens.iter().any(|t| t.is_ident("HashMap")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("unsafe")));
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].trailing);
        assert!(!l.comments[1].trailing);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let l = lex("let s = r#\"thread_rng \" inner\"#; after");
        assert!(!l.tokens.iter().any(|t| t.is_ident("thread_rng")));
        assert!(l.tokens.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            1
        );
    }

    #[test]
    fn ranges_do_not_swallow_idents() {
        let l = lex("for i in 0..n { a[i]; }");
        assert!(l.tokens.iter().any(|t| t.is_ident("n")));
        assert!(l.tokens.iter().any(|t| t.is_ident("i")));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let l = lex("a\nb\n  c");
        let c = l.tokens.iter().find(|t| t.is_ident("c")).unwrap();
        assert_eq!((c.line, c.col), (3, 3));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still */ ident");
        assert_eq!(l.comments.len(), 1);
        assert!(l.tokens.iter().any(|t| t.is_ident("ident")));
    }
}
