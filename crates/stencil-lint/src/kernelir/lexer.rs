//! Comment- and string-aware tokenizer for the generated C dialect.
//!
//! Two consumers share it: the kernel parser (which needs positions and
//! the collected `#define` table) and the `codegen_text` barrier
//! counter (which must not count tokens inside comments or string
//! literals — the bug the plain substring counter had).

use std::fmt;

/// A source position, 1-based.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token payload. Punctuation is normalised to a static string so
/// two-character operators (`&&`, `+=`, `++`, …) stay single tokens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// Decimal integer literal.
    Num(i64),
    /// A string literal (contents irrelevant to the verified subset).
    Str,
    /// Punctuation / operator.
    P(&'static str),
}

/// One token with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// Payload.
    pub kind: TokKind,
    /// Position of the token's first character.
    pub pos: Pos,
}

/// Lexer failure: an unrecognised character.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Where the unrecognised character sits.
    pub pos: Pos,
    /// The character.
    pub ch: char,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unrecognised character {:?} at {}", self.ch, self.pos)
    }
}

/// Lexed source: the token stream (directives excluded) plus the
/// collected object-like `#define` table in declaration order.
#[derive(Clone, Debug, Default)]
pub struct LexOut {
    /// Non-directive tokens.
    pub tokens: Vec<Token>,
    /// `#define NAME body` pairs, body lexed to tokens.
    pub defines: Vec<(String, Vec<Token>)>,
}

const TWO_CHAR: &[&str] = &[
    "&&", "||", "+=", "-=", "*=", "/=", "++", "--", "<=", ">=", "==", "!=", "<<", ">>",
];
const ONE_CHAR: &str = "()[]{};,.&*+-/%<>=!~^?:";

struct Cursor<'s> {
    src: &'s [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'s> Cursor<'s> {
    fn new(src: &'s str) -> Self {
        Cursor {
            src: src.as_bytes(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.i).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn at_line_start(&self) -> bool {
        let mut j = self.i;
        while j > 0 {
            let c = self.src[j - 1];
            if c == b'\n' {
                return true;
            }
            if c != b' ' && c != b'\t' {
                return false;
            }
            j -= 1;
        }
        true
    }
}

fn lex_into(
    cur: &mut Cursor<'_>,
    out: &mut Vec<Token>,
    defines: Option<&mut LexOut>,
) -> Result<(), LexError> {
    let mut defines = defines;
    while let Some(c) = cur.peek() {
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek2() == Some(b'/') => {
                while let Some(c) = cur.peek() {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
            }
            b'/' if cur.peek2() == Some(b'*') => {
                cur.bump();
                cur.bump();
                while let Some(c) = cur.bump() {
                    if c == b'*' && cur.peek() == Some(b'/') {
                        cur.bump();
                        break;
                    }
                }
            }
            b'#' if cur.at_line_start() => {
                // Directive: consume the line. Collect `#define NAME body`
                // when a define table was requested.
                let mut line = String::new();
                let line_no = cur.line;
                while let Some(c) = cur.peek() {
                    if c == b'\n' {
                        break;
                    }
                    line.push(cur.bump().unwrap() as char);
                }
                if let Some(defs) = defines.as_deref_mut() {
                    if let Some(rest) = line.trim().strip_prefix("#define ") {
                        let mut parts = rest.trim().splitn(2, char::is_whitespace);
                        if let (Some(name), Some(body)) = (parts.next(), parts.next()) {
                            // Object-like macros only: a '(' glued to the
                            // name would be function-like (never emitted).
                            if !name.is_empty() {
                                let mut body_cur = Cursor::new(body);
                                body_cur.line = line_no;
                                let mut body_toks = Vec::new();
                                lex_into(&mut body_cur, &mut body_toks, None)?;
                                defs.defines.push((name.to_string(), body_toks));
                            }
                        }
                    }
                }
            }
            b'"' => {
                let pos = cur.pos();
                cur.bump();
                while let Some(c) = cur.bump() {
                    if c == b'\\' {
                        cur.bump();
                    } else if c == b'"' {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokKind::Str,
                    pos,
                });
            }
            b'0'..=b'9' => {
                let pos = cur.pos();
                let mut n: i64 = 0;
                while let Some(c) = cur.peek() {
                    if c.is_ascii_digit() {
                        n = n.saturating_mul(10).saturating_add((c - b'0') as i64);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                // Swallow numeric suffixes (`u`, `L`, `f`) and a fractional
                // part; generated kernels use plain ints, but a tolerant
                // lexer keeps the tamper suite's mutants lexable.
                while let Some(c) = cur.peek() {
                    if c.is_ascii_alphanumeric() || c == b'.' {
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokKind::Num(n),
                    pos,
                });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let pos = cur.pos();
                let mut s = String::new();
                while let Some(c) = cur.peek() {
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        s.push(cur.bump().unwrap() as char);
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokKind::Ident(s),
                    pos,
                });
            }
            _ => {
                let pos = cur.pos();
                let two = if cur.peek2().is_some() {
                    let pair = [c, cur.peek2().unwrap()];
                    TWO_CHAR.iter().find(|p| p.as_bytes() == pair).copied()
                } else {
                    None
                };
                if let Some(p) = two {
                    cur.bump();
                    cur.bump();
                    out.push(Token {
                        kind: TokKind::P(p),
                        pos,
                    });
                } else if let Some(idx) = ONE_CHAR.find(c as char) {
                    cur.bump();
                    let p = &ONE_CHAR[idx..idx + 1];
                    out.push(Token {
                        kind: TokKind::P(p),
                        pos,
                    });
                } else {
                    return Err(LexError { pos, ch: c as char });
                }
            }
        }
    }
    Ok(())
}

/// Lex `source`: comments and directives are skipped, `#define`s are
/// collected, string literals become single [`TokKind::Str`] tokens.
pub fn lex(source: &str) -> Result<LexOut, LexError> {
    let mut out = LexOut::default();
    let mut cur = Cursor::new(source);
    let mut tokens = Vec::new();
    let mut defs = LexOut::default();
    lex_into(&mut cur, &mut tokens, Some(&mut defs))?;
    out.tokens = tokens;
    out.defines = defs.defines;
    Ok(out)
}

/// Count occurrences of `needle` (itself lexed) as a contiguous token
/// subsequence of `haystack`'s token stream. Tokens inside comments,
/// string literals and preprocessor directives are never counted.
/// Returns `None` when either side fails to lex.
pub fn count_token_occurrences(haystack: &str, needle: &str) -> Option<usize> {
    let hay = lex(haystack).ok()?;
    let ned = lex(needle).ok()?;
    if ned.tokens.is_empty() {
        return Some(0);
    }
    let hk: Vec<&TokKind> = hay.tokens.iter().map(|t| &t.kind).collect();
    let nk: Vec<&TokKind> = ned.tokens.iter().map(|t| &t.kind).collect();
    let mut count = 0;
    let mut i = 0;
    while i + nk.len() <= hk.len() {
        if hk[i..i + nk.len()].iter().zip(&nk).all(|(a, b)| **a == **b) {
            count += 1;
        }
        i += 1;
    }
    Some(count)
}

/// Most tokens [`expand_macros`] produces. Emitted kernels expand to a
/// few thousand; a chain of self-doubling `#define`s would otherwise
/// grow exponentially in its depth.
pub const MAX_EXPANDED_TOKENS: usize = 1 << 18;

/// Expand object-like macros in `tokens` using the collected define
/// table, recursively, with a depth guard. Expanded tokens inherit the
/// use-site position so diagnostics point at real source lines.
/// Expansion stops once the output holds [`MAX_EXPANDED_TOKENS`]
/// tokens; the parser rejects a stream that long.
pub fn expand_macros(tokens: &[Token], defines: &[(String, Vec<Token>)]) -> Vec<Token> {
    fn expand_one(
        tok: &Token,
        defines: &[(String, Vec<Token>)],
        depth: usize,
        out: &mut Vec<Token>,
    ) {
        if out.len() >= MAX_EXPANDED_TOKENS {
            return;
        }
        if depth < 32 {
            if let TokKind::Ident(name) = &tok.kind {
                if let Some((_, body)) = defines.iter().find(|(n, _)| n == name) {
                    for t in body {
                        let mut t = t.clone();
                        t.pos = tok.pos;
                        expand_one(&t, defines, depth + 1, out);
                    }
                    return;
                }
            }
        }
        out.push(tok.clone());
    }
    let mut out = Vec::with_capacity(tokens.len() * 2);
    for t in tokens {
        expand_one(t, defines, 0, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_comments_and_strings() {
        let src = "int x = 1; // __syncthreads()\n/* __syncthreads(); */\nconst char* s = \"__syncthreads()\";\n__syncthreads();\n";
        assert_eq!(count_token_occurrences(src, "__syncthreads()"), Some(1));
    }

    #[test]
    fn collects_defines() {
        let out = lex("#define TX 32\n#define WX (TX * RX)\nint a;\n").unwrap();
        assert_eq!(out.defines.len(), 2);
        assert_eq!(out.defines[0].0, "TX");
        assert_eq!(out.defines[1].0, "WX");
        assert_eq!(out.tokens.len(), 3); // int a ;
    }

    #[test]
    fn expands_derived_macros() {
        let out = lex("#define R 2\n#define D (2 * R + 1)\nD").unwrap();
        let exp = expand_macros(&out.tokens, &out.defines);
        let kinds: Vec<&TokKind> = exp.iter().map(|t| &t.kind).collect();
        // ( 2 * 2 + 1 )
        assert_eq!(kinds.len(), 7);
        assert!(matches!(kinds[1], TokKind::Num(2)));
        assert!(matches!(kinds[3], TokKind::Num(2)));
    }

    #[test]
    fn recursive_macro_is_bounded() {
        let out = lex("#define LOOP LOOP\nLOOP").unwrap();
        let exp = expand_macros(&out.tokens, &out.defines);
        assert!(exp.len() == 1, "depth guard must terminate");
    }

    #[test]
    fn two_char_operators_lex_as_one_token() {
        let out = lex("a += b && c ++ d <= e").unwrap();
        let puncts: Vec<_> = out
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::P(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(puncts, vec!["+=", "&&", "++", "<="]);
    }

    #[test]
    fn positions_are_one_based() {
        let out = lex("ab\n  cd").unwrap();
        assert_eq!(out.tokens[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(out.tokens[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn unknown_character_errors() {
        assert!(lex("int a = `b`;").is_err());
    }
}
