//! A small, dependency-free Rust tokenizer.
//!
//! The lint rules only need a faithful *token stream*, not a syntax tree:
//! every rule matches short ident/punct sequences. What the tokenizer must
//! get right is the part naive `grep` gets wrong — banned identifiers inside
//! string literals, raw strings, char literals, and comments must **not**
//! surface as code tokens, and comments must be preserved (with positions)
//! so `lint:allow` escape hatches can be parsed from them.
//!
//! Positions are 1-based `(line, byte-column)`, matching the diagnostic
//! format `rule-id: file:line:col message`.

/// The coarse classification a lint rule can dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `HashMap`, `partial_cmp`, ...).
    Ident,
    /// A single punctuation byte (`.`, `:`, `(`, `{`, ...).
    Punct,
    /// String literal of any flavor: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// Char or byte-char literal: `'a'`, `'\n'`, `b'\0'`.
    Char,
    /// Lifetime: `'a`, `'static`.
    Lifetime,
    /// Numeric literal (integer or float, any base, with suffix).
    Num,
    /// Line (`//`, `///`, `//!`) or block (`/* */`, nested) comment.
    Comment,
}

/// One lexed token with its source text and 1-based position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokKind,
    /// Raw source text, including quotes/prefixes for literals and the
    /// comment markers for comments.
    pub text: String,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// 1-based byte column of the token's first byte.
    pub col: u32,
}

impl Token {
    /// True if this is an identifier with exactly the given text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this is the given single punctuation byte.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    /// True if this is a string literal with empty contents (`""`, `r""`,
    /// `b""`, `r#""#`, ...). Used by the `empty-expect` rule.
    pub fn is_empty_str(&self) -> bool {
        if self.kind != TokKind::Str {
            return false;
        }
        let inner = self
            .text
            .trim_start_matches(['b', 'r'])
            .trim_start_matches('#')
            .trim_end_matches('#');
        inner == "\"\""
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

struct Lexer<'a> {
    src: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
    toks: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            i: 0,
            line: 1,
            col: 1,
            toks: Vec::new(),
        }
    }

    fn peek(&self, off: usize) -> u8 {
        *self.src.get(self.i + off).unwrap_or(&0)
    }

    /// Advance `n` bytes, updating line/col.
    fn bump(&mut self, n: usize) {
        for _ in 0..n {
            if self.i >= self.src.len() {
                return;
            }
            if self.src[self.i] == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
            self.i += 1;
        }
    }

    fn emit(&mut self, kind: TokKind, start: usize, line: u32, col: u32) {
        let text = String::from_utf8_lossy(&self.src[start..self.i]).into_owned();
        self.toks.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while self.i < self.src.len() {
            let (start, line, col) = (self.i, self.line, self.col);
            let b = self.src[self.i];
            match b {
                b if b.is_ascii_whitespace() => self.bump(1),
                b'/' if self.peek(1) == b'/' => {
                    while self.i < self.src.len() && self.src[self.i] != b'\n' {
                        self.bump(1);
                    }
                    self.emit(TokKind::Comment, start, line, col);
                }
                b'/' if self.peek(1) == b'*' => {
                    self.block_comment();
                    self.emit(TokKind::Comment, start, line, col);
                }
                b'"' => {
                    self.quoted_string();
                    self.emit(TokKind::Str, start, line, col);
                }
                b'\'' => {
                    let kind = self.char_or_lifetime();
                    self.emit(kind, start, line, col);
                }
                b if is_ident_start(b) => {
                    let kind = self.ident_or_prefixed_literal();
                    self.emit(kind, start, line, col);
                }
                b if b.is_ascii_digit() => {
                    self.number();
                    self.emit(TokKind::Num, start, line, col);
                }
                _ => {
                    self.bump(1);
                    self.emit(TokKind::Punct, start, line, col);
                }
            }
        }
        self.toks
    }

    /// Consume a (possibly nested) `/* ... */` block comment.
    fn block_comment(&mut self) {
        self.bump(2);
        let mut depth = 1usize;
        while self.i < self.src.len() && depth > 0 {
            if self.src[self.i] == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.bump(2);
            } else if self.src[self.i] == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.bump(2);
            } else {
                self.bump(1);
            }
        }
    }

    /// Consume a `"..."` string with escape handling; cursor on the `"`.
    fn quoted_string(&mut self) {
        self.bump(1);
        while self.i < self.src.len() {
            match self.src[self.i] {
                b'\\' => self.bump(2),
                b'"' => {
                    self.bump(1);
                    return;
                }
                _ => self.bump(1),
            }
        }
    }

    /// Consume a raw string `r##"..."##` with `hashes` hashes; cursor on `"`.
    fn raw_string(&mut self, hashes: usize) {
        self.bump(1);
        while self.i < self.src.len() {
            if self.src[self.i] == b'"' {
                let closing = (0..hashes).all(|k| self.peek(1 + k) == b'#');
                if closing {
                    self.bump(1 + hashes);
                    return;
                }
            }
            self.bump(1);
        }
    }

    /// Cursor on a `'`: decide char literal vs lifetime.
    fn char_or_lifetime(&mut self) -> TokKind {
        // `'\...'` is always a char literal; `'x'` (quote two ahead) too;
        // otherwise `'ident` is a lifetime.
        if self.peek(1) == b'\\' || (self.peek(2) == b'\'' && self.peek(1) != b'\'') {
            self.bump(1);
            while self.i < self.src.len() {
                match self.src[self.i] {
                    b'\\' => self.bump(2),
                    b'\'' => {
                        self.bump(1);
                        return TokKind::Char;
                    }
                    _ => self.bump(1),
                }
            }
            TokKind::Char
        } else {
            self.bump(1);
            while self.i < self.src.len() && is_ident_continue(self.src[self.i]) {
                self.bump(1);
            }
            TokKind::Lifetime
        }
    }

    /// Cursor on an ident-start byte. Handles the `r"..."`, `r#"..."#`,
    /// `b"..."`, `br#"..."#`, `b'x'`, and raw-identifier `r#name` forms whose
    /// leading bytes look like an identifier.
    fn ident_or_prefixed_literal(&mut self) -> TokKind {
        let word_start = self.i;
        while self.i < self.src.len() && is_ident_continue(self.src[self.i]) {
            self.bump(1);
        }
        let word = &self.src[word_start..self.i];
        let next = self.peek(0);
        match word {
            b"r" | b"b" | b"br" => {
                if next == b'"' {
                    if word == b"b" {
                        self.quoted_string(); // byte strings still process escapes
                    } else {
                        self.raw_string(0);
                    }
                    return TokKind::Str;
                }
                if next == b'#' && word != b"b" {
                    let mut hashes = 0usize;
                    while self.peek(hashes) == b'#' {
                        hashes += 1;
                    }
                    if self.peek(hashes) == b'"' {
                        self.bump(hashes);
                        self.raw_string(hashes);
                        return TokKind::Str;
                    }
                    if word == b"r" && hashes == 1 && is_ident_start(self.peek(1)) {
                        // raw identifier `r#match`
                        self.bump(1);
                        while self.i < self.src.len() && is_ident_continue(self.src[self.i]) {
                            self.bump(1);
                        }
                        return TokKind::Ident;
                    }
                }
                if word == b"b" && next == b'\'' {
                    self.char_or_lifetime();
                    return TokKind::Char;
                }
                TokKind::Ident
            }
            _ => TokKind::Ident,
        }
    }

    /// Cursor past the leading digit run start. Consumes integer/float forms.
    fn number(&mut self) {
        while self.i < self.src.len() && is_ident_continue(self.src[self.i]) {
            self.bump(1);
        }
        // Fractional part only when followed by a digit (so `0..10` and
        // `1.max(2)` don't swallow the dot).
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            self.bump(1);
            while self.i < self.src.len() && is_ident_continue(self.src[self.i]) {
                self.bump(1);
            }
        }
        // Signed exponent (`1e-5`); unsigned exponents were consumed above.
        if (self.peek(0) == b'+' || self.peek(0) == b'-')
            && matches!(self.src.get(self.i.wrapping_sub(1)), Some(b'e' | b'E'))
            && self.peek(1).is_ascii_digit()
        {
            self.bump(1);
            while self.i < self.src.len() && is_ident_continue(self.src[self.i]) {
                self.bump(1);
            }
        }
    }
}

/// Tokenize a Rust source file into a flat token stream, comments included.
pub fn tokenize(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}
