//! The one writer behind every `BENCH_*.json` artifact.
//!
//! [`document`] hands a study an [`Obj`] to fill. Deterministic fields
//! ([`Obj::num`], [`Obj::str`], [`Obj::nums`]) and host measurements
//! ([`Obj::host`]) are written by different methods: the writer adds the
//! `host_` prefix itself and breaks the line whenever a field's kind
//! differs from what the line already holds, so a host field never shares
//! a line with a deterministic key. A document holding any host field also
//! records the [`host_cores`] it was measured on, on a line of its own.
//! [`strip_host_lines`] — the `grep -v '"host_'` of `scripts/check.sh` —
//! therefore leaves exactly the deterministic part, which must be
//! byte-identical across runs and `MICROEDGE_WORKERS` settings.
//!
//! Block objects put one field per line; inline objects keep their fields
//! on one line unless [`Obj::br`] (or a host/deterministic change) breaks
//! it. [`Obj::rows`] writes an array of inline records, one per line.

use std::fmt::{self, Write as _};

/// A JSON number, or `null` for an absent or non-finite value.
#[derive(Debug, Clone, Copy)]
pub enum Num {
    /// An integer.
    Int(u64),
    /// A float in its shortest round-trip form.
    Float(f64),
    /// A float with a fixed number of decimals.
    Fixed(f64, usize),
    /// An absent value.
    Null,
}

/// `value` written with `decimals` digits after the point.
#[must_use]
pub fn fixed(value: f64, decimals: usize) -> Num {
    Num::Fixed(value, decimals)
}

impl From<u64> for Num {
    fn from(value: u64) -> Self {
        Self::Int(value)
    }
}

impl From<u32> for Num {
    fn from(value: u32) -> Self {
        Self::Int(value.into())
    }
}

impl From<usize> for Num {
    fn from(value: usize) -> Self {
        Self::Int(u64::try_from(value).unwrap_or(u64::MAX))
    }
}

impl From<f64> for Num {
    fn from(value: f64) -> Self {
        Self::Float(value)
    }
}

impl<T: Into<Num>> From<Option<T>> for Num {
    fn from(value: Option<T>) -> Self {
        value.map_or(Self::Null, Into::into)
    }
}

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Int(v) => write!(f, "{v}"),
            Self::Float(v) if v.is_finite() => write!(f, "{v}"),
            Self::Fixed(v, decimals) if v.is_finite() => write!(f, "{v:.decimals$}"),
            _ => f.write_str("null"),
        }
    }
}

/// The host's core count, recorded once in every document that holds a
/// host measurement, so a reader can tell how many threads really ran
/// (`host_workers` may exceed it).
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The deterministic part of a document: every line that holds no
/// `"host_` key, each followed by a newline — what `grep -v '"host_'`
/// keeps.
#[must_use]
pub fn strip_host_lines(json: &str) -> String {
    json.lines()
        .filter(|line| !line.contains("\"host_"))
        .flat_map(|line| [line, "\n"])
        .collect()
}

/// Writes one JSON document: a block object filled by `fill`, then a
/// trailing newline.
#[must_use]
pub fn document(fill: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut writer = Writer {
        out: String::from("{"),
        line: Line::Empty,
        host: false,
    };
    fill(&mut Obj::new(&mut writer, 2, true));
    writer.newline(0);
    writer.out.push_str("}\n");
    // First in the document, so that stripping it leaves every
    // deterministic line, trailing commas included, as it was written.
    if writer.host {
        let cores = format!("\n  \"host_cores\": {},", host_cores());
        writer.out.insert_str(1, &cores);
    }
    writer.out
}

/// What the current output line holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Line {
    Empty,
    Deterministic,
    Host,
}

#[derive(Debug)]
struct Writer {
    out: String,
    line: Line,
    /// Whether any host field was written.
    host: bool,
}

impl Writer {
    fn newline(&mut self, indent: usize) {
        let _ = write!(self.out, "\n{:indent$}", "");
        self.line = Line::Empty;
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if c < ' ' => {
                    let _ = write!(self.out, "\\u{:04x}", u32::from(c));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// A JSON object being written; see the module docs.
#[derive(Debug)]
pub struct Obj<'w> {
    writer: &'w mut Writer,
    /// Where fields go after a line break.
    indent: usize,
    /// One field per line.
    block: bool,
    fields: usize,
    break_next: bool,
}

impl<'w> Obj<'w> {
    fn new(writer: &'w mut Writer, indent: usize, block: bool) -> Self {
        Self {
            writer,
            indent,
            block,
            fields: 0,
            break_next: false,
        }
    }

    fn key(&mut self, key: &str, host: bool) {
        let kind = if host {
            Line::Host
        } else {
            Line::Deterministic
        };
        let clash = self.writer.line != Line::Empty && self.writer.line != kind;
        if self.fields > 0 {
            self.writer.out.push(',');
        }
        if self.block || self.break_next || clash {
            self.writer.newline(self.indent);
        } else if self.fields > 0 {
            self.writer.out.push(' ');
        }
        self.fields += 1;
        self.break_next = false;
        self.writer.line = kind;
        self.writer.host |= host;
        let prefix = if host { "host_" } else { "" };
        self.writer.string(&format!("{prefix}{key}"));
        self.writer.out.push_str(": ");
    }

    /// A deterministic number.
    pub fn num(&mut self, key: &str, value: impl Into<Num>) -> &mut Self {
        self.key(key, false);
        let _ = write!(self.writer.out, "{}", value.into());
        self
    }

    /// A deterministic string.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key, false);
        self.writer.string(value);
        self
    }

    /// A deterministic array of numbers, on the current line.
    pub fn nums(&mut self, key: &str, values: impl IntoIterator<Item = Num>) -> &mut Self {
        self.key(key, false);
        self.writer.out.push('[');
        for (i, value) in values.into_iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(self.writer.out, "{sep}{value}");
        }
        self.writer.out.push(']');
        self
    }

    /// A host measurement, written as `host_<key>` on a line that holds no
    /// deterministic key.
    pub fn host(&mut self, key: &str, value: impl Into<Num>) -> &mut Self {
        self.key(key, true);
        let _ = write!(self.writer.out, "{}", value.into());
        self
    }

    /// Starts the next field on a new line (block objects always do).
    pub fn br(&mut self) -> &mut Self {
        self.break_next = true;
        self
    }

    /// A nested object kept on the current line.
    pub fn obj(&mut self, key: &str, fill: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.key(key, false);
        self.writer.out.push('{');
        fill(&mut Obj::new(self.writer, self.indent + 2, false));
        self.writer.out.push('}');
        self
    }

    /// A nested object with one field per line.
    pub fn block(&mut self, key: &str, fill: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.key(key, false);
        self.writer.out.push('{');
        fill(&mut Obj::new(self.writer, self.indent + 2, true));
        self.writer.newline(self.indent);
        self.writer.out.push('}');
        self
    }

    /// An array of records, each an inline object starting its own line at
    /// `indent` (its line breaks indent two further); the closing bracket
    /// lines up with this object's fields.
    pub fn rows<T>(
        &mut self,
        key: &str,
        indent: usize,
        items: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(&mut Obj<'_>, T),
    ) -> &mut Self {
        self.key(key, false);
        self.writer.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.writer.out.push(',');
            }
            self.writer.newline(indent);
            self.writer.out.push('{');
            fill(&mut Obj::new(self.writer, indent + 2, false), item);
            self.writer.out.push('}');
        }
        self.writer.newline(self.indent);
        self.writer.out.push(']');
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_match_the_hand_written_forms() {
        let json = document(|d| {
            d.str("benchmark", "a\"b\\c\n")
                .num("ratio", 0.5)
                .obj("inline", |o| {
                    o.num("a", 1u64).num("b", fixed(2.0, 2));
                })
                .block("nested", |b| {
                    b.num("absent", None::<u64>);
                })
                .rows("points", 4, [1u64, 2], |r, n| {
                    r.num("n", n).br().nums("xs", [fixed(0.26, 1)]);
                });
        });
        assert_eq!(
            json,
            "{\n  \"benchmark\": \"a\\\"b\\\\c\\n\",\n  \"ratio\": 0.5,\n  \
             \"inline\": {\"a\": 1, \"b\": 2.00},\n  \"nested\": {\n    \"absent\": null\n  },\n  \
             \"points\": [\n    {\"n\": 1,\n      \"xs\": [0.3]},\n    {\"n\": 2,\n      \
             \"xs\": [0.3]}\n  ]\n}\n"
        );
    }

    #[test]
    fn host_fields_get_their_own_lines_and_the_core_count() {
        let json = document(|d| {
            d.rows("points", 4, [3u64], |r, n| {
                r.num("n", n).host("wall_s", fixed(0.1234, 3)).num("m", n);
            })
            .host("total_s", f64::NAN);
        });
        let cores = host_cores();
        assert_eq!(
            json,
            format!(
                "{{\n  \"host_cores\": {cores},\n  \"points\": [\n    {{\"n\": 3,\n      \
                 \"host_wall_s\": 0.123,\n      \"m\": 3}}\n  ],\n  \"host_total_s\": null\n}}\n"
            )
        );
        assert_eq!(
            strip_host_lines(&json),
            "{\n  \"points\": [\n    {\"n\": 3,\n      \"m\": 3}\n  ],\n}\n"
        );
    }
}
