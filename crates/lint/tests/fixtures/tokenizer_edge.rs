//! Banned identifiers in non-code positions must never trip rules:
//! partial_cmp(x).unwrap() xs.sort_by(|a, b| a.partial_cmp(b)) y.expect("")

/* block comment: SystemTime::now(), HashSet, rand::random::<u64>()
   /* nested: Instant::now() still inside the outer comment */
   unsafe { thread_rng() } */

pub const PLAIN: &str = "Instant::now() plus HashMap and unsafe";
pub const RAW: &str = r#"thread_rng() and "SystemTime::now()" in a raw string"#;
pub const RAW2: &str = r##"r#"nested raw"# with HashSet::new()"##;
pub const BYTES: &[u8] = b"rand::random() in a byte string";
pub const ESCAPED: &str = "quote \" then Instant::now()";
pub const CHARS: (char, char, char) = ('a', '\'', '\\');

pub fn lifetimes<'a>(x: &'a str) -> &'a str {
    // the lifetime 'a above must not be parsed as an unterminated char literal
    x
}

pub fn unwrap_in_string() -> &'static str {
    "xs.unwrap() and .expect(\"\") are only text here"
}
