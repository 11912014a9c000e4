pub fn h(xs: &mut [f64]) {
    // lint:allow(no-such-rule): the rule id is misspelled, so nothing is suppressed
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    // lint:allow(no-wall-clock): a retired rule id; clippy.toml owns this ban now
    let _ = xs.len();
}
