pub fn worst(xs: &mut [f64]) {
    // lint:allow(no-partial-float-cmp)
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
