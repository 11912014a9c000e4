pub fn worst(xs: &mut [f64]) {
    // lint:allow(no-partial-float-cmp): the caller checks every sample finite
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs.sort_by(|a, b| b.partial_cmp(a).unwrap()); // lint:allow(no-partial-float-cmp): same samples
}
