//! Output digests: a 64-bit FNV-1a hash over a replay's deterministic
//! counters, and the committed reference for each workload's default seed.

/// FNV-1a over named `u64` fields. Names are hashed too, so a field that
/// moves or is renamed changes the digest rather than aliasing another.
pub fn digest(fields: &[(&str, u64)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for (name, value) in fields {
        eat(name.as_bytes());
        eat(&value.to_le_bytes());
    }
    h
}

/// The seed each workload uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Reference digests of the full-size workloads, by `(workload, seed)`:
/// the default seed and the next nine. Every run on one of these seeds
/// must reproduce its digest exactly; on any other seed the first replay of
/// the run is the reference for the rest. Regenerate an entry by running
/// the benchmark on its seed and copying the `digest` of its `check` line.
pub const REFERENCES: &[(&str, u64, u64)] = &[
    ("fig6_trace", 1, 0xe2bd3937e6298517),
    ("fig6_trace", 2, 0x264c2e9852b10f8e),
    ("fig6_trace", 3, 0x14acc6c879053216),
    ("fig6_trace", 4, 0xb3643edfd2434e01),
    ("fig6_trace", 5, 0x61ad1c6c3c12789b),
    ("fig6_trace", 6, 0x9d9c5fa5e736cd09),
    ("fig6_trace", 7, 0xc109becb54c9bdcb),
    ("fig6_trace", 8, 0x1c0e70a57bdfee69),
    ("fig6_trace", 9, 0xd8ad48c360b7b292),
    ("fig6_trace", 10, 0x91d4eb9f9fe8c7d3),
    ("serial_100k", 1, 0xe6f80ffe7c8df915),
    ("serial_100k", 2, 0x982138669bbb7637),
    ("serial_100k", 3, 0x5ec55766e2041866),
    ("serial_100k", 4, 0x9d9ec4d39e607049),
    ("serial_100k", 5, 0xf21a66af7417c14f),
    ("serial_100k", 6, 0x76cb24789516734d),
    ("serial_100k", 7, 0x041ca49b31283c35),
    ("serial_100k", 8, 0x750b29665b0eed31),
    ("serial_100k", 9, 0x1714aa81990f4f16),
    ("serial_100k", 10, 0x8987e5260bdb861b),
    ("fleet_churn", 1, 0x07f5e83636a4ba4b),
    ("fleet_churn", 2, 0xfa8fb4bada46c83b),
    ("fleet_churn", 3, 0x7faa4df9955102de),
    ("fleet_churn", 4, 0x8c0ba3a252760632),
    ("fleet_churn", 5, 0x913e24e1c36105e6),
    ("fleet_churn", 6, 0xf44d635c934210c8),
    ("fleet_churn", 7, 0xf63b0049426d2eb7),
    ("fleet_churn", 8, 0x5a1e8ad53fe7d097),
    ("fleet_churn", 9, 0x33fcd625697d82ac),
    ("fleet_churn", 10, 0xee24d1f6007e852d),
];

/// The committed reference for `(workload, seed)`, if there is one.
pub fn reference(workload: &str, seed: u64) -> Option<u64> {
    REFERENCES
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_names_values_and_order() {
        let base = digest(&[("a", 1), ("b", 2)]);
        assert_ne!(base, digest(&[("a", 1), ("b", 3)]));
        assert_ne!(base, digest(&[("a", 1), ("c", 2)]));
        assert_ne!(base, digest(&[("b", 2), ("a", 1)]));
        assert_eq!(base, digest(&[("a", 1), ("b", 2)]));
    }
}
