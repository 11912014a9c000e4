//! Property-based tests for the load-balancing service: smooth WRR must
//! realise the extended scheduler's partitioning weights exactly.

use std::collections::BTreeMap;

use proptest::prelude::*;

use microedge::core::lbs::LbService;
use microedge::core::pool::Allocation;
use microedge::core::units::TpuUnits;
use microedge::tpu::device::TpuId;

fn weights_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1_000u64..=1_000_000, 1..6)
}

fn lbs_from(weights: &[u64]) -> LbService {
    let allocations: Vec<Allocation> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| Allocation::new(TpuId(i as u32), TpuUnits::from_micro(w)))
        .collect();
    LbService::from_allocations(&allocations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Over any long horizon, per-target frequencies differ from the exact
    /// weight proportions by less than one pick per target (SWRR's bounded
    /// unfairness).
    #[test]
    fn frequencies_converge_to_weights(weights in weights_strategy()) {
        let mut lbs = lbs_from(&weights);
        let total: u64 = weights.iter().sum();
        let picks = 5_000u64;
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        for _ in 0..picks {
            *counts.entry(lbs.next().0).or_insert(0) += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = picks as f64 * w as f64 / total as f64;
            let got = *counts.get(&(i as u32)).unwrap_or(&0) as f64;
            prop_assert!(
                (got - expected).abs() <= 1.0 + picks as f64 * 1e-9,
                "target {i}: expected {expected:.1}, got {got}"
            );
        }
    }

    /// The spread is smooth: within any window of roughly two proportional
    /// periods (`2·total/max_weight + 2` picks), the heaviest target
    /// appears at least once — no bursty starvation, which plain WRR would
    /// exhibit.
    #[test]
    fn heaviest_target_never_starves(weights in weights_strategy()) {
        let mut lbs = lbs_from(&weights);
        let total: u64 = weights.iter().sum();
        let (heaviest, &max_w) = weights
            .iter()
            .enumerate()
            .max_by_key(|&(i, w)| (*w, std::cmp::Reverse(i)))
            .unwrap();
        let window = (2 * total / max_w + 2) as usize;
        let picks: Vec<u32> = (0..window * 20).map(|_| lbs.next().0).collect();
        for chunk in picks.windows(window) {
            prop_assert!(
                chunk.contains(&(heaviest as u32)),
                "heaviest target {heaviest} starved in a window of {window}"
            );
        }
    }

    /// Determinism: two LBS instances with identical weights produce
    /// identical sequences.
    #[test]
    fn identical_weights_identical_sequences(weights in weights_strategy()) {
        let mut a = lbs_from(&weights);
        let mut b = lbs_from(&weights);
        for _ in 0..500 {
            prop_assert_eq!(a.next(), b.next());
        }
    }

    /// Removing a target preserves the relative proportions of the rest.
    #[test]
    fn removal_preserves_remaining_proportions(weights in prop::collection::vec(1_000u64..=1_000_000, 2..6)) {
        let mut lbs = lbs_from(&weights);
        prop_assert!(lbs.remove_target(TpuId(0)));
        let total: u64 = weights.iter().skip(1).sum();
        let picks = 4_000u64;
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        for _ in 0..picks {
            *counts.entry(lbs.next().0).or_insert(0) += 1;
        }
        prop_assert!(!counts.contains_key(&0), "removed target still picked");
        for (i, &w) in weights.iter().enumerate().skip(1) {
            let expected = picks as f64 * w as f64 / total as f64;
            let got = *counts.get(&(i as u32)).unwrap_or(&0) as f64;
            prop_assert!((got - expected).abs() <= 1.0 + picks as f64 * 1e-9);
        }
    }
}

/// Smooth WRR over a plain `Vec`, written out independently of
/// `LbService`: the reference the differential test compares against.
struct ReferenceWrr {
    /// `(tpu, weight, current)` in scheduler order.
    targets: Vec<(u32, i64, i64)>,
}

impl ReferenceWrr {
    fn new(weights: &[u64]) -> Self {
        let targets = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as u32, i64::try_from(w).unwrap(), 0))
            .collect();
        ReferenceWrr { targets }
    }

    fn pick(&mut self) -> u32 {
        let total: i64 = self.targets.iter().map(|t| t.1).sum();
        for t in &mut self.targets {
            t.2 += t.1;
        }
        // Highest `current` wins; among ties the last one, as
        // `Iterator::max_by_key` breaks them.
        let mut best = 0;
        for (i, t) in self.targets.iter().enumerate() {
            if t.2 >= self.targets[best].2 {
                best = i;
            }
        }
        self.targets[best].2 -= total;
        self.targets[best].0
    }

    fn remove(&mut self, tpu: u32) {
        self.targets.retain(|t| t.0 != tpu);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential: with 1–6 targets and any sequence of removals down to
    /// one target, the LBS picks exactly what the plain-`Vec` reference
    /// picks, before and after every removal. This covers the inline
    /// one-target representation the removals end in.
    #[test]
    fn picks_match_plain_vec_reference(
        weights in prop::collection::vec(1_000u64..=1_000_000, 1..=6),
        removals in prop::collection::vec((0usize..6, 0usize..40), 0..6),
        tail in 1usize..40,
    ) {
        let mut lbs = lbs_from(&weights);
        let mut reference = ReferenceWrr::new(&weights);
        for (victim, picks) in removals {
            for _ in 0..picks {
                prop_assert_eq!(lbs.next().0, reference.pick());
            }
            if reference.targets.len() > 1 {
                let tpu = reference.targets[victim % reference.targets.len()].0;
                prop_assert!(lbs.remove_target(TpuId(tpu)));
                reference.remove(tpu);
                prop_assert_eq!(lbs.target_count(), reference.targets.len());
            }
        }
        for _ in 0..tail {
            prop_assert_eq!(lbs.next().0, reference.pick());
        }
    }
}
