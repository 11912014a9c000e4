//! The per-pod TPU load-balancing service (paper §5.3).
//!
//! Every application pod carries an LBS seeded by the extended scheduler
//! with the workload-partitioning weights. At runtime the LBS forwards each
//! `Invoke` to one TPU Service using **Weighted Round Robin with a
//! Weighted-Fair-Queueing spread** — requests to the same target are spaced
//! out rather than batched, so a TPU that owns 2/3 of a pod's weight sees
//! the pattern `A A B A A B …`, not `A A A A B B`. We implement the classic
//! *smooth WRR* algorithm (as popularised by nginx), which produces exactly
//! that maximally spread sequence and is deterministic.
//!
//! # Examples
//!
//! ```
//! use microedge_core::lbs::LbService;
//! use microedge_core::pool::Allocation;
//! use microedge_core::units::TpuUnits;
//! use microedge_tpu::device::TpuId;
//!
//! let mut lbs = LbService::from_allocations(&[
//!     Allocation::new(TpuId(0), TpuUnits::from_f64(0.4)),
//!     Allocation::new(TpuId(1), TpuUnits::from_f64(0.2)),
//! ]);
//! let picks: Vec<u32> = (0..6).map(|_| lbs.next().0).collect();
//! // 2:1 ratio, maximally spread.
//! assert_eq!(picks, vec![0, 1, 0, 0, 1, 0]);
//! ```

use serde::{Deserialize, Serialize};

use microedge_sim::inline::Inline;
use microedge_tpu::device::TpuId;

use crate::pool::Allocation;
use crate::units::TpuUnits;

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Target {
    tpu: TpuId,
    weight: i64,
    current: i64,
}

/// A deterministic smooth-WRR dispatcher over the TPU Services assigned to
/// one pod.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LbService {
    /// Inline when there is one target, the common case: the per-frame
    /// pick then reads no second heap allocation.
    targets: Inline<Target>,
    total: i64,
}

impl LbService {
    /// Builds an LBS from the extended scheduler's allocations; weights are
    /// the allocated TPU units.
    ///
    /// # Panics
    ///
    /// Panics if `allocations` is empty — a pod with TPU needs always
    /// receives at least one allocation.
    #[must_use]
    pub fn from_allocations(allocations: &[Allocation]) -> Self {
        assert!(
            !allocations.is_empty(),
            "LBS requires at least one TPU target"
        );
        let targets: Inline<Target> = allocations
            .iter()
            .map(|a| Target {
                tpu: a.tpu(),
                weight: i64::try_from(a.units().as_micro()).expect("weight fits i64"),
                current: 0,
            })
            .collect();
        let total = targets.iter().map(|t| t.weight).sum();
        LbService { targets, total }
    }

    /// Number of TPU targets.
    #[must_use]
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// The configured weights, in scheduler order.
    #[must_use]
    pub fn weights(&self) -> Vec<(TpuId, TpuUnits)> {
        self.targets
            .iter()
            .map(|t| {
                let micro = u64::try_from(t.weight).expect("lbs weights are non-negative");
                (t.tpu, TpuUnits::from_micro(micro))
            })
            .collect()
    }

    /// Picks the TPU Service for the next `Invoke` (smooth WRR step).
    ///
    /// Deliberately named like `Iterator::next` — the LBS *is* an infinite
    /// dispatch sequence — but it cannot implement `Iterator` because it
    /// never terminates and returns a bare `TpuId`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> TpuId {
        if self.total == 0 {
            // All-zero weights (e.g. a degenerate sub-unit rounding): smooth
            // WRR would tie every step on `current == 0` and the pick would
            // depend on `max_by_key`'s tie-breaking rather than the
            // configuration. Dispatch to the first target deterministically.
            return self.targets.first().expect("targets is non-empty").tpu;
        }
        for t in self.targets.iter_mut() {
            t.current += t.weight;
        }
        let best = self
            .targets
            .iter_mut()
            .max_by_key(|t| t.current)
            .expect("targets is non-empty");
        best.current -= self.total;
        best.tpu
    }

    /// Removes a target (failure handling), redistributing future picks to
    /// the remaining TPUs. Returns `true` if the target was present.
    ///
    /// After removing the last target the LBS is unusable and `next` will
    /// panic; callers re-admit the stream instead.
    pub fn remove_target(&mut self, tpu: TpuId) -> bool {
        let before = self.targets.len();
        self.targets.retain(|t| t.tpu != tpu);
        self.total = self.targets.iter().map(|t| t.weight).sum();
        before != self.targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn lbs(weights: &[(u32, f64)]) -> LbService {
        let allocations: Vec<Allocation> = weights
            .iter()
            .map(|&(tpu, w)| Allocation::new(TpuId(tpu), TpuUnits::from_f64(w)))
            .collect();
        LbService::from_allocations(&allocations)
    }

    fn frequencies(lbs: &mut LbService, picks: usize) -> BTreeMap<u32, usize> {
        let mut freq = BTreeMap::new();
        for _ in 0..picks {
            *freq.entry(lbs.next().0).or_insert(0) += 1;
        }
        freq
    }

    #[test]
    fn single_target_always_picked() {
        let mut l = lbs(&[(3, 0.35)]);
        for _ in 0..10 {
            assert_eq!(l.next(), TpuId(3));
        }
    }

    #[test]
    fn paper_example_two_thirds_one_third() {
        // Application 2 of §4.3: 0.4 units on TPU 1, 0.2 on TPU 2 → 66 % / 33 %.
        let mut l = lbs(&[(1, 0.4), (2, 0.2)]);
        let freq = frequencies(&mut l, 600);
        assert_eq!(freq[&1], 400);
        assert_eq!(freq[&2], 200);
    }

    #[test]
    fn spread_is_smooth_not_bursty() {
        let mut l = lbs(&[(0, 0.4), (1, 0.2)]);
        let picks: Vec<u32> = (0..6).map(|_| l.next().0).collect();
        // Never two consecutive picks of the minority target, and the
        // majority target never runs more than twice in a row.
        assert_eq!(picks, vec![0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn frequencies_match_weights_for_uneven_splits() {
        let mut l = lbs(&[(0, 0.5), (1, 0.3), (2, 0.2)]);
        let freq = frequencies(&mut l, 1000);
        assert_eq!(freq[&0], 500);
        assert_eq!(freq[&1], 300);
        assert_eq!(freq[&2], 200);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = lbs(&[(0, 0.35), (1, 0.65)]);
        let mut b = lbs(&[(0, 0.35), (1, 0.65)]);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn weights_accessor_roundtrips() {
        let l = lbs(&[(0, 0.4), (1, 0.2)]);
        assert_eq!(
            l.weights(),
            vec![
                (TpuId(0), TpuUnits::from_f64(0.4)),
                (TpuId(1), TpuUnits::from_f64(0.2)),
            ]
        );
        assert_eq!(l.target_count(), 2);
    }

    #[test]
    fn remove_target_redistributes() {
        let mut l = lbs(&[(0, 0.4), (1, 0.2)]);
        assert!(l.remove_target(TpuId(0)));
        assert!(!l.remove_target(TpuId(0)));
        for _ in 0..5 {
            assert_eq!(l.next(), TpuId(1));
        }
    }

    #[test]
    #[should_panic(expected = "at least one TPU target")]
    fn empty_allocations_rejected() {
        let _ = LbService::from_allocations(&[]);
    }

    #[test]
    fn all_zero_weights_fall_back_to_first_target() {
        // `Allocation` forbids zero units, so an all-zero LBS can only be
        // produced internally (e.g. by a degenerate rounding); construct it
        // directly to pin the deterministic fallback.
        let mut l = LbService {
            targets: Inline::Many(vec![
                Target {
                    tpu: TpuId(4),
                    weight: 0,
                    current: 0,
                },
                Target {
                    tpu: TpuId(7),
                    weight: 0,
                    current: 0,
                },
            ]),
            total: 0,
        };
        for _ in 0..10 {
            assert_eq!(l.next(), TpuId(4));
        }
    }
}
