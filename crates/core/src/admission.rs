//! Admission control (paper §4.2 and §4.3 — Algorithm 1).
//!
//! The extended scheduler treats TPU placement as **online bin packing**:
//! TPUs are bins of capacity 1 TPU unit, requests are items sized by their
//! requested units, with the extra *Model Size Rule* constraint that the
//! distinct models on one TPU must fit its parameter memory. MicroEdge uses
//! First-Fit (asymptotic approximation ratio 1.7); the other classic
//! heuristics are provided for the packing ablation.
//!
//! Two decision procedures mirror Algorithm 1 exactly:
//!
//! - `AdmissionControl` (lines 1–8): place the whole request on the first
//!   TPU that passes both the TPU Units Rule and the Model Size Rule;
//! - `AdmissionControlWithWorkloadPartitioning` (lines 9–28): if that fails,
//!   split the requested units across several TPUs, taking
//!   `min(remaining, 1 − CurrentLoad)` from each eligible TPU in scan order.
//!
//! ## The control-plane fast path
//!
//! Every policy here plans through the pool's capacity index (see
//! [`crate::pool`]): First-Fit and Next-Fit walk the max-free segment tree
//! ("first TPU at or after `start` with room for the request", O(log M) per
//! hop, and each hop either admits or permanently skips a model-inadmissible
//! TPU), while Best-Fit and Worst-Fit iterate the free-units buckets in the
//! exact order their reference sort would produce — without sorting, and
//! without visiting TPUs that cannot contribute. Plans are written into a
//! caller-owned [`PlanBuffer`], so steady-state planning allocates nothing.
//!
//! The pre-index linear scan survives verbatim in [`mod@reference`] as the
//! differential-testing oracle: for every request sequence, each indexed
//! policy must produce byte-identical plans to its reference twin (see
//! `tests/admission_differential.rs`).
//!
//! # Examples
//!
//! ```
//! use microedge_cluster::topology::ClusterBuilder;
//! use microedge_core::admission::{AdmissionPolicy, FirstFit};
//! use microedge_core::config::Features;
//! use microedge_core::pool::TpuPool;
//! use microedge_core::units::TpuUnits;
//! use microedge_models::catalog::ssd_mobilenet_v2;
//! use microedge_tpu::spec::TpuSpec;
//!
//! let cluster = ClusterBuilder::new().trpis(2).vrpis(1).build();
//! let pool = TpuPool::from_cluster(&cluster, TpuSpec::coral_usb());
//! let mut policy = FirstFit::new();
//! let plan = policy
//!     .plan(&pool, &ssd_mobilenet_v2(), TpuUnits::from_f64(0.35), Features::all())
//!     .unwrap();
//! assert_eq!(plan.len(), 1);
//! ```

use microedge_models::profile::ModelProfile;
use microedge_tpu::device::TpuId;

use crate::config::Features;
use crate::pool::{Allocation, TpuAccount, TpuPool};
use crate::units::TpuUnits;

/// A reusable plan target: holds the allocations of the most recent
/// successful [`AdmissionPolicy::plan_into`] call. Reusing one buffer across
/// decisions keeps steady-state admission planning allocation-free.
#[derive(Debug, Clone, Default)]
pub struct PlanBuffer {
    allocations: Vec<Allocation>,
}

impl PlanBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        PlanBuffer::default()
    }

    /// The planned allocations (empty unless the last `plan_into` returned
    /// `true`, or the request was for zero units).
    #[must_use]
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// Number of planned allocations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.allocations.len()
    }

    /// `true` when the buffer holds no allocations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.allocations.is_empty()
    }

    /// Moves the plan out as an owned vector, leaving the buffer empty
    /// (and its capacity intact is *not* guaranteed — prefer
    /// [`PlanBuffer::allocations`] on hot paths).
    #[must_use]
    pub fn take(&mut self) -> Vec<Allocation> {
        std::mem::take(&mut self.allocations)
    }

    /// Empties the buffer, keeping its capacity. Policy implementations
    /// must call this before planning (and on rejection).
    pub fn clear(&mut self) {
        self.allocations.clear();
    }

    /// Appends one allocation — the building block for out-of-crate
    /// [`AdmissionPolicy`] implementations.
    pub fn push(&mut self, allocation: Allocation) {
        self.allocations.push(allocation);
    }
}

/// Decides where a TPU request goes. Implementations are the packing
/// heuristics; [`FirstFit`] is the one MicroEdge ships. `Send` because the
/// sharded replay moves whole `World`s — scheduler and policy included —
/// across its worker pool between epochs.
pub trait AdmissionPolicy: std::fmt::Debug + Send {
    /// Plans allocations for a request of `units` of `model` into `out`,
    /// returning `false` when the request must be rejected (in which case
    /// `out` is left empty). The plan is **not** committed — callers apply
    /// it with [`TpuPool::commit`]. This is the zero-allocation entry
    /// point; reuse one [`PlanBuffer`] across calls.
    fn plan_into(
        &mut self,
        pool: &TpuPool,
        model: &ModelProfile,
        units: TpuUnits,
        features: Features,
        out: &mut PlanBuffer,
    ) -> bool;

    /// Convenience wrapper over [`AdmissionPolicy::plan_into`] allocating a
    /// fresh plan vector per call, or `None` when the request must be
    /// rejected.
    fn plan(
        &mut self,
        pool: &TpuPool,
        model: &ModelProfile,
        units: TpuUnits,
        features: Features,
    ) -> Option<Vec<Allocation>> {
        let mut buffer = PlanBuffer::new();
        self.plan_into(pool, model, units, features, &mut buffer)
            .then(|| buffer.take())
    }

    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;
}

/// The Model Size Rule plus the co-compiling feature flag: can `model` be
/// (or is it already) loaded on this TPU?
///
/// With co-compiling enabled this is Algorithm 1 line 4/14: the model is
/// already resident, or its parameter data fits the TPU's free memory. With
/// co-compiling *disabled* a TPU cannot space-share distinct models, so the
/// TPU must either already serve this model or serve no model at all.
fn model_admissible(
    account: &TpuAccount,
    model: &ModelProfile,
    budget: u64,
    features: Features,
) -> bool {
    if account.has_live_model(model.id()) {
        return true;
    }
    if features.co_compiling {
        model.param_bytes() <= account.free_mem(budget)
    } else {
        account.live_model_count() == 0
    }
}

fn eligible(account: &TpuAccount) -> bool {
    account.is_available()
}

/// Indexed scan of available TPUs with ids in `[lo, hi)` and free units
/// ≥ `min_free`, ascending by id — each step is one O(log M) segment-tree
/// descent, so skipping over a fully committed prefix costs nothing.
fn id_scan(
    pool: &TpuPool,
    lo: u32,
    hi: u32,
    min_free: TpuUnits,
) -> impl Iterator<Item = TpuId> + '_ {
    let mut next = lo;
    std::iter::from_fn(move || {
        if next >= hi {
            return None;
        }
        let id = pool.next_tpu_with_free(TpuId(next), min_free)?;
        if id.0 >= hi {
            return None;
        }
        next = id.0 + 1;
        Some(id)
    })
}

/// The shared Algorithm 1 body over index-backed candidate streams.
///
/// `whole_pass` yields, in the policy's scan order, exactly the available
/// TPUs whose free units satisfy the TPU Units Rule for the whole request;
/// `split_pass` yields, in the same order, every available TPU with any
/// free capacity at all. Both must be equivalent to the reference policy's
/// ordered scan with un-fitting TPUs removed — the removal is sound because
/// `plan_in_order` skips those TPUs anyway (whole placement needs
/// `free ≥ units`; partitioning takes `min(remaining, free)`, a no-op at
/// `free = 0`).
fn plan_indexed<W, S, WI, SI>(
    pool: &TpuPool,
    model: &ModelProfile,
    units: TpuUnits,
    features: Features,
    whole_pass: W,
    split_pass: S,
    out: &mut PlanBuffer,
) -> bool
where
    W: FnOnce() -> WI,
    WI: Iterator<Item = TpuId>,
    S: FnOnce() -> SI,
    SI: Iterator<Item = TpuId>,
{
    out.allocations.clear();
    if units.is_zero() {
        return true;
    }
    let budget = pool.param_budget();
    // Procedure AdmissionControl (Algorithm 1, lines 1–8): candidates
    // already satisfy the TPU Units Rule, so only the Model Size Rule is
    // left to check.
    for tpu in whole_pass() {
        if model_admissible(pool.account(tpu), model, budget, features) {
            out.allocations.push(Allocation::new(tpu, units));
            return true;
        }
    }
    if !features.workload_partitioning {
        return false;
    }
    // Procedure AdmissionControlWithWorkloadPartitioning (lines 9–28).
    let mut remaining = units;
    for tpu in split_pass() {
        let account = pool.account(tpu);
        if !model_admissible(account, model, budget, features) {
            continue;
        }
        let wp = remaining.min(account.free_units());
        if !wp.is_zero() {
            out.allocations.push(Allocation::new(tpu, wp));
            remaining -= wp;
            if remaining.is_zero() {
                return true;
            }
        }
    }
    out.allocations.clear();
    false
}

/// First-Fit: scan TPUs in fixed id order — MicroEdge's shipped policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstFit;

impl FirstFit {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        FirstFit
    }
}

impl AdmissionPolicy for FirstFit {
    fn plan_into(
        &mut self,
        pool: &TpuPool,
        model: &ModelProfile,
        units: TpuUnits,
        features: Features,
        out: &mut PlanBuffer,
    ) -> bool {
        let len = u32::try_from(pool.len()).expect("tpu pool size fits u32");
        plan_indexed(
            pool,
            model,
            units,
            features,
            || id_scan(pool, 0, len, units),
            || id_scan(pool, 0, len, TpuUnits::ZERO),
            out,
        )
    }

    fn name(&self) -> &'static str {
        "first-fit"
    }
}

/// Best-Fit: prefer the most-loaded TPU that can still take the request,
/// keeping large holes open for future big requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BestFit;

impl BestFit {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        BestFit
    }
}

impl AdmissionPolicy for BestFit {
    fn plan_into(
        &mut self,
        pool: &TpuPool,
        model: &ModelProfile,
        units: TpuUnits,
        features: Features,
        out: &mut PlanBuffer,
    ) -> bool {
        // Least free units first, ids ascending within ties — the bucket
        // iteration order is exactly the reference `(free_units, id)` sort.
        plan_indexed(
            pool,
            model,
            units,
            features,
            || pool.tpus_by_free_ascending(units),
            || pool.tpus_by_free_ascending(TpuUnits::ZERO),
            out,
        )
    }

    fn name(&self) -> &'static str {
        "best-fit"
    }
}

/// Worst-Fit: prefer the emptiest TPU, spreading load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorstFit;

impl WorstFit {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        WorstFit
    }
}

impl AdmissionPolicy for WorstFit {
    fn plan_into(
        &mut self,
        pool: &TpuPool,
        model: &ModelProfile,
        units: TpuUnits,
        features: Features,
        out: &mut PlanBuffer,
    ) -> bool {
        // Most free units first, ids ascending within ties — matching the
        // reference `(Reverse(free_units), id)` sort.
        plan_indexed(
            pool,
            model,
            units,
            features,
            || pool.tpus_by_free_descending(units),
            || pool.tpus_by_free_descending(TpuUnits::ZERO),
            out,
        )
    }

    fn name(&self) -> &'static str {
        "worst-fit"
    }
}

/// Next-k-Fit: like Next-Fit but keeps the last `k` opened TPUs active —
/// the middle ground the paper's §4.2 heuristic list includes between
/// Next-Fit (k = 1) and First-Fit (k = ∞).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextKFit {
    k: usize,
    cursor: usize,
}

impl NextKFit {
    /// Creates the policy keeping the last `k` TPUs active.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "Next-k-Fit requires k ≥ 1");
        NextKFit { k, cursor: 0 }
    }
}

impl AdmissionPolicy for NextKFit {
    fn plan_into(
        &mut self,
        pool: &TpuPool,
        model: &ModelProfile,
        units: TpuUnits,
        features: Features,
        out: &mut PlanBuffer,
    ) -> bool {
        let accounts = pool.accounts();
        if accounts.is_empty() {
            out.allocations.clear();
            return false;
        }
        // The active window (at most k TPUs ending at the cursor) is a
        // constant-size linear scan; the tail beyond the cursor goes
        // through the index. TPUs before the window are never candidates.
        let window_start = self.cursor.saturating_sub(self.k - 1);
        let window_end = self.cursor.min(accounts.len() - 1);
        let tail_lo =
            u32::try_from((self.cursor + 1).min(accounts.len())).expect("tpu pool size fits u32");
        let len = u32::try_from(accounts.len()).expect("tpu pool size fits u32");
        let window = &accounts[window_start..=window_end];
        let planned = plan_indexed(
            pool,
            model,
            units,
            features,
            || {
                window
                    .iter()
                    .filter(move |a| eligible(a) && a.free_units() >= units)
                    .map(TpuAccount::id)
                    .chain(id_scan(pool, tail_lo, len, units))
            },
            || {
                window
                    .iter()
                    .filter(|a| eligible(a) && !a.free_units().is_zero())
                    .map(TpuAccount::id)
                    .chain(id_scan(pool, tail_lo, len, TpuUnits::ZERO))
            },
            out,
        );
        if planned {
            if let Some(last) = out.allocations.last() {
                // Ids are dense (TPU i is accounts[i]), so the id doubles
                // as the cursor position.
                self.cursor = (last.tpu().index()).max(self.cursor);
            }
        }
        planned
    }

    fn name(&self) -> &'static str {
        "next-k-fit"
    }
}

/// Next-Fit: resume scanning where the previous request left off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NextFit {
    cursor: usize,
}

impl NextFit {
    /// Creates the policy with the cursor at the first TPU.
    #[must_use]
    pub fn new() -> Self {
        NextFit { cursor: 0 }
    }
}

impl AdmissionPolicy for NextFit {
    fn plan_into(
        &mut self,
        pool: &TpuPool,
        model: &ModelProfile,
        units: TpuUnits,
        features: Features,
        out: &mut PlanBuffer,
    ) -> bool {
        if pool.is_empty() {
            out.allocations.clear();
            return false;
        }
        let len = u32::try_from(pool.len()).expect("tpu pool size fits u32");
        let start = u32::try_from(self.cursor % pool.len()).expect("cursor below len fits u32");
        let planned = plan_indexed(
            pool,
            model,
            units,
            features,
            || id_scan(pool, start, len, units).chain(id_scan(pool, 0, start, units)),
            || {
                id_scan(pool, start, len, TpuUnits::ZERO).chain(id_scan(
                    pool,
                    0,
                    start,
                    TpuUnits::ZERO,
                ))
            },
            out,
        );
        if planned {
            if let Some(last) = out.allocations.last() {
                self.cursor = last.tpu().index();
            }
        }
        planned
    }

    fn name(&self) -> &'static str {
        "next-fit"
    }
}

pub mod reference {
    //! The pre-index linear-scan policies, kept verbatim as the
    //! differential-testing oracle: every indexed policy above must produce
    //! byte-identical plans to its twin here on any request sequence. These
    //! materialise and (for Best/Worst-Fit) sort a full candidate vector
    //! per decision — O(M) or O(M log M) where the fast path is O(log M) —
    //! so they are for testing and the perf baseline, not production use.

    use super::{
        eligible, model_admissible, AdmissionPolicy, Allocation, Features, ModelProfile,
        PlanBuffer, TpuAccount, TpuPool, TpuUnits,
    };

    /// Places the whole request on one TPU chosen from `ordered`, or splits
    /// it across them when `features.workload_partitioning` allows — the
    /// shared body of every heuristic, parameterised only by scan order.
    fn plan_in_order(
        ordered: &[&TpuAccount],
        budget: u64,
        model: &ModelProfile,
        units: TpuUnits,
        features: Features,
        out: &mut PlanBuffer,
    ) -> bool {
        out.allocations.clear();
        if units.is_zero() {
            return true;
        }
        // Procedure AdmissionControl (Algorithm 1, lines 1–8).
        for account in ordered {
            let fits_units = account
                .load()
                .checked_add(units)
                .is_some_and(|total| total <= TpuUnits::ONE);
            if fits_units && model_admissible(account, model, budget, features) {
                out.allocations.push(Allocation::new(account.id(), units));
                return true;
            }
        }
        if !features.workload_partitioning {
            return false;
        }
        // Procedure AdmissionControlWithWorkloadPartitioning (lines 9–28).
        let mut remaining = units;
        for account in ordered {
            if !model_admissible(account, model, budget, features) {
                continue;
            }
            let wp = remaining.min(account.free_units());
            if !wp.is_zero() {
                out.allocations.push(Allocation::new(account.id(), wp));
                remaining -= wp;
                if remaining.is_zero() {
                    return true;
                }
            }
        }
        out.allocations.clear();
        false
    }

    /// Linear-scan First-Fit (the oracle for [`super::FirstFit`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FirstFit;

    impl FirstFit {
        /// Creates the policy.
        #[must_use]
        pub fn new() -> Self {
            FirstFit
        }
    }

    impl AdmissionPolicy for FirstFit {
        fn plan_into(
            &mut self,
            pool: &TpuPool,
            model: &ModelProfile,
            units: TpuUnits,
            features: Features,
            out: &mut PlanBuffer,
        ) -> bool {
            let ordered: Vec<&TpuAccount> =
                pool.accounts().iter().filter(|a| eligible(a)).collect();
            plan_in_order(&ordered, pool.param_budget(), model, units, features, out)
        }

        fn name(&self) -> &'static str {
            "first-fit/linear"
        }
    }

    /// Linear-scan Best-Fit (the oracle for [`super::BestFit`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct BestFit;

    impl BestFit {
        /// Creates the policy.
        #[must_use]
        pub fn new() -> Self {
            BestFit
        }
    }

    impl AdmissionPolicy for BestFit {
        fn plan_into(
            &mut self,
            pool: &TpuPool,
            model: &ModelProfile,
            units: TpuUnits,
            features: Features,
            out: &mut PlanBuffer,
        ) -> bool {
            let mut ordered: Vec<&TpuAccount> =
                pool.accounts().iter().filter(|a| eligible(a)).collect();
            // Least free units first; ties by id for determinism.
            ordered.sort_by_key(|a| (a.free_units(), a.id()));
            plan_in_order(&ordered, pool.param_budget(), model, units, features, out)
        }

        fn name(&self) -> &'static str {
            "best-fit/linear"
        }
    }

    /// Linear-scan Worst-Fit (the oracle for [`super::WorstFit`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WorstFit;

    impl WorstFit {
        /// Creates the policy.
        #[must_use]
        pub fn new() -> Self {
            WorstFit
        }
    }

    impl AdmissionPolicy for WorstFit {
        fn plan_into(
            &mut self,
            pool: &TpuPool,
            model: &ModelProfile,
            units: TpuUnits,
            features: Features,
            out: &mut PlanBuffer,
        ) -> bool {
            let mut ordered: Vec<&TpuAccount> =
                pool.accounts().iter().filter(|a| eligible(a)).collect();
            ordered.sort_by_key(|a| (std::cmp::Reverse(a.free_units()), a.id()));
            plan_in_order(&ordered, pool.param_budget(), model, units, features, out)
        }

        fn name(&self) -> &'static str {
            "worst-fit/linear"
        }
    }

    /// Linear-scan Next-k-Fit (the oracle for [`super::NextKFit`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct NextKFit {
        k: usize,
        cursor: usize,
    }

    impl NextKFit {
        /// Creates the policy keeping the last `k` TPUs active.
        ///
        /// # Panics
        ///
        /// Panics if `k` is zero.
        #[must_use]
        pub fn new(k: usize) -> Self {
            assert!(k > 0, "Next-k-Fit requires k ≥ 1");
            NextKFit { k, cursor: 0 }
        }
    }

    impl AdmissionPolicy for NextKFit {
        fn plan_into(
            &mut self,
            pool: &TpuPool,
            model: &ModelProfile,
            units: TpuUnits,
            features: Features,
            out: &mut PlanBuffer,
        ) -> bool {
            let accounts = pool.accounts();
            if accounts.is_empty() {
                out.allocations.clear();
                return false;
            }
            // The active window: the k TPUs ending at the cursor, then the
            // rest in id order (candidates for opening).
            let window_start = self.cursor.saturating_sub(self.k - 1);
            let ordered: Vec<&TpuAccount> = accounts
                [window_start..=self.cursor.min(accounts.len() - 1)]
                .iter()
                .chain(&accounts[(self.cursor + 1).min(accounts.len())..])
                .filter(|a| eligible(a))
                .collect();
            let planned = plan_in_order(&ordered, pool.param_budget(), model, units, features, out);
            if planned {
                if let Some(last) = out.allocations.last() {
                    self.cursor = accounts
                        .iter()
                        .position(|a| a.id() == last.tpu())
                        .unwrap_or(0)
                        .max(self.cursor);
                }
            }
            planned
        }

        fn name(&self) -> &'static str {
            "next-k-fit/linear"
        }
    }

    /// Linear-scan Next-Fit (the oracle for [`super::NextFit`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct NextFit {
        cursor: usize,
    }

    impl NextFit {
        /// Creates the policy with the cursor at the first TPU.
        #[must_use]
        pub fn new() -> Self {
            NextFit { cursor: 0 }
        }
    }

    impl AdmissionPolicy for NextFit {
        fn plan_into(
            &mut self,
            pool: &TpuPool,
            model: &ModelProfile,
            units: TpuUnits,
            features: Features,
            out: &mut PlanBuffer,
        ) -> bool {
            let accounts = pool.accounts();
            if accounts.is_empty() {
                out.allocations.clear();
                return false;
            }
            let start = self.cursor % accounts.len();
            let ordered: Vec<&TpuAccount> = accounts[start..]
                .iter()
                .chain(&accounts[..start])
                .filter(|a| eligible(a))
                .collect();
            let planned = plan_in_order(&ordered, pool.param_budget(), model, units, features, out);
            if planned {
                if let Some(last) = out.allocations.last() {
                    self.cursor = accounts
                        .iter()
                        .position(|a| a.id() == last.tpu())
                        .unwrap_or(0);
                }
            }
            planned
        }

        fn name(&self) -> &'static str {
            "next-fit/linear"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microedge_cluster::topology::ClusterBuilder;
    use microedge_models::catalog::{
        bodypix_mobilenet_v1, mobilenet_v1, resnet_50, ssd_mobilenet_v2, unet_v2,
    };
    use microedge_tpu::device::TpuId;
    use microedge_tpu::spec::TpuSpec;

    fn pool(trpis: u32) -> TpuPool {
        let cluster = ClusterBuilder::new().trpis(trpis).vrpis(1).build();
        TpuPool::from_cluster(&cluster, TpuSpec::coral_usb())
    }

    fn u(f: f64) -> TpuUnits {
        TpuUnits::from_f64(f)
    }

    #[test]
    fn first_fit_fills_first_tpu_first() {
        let mut pool = pool(3);
        let mut ff = FirstFit::new();
        let m = ssd_mobilenet_v2();
        for _ in 0..2 {
            let plan = ff.plan(&pool, &m, u(0.35), Features::all()).unwrap();
            assert_eq!(plan.len(), 1);
            assert_eq!(plan[0].tpu(), TpuId(0));
            pool.commit(&m, &plan);
        }
        // Third 0.35 no longer fits TPU 0 (0.70 + 0.35 > 1): basic pass
        // moves to TPU 1... unless partitioning splits it first? Algorithm 1
        // tries the whole request on each TPU first, so TPU 1 takes it.
        let plan = ff.plan(&pool, &m, u(0.35), Features::all()).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].tpu(), TpuId(1));
    }

    #[test]
    fn partitioning_splits_the_paper_example() {
        // Three pods of 0.6 units fit on two TPUs only with partitioning
        // (paper §4.3's worked example).
        let mut pool = pool(2);
        let mut ff = FirstFit::new();
        let m = ssd_mobilenet_v2();

        let p1 = ff.plan(&pool, &m, u(0.6), Features::all()).unwrap();
        assert_eq!(p1, vec![Allocation::new(TpuId(0), u(0.6))]);
        pool.commit(&m, &p1);

        // Algorithm 1 always tries the unsplit placement first (line 11), so
        // the second pod lands whole on the still-empty TPU 1.
        let p2 = ff.plan(&pool, &m, u(0.6), Features::all()).unwrap();
        assert_eq!(p2, vec![Allocation::new(TpuId(1), u(0.6))]);
        pool.commit(&m, &p2);

        // The third pod cannot fit unsplit anywhere; partitioning takes
        // 0.4 from TPU 0 (66 % of its requests) and 0.2 from TPU 1.
        let p3 = ff.plan(&pool, &m, u(0.6), Features::all()).unwrap();
        assert_eq!(
            p3,
            vec![
                Allocation::new(TpuId(0), u(0.4)),
                Allocation::new(TpuId(1), u(0.2)),
            ]
        );
        pool.commit(&m, &p3);

        // Two TPUs suffice for the three 0.6-unit pods, as in the paper.
        assert_eq!(pool.account(TpuId(0)).load(), TpuUnits::ONE);
        assert_eq!(pool.account(TpuId(1)).load(), u(0.8));
    }

    #[test]
    fn without_partitioning_the_example_needs_three_tpus() {
        let mut pool = pool(3);
        let mut ff = FirstFit::new();
        let m = ssd_mobilenet_v2();
        let features = Features::co_compiling_only();
        for i in 0..3 {
            let plan = ff.plan(&pool, &m, u(0.6), features).unwrap();
            assert_eq!(plan.len(), 1, "no partitioning allowed");
            assert_eq!(plan[0].tpu(), TpuId(i));
            pool.commit(&m, &plan);
        }
    }

    #[test]
    fn requests_over_one_unit_need_partitioning() {
        let pool = pool(2);
        let mut ff = FirstFit::new();
        let m = bodypix_mobilenet_v1();
        assert!(
            ff.plan(&pool, &m, u(1.2), Features::co_compiling_only())
                .is_none(),
            "1.2 units cannot fit one TPU"
        );
        let plan = ff.plan(&pool, &m, u(1.2), Features::all()).unwrap();
        assert_eq!(
            plan,
            vec![
                Allocation::new(TpuId(0), u(1.0)),
                Allocation::new(TpuId(1), u(0.2)),
            ]
        );
    }

    #[test]
    fn rejects_when_cumulative_capacity_insufficient() {
        let mut pool = pool(1);
        let mut ff = FirstFit::new();
        let m = ssd_mobilenet_v2();
        pool.commit(&m, &[Allocation::new(TpuId(0), u(0.9))]);
        assert!(ff.plan(&pool, &m, u(0.2), Features::all()).is_none());
    }

    #[test]
    fn model_size_rule_blocks_overflowing_model() {
        let mut pool = pool(1);
        let mut ff = FirstFit::new();
        // ResNet-50 alone exceeds the budget; another model resident means
        // ResNet cannot be admitted at all on that TPU.
        pool.commit(&mobilenet_v1(), &[Allocation::new(TpuId(0), u(0.2))]);
        assert!(
            ff.plan(&pool, &resnet_50(), u(0.3), Features::all())
                .is_none(),
            "no TPU satisfies the Model Size Rule"
        );
    }

    #[test]
    fn resident_model_bypasses_size_check() {
        let mut pool = pool(1);
        let mut ff = FirstFit::new();
        let big = resnet_50();
        // An empty TPU: free_mem is the whole budget, which ResNet exceeds.
        assert!(
            ff.plan(&pool, &big, u(0.3), Features::all()).is_none(),
            "ResNet-50 never fits the parameter budget"
        );
        // But if it is somehow already resident (committed by an operator
        // override), further pods of the same model are admissible.
        pool.commit(&big, &[Allocation::new(TpuId(0), u(0.3))]);
        assert!(ff.plan(&pool, &big, u(0.3), Features::all()).is_some());
    }

    #[test]
    fn no_cocompiling_forbids_mixing_models() {
        let mut pool = pool(1);
        let mut ff = FirstFit::new();
        let features = Features::partitioning_only();
        pool.commit(&mobilenet_v1(), &[Allocation::new(TpuId(0), u(0.2))]);
        assert!(
            ff.plan(&pool, &unet_v2(), u(0.2), features).is_none(),
            "distinct model may not share a TPU without co-compiling"
        );
        assert!(
            ff.plan(&pool, &mobilenet_v1(), u(0.2), features).is_some(),
            "same model may time-share"
        );
    }

    #[test]
    fn cocompiling_allows_mixing_within_budget() {
        let mut pool = pool(1);
        let mut ff = FirstFit::new();
        pool.commit(&mobilenet_v1(), &[Allocation::new(TpuId(0), u(0.2))]);
        assert!(ff
            .plan(&pool, &unet_v2(), u(0.2), Features::all())
            .is_some());
        // A third model that would overflow the budget is rejected.
        pool.commit(&unet_v2(), &[Allocation::new(TpuId(0), u(0.2))]);
        assert!(ff
            .plan(&pool, &ssd_mobilenet_v2(), u(0.2), Features::all())
            .is_none());
    }

    #[test]
    fn failed_tpus_are_skipped() {
        let mut pool = pool(2);
        let mut ff = FirstFit::new();
        pool.fail(TpuId(0));
        let plan = ff.plan(&pool, &unet_v2(), u(0.5), Features::all()).unwrap();
        assert_eq!(plan[0].tpu(), TpuId(1));
    }

    #[test]
    fn zero_unit_request_is_trivially_admitted() {
        let pool = pool(1);
        let mut ff = FirstFit::new();
        let plan = ff
            .plan(&pool, &unet_v2(), TpuUnits::ZERO, Features::all())
            .unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn best_fit_prefers_fuller_tpu() {
        let mut pool = pool(2);
        let m = unet_v2();
        pool.commit(&m, &[Allocation::new(TpuId(1), u(0.5))]);
        let mut bf = BestFit::new();
        let plan = bf.plan(&pool, &m, u(0.3), Features::all()).unwrap();
        assert_eq!(plan[0].tpu(), TpuId(1), "best-fit picks the fuller TPU");
        let mut wf = WorstFit::new();
        let plan = wf.plan(&pool, &m, u(0.3), Features::all()).unwrap();
        assert_eq!(plan[0].tpu(), TpuId(0), "worst-fit picks the emptier TPU");
    }

    #[test]
    fn next_fit_advances_cursor() {
        let mut pool = pool(3);
        let mut nf = NextFit::new();
        let m = mobilenet_v1();
        let p1 = nf.plan(&pool, &m, u(0.9), Features::all()).unwrap();
        pool.commit(&m, &p1);
        assert_eq!(p1[0].tpu(), TpuId(0));
        // Cursor stays at TPU 0; 0.9 no longer fits there, so scanning
        // resumes from 0 and lands on TPU 1.
        let p2 = nf.plan(&pool, &m, u(0.9), Features::all()).unwrap();
        pool.commit(&m, &p2);
        assert_eq!(p2[0].tpu(), TpuId(1));
        // A small request now starts scanning at TPU 1 (cursor), not TPU 0.
        let p3 = nf.plan(&pool, &m, u(0.05), Features::all()).unwrap();
        assert_eq!(p3[0].tpu(), TpuId(1));
    }

    #[test]
    fn policy_names() {
        assert_eq!(FirstFit::new().name(), "first-fit");
        assert_eq!(BestFit::new().name(), "best-fit");
        assert_eq!(WorstFit::new().name(), "worst-fit");
        assert_eq!(NextFit::new().name(), "next-fit");
        assert_eq!(NextKFit::new(2).name(), "next-k-fit");
        assert_eq!(reference::FirstFit::new().name(), "first-fit/linear");
        assert_eq!(reference::NextFit::new().name(), "next-fit/linear");
    }

    #[test]
    fn next_k_fit_keeps_a_window_of_open_tpus() {
        let mut pool = pool(4);
        let m = mobilenet_v1();
        let mut nkf = NextKFit::new(2);
        // Fill TPU 0 and TPU 1 partially, advancing the cursor to 1.
        for expected in [0u32, 0, 1] {
            let plan = nkf.plan(&pool, &m, u(0.5), Features::all()).unwrap();
            assert_eq!(plan[0].tpu(), TpuId(expected));
            pool.commit(&m, &plan);
        }
        // k = 2 window is {TPU 0, TPU 1}: a 0.5 request fits TPU 1.
        let plan = nkf.plan(&pool, &m, u(0.5), Features::all()).unwrap();
        assert_eq!(plan[0].tpu(), TpuId(1));
        pool.commit(&m, &plan);
        // Window exhausted → opens TPU 2.
        let plan = nkf.plan(&pool, &m, u(0.5), Features::all()).unwrap();
        assert_eq!(plan[0].tpu(), TpuId(2));
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn next_k_fit_rejects_zero_k() {
        let _ = NextKFit::new(0);
    }

    #[test]
    fn plan_buffer_is_reusable_and_cleared_on_rejection() {
        let mut pool = pool(2);
        let m = ssd_mobilenet_v2();
        let mut ff = FirstFit::new();
        let mut buf = PlanBuffer::new();
        assert!(ff.plan_into(&pool, &m, u(0.6), Features::all(), &mut buf));
        assert_eq!(buf.allocations(), &[Allocation::new(TpuId(0), u(0.6))]);
        pool.commit(&m, buf.allocations());
        // A second plan through the same buffer replaces the first.
        assert!(ff.plan_into(&pool, &m, u(0.6), Features::all(), &mut buf));
        assert_eq!(buf.allocations(), &[Allocation::new(TpuId(1), u(0.6))]);
        pool.commit(&m, buf.allocations());
        // Rejection leaves the buffer empty, even when the partitioning
        // pass had pushed partial allocations before failing.
        assert!(!ff.plan_into(&pool, &m, u(1.5), Features::all(), &mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn indexed_policies_match_reference_after_failures() {
        // A hand-run of the differential property: failures, restores, and
        // mixed load, with each indexed policy shadowing its oracle.
        let m = ssd_mobilenet_v2();
        let features = Features::all();
        let mut fast: Vec<Box<dyn AdmissionPolicy>> = vec![
            Box::new(FirstFit::new()),
            Box::new(BestFit::new()),
            Box::new(WorstFit::new()),
            Box::new(NextFit::new()),
            Box::new(NextKFit::new(2)),
        ];
        let mut oracle: Vec<Box<dyn AdmissionPolicy>> = vec![
            Box::new(reference::FirstFit::new()),
            Box::new(reference::BestFit::new()),
            Box::new(reference::WorstFit::new()),
            Box::new(reference::NextFit::new()),
            Box::new(reference::NextKFit::new(2)),
        ];
        for (fast, oracle) in fast.iter_mut().zip(oracle.iter_mut()) {
            let mut p = pool(5);
            p.fail(TpuId(0));
            p.commit(&m, &[Allocation::new(TpuId(2), u(0.8))]);
            p.commit(&m, &[Allocation::new(TpuId(3), u(0.4))]);
            for units in [0.35, 0.8, 0.35, 1.4, 0.9, 0.2] {
                let a = fast.plan(&p, &m, u(units), features);
                let b = oracle.plan(&p, &m, u(units), features);
                assert_eq!(a, b, "policy {} diverged at {units}", fast.name());
                if let Some(plan) = a {
                    p.commit(&m, &plan);
                }
            }
            p.restore(TpuId(0));
            let a = fast.plan(&p, &m, u(0.5), features);
            let b = oracle.plan(&p, &m, u(0.5), features);
            assert_eq!(a, b, "policy {} diverged after restore", fast.name());
        }
    }
}
