//! The extended scheduler's book-keeping view of the TPU fleet.
//!
//! For every TPU Service the control plane tracks its *current load* in TPU
//! units and the set of models loaded on it with reference counts
//! (paper §4.2). Model reclamation is **lazy**: when a pod terminates its
//! model's reference count drops, but the model stays resident until the
//! next co-compilation on that TPU excludes dead models — exactly the
//! behaviour the paper describes under "Resource Reclamation".
//!
//! ## The capacity index
//!
//! Admission control (Algorithm 1) asks two questions per decision: *which
//! TPU with enough free units comes first in scan order?* (the basic pass)
//! and *which TPUs have any room at all?* (the partitioning pass). A naive
//! answer scans every account — O(M) per decision, the exact control-plane
//! cost the paper's §6 scalability argument multiplies by fleet size. The
//! pool therefore maintains a `CapacityIndex` incrementally on every
//! [`TpuPool::commit`] / [`TpuPool::release`] / [`TpuPool::fail`] /
//! [`TpuPool::restore`]:
//!
//! - a **max-free segment tree** over TPU ids answers "first available TPU
//!   with id ≥ `start` and free units ≥ `min`" in O(log M) — the query
//!   behind First-Fit and Next-Fit scan order;
//! - a **free-units order** (a sorted set of `(exact free value, id)`
//!   pairs) iterates TPUs by free capacity in either direction — the
//!   orders Best-Fit and Worst-Fit need — touching only TPUs that can
//!   actually contribute. One flat set, so a commit moves one entry
//!   instead of emptying and creating a per-value id set.
//!
//! Both structures are derived state: they never appear in equality
//! comparisons, and every mutation keeps them exact (no rebuilds).

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use microedge_cluster::node::NodeId;
use microedge_cluster::topology::Cluster;
use microedge_models::profile::{ModelId, ModelProfile};
use microedge_tpu::device::TpuId;
use microedge_tpu::spec::TpuSpec;

use crate::units::TpuUnits;

/// A slice of one TPU granted to a pod: which TPU, and how many units on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    tpu: TpuId,
    units: TpuUnits,
}

impl Allocation {
    /// Creates an allocation.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero — zero-unit allocations are meaningless and
    /// would corrupt load-balancer weights.
    #[must_use]
    pub fn new(tpu: TpuId, units: TpuUnits) -> Self {
        assert!(!units.is_zero(), "allocation must carry non-zero units");
        Allocation { tpu, units }
    }

    /// The TPU granted.
    #[must_use]
    pub fn tpu(&self) -> TpuId {
        self.tpu
    }

    /// Units granted on that TPU.
    #[must_use]
    pub fn units(&self) -> TpuUnits {
        self.units
    }
}

/// One model resident on a TPU, from the scheduler's point of view.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct LoadedModel {
    id: ModelId,
    bytes: u64,
    refs: u32,
}

/// Scheduler-side state of one TPU Service.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TpuAccount {
    id: TpuId,
    node: NodeId,
    load: TpuUnits,
    /// Residency list in load order — the co-compilation priority order.
    models: Vec<LoadedModel>,
    available: bool,
}

impl TpuAccount {
    fn new(id: TpuId, node: NodeId) -> Self {
        TpuAccount {
            id,
            node,
            load: TpuUnits::ZERO,
            models: Vec::new(),
            available: true,
        }
    }

    /// The TPU's identifier.
    #[must_use]
    pub fn id(&self) -> TpuId {
        self.id
    }

    /// The tRPi hosting this TPU.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Cumulative TPU units currently assigned (`CurrentLoad` in
    /// Algorithm 1).
    #[must_use]
    pub fn load(&self) -> TpuUnits {
        self.load
    }

    /// Units still unassigned (`1 − CurrentLoad`).
    #[must_use]
    pub fn free_units(&self) -> TpuUnits {
        TpuUnits::ONE.saturating_sub(self.load)
    }

    /// `false` after a failure injection removed this TPU from service.
    #[must_use]
    pub fn is_available(&self) -> bool {
        self.available
    }

    /// `true` when `model` is resident with at least one live reference.
    #[must_use]
    pub fn has_live_model(&self, model: &ModelId) -> bool {
        self.models.iter().any(|m| m.id == *model && m.refs > 0)
    }

    /// Ids of live models in co-compilation priority order.
    #[must_use]
    pub fn live_models(&self) -> Vec<ModelId> {
        self.live_model_ids().cloned().collect()
    }

    /// [`Self::live_models`] without the copy.
    pub fn live_model_ids(&self) -> impl Iterator<Item = &ModelId> {
        self.models.iter().filter(|m| m.refs > 0).map(|m| &m.id)
    }

    /// Every resident model with its liveness: dead entries are awaiting
    /// lazy eviction at the next co-compile.
    #[must_use]
    pub fn resident_models(&self) -> Vec<(ModelId, bool)> {
        self.models
            .iter()
            .map(|m| (m.id.clone(), m.refs > 0))
            .collect()
    }

    /// Parameter bytes of live models.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.models
            .iter()
            .filter(|m| m.refs > 0)
            .map(|m| m.bytes)
            .sum()
    }

    /// Free parameter memory given `budget` (`FreeMem` in Algorithm 1).
    /// Dead models do not count against the budget — loading a new model
    /// triggers a co-compilation that excludes them.
    #[must_use]
    pub fn free_mem(&self, budget: u64) -> u64 {
        budget.saturating_sub(self.live_bytes())
    }

    /// Number of distinct live models.
    #[must_use]
    pub fn live_model_count(&self) -> usize {
        self.models.iter().filter(|m| m.refs > 0).count()
    }

    fn add_model_ref(&mut self, model: &ModelId, bytes: u64) -> bool {
        if let Some(entry) = self.models.iter_mut().find(|m| m.id == *model) {
            entry.refs += 1;
            false
        } else {
            // A genuinely new model: this is the co-compile moment, which
            // lazily evicts models whose reference count reached zero.
            self.models.retain(|m| m.refs > 0);
            self.models.push(LoadedModel {
                id: model.clone(),
                bytes,
                refs: 1,
            });
            true
        }
    }

    fn drop_model_ref(&mut self, model: &ModelId) {
        let entry = self
            .models
            .iter_mut()
            .find(|m| m.id == *model && m.refs > 0)
            .unwrap_or_else(|| panic!("releasing model {model} with no live reference"));
        entry.refs -= 1;
    }
}

/// The incrementally maintained capacity index (see the module docs): a
/// max-free segment tree in id order plus the exact free-units order. Purely
/// derived from the accounts — excluded from pool equality.
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(PartialEq))]
struct CapacityIndex {
    /// 1-based complete binary tree; `tree[leaves + id]` is the free
    /// micro-units of TPU `id` (0 when failed), internal nodes hold the max
    /// of their children.
    tree: Vec<u64>,
    /// Leaf count: the smallest power of two ≥ the pool size.
    leaves: usize,
    /// `(exact free micro-units, id)` of every available TPU.
    by_free: BTreeSet<(u64, u32)>,
    /// Sum of free micro-units across available TPUs — kept exact on every
    /// insert/remove so [`TpuPool::capacity_summary`] is O(1).
    total_free: u64,
    /// Number of available (non-failed) TPUs.
    available: u32,
}

impl CapacityIndex {
    fn build(accounts: &[TpuAccount]) -> Self {
        let leaves = accounts.len().next_power_of_two().max(1);
        let mut index = CapacityIndex {
            tree: vec![0; 2 * leaves],
            leaves,
            by_free: BTreeSet::new(),
            total_free: 0,
            available: 0,
        };
        for account in accounts {
            if account.available {
                index.insert(account.id.0, account.free_units().as_micro());
            }
        }
        index
    }

    fn set_leaf(&mut self, id: u32, value: u64) {
        let mut node = self.leaves + usize::try_from(id).expect("u32 tpu id fits usize");
        self.tree[node] = value;
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node].max(self.tree[2 * node + 1]);
        }
    }

    /// Registers an available TPU at the given free capacity.
    fn insert(&mut self, id: u32, free: u64) {
        self.set_leaf(id, free);
        self.by_free.insert((free, id));
        self.total_free += free;
        self.available += 1;
    }

    /// Unregisters a TPU (it failed): it must not satisfy any query.
    fn remove(&mut self, id: u32, free: u64) {
        self.set_leaf(id, 0);
        self.by_free.remove(&(free, id));
        self.total_free -= free;
        self.available -= 1;
    }

    /// Moves an available TPU between free-capacity values: one climb of
    /// the tree, and the available count stays.
    fn update(&mut self, id: u32, old_free: u64, new_free: u64) {
        if old_free == new_free {
            return;
        }
        self.set_leaf(id, new_free);
        self.by_free.remove(&(old_free, id));
        self.by_free.insert((new_free, id));
        self.total_free = self.total_free - old_free + new_free;
    }

    /// First available TPU with id ≥ `start` and free ≥ `min` (`min` ≥ 1),
    /// in O(log M).
    fn first_with_free(&self, start: u32, min: u64) -> Option<u32> {
        self.descend(
            1,
            0,
            self.leaves,
            usize::try_from(start).expect("u32 tpu id fits usize"),
            min,
        )
    }

    fn descend(&self, node: usize, lo: usize, hi: usize, start: usize, min: u64) -> Option<u32> {
        if hi <= start || self.tree[node] < min {
            return None;
        }
        if hi - lo == 1 {
            return Some(u32::try_from(lo).expect("leaf index fits u32"));
        }
        let mid = (lo + hi) / 2;
        self.descend(2 * node, lo, mid, start, min)
            .or_else(|| self.descend(2 * node + 1, mid, hi, start, min))
    }
}

/// An O(1) snapshot of a pool's aggregate capacity, read straight off the
/// incrementally maintained `CapacityIndex` — the raw material for the
/// per-cluster summaries the fleet front door ([`crate::fleet`]) keeps one
/// level up. All unit figures are exact integer micro-units
/// ([`TpuUnits::as_micro`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PoolCapacity {
    /// The largest contiguous free block on any single available TPU — the
    /// biggest single-stage grant this pool can make right now.
    pub max_free_micro: u64,
    /// Sum of free micro-units across available TPUs.
    pub total_free_micro: u64,
    /// Available (non-failed) TPUs.
    pub available_tpus: u32,
    /// All TPUs, failed included.
    pub total_tpus: u32,
}

impl PoolCapacity {
    /// Fragmentation ratio of the pool's free capacity: largest contiguous
    /// free slot over total free units (1.0 when nothing is free). The
    /// gauge the defragmenter drives up and the churn benches report
    /// per round.
    #[must_use]
    pub fn fragmentation_ratio(&self) -> f64 {
        microedge_metrics::defrag::fragmentation_ratio(self.max_free_micro, self.total_free_micro)
    }
}

/// The fleet of TPU Services the extended scheduler allocates from.
///
/// # Examples
///
/// ```
/// use microedge_cluster::topology::ClusterBuilder;
/// use microedge_core::pool::TpuPool;
/// use microedge_core::units::TpuUnits;
/// use microedge_tpu::spec::TpuSpec;
///
/// let cluster = ClusterBuilder::new().trpis(3).vrpis(2).build();
/// let pool = TpuPool::from_cluster(&cluster, TpuSpec::coral_usb());
/// assert_eq!(pool.len(), 3);
/// assert_eq!(pool.total_free_units(), TpuUnits::from_f64(3.0));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TpuPool {
    accounts: Vec<TpuAccount>,
    param_budget: u64,
    index: CapacityIndex,
}

/// Pool equality is logical state only — the derived capacity index is a
/// function of the accounts and takes no part in comparisons.
impl PartialEq for TpuPool {
    fn eq(&self, other: &Self) -> bool {
        self.accounts == other.accounts && self.param_budget == other.param_budget
    }
}

impl Eq for TpuPool {}

impl TpuPool {
    /// Builds a pool with one TPU per tRPi of `cluster`, indexed in node
    /// order (TPU *i* lives on the *i*-th tRPi).
    #[must_use]
    pub fn from_cluster(cluster: &Cluster, spec: TpuSpec) -> Self {
        let accounts: Vec<TpuAccount> = cluster
            .trpis()
            .enumerate()
            .map(|(i, node)| TpuAccount::new(TpuId::from_index(i), node.id()))
            .collect();
        let index = CapacityIndex::build(&accounts);
        TpuPool {
            accounts,
            param_budget: spec.param_budget_bytes(),
            index,
        }
    }

    /// The parameter-memory budget used for the Model Size Rule.
    #[must_use]
    pub fn param_budget(&self) -> u64 {
        self.param_budget
    }

    /// Number of TPUs (including failed ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// `true` when the pool has no TPUs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Accounts in TPU-id order (the order First-Fit scans).
    #[must_use]
    pub fn accounts(&self) -> &[TpuAccount] {
        &self.accounts
    }

    /// The account for `tpu`. O(1): ids are dense — `from_cluster` numbers
    /// TPU *i* as `TpuId(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `tpu` is not in the pool.
    #[must_use]
    pub fn account(&self, tpu: TpuId) -> &TpuAccount {
        self.accounts
            .get(tpu.index())
            .filter(|a| a.id == tpu)
            .unwrap_or_else(|| panic!("unknown TPU {tpu}"))
    }

    fn account_mut(&mut self, tpu: TpuId) -> &mut TpuAccount {
        self.accounts
            .get_mut(tpu.index())
            .filter(|a| a.id == tpu)
            .unwrap_or_else(|| panic!("unknown TPU {tpu}"))
    }

    /// O(1) aggregate capacity snapshot off the incrementally maintained
    /// index: max contiguous free block (the segment-tree root), total free
    /// micro-units, and the available-TPU count. This is what a shard
    /// reports to the fleet front door at every epoch barrier — reading it
    /// never touches the accounts.
    #[must_use]
    pub fn capacity_summary(&self) -> PoolCapacity {
        PoolCapacity {
            max_free_micro: self.index.tree[1],
            total_free_micro: self.index.total_free,
            available_tpus: self.index.available,
            total_tpus: u32::try_from(self.accounts.len()).expect("pool size fits u32"),
        }
    }

    /// Sum of free units across available TPUs.
    #[must_use]
    pub fn total_free_units(&self) -> TpuUnits {
        self.accounts
            .iter()
            .filter(|a| a.available)
            .map(TpuAccount::free_units)
            .sum()
    }

    /// Number of TPUs carrying any load.
    #[must_use]
    pub fn used_tpus(&self) -> usize {
        self.accounts.iter().filter(|a| !a.load.is_zero()).count()
    }

    /// Applies an admission decision: adds load and a model reference on
    /// every allocated TPU. Returns the ids of TPUs on which `model` was
    /// newly loaded (i.e. where a co-compilation was triggered).
    ///
    /// # Panics
    ///
    /// Panics if any allocation oversubscribes its TPU — decisions must come
    /// from an admission policy that already validated the TPU Units Rule.
    pub fn commit(&mut self, model: &ModelProfile, allocations: &[Allocation]) -> Vec<TpuId> {
        // Validate everything before mutating anything, so a bad decision
        // cannot leave the pool half-committed.
        for alloc in allocations {
            let account = self.account(alloc.tpu());
            assert!(
                account
                    .load
                    .checked_add(alloc.units())
                    .is_some_and(|total| total <= TpuUnits::ONE),
                "allocation of {units} on {tpu} violates the TPU Units Rule",
                units = alloc.units(),
                tpu = alloc.tpu(),
            );
        }
        let mut newly_loaded = Vec::new();
        for alloc in allocations {
            let account = self.account_mut(alloc.tpu());
            let old_free = account.free_units().as_micro();
            account.load += alloc.units();
            let new_free = account.free_units().as_micro();
            let tracked = account.available;
            if account.add_model_ref(model.id(), model.param_bytes()) {
                newly_loaded.push(alloc.tpu());
            }
            if tracked {
                self.index.update(alloc.tpu().0, old_free, new_free);
            }
        }
        newly_loaded
    }

    /// Reverses a previous commit: subtracts load and drops one model
    /// reference per allocation. The model itself stays resident until the
    /// next co-compilation (lazy reclamation).
    ///
    /// # Panics
    ///
    /// Panics if the allocations do not correspond to a previous commit.
    pub fn release(&mut self, model: &ModelId, allocations: &[Allocation]) {
        for alloc in allocations {
            let account = self.account_mut(alloc.tpu());
            assert!(
                alloc.units() <= account.load,
                "releasing more units than allocated on {tpu}",
                tpu = alloc.tpu()
            );
            let old_free = account.free_units().as_micro();
            account.load -= alloc.units();
            let new_free = account.free_units().as_micro();
            let tracked = account.available;
            account.drop_model_ref(model);
            if tracked {
                self.index.update(alloc.tpu().0, old_free, new_free);
            }
        }
    }

    /// Marks a TPU as failed: it keeps its state but no longer accepts new
    /// allocations.
    pub fn fail(&mut self, tpu: TpuId) {
        let account = self.account_mut(tpu);
        let was_tracked = account.available;
        let free = account.free_units().as_micro();
        account.available = false;
        if was_tracked {
            self.index.remove(tpu.0, free);
        }
    }

    /// Returns a failed TPU to service.
    pub fn restore(&mut self, tpu: TpuId) {
        let account = self.account_mut(tpu);
        let was_tracked = account.available;
        let free = account.free_units().as_micro();
        account.available = true;
        if !was_tracked {
            self.index.insert(tpu.0, free);
        }
    }

    /// First **available** TPU with id ≥ `start` and at least `min_free`
    /// free units, in O(log M) via the capacity index. `min_free` is
    /// clamped up to one micro-unit, so fully loaded and failed TPUs never
    /// match — callers asking "any room at all?" pass [`TpuUnits::ZERO`].
    #[must_use]
    pub fn next_tpu_with_free(&self, start: TpuId, min_free: TpuUnits) -> Option<TpuId> {
        self.index
            .first_with_free(start.0, min_free.as_micro().max(1))
            .map(TpuId)
    }

    /// Available TPUs with at least `min_free` free units (clamped up to
    /// one micro-unit), least free first, ids ascending within ties — the
    /// Best-Fit scan order, touching only TPUs that can contribute.
    pub fn tpus_by_free_ascending(&self, min_free: TpuUnits) -> impl Iterator<Item = TpuId> + '_ {
        self.index
            .by_free
            .range((min_free.as_micro().max(1), 0)..)
            .map(|&(_, id)| TpuId(id))
    }

    /// Available TPUs with at least `min_free` free units (clamped up to
    /// one micro-unit), most free first, ids ascending within ties — the
    /// Worst-Fit scan order.
    pub fn tpus_by_free_descending(&self, min_free: TpuUnits) -> impl Iterator<Item = TpuId> + '_ {
        let by_free = &self.index.by_free;
        let min = min_free.as_micro().max(1);
        // One free value at a time, most first; within it, ids ascending.
        let mut below = u64::MAX;
        std::iter::from_fn(move || {
            let &(free, _) = by_free.range((min, 0)..(below, 0)).next_back()?;
            below = free;
            Some(by_free.range((free, 0)..=(free, u32::MAX)))
        })
        .flatten()
        .map(|&(_, id)| TpuId(id))
    }
}

/// A map from pods to their committed assignment, used by the reclamation
/// component.
pub type AssignmentTable = BTreeMap<u64, (ModelId, Vec<Allocation>)>;

/// Renders the pool as an aligned status table (one row per TPU):
/// load, free units, and resident models in co-compile priority order
/// (dead models awaiting lazy eviction are marked `evictable`).
///
/// # Examples
///
/// ```
/// use microedge_cluster::topology::ClusterBuilder;
/// use microedge_core::pool::{render_pool, TpuPool};
/// use microedge_tpu::spec::TpuSpec;
///
/// let cluster = ClusterBuilder::new().trpis(2).vrpis(1).build();
/// let pool = TpuPool::from_cluster(&cluster, TpuSpec::coral_usb());
/// let status = render_pool(&pool);
/// assert!(status.contains("tpu-0"));
/// ```
#[must_use]
pub fn render_pool(pool: &TpuPool) -> String {
    let mut table = microedge_metrics::report::Table::new(&[
        "tpu",
        "node",
        "load",
        "free",
        "state",
        "live models",
    ]);
    for a in pool.accounts() {
        let models: Vec<String> = a
            .resident_models()
            .iter()
            .map(|(id, live)| {
                if *live {
                    id.to_string()
                } else {
                    format!("{id} (evictable)")
                }
            })
            .collect();
        table.row_owned(vec![
            a.id().to_string(),
            a.node().to_string(),
            a.load().to_string(),
            a.free_units().to_string(),
            if a.is_available() { "up" } else { "FAILED" }.to_owned(),
            models.join(", "),
        ]);
    }
    table.to_string()
}

#[cfg(test)]
impl TpuPool {
    /// `true` when the incrementally kept index equals one built afresh
    /// from the accounts — the index is a function of the accounts.
    pub(crate) fn index_is_derived(&self) -> bool {
        self.index == CapacityIndex::build(&self.accounts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microedge_cluster::topology::ClusterBuilder;
    use microedge_models::catalog::{mobilenet_v1, ssd_mobilenet_v2, unet_v2};

    fn pool(trpis: u32) -> TpuPool {
        let cluster = ClusterBuilder::new().trpis(trpis).vrpis(1).build();
        TpuPool::from_cluster(&cluster, TpuSpec::coral_usb())
    }

    fn alloc(tpu: u32, units: f64) -> Allocation {
        Allocation::new(TpuId(tpu), TpuUnits::from_f64(units))
    }

    #[test]
    fn pool_indexes_tpus_in_node_order() {
        let p = pool(3);
        assert_eq!(p.len(), 3);
        for (i, account) in p.accounts().iter().enumerate() {
            assert_eq!(account.id(), TpuId::from_index(i));
            assert!(account.is_available());
            assert_eq!(account.load(), TpuUnits::ZERO);
        }
    }

    #[test]
    fn commit_adds_load_and_loads_model_once() {
        let mut p = pool(2);
        let m = ssd_mobilenet_v2();
        let first = p.commit(&m, &[alloc(0, 0.35)]);
        assert_eq!(first, vec![TpuId(0)], "first commit loads the model");
        let second = p.commit(&m, &[alloc(0, 0.35)]);
        assert!(second.is_empty(), "model already resident");
        let a = p.account(TpuId(0));
        assert_eq!(a.load(), TpuUnits::from_f64(0.7));
        assert!(a.has_live_model(m.id()));
        assert_eq!(a.live_bytes(), m.param_bytes());
    }

    #[test]
    fn release_is_lazy_about_model_memory() {
        let mut p = pool(1);
        let m = unet_v2();
        p.commit(&m, &[alloc(0, 0.675)]);
        p.release(m.id(), &[alloc(0, 0.675)]);
        let a = p.account(TpuId(0));
        assert_eq!(a.load(), TpuUnits::ZERO);
        assert!(!a.has_live_model(m.id()), "no live reference");
        assert_eq!(
            a.resident_models(),
            vec![(m.id().clone(), false)],
            "still resident until next co-compile"
        );
        assert_eq!(a.live_bytes(), 0, "dead model frees budget");
    }

    #[test]
    fn cocompile_evicts_dead_models() {
        let mut p = pool(1);
        let dead = unet_v2();
        p.commit(&dead, &[alloc(0, 0.2)]);
        p.release(dead.id(), &[alloc(0, 0.2)]);
        // Loading a different model triggers the co-compile that evicts.
        let live = mobilenet_v1();
        p.commit(&live, &[alloc(0, 0.2)]);
        let a = p.account(TpuId(0));
        assert!(
            a.resident_models().iter().all(|(id, _)| id != dead.id()),
            "dead model evicted at co-compile"
        );
        assert!(a.has_live_model(live.id()));
    }

    #[test]
    fn reusing_dead_model_revives_without_reload() {
        let mut p = pool(1);
        let m = unet_v2();
        p.commit(&m, &[alloc(0, 0.2)]);
        p.release(m.id(), &[alloc(0, 0.2)]);
        let loaded = p.commit(&m, &[alloc(0, 0.2)]);
        assert!(loaded.is_empty(), "model was still resident — no load RPC");
        assert!(p.account(TpuId(0)).has_live_model(m.id()));
    }

    #[test]
    #[should_panic(expected = "TPU Units Rule")]
    fn oversubscription_panics() {
        let mut p = pool(1);
        let m = ssd_mobilenet_v2();
        p.commit(&m, &[alloc(0, 0.7)]);
        p.commit(&m, &[alloc(0, 0.4)]);
    }

    #[test]
    fn failed_tpu_excluded_from_free_units() {
        let mut p = pool(2);
        assert_eq!(p.total_free_units(), TpuUnits::from_f64(2.0));
        p.fail(TpuId(0));
        assert!(!p.account(TpuId(0)).is_available());
        assert_eq!(p.total_free_units(), TpuUnits::from_f64(1.0));
        p.restore(TpuId(0));
        assert_eq!(p.total_free_units(), TpuUnits::from_f64(2.0));
    }

    #[test]
    fn free_mem_tracks_live_models_only() {
        let mut p = pool(1);
        let budget = p.param_budget();
        let m = mobilenet_v1();
        p.commit(&m, &[alloc(0, 0.2)]);
        let a = p.account(TpuId(0));
        assert_eq!(a.free_mem(budget), budget - m.param_bytes());
        assert_eq!(a.live_model_count(), 1);
        assert_eq!(a.live_models(), vec![m.id().clone()]);
    }

    #[test]
    fn used_tpus_counts_loaded_only() {
        let mut p = pool(3);
        p.commit(&unet_v2(), &[alloc(1, 0.5)]);
        assert_eq!(p.used_tpus(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero units")]
    fn zero_unit_allocation_rejected() {
        let _ = Allocation::new(TpuId(0), TpuUnits::ZERO);
    }

    #[test]
    #[should_panic(expected = "unknown TPU")]
    fn unknown_tpu_panics() {
        let p = pool(1);
        let _ = p.account(TpuId(9));
    }

    fn ascending(p: &TpuPool, min: f64) -> Vec<u32> {
        p.tpus_by_free_ascending(TpuUnits::from_f64(min))
            .map(|t| t.0)
            .collect()
    }

    fn descending(p: &TpuPool, min: f64) -> Vec<u32> {
        p.tpus_by_free_descending(TpuUnits::from_f64(min))
            .map(|t| t.0)
            .collect()
    }

    #[test]
    fn capacity_index_answers_first_fit_queries() {
        let mut p = pool(4);
        let m = ssd_mobilenet_v2();
        p.commit(&m, &[alloc(0, 0.9), alloc(1, 0.35)]);
        let q = |start: u32, min: f64| {
            p.next_tpu_with_free(TpuId(start), TpuUnits::from_f64(min))
                .map(|t| t.0)
        };
        assert_eq!(q(0, 0.05), Some(0), "0.1 free on TPU 0 satisfies 0.05");
        assert_eq!(q(0, 0.2), Some(1), "TPU 0 too full, TPU 1 has 0.65");
        assert_eq!(q(0, 0.8), Some(2), "only the empty TPUs have 0.8 free");
        assert_eq!(q(3, 0.8), Some(3), "start bound respected");
        assert_eq!(q(0, 1.5), None, "nothing ever has more than one unit");
    }

    #[test]
    fn capacity_index_orders_by_free_units() {
        let mut p = pool(4);
        let m = ssd_mobilenet_v2();
        p.commit(&m, &[alloc(0, 0.9), alloc(1, 0.35)]);
        assert_eq!(ascending(&p, 0.0), vec![0, 1, 2, 3]);
        assert_eq!(descending(&p, 0.0), vec![2, 3, 1, 0], "ties by id");
        assert_eq!(ascending(&p, 0.5), vec![1, 2, 3]);
        assert_eq!(descending(&p, 0.7), vec![2, 3]);
    }

    #[test]
    fn capacity_index_excludes_failed_and_full_tpus() {
        let mut p = pool(3);
        let m = ssd_mobilenet_v2();
        p.commit(&m, &[alloc(0, 1.0)]);
        p.fail(TpuId(1));
        assert_eq!(ascending(&p, 0.0), vec![2], "full and failed excluded");
        assert_eq!(
            p.next_tpu_with_free(TpuId(0), TpuUnits::ZERO),
            Some(TpuId(2))
        );
        // Release and restore bring both back.
        p.release(m.id(), &[alloc(0, 1.0)]);
        p.restore(TpuId(1));
        assert_eq!(ascending(&p, 0.0), vec![0, 1, 2]);
        // Failing twice / restoring twice stays consistent.
        p.fail(TpuId(2));
        p.fail(TpuId(2));
        p.restore(TpuId(2));
        p.restore(TpuId(2));
        assert_eq!(ascending(&p, 0.0), vec![0, 1, 2]);
    }

    /// The O(1) summary must equal a from-scratch recomputation over the
    /// accounts — the invariant the fleet front door leans on.
    fn recomputed_summary(p: &TpuPool) -> PoolCapacity {
        let avail = p.accounts().iter().filter(|a| a.is_available());
        PoolCapacity {
            max_free_micro: avail
                .clone()
                .map(|a| a.free_units().as_micro())
                .max()
                .unwrap_or(0),
            total_free_micro: avail.clone().map(|a| a.free_units().as_micro()).sum(),
            available_tpus: avail.count() as u32,
            total_tpus: p.len() as u32,
        }
    }

    #[test]
    fn capacity_summary_tracks_every_mutation() {
        let mut p = pool(3);
        let m = ssd_mobilenet_v2();
        assert_eq!(p.capacity_summary(), recomputed_summary(&p));
        assert_eq!(p.capacity_summary().max_free_micro, 1_000_000);
        assert_eq!(p.capacity_summary().total_free_micro, 3_000_000);

        p.commit(&m, &[alloc(0, 0.9), alloc(1, 0.35)]);
        assert_eq!(p.capacity_summary(), recomputed_summary(&p));
        assert_eq!(p.capacity_summary().max_free_micro, 1_000_000);
        assert_eq!(p.capacity_summary().total_free_micro, 1_750_000);

        p.fail(TpuId(2));
        let s = p.capacity_summary();
        assert_eq!(s, recomputed_summary(&p));
        assert_eq!(s.max_free_micro, 650_000, "TPU 1 is the biggest block");
        assert_eq!(s.available_tpus, 2);
        assert_eq!(s.total_tpus, 3);

        p.release(m.id(), &[alloc(0, 0.9)]);
        p.restore(TpuId(2));
        assert_eq!(p.capacity_summary(), recomputed_summary(&p));
        assert_eq!(p.capacity_summary().total_free_micro, 2_650_000);
    }

    #[test]
    fn index_stays_derived_through_interleaved_mutations() {
        let mut p = pool(3);
        let m = ssd_mobilenet_v2();
        let u = unet_v2();
        let steps: [&dyn Fn(&mut TpuPool); 10] = [
            &|p| drop(p.commit(&m, &[alloc(0, 0.35), alloc(1, 0.5)])),
            &|p| p.fail(TpuId(1)),
            // A failed TPU's load moves while the index does not track it.
            &|p| p.release(m.id(), &[alloc(1, 0.5)]),
            &|p| drop(p.commit(&u, &[alloc(1, 0.25), alloc(2, 1.0)])),
            &|p| p.restore(TpuId(1)),
            &|p| drop(p.commit(&m, &[alloc(0, 0.35)])),
            &|p| p.release(u.id(), &[alloc(2, 1.0)]),
            &|p| p.fail(TpuId(0)),
            &|p| p.release(m.id(), &[alloc(0, 0.7)]),
            &|p| p.restore(TpuId(0)),
        ];
        for (i, step) in steps.iter().enumerate() {
            step(&mut p);
            assert!(p.index_is_derived(), "index diverged after step {i}");
        }
    }

    #[test]
    fn capacity_summary_of_fully_failed_pool_is_empty() {
        let mut p = pool(2);
        p.fail(TpuId(0));
        p.fail(TpuId(1));
        let s = p.capacity_summary();
        assert_eq!(s.max_free_micro, 0);
        assert_eq!(s.total_free_micro, 0);
        assert_eq!(s.available_tpus, 0);
        assert_eq!(s.total_tpus, 2);
    }

    #[test]
    fn pool_equality_ignores_index_state() {
        let mut a = pool(2);
        let mut b = pool(2);
        let m = ssd_mobilenet_v2();
        a.commit(&m, &[alloc(0, 0.35)]);
        assert_ne!(a, b);
        b.commit(&m, &[alloc(0, 0.35)]);
        assert_eq!(a, b);
        // Index churn that returns to the same logical state keeps pools
        // equal — the derived index takes no part in comparisons.
        b.fail(TpuId(1));
        b.restore(TpuId(1));
        assert_eq!(a, b);
        // But logical differences (a dead-but-resident model) still show.
        a.commit(&m, &[alloc(1, 0.5)]);
        a.release(m.id(), &[alloc(1, 0.5)]);
        assert_ne!(a, b, "model residency differs after commit+release");
    }

    #[test]
    fn render_pool_lists_every_tpu() {
        let mut p = pool(2);
        p.commit(&ssd_mobilenet_v2(), &[alloc(0, 0.35)]);
        p.fail(TpuId(1));
        let text = render_pool(&p);
        assert!(text.contains("tpu-0"));
        assert!(text.contains("ssd-mobilenet-v2"));
        assert!(text.contains("FAILED"));
        assert!(text.contains("0.350u"));
        // Lazy reclamation is visible: released models show as evictable.
        p.release(ssd_mobilenet_v2().id(), &[alloc(0, 0.35)]);
        let text = render_pool(&p);
        assert!(text.contains("(evictable)"));
    }
}
