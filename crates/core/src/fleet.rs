//! The federated fleet front door: global stream→cluster placement in
//! O(log C) over incrementally maintained per-cluster capacity summaries.
//!
//! The paper stops at one 25-node cluster; a fleet of MicroEdge clusters
//! needs an *inter-cluster* admission tier that answers "which cluster
//! takes this camera?" without scanning every cluster's TPU pool. This
//! module grows the PR 2 capacity-index design one level up:
//!
//! - every cluster is represented by a [`ClusterSummary`] — max-free
//!   contiguous units, total free units, live-stream count, and a derived
//!   [`HealthTier`] — fed from the shard's indexed `TpuPool`
//!   ([`crate::pool::TpuPool::capacity_summary`], itself O(1) off the
//!   index maintained on commit/release/fail/restore);
//! - the [`FrontDoor`] keeps those summaries in a **max-free segment
//!   tree** over cluster ids, mirroring the intra-cluster `CapacityIndex`,
//!   so "first cluster in this id range with a big-enough free block" is
//!   one O(log C) descent. The tree is two-level for latency — cache-line
//!   blocks of saturated u32 keys under a binary tree of block maxima —
//!   and an aligned range (any power-of-two region, the global fallback)
//!   rejects on a single node load;
//! - placement is **locality-aware**: clusters are partitioned into
//!   contiguous regions ([`FleetTopology`]), a stream prefers its home
//!   region, spills to the `k` nearest regions in deterministic
//!   ring-distance order, and only then falls back to a global scan.
//!
//! The pre-index behaviour survives verbatim as
//! [`reference::LinearFrontDoor`] — a cluster-by-cluster scan in the very
//! same preference order — and `tests/fleet_differential.rs` pins the two
//! byte-identical under random churn, the same differential-oracle
//! discipline PR 2 established for intra-cluster admission.
//!
//! Determinism: the front door is plain data — no clocks, no RNG, ordered
//! collections only — and the sharded replay drives it serially at epoch
//! barriers, so fleet placement never depends on `MICROEDGE_WORKERS`.
//!
//! # Examples
//!
//! ```
//! use microedge_core::fleet::{ClusterSummary, FrontDoor, ProbeKind, StreamDemand};
//!
//! // Four busy clusters in two regions; only cluster 2 has a big block.
//! let busy = ClusterSummary {
//!     max_free: 200_000,
//!     total_free: 500_000,
//!     available_tpus: 4,
//!     total_tpus: 4,
//!     live_streams: 6,
//! };
//! let mut summaries = vec![busy; 4];
//! summaries[2].max_free = 800_000;
//! summaries[2].total_free = 1_200_000;
//! let mut door = FrontDoor::new(summaries, 2, 1);
//! let placed = door
//!     .admit(0, StreamDemand::uniform(700_000))
//!     .expect("cluster 2 has room");
//! assert_eq!(placed.cluster.0, 2);
//! assert_eq!(placed.kind, ProbeKind::Spill(1));
//! ```

use std::ops::ControlFlow;

use crate::pool::PoolCapacity;
use crate::units::TpuUnits;

/// Identifies one cluster (= one shard of the sharded replay) in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// This id as its dense summary-table index (clusters are registered
    /// contiguously by the front door).
    #[must_use]
    pub fn index(self) -> usize {
        usize::try_from(self.0).expect("u32 cluster id fits usize")
    }

    /// The id of the cluster at dense table index `i`.
    #[must_use]
    pub fn from_index(i: usize) -> ClusterId {
        ClusterId(u32::try_from(i).expect("fleet cluster count fits u32"))
    }
}

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster-{}", self.0)
    }
}

/// Coarse cluster health derived from the available-TPU ratio — the
/// fleet-report tiering. Only [`HealthTier::Dead`] affects placement
/// (a dead cluster can never host anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthTier {
    /// Every TPU (or all but a tenth) in service.
    Healthy,
    /// Lost more than a tenth of its TPUs.
    Degraded,
    /// Lost half or more of its TPUs.
    Critical,
    /// No TPU in service (or drained by the front door after a
    /// whole-cluster failure).
    Dead,
}

/// One cluster's capacity, as the front door sees it: the O(1) snapshot a
/// shard reads off its pool index at every epoch barrier, plus the live
/// stream count. All unit figures are integer micro-units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSummary {
    /// Largest contiguous free block on any single TPU (micro-units): the
    /// biggest single-stage grant the cluster can make.
    pub max_free: u64,
    /// Total free micro-units across available TPUs.
    pub total_free: u64,
    /// TPUs currently in service.
    pub available_tpus: u32,
    /// All TPUs, failed included.
    pub total_tpus: u32,
    /// Streams currently served by the cluster.
    pub live_streams: u64,
}

impl ClusterSummary {
    /// A fully idle cluster of `tpus` healthy TPUs (one unit free each).
    #[must_use]
    pub fn empty(tpus: u32) -> Self {
        let unit = TpuUnits::ONE.as_micro();
        ClusterSummary {
            max_free: unit,
            total_free: unit * u64::from(tpus),
            available_tpus: tpus,
            total_tpus: tpus,
            live_streams: 0,
        }
    }

    /// Builds the summary from a pool snapshot and the live-stream count.
    #[must_use]
    pub fn from_pool(capacity: PoolCapacity, live_streams: u64) -> Self {
        ClusterSummary {
            max_free: capacity.max_free_micro,
            total_free: capacity.total_free_micro,
            available_tpus: capacity.available_tpus,
            total_tpus: capacity.total_tpus,
            live_streams,
        }
    }

    /// The summary the front door installs when it gives up on a cluster:
    /// nothing available, nothing placeable.
    #[must_use]
    pub fn drained(self) -> Self {
        ClusterSummary {
            max_free: 0,
            total_free: 0,
            available_tpus: 0,
            total_tpus: self.total_tpus,
            live_streams: 0,
        }
    }

    /// Health tier from the available-TPU ratio.
    #[must_use]
    pub fn health(&self) -> HealthTier {
        if self.available_tpus == 0 {
            HealthTier::Dead
        } else if u64::from(self.available_tpus) * 2 <= u64::from(self.total_tpus) {
            HealthTier::Critical
        } else if u64::from(self.available_tpus) * 10 < u64::from(self.total_tpus) * 9 {
            HealthTier::Degraded
        } else {
            HealthTier::Healthy
        }
    }

    /// Whether this cluster can host `demand` *according to the summary*:
    /// alive, a contiguous block for the largest stage, and enough total
    /// headroom for the whole pipeline. Optimistic — the cluster's own
    /// admission (Algorithm 1 with memory rules) still has the final say —
    /// but never wrong in the other direction for single-stage streams.
    #[must_use]
    pub fn can_host(&self, demand: StreamDemand) -> bool {
        self.health() != HealthTier::Dead
            && self.max_free >= demand.largest_stage.max(1)
            && self.total_free >= demand.total.max(1)
    }

    /// Fragmentation ratio of the cluster's free capacity: largest
    /// contiguous free slot over total free units. 1.0 means all headroom
    /// sits in one block; values near 0 mean the headroom the summary
    /// advertises is shattered into slivers that will bounce whole-ish
    /// placements. A cluster with no free capacity is unfragmented by
    /// convention.
    #[must_use]
    pub fn fragmentation_ratio(&self) -> f64 {
        microedge_metrics::defrag::fragmentation_ratio(self.max_free, self.total_free)
    }

    /// `true` when this summary's free capacity is *strictly* more
    /// contiguous than `other`'s — a higher largest-free-slot /
    /// total-free ratio, compared exactly in integers by
    /// cross-multiplication. The front door uses this as a placement
    /// tiebreak: summaries are optimistic, and the candidate whose
    /// headroom is concentrated in whole blocks is the one least likely
    /// to bounce the stream on arrival.
    #[must_use]
    pub fn more_contiguous_than(&self, other: &ClusterSummary) -> bool {
        u128::from(self.max_free) * u128::from(other.total_free)
            > u128::from(other.max_free) * u128::from(self.total_free)
    }

    /// Conservatively debits an accepted placement so same-barrier
    /// placements spread instead of piling onto one cluster; ground truth
    /// from the pool overwrites the estimate at the next barrier refresh.
    pub fn debit(&mut self, demand: StreamDemand) {
        self.max_free -= demand.largest_stage.max(1).min(self.max_free);
        self.total_free -= demand.total.max(1).min(self.total_free);
        self.live_streams += 1;
    }

    /// The segment-tree key: the max-free block, or 0 when dead so the
    /// cluster can never satisfy a query (`min` is clamped ≥ 1).
    fn placement_key(&self) -> u64 {
        if self.available_tpus == 0 {
            0
        } else {
            self.max_free
        }
    }
}

/// A stream's TPU demand as the front door estimates it, in micro-units:
/// the binding constraints are the largest single stage (needs one
/// contiguous block) and the pipeline total (needs that much headroom
/// overall).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDemand {
    /// The largest single stage's units.
    pub largest_stage: u64,
    /// Sum of all stage units.
    pub total: u64,
}

impl StreamDemand {
    /// Demand of a single-stage stream (largest = total).
    #[must_use]
    pub fn uniform(micro: u64) -> Self {
        StreamDemand {
            largest_stage: micro,
            total: micro,
        }
    }

    /// Aggregates per-stage unit estimates into a demand.
    #[must_use]
    pub fn from_stages(stages: impl IntoIterator<Item = TpuUnits>) -> Self {
        let mut demand = StreamDemand {
            largest_stage: 0,
            total: 0,
        };
        for units in stages {
            let micro = units.as_micro();
            demand.largest_stage = demand.largest_stage.max(micro);
            demand.total += micro;
        }
        demand
    }
}

/// The fleet's locality structure: `clusters` split into `regions`
/// contiguous, balanced id blocks (region `r` owns ids
/// `[⌈rC/R⌉, ⌈(r+1)C/R⌉)`). Contiguity is what lets one O(log C)
/// range-restricted segment-tree descent search a whole region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTopology {
    clusters: u32,
    regions: u32,
    /// `clusters / regions` when the split is exact, else 0 — lets the
    /// placement hot path compute region bounds with a multiply instead
    /// of two u64 divisions per probe.
    width_if_even: u32,
}

impl FleetTopology {
    /// Partitions `clusters` into `regions` contiguous blocks.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ regions ≤ clusters`.
    #[must_use]
    pub fn new(clusters: u32, regions: u32) -> Self {
        assert!(clusters >= 1, "a fleet needs at least one cluster");
        assert!(
            (1..=clusters).contains(&regions),
            "regions must be in 1..={clusters}, got {regions}"
        );
        FleetTopology {
            clusters,
            regions,
            width_if_even: if clusters.is_multiple_of(regions) {
                clusters / regions
            } else {
                0
            },
        }
    }

    /// Number of clusters.
    #[must_use]
    pub fn clusters(&self) -> u32 {
        self.clusters
    }

    /// Number of regions.
    #[must_use]
    pub fn regions(&self) -> u32 {
        self.regions
    }

    /// The region owning `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn region_of(&self, cluster: ClusterId) -> u32 {
        assert!(cluster.0 < self.clusters, "{cluster} out of range");
        u32::try_from(u64::from(cluster.0) * u64::from(self.regions) / u64::from(self.clusters))
            .expect("region fits u32")
    }

    /// The half-open cluster-id range `[lo, hi)` owned by `region`.
    #[must_use]
    pub fn region_range(&self, region: u32) -> (u32, u32) {
        if self.width_if_even != 0 {
            return (
                region * self.width_if_even,
                (region + 1) * self.width_if_even,
            );
        }
        let bound = |r: u64| {
            u32::try_from((r * u64::from(self.clusters)).div_ceil(u64::from(self.regions)))
                .expect("cluster id fits u32")
        };
        (bound(u64::from(region)), bound(u64::from(region) + 1))
    }

    /// The deterministic probe plan for a stream homed in `home`: the home
    /// region, then the `spill` nearest regions by ring distance
    /// (alternating +d / −d, deduplicated), then a global fallback over
    /// the whole id space. Each entry is `(kind, lo, hi)`; both the
    /// indexed front door and the linear oracle walk this exact list (via
    /// [`FleetTopology::for_each_probe`]), so their preference order is
    /// identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range.
    #[must_use]
    pub fn probe_plan(&self, home: u32, spill: u32) -> Vec<(ProbeKind, u32, u32)> {
        let spill_cap = usize::try_from(spill).expect("spill count fits usize");
        let mut plan = Vec::with_capacity(2 * spill_cap + 2);
        self.for_each_probe(home, spill, |kind, lo, hi| {
            plan.push((kind, lo, hi));
            ControlFlow::<()>::Continue(())
        });
        plan
    }

    /// Walks the probe plan (see [`FleetTopology::probe_plan`]) without
    /// materialising it, stopping early when `visit` breaks. This is the
    /// placement hot path: allocation-free, so an indexed placement's cost
    /// is purely its segment-tree descents.
    ///
    /// Ring-distance dedup is closed-form rather than a seen-set: at
    /// distance `d` the `+d` neighbour is fresh iff `2d ≤ r` (past the
    /// antipode it revisits `−e` regions) and the `−d` neighbour iff
    /// `2d < r` (at the antipode of an even ring, `+d` and `−d` coincide).
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range.
    pub fn for_each_probe<B>(
        &self,
        home: u32,
        spill: u32,
        mut visit: impl FnMut(ProbeKind, u32, u32) -> ControlFlow<B>,
    ) -> Option<B> {
        assert!(home < self.regions, "region {home} out of range");
        let r = self.regions;
        let (lo, hi) = self.region_range(home);
        if let ControlFlow::Break(found) = visit(ProbeKind::Home, lo, hi) {
            return Some(found);
        }
        for d in 1..=spill.min(r / 2) {
            let (lo, hi) = self.region_range((home + d) % r);
            if let ControlFlow::Break(found) = visit(ProbeKind::Spill(d), lo, hi) {
                return Some(found);
            }
            if 2 * d < r {
                let (lo, hi) = self.region_range((home + r - d) % r);
                if let ControlFlow::Break(found) = visit(ProbeKind::Spill(d), lo, hi) {
                    return Some(found);
                }
            }
        }
        match visit(ProbeKind::Fallback, 0, self.clusters) {
            ControlFlow::Break(found) => Some(found),
            ControlFlow::Continue(()) => None,
        }
    }
}

/// Which ring of the probe plan satisfied a placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// The stream's home region.
    Home,
    /// A neighbouring region at this ring distance.
    Spill(u32),
    /// The global scan after home and spill regions were exhausted.
    Fallback,
}

/// A placement decision: the chosen cluster and how far from home the
/// search travelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The hosting cluster.
    pub cluster: ClusterId,
    /// The probe ring that satisfied the search.
    pub kind: ProbeKind,
}

/// Deterministic placement counters, reported in the fleet artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Streams placed, anywhere.
    pub admitted: u64,
    /// Placed in the home region.
    pub home: u64,
    /// Placed in a spill region.
    pub spills: u64,
    /// Placed by the global fallback.
    pub fallbacks: u64,
    /// No cluster in the fleet could host the demand.
    pub rejections: u64,
}

impl PlacementStats {
    fn count(&mut self, kind: ProbeKind) {
        self.admitted += 1;
        match kind {
            ProbeKind::Home => self.home += 1,
            ProbeKind::Spill(_) => self.spills += 1,
            ProbeKind::Fallback => self.fallbacks += 1,
        }
    }
}

/// Saturated keys per index block: 16 × u32 is one 64-byte cache line,
/// scanned flat once the block-level tree says the block qualifies.
const BLOCK: usize = 16;

/// The fleet-level capacity index: the PR 2 `CapacityIndex` design one
/// level up, over cluster ids. Two-level for latency: per-cluster keys
/// live in a flat array of cache-line blocks, and the segment tree is
/// built over *block maxima* — a range-restricted query is a short
/// descent (four levels fewer than a per-cluster tree) plus one in-line
/// block scan, and a rejected probe is a single node load.
#[derive(Debug, Clone, Default)]
struct FleetIndex {
    /// Cluster `id`'s placement key (max-free micro-units, 0 when dead),
    /// zero-padded to whole blocks. Keys are stored saturated to u32 — a
    /// single TPU's largest free block is ≤ 1M micro-units, so real keys
    /// always fit; saturation can only widen a subtree max, and every
    /// index hit is re-checked exactly against the summary.
    keys: Vec<u32>,
    /// 1-based complete binary tree over block maxima:
    /// `tree[block_leaves + b]` is `max(keys[16b..16b+16])`, internal
    /// nodes the max of their children.
    tree: Vec<u32>,
    /// Smallest power of two ≥ the block count.
    block_leaves: usize,
}

impl FleetIndex {
    fn build(summaries: &[ClusterSummary]) -> Self {
        let blocks = summaries.len().div_ceil(BLOCK).max(1);
        let block_leaves = blocks.next_power_of_two();
        let mut index = FleetIndex {
            keys: vec![0; blocks * BLOCK],
            tree: vec![0; 2 * block_leaves],
            block_leaves,
        };
        for (id, summary) in summaries.iter().enumerate() {
            index.set_leaf(ClusterId::from_index(id).0, summary.placement_key());
        }
        index
    }

    /// Keys saturate to u32 in the index (exact values live in the
    /// summaries); monotone, so `key ≥ min` is preserved.
    fn saturate(key: u64) -> u32 {
        u32::try_from(key).unwrap_or(u32::MAX)
    }

    fn set_leaf(&mut self, id: u32, value: u64) {
        let slot = ClusterId(id).index();
        self.keys[slot] = Self::saturate(value);
        let block = slot / BLOCK;
        let max = *self.keys[block * BLOCK..]
            .iter()
            .take(BLOCK)
            .max()
            .expect("block is non-empty");
        let mut node = self.block_leaves + block;
        self.tree[node] = max;
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node].max(self.tree[2 * node + 1]);
        }
    }

    fn update(&mut self, id: u32, old_key: u64, new_key: u64) {
        if old_key != new_key {
            self.set_leaf(id, new_key);
        }
    }

    /// First cluster with id in `[lo, hi)` and key ≥ `min`, in O(log C):
    /// partial edge blocks are scanned flat, whole blocks go through the
    /// block tree. Iterative throughout — this is the placement hot path,
    /// and a recursive walk costs several times as much in call overhead.
    #[inline]
    fn first_in_range(&self, lo: u32, hi: u32, min: u64) -> Option<u32> {
        if lo >= hi {
            return None;
        }
        let min = Self::saturate(min);
        let (mut lo, hi) = (ClusterId(lo).index(), ClusterId(hi).index());
        // Partial head block (a resumed cursor mid-block): scan it flat.
        if lo % BLOCK != 0 {
            let head_end = (lo / BLOCK + 1) * BLOCK;
            if let Some(hit) = self.scan(lo, head_end.min(hi), min) {
                return Some(hit);
            }
            if head_end >= hi {
                return None;
            }
            lo = head_end;
        }
        // Whole blocks, via the tree; a hit is resolved by one line scan.
        let (bl, bh) = (lo / BLOCK, hi / BLOCK);
        if let Some(block) = self.first_block(bl, bh, min) {
            return self.scan(block * BLOCK, (block + 1) * BLOCK, min);
        }
        // Partial tail block.
        self.scan(bh.max(bl) * BLOCK, hi, min)
    }

    /// First index in `keys[lo..hi]` holding a key ≥ `min`.
    fn scan(&self, lo: usize, hi: usize, min: u32) -> Option<u32> {
        self.keys[lo..hi.max(lo)]
            .iter()
            .position(|&key| key >= min)
            .map(|offset| u32::try_from(lo + offset).expect("cluster id fits u32"))
    }

    /// First block in `[bl, bh)` whose max key ≥ `min`.
    #[inline]
    fn first_block(&self, bl: usize, bh: usize, min: u32) -> Option<usize> {
        if bl >= bh {
            return None;
        }
        let l = self.block_leaves + bl;
        let r = self.block_leaves + bh;
        // Fast path: a range that is exactly one aligned subtree (every
        // region when the region size is a power of two, and the global
        // fallback, which is the root) is answered by a single node — one
        // load to reject, one descent to accept. Kept inline (with the
        // general walk out of line) so a rejected probe costs two loads.
        let span = r - l;
        if span.is_power_of_two() && l & (span - 1) == 0 {
            let node = l >> span.trailing_zeros();
            if self.tree[node] < min {
                return None;
            }
            return Some(self.leftmost_block(node, min));
        }
        self.first_block_general(l, r, min)
    }

    /// General path of [`FleetIndex::first_block`] for unaligned block
    /// ranges: bottom-up canonical decomposition of `[l, r)`. Nodes
    /// pushed on the left edge come out ascending by position, nodes on
    /// the right edge descending, so in-order is `left` then `right`
    /// reversed. ≤ log₂(block_leaves)+1 nodes per side; 32 slots covers
    /// any u32 fleet.
    fn first_block_general(&self, l: usize, r: usize, min: u32) -> Option<usize> {
        let mut left = [0usize; 32];
        let mut right = [0usize; 32];
        let (mut nl, mut nr) = (0, 0);
        let (mut l, mut r) = (l, r);
        while l < r {
            if l & 1 == 1 {
                left[nl] = l;
                nl += 1;
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                right[nr] = r;
                nr += 1;
            }
            l /= 2;
            r /= 2;
        }
        let node = left[..nl]
            .iter()
            .chain(right[..nr].iter().rev())
            .copied()
            .find(|&n| self.tree[n] >= min)?;
        Some(self.leftmost_block(node, min))
    }

    /// The leftmost qualifying block leaf under `node`, which must itself
    /// qualify (`tree[node] ≥ min`): an internal node's key is the max of
    /// its children, so a qualifying subtree always has a qualifying leaf.
    fn leftmost_block(&self, mut node: usize, min: u32) -> usize {
        while node < self.block_leaves {
            node = if self.tree[2 * node] >= min {
                2 * node
            } else {
                2 * node + 1
            };
        }
        node - self.block_leaves
    }
}

/// The global admission/placement tier: per-cluster summaries indexed for
/// O(log C) locality-aware placement. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct FrontDoor {
    topology: FleetTopology,
    spill: u32,
    summaries: Vec<ClusterSummary>,
    index: FleetIndex,
    stats: PlacementStats,
}

impl FrontDoor {
    /// Builds the front door over per-cluster summaries (one per cluster,
    /// in cluster-id order), `regions` contiguous regions, and a spill
    /// radius of `spill` regions per side.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ regions ≤ summaries.len()`.
    #[must_use]
    pub fn new(summaries: Vec<ClusterSummary>, regions: u32, spill: u32) -> Self {
        let clusters = u32::try_from(summaries.len()).expect("cluster count fits u32");
        let topology = FleetTopology::new(clusters, regions);
        let index = FleetIndex::build(&summaries);
        FrontDoor {
            topology,
            spill,
            summaries,
            index,
            stats: PlacementStats::default(),
        }
    }

    /// The fleet's locality structure.
    #[must_use]
    pub fn topology(&self) -> FleetTopology {
        self.topology
    }

    /// The spill radius (regions probed on each side of home).
    #[must_use]
    pub fn spill(&self) -> u32 {
        self.spill
    }

    /// The current summary of `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn summary(&self, cluster: ClusterId) -> &ClusterSummary {
        &self.summaries[cluster.index()]
    }

    /// Placement counters so far.
    #[must_use]
    pub fn stats(&self) -> PlacementStats {
        self.stats
    }

    /// Installs a fresh summary for `cluster` — the incremental feed from
    /// the shard's pool index at every epoch barrier. O(1) when nothing
    /// changed (the overwhelmingly common case for idle clusters), one
    /// O(log C) index update otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn observe(&mut self, cluster: ClusterId, summary: ClusterSummary) {
        let slot = &mut self.summaries[cluster.index()];
        if *slot == summary {
            return;
        }
        let old_key = slot.placement_key();
        *slot = summary;
        self.index
            .update(cluster.0, old_key, summary.placement_key());
    }

    /// Declares a whole cluster dead (e.g. after a cluster-kill fault):
    /// its summary is drained so no stream places there until a fresh
    /// [`FrontDoor::observe`] revives it.
    pub fn drain(&mut self, cluster: ClusterId) {
        let drained = self.summaries[cluster.index()].drained();
        self.observe(cluster, drained);
    }

    /// Read-only placement: the best cluster in probe order (home region,
    /// spill rings, global fallback) whose summary can host `demand`.
    /// Each probe is a bounded number of range-restricted segment-tree
    /// descents — O(log C) — continuing past clusters whose max-free block
    /// matches but whose total headroom falls short.
    ///
    /// Within a probe range, the first *two* hosting candidates are
    /// compared and the one whose free capacity is more contiguous
    /// ([`ClusterSummary::more_contiguous_than`]) wins, ids ascending on
    /// ties. Summaries are optimistic — refreshed only at epoch barriers —
    /// so among equally eligible clusters the defragmented one is the
    /// safest bet against a misroute, and clusters the defragmenter just
    /// compacted naturally attract the next placements.
    ///
    /// # Panics
    ///
    /// Panics if `home_region` is out of range.
    #[must_use]
    pub fn place(&self, home_region: u32, demand: StreamDemand) -> Option<Placement> {
        let min = demand.largest_stage.max(1);
        self.topology
            .for_each_probe(home_region, self.spill, |kind, lo, hi| {
                let mut cursor = lo;
                let mut first: Option<u32> = None;
                while let Some(id) = self.index.first_in_range(cursor, hi, min) {
                    if self.summaries[ClusterId(id).index()].can_host(demand) {
                        match first {
                            None => first = Some(id),
                            Some(a) => {
                                let b = &self.summaries[ClusterId(id).index()];
                                let chosen = if b
                                    .more_contiguous_than(&self.summaries[ClusterId(a).index()])
                                {
                                    id
                                } else {
                                    a
                                };
                                return ControlFlow::Break(Placement {
                                    cluster: ClusterId(chosen),
                                    kind,
                                });
                            }
                        }
                    }
                    cursor = id + 1;
                }
                match first {
                    Some(a) => ControlFlow::Break(Placement {
                        cluster: ClusterId(a),
                        kind,
                    }),
                    None => ControlFlow::Continue(()),
                }
            })
    }

    /// [`FrontDoor::place`] plus commitment: debits the chosen cluster's
    /// summary (so same-barrier admissions spread) and counts the outcome.
    pub fn admit(&mut self, home_region: u32, demand: StreamDemand) -> Option<Placement> {
        match self.place(home_region, demand) {
            Some(placement) => {
                self.record_placement(placement, demand);
                Some(placement)
            }
            None => {
                self.stats.rejections += 1;
                None
            }
        }
    }

    /// Books a placement decided out-of-band (e.g. by an earlier
    /// [`FrontDoor::place`] whose admission the destination confirmed):
    /// debits the cluster's summary and counts the probe outcome.
    pub fn record_placement(&mut self, placement: Placement, demand: StreamDemand) {
        self.commit_placement(placement.cluster, demand);
        self.stats.count(placement.kind);
    }

    /// Debits `cluster`'s summary for an accepted placement without going
    /// through the search (the sharded replay uses this when it has
    /// already decided the cluster, e.g. re-admitting an evacuee).
    pub fn commit_placement(&mut self, cluster: ClusterId, demand: StreamDemand) {
        let slot = &mut self.summaries[cluster.index()];
        let old_key = slot.placement_key();
        slot.debit(demand);
        self.index.update(cluster.0, old_key, slot.placement_key());
    }
}

pub mod reference {
    //! The pre-index linear fleet scan, preserved verbatim as the
    //! differential oracle: identical probe plan, identical eligibility
    //! and debit rules, but every probe walks its cluster-id range one
    //! summary at a time — O(C) per placement. `tests/fleet_differential.rs`
    //! pins [`LinearFrontDoor`] byte-identical to [`FrontDoor`] under
    //! random churn, and `bench::fleet` measures the gap.
    //!
    //! [`FrontDoor`]: super::FrontDoor

    use super::{
        ClusterId, ClusterSummary, FleetTopology, Placement, PlacementStats, StreamDemand,
    };

    /// The linear fleet-scan oracle. Same contract as
    /// [`FrontDoor`](super::FrontDoor), minus the index.
    #[derive(Debug, Clone)]
    pub struct LinearFrontDoor {
        topology: FleetTopology,
        spill: u32,
        summaries: Vec<ClusterSummary>,
        stats: PlacementStats,
    }

    impl LinearFrontDoor {
        /// Mirrors [`FrontDoor::new`](super::FrontDoor::new).
        ///
        /// # Panics
        ///
        /// Panics unless `1 ≤ regions ≤ summaries.len()`.
        #[must_use]
        pub fn new(summaries: Vec<ClusterSummary>, regions: u32, spill: u32) -> Self {
            let clusters = u32::try_from(summaries.len()).expect("cluster count fits u32");
            LinearFrontDoor {
                topology: FleetTopology::new(clusters, regions),
                spill,
                summaries,
                stats: PlacementStats::default(),
            }
        }

        /// The current summary of `cluster`.
        ///
        /// # Panics
        ///
        /// Panics if `cluster` is out of range.
        #[must_use]
        pub fn summary(&self, cluster: ClusterId) -> &ClusterSummary {
            &self.summaries[cluster.index()]
        }

        /// Placement counters so far.
        #[must_use]
        pub fn stats(&self) -> PlacementStats {
            self.stats
        }

        /// Installs a fresh summary (a plain write — nothing to index).
        ///
        /// # Panics
        ///
        /// Panics if `cluster` is out of range.
        pub fn observe(&mut self, cluster: ClusterId, summary: ClusterSummary) {
            self.summaries[cluster.index()] = summary;
        }

        /// Mirrors [`FrontDoor::drain`](super::FrontDoor::drain).
        pub fn drain(&mut self, cluster: ClusterId) {
            let drained = self.summaries[cluster.index()].drained();
            self.observe(cluster, drained);
        }

        /// The linear scan: identical probe plan, eligibility rule, and
        /// first-two contiguity tiebreak as the indexed search, walking
        /// every id in each range.
        ///
        /// # Panics
        ///
        /// Panics if `home_region` is out of range.
        #[must_use]
        pub fn place(&self, home_region: u32, demand: StreamDemand) -> Option<Placement> {
            use std::ops::ControlFlow;
            self.topology
                .for_each_probe(home_region, self.spill, |kind, lo, hi| {
                    let mut first: Option<u32> = None;
                    for id in lo..hi {
                        if self.summaries[ClusterId(id).index()].can_host(demand) {
                            match first {
                                None => first = Some(id),
                                Some(a) => {
                                    let b = &self.summaries[ClusterId(id).index()];
                                    let chosen = if b
                                        .more_contiguous_than(&self.summaries[ClusterId(a).index()])
                                    {
                                        id
                                    } else {
                                        a
                                    };
                                    return ControlFlow::Break(Placement {
                                        cluster: ClusterId(chosen),
                                        kind,
                                    });
                                }
                            }
                        }
                    }
                    match first {
                        Some(a) => ControlFlow::Break(Placement {
                            cluster: ClusterId(a),
                            kind,
                        }),
                        None => ControlFlow::Continue(()),
                    }
                })
        }

        /// Mirrors [`FrontDoor::admit`](super::FrontDoor::admit).
        pub fn admit(&mut self, home_region: u32, demand: StreamDemand) -> Option<Placement> {
            match self.place(home_region, demand) {
                Some(placement) => {
                    self.summaries[placement.cluster.index()].debit(demand);
                    self.stats.count(placement.kind);
                    Some(placement)
                }
                None => {
                    self.stats.rejections += 1;
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::LinearFrontDoor;
    use super::*;

    const UNIT: u64 = 1_000_000;

    fn idle_fleet(clusters: u32, tpus: u32) -> Vec<ClusterSummary> {
        vec![ClusterSummary::empty(tpus); clusters as usize]
    }

    #[test]
    fn topology_partitions_contiguously_and_consistently() {
        let t = FleetTopology::new(10, 3);
        assert_eq!(t.region_range(0), (0, 4));
        assert_eq!(t.region_range(1), (4, 7));
        assert_eq!(t.region_range(2), (7, 10));
        for c in 0..10 {
            let r = t.region_of(ClusterId(c));
            let (lo, hi) = t.region_range(r);
            assert!((lo..hi).contains(&c), "cluster {c} outside region {r}");
        }
    }

    #[test]
    fn probe_plan_rings_out_from_home_and_dedups() {
        let t = FleetTopology::new(8, 4);
        let kinds: Vec<(ProbeKind, u32, u32)> = t.probe_plan(1, 2);
        assert_eq!(
            kinds,
            vec![
                (ProbeKind::Home, 2, 4),
                (ProbeKind::Spill(1), 4, 6), // region 2
                (ProbeKind::Spill(1), 0, 2), // region 0
                (ProbeKind::Spill(2), 6, 8), // region 3; -2 duplicates it
                (ProbeKind::Fallback, 0, 8),
            ]
        );
        // Spill radius beyond the ring visits each region once.
        let wide = t.probe_plan(0, 10);
        assert_eq!(wide.len(), 1 + 3 + 1, "4 regions + fallback");
    }

    #[test]
    fn placement_prefers_home_then_spills_then_falls_back() {
        // 6 clusters, 3 regions of 2; home region is 1 (clusters 2-3).
        let mut door = FrontDoor::new(idle_fleet(6, 1), 3, 1);
        let demand = StreamDemand::uniform(UNIT / 2);
        let placed = door.admit(1, demand).expect("idle fleet has room");
        assert_eq!(placed.cluster, ClusterId(2));
        assert_eq!(placed.kind, ProbeKind::Home);
        // Fill the home region: next admissions spill to region 2 first
        // (ring +1), then region 0.
        for c in 2..4 {
            door.observe(
                ClusterId(c),
                ClusterSummary {
                    max_free: 0,
                    total_free: 0,
                    available_tpus: 1,
                    total_tpus: 1,
                    live_streams: 2,
                },
            );
        }
        let spilled = door.admit(1, demand).expect("region 2 has room");
        assert_eq!(spilled.cluster, ClusterId(4));
        assert_eq!(spilled.kind, ProbeKind::Spill(1));
        let stats = door.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.home, 1);
        assert_eq!(stats.spills, 1);
    }

    #[test]
    fn dead_clusters_never_place_until_revived() {
        let mut door = FrontDoor::new(idle_fleet(2, 1), 1, 0);
        door.drain(ClusterId(0));
        door.drain(ClusterId(1));
        for id in 0..2 {
            assert_eq!(door.summary(ClusterId(id)).health(), HealthTier::Dead);
        }
        assert_eq!(door.place(0, StreamDemand::uniform(1)), None);
        door.observe(ClusterId(1), ClusterSummary::empty(1));
        let placed = door.admit(0, StreamDemand::uniform(1)).expect("revived");
        assert_eq!(placed.cluster, ClusterId(1));
    }

    #[test]
    fn total_headroom_is_checked_past_the_max_free_block() {
        // Cluster 0 has a big block but no total headroom for a two-stage
        // pipeline; cluster 1 has both.
        let mut summaries = idle_fleet(2, 2);
        summaries[0] = ClusterSummary {
            max_free: 600_000,
            total_free: 700_000,
            available_tpus: 2,
            total_tpus: 2,
            live_streams: 3,
        };
        let door = FrontDoor::new(summaries, 1, 0);
        let pipeline = StreamDemand {
            largest_stage: 500_000,
            total: 900_000,
        };
        let placed = door.place(0, pipeline).expect("cluster 1 fits");
        assert_eq!(placed.cluster, ClusterId(1));
    }

    #[test]
    fn admission_debits_spread_same_barrier_placements() {
        let mut door = FrontDoor::new(idle_fleet(4, 1), 1, 0);
        let demand = StreamDemand::uniform(700_000);
        let first = door.admit(0, demand).expect("room");
        let second = door.admit(0, demand).expect("room");
        assert_eq!(first.cluster, ClusterId(0));
        assert_eq!(
            second.cluster,
            ClusterId(1),
            "the debit keeps cluster 0 from double-booking"
        );
        assert_eq!(door.summary(ClusterId(0)).live_streams, 1);
    }

    #[test]
    fn health_tiers_follow_available_ratio() {
        let tier = |available, total| {
            ClusterSummary {
                max_free: UNIT,
                total_free: UNIT,
                available_tpus: available,
                total_tpus: total,
                live_streams: 0,
            }
            .health()
        };
        assert_eq!(tier(20, 20), HealthTier::Healthy);
        assert_eq!(tier(19, 20), HealthTier::Healthy);
        assert_eq!(tier(17, 20), HealthTier::Degraded);
        assert_eq!(tier(10, 20), HealthTier::Critical);
        assert_eq!(tier(0, 20), HealthTier::Dead);
    }

    #[test]
    fn indexed_and_linear_doors_agree_on_a_crafted_fleet() {
        let mut summaries = idle_fleet(12, 2);
        // A mix of full, dead, tight, and roomy clusters.
        for (i, s) in summaries.iter_mut().enumerate() {
            let i = i as u64;
            s.max_free = (i * 173) % (2 * UNIT) / 2;
            s.total_free = s.max_free + (i * 37) % UNIT;
            s.available_tpus = if i.is_multiple_of(5) { 0 } else { 2 };
        }
        let mut indexed = FrontDoor::new(summaries.clone(), 4, 1);
        let mut linear = LinearFrontDoor::new(summaries, 4, 1);
        for round in 0..40u64 {
            let demand = StreamDemand {
                largest_stage: (round * 97_003) % UNIT,
                total: (round * 131_707) % (2 * UNIT),
            };
            let home = (round % 4) as u32;
            assert_eq!(
                indexed.admit(home, demand),
                linear.admit(home, demand),
                "diverged at round {round}"
            );
        }
        assert_eq!(indexed.stats(), linear.stats());
    }
}
