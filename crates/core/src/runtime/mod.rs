//! The end-to-end MicroEdge simulation: control plane + data plane.
//!
//! A [`World`] owns the K3s-like orchestrator, the extended scheduler, one
//! data-plane [`TpuDevice`] per tRPi, and the camera streams. Camera frames
//! flow exactly as in the paper's Fig. 3:
//!
//! ```text
//! camera ─► TPU Client (pre-process) ─► LBS pick ─► network ─► TPU Service
//!                                                               (FIFO, run
//!                                                               to completion)
//!        ◄───────────── post-process ◄───────────── result ◄───┘
//! ```
//!
//! Streams can be admitted and removed while the simulation runs (the trace
//! study), TPUs can be failed (the failure-recovery extension), and every
//! run produces the metrics the paper's figures report: per-stream SLO
//! audits, overall and per-minute TPU utilization, and per-phase latency
//! breakdowns.
//!
//! ## Chaos mode
//!
//! [`World::enable_chaos`] arms the deterministic fault subsystem
//! ([`crate::faults`]): injected component faults ([`World::inject_faults`])
//! flow through the event queue, failures go *undetected* until the
//! heartbeat lease expires (the component silently drops traffic), and a
//! reconciliation controller re-admits displaced streams with capped
//! exponential backoff — optionally degrading frame rates in fairness tiers
//! instead of dropping tenants. Every stream then carries a
//! [`StreamPhase`], and [`RunResults`] reports recovery-latency breakdowns
//! (detection / rescheduling / swap-in) and per-lineage availability.
//! Without `enable_chaos` the world behaves exactly as before — the manual
//! [`World::fail_tpu`] / [`World::fail_node`] paths stay omniscient and
//! instantaneous.
//!
//! ## Stream lifecycle
//!
//! Each stream's record holds one `Lifecycle` value. `Serving` emits a
//! frame every `interval × den`: full rate at denominator 1, degraded
//! above. `Interrupted` keeps emitting at that rate, but a component the
//! placement depends on is down, so the frames drop at the client.
//! `Parked` waits in the reconciler's pending-restart queue. `Lost`,
//! `Removed` and `Superseded` carry nothing. The first three carry the
//! denominator and the swap-in the stream awaits, if any. A `Recovery`
//! swap-in brings a replanned or re-admitted stream back: it alone resumes
//! the stream and records a recovery breakdown. A defrag `Migration`
//! swap-in only guards the moved stream for the move's priced cost, so
//! rescale, upgrade and defrag keep off it. The guard survives an
//! interruption and its completion resumes nothing. One function,
//! `World::transition`, changes the state and keeps the live-stream count
//! and the served series in step. [`StreamPhase`] is the public `Copy`
//! view of the state.
//!
//! ## Multi-model pipelines
//!
//! A stream may chain several inference stages per frame
//! ([`StreamSpecBuilder::then`]): the frame visits each stage's TPU in
//! order, each stage load-balanced by its own LBS. When consecutive stages
//! land on the *same* TPU the inter-stage hop is free — the data-plane
//! pipeline optimization the paper's §8 calls for.
//!
//! ## Layout
//!
//! This module holds the types a world is made of, its constructors and its
//! read accessors. Each concern adds its own `impl World` in a child
//! module: `spec` (what a stream asks for), `data_plane` (the event loop
//! and per-frame handlers, with panicking constructs denied), `control`
//! (admission, removal, omniscient failures, drain, restart, evacuation,
//! defrag and commands), `chaos` (faults, detection, parking, swap-in,
//! reconciliation and degradation) and `results` (finishing a run and
//! merging shards).
//!
//! # Examples
//!
//! ```
//! use microedge_cluster::topology::ClusterBuilder;
//! use microedge_core::config::Features;
//! use microedge_core::runtime::{StreamSpec, World};
//! use microedge_sim::time::SimTime;
//!
//! # use microedge_core::scheduler::DeployError;
//! # fn main() -> Result<(), DeployError> {
//! let cluster = ClusterBuilder::new().trpis(1).vrpis(2).build();
//! let mut world = World::new(cluster, Features::all());
//! let cam = world
//!     .admit_stream(StreamSpec::builder("cam-0", "ssd-mobilenet-v2").frame_limit(30).build())?;
//! let results = world.run_to_completion(SimTime::from_secs(10));
//! assert!(results.report(cam).is_some_and(|r| r.met_fps()));
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::num::NonZeroU32;
use std::sync::Arc;

use microedge_cluster::network::NetworkModel;
use microedge_cluster::topology::Cluster;
use microedge_metrics::defrag::DefragStats;
use microedge_metrics::latency::BreakdownRecorder;
use microedge_metrics::throughput::ThroughputAudit;
use microedge_metrics::utilization::FleetUtilization;
use microedge_models::catalog::Catalog;
use microedge_models::profile::{ModelId, ModelProfile};
use microedge_orch::lifecycle::Orchestrator;
use microedge_orch::pod::PodId;
use microedge_sim::event::EventQueue;
use microedge_sim::inline::Inline;
use microedge_sim::rng::DetRng;
use microedge_sim::series::StepSeries;
use microedge_sim::stats::{LogLinearSketch, OnlineStats};
use microedge_sim::time::{SimDuration, SimTime};
use microedge_tpu::device::{TpuDevice, TpuId};
use microedge_tpu::spec::TpuSpec;

use crate::config::{DataPlaneConfig, Features};
use crate::faults::FaultKind;
use crate::lbs::LbService;
use crate::scheduler::ExtendedScheduler;

mod chaos;
mod control;
mod data_plane;
mod results;
mod spec;
#[cfg(test)]
mod tests;

use chaos::{ChaosState, SwapCause};
use control::DefragRuntime;
use data_plane::{InFlight, ServiceRuntime};
pub use results::RunResults;
pub use spec::{StreamSpec, StreamSpecBuilder};

/// Identifies a camera stream for its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream-{}", self.0)
    }
}

/// Bit position where [`StreamId::with_shard`] packs the shard index: the
/// low 40 bits stay the shard-local slab index (a trillion streams per
/// shard), the high bits name the shard.
pub const SHARD_ID_SHIFT: u32 = 40;

impl StreamId {
    /// This id as its dense slab index (streams are allocated contiguously
    /// per world). Checked: a stream id past `usize::MAX` would mean the
    /// slab itself could never have held the stream.
    #[must_use]
    pub fn index(self) -> usize {
        usize::try_from(self.0).expect("stream id fits the slab index space")
    }

    /// The id of the stream at dense slab index `i`.
    #[must_use]
    pub fn from_index(i: usize) -> StreamId {
        StreamId(u64::try_from(i).expect("slab index fits the u64 id space"))
    }

    /// Packs this shard-local id into the sharded replay's global id space.
    ///
    /// # Panics
    ///
    /// Panics if the local id overflows the 40-bit local field or the
    /// shard index overflows the remaining 24 bits — either overflow would
    /// silently alias another stream's id.
    #[must_use]
    pub fn with_shard(self, shard: u32) -> StreamId {
        assert!(
            self.0 < 1 << SHARD_ID_SHIFT,
            "shard-local stream id {id} overflows the global id space",
            id = self.0
        );
        assert!(
            u64::from(shard) < 1 << (u64::BITS - SHARD_ID_SHIFT),
            "shard index {shard} overflows the {bits}-bit shard field",
            bits = u64::BITS - SHARD_ID_SHIFT
        );
        StreamId((u64::from(shard) << SHARD_ID_SHIFT) | self.0)
    }

    /// The shard index a global id was packed with (0 for unsharded runs).
    #[must_use]
    pub fn shard(self) -> u32 {
        u32::try_from(self.0 >> SHARD_ID_SHIFT).expect("shard index fits u32")
    }

    /// The shard-local part of a global id.
    #[must_use]
    pub fn local(self) -> StreamId {
        StreamId(self.0 & ((1 << SHARD_ID_SHIFT) - 1))
    }
}

#[derive(Debug)]
struct StageRuntime {
    /// Interned: every stream running the same model shares one profile
    /// (see `World::intern_profile`) instead of holding its own clone —
    /// at 100k streams the clones (and their heap model-id strings) were
    /// the largest per-stream allocation.
    profile: Arc<ModelProfile>,
    lbs: LbService,
    /// Network transfer time for this stage's input, fixed at admission
    /// (the input size and link model never change over a stream's life).
    /// Collocated streams and free local hops bypass this with zero.
    transfer: SimDuration,
}

#[derive(Debug)]
struct FrameFilter {
    pass_rate: f64,
    rng: DetRng,
}

/// Where a stream is in its service lifecycle: the public `Copy` view of
/// the runtime's own lifecycle state, which also carries the stream's
/// degradation denominator and any swap-in it awaits (see the module's
/// "Stream lifecycle" section). Exactly one phase applies at any instant;
/// without chaos mode only `Active`, `Lost`, `Removed`, and `Superseded`
/// occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StreamPhase {
    /// Serving at full rate.
    Active,
    /// Serving at a reduced frame rate (graceful degradation).
    Degraded,
    /// A component it depends on is down (detected or not); frames are
    /// being dropped but the stream has not been given up on.
    Interrupted,
    /// Displaced and waiting in the reconciler's pending-restart queue.
    Parked,
    /// Dropped with no pending recovery.
    Lost,
    /// Removed by the user.
    Removed,
    /// Restarted under a new stream id (see [`RunResults::successor`]).
    Superseded,
}

impl StreamPhase {
    /// `true` for phases in which the stream occupies the data plane
    /// (emission chain running, counted as served).
    #[must_use]
    pub fn is_live(self) -> bool {
        matches!(
            self,
            StreamPhase::Active | StreamPhase::Degraded | StreamPhase::Interrupted
        )
    }
}

impl fmt::Display for StreamPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StreamPhase::Active => "active",
            StreamPhase::Degraded => "degraded",
            StreamPhase::Interrupted => "interrupted",
            StreamPhase::Parked => "parked",
            StreamPhase::Lost => "lost",
            StreamPhase::Removed => "removed",
            StreamPhase::Superseded => "superseded",
        };
        f.write_str(s)
    }
}

/// A stream's lifecycle state, with the data each state needs. Only
/// `World::transition` changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifecycle {
    /// Emitting a frame every `interval × den`: full rate at `den` 1,
    /// degraded above.
    Serving { den: u32, swap: Option<Swap> },
    /// A component the placement depends on is down, detected or not:
    /// frames still emit every `interval × den` and drop at the client.
    Interrupted { den: u32, swap: Option<Swap> },
    /// Displaced and waiting for re-admission; once re-admitted at `den`,
    /// waiting on the `swap` that brings it back.
    Parked { den: u32, swap: Option<Swap> },
    /// Dropped with no pending recovery.
    Lost,
    /// Removed by the user.
    Removed,
    /// Restarted under a new stream id.
    Superseded,
}

impl Lifecycle {
    /// The public view of this state.
    fn phase(self) -> StreamPhase {
        match self {
            Lifecycle::Serving { den, .. } if den > 1 => StreamPhase::Degraded,
            Lifecycle::Serving { .. } => StreamPhase::Active,
            Lifecycle::Interrupted { .. } => StreamPhase::Interrupted,
            Lifecycle::Parked { .. } => StreamPhase::Parked,
            Lifecycle::Lost => StreamPhase::Lost,
            Lifecycle::Removed => StreamPhase::Removed,
            Lifecycle::Superseded => StreamPhase::Superseded,
        }
    }

    /// `true` while the stream occupies the data plane (emission chain
    /// running, counted as served).
    fn is_live(self) -> bool {
        self.phase().is_live()
    }

    /// The denominator and awaited swap-in of a serving, interrupted or
    /// parked stream; `None` once it is lost, removed or superseded.
    fn held(self) -> Option<(u32, Option<Swap>)> {
        match self {
            Lifecycle::Serving { den, swap }
            | Lifecycle::Interrupted { den, swap }
            | Lifecycle::Parked { den, swap } => Some((den, swap)),
            Lifecycle::Lost | Lifecycle::Removed | Lifecycle::Superseded => None,
        }
    }

    /// `true` while the stream is live or parked: the states a user can
    /// still remove it from.
    fn is_live_or_parked(self) -> bool {
        self.held().is_some()
    }

    /// The degradation denominator; 1 in the states that carry none.
    fn den(self) -> u32 {
        self.held().map_or(1, |(den, _)| den)
    }

    /// The swap-in the stream awaits, if any.
    fn swap(self) -> Option<Swap> {
        self.held().and_then(|(_, swap)| swap)
    }

    /// This state awaiting `swap` instead. The states without a placement
    /// await nothing and stay as they are.
    fn with_swap(self, swap: Option<Swap>) -> Lifecycle {
        match self {
            Lifecycle::Serving { den, .. } => Lifecycle::Serving { den, swap },
            Lifecycle::Interrupted { den, .. } => Lifecycle::Interrupted { den, swap },
            Lifecycle::Parked { den, .. } => Lifecycle::Parked { den, swap },
            ended => ended,
        }
    }

    /// The denominator of a serving stream no swap-in guards: the only
    /// streams rescale, upgrade and defrag may touch.
    fn unguarded_den(self) -> Option<u32> {
        match self {
            Lifecycle::Serving { den, swap: None } => Some(den),
            _ => None,
        }
    }
}

/// A swap-in a stream awaits, in one 32-bit word so that the lifecycle and
/// `emission_alive` share 16 bytes and the record stays within 304: a
/// sequence number, which a stale `SwapIn` (one a later swap superseded)
/// does not carry, and whether it completes a recovery ([`SwapCause`]). Bit 0 is always set, bit 1 marks a recovery,
/// and the sequence number fills the rest, wrapping after 2^30 swap-ins per
/// world, long after any earlier swap-in of the same stream has fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Swap(NonZeroU32);

impl Swap {
    fn new(seq: u32, cause: &SwapCause) -> Swap {
        let recovery = u32::from(matches!(cause, SwapCause::Recovery { .. }));
        Swap(NonZeroU32::MIN | seq << 2 | recovery << 1)
    }

    fn is_recovery(self) -> bool {
        self.0.get() & 0b10 != 0
    }
}

#[derive(Debug)]
struct StreamRuntime {
    pod: PodId,
    spec: StreamSpec,
    /// Inline for a single-stage stream, the common case: `on_frame` then
    /// reaches the stage's LBS without a heap hop.
    stages: Inline<StageRuntime>,
    audit: ThroughputAudit,
    latency: OnlineStats,
    interval: SimDuration,
    /// Frames still to emit: `spec.frame_limit` counted down by every
    /// emitted frame, including those dropped while the stream is
    /// interrupted (which the audit does not count). `u64::MAX`, never
    /// reached, for an unlimited stream. Kept here so the per-frame path
    /// does not read the spec.
    frames_left: u64,
    /// Boxed because almost no camera sets one.
    filter: Option<Box<FrameFilter>>,
    preprocess: SimDuration,
    /// First stream id of this lineage (self for original admissions).
    root: StreamId,
    /// The lifecycle state, with the degradation denominator (frames emit
    /// every `interval × den`) and the swap-in the stream awaits, if any.
    /// Changed only by `World::transition`.
    lifecycle: Lifecycle,
    /// Whether a `Frame` event chain is currently pending for this stream
    /// (guards against double emission chains across park/heal cycles).
    emission_alive: bool,
}

const _: () = assert!(std::mem::size_of::<StreamRuntime>() <= 304);

impl StreamRuntime {
    /// Reads one field in each 64-byte line of the region the per-frame
    /// handlers touch, from `spec.collocated` to `lifecycle`, folded into one
    /// value so the loads are not optimised away. The lifecycle is read by
    /// a tag test: reading it through `phase()` made the `serial_100k`
    /// replay ~4 % slower on a 2-vCPU Xeon VM.
    fn warm(&self) -> u64 {
        u64::from(self.spec.collocated)
            ^ self.stages.len() as u64
            ^ self.pod.0
            ^ self.audit.emitted()
            ^ self.latency.count()
            ^ self.frames_left
            ^ u64::from(matches!(self.lifecycle, Lifecycle::Serving { .. }))
    }

    /// Counts one emitted frame; `true` while more frames are due.
    fn count_frame(&mut self) -> bool {
        self.frames_left = self.frames_left.saturating_sub(1);
        self.frames_left > 0
    }
}

/// A control-plane command deliverable through the event queue at a chosen
/// instant — the unit of cross-shard control traffic. The sharded replay
/// holds commands in a global mailbox and releases each to its owning shard
/// at the epoch barrier covering its timestamp; unsharded callers can use
/// [`World::schedule_command`] directly to script mid-run admissions,
/// removals, and faults without stepping the world manually.
#[derive(Debug, Clone)]
pub enum WorldCommand {
    /// Admit a new stream when the command fires (boxed: specs are large
    /// and commands share the queue with hot-path events).
    Admit(Box<StreamSpec>),
    /// Remove a running stream.
    Remove(StreamId),
    /// Apply a component fault or repair (the chaos-mode injected path; a
    /// no-op unless [`World::enable_chaos`] armed the subsystem).
    Fault(FaultKind),
    /// Whole-cluster failure: remove every live (or parked) stream,
    /// capturing each as an [`EvacuatedStream`] for the fleet front door
    /// to re-place on surviving clusters (see [`crate::fleet`]).
    Evacuate,
}

/// A stream displaced by a whole-cluster failure, drained via
/// [`World::take_evacuations`] and re-admitted elsewhere by the fleet
/// front door.
#[derive(Debug, Clone)]
pub struct EvacuatedStream {
    /// The stream's id on the dead cluster.
    pub stream: StreamId,
    /// When the cluster died (the evacuation command's instant).
    pub fault_at: SimTime,
    /// The original spec, ready for re-admission.
    pub spec: StreamSpec,
}

/// One completed frame announced to another shard: the paper's cross-cluster
/// aggregation traffic. Carries everything the receiving side records, so
/// delivery needs no access to the producing shard's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameExport {
    /// Completion instant on the producing shard (post-processing done).
    pub at: SimTime,
    /// Producing stream, shard-local id.
    pub stream: StreamId,
    /// The frame's end-to-end latency.
    pub latency: SimDuration,
}

/// Kernel events. Completions are *not* events: a frame's completion time
/// is fully determined the moment its last TPU invocation finishes (or the
/// client filters it), so the kernel records completion metrics inline with
/// the future timestamp instead of bouncing a fourth event through the
/// queue — one quarter fewer events on the hot path, identical results.
#[derive(Debug)]
enum Ev {
    Frame(StreamId),
    Arrive(TpuId, InFlight),
    /// The TPU's running inference finishes. Carries the service's kill
    /// generation at the inference's start, so a `Done` whose frame a fault
    /// dropped is ignored.
    Done(TpuId, u32),
    /// A component fault or repair takes effect (data plane only — the
    /// control plane stays oblivious until `Detect`).
    Fault(FaultKind),
    /// The heartbeat lease for a fault expires; `epoch` invalidates stale
    /// detections when the component repaired (or re-failed) in between.
    Detect {
        kind: FaultKind,
        epoch: u32,
    },
    /// A swap-in the stream awaited completes, for its cause. One whose
    /// `Swap` the stream no longer awaits was superseded and is ignored.
    SwapIn(StreamId, Swap, SwapCause),
    /// Reconciliation pass: drain due pending-restart entries, then try
    /// upgrading degraded streams.
    Reconcile,
    /// A scheduled control-plane command fires (see [`WorldCommand`]).
    Command(WorldCommand),
    /// A frame completion exported by a peer shard arrives; the payload is
    /// its end-to-end latency, recorded into the remote-ingest sketch.
    Ingest(SimDuration),
}

// The queue's payload slab moves whole `Ev`s on every schedule and pop;
// keep the largest variant from growing unnoticed.
const _: () = assert!(std::mem::size_of::<Ev>() <= 56);

/// The complete simulated MicroEdge deployment.
pub struct World {
    queue: EventQueue<Ev>,
    orch: Orchestrator,
    sched: ExtendedScheduler,
    dp: DataPlaneConfig,
    net: NetworkModel,
    services: Vec<ServiceRuntime>,
    /// Slab of stream runtimes indexed by `StreamId.0`. Stream ids are
    /// allocated sequentially and never reused — removal merely ends the
    /// record's lifecycle — so a dense `Vec` replaces the per-event `BTreeMap`
    /// lookups on the frame hot path. `BTreeMap`s survive only at the
    /// admission and reporting boundaries.
    streams: Vec<StreamRuntime>,
    active_count: usize,
    /// Interned model profiles shared by every stream stage running the
    /// model (see `intern_profile`).
    profiles: BTreeMap<ModelId, Arc<ModelProfile>>,
    /// The stream each pod serves, indexed by `PodId`: this world's
    /// orchestrator issues pod ids densely from 0 and never reuses them.
    /// Read through `stream_of_pod`, which drops pods a readmission
    /// replaced.
    pods_to_streams: Vec<StreamId>,
    /// The container image of every camera pod, shared by their specs.
    image: Arc<str>,
    fleet: FleetUtilization,
    breakdowns: BreakdownRecorder,
    served: StepSeries,
    frames_dropped: u64,
    next_stream: u64,
    /// Old stream id → the id that superseded it via a restart.
    lineage: BTreeMap<StreamId, StreamId>,
    /// Armed by [`World::enable_chaos`]; `None` costs nothing on hot paths.
    chaos: Option<Box<ChaosState>>,
    /// Completions of export-flagged streams since the last
    /// [`World::take_outbox`], in completion-record order (monotone in
    /// `at`): the shard's outbound cross-shard traffic.
    outbox: Vec<FrameExport>,
    /// Latency sketch of peer-shard completions delivered via
    /// [`World::schedule_ingest`].
    ingest: LogLinearSketch,
    /// Scheduled commands that fired but failed.
    commands_failed: u64,
    /// Streams displaced by [`WorldCommand::Evacuate`] since the last
    /// [`World::take_evacuations`] — the whole-cluster-failure outbox the
    /// fleet front door drains at epoch barriers.
    evacuations: Vec<EvacuatedStream>,
    /// Armed by [`World::enable_defrag`]; `None` costs nothing on hot
    /// paths and leaves behavior identical to a defrag-free world.
    defrag: Option<Box<DefragRuntime>>,
}

/// The stream `pod` currently backs, with its record, if any. A free
/// function over the two slabs, so a caller can ask while it holds the
/// scheduler mutably.
fn stream_of_pod<'a>(
    streams: &'a [StreamRuntime],
    pods_to_streams: &[StreamId],
    pod: PodId,
) -> Option<(StreamId, &'a StreamRuntime)> {
    let sid = *pods_to_streams.get(pod.index())?;
    let stream = streams.get(sid.index())?;
    (stream.pod == pod).then_some((sid, stream))
}

/// The sharded replay moves whole shards across the worker pool between
/// epochs, so a `World` (and everything it owns) must stay `Send`.
fn _assert_world_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<World>();
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.queue.now())
            .field("streams", &self.streams.len())
            .field("tpus", &self.services.len())
            .finish()
    }
}

/// The window used for per-interval metrics (one minute, as in Fig. 6).
pub const METRIC_WINDOW: SimDuration = SimDuration::from_secs(60);

impl World {
    /// Builds a world over `cluster` with the built-in catalog and the
    /// shipped First-Fit policy.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no TPUs.
    #[must_use]
    pub fn new(cluster: Cluster, features: Features) -> Self {
        Self::with_scheduler(
            cluster.clone(),
            ExtendedScheduler::new(&cluster, Catalog::builtin(), features),
        )
    }

    /// Builds a world with a custom extended scheduler (e.g. a baseline
    /// policy or a different catalog).
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no TPUs.
    #[must_use]
    pub fn with_scheduler(cluster: Cluster, sched: ExtendedScheduler) -> Self {
        let tpu_count = cluster.tpu_count();
        assert!(tpu_count > 0, "a MicroEdge world needs at least one TPU");
        let net = *cluster.network();
        let services = (0..tpu_count)
            .map(|_| ServiceRuntime {
                device: TpuDevice::new(TpuSpec::coral_usb()),
                queue: VecDeque::new(),
                current: None,
                alive: true,
                kills: 0,
                max_depth: 0,
            })
            .collect();
        World {
            queue: EventQueue::new(),
            orch: Orchestrator::new(cluster),
            sched,
            dp: DataPlaneConfig::calibrated(),
            net,
            services,
            streams: Vec::new(),
            active_count: 0,
            profiles: BTreeMap::new(),
            pods_to_streams: Vec::new(),
            image: Arc::from("microedge-camera:latest"),
            fleet: FleetUtilization::new(tpu_count, METRIC_WINDOW),
            breakdowns: BreakdownRecorder::new(),
            served: StepSeries::new(METRIC_WINDOW),
            frames_dropped: 0,
            next_stream: 0,
            lineage: BTreeMap::new(),
            chaos: None,
            outbox: Vec::new(),
            ingest: LogLinearSketch::new(),
            commands_failed: 0,
            evacuations: Vec::new(),
            defrag: None,
        }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Overrides the data-plane calibration. Call before admitting streams
    /// — already-admitted streams keep their cached pre-processing cost.
    pub fn set_data_plane(&mut self, dp: DataPlaneConfig) {
        self.dp = dp;
    }

    /// The extended scheduler (for inspecting pool state).
    #[must_use]
    pub fn scheduler(&self) -> &ExtendedScheduler {
        &self.sched
    }

    /// The orchestrator (for inspecting pods).
    #[must_use]
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }

    /// Number of active streams (maintained incrementally; O(1)).
    #[must_use]
    pub fn active_streams(&self) -> usize {
        debug_assert_eq!(
            self.active_count,
            self.streams
                .iter()
                .filter(|s| s.lifecycle.is_live())
                .count(),
            "active-stream counter drifted from the slab"
        );
        self.active_count
    }

    /// The pod backing a stream, if the stream exists.
    #[must_use]
    pub fn pod_of(&self, stream: StreamId) -> Option<PodId> {
        self.stream(stream).map(|s| s.pod)
    }

    /// The stream `pod` currently backs, if any.
    fn stream_of_pod(&self, pod: PodId) -> Option<StreamId> {
        stream_of_pod(&self.streams, &self.pods_to_streams, pod).map(|(sid, _)| sid)
    }

    /// Records that the just-created `pod` backs `sid`.
    fn map_pod(&mut self, pod: PodId, sid: StreamId) {
        debug_assert_eq!(pod.index(), self.pods_to_streams.len(), "pod ids are dense");
        self.pods_to_streams.push(sid);
    }

    #[inline]
    fn stream(&self, id: StreamId) -> Option<&StreamRuntime> {
        self.streams.get(id.index())
    }

    #[inline]
    fn stream_mut(&mut self, id: StreamId) -> Option<&mut StreamRuntime> {
        self.streams.get_mut(id.index())
    }

    /// The ids of the streams `keep` selects, in id order.
    fn streams_where(&self, keep: impl Fn(&StreamRuntime) -> bool) -> Vec<StreamId> {
        let selected = self.streams.iter().enumerate().filter(|(_, s)| keep(s));
        selected.map(|(i, _)| StreamId::from_index(i)).collect()
    }

    /// Moves a stream to lifecycle state `to`. Every lifecycle change
    /// after admission goes through here, which keeps the live-stream
    /// counter and the served series in step. Returns `true` when the
    /// stream's liveness changed.
    fn transition(&mut self, id: StreamId, to: Lifecycle) -> bool {
        let now = self.queue.now();
        let Some(stream) = self.streams.get_mut(id.index()) else {
            return false;
        };
        let (was, is) = (stream.lifecycle.is_live(), to.is_live());
        stream.lifecycle = to;
        match (was, is) {
            (false, true) => self.active_count += 1,
            (true, false) => self.active_count -= 1,
            _ => return false,
        }
        self.served.add(now, if is { 1.0 } else { -1.0 });
        true
    }

    /// The lifecycle phase a stream is currently in.
    #[must_use]
    pub fn stream_phase(&self, id: StreamId) -> Option<StreamPhase> {
        self.stream(id).map(|s| s.lifecycle.phase())
    }

    /// The first stream id of `id`'s restart lineage.
    #[must_use]
    pub fn stream_root(&self, id: StreamId) -> Option<StreamId> {
        self.stream(id).map(|s| s.root)
    }

    /// Streams currently waiting in the reconciler's pending-restart
    /// queue, in arrival order.
    #[must_use]
    pub fn pending_restarts(&self) -> Vec<StreamId> {
        self.chaos
            .as_ref()
            .map(|c| c.parked.iter().map(|p| p.stream).collect())
            .unwrap_or_default()
    }

    /// Number of events still pending in the queue (the sharded replay's
    /// global-drain test).
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// `true` once [`World::enable_chaos`] has armed the fault subsystem.
    #[must_use]
    pub fn chaos_enabled(&self) -> bool {
        self.chaos.is_some()
    }

    /// The defragmenter's counters so far, if it is enabled. The final
    /// values also land in [`RunResults::defrag`].
    #[must_use]
    pub fn defrag_stats(&self) -> Option<&DefragStats> {
        self.defrag.as_ref().map(|d| &d.stats)
    }
}
