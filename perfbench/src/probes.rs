//! Isolated layer probes: each times one layer's public function at a
//! fixed size, away from any replay, so the number moves only when that
//! layer's code does.

use std::hint::black_box;
use std::time::Instant;

use microedge_bench::scale::size_cluster;
use microedge_cluster::topology::ClusterBuilder;
use microedge_core::config::Features;
use microedge_core::defrag::DefragConfig;
use microedge_core::fleet::{ClusterSummary, FrontDoor, StreamDemand};
use microedge_core::net::{RetransmitPolicy, Transport};
use microedge_core::runtime::{RunResults, StreamId, World};
use microedge_sim::event::EventQueue;
use microedge_sim::rng::DetRng;
use microedge_sim::stats::LogLinearSketch;
use microedge_sim::time::{SimDuration, SimTime};

use crate::ledger::{Ctx, Slicer};
use crate::stats::median;
use crate::workloads::{lossy_links, FleetInputs, FleetShape};

/// Operations per timed batch of a per-call probe.
const BATCH: usize = 1_000;

/// Times `op` in batches of [`BATCH`] calls until `budget` has passed (and
/// at least five batches ran); returns the median batch's ns per call.
fn ns_per_op(budget: std::time::Duration, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut per_op = Vec::new();
    let mut i = 0;
    while per_op.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..BATCH {
            op(i);
            i += 1;
        }
        per_op.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    median(&per_op)
}

/// Pending depths of the event-queue hold sweep.
pub const HOLD_DEPTHS: [(&str, usize); 6] = [
    ("d64", 64),
    ("d1k", 1_000),
    ("d4k", 4_000),
    ("d16k", 16_000),
    ("d64k", 64_000),
    ("d250k", 250_000),
];

/// Reschedule horizons of the hold sweep: one 15 FPS frame interval, and
/// one second (a 1 FPS camera's next frame, as in `serial_100k`).
pub const HOLD_HORIZONS: [(&str, SimDuration); 2] = [
    ("h67ms", SimDuration::from_nanos(66_666_667)),
    ("h1s", SimDuration::from_secs(1)),
];

/// The hold model on an isolated `EventQueue` holding `depth` events: pop
/// the earliest with `pop_due`, reschedule it uniformly within `horizon`.
/// Returns ns per pop+schedule pair, after the queue has settled.
pub fn event_hold_ns(depth: usize, horizon: SimDuration, seed: u64) -> f64 {
    let mut rng = DetRng::seed_from(seed);
    let span = horizon.as_nanos();
    let mut queue: EventQueue<u64> = EventQueue::new();
    for e in 0..depth as u64 {
        queue.schedule_at(SimTime::from_nanos(rng.uniform_range(0, span)), e);
    }
    let jitter: Vec<u64> = (0..4096).map(|_| rng.uniform_range(1, span)).collect();
    let mut hold = |i: usize| {
        let (at, e) = queue
            .pop_due(SimTime::MAX)
            .expect("the hold keeps the queue full");
        queue.schedule_at(
            at + SimDuration::from_nanos(jitter[i % jitter.len()]),
            black_box(e),
        );
    };
    for i in 0..depth.min(20_000) {
        hold(i);
    }
    ns_per_op(std::time::Duration::from_millis(120), hold)
}

/// `LogLinearSketch::record_duration`, the per-frame telemetry call, over
/// millisecond-scale frame latencies.
pub fn sketch_record_ns(seed: u64) -> f64 {
    let mut rng = DetRng::seed_from(seed);
    let values: Vec<SimDuration> = (0..4096)
        .map(|_| SimDuration::from_nanos(rng.uniform_range(2_000_000, 200_000_000)))
        .collect();
    let mut sketch = LogLinearSketch::new();
    let ns = ns_per_op(std::time::Duration::from_millis(100), |i| {
        sketch.record_duration(black_box(values[i % values.len()]));
    });
    black_box(sketch.count());
    ns
}

/// The demand of one `fleet_churn` camera, as admission will charge it.
fn camera_demand() -> StreamDemand {
    let probe = World::new(
        ClusterBuilder::new().trpis(1).vrpis(1).build(),
        Features::all(),
    );
    probe
        .estimate_demand(&FleetInputs::camera_spec(0, 1, 0))
        .expect("ssd-mobilenet-v2 is in the catalog")
}

/// `FrontDoor::place` at `fleet_churn`'s cluster and region shape, with
/// every cluster between half and fully loaded.
pub fn fleet_place_ns(shape: FleetShape, seed: u64) -> f64 {
    let mut rng = DetRng::seed_from(seed);
    let demand = camera_demand();
    let (tpus, _) = size_cluster(shape.per_cluster);
    let summaries: Vec<ClusterSummary> = (0..shape.clusters)
        .map(|_| {
            let mut s = ClusterSummary::empty(tpus);
            let load = rng.uniform_range(shape.per_cluster / 2, shape.per_cluster);
            for _ in 0..load {
                s.debit(demand);
            }
            s
        })
        .collect();
    let door = FrontDoor::new(summaries, shape.regions, 1);
    let regions = shape.regions as usize;
    ns_per_op(std::time::Duration::from_millis(100), |i| {
        let home = u32::try_from(i % regions).expect("region fits u32");
        black_box(door.place(black_box(home), demand));
    })
}

/// `Transport::send_telemetry` on `fleet_churn`'s 1 %-lossy uplinks.
pub fn send_telemetry_ns(shape: FleetShape, seed: u64) -> f64 {
    let mut transport = Transport::new(
        shape.clusters as usize,
        lossy_links(shape.clusters),
        seed,
        RetransmitPolicy::default(),
    );
    transport.advance_to(SimTime::ZERO);
    let links = shape.clusters as usize;
    ns_per_op(std::time::Duration::from_millis(100), |i| {
        let link = u32::try_from(i % links).expect("link fits u32");
        black_box(transport.send_telemetry(link, black_box(i as u64)));
    })
}

/// One `fleet_churn` shard run on its own: the same cluster sizing,
/// cameras, exports, churn shares and defrag config, replayed serially with
/// a `defrag_epoch` tick at every 500 ms barrier. The sharded replay runs
/// these calls inside `ShardedWorld::run_net_with_workers`, out of reach;
/// here the benchmark makes them itself and times each one.
pub fn standalone_shard(per_cluster: u64, seed: u64, ctx: &mut Ctx) -> RunResults {
    let barrier = SimDuration::from_millis(500);
    let (tpus, vrpis) = size_cluster(per_cluster);
    let mut world = World::new(
        ClusterBuilder::new().trpis(tpus).vrpis(vrpis).build(),
        Features::all(),
    );
    world.enable_defrag(DefragConfig::default());
    let one = FleetShape {
        clusters: 1,
        per_cluster,
        regions: 1,
    };
    let inputs = FleetInputs::generate(one, seed);
    // (instant, Some(stream) to remove | None to admit the next arrival)
    let mut churn: Vec<(SimTime, Option<StreamId>)> = Vec::new();
    for (i, (offset, removed)) in inputs.cameras().iter().enumerate() {
        let spec = FleetInputs::camera_spec(0, i as u64, *offset);
        let id = ctx
            .admit(|| world.admit_stream(spec))
            .expect("the shard is sized for its cameras");
        if let Some(at) = removed {
            churn.push((*at, Some(id)));
        }
    }
    churn.extend(inputs.arrivals().iter().map(|&(at, _)| (at, None)));
    churn.sort_by_key(|&(at, _)| at);
    let mut slicer = Slicer::new();
    let mut next = 0;
    let mut arrivals = 0;
    let mut at = SimTime::ZERO;
    while next < churn.len() || world.pending_events() > 0 {
        at += barrier;
        while let Some(&(when, action)) = churn.get(next).filter(|(when, _)| *when <= at) {
            next += 1;
            ctx.advance(&mut world, &mut slicer, when);
            match action {
                Some(id) => ctx
                    .remove(|| world.remove_stream(id))
                    .expect("live stream can be removed"),
                None => {
                    let spec = FleetInputs::arrival_spec(arrivals);
                    arrivals += 1;
                    // A full shard may refuse a late camera; the ledger
                    // counts it.
                    let _ = ctx.admit(|| world.admit_stream(spec));
                }
            }
        }
        ctx.advance(&mut world, &mut slicer, at);
        world.advance_to(at);
        ctx.defrag_epoch(&mut world);
        drop(world.take_outbox());
    }
    ctx.finish(|| world.finish(at))
}
