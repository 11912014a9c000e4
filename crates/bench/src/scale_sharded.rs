//! Sharded scale-out study: one deterministic replay past 1 000 000
//! streams (`repro --scale`, alongside the serial sweep in [`crate::scale`]).
//!
//! Where the serial study drains one `World`, each point here partitions
//! the fleet across per-cluster [`ShardedWorld`] shards advanced in
//! deterministic epochs (see `microedge_core::shard`). Independent of
//! thread count, K shards shrink each event queue K-fold (a heap pop costs
//! O(log pending)) and keep the working set each epoch touches near cache
//! size; the exchange and barrier bookkeeping are what that costs. Every
//! `EXPORT_STRIDE`-th camera additionally announces its completions to the
//! neighbouring shard, so the cross-shard exchange path is exercised at
//! full scale, not just in unit tests. [`to_json`] writes both studies
//! into `BENCH_scale.json`.

#![expect(
    clippy::disallowed_methods,
    reason = "times the simulator itself; lands on host_ lines"
)]

use std::time::Instant;

use microedge_cluster::topology::ClusterBuilder;
use microedge_core::config::Features;
use microedge_core::runtime::StreamSpec;
use microedge_core::shard::{ShardedWorld, EPOCH};
use microedge_metrics::report::Table;
use microedge_sim::par;
use microedge_sim::time::{SimDuration, SimTime};

use microedge_sim::stats::SKETCH_RELATIVE_ERROR;

use crate::artifact::{self, fixed};
use crate::runner::SystemConfig;
use crate::scale::{peak_rss_bytes, size_cluster, ScaleStudy, SCALE_FPS, SCALE_FRAME_LIMIT};

/// Every `EXPORT_STRIDE`-th camera of each shard export-flags its
/// completions, generating deterministic cross-shard traffic at every
/// epoch barrier.
pub const EXPORT_STRIDE: u64 = 8;

/// One sharded sweep point: `streams` cameras split over `shards` cluster
/// shards and replayed to completion in one deterministic run.
#[derive(Debug, Clone)]
pub struct ShardedScalePoint {
    /// Total cameras admitted across the fleet.
    pub streams: u64,
    /// Cluster shards the fleet is partitioned into.
    pub shards: u32,
    /// tRPis (= TPUs) across all shards.
    pub tpus: u32,
    /// Total nodes across all shards.
    pub nodes: u32,
    /// Frames completed across the fleet (deterministic).
    pub frames: u64,
    /// Simulation events delivered, summed over shards — includes the
    /// cross-shard ingest events (deterministic).
    pub events: u64,
    /// Frame exports delivered across shard boundaries (deterministic).
    pub exports: u64,
    /// Heap bytes held by the merged telemetry (deterministic).
    pub telemetry_bytes: u64,
    /// Wall-clock seconds spent admitting the fleet (host measurement).
    pub admit_wall_s: f64,
    /// Wall-clock seconds spent replaying (host measurement).
    pub run_wall_s: f64,
    /// Worker threads the epochs ran on (host setting, not deterministic —
    /// it follows `MICROEDGE_WORKERS` / available parallelism).
    pub workers: usize,
    /// `VmHWM` after the point (running maximum over the process life).
    pub peak_rss_bytes: Option<u64>,
}

impl ShardedScalePoint {
    /// Aggregate replay throughput: events over replay wall-clock.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.run_wall_s
    }
}

/// The sharded sweep.
#[derive(Debug, Clone)]
pub struct ShardedScaleStudy {
    /// Frames per camera at every point.
    pub frame_limit: u64,
    /// One entry per `(streams, shards)` pair, ascending in streams.
    pub points: Vec<ShardedScalePoint>,
}

/// The `(streams, shards)` pairs the sharded study sweeps: 100k and the
/// 1M-camera tier. Stream counts divide evenly by their shard counts, and
/// shards hold 2 000 streams each — small enough that a shard's queue and
/// working set stay cache-sized (the serial sweep shows per-event cost
/// climbing from the 1k-stream tier to the 100k tier as both grow), big
/// enough that one shard is a realistic edge cluster.
pub const SHARDED_STREAM_COUNTS: [(u64, u32); 2] = [(100_000, 50), (1_000_000, 500)];

/// Runs one sharded point with an explicit worker count.
///
/// # Panics
///
/// Panics if `streams` does not divide evenly by `shards` or an admission
/// fails (each shard's cluster is sized for its slice of the fleet).
#[must_use]
pub fn run_sharded_point_with_workers(
    streams: u64,
    shards: u32,
    frame_limit: u64,
    workers: usize,
) -> ShardedScalePoint {
    assert!(
        streams.is_multiple_of(u64::from(shards)),
        "{streams} streams do not split evenly over {shards} shards"
    );
    let per_shard = streams / u64::from(shards);
    let (shard_tpus, shard_vrpis) = size_cluster(per_shard);
    let clusters = (0..shards).map(|_| {
        ClusterBuilder::new()
            .trpis(shard_tpus)
            .vrpis(shard_vrpis)
            .build()
    });
    let nodes_per_shard = shard_tpus + shard_vrpis;
    let mut world = ShardedWorld::new(clusters, Features::all());

    let admit_start = Instant::now();
    for shard in 0..shards {
        for i in 0..per_shard {
            let spec = StreamSpec::builder(&format!("cam-{shard}-{i}"), "ssd-mobilenet-v2")
                .fps(SCALE_FPS)
                .frame_limit(frame_limit)
                // Same de-synchronisation as the serial sweep; shards are
                // identical by construction, which doubles as a cheap
                // self-check (every shard completes the same frame count).
                .start_offset(SimDuration::from_millis((i * 997) % 1000))
                .export_completions(i.is_multiple_of(EXPORT_STRIDE))
                .build();
            world
                .admit_stream(shard, spec)
                .expect("each shard's cluster is sized for its slice");
        }
    }
    let admit_wall_s = admit_start.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let (results, _, _) = world.run_net_with_workers(SimTime::from_secs(frame_limit + 3), workers);
    let run_wall_s = run_start.elapsed().as_secs_f64();

    ShardedScalePoint {
        streams,
        shards,
        tpus: shard_tpus * shards,
        nodes: nodes_per_shard * shards,
        frames: results.reports().iter().map(|r| r.completed()).sum(),
        events: results.events_processed(),
        exports: results.remote_ingest().count(),
        telemetry_bytes: results.telemetry_memory_bytes() as u64,
        admit_wall_s,
        run_wall_s,
        workers,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Runs one sharded point with the ambient worker count
/// (`MICROEDGE_WORKERS` / available parallelism).
#[must_use]
pub fn run_sharded_point(streams: u64, shards: u32, frame_limit: u64) -> ShardedScalePoint {
    let workers = par::worker_count(shards as usize);
    run_sharded_point_with_workers(streams, shards, frame_limit, workers)
}

/// Runs the whole sharded sweep.
#[must_use]
pub fn run_scale_sharded() -> ShardedScaleStudy {
    let points = SHARDED_STREAM_COUNTS
        .iter()
        .map(|&(streams, shards)| run_sharded_point(streams, shards, SCALE_FRAME_LIMIT))
        .collect();
    ShardedScaleStudy {
        frame_limit: SCALE_FRAME_LIMIT,
        points,
    }
}

impl ShardedScaleStudy {
    /// Renders the human table `repro --scale` prints for the sharded
    /// sweep (host measurements included).
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut table = Table::new(&[
            "streams",
            "shards",
            "TPUs",
            "nodes",
            "frames",
            "events",
            "exports",
            "admit (s)",
            "replay (s)",
            "Mev/s",
            "workers",
            "peak RSS (MiB)",
        ]);
        for p in &self.points {
            table.row_owned(vec![
                p.streams.to_string(),
                p.shards.to_string(),
                p.tpus.to_string(),
                p.nodes.to_string(),
                p.frames.to_string(),
                p.events.to_string(),
                p.exports.to_string(),
                format!("{:.3}", p.admit_wall_s),
                format!("{:.3}", p.run_wall_s),
                format!("{:.2}", p.events_per_sec() / 1e6),
                p.workers.to_string(),
                p.peak_rss_bytes.map_or_else(
                    || "n/a".to_owned(),
                    |b| format!("{:.1}", b as f64 / (1024.0 * 1024.0)),
                ),
            ]);
        }
        format!(
            "### Sharded scale-out study — one replay, {frames} frames/camera at {fps} FPS, epoch {epoch} ms, byte-identical at any worker count\n{table}",
            frames = self.frame_limit,
            fps = SCALE_FPS,
            epoch = EPOCH.as_millis_f64(),
            table = table,
        )
    }
}

/// Renders `BENCH_scale.json`: the serial study, with the sharded study
/// as its `"sharded"` section.
#[must_use]
pub fn to_json(serial: &ScaleStudy, sharded: &ShardedScaleStudy) -> String {
    artifact::document(|d| {
        d.str("benchmark", "scale_out_study")
            .str(
                "workload",
                &format!(
                    "N cameras x {frames} frames at {SCALE_FPS} FPS, ssd-mobilenet-v2, {config}",
                    frames = serial.frame_limit,
                    config = SystemConfig::microedge_full().label(),
                ),
            )
            .num("sketch_relative_error", SKETCH_RELATIVE_ERROR)
            .obj("telemetry_invariance", |o| {
                let inv = &serial.invariance;
                o.num("streams", inv.streams)
                    .num("bytes_at_1x_frames", inv.bytes_at_1x_frames)
                    .num("bytes_at_2x_frames", inv.bytes_at_2x_frames);
            })
            .rows("points", 4, &serial.points, |r, p| {
                r.num("streams", p.streams)
                    .num("tpus", p.tpus)
                    .num("nodes", p.nodes)
                    .num("frames", p.frames)
                    .num("events", p.events)
                    .num("telemetry_bytes", p.telemetry_bytes)
                    .num(
                        "telemetry_bytes_per_stream",
                        fixed(p.telemetry_bytes_per_stream(), 3),
                    )
                    .host("events_per_sec", fixed(p.events_per_sec(), 1))
                    .host("replay_wall_s", fixed(p.run_wall_s, 3))
                    .host("peak_rss_bytes", p.peak_rss_bytes);
            })
            .block("sharded", |b| {
                b.str(
                    "workload",
                    &format!(
                        "N cameras x {frames} frames at {SCALE_FPS} FPS over K cluster shards, \
                         every {EXPORT_STRIDE}th stream exported cross-shard",
                        frames = sharded.frame_limit,
                    ),
                )
                .num("epoch_ms", EPOCH.as_millis_f64())
                .num("export_stride", EXPORT_STRIDE)
                .rows("points", 6, &sharded.points, |r, p| {
                    r.num("streams", p.streams)
                        .num("shards", p.shards)
                        .num("tpus", p.tpus)
                        .num("nodes", p.nodes)
                        .num("frames", p.frames)
                        .num("events", p.events)
                        .num("exports", p.exports)
                        .num("telemetry_bytes", p.telemetry_bytes)
                        .host("events_per_sec", fixed(p.events_per_sec(), 1))
                        .host("admit_wall_s", fixed(p.admit_wall_s, 3))
                        .host("replay_wall_s", fixed(p.run_wall_s, 3))
                        .host("workers", p.workers)
                        .host("peak_rss_bytes", p.peak_rss_bytes);
                });
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::strip_host_lines;

    #[test]
    fn sharded_point_completes_every_frame_and_routes_exports() {
        let p = run_sharded_point_with_workers(96, 4, 3, 1);
        assert_eq!(p.streams, 96);
        assert_eq!(p.shards, 4);
        assert_eq!(p.frames, 96 * 3, "every camera completes its frames");
        // 24 cameras per shard → ids 0, 8, 16 export: 3 exporters × 4
        // shards × 3 frames.
        assert_eq!(p.exports, 3 * 4 * 3);
        assert!(p.events > p.frames, "events include arrivals and ingests");
        assert!(p.telemetry_bytes > 0);
    }

    #[test]
    fn bench_json_contains_both_studies() {
        let point = crate::scale::run_scale_point(64, 3);
        let serial = crate::scale::ScaleStudy {
            frame_limit: 3,
            invariance: crate::scale::TelemetryInvariance {
                streams: 64,
                bytes_at_1x_frames: point.telemetry_bytes,
                bytes_at_2x_frames: point.telemetry_bytes,
            },
            points: vec![point],
        };
        let sharded = ShardedScaleStudy {
            frame_limit: 3,
            points: vec![run_sharded_point_with_workers(32, 2, 3, 1)],
        };
        let json = to_json(&serial, &sharded);
        assert!(json.contains("\"points\""));
        assert!(json.contains("\"sharded\""));
        assert!(json.contains("\"export_stride\""));
        assert!(json.contains("\"telemetry_invariance\""));
        assert!(json.ends_with("}\n"));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
        // Host measurements are present, but only on their own host_ lines.
        assert!(json.contains("\"host_events_per_sec\""));
        let filtered = strip_host_lines(&json);
        assert!(!filtered.contains("wall"), "host fields leak: {filtered}");
        assert!(!filtered.contains("rss"));
    }

    #[test]
    fn summary_reports_throughput_and_workers() {
        let study = ShardedScaleStudy {
            frame_limit: 3,
            points: vec![run_sharded_point_with_workers(32, 2, 3, 2)],
        };
        let text = study.render_summary();
        assert!(text.contains("Sharded scale-out"));
        assert!(text.contains("32"));
        assert!(text.contains("Mev/s"));
    }
}
