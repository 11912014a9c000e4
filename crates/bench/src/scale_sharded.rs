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
//! full scale, not just in unit tests.
//!
//! The split between deterministic JSON fields and `host_`-prefixed
//! measurement lines follows [`crate::scale`]: CI strips `host_` lines
//! before byte-comparing `BENCH_scale.json` across `MICROEDGE_WORKERS`
//! settings.

#![expect(
    clippy::disallowed_methods,
    reason = "times the simulator itself; lands on host_ lines"
)]

use std::fmt::Write as _;
use std::time::Instant;

use microedge_cluster::topology::ClusterBuilder;
use microedge_core::config::Features;
use microedge_core::runtime::StreamSpec;
use microedge_core::shard::{ShardedWorld, EPOCH};
use microedge_metrics::report::Table;
use microedge_sim::par;
use microedge_sim::time::{SimDuration, SimTime};

use crate::scale::{
    host_cores, json_opt_u64, peak_rss_bytes, size_cluster, ScaleStudy, SCALE_FPS,
    SCALE_FRAME_LIMIT,
};

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

/// The `(streams, shards)` pairs the sharded study sweeps: tiny in quick
/// mode (tests, CI smoke), 100k and the 1M-camera tier otherwise. Stream
/// counts divide evenly by their shard counts, and full-tier shards hold
/// 2 000 streams each — small enough that a shard's queue and working set
/// stay cache-sized (the serial sweep shows per-event cost climbing from
/// the 1k-stream tier to the 100k tier as both grow), big enough that one
/// shard is a realistic edge cluster.
#[must_use]
pub fn sharded_stream_counts(quick: bool) -> &'static [(u64, u32)] {
    if quick {
        &[(400, 4)]
    } else {
        &[(100_000, 50), (1_000_000, 500)]
    }
}

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
pub fn run_scale_sharded(quick: bool) -> ShardedScaleStudy {
    let points = sharded_stream_counts(quick)
        .iter()
        .map(|&(streams, shards)| run_sharded_point(streams, shards, SCALE_FRAME_LIMIT))
        .collect();
    ShardedScaleStudy {
        frame_limit: SCALE_FRAME_LIMIT,
        points,
    }
}

impl ShardedScaleStudy {
    /// Renders this study's JSON object (the `"sharded"` section of
    /// `BENCH_scale.json`), with `host_` measurement lines the CI compare
    /// strips, like [`ScaleStudy::points_json`].
    #[must_use]
    pub fn to_json_object(&self) -> String {
        let mut points = String::new();
        for (i, p) in self.points.iter().enumerate() {
            let comma = if i + 1 < self.points.len() { "," } else { "" };
            let _ = write!(
                points,
                "\n      {{\"streams\": {}, \"shards\": {}, \"tpus\": {}, \"nodes\": {}, \"frames\": {}, \"events\": {}, \"exports\": {}, \"telemetry_bytes\": {},\n        \"host_events_per_sec\": {:.1}, \"host_replay_wall_s\": {:.3}, \"host_workers\": {}, \"host_cores\": {}, \"host_peak_rss_bytes\": {}}}{comma}",
                p.streams,
                p.shards,
                p.tpus,
                p.nodes,
                p.frames,
                p.events,
                p.exports,
                p.telemetry_bytes,
                p.events_per_sec(),
                p.run_wall_s,
                p.workers,
                host_cores(),
                json_opt_u64(p.peak_rss_bytes),
            );
        }
        format!(
            "{{\n    \"workload\": \"N cameras x {frames} frames at {fps} FPS over K cluster shards, every {stride}th stream exported cross-shard\",\n    \"epoch_ms\": {epoch},\n    \"export_stride\": {stride},\n    \"points\": [{points}\n    ]\n  }}",
            frames = self.frame_limit,
            fps = SCALE_FPS,
            stride = EXPORT_STRIDE,
            epoch = EPOCH.as_millis_f64(),
            points = points,
        )
    }

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

/// Renders the complete `BENCH_scale.json`: the serial study document with
/// the sharded study spliced in as its `"sharded"` section.
///
/// # Panics
///
/// Panics if the serial document does not end with its closing brace
/// (which would mean [`ScaleStudy::to_json`] changed shape).
#[must_use]
pub fn render_bench_json(serial: &ScaleStudy, sharded: &ShardedScaleStudy) -> String {
    let serial_doc = serial.to_json();
    let base = serial_doc
        .strip_suffix("}\n")
        .expect("serial JSON ends with its closing brace");
    format!(
        "{base},\n  \"sharded\": {object}\n}}\n",
        base = base.trim_end(),
        object = sharded.to_json_object(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip_host_lines(json: &str) -> String {
        json.lines()
            .filter(|l| !l.contains("\"host_"))
            .collect::<Vec<_>>()
            .join("\n")
    }

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
    fn artifacts_are_byte_identical_across_worker_counts() {
        let study_at = |workers| ShardedScaleStudy {
            frame_limit: 3,
            points: vec![run_sharded_point_with_workers(64, 4, 3, workers)],
        };
        let serial = strip_host_lines(&study_at(1).to_json_object());
        for workers in [2, 8] {
            assert_eq!(
                serial,
                strip_host_lines(&study_at(workers).to_json_object()),
                "sharded artifact diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn bench_json_contains_both_studies() {
        let serial = crate::scale::run_scale(true);
        let sharded = ShardedScaleStudy {
            frame_limit: 3,
            points: vec![run_sharded_point_with_workers(32, 2, 3, 1)],
        };
        let json = render_bench_json(&serial, &sharded);
        assert!(json.contains("\"points\""));
        assert!(json.contains("\"sharded\""));
        assert!(json.contains("\"export_stride\""));
        assert!(json.ends_with("}\n"));
        // Braces balance: the splice produced one well-formed document.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
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
