//! Scale-out study (`repro --scale`): the Fig. 6 workload shape pushed to
//! 100 000 camera streams.
//!
//! The paper's §6.3 calls for "a much larger configuration of the workload
//! on a larger cluster"; this harness supplies it. Each point admits `N`
//! identical 1 FPS cameras (ssd-mobilenet-v2, frame-limited) onto a cluster
//! sized for exactly that fleet, replays every frame through the full data
//! plane, and reports the kernel's throughput alongside the footprint of
//! the run's telemetry.
//!
//! Stream, frame and event counts and telemetry bytes are deterministic;
//! wall-clock, events/sec and peak RSS (from `/proc/self/status`) are host
//! measurements.
//!
//! The telemetry footprint is the point: per-frame latency distributions
//! are held in constant-memory log-linear sketches
//! ([`microedge_sim::stats::LogLinearSketch`]), so the recorded bytes stay
//! flat as frames grow. The study proves it directly by re-running the
//! smallest point with twice the frame limit and reporting both byte
//! counts (`telemetry_invariance` in the JSON — they must be equal).

#![expect(
    clippy::disallowed_methods,
    reason = "times the simulator itself; lands on host_ lines"
)]

use std::time::Instant;

use microedge_cluster::topology::ClusterBuilder;
use microedge_core::config::DataPlaneConfig;
use microedge_core::units::TpuUnits;
use microedge_metrics::report::Table;
use microedge_models::catalog::ssd_mobilenet_v2;
use microedge_orch::pod::ResourceRequest;
use microedge_sim::stats::SKETCH_RELATIVE_ERROR;
use microedge_sim::time::{SimDuration, SimTime};

use crate::runner::{build_world, SystemConfig};
use microedge_core::runtime::StreamSpec;

/// Frame rate of every camera in the sweep. Kept low so a single TPU
/// serves ~42 cameras and 100k streams need a ~2.4k-TPU cluster rather
/// than a 35k-TPU one.
pub const SCALE_FPS: f64 = 1.0;

/// Frames each camera emits before stopping.
pub const SCALE_FRAME_LIMIT: u64 = 5;

/// One sweep point: `streams` cameras replayed to completion.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Cameras admitted (every requested stream must admit — the cluster
    /// is sized for the fleet).
    pub streams: u64,
    /// tRPis (= TPUs) in the cluster built for this point.
    pub tpus: u32,
    /// Total nodes (tRPis + vRPis).
    pub nodes: u32,
    /// Frames completed across the fleet (deterministic).
    pub frames: u64,
    /// Simulation events the kernel delivered (deterministic).
    pub events: u64,
    /// Heap bytes held by the run's latency/recovery telemetry
    /// (deterministic; constant in frame count).
    pub telemetry_bytes: u64,
    /// Wall-clock seconds spent admitting the fleet (host measurement).
    pub admit_wall_s: f64,
    /// Wall-clock seconds spent replaying frames (host measurement).
    pub run_wall_s: f64,
    /// `VmHWM` after the point, if the platform exposes it. Peak RSS is
    /// monotone over the process lifetime, so successive points report a
    /// running maximum.
    pub peak_rss_bytes: Option<u64>,
}

impl ScalePoint {
    /// Replay throughput: events over replay wall-clock.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.run_wall_s
    }

    /// Telemetry bytes amortised over the fleet (deterministic).
    #[must_use]
    pub fn telemetry_bytes_per_stream(&self) -> f64 {
        self.telemetry_bytes as f64 / self.streams as f64
    }
}

/// Frame-count invariance proof: the smallest point re-run with twice the
/// frames must hold the same number of telemetry bytes.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryInvariance {
    /// Stream count the pair was measured at.
    pub streams: u64,
    /// Telemetry bytes with [`SCALE_FRAME_LIMIT`] frames per camera.
    pub bytes_at_1x_frames: u64,
    /// Telemetry bytes with twice that frame limit.
    pub bytes_at_2x_frames: u64,
}

/// The whole sweep.
#[derive(Debug, Clone)]
pub struct ScaleStudy {
    /// Frames per camera at every point.
    pub frame_limit: u64,
    /// One entry per stream count, ascending.
    pub points: Vec<ScalePoint>,
    /// The constant-memory proof (see [`TelemetryInvariance`]).
    pub invariance: TelemetryInvariance,
}

/// The stream counts the study sweeps: 1k → 100k.
pub const SCALE_STREAM_COUNTS: [u64; 4] = [1_000, 10_000, 50_000, 100_000];

/// `VmHWM` (peak resident set) of this process in bytes, from
/// `/proc/self/status`; `None` where the file or field is absent.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Sizes a cluster for `streams` 1 FPS ssd-mobilenet-v2 cameras: the
/// `(trpis, vrpis)` pair that fits the whole fleet with no headroom. Shared
/// with the sharded study, which sizes each shard's cluster the same way.
#[must_use]
pub fn size_cluster(streams: u64) -> (u32, u32) {
    let units = DataPlaneConfig::calibrated().profiled_units(&ssd_mobilenet_v2(), SCALE_FPS);
    let streams_per_tpu = TpuUnits::ONE.as_micro() / units.as_micro();
    let tpus = u32::try_from(streams.div_ceil(streams_per_tpu)).expect("TPU count fits u32");
    // Pod slots per node are CPU-bound (8 camera pods on a 4 GHz-millis
    // RPi); tRPis host camera pods too, so only the remainder needs vRPis.
    let probe = ClusterBuilder::new().vrpis(1).build();
    let req = ResourceRequest::camera_default();
    let node = &probe.nodes()[0];
    let slots =
        u64::from(node.cpu_millis() / req.cpu_millis()).min(node.mem_bytes() / req.mem_bytes());
    let vrpis = u32::try_from(streams.div_ceil(slots))
        .expect("node count fits u32")
        .saturating_sub(tpus);
    (tpus, vrpis.max(1))
}

/// Runs one sweep point: sizes a cluster for `streams` cameras, admits
/// them all, and replays every frame.
///
/// # Panics
///
/// Panics if any admission fails — the cluster is sized so that all of
/// them fit, so a failure is a sizing or scheduler bug, not load shedding.
#[must_use]
pub fn run_scale_point(streams: u64, frame_limit: u64) -> ScalePoint {
    let (tpus, vrpis) = size_cluster(streams);
    let cluster = ClusterBuilder::new().trpis(tpus).vrpis(vrpis).build();
    let nodes = u32::try_from(cluster.nodes().len()).expect("node count fits u32");
    let mut world = build_world(cluster, SystemConfig::microedge_full());

    let admit_start = Instant::now();
    for i in 0..streams {
        let spec = StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
            .fps(SCALE_FPS)
            .frame_limit(frame_limit)
            // Spread first frames across the 1-second interval so arrival
            // bursts do not synchronise; 997 is coprime with 1000, so the
            // offsets cycle through every millisecond.
            .start_offset(SimDuration::from_millis((i * 997) % 1000))
            .build();
        world
            .admit_stream(spec)
            .expect("the sweep sizes the cluster for every stream");
    }
    let admit_wall_s = admit_start.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let results = world.run_to_completion(SimTime::from_secs(frame_limit + 3));
    let run_wall_s = run_start.elapsed().as_secs_f64();

    ScalePoint {
        streams,
        tpus,
        nodes,
        frames: results.reports().iter().map(|r| r.completed()).sum(),
        events: results.events_processed(),
        telemetry_bytes: results.telemetry_memory_bytes() as u64,
        admit_wall_s,
        run_wall_s,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Runs the full sweep plus the frame-count invariance pair.
#[must_use]
pub fn run_scale() -> ScaleStudy {
    let points: Vec<ScalePoint> = SCALE_STREAM_COUNTS
        .iter()
        .map(|&n| run_scale_point(n, SCALE_FRAME_LIMIT))
        .collect();
    let smallest = SCALE_STREAM_COUNTS[0];
    let doubled = run_scale_point(smallest, SCALE_FRAME_LIMIT * 2);
    let invariance = TelemetryInvariance {
        streams: smallest,
        bytes_at_1x_frames: points[0].telemetry_bytes,
        bytes_at_2x_frames: doubled.telemetry_bytes,
    };
    ScaleStudy {
        frame_limit: SCALE_FRAME_LIMIT,
        points,
        invariance,
    }
}

impl ScaleStudy {
    /// Renders the human table `repro --scale` prints (wall-clock, replay
    /// throughput, and peak RSS included).
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut table = Table::new(&[
            "streams",
            "TPUs",
            "nodes",
            "frames",
            "admit (s)",
            "replay (s)",
            "Mev/s",
            "peak RSS (MiB)",
            "telemetry (B)",
            "B/stream",
        ]);
        for p in &self.points {
            table.row_owned(vec![
                p.streams.to_string(),
                p.tpus.to_string(),
                p.nodes.to_string(),
                p.frames.to_string(),
                format!("{:.3}", p.admit_wall_s),
                format!("{:.3}", p.run_wall_s),
                format!("{:.2}", p.events_per_sec() / 1e6),
                p.peak_rss_bytes.map_or_else(
                    || "n/a".to_owned(),
                    |b| format!("{:.1}", b as f64 / (1024.0 * 1024.0)),
                ),
                p.telemetry_bytes.to_string(),
                format!("{:.3}", p.telemetry_bytes_per_stream()),
            ]);
        }
        format!(
            "### Scale-out study — {frames} frames/camera at {fps} FPS (latency percentiles \
             from a log-linear sketch, rel. error ≤ {err:.2}%)\n{table}telemetry is \
             frame-count-invariant: {inv_streams} streams hold {inv_1x} B at {lim}x frames \
             and {inv_2x} B at {lim2}x\n",
            frames = self.frame_limit,
            fps = SCALE_FPS,
            err = SKETCH_RELATIVE_ERROR * 100.0,
            table = table,
            inv_streams = self.invariance.streams,
            inv_1x = self.invariance.bytes_at_1x_frames,
            inv_2x = self.invariance.bytes_at_2x_frames,
            lim = 1,
            lim2 = 2,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_admits_every_stream_and_completes_frames() {
        let p = run_scale_point(96, 3);
        assert_eq!(p.streams, 96);
        assert_eq!(
            p.frames,
            96 * 3,
            "every admitted camera completes its frames"
        );
        assert!(p.events > 0);
        assert!(p.tpus >= 3, "96 cameras at ~42/TPU need at least 3 TPUs");
        assert!(p.telemetry_bytes > 0);
    }

    #[test]
    fn telemetry_is_frame_count_invariant() {
        let short = run_scale_point(64, 2);
        let long = run_scale_point(64, 8);
        assert_eq!(
            short.telemetry_bytes, long.telemetry_bytes,
            "sketch telemetry must not grow with frames"
        );
        assert!(long.frames > short.frames);
    }

    #[test]
    fn summary_reports_every_point() {
        let points = vec![run_scale_point(100, 3), run_scale_point(250, 3)];
        let invariance = TelemetryInvariance {
            streams: 100,
            bytes_at_1x_frames: points[0].telemetry_bytes,
            bytes_at_2x_frames: run_scale_point(100, 6).telemetry_bytes,
        };
        let study = ScaleStudy {
            frame_limit: 3,
            points,
            invariance,
        };
        let text = study.render_summary();
        for p in &study.points {
            assert!(text.contains(&p.streams.to_string()));
        }
        assert!(text.contains("frame-count-invariant"));
        assert!(text.contains("rel. error"));
    }
}
