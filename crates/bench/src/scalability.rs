//! The scalability study (paper §6.2, Fig. 5a–5d).
//!
//! For each configuration and TPU count the experiment admits camera
//! instances one at a time until admission control refuses the next one,
//! then runs the admitted fleet through the full data plane and audits
//! every stream's FPS SLO and the fleet's TPU utilization.
//!
//! Beyond the paper's 1–6 TPU range, the module also renders the
//! *control-plane* scalability story: the admission-throughput sweep
//! ([`crate::admission_overhead::run_admission_perf`]) at 16–16 384
//! TPUs, comparing the indexed pool against the linear-scan reference.

use microedge_core::runtime::{RunResults, StreamSpec, World};
use microedge_metrics::report::{fmt_f64, Table};
use microedge_sim::time::{SimDuration, SimTime};
use microedge_workloads::apps::CameraApp;
use microedge_workloads::camera::camera_instance;

use crate::runner::{build_world, experiment_cluster, SystemConfig};

/// One point of Fig. 5: a (configuration, #TPUs) pair.
#[derive(Debug, Clone)]
pub struct ScalabilityPoint {
    config: SystemConfig,
    tpus: u32,
    max_cameras: u32,
    avg_utilization: f64,
    all_slo_met: bool,
}

impl ScalabilityPoint {
    /// The configuration measured.
    #[must_use]
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// Number of TPUs in the cluster.
    #[must_use]
    pub fn tpus(&self) -> u32 {
        self.tpus
    }

    /// Cameras the configuration could admit (Fig. 5a/5c y-axis).
    #[must_use]
    pub fn max_cameras(&self) -> u32 {
        self.max_cameras
    }

    /// Fleet-average TPU utilization at that load (Fig. 5b/5d y-axis).
    #[must_use]
    pub fn avg_utilization(&self) -> f64 {
        self.avg_utilization
    }

    /// `true` when every admitted camera held its FPS SLO.
    #[must_use]
    pub fn all_slo_met(&self) -> bool {
        self.all_slo_met
    }
}

/// Golden-ratio start-offset stagger: well spread for any fleet size
/// without knowing the size in advance.
fn stagger(app: &CameraApp, index: u32) -> SimDuration {
    let fraction = (f64::from(index) * 0.618_033_988_749_895) % 1.0;
    app.frame_interval().mul_f64(fraction)
}

fn instance(app: &CameraApp, index: u32, frames: u64, config: SystemConfig) -> StreamSpec {
    camera_instance(
        app,
        &format!("{}-{index}", app.name()),
        frames,
        stagger(app, index),
        config.collocated(),
    )
}

/// Admits cameras of `app` until the first rejection; returns the world and
/// the admitted count.
fn fill_world(app: &CameraApp, config: SystemConfig, tpus: u32, frames: u64) -> (World, u32) {
    let mut world = build_world(experiment_cluster(tpus), config);
    let mut admitted = 0;
    loop {
        let spec = instance(app, admitted, frames, config);
        match world.admit_stream(spec) {
            Ok(_) => admitted += 1,
            Err(_) => break,
        }
        assert!(admitted < 10_000, "admission never saturated");
    }
    (world, admitted)
}

/// The admission-only capacity question: how many cameras fit?
#[must_use]
pub fn max_cameras(app: &CameraApp, config: SystemConfig, tpus: u32) -> u32 {
    let (_, admitted) = fill_world(app, config, tpus, 1);
    admitted
}

/// Runs one Fig. 5 point end to end: fill to capacity, process `frames`
/// frames per camera, audit SLOs and utilization.
#[must_use]
pub fn run_point(
    app: &CameraApp,
    config: SystemConfig,
    tpus: u32,
    frames: u64,
) -> ScalabilityPoint {
    let (world, admitted) = fill_world(app, config, tpus, frames);
    let horizon = SimTime::ZERO + app.frame_interval() * (frames + 20) + SimDuration::from_secs(5);
    let results: RunResults = world.run_to_completion(horizon);
    ScalabilityPoint {
        config,
        tpus,
        max_cameras: admitted,
        avg_utilization: results.average_utilization(),
        all_slo_met: results.all_met_fps(),
    }
}

/// The full Fig. 5 sweep for one application: every configuration × TPU
/// count `1..=max_tpus`. Points are independent simulations, so they run
/// through [`microedge_sim::par::par_map`] (bounded by the host's parallelism, or
/// the `MICROEDGE_WORKERS` override); results come back in deterministic
/// `(config, tpus)` order regardless of completion order.
#[must_use]
pub fn fig5_sweep(
    app: &CameraApp,
    configs: &[SystemConfig],
    max_tpus: u32,
    frames: u64,
) -> Vec<ScalabilityPoint> {
    let jobs: Vec<(SystemConfig, u32)> = configs
        .iter()
        .flat_map(|&config| (1..=max_tpus).map(move |tpus| (config, tpus)))
        .collect();
    microedge_sim::par::par_map(jobs, |_, (config, tpus)| {
        run_point(app, config, tpus, frames)
    })
}

/// Renders a sweep as the pair of tables behind Fig. 5a/5b (or 5c/5d).
#[must_use]
pub fn render_sweep(app: &CameraApp, points: &[ScalabilityPoint]) -> String {
    let mut cameras = Table::new(&["config", "#TPUs", "max cameras", "SLO met"]);
    let mut utilization = Table::new(&["config", "#TPUs", "avg TPU utilization"]);
    for p in points {
        cameras.row_owned(vec![
            p.config().label(),
            p.tpus().to_string(),
            p.max_cameras().to_string(),
            if p.all_slo_met() { "yes" } else { "NO" }.to_owned(),
        ]);
        utilization.row_owned(vec![
            p.config().label(),
            p.tpus().to_string(),
            fmt_f64(p.avg_utilization(), 3),
        ]);
    }
    format!(
        "### {} — cameras supported (Fig. 5a/5c)\n{cameras}\n### {} — TPU utilization (Fig. 5b/5d)\n{utilization}",
        app.name(),
        app.name()
    )
}

/// Renders the admission-scalability table: planning cost of the indexed
/// pool versus the linear-scan reference across fleet sizes far beyond
/// the paper's six TPUs.
#[must_use]
pub fn render_admission_scalability(perf: &crate::admission_overhead::AdmissionPerf) -> String {
    let mut table = Table::new(&[
        "#TPUs",
        "linear ns/plan",
        "indexed ns/plan",
        "indexed plans/s",
        "speedup",
    ]);
    for p in &perf.points {
        table.row_owned(vec![
            p.tpus.to_string(),
            fmt_f64(p.linear_ns, 0),
            fmt_f64(p.indexed_ns, 0),
            fmt_f64(p.indexed_plans_per_sec(), 0),
            format!("{:.1}x", p.speedup()),
        ]);
    }
    format!(
        "### Admission scalability — indexed pool vs linear scan (best of {} rounds)\n{table}\n\
         workload: {}\n",
        perf.rounds,
        crate::admission_overhead::ADMISSION_WORKLOAD,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coral_pie_capacity_formulas() {
        let app = CameraApp::coral_pie();
        // Baseline: one camera per TPU.
        assert_eq!(max_cameras(&app, SystemConfig::Baseline, 3), 3);
        // Without partitioning: ⌊1 / 0.35⌋ = 2 per TPU.
        assert_eq!(max_cameras(&app, SystemConfig::microedge_no_wp(), 3), 6);
        // With partitioning: ⌊3 / 0.35⌋ = 8.
        assert_eq!(max_cameras(&app, SystemConfig::microedge_full(), 3), 8);
    }

    #[test]
    fn coral_pie_6_tpus_reaches_17_cameras_2_8x() {
        let app = CameraApp::coral_pie();
        let baseline = max_cameras(&app, SystemConfig::Baseline, 6);
        let microedge = max_cameras(&app, SystemConfig::microedge_full(), 6);
        assert_eq!(baseline, 6);
        assert_eq!(microedge, 17, "⌊6 / 0.35⌋ = 17 cameras");
        let ratio = f64::from(microedge) / f64::from(baseline);
        assert!((ratio - 2.83).abs() < 0.01, "the paper's 2.8×, got {ratio}");
    }

    #[test]
    fn bodypix_capacity_formulas() {
        let app = CameraApp::bodypix();
        // Baseline needs two dedicated TPUs per camera.
        assert_eq!(max_cameras(&app, SystemConfig::Baseline, 6), 3);
        // With partitioning: ⌊6 / 1.2⌋ = 5.
        assert_eq!(max_cameras(&app, SystemConfig::microedge_full(), 6), 5);
        // Without partitioning BodyPix cannot run at all (> 1 unit).
        assert_eq!(max_cameras(&app, SystemConfig::microedge_no_wp(), 6), 0);
    }

    #[test]
    fn full_point_meets_slo_and_utilization() {
        let app = CameraApp::coral_pie();
        let p = run_point(&app, SystemConfig::microedge_full(), 2, 150);
        assert_eq!(p.max_cameras(), 5, "⌊2 / 0.35⌋");
        assert!(p.all_slo_met(), "all cameras must hold 15 FPS");
        // 5 × 0.35 / 2 = 0.875 expected utilization.
        assert!(
            (p.avg_utilization() - 0.875).abs() < 0.03,
            "{}",
            p.avg_utilization()
        );
    }

    #[test]
    fn baseline_point_underutilizes() {
        let app = CameraApp::coral_pie();
        let p = run_point(&app, SystemConfig::Baseline, 2, 150);
        assert_eq!(p.max_cameras(), 2);
        assert!(p.all_slo_met());
        assert!(
            (p.avg_utilization() - 0.35).abs() < 0.02,
            "{}",
            p.avg_utilization()
        );
    }

    #[test]
    fn admission_scalability_render_has_every_size() {
        let perf = crate::admission_overhead::run_admission_perf_with(&[(16, 20), (64, 20)], 1);
        let text = render_admission_scalability(&perf);
        assert!(text.contains("Admission scalability"));
        assert!(text.contains("#TPUs"));
        assert!(text.contains("16"));
        assert!(text.contains("64"));
        assert!(text.contains("speedup"));
    }

    #[test]
    fn render_contains_all_rows() {
        let app = CameraApp::coral_pie();
        let points = fig5_sweep(
            &app,
            &[SystemConfig::Baseline, SystemConfig::microedge_full()],
            2,
            30,
        );
        assert_eq!(points.len(), 4);
        let text = render_sweep(&app, &points);
        assert!(text.contains("baseline"));
        assert!(text.contains("microedge w/ w.p."));
        assert!(text.contains("Fig. 5a"));
    }
}
