//! Per-invoke latency breakdown (paper §6.4.2, Fig. 7b) and the serverless
//! design ablation (§2).
//!
//! The Fig. 7b numbers come from the *measured* data plane — a real
//! simulation run of the Coral-Pie pipeline under each design — not from
//! the analytic path model (which exists in `microedge-baselines` and is
//! used here as a cross-check).

use microedge_baselines::serverless::{
    baremetal_invoke_breakdown, microedge_invoke_breakdown, ServerlessPath,
};
use microedge_cluster::network::NetworkModel;
use microedge_core::config::DataPlaneConfig;
use microedge_core::runtime::StreamSpec;
use microedge_metrics::latency::Phase;
use microedge_metrics::report::{fmt_f64, Table};
use microedge_models::catalog::{fig1_models, Catalog};
use microedge_sim::time::SimTime;
use microedge_workloads::apps::CameraApp;

use crate::runner::{build_world, experiment_cluster, SystemConfig};

/// Mean per-phase latency for one design.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    label: String,
    phases_ms: [f64; 4],
    total_ms: f64,
}

impl BreakdownRow {
    /// Design label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Mean cost per phase in milliseconds, in pipeline order.
    #[must_use]
    pub fn phases_ms(&self) -> [f64; 4] {
        self.phases_ms
    }

    /// Mean end-to-end cost in milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.total_ms
    }
}

/// Measures the Coral-Pie invoke breakdown under one configuration by
/// actually running the data plane with a single camera.
#[must_use]
pub fn measure_breakdown(config: SystemConfig, frames: u64) -> BreakdownRow {
    let app = CameraApp::coral_pie();
    let mut world = build_world(experiment_cluster(1), config);
    let spec = StreamSpec::builder("probe", app.model().as_str())
        .fps(app.fps())
        .units(app.units())
        .frame_limit(frames)
        .collocated(config.collocated())
        .build();
    world.admit_stream(spec).expect("one camera always fits");
    let results = world.run_to_completion(SimTime::from_secs(600));
    let b = results.breakdowns();
    BreakdownRow {
        label: config.label(),
        phases_ms: [
            b.mean_ms(Phase::PreProcess),
            b.mean_ms(Phase::Transmission),
            b.mean_ms(Phase::Inference),
            b.mean_ms(Phase::PostProcess),
        ],
        total_ms: b.mean_total_ms(),
    }
}

/// The analytic serverless row for the same pipeline (the §2 / §6.4.2
/// design-justification ablation).
#[must_use]
pub fn serverless_row() -> BreakdownRow {
    let catalog = Catalog::builtin();
    let profile = catalog.expect(&"ssd-mobilenet-v2".into());
    let net = NetworkModel::rpi_gigabit();
    let dp = DataPlaneConfig::calibrated();
    let b = ServerlessPath::rpi_calibrated().invoke_breakdown(profile, &net, &dp);
    BreakdownRow {
        label: "serverless (shared queue)".to_owned(),
        phases_ms: [
            b.phase(Phase::PreProcess).as_millis_f64(),
            b.phase(Phase::Transmission).as_millis_f64(),
            b.phase(Phase::Inference).as_millis_f64(),
            b.phase(Phase::PostProcess).as_millis_f64(),
        ],
        total_ms: b.total().as_millis_f64(),
    }
}

/// Renders Fig. 7b (baseline vs MicroEdge) plus the serverless ablation
/// row.
#[must_use]
pub fn render_fig7b(frames: u64) -> String {
    let rows = vec![
        measure_breakdown(SystemConfig::Baseline, frames),
        measure_breakdown(SystemConfig::microedge_full(), frames),
        serverless_row(),
    ];
    let mut table = Table::new(&[
        "design",
        "pre-proc (ms)",
        "transmission (ms)",
        "inference (ms)",
        "post-proc (ms)",
        "total (ms)",
    ]);
    for r in &rows {
        let p = r.phases_ms();
        table.row_owned(vec![
            r.label().to_owned(),
            fmt_f64(p[0], 2),
            fmt_f64(p[1], 2),
            fmt_f64(p[2], 2),
            fmt_f64(p[3], 2),
            fmt_f64(r.total_ms(), 2),
        ]);
    }
    format!("### Fig. 7b — Invoke latency breakdown (Coral-Pie)\n{table}")
}

/// Renders the serverless ablation (ABL1) across the model catalog: each
/// model's analytic per-invoke latency on bare metal, on MicroEdge's
/// direct path, and through the serverless shared queue.
#[must_use]
pub fn render_serverless_ablation() -> String {
    let net = NetworkModel::rpi_gigabit();
    let dp = DataPlaneConfig::calibrated();
    let path = ServerlessPath::rpi_calibrated();
    let mut table = Table::new(&[
        "model",
        "bare-metal (ms)",
        "microedge (ms)",
        "serverless (ms)",
        "serverless penalty (ms)",
    ]);
    for m in fig1_models() {
        let bare = baremetal_invoke_breakdown(&m, &dp).total().as_millis_f64();
        let direct = microedge_invoke_breakdown(&m, &net, &dp)
            .total()
            .as_millis_f64();
        let shared = path.invoke_breakdown(&m, &net, &dp).total().as_millis_f64();
        table.row_owned(vec![
            m.id().to_string(),
            fmt_f64(bare, 2),
            fmt_f64(direct, 2),
            fmt_f64(shared, 2),
            fmt_f64(shared - direct, 2),
        ]);
    }
    format!("### Ablation — per-invoke latency by design\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_dominates_microedge_overhead() {
        let baseline = measure_breakdown(SystemConfig::Baseline, 100);
        let microedge = measure_breakdown(SystemConfig::microedge_full(), 100);
        let delta = microedge.total_ms() - baseline.total_ms();
        let trans_delta = microedge.phases_ms()[1] - baseline.phases_ms()[1];
        assert!((delta - 8.0).abs() < 0.3, "≈ 8 ms extra, got {delta}");
        assert!(
            (trans_delta - delta).abs() < 0.05,
            "the whole delta is transmission"
        );
        // Inference and the host-side phases are identical.
        assert!((microedge.phases_ms()[2] - baseline.phases_ms()[2]).abs() < 0.05);
    }

    #[test]
    fn microedge_total_leaves_slo_headroom() {
        let microedge = measure_breakdown(SystemConfig::microedge_full(), 100);
        // Well inside the 66.7 ms frame budget at 15 FPS.
        assert!(microedge.total_ms() < 45.0, "{}", microedge.total_ms());
    }

    #[test]
    fn serverless_is_strictly_worse() {
        let microedge = measure_breakdown(SystemConfig::microedge_full(), 100);
        let serverless = serverless_row();
        assert!(serverless.total_ms() > microedge.total_ms() + 9.0);
    }

    #[test]
    fn render_contains_all_designs() {
        let text = render_fig7b(50);
        assert!(text.contains("baseline"));
        assert!(text.contains("microedge w/ w.p."));
        assert!(text.contains("serverless"));
    }

    #[test]
    fn serverless_ablation_lists_the_catalog() {
        let text = render_serverless_ablation();
        for m in fig1_models() {
            assert!(text.contains(&m.id().to_string()));
        }
    }
}
