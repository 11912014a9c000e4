//! Chaos / failure-recovery study (`repro --chaos`).
//!
//! Replays the *same* deterministic fault schedule against three recovery
//! disciplines — no healing (displaced streams are dropped), self-healing
//! reconciliation, and self-healing plus graceful degradation — across a
//! sweep of failure-rate multipliers. Every run shares one cluster shape
//! and workload, so the disciplines differ only in how the control plane
//! reacts: the study isolates the availability value of the reconciler and
//! of fairness-tier degradation.
//!
//! All numbers derive from simulated time only, so `BENCH_chaos.json` is
//! byte-identical across runs and `MICROEDGE_WORKERS` settings.

use microedge_core::faults::{ChaosConfig, ClassRates, FaultModel, FaultSchedule};
use microedge_core::runtime::{StreamSpec, World};
use microedge_metrics::recovery::RecoveryPhase;
use microedge_sim::time::{SimDuration, SimTime};

use crate::artifact::{self, fixed};
use crate::runner::{build_world, experiment_cluster, SystemConfig};

/// TPUs in the chaos cluster.
pub const CHAOS_TPUS: u32 = 6;
/// Camera streams admitted before faults start.
pub const CHAOS_STREAMS: u64 = 12;
/// Seed for the generated fault schedule.
pub const CHAOS_SEED: u64 = 42;

/// The three recovery disciplines compared.
pub const MODES: [&str; 3] = ["no-heal", "heal", "heal+degrade"];

/// Failure-rate multipliers applied to every component class's MTBF.
pub const RATES: [u32; 3] = [1, 2, 4];

/// One (discipline, failure-rate) cell of the study.
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    /// Recovery discipline label (one of [`MODES`]).
    pub mode: &'static str,
    /// Failure-rate multiplier (one of [`RATES`]).
    pub rate: u32,
    /// Streams that ended the run lost with no pending recovery.
    pub lost: usize,
    /// Streams still waiting in the pending-restart queue at end of run.
    pub parked: usize,
    /// Re-admissions the reconciler completed.
    pub restarts: u32,
    /// Completed recovery events (with latency breakdowns).
    pub recoveries: u64,
    /// Mean fault-to-serving time in milliseconds (0 when no recovery
    /// completed).
    pub mttr_ms: f64,
    /// Mean detection phase (heartbeat-lease expiry) in milliseconds.
    pub detection_ms: f64,
    /// Mean rescheduling phase (replanning RPCs) in milliseconds.
    pub rescheduling_ms: f64,
    /// Mean swap-in phase (parameter streaming) in milliseconds.
    pub swap_in_ms: f64,
    /// Mean per-stream availability over the horizon (serving at any
    /// rate counts as available).
    pub availability: f64,
    /// Summed downtime across all streams, in seconds.
    pub downtime_s: f64,
    /// Summed reduced-rate serving time across all streams, in seconds.
    pub degraded_s: f64,
    /// Frames dropped by dead components during the run.
    pub frames_dropped: u64,
    /// Simulation events processed (work fingerprint).
    pub events: u64,
}

/// The chaos configuration backing a discipline label.
///
/// # Panics
///
/// Panics on a label not in [`MODES`].
#[must_use]
pub fn config_for(mode: &str) -> ChaosConfig {
    match mode {
        "no-heal" => ChaosConfig::no_heal(),
        "heal" => ChaosConfig::heal_only(),
        "heal+degrade" => ChaosConfig::heal_degrade(),
        other => panic!("unknown chaos mode {other}"),
    }
}

/// The fault model at a failure-rate multiplier: MTBFs shrink by `rate`,
/// repair times stay physical.
#[must_use]
pub fn fault_model(rate: u32) -> FaultModel {
    let scale = f64::from(rate);
    FaultModel {
        tpu: Some(ClassRates::new(
            SimDuration::from_secs_f64(150.0 / scale),
            SimDuration::from_secs(45),
        )),
        node: Some(ClassRates::new(
            SimDuration::from_secs_f64(600.0 / scale),
            SimDuration::from_secs(60),
        )),
        link: Some(ClassRates::new(
            SimDuration::from_secs_f64(300.0 / scale),
            SimDuration::from_secs(8),
        )),
    }
}

fn build_chaos_world(mode: &'static str) -> World {
    let mut world = build_world(
        experiment_cluster(CHAOS_TPUS),
        SystemConfig::microedge_full(),
    );
    world.enable_chaos(config_for(mode));
    // Cycle the three trace-study models so recoveries sometimes land on a
    // TPU that must stream parameters in (a non-trivial swap-in phase).
    let apps = microedge_workloads::apps::CameraApp::trace_apps();
    for i in 0..CHAOS_STREAMS {
        let app = &apps[(i % apps.len() as u64) as usize];
        world
            .admit_stream(
                StreamSpec::builder(&format!("cam-{i:02}"), app.model().as_str())
                    .start_offset(SimDuration::from_millis(i * 7))
                    .build(),
            )
            .expect("chaos workload fits the healthy cluster");
    }
    world
}

/// Runs one cell of the study over `horizon` of simulated time.
#[must_use]
pub fn run_chaos_point(mode: &'static str, rate: u32, horizon: SimTime) -> ChaosPoint {
    let mut world = build_chaos_world(mode);
    let cluster = experiment_cluster(CHAOS_TPUS);
    let schedule = FaultSchedule::generate(&fault_model(rate), &cluster, horizon, CHAOS_SEED);
    world.inject_faults(&schedule);
    world.run_until(horizon);
    let results = world.finish(horizon);

    let window = SimDuration::from_nanos(horizon.as_nanos());
    let mut availability_sum = 0.0;
    let mut downtime_s = 0.0;
    let mut degraded_s = 0.0;
    let mut restarts = 0;
    for avail in results.availabilities().values() {
        availability_sum += avail.availability(window);
        downtime_s += avail.downtime.as_secs_f64();
        degraded_s += avail.degraded.as_secs_f64();
        restarts += avail.restarts;
    }
    let lineages = results.availabilities().len().max(1);
    let recovery = results.recovery();
    ChaosPoint {
        mode,
        rate,
        lost: results.lost_streams().len(),
        parked: results.parked_streams().len(),
        restarts,
        recoveries: recovery.count(),
        mttr_ms: recovery.mean_total_ms(),
        detection_ms: recovery.mean_ms(RecoveryPhase::Detection),
        rescheduling_ms: recovery.mean_ms(RecoveryPhase::Rescheduling),
        swap_in_ms: recovery.mean_ms(RecoveryPhase::SwapIn),
        availability: availability_sum / lineages as f64,
        downtime_s,
        degraded_s,
        frames_dropped: results.frames_dropped(),
        events: results.events_processed(),
    }
}

/// Runs the full study: every discipline at every failure rate, through
/// the deterministic parallel executor. Result order is fixed regardless
/// of worker count.
#[must_use]
pub fn run_chaos(horizon: SimTime) -> Vec<ChaosPoint> {
    let cells: Vec<(&'static str, u32)> = MODES
        .iter()
        .flat_map(|&mode| RATES.iter().map(move |&rate| (mode, rate)))
        .collect();
    microedge_sim::par::par_map(cells, |_, (mode, rate)| {
        run_chaos_point(mode, rate, horizon)
    })
}

/// The study horizon: 15 simulated minutes (3 under `--quick`).
#[must_use]
pub fn chaos_horizon(quick: bool) -> SimTime {
    if quick {
        SimTime::from_secs(180)
    } else {
        SimTime::from_secs(900)
    }
}

/// Renders the comparison table `repro --chaos` prints.
#[must_use]
pub fn render_chaos(points: &[ChaosPoint], horizon: SimTime) -> String {
    let mut table = microedge_metrics::report::Table::new(&[
        "discipline",
        "fault rate",
        "lost",
        "parked",
        "restarts",
        "recoveries",
        "MTTR (ms)",
        "detect (ms)",
        "resched (ms)",
        "swap (ms)",
        "availability",
        "downtime (s)",
        "degraded (s)",
    ]);
    for p in points {
        table.row_owned(vec![
            p.mode.to_owned(),
            format!("{}x", p.rate),
            p.lost.to_string(),
            p.parked.to_string(),
            p.restarts.to_string(),
            p.recoveries.to_string(),
            format!("{:.1}", p.mttr_ms),
            format!("{:.1}", p.detection_ms),
            format!("{:.1}", p.rescheduling_ms),
            format!("{:.1}", p.swap_in_ms),
            format!("{:.4}", p.availability),
            format!("{:.1}", p.downtime_s),
            format!("{:.1}", p.degraded_s),
        ]);
    }
    format!(
        "### Chaos / failure recovery — {} streams on {} TPUs, {:.0} min horizon, seed {}\n{table}",
        CHAOS_STREAMS,
        CHAOS_TPUS,
        horizon.as_secs_f64() / 60.0,
        CHAOS_SEED,
    )
}

/// Renders the `BENCH_chaos.json` document.
#[must_use]
pub fn to_json(points: &[ChaosPoint], horizon: SimTime) -> String {
    artifact::document(|d| {
        d.str("benchmark", "chaos_failure_recovery")
            .str(
                "workload",
                &format!(
                    "{CHAOS_STREAMS} mixed-model streams, {CHAOS_TPUS} TPUs, seed {CHAOS_SEED}"
                ),
            )
            .num("horizon_s", horizon.as_nanos() / 1_000_000_000)
            .rows("points", 4, points, |r, p| {
                r.str("mode", p.mode)
                    .num("rate", p.rate)
                    .num("lost", p.lost)
                    .num("parked", p.parked)
                    .num("restarts", p.restarts)
                    .num("recoveries", p.recoveries)
                    .num("mttr_ms", fixed(p.mttr_ms, 3))
                    .num("detection_ms", fixed(p.detection_ms, 3))
                    .num("rescheduling_ms", fixed(p.rescheduling_ms, 3))
                    .num("swap_in_ms", fixed(p.swap_in_ms, 3))
                    .num("availability", fixed(p.availability, 6))
                    .num("downtime_s", fixed(p.downtime_s, 3))
                    .num("degraded_s", fixed(p.degraded_s, 3))
                    .num("frames_dropped", p.frames_dropped)
                    .num("events", p.events);
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healing_strictly_beats_no_heal_on_the_same_schedule() {
        let horizon = chaos_horizon(true);
        let no_heal = run_chaos_point("no-heal", 4, horizon);
        let degrade = run_chaos_point("heal+degrade", 4, horizon);
        assert!(
            no_heal.lost > 0,
            "the 4x schedule must displace someone: {no_heal:?}"
        );
        assert!(
            degrade.lost < no_heal.lost,
            "healing loses strictly fewer streams: {} vs {}",
            degrade.lost,
            no_heal.lost
        );
        assert!(
            degrade.downtime_s < no_heal.downtime_s,
            "healing accrues strictly less downtime: {} vs {}",
            degrade.downtime_s,
            no_heal.downtime_s
        );
        assert!(degrade.availability > no_heal.availability);
    }

    #[test]
    fn recovery_latency_decomposes_into_three_phases() {
        let horizon = chaos_horizon(true);
        let p = run_chaos_point("heal", 2, horizon);
        assert!(p.recoveries > 0, "{p:?}");
        // Detection is dominated by the 4 s heartbeat lease.
        assert!(p.detection_ms >= 1_000.0, "{p:?}");
        assert!(p.rescheduling_ms > 0.0, "{p:?}");
        assert!(p.swap_in_ms > 0.0, "{p:?}");
        let sum = p.detection_ms + p.rescheduling_ms + p.swap_in_ms;
        assert!(
            (sum - p.mttr_ms).abs() < 1.0,
            "phases sum to MTTR: {sum} vs {}",
            p.mttr_ms
        );
    }

    #[test]
    fn json_names_the_study_and_every_mode() {
        let horizon = chaos_horizon(true);
        let a = to_json(&run_chaos(horizon), horizon);
        assert!(a.contains("\"benchmark\": \"chaos_failure_recovery\""));
        assert!(a.contains("\"mode\": \"no-heal\""));
        assert!(a.contains("\"mode\": \"heal+degrade\""));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn table_lists_every_cell() {
        let horizon = chaos_horizon(true);
        let points = run_chaos(horizon);
        assert_eq!(points.len(), MODES.len() * RATES.len());
        let text = render_chaos(&points, horizon);
        for mode in MODES {
            assert!(text.contains(mode));
        }
        assert!(text.contains("Chaos / failure recovery"));
    }
}
