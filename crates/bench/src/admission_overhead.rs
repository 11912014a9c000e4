//! One-time admission-control overhead (paper §6.4.1, Fig. 7a).
//!
//! Compares the end-to-end latency of launching a camera instance under:
//!
//! - **native K3s** — the base pod-launch distribution;
//! - **MicroEdge** — base launch plus the extended scheduler's work: the
//!   LBS configuration push and a model `Load` into TPU memory when the
//!   model is already compiled;
//! - **MicroEdge + co-compile** — the camera brings a *new* model, so the
//!   co-compiler runs — in a separate process, **in parallel** with the
//!   extended scheduler, exactly as the paper describes: the mean barely
//!   moves but the variance grows because the launch completes at
//!   `max(base path, compile path)`.
//!
//! The admission decision's own cost, the paper's scalability claim (O(M),
//! trivial at edge-cluster sizes), is host-timed by the sweep below, never
//! in Fig. 7a, so the paper artifacts read no host clock.
//!
//! ## The admission-throughput sweep (`repro --perf`)
//!
//! [`run_admission_perf`] measures the control-plane fast path head to
//! head against the linear-scan reference at fleet sizes from 16 to
//! 16 384 TPUs, on the workload that is *worst* for a linear scan: every
//! TPU except the last holds 0.75 units, so a whole-request 0.35 plan
//! must reject M − 1 candidates before the one that fits. The reference
//! policy walks all of them; the indexed policy answers with one
//! capacity-index descent. Only `plan_into` is timed (into a reused
//! [`PlanBuffer`], no commits), so the number is the pure planning cost.
//! The result renders as the "Admission scalability" table
//! ([`crate::scalability::render_admission_scalability`]) and serializes
//! as `BENCH_admission.json`.

#![expect(
    clippy::disallowed_methods,
    reason = "times the simulator itself; lands on host_ lines"
)]

use std::time::Instant;

use microedge_core::admission::{reference, AdmissionPolicy, FirstFit, PlanBuffer};
use microedge_core::config::Features;
use microedge_core::pool::{Allocation, TpuPool};
use microedge_core::units::TpuUnits;
use microedge_metrics::report::{fmt_f64, Table};
use microedge_models::catalog::{self, Catalog};
use microedge_models::profile::ModelProfile;
use microedge_orch::control_latency::ControlPlaneModel;
use microedge_sim::rng::DetRng;
use microedge_sim::stats::OnlineStats;
use microedge_sim::time::SimDuration;
use microedge_tpu::cocompile::CoCompiler;
use microedge_tpu::spec::TpuSpec;

use crate::artifact::{self, fixed};

/// Launch-latency statistics for one configuration.
#[derive(Debug, Clone)]
pub struct OverheadStats {
    label: &'static str,
    mean_ms: f64,
    std_ms: f64,
    overhead_pct: f64,
}

impl OverheadStats {
    /// Configuration label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Mean launch latency in milliseconds.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        self.mean_ms
    }

    /// Standard deviation in milliseconds.
    #[must_use]
    pub fn std_ms(&self) -> f64 {
        self.std_ms
    }

    /// Mean overhead relative to the native launch.
    #[must_use]
    pub fn overhead_pct(&self) -> f64 {
        self.overhead_pct
    }
}

/// The MicroEdge control-plane additions for one launch, derived from a
/// **real deployment** on a live scheduler: `rpcs` control-plane calls
/// (model `Load`s plus the LBS configuration push) at the modelled per-RPC
/// cost, plus the USB parameter transfer for each newly loaded model.
fn microedge_additions(
    cp: &ControlPlaneModel,
    spec: TpuSpec,
    rpcs: u32,
    loaded_bytes: u64,
) -> SimDuration {
    cp.rpc_cost() * u64::from(rpcs) + spec.swap_time(loaded_bytes)
}

/// Performs two real deployments on a fresh scheduler and returns their
/// measured control-RPC counts and newly-loaded parameter bytes:
/// `(repeat-model camera, new-model camera)`. The first camera deploys a
/// model that is already resident; the second brings a model that must be
/// loaded (triggering a co-compilation).
fn probe_control_plane() -> ((u32, u64), (u32, u64)) {
    use microedge_core::config::Features;
    use microedge_core::scheduler::ExtendedScheduler;
    use microedge_orch::lifecycle::Orchestrator;
    use microedge_orch::pod::{PodSpec, EXT_MODEL, EXT_TPU_UNITS};

    let cluster = crate::runner::experiment_cluster(6);
    let mut orch = Orchestrator::new(cluster.clone());
    let mut sched = ExtendedScheduler::new(&cluster, Catalog::builtin(), Features::all());
    let camera = |name: &str, model: &str, units: &str| {
        PodSpec::builder(name, "camera:latest")
            .extension(EXT_MODEL, model)
            .extension(EXT_TPU_UNITS, units)
            .build()
    };
    // Warm the pool with the common model.
    sched
        .deploy(&mut orch, camera("warm", "ssd-mobilenet-v2", "0.35"))
        .expect("warm deployment fits");
    let repeat = sched
        .deploy(&mut orch, camera("repeat", "ssd-mobilenet-v2", "0.35"))
        .expect("repeat deployment fits");
    let fresh = sched
        .deploy(&mut orch, camera("fresh", "mobilenet-v1", "0.215"))
        .expect("fresh deployment fits");
    let loaded_bytes = |d: &microedge_core::scheduler::Deployment| -> u64 {
        d.stages()
            .iter()
            .map(|s| {
                s.newly_loaded().len() as u64 * sched.catalog().expect(s.model()).param_bytes()
            })
            .sum()
    };
    (
        (repeat.control_rpcs(), loaded_bytes(&repeat)),
        (fresh.control_rpcs(), loaded_bytes(&fresh)),
    )
}

/// Samples the three Fig. 7a configurations `samples` times each. The
/// MicroEdge additions come from real deployments on a live scheduler;
/// only the base K3s launch and the co-compiler's process noise are
/// sampled.
#[must_use]
pub fn run_overhead(samples: u32, seed: u64) -> Vec<OverheadStats> {
    let cp = ControlPlaneModel::rpi_k3s();
    let spec = TpuSpec::coral_usb();
    let cocompiler = CoCompiler::new(spec);
    let mut rng = DetRng::seed_from(seed);

    let ((repeat_rpcs, repeat_bytes), (fresh_rpcs, fresh_bytes)) = probe_control_plane();
    // A camera whose model is resident still pays per-TPU Load RPCs when
    // partitioned; Fig. 7a's "MicroEdge" bar is the common repeat-model
    // launch plus one model load (the paper launches each camera with its
    // model available but not necessarily resident).
    let me_extra = microedge_additions(&cp, spec, repeat_rpcs + 1, repeat_bytes)
        + spec.swap_time(catalog::ssd_mobilenet_v2().param_bytes());
    let cc_extra = microedge_additions(&cp, spec, fresh_rpcs, fresh_bytes);

    // The co-compile plan a new model triggers (two resident models).
    let plan = cocompiler
        .plan(&[catalog::mobilenet_v1(), catalog::ssd_mobilenet_v2()])
        .expect("distinct models");
    let compile_nominal = cocompiler.compile_time(&plan);

    // Draw the random inputs serially, in the exact per-sample order a
    // serial fold would see them (base launch, then compile noise), so the
    // RNG stream — and hence every statistic — is identical to the
    // pre-parallel implementation. The three configurations then fold the
    // shared draws concurrently; Welford accumulation per configuration is
    // still in sample order, so the means and variances are bit-identical.
    let draws: Vec<(SimDuration, SimDuration)> = (0..samples)
        .map(|_| {
            let base = cp.sample_base_launch(&mut rng);
            let compile = rng.normal_duration(
                compile_nominal + SimDuration::from_millis(300),
                SimDuration::from_millis(500),
            );
            (base, compile)
        })
        .collect();

    enum Config {
        Native,
        MicroEdge,
        WithCompile,
    }
    let folded = microedge_sim::par::par_map(
        vec![Config::Native, Config::MicroEdge, Config::WithCompile],
        |_, config| {
            let mut stats = OnlineStats::new();
            for &(base, compile) in &draws {
                let launch = match config {
                    Config::Native => base,
                    Config::MicroEdge => base + me_extra,
                    // Co-compilation runs in a parallel process; the launch
                    // finishes at the later of the two paths. Compile time
                    // itself is noisy (it runs on the shared control-plane
                    // server).
                    Config::WithCompile => {
                        let cc = base + cc_extra;
                        if compile > cc {
                            compile
                        } else {
                            cc
                        }
                    }
                };
                stats.record_duration(launch);
            }
            stats
        },
    );

    let base_mean = folded[0].mean();
    let stats = |label, s: &OnlineStats| OverheadStats {
        label,
        mean_ms: s.mean(),
        std_ms: s.std_dev(),
        overhead_pct: (s.mean() / base_mean - 1.0) * 100.0,
    };
    vec![
        stats("native k3s", &folded[0]),
        stats("microedge", &folded[1]),
        stats("microedge + co-compile", &folded[2]),
    ]
}

/// TPU counts the admission-throughput sweep covers, with the
/// `plan_into` iteration count timed at each size. Iterations shrink as
/// the fleet grows because the *linear* side's cost grows with M; the
/// largest point still times hundreds of plans per round.
pub const ADMISSION_SWEEP: [(u32, u32); 4] =
    [(16, 20_000), (256, 5_000), (4096, 1_000), (16_384, 300)];

/// The sweep's workload, also embedded in `BENCH_admission.json`.
pub const ADMISSION_WORKLOAD: &str =
    "near-full fleet: every TPU except the last at 0.75 units, whole-request 0.35 plan";

/// One fleet size of the admission-throughput sweep.
#[derive(Debug, Clone)]
pub struct AdmissionSweepPoint {
    /// Fleet size.
    pub tpus: u32,
    /// Plans timed per round at this size.
    pub iterations: u32,
    /// Nanoseconds per plan for the linear-scan reference (pre).
    pub linear_ns: f64,
    /// Nanoseconds per plan for the indexed fast path (post).
    pub indexed_ns: f64,
}

impl AdmissionSweepPoint {
    /// Linear-scan admission decisions per second.
    #[must_use]
    pub fn linear_plans_per_sec(&self) -> f64 {
        1e9 / self.linear_ns
    }

    /// Indexed admission decisions per second.
    #[must_use]
    pub fn indexed_plans_per_sec(&self) -> f64 {
        1e9 / self.indexed_ns
    }

    /// Indexed-over-linear speedup at this size.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.linear_ns / self.indexed_ns
    }
}

/// The admission-throughput sweep result (`BENCH_admission.json`).
#[derive(Debug, Clone)]
pub struct AdmissionPerf {
    /// Rounds each point was timed (best round reported).
    pub rounds: u32,
    /// The linear-scan reference policy's name.
    pub pre_label: &'static str,
    /// The indexed policy's name.
    pub post_label: &'static str,
    /// Per-size measurements, ascending fleet size.
    pub points: Vec<AdmissionSweepPoint>,
}

impl AdmissionPerf {
    /// Indexed-over-linear speedup at a given fleet size, if measured.
    #[must_use]
    pub fn speedup_at(&self, tpus: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.tpus == tpus)
            .map(AdmissionSweepPoint::speedup)
    }

    /// Renders the `BENCH_admission.json` document: per-size pre
    /// (linear-scan reference) and post (indexed) planning throughput,
    /// every timing on a `host_` line.
    #[must_use]
    pub fn to_json(&self) -> String {
        artifact::document(|d| {
            d.str("benchmark", "admission_plan_throughput")
                .str("workload", ADMISSION_WORKLOAD)
                .num("rounds", self.rounds)
                .str("pre", self.pre_label)
                .str("post", self.post_label)
                .host(
                    "speedup_at_4096",
                    self.speedup_at(4096).map(|s| fixed(s, 2)),
                )
                .rows("points", 4, &self.points, |r, p| {
                    r.num("tpus", p.tpus)
                        .num("iterations", p.iterations)
                        .host("pre_ns_per_plan", fixed(p.linear_ns, 1))
                        .host("pre_plans_per_sec", fixed(p.linear_plans_per_sec(), 0))
                        .host("post_ns_per_plan", fixed(p.indexed_ns, 1))
                        .host("post_plans_per_sec", fixed(p.indexed_plans_per_sec(), 0))
                        .host("speedup", fixed(p.speedup(), 2));
                });
        })
    }
}

/// Builds the sweep's adversarial pool: all TPUs but the last at 0.75
/// load, so a 0.35 whole-request plan fits only on the final TPU.
fn near_full_pool(tpus: u32, profile: &ModelProfile) -> TpuPool {
    assert!(tpus >= 2, "the sweep needs at least two TPUs");
    let cluster = crate::runner::experiment_cluster(tpus);
    let mut pool = TpuPool::from_cluster(&cluster, TpuSpec::coral_usb());
    let load = TpuUnits::from_f64(0.75);
    let allocations: Vec<Allocation> = pool
        .accounts()
        .iter()
        .take(tpus as usize - 1)
        .map(|account| Allocation::new(account.id(), load))
        .collect();
    pool.commit(profile, &allocations);
    pool
}

/// Times `iterations` `plan_into` calls (into a reused buffer, no
/// commits) and returns the best-of-`rounds` nanoseconds per plan.
fn time_plan_ns(
    policy: &mut dyn AdmissionPolicy,
    pool: &TpuPool,
    profile: &ModelProfile,
    iterations: u32,
    rounds: u32,
) -> f64 {
    let units = TpuUnits::from_f64(0.35);
    let mut buffer = PlanBuffer::new();
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..iterations {
            let admitted = policy.plan_into(pool, profile, units, Features::all(), &mut buffer);
            std::hint::black_box(admitted);
            std::hint::black_box(buffer.allocations());
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / f64::from(iterations)
}

/// Runs the admission-throughput sweep over custom `(tpus, iterations)`
/// sizes. Each size first cross-checks that the indexed and reference
/// policies produce the identical plan on the sweep pool, then times
/// both.
#[must_use]
pub fn run_admission_perf_with(sizes: &[(u32, u32)], rounds: u32) -> AdmissionPerf {
    assert!(rounds > 0, "at least one round");
    let catalog = Catalog::builtin();
    let profile = catalog.expect(&"ssd-mobilenet-v2".into()).clone();
    let mut indexed = FirstFit::new();
    let mut linear = reference::FirstFit::new();
    let points = sizes
        .iter()
        .map(|&(tpus, iterations)| {
            let pool = near_full_pool(tpus, &profile);
            let units = TpuUnits::from_f64(0.35);
            assert_eq!(
                indexed.plan(&pool, &profile, units, Features::all()),
                linear.plan(&pool, &profile, units, Features::all()),
                "indexed and reference plans diverged at {tpus} TPUs"
            );
            AdmissionSweepPoint {
                tpus,
                iterations,
                linear_ns: time_plan_ns(&mut linear, &pool, &profile, iterations, rounds),
                indexed_ns: time_plan_ns(&mut indexed, &pool, &profile, iterations, rounds),
            }
        })
        .collect();
    AdmissionPerf {
        rounds,
        pre_label: linear.name(),
        post_label: indexed.name(),
        points,
    }
}

/// Runs the standard sweep ([`ADMISSION_SWEEP`]): 16 / 256 / 4096 /
/// 16 384 TPUs, best of 3 rounds.
#[must_use]
pub fn run_admission_perf() -> AdmissionPerf {
    run_admission_perf_with(&ADMISSION_SWEEP, 3)
}

/// Renders the Fig. 7a table from the rows [`run_overhead`] computed over
/// `samples` launches.
#[must_use]
pub fn render_fig7a(rows: &[OverheadStats], samples: u32) -> String {
    let mut table = Table::new(&["config", "mean launch (ms)", "std (ms)", "overhead"]);
    for r in rows {
        table.row_owned(vec![
            r.label().to_owned(),
            fmt_f64(r.mean_ms(), 1),
            fmt_f64(r.std_ms(), 1),
            format!("{:+.1}%", r.overhead_pct()),
        ]);
    }
    format!(
        "### Fig. 7a — admission-control overhead ({samples} launches)\n{table}\n\
         admission decision cost: `repro --perf`, Admission scalability (16–16 384 TPUs)\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microedge_overhead_is_about_ten_percent() {
        let rows = run_overhead(4000, 11);
        let native = &rows[0];
        let me = &rows[1];
        assert!((native.mean_ms() - 2000.0).abs() < 20.0);
        assert!(
            (8.0..15.0).contains(&me.overhead_pct()),
            "paper reports ≈ 10 %, got {:.1}%",
            me.overhead_pct()
        );
    }

    #[test]
    fn cocompile_grows_variance_not_mean() {
        let rows = run_overhead(4000, 13);
        let me = &rows[1];
        let cc = &rows[2];
        // Mean within ~2 % of plain MicroEdge (the paper: "the average
        // value does not increase because the co-compilation runs on a
        // different process in parallel")...
        assert!(
            (cc.mean_ms() - me.mean_ms()).abs() / me.mean_ms() < 0.025,
            "means {:.0} vs {:.0}",
            cc.mean_ms(),
            me.mean_ms()
        );
        // ...but visibly larger spread.
        assert!(
            cc.std_ms() > me.std_ms() * 1.10,
            "stds {:.0} vs {:.0}",
            cc.std_ms(),
            me.std_ms()
        );
    }

    #[test]
    fn sweep_measures_every_size() {
        let perf = run_admission_perf_with(&[(16, 50), (64, 50)], 1);
        assert_eq!(perf.points.len(), 2);
        assert_eq!(perf.points[0].tpus, 16);
        assert_eq!(perf.points[1].tpus, 64);
        for p in &perf.points {
            assert!(p.linear_ns > 0.0);
            assert!(p.indexed_ns > 0.0);
            assert!(p.indexed_plans_per_sec() > 0.0);
        }
        assert!(perf.speedup_at(64).is_some());
        assert!(perf.speedup_at(4096).is_none());
    }

    #[test]
    fn indexed_path_wins_clearly_on_a_large_pool() {
        // Debug-build timing, so the bar is far below the release-build
        // criterion gate (≥ 10x at 4096) — but even unoptimized, one
        // index descent against a 4095-account scan is no contest.
        let perf = run_admission_perf_with(&[(4096, 40)], 1);
        let speedup = perf.speedup_at(4096).unwrap();
        assert!(speedup > 2.0, "expected a clear win, got {speedup:.1}x");
    }

    #[test]
    fn admission_json_has_pre_and_post_throughput() {
        let perf = run_admission_perf_with(&[(16, 20), (4096, 20)], 1);
        let json = perf.to_json();
        assert!(json.contains("\"benchmark\": \"admission_plan_throughput\""));
        assert!(json.contains("\"pre\": \"first-fit/linear\""));
        assert!(json.contains("\"post\": \"first-fit\""));
        assert!(json.contains("\"host_pre_plans_per_sec\""));
        assert!(json.contains("\"host_post_plans_per_sec\""));
        assert!(json.contains("\"host_speedup_at_4096\""));
        assert!(!json.contains("\"host_speedup_at_4096\": null"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn render_has_three_rows() {
        let text = render_fig7a(&run_overhead(500, 3), 500);
        assert!(text.contains("native k3s"));
        assert!(text.contains("microedge + co-compile"));
        assert!(
            text.contains("Admission scalability"),
            "points to the measured sweep"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_overhead(100, 5);
        let b = run_overhead(100, 5);
        assert_eq!(a[1].mean_ms(), b[1].mean_ms());
    }
}
