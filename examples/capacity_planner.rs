//! Capacity planning with admission control (Table 1 generalised).
//!
//! Run with: `cargo run --release --example capacity_planner`
//!
//! "How much hardware do I need for this camera mix?" — the question the
//! paper's Table 1 answers for 17 Coral-Pie cameras. This example answers
//! it for an arbitrary application mix by probing the real admission
//! control: it sweeps TPU counts until the whole mix deploys, under full
//! MicroEdge and under the dedicated baseline, and prices both.

use microedge::baselines::dedicated::DedicatedBaseline;
use microedge::cluster::cost::CostModel;
use microedge::cluster::topology::ClusterBuilder;
use microedge::core::config::Features;
use microedge::core::scheduler::ExtendedScheduler;
use microedge::models::catalog::Catalog;
use microedge::orch::lifecycle::Orchestrator;
use microedge::orch::pod::{PodSpec, EXT_MODEL, EXT_TPU_UNITS};
use microedge::workloads::apps::CameraApp;

/// Tries to deploy the whole mix on a cluster with `tpus` TPUs.
fn mix_fits(mix: &[(CameraApp, u32)], tpus: u32, dedicated: bool) -> bool {
    let cluster = ClusterBuilder::new().trpis(tpus).vrpis(128).build();
    let mut orch = Orchestrator::new(cluster.clone());
    let mut sched = if dedicated {
        ExtendedScheduler::with_policy(
            &cluster,
            Catalog::builtin(),
            Features::none(),
            Box::new(DedicatedBaseline::new()),
        )
    } else {
        ExtendedScheduler::new(&cluster, Catalog::builtin(), Features::all())
    };
    for (app, count) in mix {
        for i in 0..*count {
            let spec = PodSpec::builder(format!("{}-{i}", app.name()), "camera:latest")
                .extension(EXT_MODEL, app.model().as_str())
                .extension(EXT_TPU_UNITS, &format!("{}", app.units().as_f64()))
                .build();
            if sched.deploy(&mut orch, spec).is_err() {
                return false;
            }
        }
    }
    true
}

fn tpus_needed(mix: &[(CameraApp, u32)], dedicated: bool) -> u32 {
    (1..=256)
        .find(|&tpus| mix_fits(mix, tpus, dedicated))
        .expect("some TPU count fits the mix")
}

fn main() {
    let mix = [
        (CameraApp::coral_pie(), 8u32),
        (CameraApp::bodypix(), 2),
        (CameraApp::trace_sparse(), 6),
        (CameraApp::trace_bursty(), 4),
    ];
    let cameras: u32 = mix.iter().map(|(_, n)| n).sum();
    let total_units: f64 = mix
        .iter()
        .map(|(app, n)| app.units().as_f64() * f64::from(*n))
        .sum();

    println!(
        "Planning capacity for a {cameras}-camera mix ({total_units:.2} TPU units of demand):"
    );
    for (app, n) in &mix {
        println!(
            "  {n:>2} × {:<14} {} @ {} units",
            app.name(),
            app.model(),
            app.units()
        );
    }

    let microedge_tpus = tpus_needed(&mix, false);
    let baseline_tpus = tpus_needed(&mix, true);
    let prices = CostModel::paper_prices();
    let microedge_cost = prices.total_usd(cameras, microedge_tpus);
    let baseline_cost = prices.total_usd(cameras, baseline_tpus);

    println!("\n                     TPUs   hardware cost");
    println!("  dedicated baseline  {baseline_tpus:>3}   ${baseline_cost}");
    println!("  microedge           {microedge_tpus:>3}   ${microedge_cost}");
    let lower_bound = total_units.ceil() as u32;
    println!(
        "\nMicroEdge saves {:.0}%: {:.2} units of demand pack into {} TPUs\n(bin-packing lower bound ⌈{:.2}⌉ = {}; the Model Size Rule costs {} extra),\nversus {} dedicated TPUs for the baseline.",
        prices.saving(baseline_cost, microedge_cost) * 100.0,
        total_units,
        microedge_tpus,
        total_units,
        lower_bound,
        microedge_tpus - lower_bound,
        baseline_tpus,
    );

    assert!(microedge_tpus <= baseline_tpus);
}
