//! Multi-model pipelines per pod (the paper's §8 extension).
//!
//! Run with: `cargo run --example multi_model_pipeline`
//!
//! A smart-city camera segments each frame with UNet V2 and then classifies
//! the segmented region with MobileNet V1 — two inferences per frame,
//! admitted as one pod with two `(model, units)` stages. Because both
//! models co-fit one TPU's parameter memory, the extended scheduler packs
//! the stages onto the same TPU and the inter-stage hop is free (the §8
//! "data plane optimization for pipelines").

use microedge::cluster::topology::ClusterBuilder;
use microedge::core::config::Features;
use microedge::core::runtime::{StreamSpec, World};
use microedge::metrics::latency::Phase;
use microedge::sim::time::SimTime;

fn main() {
    let cluster = ClusterBuilder::new().trpis(2).vrpis(4).build();
    let mut world = World::new(cluster, Features::all());

    let spec = StreamSpec::builder("smart-cam", "unet-v2")
        .then("mobilenet-v1")
        .frame_limit(600)
        .build();
    println!(
        "Admitting a two-stage pipeline: {:?} @ 15 FPS",
        spec.stage_models()
    );
    let cam = world.admit_stream(spec).expect("0.675 + 0.215 units fit");

    let pod = world
        .pod_of(cam)
        .expect("an admitted stream is backed by a pod");
    println!("\nPer-stage TPU grants:");
    let stage_assignment = world
        .scheduler()
        .stage_assignment(pod)
        .expect("a deployed pipeline pod has per-stage grants");
    for stage in stage_assignment {
        for alloc in stage.allocations() {
            let model = stage.model();
            println!("  {model:>12} → {} ({})", alloc.tpu(), alloc.units());
        }
    }

    let results = world.run_to_completion(SimTime::from_secs(120));
    let report = results
        .report(cam)
        .expect("the admitted stream has a report");
    println!(
        "\n{} frames, {:.2} FPS achieved, SLO {}",
        report.completed(),
        report.achieved_fps(),
        if report.met_fps() { "met" } else { "VIOLATED" }
    );

    let b = results.breakdowns();
    println!("\nPer-frame latency breakdown (both stages combined):");
    for (phase, ms) in b.mean_breakdown_ms() {
        println!("  {phase:>15}: {ms:6.2} ms");
    }
    println!("  {:>15}: {:6.2} ms", "total", b.mean_total_ms());
    println!(
        "\nTransmission covers a single network hop ({:.1} ms): the segment→classify\n\
         hop stayed on one TPU, so it cost nothing — the §8 pipeline optimization.",
        b.mean_ms(Phase::Transmission)
    );
    println!(
        "\nTPU utilization: {:?}",
        results
            .per_device_utilization()
            .iter()
            .map(|u| format!("{:.1}%", u * 100.0))
            .collect::<Vec<_>>()
    );
}
