//! Failure recovery (the paper's §8 future-work extension).
//!
//! Run with: `cargo run --release --example failure_recovery`
//!
//! Six cameras share three TPUs; mid-run one tRPi node dies. The extended
//! scheduler re-admits displaced pods onto the survivors where capacity
//! allows, and streams that cannot be re-placed stop cleanly. Each camera's
//! pod phase and node, read back from the orchestrator, and its outcome in
//! the run results show what happened.

use microedge::cluster::node::NodeId;
use microedge::cluster::topology::ClusterBuilder;
use microedge::core::config::Features;
use microedge::core::runtime::{StreamSpec, World};
use microedge::sim::time::{SimDuration, SimTime};

fn main() {
    let cluster = ClusterBuilder::new().trpis(3).vrpis(8).build();
    let mut world = World::new(cluster, Features::all());

    let mut cams = Vec::new();
    for i in 0..6u64 {
        let spec = StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
            .start_offset(SimDuration::from_millis(i * 11))
            .build();
        cams.push(
            world
                .admit_stream(spec)
                .expect("six 0.70-unit cams fit the 6-TPU cluster"),
        );
    }
    println!(
        "6 cameras × 0.35 units on 3 TPUs (load {:.2}/3.00). Running...",
        6.0 * 0.35
    );
    world.run_until(SimTime::from_secs(10));

    println!("\n⚡ node-0 (a tRPi) fails at t=10 s");
    let stopped = world.fail_node(NodeId(0));
    println!(
        "   scheduler re-placed what fits on the 2 surviving TPUs; {} stream(s) stopped: {:?}",
        stopped.len(),
        stopped
    );

    world.run_until(SimTime::from_secs(20));
    let survivors = world.active_streams();

    println!("\nControl plane at t=20 s (pod phase and node per camera):");
    let orch = world.orchestrator();
    for cam in &cams {
        let pod = world.pod_of(*cam).expect("every admitted cam has a pod");
        let phase = orch.phase(pod).expect("the pod was created");
        let node = orch.node_of(pod).expect("the pod was bound");
        println!("  {cam}: {pod} {phase:?} on {node}");
    }

    let results = world.finish(SimTime::from_secs(20));
    println!(
        "\nAfter recovery: {survivors} streams active, {} frames dropped at the failure instant.",
        results.frames_dropped()
    );
    println!("\nPer-stream outcome over the full 20 s:");
    for cam in &cams {
        let r = results
            .report(*cam)
            .expect("every admitted cam has a report");
        let phase = results
            .stream_phase(*cam)
            .expect("every admitted cam has a phase");
        println!(
            "  {}: {:>4} frames completed, {:.2} FPS, ended {phase:?}",
            r.stream(),
            r.completed(),
            r.achieved_fps()
        );
    }
}
