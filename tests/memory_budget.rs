//! Per-camera control-plane memory budget.
//!
//! Every admitted camera leaves a stream record, a scheduler deployment and
//! an orchestrator pod record resident for the whole run, so this state is
//! what limits how many cameras one process can replay. The test admits the
//! 100k-camera scale tier into one `World` and bounds the resident-set
//! growth over the admissions at 46 MiB, about 0.5 KiB per camera (the
//! measured 42 MiB plus 10 % headroom). The stream specs are built before
//! the first reading, so the budget covers what admission adds, not the
//! caller's inputs. `tests/alloc_budget.rs` gates the allocation count the
//! same way.
//!
//! It reads `VmRSS` of the whole process, so it must stay the only test in
//! this binary: another test thread would share the measurement. CI runs it
//! in an optimised build:
//!
//! ```bash
//! cargo test --release --test memory_budget -- --ignored
//! ```

use microedge::bench::scale::{size_cluster, SCALE_FPS, SCALE_FRAME_LIMIT};
use microedge::cluster::topology::ClusterBuilder;
use microedge::core::config::Features;
use microedge::core::runtime::{StreamSpec, World};
use microedge::sim::time::SimDuration;

const CAMERAS: u64 = 100_000;
const BUDGET_MIB: u64 = 46;

/// Resident set of this process in bytes, from `/proc/self/status`.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmRSS field");
    kib * 1024
}

#[test]
#[ignore = "admits 100k cameras; CI runs it with --release -- --ignored"]
fn admitting_100k_cameras_stays_within_the_memory_budget() {
    let (tpus, vrpis) = size_cluster(CAMERAS);
    let cluster = ClusterBuilder::new().trpis(tpus).vrpis(vrpis).build();
    let mut world = World::new(cluster, Features::all());
    let specs: Vec<StreamSpec> = (0..CAMERAS)
        .map(|i| {
            StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
                .fps(SCALE_FPS)
                .frame_limit(SCALE_FRAME_LIMIT)
                .start_offset(SimDuration::from_millis((i * 997) % 1000))
                .build()
        })
        .collect();

    let before = rss_bytes();
    for spec in specs {
        world
            .admit_stream(spec)
            .expect("the cluster is sized for every camera");
    }
    let growth_mib = rss_bytes().saturating_sub(before) / (1024 * 1024);
    eprintln!("resident-set growth over {CAMERAS} admissions: {growth_mib} MiB");

    assert!(
        growth_mib <= BUDGET_MIB,
        "admitting {CAMERAS} cameras grew the resident set by {growth_mib} MiB \
         (budget {BUDGET_MIB} MiB)"
    );
}
