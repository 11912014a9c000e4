//! Per-camera control-plane allocation budget.
//!
//! Every admitted camera leaves a stream record, a scheduler assignment and
//! an orchestrator pod record live for the whole run. This test counts what
//! stays on the heap: it admits 10k scale-tier cameras into one `World` and
//! bounds the growth of live allocations at 4 per camera and of live
//! requested bytes at 800 per camera (the measured 726 plus 10 %). The
//! stream specs are built before the first reading, so the budget covers
//! what admission adds, not the caller's inputs. Allocation counts and
//! requested bytes do not depend on the host or the build profile's timing,
//! so the gate runs in every `cargo test`.
//!
//! The counting allocator is process-wide, so this must stay the only test
//! in its binary: another test thread would share the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use microedge::bench::scale::{size_cluster, SCALE_FPS, SCALE_FRAME_LIMIT};
use microedge::cluster::topology::ClusterBuilder;
use microedge::core::config::Features;
use microedge::core::runtime::{StreamSpec, World};
use microedge::sim::time::SimDuration;

const CAMERAS: u64 = 10_000;
/// Live heap allocations each admitted camera may add.
const BUDGET_PER_CAMERA: i64 = 4;
/// Live requested bytes each admitted camera may add.
const BYTES_PER_CAMERA: i64 = 800;

/// Live allocations, live requested bytes, and allocator calls (allocations
/// and reallocations, live or not).
static LIVE: AtomicI64 = AtomicI64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static CALLS: AtomicI64 = AtomicI64::new(0);

/// Delegates to the system allocator and keeps live counts.
struct Counting;

fn size_of(layout: Layout) -> i64 {
    i64::try_from(layout.size()).unwrap_or(i64::MAX)
}

#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; every call forwards \
              to `System` with the caller's own pointer and layout"
)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(size_of(layout), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(size_of(layout), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(size_of(layout), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let grown = i64::try_from(new_size).unwrap_or(i64::MAX) - size_of(layout);
        LIVE_BYTES.fetch_add(grown, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn admitting_cameras_stays_within_the_allocation_budget() {
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

    let (live, bytes, calls) = (
        LIVE.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
        CALLS.load(Ordering::Relaxed),
    );
    for spec in specs {
        world
            .admit_stream(spec)
            .expect("the cluster is sized for every camera");
    }
    let cameras = i64::try_from(CAMERAS).expect("camera count fits i64");
    let grown = LIVE.load(Ordering::Relaxed) - live;
    let grown_bytes = LIVE_BYTES.load(Ordering::Relaxed) - bytes;
    let calls = CALLS.load(Ordering::Relaxed) - calls;
    eprintln!(
        "live heap growth over {CAMERAS} admissions: {grown} allocations \
         ({:.2} per camera), {grown_bytes} B ({} B per camera); \
         {calls} allocator calls ({:.2} per camera)",
        grown as f64 / cameras as f64,
        grown_bytes / cameras,
        calls as f64 / cameras as f64,
    );
    assert!(
        grown <= BUDGET_PER_CAMERA * cameras,
        "admitting {CAMERAS} cameras left {grown} more live allocations \
         (budget {BUDGET_PER_CAMERA} per camera)"
    );
    assert!(
        grown_bytes <= BYTES_PER_CAMERA * cameras,
        "admitting {CAMERAS} cameras left {grown_bytes} more live bytes \
         (budget {BYTES_PER_CAMERA} per camera)"
    );
    drop(world);
}
