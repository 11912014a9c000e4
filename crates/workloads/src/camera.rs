//! Camera fleets: turning an application template into stream specs.
//!
//! The scalability study (paper §6.2) runs N identical camera instances of
//! one application. Real cameras are not phase-aligned, so the fleet
//! staggers stream start offsets evenly across one frame interval.

use microedge_core::runtime::StreamSpec;
use microedge_sim::time::SimDuration;

use crate::apps::{CameraApp, DiffDetector};

/// Builds `count` stream specs for `app`, each processing `frames` frames,
/// with start offsets staggered evenly across one frame interval.
///
/// # Panics
///
/// Panics if `count` is zero.
///
/// # Examples
///
/// ```
/// use microedge_workloads::apps::CameraApp;
/// use microedge_workloads::camera::camera_fleet;
///
/// let fleet = camera_fleet(&CameraApp::coral_pie(), 3, 1000, false);
/// assert_eq!(fleet.len(), 3);
/// assert_eq!(fleet[0].name(), "coral-pie-0");
/// ```
#[must_use]
pub fn camera_fleet(
    app: &CameraApp,
    count: usize,
    frames: u64,
    collocated: bool,
) -> Vec<StreamSpec> {
    assert!(count > 0, "a fleet needs at least one camera");
    let interval = app.frame_interval();
    (0..count)
        .map(|i| {
            let offset = interval.mul_f64(i as f64 / count as f64);
            camera_instance(
                app,
                &format!("{}-{i}", app.name()),
                frames,
                offset,
                collocated,
            )
        })
        .collect()
}

/// Builds a single stream spec for one camera instance of `app`.
#[must_use]
pub fn camera_instance(
    app: &CameraApp,
    name: &str,
    frames: u64,
    start_offset: SimDuration,
    collocated: bool,
) -> StreamSpec {
    StreamSpec::builder(name, app.model().as_str())
        .fps(app.fps())
        .units(app.units())
        .frame_limit(frames)
        .start_offset(start_offset)
        .collocated(collocated)
        .build()
}

/// Builds an open-ended stream (no frame limit) for trace replay.
#[must_use]
pub fn open_stream(app: &CameraApp, name: &str, start_offset: SimDuration) -> StreamSpec {
    StreamSpec::builder(name, app.model().as_str())
        .fps(app.fps())
        .units(app.units())
        .start_offset(start_offset)
        .build()
}

/// Builds a camera instance running behind a NoScope-style difference
/// detector (paper §1): the declared TPU units shrink to the detector's
/// effective demand and the data plane drops the filtered frames
/// client-side.
#[must_use]
pub fn filtered_instance(
    app: &CameraApp,
    detector: DiffDetector,
    name: &str,
    frames: u64,
    seed: u64,
) -> StreamSpec {
    StreamSpec::builder(name, app.model().as_str())
        .fps(app.fps())
        .units(detector.effective_units(app.units()))
        .frame_filter(detector.pass_rate(), seed)
        .frame_limit(frames)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_has_staggered_offsets() {
        let fleet = camera_fleet(&CameraApp::coral_pie(), 4, 100, false);
        assert_eq!(fleet.len(), 4);
        let names: Vec<&str> = fleet.iter().map(StreamSpec::name).collect();
        assert_eq!(
            names,
            vec!["coral-pie-0", "coral-pie-1", "coral-pie-2", "coral-pie-3"]
        );
    }

    #[test]
    fn instance_carries_app_parameters() {
        let app = CameraApp::bodypix();
        let spec = camera_instance(&app, "seg-0", 50, SimDuration::ZERO, true);
        assert_eq!(spec.model().unwrap().as_str(), "bodypix-mobilenet-v1");
        assert_eq!(spec.fps(), 15.0);
    }

    #[test]
    fn open_stream_has_no_frame_limit() {
        // Admit into a world and verify it keeps emitting past any frame
        // count a limit would allow.
        use microedge_cluster::topology::ClusterBuilder;
        use microedge_core::config::Features;
        use microedge_core::runtime::World;
        use microedge_sim::time::SimTime;

        let cluster = ClusterBuilder::new().trpis(1).vrpis(2).build();
        let mut world = World::new(cluster, Features::all());
        let spec = open_stream(&CameraApp::coral_pie(), "cam", SimDuration::ZERO);
        let id = world.admit_stream(spec).unwrap();
        world.run_until(SimTime::from_secs(10));
        let results = world.finish(SimTime::from_secs(10));
        assert!(results.report(id).unwrap().emitted() > 140);
    }

    #[test]
    #[should_panic(expected = "at least one camera")]
    fn empty_fleet_rejected() {
        let _ = camera_fleet(&CameraApp::coral_pie(), 0, 1, false);
    }

    #[test]
    fn filtered_instance_declares_reduced_units() {
        // Paper §1: with the NoScope difference detector each Coral-Pie
        // camera declares only 0.35 × 2/3 ≈ 0.233 units, so *four* cameras
        // fit one TPU where only two unfiltered ones would.
        use microedge_cluster::topology::ClusterBuilder;
        use microedge_core::config::Features;
        use microedge_core::runtime::World;
        use microedge_core::units::TpuUnits;
        use microedge_sim::time::SimTime;

        let app = CameraApp::coral_pie();
        let dd = DiffDetector::coral_pie_calibrated();
        let cluster = ClusterBuilder::new().trpis(1).vrpis(4).build();
        let mut world = World::new(cluster, Features::all());
        for i in 0..4 {
            let spec = filtered_instance(&app, dd, &format!("f-{i}"), 300, i);
            world.admit_stream(spec).unwrap();
        }
        assert!(
            world.scheduler().pool().total_free_units() < TpuUnits::from_f64(0.1),
            "four filtered cameras nearly fill the TPU"
        );
        let results = world.run_to_completion(SimTime::from_secs(60));
        assert!(results.all_met_fps());
        // Realised utilization ≈ 4 × 0.233, with sampling noise from the
        // stochastic filter.
        assert!(
            (results.average_utilization() - 0.933).abs() < 0.05,
            "got {}",
            results.average_utilization()
        );
    }
}
