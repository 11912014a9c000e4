//! The evaluation applications (paper §6.1).
//!
//! - **Coral-Pie** — space-time vehicle tracking; its detection pipeline
//!   runs SSD MobileNet V2 at 15 FPS and needs 0.35 TPU units;
//! - **BodyPix** — real-time person segmentation; BodyPix MobileNet V1 at
//!   15 FPS needs 1.2 TPU units, so a dedicated deployment requires two
//!   TPUs per camera;
//! - the three **trace-study** applications (§6.3): a 24×7 detection
//!   stream, a sparse classification stream, and a bursty segmentation
//!   stream.

use serde::{Deserialize, Serialize};

use microedge_core::units::TpuUnits;
use microedge_models::profile::ModelId;

/// The industry-recommended camera frame rate the paper uses everywhere.
pub const STANDARD_FPS: f64 = 15.0;

/// A camera application template: which model it runs, at what rate, and
/// the TPU units its Yaml file declares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CameraApp {
    name: String,
    model: ModelId,
    fps: f64,
    units: TpuUnits,
}

impl CameraApp {
    /// Creates an application template.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not strictly positive or `units` is zero.
    #[must_use]
    pub fn new(name: &str, model: &str, fps: f64, units: TpuUnits) -> Self {
        assert!(fps.is_finite() && fps > 0.0, "fps must be positive");
        assert!(!units.is_zero(), "a camera app needs TPU units");
        CameraApp {
            name: name.to_owned(),
            model: ModelId::new(model),
            fps,
            units,
        }
    }

    /// Coral-Pie's vehicle-detection pipeline: SSD MobileNet V2, 15 FPS,
    /// 0.35 TPU units.
    #[must_use]
    pub fn coral_pie() -> Self {
        CameraApp::new(
            "coral-pie",
            "ssd-mobilenet-v2",
            STANDARD_FPS,
            TpuUnits::from_f64(0.35),
        )
    }

    /// BodyPix person segmentation: BodyPix MobileNet V1, 15 FPS, 1.2 TPU
    /// units (needs workload partitioning or two dedicated TPUs).
    #[must_use]
    pub fn bodypix() -> Self {
        CameraApp::new(
            "bodypix",
            "bodypix-mobilenet-v1",
            STANDARD_FPS,
            TpuUnits::from_f64(1.2),
        )
    }

    /// The 24×7 trace-study application: continuous vehicle detection.
    #[must_use]
    pub fn trace_steady() -> Self {
        CameraApp::coral_pie()
    }

    /// The sparse trace-study application: MobileNet V1 classification,
    /// 0.215 TPU units.
    #[must_use]
    pub fn trace_sparse() -> Self {
        CameraApp::new(
            "mobilenet-cls",
            "mobilenet-v1",
            STANDARD_FPS,
            TpuUnits::from_f64(0.215),
        )
    }

    /// The bursty trace-study application: UNet V2 segmentation, 0.675 TPU
    /// units.
    #[must_use]
    pub fn trace_bursty() -> Self {
        CameraApp::new(
            "unet-seg",
            "unet-v2",
            STANDARD_FPS,
            TpuUnits::from_f64(0.675),
        )
    }

    /// The three trace-study applications in `[steady, sparse, bursty]`
    /// order.
    #[must_use]
    pub fn trace_apps() -> [CameraApp; 3] {
        [
            CameraApp::trace_steady(),
            CameraApp::trace_sparse(),
            CameraApp::trace_bursty(),
        ]
    }

    /// Application name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The model the pipeline runs.
    #[must_use]
    pub fn model(&self) -> &ModelId {
        &self.model
    }

    /// Frame rate.
    #[must_use]
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// The TPU units the app's Yaml declares.
    #[must_use]
    pub fn units(&self) -> TpuUnits {
        self.units
    }

    /// The frame interval.
    #[must_use]
    pub fn frame_interval(&self) -> microedge_sim::time::SimDuration {
        microedge_sim::time::SimDuration::from_secs_f64(1.0 / self.fps)
    }
}

/// NoScope-style difference detector (paper §1): a cheap frame filter that
/// forwards only frames that differ enough from the previous one, reducing
/// the effective TPU demand of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiffDetector {
    pass_rate: f64,
}

impl DiffDetector {
    /// Creates a detector passing the given fraction of frames.
    ///
    /// # Panics
    ///
    /// Panics if `pass_rate` is outside `(0, 1]`.
    #[must_use]
    pub fn new(pass_rate: f64) -> Self {
        assert!(
            pass_rate > 0.0 && pass_rate <= 1.0,
            "pass rate must be in (0, 1], got {pass_rate}"
        );
        DiffDetector { pass_rate }
    }

    /// The calibration the paper implies: adding the difference detector to
    /// Coral-Pie dropped TPU utilization from 30 % to 20 %, i.e. about 2/3
    /// of frames reach the TPU.
    #[must_use]
    pub fn coral_pie_calibrated() -> Self {
        DiffDetector::new(2.0 / 3.0)
    }

    /// Fraction of frames forwarded to the TPU.
    #[must_use]
    pub fn pass_rate(&self) -> f64 {
        self.pass_rate
    }

    /// The effective TPU demand of an app behind this filter.
    #[must_use]
    pub fn effective_units(&self, units: TpuUnits) -> TpuUnits {
        TpuUnits::from_f64(units.as_f64() * self.pass_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coral_pie_matches_paper_numbers() {
        let app = CameraApp::coral_pie();
        assert_eq!(app.model().as_str(), "ssd-mobilenet-v2");
        assert_eq!(app.fps(), 15.0);
        assert_eq!(app.units(), TpuUnits::from_f64(0.35));
        assert_eq!(app.frame_interval().as_nanos(), 66_666_667);
    }

    #[test]
    fn bodypix_needs_more_than_one_tpu() {
        let app = CameraApp::bodypix();
        assert_eq!(app.units(), TpuUnits::from_f64(1.2));
        assert_eq!(app.units().whole_tpus_needed(), 2);
    }

    #[test]
    fn trace_apps_cover_three_models() {
        let apps = CameraApp::trace_apps();
        let models: Vec<&str> = apps.iter().map(|a| a.model().as_str()).collect();
        assert_eq!(models, vec!["ssd-mobilenet-v2", "mobilenet-v1", "unet-v2"]);
    }

    #[test]
    fn declared_units_match_offline_profiling() {
        // The Yaml-declared units must agree with what the offline
        // profiling service would compute.
        use microedge_core::config::DataPlaneConfig;
        use microedge_models::catalog::Catalog;
        let dp = DataPlaneConfig::calibrated();
        let catalog = Catalog::builtin();
        for app in [
            CameraApp::coral_pie(),
            CameraApp::bodypix(),
            CameraApp::trace_sparse(),
            CameraApp::trace_bursty(),
        ] {
            let profile = catalog.expect(app.model());
            assert_eq!(
                dp.profiled_units(profile, app.fps()),
                app.units(),
                "{}",
                app.name()
            );
        }
    }

    #[test]
    fn diff_detector_reduces_demand() {
        let dd = DiffDetector::coral_pie_calibrated();
        let reduced = dd.effective_units(TpuUnits::from_f64(0.3));
        assert_eq!(reduced, TpuUnits::from_f64(0.2));
    }

    #[test]
    #[should_panic(expected = "pass rate")]
    fn zero_pass_rate_rejected() {
        let _ = DiffDetector::new(0.0);
    }

    #[test]
    #[should_panic(expected = "TPU units")]
    fn zero_unit_app_rejected() {
        let _ = CameraApp::new("x", "m", 15.0, TpuUnits::ZERO);
    }
}
