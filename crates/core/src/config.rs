//! MicroEdge configuration: data-plane cost calibration and control-plane
//! feature flags.

use serde::{Deserialize, Serialize};

use microedge_models::profile::ModelProfile;

use crate::client::{SourceResolution, TpuClientModel};
use microedge_sim::time::SimDuration;

use crate::units::TpuUnits;

/// The two optional control-plane mechanisms the paper ablates in §6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Features {
    /// Fan successive requests of one pod out across several TPUs (§4.3).
    pub workload_partitioning: bool,
    /// Space-share one TPU across different models via co-compilation (§5.1).
    pub co_compiling: bool,
}

impl Features {
    /// Both mechanisms on — the full MicroEdge system.
    #[must_use]
    pub fn all() -> Self {
        Features {
            workload_partitioning: true,
            co_compiling: true,
        }
    }

    /// Both mechanisms off — time sharing only.
    #[must_use]
    pub fn none() -> Self {
        Features {
            workload_partitioning: false,
            co_compiling: false,
        }
    }

    /// Workload partitioning only.
    #[must_use]
    pub fn partitioning_only() -> Self {
        Features {
            workload_partitioning: true,
            co_compiling: false,
        }
    }

    /// Co-compiling only.
    #[must_use]
    pub fn co_compiling_only() -> Self {
        Features {
            workload_partitioning: false,
            co_compiling: true,
        }
    }
}

impl Default for Features {
    /// Everything on.
    fn default() -> Self {
        Features::all()
    }
}

/// Calibrated data-plane costs (see `DESIGN.md` §4).
///
/// `invoke_overhead` is the host-side per-invoke handling at the TPU Service
/// (request decode, input-tensor staging over USB); it occupies the TPU
/// pipeline, so it is part of the model's *service time* in the TPU-units
/// sense. With the default 8.33 ms, SSD MobileNet V2 (15 ms inference)
/// occupies 23.33 ms per frame → 0.35 TPU units at 15 FPS, and BodyPix
/// (71.67 ms) occupies 80 ms → 1.2 units, matching the paper's §6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataPlaneConfig {
    /// Per-invoke host-side handling that serialises with inference.
    pub invoke_overhead: SimDuration,
    /// Client-side frame resize/format cost for the default 1080p source.
    pub preprocess: SimDuration,
    /// Application-side result handling cost.
    pub postprocess: SimDuration,
    /// The TPU Client's resolution-aware pre-processing model.
    pub client: TpuClientModel,
    /// Whether consecutive pipeline stages placed on the same TPU skip the
    /// network hop (the §8 data-plane pipeline optimization). Disabled only
    /// by the ablation that quantifies its benefit.
    pub pipeline_local_hop: bool,
}

impl DataPlaneConfig {
    /// The calibrated Raspberry Pi data plane.
    #[must_use]
    pub fn calibrated() -> Self {
        DataPlaneConfig {
            invoke_overhead: SimDuration::from_nanos(8_333_333),
            preprocess: SimDuration::from_millis(5),
            postprocess: SimDuration::from_millis(3),
            client: TpuClientModel::calibrated(),
            pipeline_local_hop: true,
        }
    }

    /// Pre-processing cost for a frame from `source` — `preprocess` is
    /// this value at 1080p.
    #[must_use]
    pub fn preprocess_for(&self, source: SourceResolution) -> SimDuration {
        self.client.preprocess_time(source)
    }

    /// The nominal service time of one invoke: inference plus the host-side
    /// overhead. This is what the offline profiling service reports and what
    /// clients derive their requested TPU units from (paper §4.1).
    #[must_use]
    pub fn service_time(&self, profile: &ModelProfile) -> SimDuration {
        self.invoke_overhead + profile.inference_time()
    }

    /// The offline profiling service: the TPU units a camera at `fps` needs
    /// for `profile`.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not strictly positive.
    #[must_use]
    pub fn profiled_units(&self, profile: &ModelProfile, fps: f64) -> TpuUnits {
        assert!(fps.is_finite() && fps > 0.0, "fps must be positive");
        let interarrival = SimDuration::from_secs_f64(1.0 / fps);
        TpuUnits::from_duty_cycle(self.service_time(profile), interarrival)
    }
}

impl Default for DataPlaneConfig {
    /// The calibrated data plane.
    fn default() -> Self {
        DataPlaneConfig::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microedge_models::catalog::{
        bodypix_mobilenet_v1, mobilenet_v1, ssd_mobilenet_v2, unet_v2,
    };

    #[test]
    fn coral_pie_profiles_to_0_35_units() {
        let dp = DataPlaneConfig::calibrated();
        let units = dp.profiled_units(&ssd_mobilenet_v2(), 15.0);
        assert_eq!(units, TpuUnits::from_f64(0.35));
    }

    #[test]
    fn bodypix_profiles_to_1_2_units() {
        let dp = DataPlaneConfig::calibrated();
        assert_eq!(
            dp.profiled_units(&bodypix_mobilenet_v1(), 15.0),
            TpuUnits::from_f64(1.2)
        );
    }

    #[test]
    fn trace_models_profile_to_documented_units() {
        let dp = DataPlaneConfig::calibrated();
        assert_eq!(
            dp.profiled_units(&mobilenet_v1(), 15.0),
            TpuUnits::from_f64(0.215)
        );
        assert_eq!(
            dp.profiled_units(&unet_v2(), 15.0),
            TpuUnits::from_f64(0.675)
        );
    }

    #[test]
    fn units_scale_with_fps() {
        let dp = DataPlaneConfig::calibrated();
        let at_15 = dp.profiled_units(&ssd_mobilenet_v2(), 15.0);
        let at_30 = dp.profiled_units(&ssd_mobilenet_v2(), 30.0);
        assert_eq!(at_30, TpuUnits::from_f64(0.7));
        assert!(at_30 > at_15);
    }

    #[test]
    fn feature_sets() {
        assert_eq!(Features::default(), Features::all());
        assert!(Features::all().workload_partitioning);
        assert!(Features::all().co_compiling);
        assert!(!Features::none().workload_partitioning);
        assert!(Features::partitioning_only().workload_partitioning);
        assert!(!Features::partitioning_only().co_compiling);
    }

    #[test]
    fn service_time_adds_overhead() {
        let dp = DataPlaneConfig::calibrated();
        assert_eq!(
            dp.service_time(&ssd_mobilenet_v2()),
            SimDuration::from_nanos(23_333_333)
        );
    }

    #[test]
    #[should_panic(expected = "fps must be positive")]
    fn zero_fps_rejected() {
        let _ = DataPlaneConfig::calibrated().profiled_units(&unet_v2(), 0.0);
    }
}
