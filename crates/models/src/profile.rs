//! ML model profiles.
//!
//! MicroEdge's scheduler never looks inside a model; it only needs three
//! facts gleaned by offline profiling (paper §4.1): the on-TPU inference time
//! per invoke, the size of the model's parameter data (for the Model Size
//! Rule and co-compilation), and the input resolution (which fixes the bytes
//! the TPU Client must transmit per frame). A [`ModelProfile`] bundles those.
//!
//! # Examples
//!
//! ```
//! use microedge_models::profile::{ModelId, ModelKind, ModelProfile};
//! use microedge_sim::time::SimDuration;
//!
//! let profile = ModelProfile::new(
//!     ModelId::new("ssd-mobilenet-v2"),
//!     ModelKind::Detection,
//!     SimDuration::from_millis(15),
//!     5_100 * 1024,
//!     300,
//!     300,
//! );
//! assert_eq!(profile.input_bytes(), 300 * 300 * 3);
//! ```

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use microedge_sim::time::SimDuration;

/// Identifies a model in the catalog and on TPUs.
///
/// Cheap to clone and hashable; two ids are equal iff their names are.
/// Clones share one allocation, and equality tests the pointer before the
/// names, so the data plane's comparisons against ids cloned from the same
/// catalog entry are a pointer test; ids built separately fall back to
/// comparing names. Hashing and ordering are by name.
#[derive(Debug, Clone, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ModelId(Arc<str>);

// `Arc<str>`'s own equality always compares the bytes: std's pointer
// shortcut needs a sized `T`.
impl PartialEq for ModelId {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Hash for ModelId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl ModelId {
    /// Creates an id from a model name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    #[must_use]
    pub fn new(name: &str) -> Self {
        assert!(!name.is_empty(), "model id must be non-empty");
        ModelId(name.into())
    }

    /// The model name.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ModelId {
    fn from(name: &str) -> Self {
        ModelId::new(name)
    }
}

/// Inference task family, as in the paper's Fig. 1 grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Object detection (bounding boxes).
    Detection,
    /// Image classification (labels).
    Classification,
    /// Pixel-level segmentation.
    Segmentation,
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModelKind::Detection => "detection",
            ModelKind::Classification => "classification",
            ModelKind::Segmentation => "segmentation",
        };
        f.write_str(s)
    }
}

/// Offline-profiled facts about one compiled model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelProfile {
    id: ModelId,
    kind: ModelKind,
    inference_time: SimDuration,
    param_bytes: u64,
    input_width: u32,
    input_height: u32,
}

impl ModelProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if the inference time is zero, the parameter data is empty, or
    /// either input dimension is zero — all of which would make the profile
    /// meaningless to the scheduler.
    #[must_use]
    pub fn new(
        id: ModelId,
        kind: ModelKind,
        inference_time: SimDuration,
        param_bytes: u64,
        input_width: u32,
        input_height: u32,
    ) -> Self {
        assert!(!inference_time.is_zero(), "inference time must be non-zero");
        assert!(param_bytes > 0, "parameter data must be non-empty");
        assert!(
            input_width > 0 && input_height > 0,
            "input dimensions must be non-zero"
        );
        ModelProfile {
            id,
            kind,
            inference_time,
            param_bytes,
            input_width,
            input_height,
        }
    }

    /// The model's identifier.
    #[must_use]
    pub fn id(&self) -> &ModelId {
        &self.id
    }

    /// Task family.
    #[must_use]
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// On-TPU inference time for one request (fully cached parameters).
    #[must_use]
    pub fn inference_time(&self) -> SimDuration {
        self.inference_time
    }

    /// Size of the model's parameter data in bytes.
    #[must_use]
    pub fn param_bytes(&self) -> u64 {
        self.param_bytes
    }

    /// Required input width in pixels.
    #[must_use]
    pub fn input_width(&self) -> u32 {
        self.input_width
    }

    /// Required input height in pixels.
    #[must_use]
    pub fn input_height(&self) -> u32 {
        self.input_height
    }

    /// Bytes of one pre-processed RGB input frame — what the TPU Client puts
    /// on the wire per invoke.
    #[must_use]
    pub fn input_bytes(&self) -> u64 {
        u64::from(self.input_width) * u64::from(self.input_height) * 3
    }

    /// The frame rate that would drive a dedicated TPU to 100 % utilization
    /// with this model — the orange line in the paper's Fig. 1.
    #[must_use]
    pub fn fps_for_full_utilization(&self) -> f64 {
        1.0 / self.inference_time.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ModelProfile {
        ModelProfile::new(
            ModelId::new("m"),
            ModelKind::Classification,
            SimDuration::from_millis(10),
            1024,
            224,
            224,
        )
    }

    #[test]
    fn accessors_roundtrip() {
        let p = sample();
        assert_eq!(p.id().as_str(), "m");
        assert_eq!(p.kind(), ModelKind::Classification);
        assert_eq!(p.inference_time(), SimDuration::from_millis(10));
        assert_eq!(p.param_bytes(), 1024);
        assert_eq!(p.input_width(), 224);
        assert_eq!(p.input_height(), 224);
    }

    #[test]
    fn input_bytes_is_rgb() {
        assert_eq!(sample().input_bytes(), 224 * 224 * 3);
    }

    #[test]
    fn full_utilization_fps() {
        let p = sample();
        assert!((p.fps_for_full_utilization() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn model_id_display_and_from() {
        let id: ModelId = "resnet-50".into();
        assert_eq!(id.to_string(), "resnet-50");
        assert_eq!(ModelKind::Detection.to_string(), "detection");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_model_id_rejected() {
        let _ = ModelId::new("");
    }

    #[test]
    #[should_panic(expected = "inference time")]
    fn zero_inference_time_rejected() {
        let _ = ModelProfile::new(
            ModelId::new("m"),
            ModelKind::Detection,
            SimDuration::ZERO,
            1,
            1,
            1,
        );
    }

    #[test]
    fn ids_compare_by_name() {
        assert_eq!(ModelId::new("a"), ModelId::new("a"));
        assert_ne!(ModelId::new("a"), ModelId::new("b"));
        assert!(ModelId::new("a") < ModelId::new("b"));
        let a = ModelId::new("a");
        assert_eq!(a.clone(), a);
        assert_eq!(a.clone(), ModelId::new("a"));
    }
}
