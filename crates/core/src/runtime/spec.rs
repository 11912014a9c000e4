//! [`StreamSpec`], what a camera stream asks for, and its builder.

use std::sync::Arc;

use microedge_models::profile::ModelId;
use microedge_sim::inline::Inline;
use microedge_sim::time::SimDuration;

use crate::client::SourceResolution;
use crate::units::TpuUnits;

/// One inference stage of a stream's per-frame pipeline.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct StageSpec {
    pub(super) model: ModelId,
    pub(super) units: Option<TpuUnits>,
}

/// Describes one camera stream to admit.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Shared with the stream's pod spec (and the orchestrator's live-name
    /// index), so admission copies no string.
    pub(super) name: Arc<str>,
    pub(super) stages: Inline<StageSpec>,
    pub(super) fps: f64,
    pub(super) frame_limit: Option<u64>,
    pub(super) start_offset: SimDuration,
    pub(super) collocated: bool,
    /// `(pass rate, seed)`; boxed because almost no camera sets it.
    pub(super) frame_filter: Option<Box<(f64, u64)>>,
    pub(super) source: SourceResolution,
    pub(super) export: bool,
}

impl StreamSpec {
    /// Starts building a stream whose first (often only) stage runs
    /// `model`, at the industry-standard 15 FPS.
    #[must_use]
    pub fn builder(name: &str, model: &str) -> StreamSpecBuilder {
        StreamSpecBuilder {
            spec: StreamSpec {
                name: name.into(),
                stages: Inline::One([StageSpec {
                    model: ModelId::new(model),
                    units: None,
                }]),
                fps: 15.0,
                frame_limit: None,
                start_offset: SimDuration::ZERO,
                collocated: false,
                frame_filter: None,
                source: SourceResolution::FULL_HD,
                export: false,
            },
        }
    }

    /// Stream name (doubles as the pod name).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The first stage's model (every built spec has one).
    #[must_use]
    pub fn model(&self) -> Option<&ModelId> {
        self.stages.first().map(|s| &s.model)
    }

    /// All stage models, in pipeline order.
    #[must_use]
    pub fn stage_models(&self) -> Vec<&ModelId> {
        self.stages.iter().map(|s| &s.model).collect()
    }

    /// Frame rate.
    #[must_use]
    pub fn fps(&self) -> f64 {
        self.fps
    }
}

/// Builder for [`StreamSpec`].
#[derive(Debug, Clone)]
pub struct StreamSpecBuilder {
    spec: StreamSpec,
}

impl StreamSpecBuilder {
    /// Sets the frame rate (default 15 FPS).
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not strictly positive.
    #[must_use]
    pub fn fps(mut self, fps: f64) -> Self {
        assert!(fps.is_finite() && fps > 0.0, "fps must be positive");
        self.spec.fps = fps;
        self
    }

    /// Overrides the *most recently added* stage's requested TPU units
    /// (default: derived by the offline profiling service from the model
    /// and frame rate).
    #[must_use]
    pub fn units(mut self, units: TpuUnits) -> Self {
        if let Some(stage) = self.spec.stages.last_mut() {
            stage.units = Some(units);
        }
        self
    }

    /// Appends another inference stage to the per-frame pipeline.
    #[must_use]
    pub fn then(mut self, model: &str) -> Self {
        self.spec.stages.push(StageSpec {
            model: ModelId::new(model),
            units: None,
        });
        self
    }

    /// Stops the stream after `frames` frames (default: runs until
    /// removed).
    #[must_use]
    pub fn frame_limit(mut self, frames: u64) -> Self {
        self.spec.frame_limit = Some(frames);
        self
    }

    /// Delays the first frame — real cameras are not phase-aligned.
    #[must_use]
    pub fn start_offset(mut self, offset: SimDuration) -> Self {
        self.spec.start_offset = offset;
        self
    }

    /// Marks the stream's TPU as host-local (the bare-metal baseline):
    /// frames skip the network hop.
    #[must_use]
    pub fn collocated(mut self, collocated: bool) -> Self {
        self.spec.collocated = collocated;
        self
    }

    /// Sets the camera's native resolution (default 1080p); pre-processing
    /// cost scales with it.
    #[must_use]
    pub fn source_resolution(mut self, source: SourceResolution) -> Self {
        self.spec.source = source;
        self
    }

    /// Installs a NoScope-style difference detector (paper §1): only
    /// `pass_rate` of frames reach the TPU; the rest complete client-side
    /// after pre-processing. The caller should declare correspondingly
    /// reduced TPU units (see `microedge-workloads`' `DiffDetector`).
    ///
    /// # Panics
    ///
    /// Panics if `pass_rate` is outside `(0, 1]`.
    #[must_use]
    pub fn frame_filter(mut self, pass_rate: f64, seed: u64) -> Self {
        assert!(
            pass_rate > 0.0 && pass_rate <= 1.0,
            "pass rate must be in (0, 1], got {pass_rate}"
        );
        self.spec.frame_filter = Some(Box::new((pass_rate, seed)));
        self
    }

    /// Marks the stream's frame completions for cross-shard export: the
    /// sharded replay collects a [`FrameExport`](super::FrameExport) per
    /// completed frame from [`World::take_outbox`](super::World::take_outbox)
    /// and forwards it to a peer shard at the next epoch barrier (an
    /// analytics/aggregation consumer in another cluster). Unsharded runs
    /// ignore the flag beyond filling the outbox.
    #[must_use]
    pub fn export_completions(mut self, export: bool) -> Self {
        self.spec.export = export;
        self
    }

    /// Finalises the spec.
    #[must_use]
    pub fn build(self) -> StreamSpec {
        self.spec
    }
}
