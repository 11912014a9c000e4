//! The co-compiler: packing several models into one TPU's parameter memory.
//!
//! Coral's co-compilation feature (paper §2) compiles multiple models
//! together so they are resident simultaneously. Parameter memory is granted
//! in **priority order** (we use the order models are submitted, mirroring
//! the Edge TPU compiler's command-line order): when the cumulative demand
//! exceeds the budget, the marginal model is *partially* cached and any
//! later model is not cached at all — those models stream their uncached
//! parameters from host memory on every invocation, which is slower than a
//! cached hit but avoids the full swap.
//!
//! # Examples
//!
//! ```
//! use microedge_models::catalog::{mobilenet_v1, unet_v2};
//! use microedge_tpu::cocompile::CoCompiler;
//! use microedge_tpu::spec::TpuSpec;
//!
//! let compiler = CoCompiler::new(TpuSpec::coral_usb());
//! let plan = compiler.plan(&[mobilenet_v1(), unet_v2()]).unwrap();
//! assert!(plan.is_fully_cached());
//! ```

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use microedge_models::profile::{ModelId, ModelProfile};
use microedge_sim::inline::Inline;
use microedge_sim::time::SimDuration;

use crate::spec::TpuSpec;

/// How much of one model's parameter data a plan keeps on-chip.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheAllocation {
    model: ModelId,
    param_bytes: u64,
    cached_bytes: u64,
}

impl CacheAllocation {
    /// The model this allocation belongs to.
    #[must_use]
    pub fn model(&self) -> &ModelId {
        &self.model
    }

    /// Total parameter bytes of the model.
    #[must_use]
    pub fn param_bytes(&self) -> u64 {
        self.param_bytes
    }

    /// Bytes resident in TPU memory.
    #[must_use]
    pub fn cached_bytes(&self) -> u64 {
        self.cached_bytes
    }

    /// Bytes that must stream from the host on every invocation.
    #[must_use]
    pub fn uncached_bytes(&self) -> u64 {
        self.param_bytes - self.cached_bytes
    }

    /// `true` when the whole model is resident.
    #[must_use]
    pub fn is_fully_cached(&self) -> bool {
        self.cached_bytes == self.param_bytes
    }
}

/// The output of a co-compilation: per-model cache allocations in priority
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachePlan {
    /// Inline when one model is resident, the common case: the lookup on
    /// every invoke then reads no second heap allocation.
    allocations: Inline<CacheAllocation>,
}

impl CachePlan {
    /// An empty plan (no models resident).
    #[must_use]
    pub fn empty() -> Self {
        CachePlan::default()
    }

    /// Per-model allocations, highest priority first.
    #[must_use]
    pub fn allocations(&self) -> &[CacheAllocation] {
        &self.allocations
    }

    /// Looks up the allocation for `model`.
    #[must_use]
    pub fn allocation(&self, model: &ModelId) -> Option<&CacheAllocation> {
        self.allocations.iter().find(|a| a.model() == model)
    }

    /// `true` when every model in the plan is fully resident.
    #[must_use]
    pub fn is_fully_cached(&self) -> bool {
        self.allocations
            .iter()
            .all(CacheAllocation::is_fully_cached)
    }

    /// Total bytes resident on the TPU under this plan.
    #[must_use]
    pub fn cached_bytes(&self) -> u64 {
        self.allocations
            .iter()
            .map(CacheAllocation::cached_bytes)
            .sum()
    }

    /// Total parameter bytes across all planned models.
    #[must_use]
    pub fn total_param_bytes(&self) -> u64 {
        self.allocations
            .iter()
            .map(CacheAllocation::param_bytes)
            .sum()
    }

    /// Number of models in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.allocations.len()
    }

    /// `true` when the plan holds no models.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.allocations.is_empty()
    }
}

/// Error produced when a co-compilation request is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoCompileError {
    /// The same model appeared twice in one request.
    DuplicateModel(ModelId),
}

impl fmt::Display for CoCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoCompileError::DuplicateModel(id) => {
                write!(f, "model {id} listed twice in co-compile request")
            }
        }
    }
}

impl std::error::Error for CoCompileError {}

/// Packs model parameter data into a TPU's budget, in priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoCompiler {
    spec: TpuSpec,
}

impl CoCompiler {
    /// Creates a co-compiler for the given hardware.
    #[must_use]
    pub fn new(spec: TpuSpec) -> Self {
        CoCompiler { spec }
    }

    /// Produces a cache plan for `models`, highest priority first.
    ///
    /// Memory is granted greedily: each model receives as much of the
    /// remaining budget as it needs; once the budget runs out the marginal
    /// model is partially cached and later models receive nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CoCompileError::DuplicateModel`] if a model id appears more
    /// than once.
    pub fn plan(&self, models: &[ModelProfile]) -> Result<CachePlan, CoCompileError> {
        let mut seen = BTreeSet::new();
        for m in models {
            if !seen.insert(m.id().clone()) {
                return Err(CoCompileError::DuplicateModel(m.id().clone()));
            }
        }
        let mut remaining = self.spec.param_budget_bytes();
        let allocations = models
            .iter()
            .map(|m| {
                let cached = remaining.min(m.param_bytes());
                remaining -= cached;
                CacheAllocation {
                    model: m.id().clone(),
                    param_bytes: m.param_bytes(),
                    cached_bytes: cached,
                }
            })
            .collect();
        Ok(CachePlan { allocations })
    }

    /// Wall-clock cost of running the Edge TPU compiler for this plan on the
    /// control-plane server. Modelled as a fixed process cost plus a
    /// throughput term; used by the Fig. 7a experiment, where co-compilation
    /// runs in a separate process *in parallel* with admission (it adds
    /// variance, not mean, to pod-launch latency).
    #[must_use]
    pub fn compile_time(&self, plan: &CachePlan) -> SimDuration {
        const PROCESS_COST: SimDuration = SimDuration::from_millis(400);
        const COMPILE_BYTES_PER_SEC: u64 = 10_000_000;
        PROCESS_COST
            + SimDuration::from_secs_f64(
                plan.total_param_bytes() as f64 / COMPILE_BYTES_PER_SEC as f64,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microedge_models::catalog::{mobilenet_v1, resnet_50, ssd_mobilenet_v2, unet_v2};

    fn compiler() -> CoCompiler {
        CoCompiler::new(TpuSpec::coral_usb())
    }

    #[test]
    fn everything_fits_fully_cached() {
        let plan = compiler().plan(&[mobilenet_v1(), unet_v2()]).unwrap();
        assert!(plan.is_fully_cached());
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.cached_bytes(),
            mobilenet_v1().param_bytes() + unet_v2().param_bytes()
        );
    }

    #[test]
    fn overflow_partially_caches_marginal_model() {
        let models = [mobilenet_v1(), unet_v2(), ssd_mobilenet_v2()];
        let plan = compiler().plan(&models).unwrap();
        assert!(!plan.is_fully_cached());
        // First two fully cached, third partial.
        assert!(plan
            .allocation(&mobilenet_v1().id().clone())
            .unwrap()
            .is_fully_cached());
        assert!(plan
            .allocation(&unet_v2().id().clone())
            .unwrap()
            .is_fully_cached());
        let marginal = plan.allocation(&ssd_mobilenet_v2().id().clone()).unwrap();
        assert!(!marginal.is_fully_cached());
        assert!(marginal.cached_bytes() > 0);
        assert_eq!(
            plan.cached_bytes(),
            TpuSpec::coral_usb().param_budget_bytes()
        );
    }

    #[test]
    fn oversized_single_model_is_partial() {
        let plan = compiler().plan(&[resnet_50()]).unwrap();
        let alloc = &plan.allocations()[0];
        assert!(!alloc.is_fully_cached());
        assert_eq!(
            alloc.cached_bytes(),
            TpuSpec::coral_usb().param_budget_bytes()
        );
        assert!(alloc.uncached_bytes() > 0);
    }

    #[test]
    fn later_models_get_nothing_once_budget_exhausted() {
        let plan = compiler().plan(&[resnet_50(), mobilenet_v1()]).unwrap();
        let starved = plan.allocation(&mobilenet_v1().id().clone()).unwrap();
        assert_eq!(starved.cached_bytes(), 0);
        assert_eq!(starved.uncached_bytes(), mobilenet_v1().param_bytes());
    }

    #[test]
    fn priority_order_matters() {
        let ab = compiler().plan(&[resnet_50(), unet_v2()]).unwrap();
        let ba = compiler().plan(&[unet_v2(), resnet_50()]).unwrap();
        assert_eq!(
            ab.allocation(&unet_v2().id().clone())
                .unwrap()
                .cached_bytes(),
            0
        );
        assert!(ba
            .allocation(&unet_v2().id().clone())
            .unwrap()
            .is_fully_cached());
    }

    #[test]
    fn duplicate_models_rejected() {
        let err = compiler().plan(&[unet_v2(), unet_v2()]).unwrap_err();
        assert_eq!(err, CoCompileError::DuplicateModel(unet_v2().id().clone()));
        assert!(err.to_string().contains("unet-v2"));
    }

    #[test]
    fn empty_plan() {
        let plan = compiler().plan(&[]).unwrap();
        assert!(plan.is_empty());
        assert!(plan.is_fully_cached());
        assert_eq!(plan.cached_bytes(), 0);
        assert_eq!(CachePlan::empty(), plan);
    }

    #[test]
    fn compile_time_grows_with_plan_size() {
        let c = compiler();
        let small = c.plan(&[unet_v2()]).unwrap();
        let large = c
            .plan(&[mobilenet_v1(), unet_v2(), ssd_mobilenet_v2()])
            .unwrap();
        assert!(c.compile_time(&large) > c.compile_time(&small));
        assert!(c.compile_time(&small).as_millis_f64() > 400.0);
    }
}
