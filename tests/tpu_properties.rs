//! Property-based tests for the Coral TPU device model: the co-compiler's
//! packing invariants and the execution engine's cost accounting.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use microedge::models::profile::{ModelId, ModelKind, ModelProfile};
use microedge::sim::time::SimDuration;
use microedge::tpu::cocompile::{CoCompileError, CoCompiler};
use microedge::tpu::device::TpuDevice;
use microedge::tpu::spec::TpuSpec;

fn synthetic_model(idx: usize, inference_us: u64, param_bytes: u64) -> ModelProfile {
    ModelProfile::new(
        ModelId::new(&format!("model-{idx}")),
        ModelKind::Classification,
        SimDuration::from_micros(inference_us),
        param_bytes,
        224,
        224,
    )
}

fn model_set() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((1_000u64..100_000, 1_000u64..9_000_000), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The co-compiler never exceeds the parameter budget, grants memory in
    /// strict priority order, and accounts for every byte.
    #[test]
    fn cocompiler_packing_invariants(models in model_set()) {
        let spec = TpuSpec::coral_usb();
        let profiles: Vec<ModelProfile> = models
            .iter()
            .enumerate()
            .map(|(i, &(inf, bytes))| synthetic_model(i, inf, bytes))
            .collect();
        let plan = CoCompiler::new(spec).plan(&profiles).unwrap();

        prop_assert!(plan.cached_bytes() <= spec.param_budget_bytes());
        prop_assert_eq!(plan.len(), profiles.len());

        // Priority order: once one model is not fully cached, every later
        // model gets nothing.
        let mut starved = false;
        for alloc in plan.allocations() {
            if starved {
                prop_assert_eq!(alloc.cached_bytes(), 0);
            }
            prop_assert!(alloc.cached_bytes() <= alloc.param_bytes());
            prop_assert_eq!(
                alloc.uncached_bytes(),
                alloc.param_bytes() - alloc.cached_bytes()
            );
            if !alloc.is_fully_cached() {
                starved = true;
            }
        }

        // Greedy exactness: either everything is cached or the budget is
        // exhausted to the byte.
        if !plan.is_fully_cached() {
            prop_assert_eq!(plan.cached_bytes(), spec.param_budget_bytes());
        }
    }

    /// Device cost accounting: a cached invoke costs exactly the inference
    /// time plus the streaming of its uncached bytes; a swap costs at least
    /// the full parameter transfer extra.
    #[test]
    fn device_costs_are_exact(models in model_set(), picks in prop::collection::vec(0usize..8, 1..40)) {
        let spec = TpuSpec::coral_usb();
        let profiles: Vec<ModelProfile> = models
            .iter()
            .enumerate()
            .map(|(i, &(inf, bytes))| synthetic_model(i, inf, bytes))
            .collect();
        let plan = CoCompiler::new(spec).plan(&profiles).unwrap();
        let mut device = TpuDevice::new(spec);
        device.load_plan(plan.clone());

        let mut expected_busy = SimDuration::ZERO;
        for &p in &picks {
            let profile = &profiles[p % profiles.len()];
            let resident_before = device.is_resident(profile.id());
            let outcome = device.invoke(profile);
            if resident_before {
                let alloc = device
                    .resident()
                    .allocation(profile.id())
                    .expect("still resident");
                prop_assert!(!outcome.swapped());
                prop_assert_eq!(outcome.streamed_bytes(), alloc.uncached_bytes());
                prop_assert_eq!(
                    outcome.busy(),
                    profile.inference_time() + spec.stream_time(alloc.uncached_bytes())
                );
            } else {
                prop_assert!(outcome.swapped());
                prop_assert!(
                    outcome.busy()
                        >= profile.inference_time() + spec.swap_time(profile.param_bytes())
                );
            }
            expected_busy += outcome.busy();
        }
        prop_assert_eq!(device.stats().busy(), expected_busy);
        prop_assert_eq!(device.stats().invocations(), picks.len() as u64);
    }

    /// Co-compiled residents never swap, in any invocation order.
    #[test]
    fn cocompiled_set_never_swaps(models in model_set(), picks in prop::collection::vec(0usize..8, 1..60)) {
        let spec = TpuSpec::coral_usb();
        let profiles: Vec<ModelProfile> = models
            .iter()
            .enumerate()
            .map(|(i, &(inf, bytes))| synthetic_model(i, inf, bytes))
            .collect();
        let mut device = TpuDevice::new(spec);
        device.load_plan(CoCompiler::new(spec).plan(&profiles).unwrap());
        for &p in &picks {
            device.invoke(&profiles[p % profiles.len()]);
        }
        prop_assert_eq!(device.stats().swaps(), 0);
    }

    /// Invokes with ids built separately from the plan's (no shared
    /// allocation, so equality falls back to comparing names) cost exactly
    /// what invokes with the plan's own profiles cost, swaps included.
    #[test]
    fn separately_built_ids_invoke_identically(
        models in model_set(),
        extra in prop::collection::vec((1_000u64..100_000, 1_000u64..9_000_000), 0..3),
        picks in prop::collection::vec(0usize..11, 1..40),
    ) {
        let spec = TpuSpec::coral_usb();
        let build = |set: &[(u64, u64)], offset: usize| -> Vec<ModelProfile> {
            set.iter()
                .enumerate()
                .map(|(i, &(inf, bytes))| synthetic_model(offset + i, inf, bytes))
                .collect()
        };
        let resident = build(&models, 0);
        // Same names and costs, fresh id allocations; the extra models are
        // not in the plan and force swaps.
        let mut rebuilt = build(&models, 0);
        rebuilt.extend(build(&extra, models.len()));
        let mut shared = resident.clone();
        shared.extend(build(&extra, models.len()));

        let plan = CoCompiler::new(spec).plan(&resident).unwrap();
        let mut by_clone = TpuDevice::new(spec);
        let mut by_rebuild = TpuDevice::new(spec);
        by_clone.load_plan(plan.clone());
        by_rebuild.load_plan(plan);
        for &p in &picks {
            let i = p % shared.len();
            prop_assert_eq!(by_rebuild.invoke(&rebuilt[i]), by_clone.invoke(&shared[i]));
        }
        prop_assert_eq!(by_rebuild.stats(), by_clone.stats());
        prop_assert_eq!(by_rebuild.resident(), by_clone.resident());
    }

    /// Ids built separately and cloned ids agree on `==`, `Hash` and
    /// `Ord`, all of which follow the name.
    #[test]
    fn model_id_clones_and_rebuilds_agree(a in "[a-c]{1,3}", b in "[a-c]{1,3}") {
        let id = ModelId::new(&a);
        let clone = id.clone();
        let rebuilt = ModelId::new(&a);
        let other = ModelId::new(&b);
        prop_assert_eq!(&clone, &id);
        prop_assert_eq!(&rebuilt, &id);
        prop_assert_eq!(hash_of(&clone), hash_of(&id));
        prop_assert_eq!(hash_of(&rebuilt), hash_of(&id));
        prop_assert_eq!(clone.cmp(&id), Ordering::Equal);
        prop_assert_eq!(rebuilt.cmp(&id), Ordering::Equal);
        prop_assert_eq!(other == id, a == b);
        prop_assert_eq!(other.cmp(&id), b.cmp(&a));
        prop_assert_eq!(hash_of(&other) == hash_of(&id), hash_of(&b) == hash_of(&a));
    }
}

fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Deterministic edge case: duplicate ids are rejected with the offending
/// name.
#[test]
fn duplicate_model_rejected() {
    let spec = TpuSpec::coral_usb();
    let m = synthetic_model(0, 1_000, 1_000);
    let err = CoCompiler::new(spec).plan(&[m.clone(), m]).unwrap_err();
    assert!(matches!(err, CoCompileError::DuplicateModel(_)));
}
