//! Differential test: the typed admission door against the Yaml door.
//!
//! `World` admits its cameras through
//! `ExtendedScheduler::deploy_requests` with typed per-stage
//! `(model, units)` requests. Yaml and `PodSpec` clients go through
//! `ExtendedScheduler::deploy`, which parses the `Model` and `TPU Units`
//! extensions into the same requests. Under any interleaving of
//! deployments, teardowns, TPU failures and restores, both doors must give
//! equal deployments, equal pool accounting and equal per-stage
//! assignments.

use proptest::prelude::*;

use microedge::cluster::topology::ClusterBuilder;
use microedge::core::config::Features;
use microedge::core::scheduler::{DeployError, ExtendedScheduler, TpuRequest};
use microedge::core::units::TpuUnits;
use microedge::models::catalog::{fig1_models, Catalog};
use microedge::models::profile::ModelId;
use microedge::orch::lifecycle::Orchestrator;
use microedge::orch::pod::{PodId, PodSpec, EXT_MODEL, EXT_TPU_UNITS};
use microedge::tpu::device::TpuId;

const TPUS: u32 = 6;

fn control_plane() -> (Orchestrator, ExtendedScheduler) {
    let cluster = ClusterBuilder::new().trpis(TPUS).vrpis(4).build();
    let sched = ExtendedScheduler::new(&cluster, Catalog::builtin(), Features::all());
    (Orchestrator::new(cluster), sched)
}

/// One pipeline stage: `(model index, micro-units)`.
type Stage = (usize, u64);

/// One step of the churn script: `(op, stages, target)`.
///
/// - `op < 5`  → deploy a pod requesting `stages`
/// - `op == 5` → tear down live pod `target % live`
/// - `op == 6` → fail TPU `target % TPUS`, re-placing its pods
/// - `op == 7` → restore TPU `target % TPUS`
type Step = (u8, Vec<Stage>, u32);

fn script_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0u8..8,
            prop::collection::vec((0..8usize, 1u64..1_500_000), 1..4),
            0u32..64,
        ),
        1..40,
    )
}

/// The Yaml form of `stages`: both extensions as comma-separated lists,
/// the units in the decimal form a client writes.
fn yaml_spec(name: &str, stages: &[(ModelId, TpuUnits)]) -> PodSpec {
    let models: Vec<&str> = stages.iter().map(|(m, _)| m.as_str()).collect();
    let units: Vec<String> = stages.iter().map(|(_, u)| u.as_f64().to_string()).collect();
    PodSpec::builder(name, "camera:latest")
        .extension(EXT_MODEL, &models.join(","))
        .extension(EXT_TPU_UNITS, &units.join(","))
        .build()
}

fn typed_requests(stages: &[(ModelId, TpuUnits)]) -> Vec<TpuRequest> {
    stages
        .iter()
        .map(|(m, u)| TpuRequest::new(m.clone(), *u))
        .collect()
}

fn run_differential(script: &[Step]) -> Result<(), String> {
    let models = fig1_models();
    let (mut orch_y, mut yaml) = control_plane();
    let (mut orch_t, mut typed) = control_plane();
    let mut live: Vec<PodId> = Vec::new();
    for (k, (op, stages, target)) in script.iter().enumerate() {
        match op {
            0..=4 => {
                let stages: Vec<(ModelId, TpuUnits)> = stages
                    .iter()
                    .map(|&(m, micro)| (models[m].id().clone(), TpuUnits::from_micro(micro)))
                    .collect();
                let name = format!("pod-{k}");
                let by_yaml = yaml.deploy(&mut orch_y, yaml_spec(&name, &stages));
                let by_type = typed.deploy_requests(
                    &mut orch_t,
                    PodSpec::builder(name.as_str(), "camera:latest").build(),
                    &typed_requests(&stages),
                    1,
                );
                prop_assert_eq!(&by_yaml, &by_type, "the doors disagree on step {}", k);
                if let Ok(d) = by_yaml {
                    live.push(d.pod());
                }
            }
            5 => {
                if !live.is_empty() {
                    let pod = live.remove(*target as usize % live.len());
                    prop_assert_eq!(
                        yaml.teardown(&mut orch_y, pod),
                        typed.teardown(&mut orch_t, pod)
                    );
                }
            }
            6 => {
                let tpu = TpuId(target % TPUS);
                prop_assert_eq!(yaml.handle_tpu_failure(tpu), typed.handle_tpu_failure(tpu));
            }
            _ => {
                yaml.restore_tpu(TpuId(target % TPUS));
                typed.restore_tpu(TpuId(target % TPUS));
            }
        }
        prop_assert_eq!(yaml.pool(), typed.pool(), "pools diverged after step {}", k);
        for &pod in &live {
            prop_assert_eq!(yaml.stage_assignment(pod), typed.stage_assignment(pod));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random 1–3-stage requests under random pool churn: the typed door
    /// and the Yaml door are observationally identical.
    #[test]
    fn typed_and_yaml_admission_agree(script in script_strategy()) {
        run_differential(&script)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Every micro-unit value up to 16 TPUs survives the decimal text a
    /// Yaml client writes and the scheduler parses back.
    #[test]
    fn units_survive_the_decimal_round_trip(micro in 0u64..=16_000_000) {
        let units = TpuUnits::from_micro(micro);
        prop_assert_eq!(TpuUnits::from_f64(units.as_f64()), units);
        let parsed: f64 = units.as_f64().to_string().parse().unwrap();
        prop_assert_eq!(TpuUnits::from_f64(parsed), units);
    }
}

#[test]
fn both_doors_reject_a_zero_unit_stage_alike() {
    let zero = [(ModelId::new("ssd-mobilenet-v2"), TpuUnits::ZERO)];
    let (mut orch_y, mut yaml) = control_plane();
    let (mut orch_t, mut typed) = control_plane();
    let by_yaml = yaml.deploy(&mut orch_y, yaml_spec("cam", &zero));
    let by_type = typed.deploy_requests(
        &mut orch_t,
        PodSpec::builder("cam", "camera:latest").build(),
        &typed_requests(&zero),
        1,
    );
    assert!(matches!(by_yaml, Err(DeployError::MalformedRequest(_))));
    assert_eq!(by_yaml, by_type);
    assert!(orch_t.running_pods().is_empty(), "no pod was created");
}
