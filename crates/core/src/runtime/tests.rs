use super::*;
use crate::scheduler::DeployError;
use crate::units::TpuUnits;
use microedge_cluster::node::NodeId;
use microedge_cluster::topology::ClusterBuilder;
use microedge_metrics::latency::Phase;

fn world(trpis: u32, features: Features) -> World {
    let cluster = ClusterBuilder::new().trpis(trpis).vrpis(4).build();
    World::new(cluster, features)
}

fn coral_pie(name: &str, frames: u64) -> StreamSpec {
    StreamSpec::builder(name, "ssd-mobilenet-v2")
        .frame_limit(frames)
        .build()
}

#[test]
fn admission_restores_a_co_compiled_plan_a_swap_evicted() {
    let mut w = world(1, Features::all());
    let tpu = TpuId(0);
    let small = |name: &str, model: &str| {
        StreamSpec::builder(name, model)
            .units(TpuUnits::from_f64(0.1))
            .frame_limit(1)
            .build()
    };
    w.admit_stream(small("a", "mobilenet-v2")).unwrap();
    w.admit_stream(small("b", "mobilenet-v1")).unwrap();
    let resident = |w: &World| -> Vec<ModelId> {
        w.services[tpu.index()]
            .device
            .resident()
            .allocations()
            .iter()
            .map(|a| a.model().clone())
            .collect()
    };
    let live = w.sched.resident_models(tpu);
    assert_eq!(live.len(), 2);
    assert_eq!(resident(&w), live, "both models co-compiled");

    // A model outside the plan swaps in and evicts it.
    let outsider = w.sched.catalog().expect(&ModelId::new("unet-v2")).clone();
    assert!(w.services[tpu.index()].device.invoke(&outsider).swapped());
    assert_eq!(resident(&w), vec![ModelId::new("unet-v2")]);

    // An admission that loads no new model still restores the plan.
    let c = w.admit_stream(small("c", "mobilenet-v2")).unwrap();
    let pod = w.streams[c.index()].pod;
    assert!(w.sched.stage_assignment(pod).is_some());
    assert_eq!(w.sched.resident_models(tpu), live);
    assert_eq!(resident(&w), live, "plan restored");
}

#[test]
fn single_stream_meets_slo() {
    let mut w = world(1, Features::all());
    let cam = w.admit_stream(coral_pie("cam", 150)).unwrap();
    let results = w.run_to_completion(SimTime::from_secs(60));
    let report = results.report(cam).unwrap();
    assert_eq!(report.emitted(), 150);
    assert_eq!(report.completed(), 150);
    assert!(report.met_fps(), "achieved {}", report.achieved_fps());
}

#[test]
fn utilization_matches_tpu_units() {
    let mut w = world(1, Features::all());
    w.admit_stream(coral_pie("cam", 300)).unwrap();
    let results = w.run_to_completion(SimTime::from_secs(60));
    // One 0.35-unit stream on one TPU → ≈ 35 % utilization.
    assert!(
        (results.average_utilization() - 0.35).abs() < 0.02,
        "got {}",
        results.average_utilization()
    );
}

#[test]
fn two_streams_share_one_tpu() {
    let mut w = world(1, Features::all());
    let a = w.admit_stream(coral_pie("a", 300)).unwrap();
    let b = w
        .admit_stream(
            StreamSpec::builder("b", "ssd-mobilenet-v2")
                .frame_limit(300)
                .start_offset(SimDuration::from_millis(33))
                .build(),
        )
        .unwrap();
    let results = w.run_to_completion(SimTime::from_secs(60));
    assert!(results.report(a).unwrap().met_fps());
    assert!(results.report(b).unwrap().met_fps());
    assert!((results.average_utilization() - 0.70).abs() < 0.03);
}

#[test]
fn breakdown_reproduces_fig7b_shape() {
    let mut w = world(1, Features::all());
    w.admit_stream(coral_pie("cam", 100)).unwrap();
    let results = w.run_to_completion(SimTime::from_secs(30));
    let b = results.breakdowns();
    assert_eq!(b.mean_ms(Phase::PreProcess), 5.0);
    assert!((b.mean_ms(Phase::Transmission) - 8.0).abs() < 0.2);
    // Inference phase = TPU occupancy (no queueing for one stream).
    assert!((b.mean_ms(Phase::Inference) - 23.33).abs() < 0.1);
    assert_eq!(b.mean_ms(Phase::PostProcess), 3.0);
}

#[test]
fn collocated_baseline_has_no_transmission() {
    let mut w = world(1, Features::all());
    w.admit_stream(
        StreamSpec::builder("cam", "ssd-mobilenet-v2")
            .frame_limit(50)
            .collocated(true)
            .build(),
    )
    .unwrap();
    let results = w.run_to_completion(SimTime::from_secs(30));
    assert_eq!(results.breakdowns().mean_ms(Phase::Transmission), 0.0);
}

#[test]
fn partitioned_stream_uses_both_tpus() {
    let mut w = world(2, Features::all());
    let cam = w
        .admit_stream(
            StreamSpec::builder("seg", "bodypix-mobilenet-v1")
                .frame_limit(150)
                .build(),
        )
        .unwrap();
    let results = w.run_to_completion(SimTime::from_secs(60));
    assert!(results.report(cam).unwrap().met_fps());
    let per = results.per_device_utilization();
    assert!(per[0] > 0.5, "TPU 0 carries most load: {per:?}");
    assert!(per[1] > 0.05, "TPU 1 carries the overflow: {per:?}");
}

#[test]
fn stream_removal_frees_units_for_new_streams() {
    let mut w = world(1, Features::all());
    let a = w.admit_stream(coral_pie("a", 1_000_000)).unwrap();
    let b = w.admit_stream(coral_pie("b", 1_000_000)).unwrap();
    // Pool is at 0.70; a third stream does not fit.
    assert!(w.admit_stream(coral_pie("c", 10)).is_err());
    w.run_until(SimTime::from_secs(5));
    w.remove_stream(a).unwrap();
    let c = w.admit_stream(coral_pie("c", 50)).unwrap();
    w.run_until(SimTime::from_secs(20));
    let results = w.finish(SimTime::from_secs(20));
    assert!(results.report(c).unwrap().met_fps());
    assert!(results.report(b).unwrap().met_fps());
}

#[test]
fn remove_stream_twice_errors() {
    let mut w = world(1, Features::all());
    let a = w.admit_stream(coral_pie("a", 10)).unwrap();
    w.remove_stream(a).unwrap();
    assert!(w.remove_stream(a).is_err());
}

#[test]
fn tpu_failure_recovers_streams_onto_survivors() {
    let mut w = world(2, Features::all());
    let cam = w.admit_stream(coral_pie("cam", 1_000_000)).unwrap();
    w.run_until(SimTime::from_secs(2));
    let pod = w.pod_of(cam).unwrap();
    let tpu = w.scheduler().assignment(pod).unwrap()[0].tpu();
    let lost = w.fail_tpu(tpu);
    assert!(lost.is_empty(), "stream should be re-placed");
    w.run_until(SimTime::from_secs(6));
    let results = w.finish(SimTime::from_secs(6));
    // Some frames may have been dropped at the failure instant, but the
    // stream keeps flowing on the surviving TPU.
    let report = results.report(cam).unwrap();
    assert!(report.completed() > 80, "completed {}", report.completed());
}

#[test]
fn tpu_failure_without_spare_capacity_loses_stream() {
    let mut w = world(1, Features::all());
    let cam = w.admit_stream(coral_pie("cam", 1_000_000)).unwrap();
    w.run_until(SimTime::from_secs(1));
    let lost = w.fail_tpu(TpuId(0));
    assert_eq!(lost, vec![cam]);
    assert_eq!(w.active_streams(), 0);
}

#[test]
fn served_series_tracks_arrivals_and_departures() {
    let mut w = world(2, Features::all());
    let a = w.admit_stream(coral_pie("a", 1_000_000)).unwrap();
    w.run_until(SimTime::from_secs(120));
    w.remove_stream(a).unwrap();
    w.run_until(SimTime::from_secs(179));
    let (_, served) = w.finish_with_served_series(SimTime::from_secs(180));
    assert_eq!(served.len(), 3);
    assert!((served[0] - 1.0).abs() < 1e-9);
    // Removal happens at the last event before t=120 s, a hair inside
    // the second window.
    assert!(served[1] > 0.99, "got {}", served[1]);
    assert!(served[2] < 0.01);
}

#[test]
fn stream_spec_accessors() {
    let s = StreamSpec::builder("cam", "unet-v2").fps(10.0).build();
    assert_eq!(s.name(), "cam");
    assert_eq!(s.model().unwrap().as_str(), "unet-v2");
    assert_eq!(s.fps(), 10.0);
    assert_eq!(StreamId(3).to_string(), "stream-3");
}

#[test]
fn unknown_model_rejected_at_admission() {
    let mut w = world(1, Features::all());
    let err = w
        .admit_stream(StreamSpec::builder("x", "nope").build())
        .unwrap_err();
    assert!(matches!(err, DeployError::UnknownModel(_)));
}

#[test]
fn zero_units_rejected_at_admission() {
    let mut w = world(1, Features::all());
    let spec = StreamSpec::builder("x", "ssd-mobilenet-v2")
        .units(TpuUnits::ZERO)
        .build();
    let err = w.admit_stream(spec).unwrap_err();
    assert!(
        matches!(&err, DeployError::MalformedRequest(msg) if msg.contains("positive")),
        "{err}"
    );
    assert_eq!(w.active_streams(), 0);
    assert!(w.orchestrator().running_pods().is_empty());
}

// --- multi-model pipelines (paper §8 extension) ---

// UNet (2.3 MiB) then MobileNet V1 (3.5 MiB): the pair co-fits one
// TPU's parameter budget, unlike SSD-based pipelines.
fn segment_then_classify(name: &str, frames: u64) -> StreamSpec {
    StreamSpec::builder(name, "unet-v2")
        .then("mobilenet-v1")
        .frame_limit(frames)
        .build()
}

#[test]
fn pipeline_stream_runs_both_stages_per_frame() {
    let mut w = world(1, Features::all());
    let cam = w.admit_stream(segment_then_classify("pipe", 100)).unwrap();
    let results = w.run_to_completion(SimTime::from_secs(30));
    let report = results.report(cam).unwrap();
    assert_eq!(report.completed(), 100);
    assert!(report.met_fps(), "achieved {}", report.achieved_fps());
    // Every frame ran two inferences on the single TPU.
    assert_eq!(results.device_stats()[0].invocations(), 200);
    // Utilization ≈ (0.675 + 0.215) on one TPU.
    assert!(
        (results.average_utilization() - 0.89).abs() < 0.02,
        "got {}",
        results.average_utilization()
    );
}

#[test]
fn pipeline_same_tpu_hop_is_free() {
    // One TPU: both stages must land on it, so the inter-stage hop is
    // local and transmission equals a single-stage stream's.
    let mut w = world(1, Features::all());
    w.admit_stream(segment_then_classify("pipe", 80)).unwrap();
    let results = w.run_to_completion(SimTime::from_secs(30));
    // UNet's 256×256 input costs ≈ 6.1 ms for its single network hop.
    let trans = results.breakdowns().mean_ms(Phase::Transmission);
    assert!((trans - 6.1).abs() < 0.2, "single hop only, got {trans}");
    // The inference phase is the sum of both stage occupancies
    // (45 ms + 14.33 ms).
    let infer = results.breakdowns().mean_ms(Phase::Inference);
    assert!((infer - (45.0 + 14.33)).abs() < 0.5, "got {infer}");
}

#[test]
fn pipeline_spec_accessors() {
    let s = segment_then_classify("p", 1);
    assert_eq!(
        s.stage_models()
            .iter()
            .map(|m| m.as_str())
            .collect::<Vec<_>>(),
        vec!["unet-v2", "mobilenet-v1"]
    );
}

#[test]
fn pipeline_stream_removal_frees_all_stage_units() {
    let mut w = world(1, Features::all());
    let cam = w
        .admit_stream(segment_then_classify("pipe", 1_000_000))
        .unwrap();
    w.run_until(SimTime::from_secs(1));
    w.remove_stream(cam).unwrap();
    assert_eq!(w.scheduler().pool().total_free_units(), TpuUnits::ONE);
}

// --- NoScope-style difference detector (paper §1) ---

#[test]
fn frame_filter_reduces_tpu_utilization() {
    // Coral-Pie behind a 2/3-pass difference detector: the paper's §1
    // observation that utilization drops from ~30 % to ~20 %.
    let mut w = world(1, Features::all());
    let cam = w
        .admit_stream(
            StreamSpec::builder("cam", "ssd-mobilenet-v2")
                .units(TpuUnits::from_f64(0.235))
                .frame_filter(2.0 / 3.0, 7)
                .frame_limit(900)
                .build(),
        )
        .unwrap();
    let results = w.run_to_completion(SimTime::from_secs(90));
    let util = results.average_utilization();
    assert!(
        (util - 0.35 * 2.0 / 3.0).abs() < 0.02,
        "expected ≈ 0.233, got {util}"
    );
    // Every frame still completes (filtered ones finish client-side).
    let report = results.report(cam).unwrap();
    assert_eq!(report.completed(), 900);
    assert!(report.met_fps());
}

#[test]
fn frame_filter_with_full_pass_rate_is_transparent() {
    let mut w = world(1, Features::all());
    w.admit_stream(
        StreamSpec::builder("cam", "ssd-mobilenet-v2")
            .frame_filter(1.0, 3)
            .frame_limit(100)
            .build(),
    )
    .unwrap();
    let results = w.run_to_completion(SimTime::from_secs(30));
    assert!((results.average_utilization() - 0.35).abs() < 0.02);
    assert_eq!(results.device_stats()[0].invocations(), 100);
}

#[test]
fn filtered_frames_skip_the_breakdown_statistics() {
    let mut w = world(1, Features::all());
    w.admit_stream(
        StreamSpec::builder("cam", "ssd-mobilenet-v2")
            .units(TpuUnits::from_f64(0.2))
            .frame_filter(0.5, 11)
            .frame_limit(200)
            .build(),
    )
    .unwrap();
    let results = w.run_to_completion(SimTime::from_secs(60));
    let recorded = results.breakdowns().count();
    let invoked = results.device_stats()[0].invocations();
    assert_eq!(recorded, invoked, "only TPU-served frames are recorded");
    assert!(invoked < 200, "the filter must drop some frames");
    // Mean transmission still reflects full frames, not diluted zeros.
    use microedge_metrics::latency::Phase;
    assert!((results.breakdowns().mean_ms(Phase::Transmission) - 8.0).abs() < 0.2);
}

#[test]
fn source_resolution_scales_preprocessing() {
    use crate::client::SourceResolution;
    let mut w = world(1, Features::all());
    w.admit_stream(
        StreamSpec::builder("vga-cam", "ssd-mobilenet-v2")
            .source_resolution(SourceResolution::new(640, 480))
            .frame_limit(50)
            .build(),
    )
    .unwrap();
    let results = w.run_to_completion(SimTime::from_secs(30));
    let pre = results.breakdowns().mean_ms(Phase::PreProcess);
    // 640×480 walks far fewer pixels than 1080p: ≈ 1.5 + 0.52 ms.
    assert!((pre - 2.02).abs() < 0.05, "got {pre}");
}

#[test]
fn crashed_pod_units_return_only_after_reclamation_poll() {
    let mut w = world(1, Features::all());
    let cam = w.admit_stream(coral_pie("cam", 1_000_000)).unwrap();
    w.run_until(SimTime::from_secs(2));
    let pod = w.pod_of(cam).unwrap();
    w.crash_stream(cam).unwrap();
    // Units still held — the scheduler has not noticed the crash.
    assert_eq!(
        w.scheduler().pool().total_free_units(),
        TpuUnits::ONE - TpuUnits::from_f64(0.35)
    );
    assert!(
        w.admit_stream(coral_pie("replacement", 10)).is_ok(),
        "0.65 free still fits a 0.35 camera"
    );
    assert!(
        w.admit_stream(coral_pie("third", 10)).is_err(),
        "0.30 free does not fit another"
    );
    // The reclamation poll notices the crash and frees the units.
    assert_eq!(w.poll_reclamation(), vec![pod]);
    assert!(w.admit_stream(coral_pie("third", 10)).is_ok());
}

#[test]
fn per_stream_latency_statistics() {
    let mut w = world(1, Features::all());
    let cam = w.admit_stream(coral_pie("cam", 100)).unwrap();
    let results = w.run_to_completion(SimTime::from_secs(30));
    let latency = results.latency(cam).unwrap();
    assert_eq!(latency.count(), 100);
    // One uncontended camera: every frame costs exactly the Fig. 7b
    // total (≈ 39.3 ms).
    assert!((latency.mean() - 39.33).abs() < 0.1, "{}", latency.mean());
    assert!(latency.max().unwrap() < 40.0);
}

#[test]
fn lost_streams_can_be_restarted_when_capacity_returns() {
    let mut w = world(1, Features::all());
    let a = w.admit_stream(coral_pie("a", 1_000_000)).unwrap();
    let b = w.admit_stream(coral_pie("b", 1_000_000)).unwrap();
    w.run_until(SimTime::from_secs(2));
    // `a` crashes; before reclamation the restart cannot fit.
    w.crash_stream(a).unwrap();
    assert!(matches!(
        w.restart_stream(a),
        Err(DeployError::InsufficientTpu)
    ));
    w.poll_reclamation();
    let a2 = w.restart_stream(a).unwrap();
    assert_ne!(a2, a, "restart is a fresh stream id");
    assert_eq!(w.active_streams(), 2);
    // Restarting an active stream is refused.
    assert!(w.restart_stream(b).is_err());
    w.run_until(SimTime::from_secs(6));
    let results = w.finish(SimTime::from_secs(6));
    assert!(results.report(a2).unwrap().met_fps());
}

#[test]
fn admitted_load_keeps_queues_shallow() {
    // At exactly 1.0 declared and true load the backlog stays bounded
    // by the number of co-resident streams.
    let mut w = world(1, Features::all());
    for i in 0..2 {
        w.admit_stream(
            StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
                .frame_limit(600)
                .start_offset(SimDuration::from_millis(i * 29))
                .build(),
        )
        .unwrap();
    }
    let results = w.run_to_completion(SimTime::from_secs(60));
    assert!(results.all_met_fps());
    assert!(
        results.max_queue_depths()[0] <= 3,
        "bounded backlog, got {:?}",
        results.max_queue_depths()
    );
}

#[test]
fn understated_units_build_queues_and_violate_the_slo() {
    // The system trusts declared TPU units (paper §2: the input rate is
    // provided by the developer or profiled up front). A pod that lies —
    // declaring 0.2 units while actually generating 0.35 of work — gets
    // admitted five-to-a-TPU and drives it past saturation: the backlog
    // grows with run length and every stream misses 15 FPS.
    let mut w = world(1, Features::all());
    let mut cams = Vec::new();
    for i in 0..5 {
        cams.push(
            w.admit_stream(
                StreamSpec::builder(&format!("liar-{i}"), "ssd-mobilenet-v2")
                    .units(TpuUnits::from_f64(0.2))
                    .frame_limit(900)
                    .start_offset(SimDuration::from_millis(i * 13))
                    .build(),
            )
            .unwrap(),
        );
    }
    let results = w.run_to_completion(SimTime::from_secs(300));
    // True demand 5 × 0.35 = 1.75 on one TPU: completions cap at ~57 %.
    for cam in cams {
        assert!(
            !results.report(cam).unwrap().met_fps(),
            "an oversubscribed TPU cannot hold the SLO"
        );
    }
    assert!(
        results.max_queue_depths()[0] > 20,
        "backlog grows without bound, got {:?}",
        results.max_queue_depths()
    );
    assert!(results.average_utilization() > 0.99);
}

#[test]
fn drain_migrates_live_streams_with_zero_frame_loss() {
    let mut w = world(2, Features::all());
    let mut cams = Vec::new();
    for i in 0..2 {
        cams.push(
            w.admit_stream(
                StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
                    .frame_limit(300)
                    .start_offset(SimDuration::from_millis(i * 29))
                    .build(),
            )
            .unwrap(),
        );
    }
    // Both cameras share TPU 0; TPU 1 is empty.
    assert_eq!(
        w.scheduler().pool().account(TpuId(0)).load(),
        TpuUnits::from_f64(0.7)
    );
    w.run_until(SimTime::from_secs(5));
    let migrated = w.drain_tpu(TpuId(0)).unwrap();
    assert_eq!(migrated.len(), 2);
    let results = w.run_to_completion(SimTime::from_secs(60));
    assert_eq!(results.frames_dropped(), 0, "maintenance loses nothing");
    for cam in cams {
        let r = results.report(cam).unwrap();
        assert_eq!(r.completed(), 300);
        assert!(r.met_fps());
    }
}

#[test]
fn drain_rejects_when_fleet_cannot_absorb() {
    let mut w = world(1, Features::all());
    w.admit_stream(coral_pie("cam", 100)).unwrap();
    assert!(matches!(
        w.drain_tpu(TpuId(0)),
        Err(DeployError::InsufficientTpu)
    ));
    // Still schedulable and still running.
    assert_eq!(w.active_streams(), 1);
    let results = w.run_to_completion(SimTime::from_secs(30));
    assert!(results.all_met_fps());
}

#[test]
fn run_summary_renders_per_stream_rows() {
    let mut w = world(1, Features::all());
    w.admit_stream(coral_pie("report-cam", 50)).unwrap();
    let results = w.run_to_completion(SimTime::from_secs(30));
    let text = results.render_summary();
    assert!(text.contains("report-cam"));
    assert!(text.contains("met"));
    assert!(text.contains("avg TPU utilization"));
    assert!(text.contains("0 frames dropped"));
}

// ------------------------------------------------------------------
// Chaos mode
// ------------------------------------------------------------------

use crate::faults::{ChaosConfig, FaultEvent, FaultKind, FaultSchedule};
use crate::pool::Allocation;

/// Endless stream (no frame limit) — chaos runs end at the horizon.
fn cam(name: &str) -> StreamSpec {
    StreamSpec::builder(name, "ssd-mobilenet-v2").build()
}

fn scripted(events: Vec<(u64, FaultKind)>) -> FaultSchedule {
    FaultSchedule::scripted(
        events
            .into_iter()
            .map(|(secs, kind)| FaultEvent {
                at: SimTime::from_secs(secs),
                kind,
            })
            .collect(),
    )
}

#[test]
fn chaos_fault_is_detected_only_after_the_lease_expires() {
    let mut w = world(2, Features::all());
    let cam0 = w.admit_stream(cam("cam-0")).unwrap();
    w.enable_chaos(ChaosConfig::heal_only());
    w.inject_faults(&scripted(vec![(10, FaultKind::TpuFail(TpuId(0)))]));
    // Fault at 10 s; k3s default lease expires at 14 s. In between the
    // stream is interrupted but not yet recovered.
    w.run_until(SimTime::from_secs(12));
    assert_eq!(w.stream_phase(cam0), Some(StreamPhase::Interrupted));
    let results = w.run_to_completion(SimTime::from_secs(60));
    assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Active));
    assert_eq!(results.recovery().count(), 1);
    let detection = results
        .recovery()
        .mean_ms(microedge_metrics::recovery::RecoveryPhase::Detection);
    assert!(
        (3_999.0..=4_001.0).contains(&detection),
        "detection should be the 4 s lease, got {detection} ms"
    );
    let avail = results.availability(cam0).unwrap();
    assert!(avail.downtime > SimDuration::from_secs(4), "{avail:?}");
    assert_eq!(avail.outages, 1);
    assert!(!avail.lost);
}

#[test]
fn chaos_blip_shorter_than_the_lease_goes_undetected() {
    let mut w = world(2, Features::all());
    let cam0 = w.admit_stream(cam("cam-0")).unwrap();
    w.enable_chaos(ChaosConfig::heal_only());
    w.inject_faults(&scripted(vec![
        (10, FaultKind::TpuFail(TpuId(0))),
        (12, FaultKind::TpuRepair(TpuId(0))),
    ]));
    let results = w.run_to_completion(SimTime::from_secs(60));
    // The control plane never noticed: no recovery was recorded, the
    // placement is intact, and downtime is exactly the blip.
    assert_eq!(results.recovery().count(), 0);
    assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Active));
    let avail = results.availability(cam0).unwrap();
    assert_eq!(avail.downtime, SimDuration::from_secs(2));
    assert_eq!(avail.outages, 1);
}

#[test]
fn chaos_no_heal_loses_displaced_streams_for_good() {
    let mut w = world(1, Features::all());
    let cam0 = w.admit_stream(cam("cam-0")).unwrap();
    w.enable_chaos(ChaosConfig::no_heal());
    w.inject_faults(&scripted(vec![(10, FaultKind::TpuFail(TpuId(0)))]));
    // The queue drains once the stream is lost; finalise at the full
    // horizon so downtime covers the rest of the run.
    w.run_until(SimTime::from_secs(60));
    let results = w.finish(SimTime::from_secs(60));
    assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Lost));
    assert_eq!(results.lost_streams(), vec![cam0]);
    let avail = results.availability(cam0).unwrap();
    assert!(avail.lost);
    // Down from the fault to the end of the run.
    assert_eq!(avail.downtime, SimDuration::from_secs(50));
}

#[test]
fn chaos_heal_parks_until_capacity_returns() {
    let mut w = world(1, Features::all());
    let cam0 = w.admit_stream(cam("cam-0")).unwrap();
    w.enable_chaos(ChaosConfig::heal_only());
    w.inject_faults(&scripted(vec![
        (10, FaultKind::TpuFail(TpuId(0))),
        (30, FaultKind::TpuRepair(TpuId(0))),
    ]));
    w.run_until(SimTime::from_secs(20));
    // The only TPU is gone: the stream waits in the restart queue.
    assert_eq!(w.stream_phase(cam0), Some(StreamPhase::Parked));
    assert_eq!(w.pending_restarts(), vec![cam0]);
    let results = w.run_to_completion(SimTime::from_secs(60));
    assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Active));
    assert!(results.parked_streams().is_empty());
    let avail = results.availability(cam0).unwrap();
    assert_eq!(avail.restarts, 1);
    assert!(!avail.lost);
    assert!(avail.downtime >= SimDuration::from_secs(20));
}

#[test]
fn chaos_degradation_makes_room_on_the_surviving_fleet() {
    // Four 0.35-unit streams over two TPUs (1.40 units). Losing one
    // TPU leaves 1.0 units: impossible at full rate, possible with
    // fairness-tier degradation.
    let mut w = world(2, Features::all());
    let cams: Vec<StreamId> = (0..4)
        .map(|i| w.admit_stream(cam(&format!("cam-{i}"))).unwrap())
        .collect();
    w.enable_chaos(ChaosConfig::heal_degrade());
    w.inject_faults(&scripted(vec![(10, FaultKind::TpuFail(TpuId(0)))]));
    let results = w.run_to_completion(SimTime::from_secs(120));
    assert!(results.lost_streams().is_empty(), "degradation saves all");
    assert!(results.parked_streams().is_empty());
    let degraded = cams
        .iter()
        .filter(|&&c| results.stream_phase(c) == Some(StreamPhase::Degraded))
        .count();
    assert!(degraded >= 2, "someone must run at reduced rate");
    for &c in &cams {
        let phase = results.stream_phase(c).unwrap();
        assert!(
            matches!(phase, StreamPhase::Active | StreamPhase::Degraded),
            "{c} ended {phase}"
        );
    }
}

#[test]
fn chaos_degraded_streams_upgrade_after_repair() {
    let mut w = world(2, Features::all());
    let cams: Vec<StreamId> = (0..4)
        .map(|i| w.admit_stream(cam(&format!("cam-{i}"))).unwrap())
        .collect();
    w.enable_chaos(ChaosConfig::heal_degrade());
    w.inject_faults(&scripted(vec![
        (10, FaultKind::TpuFail(TpuId(0))),
        (60, FaultKind::TpuRepair(TpuId(0))),
    ]));
    let results = w.run_to_completion(SimTime::from_secs(180));
    for &c in &cams {
        assert_eq!(
            results.stream_phase(c),
            Some(StreamPhase::Active),
            "full rate restores after repair"
        );
    }
    for avail in results.availabilities().values() {
        assert!(!avail.lost);
    }
}

#[test]
fn chaos_tpu_failing_mid_swap_does_not_resurrect_the_stream() {
    // cam-0 recovers from TPU 0 onto another TPU; that destination then
    // fails *during* the parameter swap-in. The stale swap-in must not
    // flip the stream live on a dead placement.
    let mut w = world(3, Features::all());
    let cam0 = w.admit_stream(cam("cam-0")).unwrap();
    w.enable_chaos(ChaosConfig::heal_only());
    w.inject_faults(&scripted(vec![(10, FaultKind::TpuFail(TpuId(0)))]));
    // Detection at 14 s; swap-in needs RPCs + parameter streaming.
    w.run_until(SimTime::from_secs(14) + SimDuration::from_millis(50));
    let dest = w
        .scheduler()
        .assignment(w.pod_of(cam0).unwrap())
        .expect("replanned")
        .first()
        .map(Allocation::tpu)
        .unwrap();
    assert_ne!(dest, TpuId(0));
    // Kill the destination before the swap-in event fires.
    w.inject_faults(&FaultSchedule::scripted(vec![FaultEvent {
        at: w.now() + SimDuration::from_millis(1),
        kind: FaultKind::TpuFail(dest),
    }]));
    let results = w.run_to_completion(SimTime::from_secs(120));
    // It must end up serving from the third TPU, after two recoveries.
    assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Active));
    assert_eq!(results.recovery().count(), 1, "only one recovery completed");
    let avail = results.availability(cam0).unwrap();
    assert_eq!(avail.outages, 1, "one continuous outage, not two");
}

#[test]
fn chaos_node_fault_parks_hosted_streams() {
    let mut w = world(2, Features::all());
    let cam0 = w.admit_stream(cam("cam-0")).unwrap();
    let node = w.orchestrator().node_of(w.pod_of(cam0).unwrap()).unwrap();
    w.enable_chaos(ChaosConfig::heal_only());
    w.inject_faults(&scripted(vec![
        (10, FaultKind::NodeFail(node)),
        (40, FaultKind::NodeRepair(node)),
    ]));
    let results = w.run_to_completion(SimTime::from_secs(90));
    // The hosted pod was evicted after the lease; the reconciler
    // re-admitted the stream on surviving capacity.
    assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Active));
    let avail = results.availability(cam0).unwrap();
    assert_eq!(avail.restarts, 1);
    assert!(avail.downtime >= SimDuration::from_secs(4), "{avail:?}");
}

#[test]
fn chaos_link_blip_interrupts_without_control_plane_action() {
    let mut w = world(2, Features::all());
    let cam0 = w.admit_stream(cam("cam-0")).unwrap();
    let node = w.orchestrator().node_of(w.pod_of(cam0).unwrap()).unwrap();
    w.enable_chaos(ChaosConfig::heal_only());
    w.inject_faults(&scripted(vec![
        (10, FaultKind::LinkFail(node)),
        (12, FaultKind::LinkRepair(node)),
    ]));
    let results = w.run_to_completion(SimTime::from_secs(60));
    assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Active));
    assert_eq!(results.recovery().count(), 0, "partition healed in time");
    assert_eq!(
        results.availability(cam0).unwrap().downtime,
        SimDuration::from_secs(2)
    );
}

#[test]
fn a_fault_repaired_within_one_inference_drops_its_frame_once() {
    // A fault and its repair 100 µs later, at offsets across the first
    // frames' pipelines. When the fault lands mid-inference, the killed
    // frame's `Done` is still queued at the repair: it must neither
    // complete a frame started after the repair nor find the service idle.
    // A link fault on the TPU's host node reaches the same path.
    let host = world(1, Features::all()).scheduler().pool().accounts()[0].node();
    let tpu = TpuId(0);
    let pairs = [
        (FaultKind::TpuFail(tpu), FaultKind::TpuRepair(tpu)),
        (FaultKind::LinkFail(host), FaultKind::LinkRepair(host)),
    ];
    for (fail, repair) in pairs {
        for offset_us in (0..70_000).step_by(250).chain([13_958]) {
            let mut w = world(1, Features::all());
            let cam0 = w.admit_stream(coral_pie("cam-0", 10)).unwrap();
            w.enable_chaos(ChaosConfig::heal_degrade());
            let at = SimTime::from_micros(offset_us);
            w.inject_faults(&FaultSchedule::scripted(vec![
                FaultEvent { at, kind: fail },
                FaultEvent {
                    at: at + SimDuration::from_micros(100),
                    kind: repair,
                },
            ]));
            let results = w.run_to_completion(SimTime::from_secs(5));
            let completed = results.report(cam0).unwrap().completed();
            assert_eq!(
                completed + results.frames_dropped(),
                10,
                "{fail:?} at {offset_us} µs"
            );
        }
    }
}

#[test]
fn restart_stream_links_lineage() {
    let mut w = world(1, Features::all());
    let old = w.admit_stream(cam("cam-0")).unwrap();
    w.run_until(SimTime::from_secs(10));
    w.crash_stream(old).unwrap();
    w.poll_reclamation();
    let new = w.restart_stream(old).unwrap();
    assert_ne!(old, new);
    assert_eq!(w.stream_root(new), Some(old));
    // The superseded id cannot be restarted again.
    assert!(matches!(
        w.restart_stream(old),
        Err(DeployError::InvalidStreamState(_, _))
    ));
    let results = w.run_to_completion(SimTime::from_secs(30));
    assert_eq!(results.successor(old), Some(new));
    assert_eq!(results.stream_phase(old), Some(StreamPhase::Superseded));
    assert!(results.latency(old).unwrap().count() > 0);
    assert!(results.latency(new).unwrap().count() > 0);
}

#[test]
fn fail_tpu_is_idempotent_and_tolerates_unknown_ids() {
    let mut w = world(1, Features::all());
    w.admit_stream(cam("cam-0")).unwrap();
    assert!(!w.fail_tpu(TpuId(0)).is_empty());
    assert!(w.fail_tpu(TpuId(0)).is_empty(), "second failure is a no-op");
    assert!(w.fail_tpu(TpuId(999)).is_empty(), "unknown id is a no-op");
    assert!(
        w.fail_node(NodeId(9_999)).is_empty(),
        "unknown node is a no-op"
    );
}

#[test]
fn chaos_runs_are_deterministic() {
    let run = || {
        let cluster = ClusterBuilder::new().trpis(3).vrpis(6).build();
        let mut w = World::new(cluster.clone(), Features::all());
        let mut ids = Vec::new();
        for i in 0..5 {
            ids.push(w.admit_stream(cam(&format!("cam-{i}"))).unwrap());
        }
        w.enable_chaos(ChaosConfig::heal_degrade());
        let model = crate::faults::FaultModel {
            tpu: Some(crate::faults::ClassRates::new(
                SimDuration::from_secs(60),
                SimDuration::from_secs(20),
            )),
            node: Some(crate::faults::ClassRates::new(
                SimDuration::from_secs(300),
                SimDuration::from_secs(30),
            )),
            link: Some(crate::faults::ClassRates::new(
                SimDuration::from_secs(120),
                SimDuration::from_secs(5),
            )),
        };
        let schedule =
            crate::faults::FaultSchedule::generate(&model, &cluster, SimTime::from_secs(300), 42);
        w.inject_faults(&schedule);
        let results = w.run_to_completion(SimTime::from_secs(300));
        let fingerprint: Vec<String> = ids
            .iter()
            .map(|&id| {
                let avail = results.availability(id);
                format!(
                    "{id}:{:?}:{:?}",
                    results.stream_phase(id),
                    avail.map(|a| (a.downtime, a.degraded, a.outages, a.restarts, a.lost)),
                )
            })
            .collect();
        (results.events_processed(), fingerprint)
    };
    assert_eq!(run(), run(), "identical seeds replay identically");
}

#[test]
fn streams_read_by_names_the_records_each_handler_reads() {
    let mut w = world(1, Features::all());
    let (a, b) = (StreamId::from_index(3), StreamId::from_index(7));
    let frame = |stream: StreamId| InFlight {
        stream,
        stage: 0,
        pre: SimDuration::ZERO,
        trans_acc: SimDuration::ZERO,
        infer_acc: SimDuration::ZERO,
        arrived: SimTime::ZERO,
    };
    let tpu = TpuId(0);
    assert_eq!(w.streams_read_by(&Ev::Frame(a)), [Some(a), None]);
    assert_eq!(
        w.streams_read_by(&Ev::Arrive(tpu, frame(b))),
        [Some(b), None]
    );

    // A completion reads the finishing frame's stream, then the stream
    // of the queue head that `start_next` begins.
    assert_eq!(w.streams_read_by(&Ev::Done(tpu, 0)), [None, None]);
    w.services[tpu.index()].queue.push_back(frame(b));
    assert_eq!(w.streams_read_by(&Ev::Done(tpu, 0)), [None, Some(b)]);
    w.services[tpu.index()].current = Some(frame(a));
    assert_eq!(w.streams_read_by(&Ev::Done(tpu, 0)), [Some(a), Some(b)]);
    w.services[tpu.index()].queue.clear();
    assert_eq!(w.streams_read_by(&Ev::Done(tpu, 0)), [Some(a), None]);
    assert_eq!(w.streams_read_by(&Ev::Done(TpuId(9), 0)), [None, None]);

    let fault = FaultKind::TpuFail(tpu);
    for ev in [
        Ev::Fault(fault),
        Ev::Detect {
            kind: fault,
            epoch: 1,
        },
        Ev::SwapIn(a, Swap::new(1, &SwapCause::Migration), SwapCause::Migration),
        Ev::Reconcile,
        Ev::Command(WorldCommand::Remove(a)),
        Ev::Ingest(SimDuration::ZERO),
    ] {
        assert_eq!(w.streams_read_by(&ev), [None, None], "{ev:?}");
    }
}

#[test]
fn a_blip_right_after_a_migration_resumes_without_a_recovery() {
    // Two TPUs, four 0.4-unit cameras: two mobilenet-v2 then two
    // mobilenet-v1. Removing one of each leaves one pod per TPU, and one
    // defrag cycle consolidates them onto one TPU, guarding each moved
    // stream for the move's priced cost (over a second). A 20 ms blip on
    // that TPU inside the guard is a blip like any other: the streams
    // resume at the repair, and no recovery ran.
    let mut w = world(2, Features::co_compiling_only());
    w.enable_chaos(ChaosConfig::heal_degrade());
    w.enable_defrag(crate::defrag::DefragConfig {
        interval_epochs: 1,
        ..Default::default()
    });
    let models = [
        "mobilenet-v2",
        "mobilenet-v2",
        "mobilenet-v1",
        "mobilenet-v1",
    ];
    let cams: Vec<StreamId> = (0..4)
        .map(|i| {
            let spec = StreamSpec::builder(&format!("cam-{i}"), models[i])
                .units(TpuUnits::from_micro(400_000))
                .build();
            w.admit_stream(spec).unwrap()
        })
        .collect();
    let tpu_of =
        |w: &World, id: StreamId| w.scheduler().assignment(w.pod_of(id).unwrap()).unwrap()[0].tpu();
    w.run_until(SimTime::from_secs(1));
    w.remove_stream(cams[0]).unwrap();
    w.remove_stream(cams[2]).unwrap();
    let kept = [cams[1], cams[3]];
    let before = kept.map(|c| tpu_of(&w, c));
    assert_ne!(before[0], before[1]);
    w.defrag_epoch();
    let after = kept.map(|c| tpu_of(&w, c));
    assert_eq!(after[0], after[1], "one TPU holds both pods");
    let moved = if after[0] == before[0] {
        kept[1]
    } else {
        kept[0]
    };
    let t0 = w.now();
    w.inject_faults(&FaultSchedule::scripted(vec![
        FaultEvent {
            at: t0 + SimDuration::from_millis(10),
            kind: FaultKind::TpuFail(after[0]),
        },
        FaultEvent {
            at: t0 + SimDuration::from_millis(30),
            kind: FaultKind::TpuRepair(after[0]),
        },
    ]));
    w.run_until(t0 + SimDuration::from_millis(100));
    for c in kept {
        assert_eq!(w.stream_phase(c), Some(StreamPhase::Active), "{c}");
    }
    let results = w.run_to_completion(t0 + SimDuration::from_secs(5));
    let avail = results.availability(moved).unwrap();
    assert_eq!(avail.downtime, SimDuration::from_millis(20), "{avail:?}");
    assert_eq!(results.recovery().count(), 0);
}
