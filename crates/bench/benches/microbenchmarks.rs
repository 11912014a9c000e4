//! Core-operation micro-benchmarks: the per-operation costs that bound the
//! simulator's and the control plane's throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use microedge_bench::runner::experiment_cluster;
use microedge_core::admission::{reference, AdmissionPolicy, FirstFit, PlanBuffer};
use microedge_core::config::Features;
use microedge_core::lbs::LbService;
use microedge_core::pool::{Allocation, TpuPool};
use microedge_core::units::TpuUnits;
use microedge_models::catalog::ssd_mobilenet_v2;
use microedge_sim::event::EventQueue;
use microedge_sim::rng::DetRng;
use microedge_sim::time::{SimDuration, SimTime};
use microedge_tpu::device::TpuId;
use microedge_tpu::spec::TpuSpec;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("micro/event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                q.schedule_at(SimTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        })
    });
}

fn bench_event_queue_1m(c: &mut Criterion) {
    // The queue at scale: a million pending events spread over ~100
    // simulated seconds, pushed in a scrambled order and drained.
    c.bench_function("micro/event_queue_push_pop_1m", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000_000u64 {
                q.schedule_at(SimTime::from_nanos((i * 7919) % 100_000_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        })
    });
}

fn bench_epoch_barrier_exchange(c: &mut Criterion) {
    // The sharded replay's epoch machinery at a million events: 8 shard
    // queues each holding 125k events, drained epoch by epoch with a
    // barrier `advance_to` and a sorted cross-shard exchange (every 8th
    // event emits a message ring-routed to the next shard), against the
    // unsharded baseline of one queue popping the same million events.
    // The gap between the two is the price of determinism-preserving
    // sharding — barrier bookkeeping, exchange sort, re-scheduling.
    const EVENTS: u64 = 1_000_000;
    const SHARDS: u64 = 8;
    const SPAN_NS: u64 = 10_000_000_000; // events spread over 10 simulated seconds
    const FORWARDED: u64 = 1 << 63; // high bit marks a delivered message

    c.bench_function("micro/epoch_unsharded_queue_1m", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..EVENTS {
                q.schedule_at(SimTime::from_nanos((i * 7919) % SPAN_NS), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        })
    });

    c.bench_function("micro/epoch_sharded_8x125k_exchange_1m", |b| {
        let epoch = SimDuration::from_millis(500);
        b.iter(|| {
            let mut queues: Vec<EventQueue<u64>> = (0..SHARDS).map(|_| EventQueue::new()).collect();
            for i in 0..EVENTS {
                queues[(i % SHARDS) as usize]
                    .schedule_at(SimTime::from_nanos((i * 7919) % SPAN_NS), i);
            }
            let mut sum = 0u64;
            let mut now = SimTime::from_nanos(0);
            let mut msgs: Vec<(u64, SimTime, u64)> = Vec::new();
            loop {
                let barrier = now.checked_add(epoch).expect("epoch barrier overflows");
                for (src, q) in queues.iter_mut().enumerate() {
                    while let Some((t, v)) = q.pop_due(barrier) {
                        sum = sum.wrapping_add(v & !FORWARDED);
                        if v & FORWARDED == 0 && v.is_multiple_of(8) {
                            msgs.push((src as u64, t, v));
                        }
                    }
                    q.advance_to(barrier);
                }
                msgs.sort_unstable_by_key(|&(src, t, v)| (t, src, v));
                for (src, t, v) in msgs.drain(..) {
                    let dest = ((src + 1) % SHARDS) as usize;
                    queues[dest].schedule_at(t.max(barrier), v | FORWARDED);
                }
                now = barrier;
                if queues.iter().all(EventQueue::is_empty) {
                    break;
                }
            }
            sum
        })
    });
}

fn bench_stream_lookup(c: &mut Criterion) {
    // The dispatch loop resolves a StreamId on every event. The runtime
    // stores streams in a slab (Vec indexed by id); this pins the gap to
    // the BTreeMap it replaced.
    const STREAMS: u64 = 512;
    let slab: Vec<u64> = (0..STREAMS).map(|i| i * 3).collect();
    let map: std::collections::BTreeMap<u64, u64> = (0..STREAMS).map(|i| (i, i * 3)).collect();
    let ids: Vec<u64> = (0..4096u64).map(|i| (i * 2654435761) % STREAMS).collect();
    c.bench_function("micro/stream_lookup_slab_4k", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for &id in &ids {
                sum = sum.wrapping_add(slab[id as usize]);
            }
            sum
        })
    });
    c.bench_function("micro/stream_lookup_btreemap_4k", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for &id in &ids {
                sum = sum.wrapping_add(map[&id]);
            }
            sum
        })
    });
}

fn bench_units(c: &mut Criterion) {
    c.bench_function("micro/tpu_units_duty_cycle", |b| {
        let service = SimDuration::from_nanos(23_333_333);
        let period = SimDuration::from_nanos(66_666_667);
        b.iter(|| TpuUnits::from_duty_cycle(service, period))
    });
}

fn bench_lbs(c: &mut Criterion) {
    let allocations: Vec<Allocation> = (0..6)
        .map(|i| {
            Allocation::new(
                TpuId(i),
                TpuUnits::from_micro(100_000 + u64::from(i) * 37_000),
            )
        })
        .collect();
    let mut lbs = LbService::from_allocations(&allocations);
    c.bench_function("micro/lbs_next_6_targets", |b| b.iter(|| lbs.next()));
}

fn bench_admission(c: &mut Criterion) {
    for tpus in [6u32, 100] {
        let pool = TpuPool::from_cluster(&experiment_cluster(tpus), TpuSpec::coral_usb());
        let model = ssd_mobilenet_v2();
        let mut policy = FirstFit::new();
        c.bench_function(format!("micro/admission_plan_{tpus}_tpus"), |b| {
            b.iter(|| policy.plan(&pool, &model, TpuUnits::from_f64(0.35), Features::all()))
        });
    }
}

fn bench_admission_indexed_vs_linear(c: &mut Criterion) {
    // The control-plane fast path on its adversarial workload: a 4096-TPU
    // fleet where every TPU but the last is at 0.75 load, so a 0.35 plan
    // fits only on the final TPU. The linear reference walks 4095
    // accounts; the indexed policy makes one capacity-index descent. The
    // PR's acceptance bar — indexed ≥ 10x faster than linear at 4096 —
    // is read directly off these two numbers.
    const TPUS: u32 = 4096;
    let mut pool = TpuPool::from_cluster(&experiment_cluster(TPUS), TpuSpec::coral_usb());
    let model = ssd_mobilenet_v2();
    let load = TpuUnits::from_f64(0.75);
    let preload: Vec<Allocation> = pool
        .accounts()
        .iter()
        .take(TPUS as usize - 1)
        .map(|account| Allocation::new(account.id(), load))
        .collect();
    pool.commit(&model, &preload);
    let units = TpuUnits::from_f64(0.35);

    let mut indexed = FirstFit::new();
    let mut linear = reference::FirstFit::new();
    assert_eq!(
        indexed.plan(&pool, &model, units, Features::all()),
        linear.plan(&pool, &model, units, Features::all()),
        "indexed and reference plans diverged"
    );

    let mut buffer = PlanBuffer::new();
    c.bench_function("micro/admission_indexed_4096_tpus", |b| {
        b.iter(|| indexed.plan_into(&pool, &model, units, Features::all(), &mut buffer))
    });
    c.bench_function("micro/admission_linear_4096_tpus", |b| {
        b.iter(|| linear.plan_into(&pool, &model, units, Features::all(), &mut buffer))
    });
}

fn bench_defrag_planner(c: &mut Criterion) {
    // The background defragmenter's hot path on its adversarial workload:
    // a 4096-TPU fleet after heavy churn, every TPU left holding one
    // 0.25-unit straggler (0.75 free but nothing whole). `plan_evict`
    // prices one donor's full eviction — scratch-pool clone plus best-fit
    // receiver planning — and `donor_candidates` is the capacity-index
    // scan that orders the cycle's donors. Both run at epoch barriers, so
    // their cost bounds how much repacking a 500 ms barrier can afford.
    use microedge_core::defrag::donor_candidates;
    use microedge_core::scheduler::ExtendedScheduler;
    use microedge_models::catalog::Catalog;
    use microedge_orch::lifecycle::Orchestrator;
    use microedge_orch::pod::{PodSpec, ResourceRequest, EXT_MODEL, EXT_TPU_UNITS};

    const TPUS: u32 = 4096;
    let cluster = experiment_cluster(TPUS);
    let mut sched =
        ExtendedScheduler::new(&cluster, Catalog::builtin(), Features::co_compiling_only());
    let mut orch = Orchestrator::new(cluster);
    let mut pods = Vec::new();
    for i in 0..TPUS * 4 {
        let spec = PodSpec::builder(format!("cam-{i}"), "coral-pie:latest")
            .resources(ResourceRequest::camera_default())
            .extension(EXT_MODEL, "mobilenet-v1")
            .extension(EXT_TPU_UNITS, "0.25")
            .build();
        pods.push(
            sched
                .deploy(&mut orch, spec)
                .expect("pool sized to fit")
                .pod(),
        );
    }
    // Churn: keep one straggler per TPU, tear the rest down.
    let mut keeper_seen = std::collections::BTreeSet::new();
    for pod in pods {
        let tpu = sched.assignment(pod).expect("pod is live")[0].tpu();
        if !keeper_seen.insert(tpu) {
            sched.teardown(&mut orch, pod).expect("live pod tears down");
        }
    }
    assert_eq!(sched.pool().used_tpus(), TPUS as usize);

    let donor = TpuId(0);
    c.bench_function("micro/defrag_plan_evict_4096_fragmented", |b| {
        b.iter(|| sched.plan_evict(donor).expect("donor load fits elsewhere"))
    });
    c.bench_function("micro/defrag_donor_scan_4096_fragmented", |b| {
        b.iter(|| donor_candidates(sched.pool()).len())
    });
}

fn bench_rng(c: &mut Criterion) {
    let mut rng = DetRng::seed_from(1);
    c.bench_function("micro/rng_exponential", |b| b.iter(|| rng.exponential(0.5)));
}

fn bench_telemetry_sketch_vs_exact(c: &mut Criterion) {
    // The per-completion telemetry path at a million samples: the
    // constant-memory log-linear sketch against the sample-retaining exact
    // histogram it replaced, for both recording and percentile queries.
    use microedge_sim::stats::{Histogram, LogLinearSketch};
    const SAMPLES: usize = 1_000_000;
    let mut rng = DetRng::seed_from(7);
    let latencies: Vec<f64> = (0..SAMPLES)
        .map(|_| 5.0 + rng.exponential(1.0 / 25.0))
        .collect();
    c.bench_function("micro/telemetry_sketch_record_1m", |b| {
        b.iter(|| {
            let mut s = LogLinearSketch::new();
            for &v in &latencies {
                s.record(v);
            }
            s.count()
        })
    });
    c.bench_function("micro/telemetry_exact_record_1m", |b| {
        b.iter(|| {
            let mut h = Histogram::new();
            for &v in &latencies {
                h.record(v);
            }
            h.count()
        })
    });
    let sketch: LogLinearSketch = latencies.iter().copied().collect();
    let exact: Histogram = latencies.iter().copied().collect();
    c.bench_function("micro/telemetry_sketch_p99_1m", |b| {
        b.iter(|| sketch.percentile(99.0))
    });
    c.bench_function("micro/telemetry_exact_p99_1m", |b| {
        // The clone is part of the honest cost: the exact histogram's
        // percentile sorts its retained samples, so a fresh (unsorted)
        // copy is what the recorder hands it.
        b.iter(|| exact.clone().percentile(99.0))
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_1m,
    bench_epoch_barrier_exchange,
    bench_stream_lookup,
    bench_units,
    bench_lbs,
    bench_admission,
    bench_admission_indexed_vs_linear,
    bench_defrag_planner,
    bench_rng,
    bench_telemetry_sketch_vs_exact
);
criterion_main!(benches);
