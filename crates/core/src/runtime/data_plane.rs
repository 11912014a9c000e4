//! The data plane (paper §5): each TPU's service (a FIFO queue, run to
//! completion), the per-frame handlers that carry a frame from its camera
//! through every pipeline stage's TPU, and the event loop that runs them.
//! This is the replay's hot path, so panicking constructs are denied here
//! and each remaining site says why it cannot fire.

#![deny(clippy::indexing_slicing, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;

use microedge_metrics::latency::LatencyBreakdown;
use microedge_models::profile::ModelProfile;
use microedge_sim::time::{SimDuration, SimTime};
use microedge_tpu::cocompile::{CacheAllocation, CoCompiler};
use microedge_tpu::device::{TpuDevice, TpuId};

use super::{Ev, FrameExport, Lifecycle, StreamId, World};
use crate::pool::Allocation;

#[derive(Debug, Clone)]
pub(super) struct InFlight {
    pub(super) stream: StreamId,
    pub(super) stage: usize,
    pub(super) pre: SimDuration,
    pub(super) trans_acc: SimDuration,
    pub(super) infer_acc: SimDuration,
    pub(super) arrived: SimTime,
}

#[derive(Debug)]
pub(super) struct ServiceRuntime {
    pub(super) device: TpuDevice,
    pub(super) queue: VecDeque<InFlight>,
    pub(super) current: Option<InFlight>,
    pub(super) alive: bool,
    /// Kill generation, bumped by every `kill_tpu_data_plane`: a `Done`
    /// carries the generation its inference started in, so one whose frame
    /// a fault dropped is ignored even if the service is back by then.
    pub(super) kills: u32,
    pub(super) max_depth: usize,
}

impl World {
    /// Kills a TPU's data plane: queued and executing frames are dropped
    /// and the service stops accepting traffic. Control-plane state is
    /// untouched.
    pub(super) fn kill_tpu_data_plane(&mut self, now: SimTime, tpu: TpuId) {
        #[expect(clippy::indexing_slicing, reason = "callers pass a TPU of this pool")]
        let svc = &mut self.services[tpu.index()];
        svc.alive = false;
        svc.kills = svc.kills.wrapping_add(1);
        self.frames_dropped += svc.queue.len() as u64;
        svc.queue.clear();
        if svc.current.take().is_some() {
            self.frames_dropped += 1;
            self.fleet.tracker_mut(tpu.index()).end_busy(now);
        }
    }

    /// Processes all events up to and including `until`.
    ///
    /// The first pop at each instant makes that instant's whole batch due
    /// (see [`EventQueue::due`](microedge_sim::event::EventQueue::due));
    /// before dispatching it, the loop reads the stream records the rest of
    /// the batch's handlers will touch, so their cache misses overlap in one
    /// pass instead of stalling one handler each. The pass only reads, so
    /// it changes no outcome.
    pub fn run_until(&mut self, until: SimTime) {
        let mut instant = None;
        while let Some((now, ev)) = self.queue.pop_due(until) {
            if instant != Some(now) {
                instant = Some(now);
                self.warm_due();
            }
            self.dispatch(now, ev);
        }
    }

    /// Loads the stream records that the handlers of the queue's due events
    /// read (see [`World::streams_read_by`]); independent loads in one loop
    /// overlap their misses.
    fn warm_due(&self) {
        self.warm_streams(
            self.queue
                .due()
                .flat_map(|ev| self.streams_read_by(ev).into_iter().flatten()),
        );
    }

    /// Loads the stream records that the handlers of every event pending
    /// at or before `until` read, before [`World::run_until`]`(until)`
    /// runs them. It makes two passes: one collects the ids from the
    /// events' slab slots, the next reads the records. The loads within
    /// each pass do not depend on one another, so their misses overlap. A
    /// sharded replay calls this at each epoch start, because the other
    /// shards' epochs have evicted this shard's working set. It only
    /// reads, so it changes no outcome.
    pub fn warm_until(&self, until: SimTime) {
        let ids: Vec<StreamId> = self
            .queue
            .pending_until(until)
            .flat_map(|ev| self.streams_read_by(ev).into_iter().flatten())
            .collect();
        self.warm_streams(ids);
    }

    /// Reads each of `ids`' records ([`StreamRuntime::warm`]), folded into
    /// one value so the loads are not optimised away.
    fn warm_streams(&self, ids: impl IntoIterator<Item = StreamId>) {
        let fold = ids
            .into_iter()
            .filter_map(|id| self.streams.get(id.index()))
            .fold(0, |fold, stream| fold ^ stream.warm());
        std::hint::black_box(fold);
    }

    /// The streams whose records `ev`'s handler reads: a frame's own
    /// stream; an arrival's stream, whose profile `start_next` reads; and
    /// for a completion, the finishing frame's stream and that of the
    /// frame `start_next` begins next. Control events read none on the
    /// per-frame path.
    pub(super) fn streams_read_by(&self, ev: &Ev) -> [Option<StreamId>; 2] {
        match ev {
            Ev::Frame(id) => [Some(*id), None],
            Ev::Arrive(_, inflight) => [Some(inflight.stream), None],
            Ev::Done(tpu, _) => self.services.get(tpu.index()).map_or([None, None], |svc| {
                [
                    svc.current.as_ref().map(|f| f.stream),
                    svc.queue.front().map(|f| f.stream),
                ]
            }),
            _ => [None, None],
        }
    }

    /// Drains the cross-shard outbox: every completion an export-flagged
    /// stream recorded since the previous call, in completion-record order.
    pub fn take_outbox(&mut self) -> Vec<FrameExport> {
        std::mem::take(&mut self.outbox)
    }

    /// Delivers a peer shard's [`FrameExport`] at `at`: the receiving side
    /// records the announced end-to-end `latency` into its remote-ingest
    /// sketch when the event fires.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_ingest(&mut self, at: SimTime, latency: SimDuration) {
        self.queue.schedule_at(at, Ev::Ingest(latency));
    }

    /// Aligns the clock to an epoch barrier without delivering anything;
    /// see [`EventQueue::advance_to`](microedge_sim::event::EventQueue::advance_to).
    ///
    /// # Panics
    ///
    /// Panics if an event at or before `barrier` is still pending — call
    /// [`World::run_until`]`(barrier)` first.
    pub fn advance_to(&mut self, barrier: SimTime) {
        self.queue.advance_to(barrier);
    }

    /// Loads the co-compiled plan of `tpu`'s live models into its device,
    /// unless the device already holds it. The plan depends only on the
    /// live model list, so a resident plan that lists exactly those models
    /// in order is that plan. The device is checked, not the admission's
    /// newly loaded models: a swap in `TpuDevice::invoke` replaces the
    /// plan without the pool knowing.
    pub(super) fn sync_device(&mut self, tpu: TpuId) {
        let account = self.sched.pool().account(tpu);
        #[expect(clippy::indexing_slicing, reason = "`tpu` has a pool account")]
        let device = &mut self.services[tpu.index()].device;
        let resident = device.resident().allocations().iter();
        if account
            .live_model_ids()
            .eq(resident.map(CacheAllocation::model))
        {
            return;
        }
        let profiles: Vec<ModelProfile> = account
            .live_model_ids()
            .map(|m| self.sched.catalog().expect(m).clone())
            .collect();
        #[expect(clippy::expect_used, reason = "an account lists each live model once")]
        let plan = CoCompiler::new(device.spec())
            .plan(&profiles)
            .expect("resident models are distinct");
        device.load_plan(plan);
    }

    /// Re-syncs the device of every TPU in `allocations`, the granted
    /// placements of an admission, a replan or a readmission.
    pub(super) fn sync_allocations<'a>(
        &mut self,
        allocations: impl IntoIterator<Item = &'a Allocation>,
    ) {
        for alloc in allocations {
            self.sync_device(alloc.tpu());
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Frame(id) => self.on_frame(now, id),
            Ev::Arrive(tpu, inflight) => self.on_arrive(now, tpu, inflight),
            Ev::Done(tpu, kills) => self.on_done(now, tpu, kills),
            Ev::Fault(kind) => self.on_fault(now, kind),
            Ev::Detect { kind, epoch } => self.on_detect(now, kind, epoch),
            Ev::SwapIn(stream, swap, cause) => self.on_swap_in(now, stream, swap, cause),
            Ev::Reconcile => self.on_reconcile(now),
            Ev::Command(cmd) => self.on_command(now, cmd),
            Ev::Ingest(latency) => self.ingest.record_duration(latency),
        }
    }

    fn on_frame(&mut self, now: SimTime, id: StreamId) {
        let Some(stream) = self.streams.get_mut(id.index()) else {
            return;
        };
        let den = match stream.lifecycle {
            Lifecycle::Serving { den, .. } => {
                stream.audit.frame_emitted(now);
                let pre = stream.preprocess;
                // The difference detector may discard the frame client-side
                // after pre-processing; it then never reaches a TPU, so its
                // completion instant is already known.
                if stream
                    .filter
                    .as_mut()
                    .is_some_and(|f| !f.rng.chance(f.pass_rate))
                {
                    stream.audit.frame_completed(now + pre);
                } else {
                    #[expect(clippy::indexing_slicing, reason = "an admitted stream has a stage")]
                    let stage = &mut stream.stages[0];
                    let tpu = stage.lbs.next();
                    let trans = if stream.spec.collocated {
                        SimDuration::ZERO
                    } else {
                        stage.transfer
                    };
                    let inflight = InFlight {
                        stream: id,
                        stage: 0,
                        pre,
                        trans_acc: trans,
                        infer_acc: SimDuration::ZERO,
                        arrived: now, // overwritten on arrival
                    };
                    self.queue
                        .schedule_at(now + pre + trans, Ev::Arrive(tpu, inflight));
                }
                den
            }
            Lifecycle::Interrupted { den, .. } => {
                // The placement is down (detected or not): the frame drops
                // at the client without reaching any TPU.
                self.frames_dropped += 1;
                den
            }
            _ => {
                stream.emission_alive = false;
                return;
            }
        };
        if stream.count_frame() {
            let interval = stream.interval * u64::from(den);
            self.queue.schedule_after(interval, Ev::Frame(id));
        } else {
            stream.emission_alive = false;
        }
    }

    fn on_arrive(&mut self, now: SimTime, tpu: TpuId, mut inflight: InFlight) {
        #[expect(clippy::indexing_slicing, reason = "LBS targets are TPUs of this pool")]
        let svc = &mut self.services[tpu.index()];
        if !svc.alive {
            self.frames_dropped += 1;
            return;
        }
        inflight.arrived = now;
        svc.queue.push_back(inflight);
        let depth = svc.queue.len() + usize::from(svc.current.is_some());
        svc.max_depth = svc.max_depth.max(depth);
        if svc.current.is_none() {
            self.start_next(now, tpu);
        }
    }

    fn start_next(&mut self, now: SimTime, tpu: TpuId) {
        #[expect(clippy::indexing_slicing, reason = "callers pass a TPU of this pool")]
        let svc = &mut self.services[tpu.index()];
        let Some(inflight) = svc.queue.pop_front() else {
            return;
        };
        #[expect(clippy::indexing_slicing, reason = "a frame's stream and stage exist")]
        let profile = &self.streams[inflight.stream.index()].stages[inflight.stage].profile;
        let busy = svc.device.invoke(profile).busy() + self.dp.invoke_overhead;
        svc.current = Some(inflight);
        self.fleet.tracker_mut(tpu.index()).begin_busy(now);
        self.queue.schedule_at(now + busy, Ev::Done(tpu, svc.kills));
    }

    fn on_done(&mut self, now: SimTime, tpu: TpuId, kills: u32) {
        #[expect(clippy::indexing_slicing, reason = "a `Done` names a TPU of this pool")]
        let svc = &mut self.services[tpu.index()];
        // A fault since the inference started dropped its frame; the
        // service may have been repaired and started another since.
        if svc.kills != kills {
            return;
        }
        let Some(mut inflight) = svc.current.take() else {
            return;
        };
        self.fleet.tracker_mut(tpu.index()).end_busy(now);
        inflight.infer_acc += now.saturating_since(inflight.arrived);
        let next_stage = inflight.stage + 1;
        #[expect(clippy::expect_used, reason = "stream ids are never reused")]
        let stream = self
            .streams
            .get_mut(inflight.stream.index())
            .expect("in-flight frames belong to known streams");
        if next_stage < stream.stages.len() {
            // Forward to the next pipeline stage. A hop to the same TPU is
            // free (same host); otherwise the next stage's input crosses
            // the network.
            #[expect(clippy::indexing_slicing, reason = "checked against the stage count")]
            let next_tpu = stream.stages[next_stage].lbs.next();
            let local_hop = next_tpu == tpu && self.dp.pipeline_local_hop;
            #[expect(clippy::indexing_slicing, reason = "checked against the stage count")]
            let trans = if local_hop || stream.spec.collocated {
                SimDuration::ZERO
            } else {
                stream.stages[next_stage].transfer
            };
            inflight.stage = next_stage;
            inflight.trans_acc += trans;
            self.queue
                .schedule_at(now + trans, Ev::Arrive(next_tpu, inflight));
        } else {
            let breakdown = LatencyBreakdown::new(
                inflight.pre,
                inflight.trans_acc,
                inflight.infer_acc,
                self.dp.postprocess,
            );
            // The frame leaves the pipeline after client-side
            // post-processing, whose duration is fixed — record the
            // completion now with its future timestamp.
            stream.audit.frame_completed(now + self.dp.postprocess);
            stream.latency.record_duration(breakdown.total());
            if stream.spec.export {
                self.outbox.push(FrameExport {
                    at: now + self.dp.postprocess,
                    stream: inflight.stream,
                    latency: breakdown.total(),
                });
            }
            self.breakdowns.record(&breakdown);
        }
        self.start_next(now, tpu);
    }
}
