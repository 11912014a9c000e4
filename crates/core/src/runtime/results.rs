//! What a run produces: [`RunResults`], the per-shard merge a sharded
//! replay ends with, and the finalisers that turn a world into results.

use std::collections::BTreeMap;

use microedge_metrics::defrag::DefragStats;
use microedge_metrics::latency::BreakdownRecorder;
use microedge_metrics::recovery::{RecoveryRecorder, StreamAvailability};
use microedge_metrics::throughput::SloReport;
use microedge_sim::stats::{LogLinearSketch, OnlineStats};
use microedge_sim::time::SimTime;
use microedge_tpu::device::DeviceStats;

use super::{StreamId, StreamPhase, World};

/// Aggregated outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResults {
    reports: BTreeMap<StreamId, SloReport>,
    latencies: BTreeMap<StreamId, OnlineStats>,
    average_utilization: f64,
    per_device_utilization: Vec<f64>,
    windowed_utilization: Vec<f64>,
    breakdowns: BreakdownRecorder,
    device_stats: Vec<DeviceStats>,
    max_queue_depths: Vec<usize>,
    used_tpus: usize,
    frames_dropped: u64,
    events_processed: u64,
    end: SimTime,
    recovery: RecoveryRecorder,
    availability: BTreeMap<StreamId, StreamAvailability>,
    phases: BTreeMap<StreamId, StreamPhase>,
    lineage: BTreeMap<StreamId, StreamId>,
    remote_ingest: LogLinearSketch,
    commands_failed: u64,
    defrag: DefragStats,
}

impl RunResults {
    /// The SLO report for one stream.
    #[must_use]
    pub fn report(&self, stream: StreamId) -> Option<&SloReport> {
        self.reports.get(&stream)
    }

    /// All stream reports, in stream order.
    #[must_use]
    pub fn reports(&self) -> Vec<&SloReport> {
        self.reports.values().collect()
    }

    /// Per-frame end-to-end latency statistics (milliseconds) of one
    /// stream's TPU-served frames.
    #[must_use]
    pub fn latency(&self, stream: StreamId) -> Option<&OnlineStats> {
        self.latencies.get(&stream)
    }

    /// `true` when every stream met its FPS SLO.
    #[must_use]
    pub fn all_met_fps(&self) -> bool {
        self.reports.values().all(SloReport::met_fps)
    }

    /// Mean TPU utilization over the whole run (Fig. 5b/5d).
    #[must_use]
    pub fn average_utilization(&self) -> f64 {
        self.average_utilization
    }

    /// Per-TPU utilization over the whole run.
    #[must_use]
    pub fn per_device_utilization(&self) -> &[f64] {
        &self.per_device_utilization
    }

    /// Fleet-average utilization per window (Fig. 6a).
    #[must_use]
    pub fn windowed_utilization(&self) -> &[f64] {
        &self.windowed_utilization
    }

    /// The per-phase latency statistics (Fig. 7b).
    #[must_use]
    pub fn breakdowns(&self) -> &BreakdownRecorder {
        &self.breakdowns
    }

    /// Per-device execution counters.
    #[must_use]
    pub fn device_stats(&self) -> &[DeviceStats] {
        &self.device_stats
    }

    /// Deepest request backlog each TPU Service ever saw (queued plus
    /// executing). Admission control's job is to keep this small: a depth
    /// that grows with run length is the §2 queue build-up that eventually
    /// violates per-frame latency bounds.
    #[must_use]
    pub fn max_queue_depths(&self) -> &[usize] {
        &self.max_queue_depths
    }

    /// TPUs that carried load at the end of the run.
    #[must_use]
    pub fn used_tpus(&self) -> usize {
        self.used_tpus
    }

    /// Frames dropped by failed TPUs.
    #[must_use]
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// Total simulation events the kernel delivered during the run — the
    /// denominator-independent work measure the perf harness reports as
    /// events/sec.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The instant the run was finalised at.
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Recovery-latency breakdowns (detection / rescheduling / swap-in)
    /// across every completed recovery. Empty without chaos mode.
    #[must_use]
    pub fn recovery(&self) -> &RecoveryRecorder {
        &self.recovery
    }

    /// Mutable access to the recovery recorder (e.g. for merging results
    /// from sharded runs via [`RecoveryRecorder::merge`]; percentile
    /// queries only need [`RunResults::recovery`]).
    pub fn recovery_mut(&mut self) -> &mut RecoveryRecorder {
        &mut self.recovery
    }

    /// Heap bytes held by the run's latency and recovery distributions —
    /// the telemetry the sketch keeps constant-size. Independent of frame
    /// count once the workload's latency range is covered (the scale sweep
    /// asserts this), unlike the old sample-retaining histograms whose
    /// footprint grew O(frames).
    #[must_use]
    pub fn telemetry_memory_bytes(&self) -> usize {
        self.breakdowns.memory_bytes()
            + self.recovery.memory_bytes()
            + self.remote_ingest.memory_bytes()
    }

    /// Latency sketch of every frame completion announced by peer shards
    /// (cross-shard aggregation traffic). Empty in unsharded runs.
    #[must_use]
    pub fn remote_ingest(&self) -> &LogLinearSketch {
        &self.remote_ingest
    }

    /// Scheduled control-plane commands that fired but failed (admission
    /// rejected, stream unknown). Deterministic, so it participates in the
    /// byte-compare artifacts.
    #[must_use]
    pub fn commands_failed(&self) -> u64 {
        self.commands_failed
    }

    /// Background-defragmentation counters for the run (all zero when the
    /// defragmenter was never enabled). Integer-exact, so sharded merges
    /// sum precisely and the counters participate in byte-compared
    /// artifacts.
    #[must_use]
    pub fn defrag(&self) -> &DefragStats {
        &self.defrag
    }

    /// Merges per-shard results into one fleet-level [`RunResults`], the
    /// final step of a sharded replay. Stream ids are remapped with
    /// [`StreamId::with_shard`] so shards cannot collide; distributions
    /// merge via the PR 4 sketch merges (merge ≡ concatenated recording),
    /// counters sum, and utilization averages weight each shard by its
    /// device count. The merge is pure data-plumbing — shard order is fixed
    /// by the caller's `Vec`, so the result is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or a shard-local stream id overflows the
    /// 40-bit local field.
    #[must_use]
    pub fn merge_shards(mut parts: Vec<RunResults>) -> RunResults {
        assert!(!parts.is_empty(), "cannot merge zero shards");
        let total_devices: usize = parts.iter().map(|p| p.per_device_utilization.len()).sum();
        let windows = parts
            .iter()
            .map(|p| p.windowed_utilization.len())
            .max()
            .unwrap_or(0);
        let mut merged = RunResults {
            reports: merge_by_stream(&mut parts, |p| &mut p.reports, |v, _| v),
            latencies: merge_by_stream(&mut parts, |p| &mut p.latencies, |v, _| v),
            average_utilization: 0.0,
            per_device_utilization: Vec::with_capacity(total_devices),
            windowed_utilization: vec![0.0; windows],
            breakdowns: BreakdownRecorder::new(),
            device_stats: Vec::new(),
            max_queue_depths: Vec::new(),
            used_tpus: 0,
            frames_dropped: 0,
            events_processed: 0,
            end: SimTime::ZERO,
            recovery: RecoveryRecorder::new(),
            availability: merge_by_stream(&mut parts, |p| &mut p.availability, |v, _| v),
            phases: merge_by_stream(&mut parts, |p| &mut p.phases, |v, _| v),
            lineage: merge_by_stream(&mut parts, |p| &mut p.lineage, StreamId::with_shard),
            remote_ingest: LogLinearSketch::new(),
            commands_failed: 0,
            defrag: DefragStats::default(),
        };
        for part in parts {
            // A shard's windows are that shard's fleet average; weight by
            // its device share (a shard that ended early idles at 0).
            let weight = if total_devices == 0 {
                0.0
            } else {
                part.per_device_utilization.len() as f64 / total_devices as f64
            };
            merged.average_utilization += part.average_utilization * weight;
            for (w, v) in merged
                .windowed_utilization
                .iter_mut()
                .zip(&part.windowed_utilization)
            {
                *w += v * weight;
            }
            merged
                .per_device_utilization
                .extend(part.per_device_utilization);
            merged.device_stats.extend(part.device_stats);
            merged.max_queue_depths.extend(part.max_queue_depths);
            merged.breakdowns.merge(&part.breakdowns);
            merged.recovery.merge(&part.recovery);
            merged.remote_ingest.merge(&part.remote_ingest);
            merged.used_tpus += part.used_tpus;
            merged.frames_dropped += part.frames_dropped;
            merged.events_processed += part.events_processed;
            merged.commands_failed += part.commands_failed;
            merged.defrag.merge(&part.defrag);
            merged.end = merged.end.max(part.end);
        }
        merged
    }

    /// Availability totals for the lineage rooted at `root`. Populated only
    /// in chaos mode.
    #[must_use]
    pub fn availability(&self, root: StreamId) -> Option<&StreamAvailability> {
        self.availability.get(&root)
    }

    /// All per-lineage availability totals, by root id.
    #[must_use]
    pub fn availabilities(&self) -> &BTreeMap<StreamId, StreamAvailability> {
        &self.availability
    }

    /// Folds a fleet-level availability entry into the results — the
    /// sharded replay's whole-cluster evacuations, keyed by the evacuated
    /// stream's packed global id. Overrides any per-shard entry for the
    /// same id (the fleet tier has the complete outage picture).
    pub fn merge_availability(&mut self, root: StreamId, availability: StreamAvailability) {
        self.availability.insert(root, availability);
    }

    /// Records that `old` was superseded by `new` — the fleet tier's
    /// cross-cluster re-admission lineage, in the packed global id space.
    pub fn link_lineage(&mut self, old: StreamId, new: StreamId) {
        self.lineage.insert(old, new);
    }

    /// The phase each stream ended the run in.
    #[must_use]
    pub fn stream_phase(&self, stream: StreamId) -> Option<StreamPhase> {
        self.phases.get(&stream).copied()
    }

    /// Streams that ended the run lost (no pending recovery).
    #[must_use]
    pub fn lost_streams(&self) -> Vec<StreamId> {
        self.phases
            .iter()
            .filter(|(_, p)| **p == StreamPhase::Lost)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Streams still waiting in the pending-restart queue at end of run.
    #[must_use]
    pub fn parked_streams(&self) -> Vec<StreamId> {
        self.phases
            .iter()
            .filter(|(_, p)| **p == StreamPhase::Parked)
            .map(|(&id, _)| id)
            .collect()
    }

    /// The stream that superseded `stream` via a restart, if any.
    #[must_use]
    pub fn successor(&self, stream: StreamId) -> Option<StreamId> {
        self.lineage.get(&stream).copied()
    }

    /// Renders the whole run as an aligned report: one row per stream
    /// (throughput, latency, SLO) plus a fleet footer (utilization, queue
    /// depths, drops).
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut table = microedge_metrics::report::Table::new(&[
            "stream",
            "frames",
            "achieved FPS",
            "mean e2e (ms)",
            "max e2e (ms)",
            "SLO",
        ]);
        for (id, report) in &self.reports {
            let latency = self.latencies.get(id);
            table.row_owned(vec![
                report.stream().to_owned(),
                report.completed().to_string(),
                format!("{:.2}", report.achieved_fps()),
                format!("{:.2}", latency.map_or(0.0, OnlineStats::mean)),
                format!("{:.2}", latency.and_then(OnlineStats::max).unwrap_or(0.0)),
                if report.met_fps() { "met" } else { "VIOLATED" }.to_owned(),
            ]);
        }
        let depths: Vec<String> = self
            .max_queue_depths
            .iter()
            .map(ToString::to_string)
            .collect();
        format!(
            "{table}fleet: {:.1}% avg TPU utilization over {:.1}s | max queue depths [{}] | {} frames dropped\n",
            self.average_utilization * 100.0,
            self.end.as_secs_f64(),
            depths.join(", "),
            self.frames_dropped,
        )
    }
}

/// Every part's per-stream map (picked by `map`, and emptied) as one map
/// over global ids, with `value` remapping each entry for its shard. The
/// shard is the global id's high field and `parts` are in shard order, so
/// the one `collect` sees its keys ascending and builds the tree in bulk.
fn merge_by_stream<V>(
    parts: &mut [RunResults],
    map: impl Fn(&mut RunResults) -> &mut BTreeMap<StreamId, V>,
    value: impl Fn(V, u32) -> V + Copy,
) -> BTreeMap<StreamId, V> {
    (0u32..)
        .zip(parts)
        .flat_map(|(shard, part)| {
            std::mem::take(map(part))
                .into_iter()
                .map(move |(id, v)| (id.with_shard(shard), value(v, shard)))
        })
        .collect()
}

impl World {
    /// Runs until the event queue drains or `deadline` is reached, then
    /// finalises. Convenient for frame-limited runs.
    #[must_use]
    pub fn run_to_completion(mut self, deadline: SimTime) -> RunResults {
        self.run_until(deadline);
        let end = self.queue.now().max(SimTime::from_nanos(1));
        self.finish(end)
    }

    /// Finalises the run at `end`, producing every metric.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the last processed event.
    #[must_use]
    pub fn finish(self, end: SimTime) -> RunResults {
        // The queue and the control plane are dead weight from here on;
        // free them before building the result maps, where a large run
        // peaks in RSS.
        let events_processed = self.queue.events_processed();
        let used_tpus = self.sched.pool().used_tpus();
        drop(self.queue);
        drop(self.orch);
        drop(self.sched);
        drop(self.pods_to_streams);
        drop(self.profiles);
        let streams = || (0..).map(StreamId::from_index).zip(&self.streams);
        let reports = streams()
            .map(|(id, s)| (id, s.audit.report(&s.spec.name, end)))
            .collect();
        let latencies = streams().map(|(id, s)| (id, s.latency.clone())).collect();
        let average_utilization = self.fleet.average_utilization(end);
        let per_device_utilization = self.fleet.per_device_utilization(end);
        let windowed_utilization = self.fleet.into_windowed_average(end);
        let phases: BTreeMap<StreamId, StreamPhase> =
            streams().map(|(id, s)| (id, s.lifecycle.phase())).collect();
        let lineage = self.lineage;
        let (recovery, availability) = match self.chaos {
            Some(chaos) => {
                let chaos = *chaos;
                let mut availability = BTreeMap::new();
                for (root, tracker) in chaos.trackers {
                    // A lineage counts as lost only when its final
                    // incarnation ended the run lost (parked streams were
                    // still pending recovery).
                    let mut tail = root;
                    while let Some(&next) = lineage.get(&tail) {
                        tail = next;
                    }
                    let lost = phases.get(&tail) == Some(&StreamPhase::Lost);
                    availability.insert(root, tracker.finish(end, lost));
                }
                (chaos.recorder, availability)
            }
            None => (RecoveryRecorder::new(), BTreeMap::new()),
        };
        RunResults {
            reports,
            latencies,
            average_utilization,
            per_device_utilization,
            windowed_utilization,
            breakdowns: self.breakdowns,
            device_stats: self.services.iter().map(|s| s.device.stats()).collect(),
            max_queue_depths: self.services.iter().map(|s| s.max_depth).collect(),
            used_tpus,
            frames_dropped: self.frames_dropped,
            events_processed,
            end,
            recovery,
            availability,
            phases,
            lineage,
            remote_ingest: self.ingest,
            commands_failed: self.commands_failed,
            defrag: self.defrag.map_or_else(DefragStats::default, |d| d.stats),
        }
    }

    /// Cameras-served step series finaliser (Fig. 6b): per-window average
    /// number of active streams up to `end`, alongside the run results.
    /// Consumes the world.
    #[must_use]
    pub fn finish_with_served_series(self, end: SimTime) -> (RunResults, Vec<f64>) {
        let served = self.served.clone().finish(end);
        (self.finish(end), served)
    }
}
