//! Federated fleet front-door study (`repro --fleet`).
//!
//! Two parts, both feeding `BENCH_fleet.json`:
//!
//! 1. **Placement throughput** — the fleet-level analogue of the
//!    admission sweep in [`crate::admission_overhead`]: stream→cluster
//!    placement over per-cluster capacity summaries, indexed
//!    ([`FrontDoor`], one range-restricted segment-tree descent per probe,
//!    O(log C)) head to head against the preserved linear fleet scan
//!    ([`reference::LinearFrontDoor`], O(C)), at 64 / 512 / 4096 clusters.
//!    The workload is *worst* for the scan: only the last cluster can
//!    host the pipeline and every other cluster is busy. Placements
//!    stream in from a rotation of home regions whose ring distance to
//!    the open cluster's region exceeds the spill radius, so every
//!    admission walks home, the spill rings, and the global fallback to
//!    the far end. Each size first cross-checks that both doors pick the
//!    identical cluster from every home — on the timed fleet and on a
//!    variant with a mid-fleet decoy whose max-free block matches but
//!    whose total headroom falls short (the continue-past-decoy path) —
//!    then times `place` best-of-rounds (host measurements).
//!
//! 2. **Fleet chaos** — whole-cluster failure tiers on a live
//!    [`ShardedWorld`]: kill 1 / 4 / 16 of the fleet's clusters at the
//!    same instant and let the front door drain the dead summaries,
//!    evacuate their streams, and re-place them on survivors at the next
//!    epoch barrier. Reports per-tier availability nines over the run
//!    window plus the evacuation/readmission counters — all derived from
//!    simulated time, so byte-identical at any worker count.

#![expect(
    clippy::disallowed_methods,
    reason = "times the simulator itself; lands on host_ lines"
)]

use std::time::Instant;

use microedge_cluster::topology::ClusterBuilder;
use microedge_core::config::Features;
use microedge_core::fleet::{reference, ClusterId, ClusterSummary, FrontDoor, StreamDemand};
use microedge_core::runtime::StreamSpec;
use microedge_core::shard::{FleetReport, ShardedWorld};
use microedge_core::units::TpuUnits;
use microedge_metrics::recovery::availability_nines;
use microedge_metrics::report::Table;
use microedge_sim::time::{SimDuration, SimTime};

use crate::artifact::{self, fixed};

/// Regions the placement-sweep fleet is partitioned into (the chaos tier
/// sizes its own). The probed streams are homed in
/// [`SWEEP_HOME_ROTATION`] while the only fitting cluster sits at the
/// far end of the fleet, so every placement walks home, the spill rings,
/// and the global fallback.
pub const SWEEP_REGIONS: u32 = 8;

/// Spill radius of the sweep doors: one ring per side.
pub const SWEEP_SPILL: u32 = 1;

/// Home regions the timed placements rotate through: every region whose
/// ring distance to the open cluster's region (`SWEEP_REGIONS - 1`)
/// exceeds [`SWEEP_SPILL`] — the ring wraps, so regions 0 and 6 are
/// *adjacent* to region 7 and excluded. Rotating homes keeps the
/// measurement an admission stream rather than one address pattern
/// repeated into a warmed prefetcher, and every placement still travels
/// the full probe plan.
pub const SWEEP_HOME_ROTATION: [u32; 5] = [1, 2, 3, 4, 5];

/// The sweep's workload, also embedded in `BENCH_fleet.json`.
pub const SWEEP_WORKLOAD: &str = "near-full fleet: last cluster open, rest busy; 2-stage \
     pipelines streaming from a rotation of home regions, spill radius 1";

/// Cluster counts the placement sweep covers with the number of home-
/// rotation passes timed at each size (each pass is one `place` per home
/// in [`SWEEP_HOME_ROTATION`]; the linear side's cost grows with C, so
/// passes shrink as the fleet grows).
pub const FLEET_SWEEP: [(u32, u32); 3] = [(64, 20_000), (512, 5_000), (4096, 2_000)];

/// The probed demand: a two-stage pipeline (0.35 + 0.55 units). The
/// largest stage exceeds every busy cluster's best block, and the total
/// exceeds the cross-check decoy's headroom while the largest stage fits
/// its max-free block.
#[must_use]
pub fn sweep_demand() -> StreamDemand {
    StreamDemand::from_stages([TpuUnits::from_f64(0.35), TpuUnits::from_f64(0.55)])
}

/// Builds the sweep's adversarial summary vector for `clusters` clusters:
/// busy everywhere, the single open cluster last.
#[must_use]
pub fn sweep_summaries(clusters: u32) -> Vec<ClusterSummary> {
    assert!(clusters >= 2, "the sweep needs at least two clusters");
    (0..clusters)
        .map(|c| {
            if c == clusters - 1 {
                // The one cluster that can host the pipeline.
                ClusterSummary {
                    max_free: 1_000_000,
                    total_free: 4_000_000,
                    available_tpus: 4,
                    total_tpus: 4,
                    live_streams: 0,
                }
            } else {
                // Busy: best block below the largest stage.
                ClusterSummary {
                    max_free: 300_000,
                    total_free: 650_000,
                    available_tpus: 4,
                    total_tpus: 4,
                    live_streams: 12,
                }
            }
        })
        .collect()
}

/// [`sweep_summaries`] plus a decoy at the fleet midpoint whose max-free
/// block fits the largest stage but whose total headroom falls short of
/// the pipeline: the indexed door's probe stops there and must continue
/// past (cursor resume), the linear scan rejects it on the second
/// comparison. Used by the sweep's cross-check (fleets of ≥ 3 clusters;
/// the differential proptests churn this path far harder).
#[must_use]
pub fn sweep_decoy_summaries(clusters: u32) -> Vec<ClusterSummary> {
    let mut summaries = sweep_summaries(clusters);
    if clusters >= 3 {
        summaries[clusters as usize / 2] = ClusterSummary {
            max_free: 600_000,
            total_free: 600_000,
            available_tpus: 4,
            total_tpus: 4,
            live_streams: 10,
        };
    }
    summaries
}

/// One fleet size of the placement-throughput sweep.
#[derive(Debug, Clone)]
pub struct FleetSweepPoint {
    /// Fleet size in clusters.
    pub clusters: u32,
    /// Home-rotation passes timed per round at this size (placements per
    /// round = this × [`SWEEP_HOME_ROTATION`]'s length).
    pub iterations: u32,
    /// Nanoseconds per placement for the linear fleet scan (pre).
    pub linear_ns: f64,
    /// Nanoseconds per placement for the indexed front door (post).
    pub indexed_ns: f64,
}

impl FleetSweepPoint {
    /// Indexed placement decisions per second.
    #[must_use]
    pub fn indexed_placements_per_sec(&self) -> f64 {
        1e9 / self.indexed_ns
    }

    /// Indexed-over-linear speedup at this size.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.linear_ns / self.indexed_ns
    }
}

/// The placement-throughput sweep result.
#[derive(Debug, Clone)]
pub struct FleetPerf {
    /// Rounds each point was timed (best round reported).
    pub rounds: u32,
    /// Per-size measurements, ascending cluster count.
    pub points: Vec<FleetSweepPoint>,
}

impl FleetPerf {
    /// Indexed-over-linear speedup at a given fleet size, if measured.
    #[must_use]
    pub fn speedup_at(&self, clusters: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.clusters == clusters)
            .map(FleetSweepPoint::speedup)
    }
}

/// Times `iterations` passes over the home rotation against the indexed
/// door and returns the best-of-`rounds` nanoseconds per placement.
fn time_indexed_ns(door: &FrontDoor, demand: StreamDemand, iters: u32, rounds: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..iters {
            for home in SWEEP_HOME_ROTATION {
                std::hint::black_box(door.place(std::hint::black_box(home), demand));
            }
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / f64::from(iters) / SWEEP_HOME_ROTATION.len() as f64
}

/// [`time_indexed_ns`] for the linear reference door.
fn time_linear_ns(
    door: &reference::LinearFrontDoor,
    demand: StreamDemand,
    iters: u32,
    rounds: u32,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..iters {
            for home in SWEEP_HOME_ROTATION {
                std::hint::black_box(door.place(std::hint::black_box(home), demand));
            }
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / f64::from(iters) / SWEEP_HOME_ROTATION.len() as f64
}

/// Runs the placement sweep over custom `(clusters, iterations)` sizes.
/// Each size first cross-checks that the indexed and linear doors pick
/// the identical cluster, then times both.
///
/// # Panics
///
/// Panics if `rounds` is zero or the doors ever disagree.
#[must_use]
pub fn run_fleet_perf_with(sizes: &[(u32, u32)], rounds: u32) -> FleetPerf {
    assert!(rounds > 0, "at least one round");
    let demand = sweep_demand();
    let points = sizes
        .iter()
        .map(|&(clusters, iterations)| {
            let summaries = sweep_summaries(clusters);
            let indexed = FrontDoor::new(summaries.clone(), SWEEP_REGIONS, SWEEP_SPILL);
            let linear = reference::LinearFrontDoor::new(summaries, SWEEP_REGIONS, SWEEP_SPILL);
            let decoyed = sweep_decoy_summaries(clusters);
            let indexed_decoy = FrontDoor::new(decoyed.clone(), SWEEP_REGIONS, SWEEP_SPILL);
            let linear_decoy = reference::LinearFrontDoor::new(decoyed, SWEEP_REGIONS, SWEEP_SPILL);
            for home in SWEEP_HOME_ROTATION {
                assert_eq!(
                    indexed.place(home, demand),
                    linear.place(home, demand),
                    "indexed and linear placements diverged at {clusters} clusters"
                );
                assert_eq!(
                    indexed_decoy.place(home, demand),
                    linear_decoy.place(home, demand),
                    "placements diverged past the decoy at {clusters} clusters"
                );
                assert_eq!(
                    indexed
                        .place(home, demand)
                        .expect("the open cluster hosts the pipeline")
                        .cluster,
                    ClusterId(clusters - 1),
                    "the sweep must traverse the whole fleet"
                );
            }
            FleetSweepPoint {
                clusters,
                iterations,
                linear_ns: time_linear_ns(&linear, demand, iterations, rounds),
                indexed_ns: time_indexed_ns(&indexed, demand, iterations, rounds),
            }
        })
        .collect();
    FleetPerf { rounds, points }
}

/// Runs the standard sweep ([`FLEET_SWEEP`]): 64 / 512 / 4096 clusters.
#[must_use]
pub fn run_fleet_perf(rounds: u32) -> FleetPerf {
    run_fleet_perf_with(&FLEET_SWEEP, rounds)
}

// ───────────────────────── fleet chaos tiers ─────────────────────────

/// TPUs per cluster in the chaos fleet.
pub const CHAOS_VRPIS: u32 = 4;
/// Streams admitted per cluster before the kill (each 0.35 units on a
/// one-TPU cluster, so a survivor has room for exactly one evacuee).
pub const CHAOS_STREAMS_PER_CLUSTER: u64 = 1;
/// The instant every cluster in the tier dies.
pub const CHAOS_KILL_AT_MS: u64 = 5_200;
/// Frames per camera (20 s at 15 FPS — the run outlives the kill, the
/// deadline outlives the restarted incarnations).
pub const CHAOS_FRAME_LIMIT: u64 = 300;

/// One whole-cluster-failure tier.
#[derive(Debug, Clone)]
pub struct FleetChaosTier {
    /// Clusters in the fleet.
    pub clusters: u32,
    /// Regions the fleet is partitioned into.
    pub regions: u32,
    /// Clusters killed at [`CHAOS_KILL_AT_MS`].
    pub killed: u32,
    /// The fleet-tier counters of the run.
    pub report: FleetReport,
    /// Mean availability across every admitted stream over the run window
    /// (unaffected streams count as fully available).
    pub availability: f64,
    /// [`availability`](Self::availability) expressed as nines.
    pub nines: f64,
    /// Summed downtime across evacuated lineages, in seconds.
    pub downtime_s: f64,
    /// Frames completed fleet-wide (deterministic work fingerprint).
    pub frames: u64,
    /// Simulation events processed.
    pub events: u64,
}

/// Runs one tier: a `clusters`-cluster fleet, one camera per cluster
/// admitted through the front door, then `killed` clusters (spread evenly
/// across the fleet) die at the same instant.
///
/// # Panics
///
/// Panics if `killed >= clusters` or the fleet shape rejects the
/// pre-kill admissions.
#[must_use]
pub fn run_fleet_chaos_tier(clusters: u32, regions: u32, killed: u32) -> FleetChaosTier {
    assert!(killed < clusters, "someone must survive");
    let fleet = (0..clusters).map(|_| ClusterBuilder::new().trpis(1).vrpis(CHAOS_VRPIS).build());
    let mut world = ShardedWorld::new(fleet, Features::all()).with_front_door(regions, 1);
    let total_streams = u64::from(clusters) * CHAOS_STREAMS_PER_CLUSTER;
    for c in 0..clusters {
        for i in 0..CHAOS_STREAMS_PER_CLUSTER {
            // One camera homed at each cluster's region: the pre-kill
            // fleet is evenly loaded, one stream per cluster.
            let region = c * regions / clusters;
            world.admit_global(
                SimTime::ZERO,
                region,
                StreamSpec::builder(&format!("cam-{c}-{i}"), "ssd-mobilenet-v2")
                    .frame_limit(CHAOS_FRAME_LIMIT)
                    .start_offset(SimDuration::from_millis(
                        (u64::from(c) * 997 + i * 131) % 1000,
                    ))
                    .build(),
            );
        }
    }
    let kill_at = SimTime::from_millis(CHAOS_KILL_AT_MS);
    let stride = clusters / killed.max(1);
    for k in 0..killed {
        world.kill_cluster(kill_at, ClusterId(k * stride));
    }
    let deadline = SimTime::from_secs(CHAOS_FRAME_LIMIT / 15 + 20);
    let workers = microedge_sim::par::worker_count(clusters as usize);
    let (results, report, _) = world.run_net_with_workers(deadline, workers);

    let window = SimDuration::from_nanos(results.end().as_nanos());
    let mut availability_sum = 0.0;
    let mut downtime_s = 0.0;
    for avail in results.availabilities().values() {
        availability_sum += avail.availability(window);
        downtime_s += avail.downtime.as_secs_f64();
    }
    // Streams that never lost their cluster have no availability entry:
    // they were serving the whole window.
    let untouched = total_streams - results.availabilities().len() as u64;
    let availability = (availability_sum + untouched as f64) / total_streams as f64;
    FleetChaosTier {
        clusters,
        regions,
        killed,
        report,
        availability,
        nines: availability_nines(availability),
        downtime_s,
        frames: results.reports().iter().map(|r| r.completed()).sum(),
        events: results.events_processed(),
    }
}

/// The chaos fleet shape: 32 clusters in 4 regions with kill tiers
/// 1 / 4 / 16 (quick: 12 clusters, kill 1 / 4).
#[must_use]
pub fn chaos_tiers(quick: bool) -> (u32, u32, &'static [u32]) {
    if quick {
        (12, 4, &[1, 4])
    } else {
        (32, 4, &[1, 4, 16])
    }
}

/// Runs every chaos tier for the given mode.
#[must_use]
pub fn run_fleet_chaos(quick: bool) -> Vec<FleetChaosTier> {
    let (clusters, regions, kills) = chaos_tiers(quick);
    kills
        .iter()
        .map(|&killed| run_fleet_chaos_tier(clusters, regions, killed))
        .collect()
}

// ───────────────────────── rendering ─────────────────────────

/// Renders the human tables `repro --fleet` prints.
#[must_use]
pub fn render_fleet(perf: &FleetPerf, tiers: &[FleetChaosTier]) -> String {
    let mut sweep = Table::new(&[
        "clusters",
        "linear (ns)",
        "indexed (ns)",
        "placements/s",
        "speedup",
    ]);
    for p in &perf.points {
        sweep.row_owned(vec![
            p.clusters.to_string(),
            format!("{:.0}", p.linear_ns),
            format!("{:.0}", p.indexed_ns),
            format!("{:.0}", p.indexed_placements_per_sec()),
            format!("{:.1}x", p.speedup()),
        ]);
    }
    let mut chaos = Table::new(&[
        "clusters",
        "killed",
        "evacuated",
        "readmitted",
        "unplaced",
        "availability",
        "nines",
        "downtime (s)",
    ]);
    for t in tiers {
        chaos.row_owned(vec![
            t.clusters.to_string(),
            t.killed.to_string(),
            t.report.evacuated.to_string(),
            t.report.readmitted.to_string(),
            t.report.unplaced.to_string(),
            format!("{:.6}", t.availability),
            format!("{:.2}", t.nines),
            format!("{:.1}", t.downtime_s),
        ]);
    }
    format!(
        "### Fleet front door — placement throughput ({workload})\n{sweep}\n\
         ### Fleet chaos — whole-cluster kill tiers ({streams} stream/cluster, kill at {at} ms)\n{chaos}",
        workload = SWEEP_WORKLOAD,
        streams = CHAOS_STREAMS_PER_CLUSTER,
        at = CHAOS_KILL_AT_MS,
    )
}

/// Renders the `BENCH_fleet.json` document.
#[must_use]
pub fn to_json(perf: &FleetPerf, tiers: &[FleetChaosTier]) -> String {
    artifact::document(|d| {
        d.str("benchmark", "fleet_front_door")
            .block("placement", |b| {
                b.str("workload", SWEEP_WORKLOAD)
                    .num("rounds", perf.rounds)
                    .host("speedup_at_4096", perf.speedup_at(4096).map(|s| fixed(s, 2)))
                    .rows("points", 6, &perf.points, |r, p| {
                        r.num("clusters", p.clusters)
                            .num("regions", SWEEP_REGIONS)
                            .num("iterations", p.iterations)
                            .host("linear_ns", fixed(p.linear_ns, 1))
                            .host("indexed_ns", fixed(p.indexed_ns, 1))
                            .host("placements_per_sec", fixed(p.indexed_placements_per_sec(), 0))
                            .host("speedup", fixed(p.speedup(), 2));
                    });
            })
            .block("chaos", |b| {
                b.str(
                    "workload",
                    &format!(
                        "{CHAOS_STREAMS_PER_CLUSTER} stream per cluster, kill at {CHAOS_KILL_AT_MS} ms, \
                         evacuees re-placed at the next epoch barrier"
                    ),
                )
                .rows("tiers", 6, tiers, |r, t| {
                    r.num("clusters", t.clusters)
                        .num("regions", t.regions)
                        .num("killed", t.killed)
                        .num("evacuated", t.report.evacuated)
                        .num("readmitted", t.report.readmitted)
                        .num("unplaced", t.report.unplaced)
                        .num("readmit_failures", t.report.readmit_failures)
                        .num("placed_home", t.report.placement.home)
                        .num("placed_spill", t.report.placement.spills)
                        .num("placed_fallback", t.report.placement.fallbacks)
                        .num("availability", fixed(t.availability, 6))
                        .num("nines", fixed(t.nines, 3))
                        .num("downtime_s", fixed(t.downtime_s, 3))
                        .num("frames", t.frames)
                        .num("events", t.events);
                });
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::strip_host_lines;

    #[test]
    fn sweep_measures_every_size_and_finds_the_far_cluster() {
        let perf = run_fleet_perf_with(&[(64, 50), (256, 50)], 1);
        assert_eq!(perf.points.len(), 2);
        for p in &perf.points {
            assert!(p.linear_ns > 0.0);
            assert!(p.indexed_ns > 0.0);
            assert!(p.indexed_placements_per_sec() > 0.0);
        }
        assert!(perf.speedup_at(256).is_some());
        assert!(perf.speedup_at(4096).is_none());
    }

    #[test]
    fn indexed_door_wins_clearly_on_a_large_fleet() {
        // Debug-build timing: far below the release-build ≥50x criterion,
        // but one descent against a 4096-cluster walk is no contest.
        let perf = run_fleet_perf_with(&[(4096, 40)], 1);
        let speedup = perf.speedup_at(4096).unwrap();
        assert!(speedup > 2.0, "expected a clear win, got {speedup:.1}x");
    }

    #[test]
    fn chaos_tier_evacuates_and_recovers() {
        let t = run_fleet_chaos_tier(12, 4, 4);
        assert_eq!(t.report.clusters_killed, 4);
        // First-fit packs two 0.35-unit streams per one-TPU cluster, so
        // the evenly-strided kill lands on fully-loaded clusters.
        assert_eq!(t.report.evacuated, 8);
        assert_eq!(t.report.readmitted, 8);
        assert_eq!(t.report.unplaced, 0);
        assert!(t.availability < 1.0, "the kill cost some serving time");
        assert!(t.availability > 0.9, "but the fleet recovered");
        assert!(t.nines > 0.0 && t.nines < 9.0);
        assert!(t.downtime_s > 0.0);
    }

    #[test]
    fn deeper_kill_tiers_cost_more_availability() {
        let one = run_fleet_chaos_tier(12, 4, 1);
        let four = run_fleet_chaos_tier(12, 4, 4);
        assert!(four.availability < one.availability);
        assert!(four.nines < one.nines);
    }

    #[test]
    fn fleet_json_keeps_timings_on_host_lines() {
        let perf = run_fleet_perf_with(&[(64, 20)], 1);
        let tiers = run_fleet_chaos(true);
        let json = to_json(&perf, &tiers);
        assert!(json.contains("\"benchmark\": \"fleet_front_door\""));
        assert!(json.contains("\"host_speedup_at_4096\": null"));
        assert!(json.contains("\"nines\""));
        assert!(json.ends_with("}\n"));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
        // Every timing figure sits on a strippable host_ line.
        let stripped = strip_host_lines(&json);
        assert!(!stripped.contains("_ns"));
        assert!(!stripped.contains("speedup"));
    }

    #[test]
    fn render_lists_both_studies() {
        let perf = run_fleet_perf_with(&[(64, 20)], 1);
        let tiers = vec![run_fleet_chaos_tier(12, 4, 1)];
        let text = render_fleet(&perf, &tiers);
        assert!(text.contains("placement throughput"));
        assert!(text.contains("whole-cluster kill tiers"));
        assert!(text.contains("nines"));
    }
}
