//! The Coral-Pie application layer: space-time vehicle tracking across a
//! geo-distributed camera network (paper §1, §6.2; Xu et al.,
//! Middleware '20).
//!
//! Coral-Pie is the paper's motivating exemplar: each camera runs a
//! detection pipeline (the part MicroEdge schedules on TPUs) and a
//! re-identification stage that matches vehicles reported by *upstream*
//! cameras and notifies *downstream* cameras, building a space-time track
//! per vehicle. This module implements that application logic over the
//! synthetic campus dataset:
//!
//! - [`CameraGraph`] — the corridor/graph of cameras with travel times;
//! - [`TrackBuilder`] — consumes per-camera [`VehicleVisit`]s in event
//!   order and assembles [`SpaceTimeTrack`]s via upstream notifications;
//! - ground-truth evaluation helpers (precision of re-identification under
//!   a travel-time window).
//!
//! The detection pipeline itself runs on the MicroEdge data plane (see the
//! `vehicle_tracking` example); this module is the post-processing stage
//! the paper's Fig. 2 calls "application logic".

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use microedge_sim::time::{SimDuration, SimTime};

use crate::dataset::VehicleVisit;

/// Identifies a camera in the tracking network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CameraId(pub u32);

impl std::fmt::Display for CameraId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "camera-{}", self.0)
    }
}

/// A directed edge: vehicles leaving `from` appear at `to` after roughly
/// `travel` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Corridor {
    /// Upstream camera.
    pub from: CameraId,
    /// Downstream camera.
    pub to: CameraId,
    /// Nominal travel time between the fields of view.
    pub travel: SimDuration,
}

/// The camera network topology.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CameraGraph {
    corridors: Vec<Corridor>,
}

impl CameraGraph {
    /// A straight corridor of `cameras` cameras with uniform `travel` time
    /// between neighbours — the paper's evaluation layout (time-shifted
    /// replays along a line of cameras).
    ///
    /// # Panics
    ///
    /// Panics if `cameras` is zero.
    #[must_use]
    pub fn corridor(cameras: u32, travel: SimDuration) -> Self {
        assert!(cameras > 0, "a graph needs at least one camera");
        let corridors = (1..cameras)
            .map(|i| Corridor {
                from: CameraId(i - 1),
                to: CameraId(i),
                travel,
            })
            .collect();
        CameraGraph { corridors }
    }

    /// All corridors.
    #[must_use]
    pub fn corridors(&self) -> &[Corridor] {
        &self.corridors
    }

    /// Upstream cameras of `camera`, with travel times.
    #[must_use]
    pub fn upstream_of(&self, camera: CameraId) -> Vec<(CameraId, SimDuration)> {
        self.corridors
            .iter()
            .filter(|c| c.to == camera)
            .map(|c| (c.from, c.travel))
            .collect()
    }
}

/// One observation: a vehicle seen at a camera.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Observation {
    /// Where it was seen.
    pub camera: CameraId,
    /// When it entered the field of view.
    pub seen_at: SimTime,
    /// Appearance identity from the detection pipeline. In the real system
    /// this is an embedding; ground-truth replay gives us the true id, and
    /// the tracker must still *justify* a match with an upstream
    /// notification inside the travel-time window.
    pub vehicle: u32,
}

/// A vehicle's reconstructed path through the network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceTimeTrack {
    vehicle: u32,
    hops: Vec<Observation>,
}

impl SpaceTimeTrack {
    /// The tracked vehicle.
    #[must_use]
    pub fn vehicle(&self) -> u32 {
        self.vehicle
    }

    /// Observations in time order.
    #[must_use]
    pub fn hops(&self) -> &[Observation] {
        &self.hops
    }

    /// Number of cameras the vehicle was tracked through.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// `false` — a track always contains its origin observation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }
}

/// Re-identification outcome counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReidStats {
    /// Matches justified by an upstream notification in the window.
    pub matched: u64,
    /// Observations with no upstream candidate (track origins).
    pub origins: u64,
    /// Observations whose upstream candidate fell outside the window
    /// (missed hand-off — starts a new track).
    pub missed_window: u64,
}

/// Builds space-time tracks from time-ordered observations, mirroring
/// Coral-Pie's notification protocol: when a camera sees a vehicle, it
/// checks the notifications its upstream cameras sent and accepts the
/// hand-off only if the elapsed time is within `tolerance` of the
/// corridor's travel time.
#[derive(Debug, Clone)]
pub struct TrackBuilder {
    graph: CameraGraph,
    tolerance: SimDuration,
    /// Latest departure notification per (camera, vehicle).
    notifications: BTreeMap<(CameraId, u32), SimTime>,
    tracks: BTreeMap<u32, SpaceTimeTrack>,
    stats: ReidStats,
}

impl TrackBuilder {
    /// Creates a tracker over `graph` accepting hand-offs within
    /// `± tolerance` of the nominal travel time.
    #[must_use]
    pub fn new(graph: CameraGraph, tolerance: SimDuration) -> Self {
        TrackBuilder {
            graph,
            tolerance,
            notifications: BTreeMap::new(),
            tracks: BTreeMap::new(),
            stats: ReidStats::default(),
        }
    }

    /// Ingests one observation; observations must arrive in time order per
    /// vehicle (the data plane guarantees this — frames are processed in
    /// order).
    pub fn observe(&mut self, obs: Observation) {
        let matched = self
            .graph
            .upstream_of(obs.camera)
            .into_iter()
            .any(|(upstream, travel)| {
                self.notifications
                    .get(&(upstream, obs.vehicle))
                    .is_some_and(|&left_at| {
                        let elapsed = obs.seen_at.saturating_since(left_at);
                        let lo = travel.saturating_sub(self.tolerance);
                        let hi = travel + self.tolerance;
                        elapsed >= lo && elapsed <= hi
                    })
            });
        let has_upstream = !self.graph.upstream_of(obs.camera).is_empty();
        if matched {
            self.stats.matched += 1;
            self.tracks
                .get_mut(&obs.vehicle)
                .expect("matched vehicles have a track")
                .hops
                .push(obs);
        } else {
            if has_upstream && self.notifications.keys().any(|&(_, v)| v == obs.vehicle) {
                self.stats.missed_window += 1;
            } else {
                self.stats.origins += 1;
            }
            self.tracks
                .entry(obs.vehicle)
                .and_modify(|t| t.hops.push(obs))
                .or_insert_with(|| SpaceTimeTrack {
                    vehicle: obs.vehicle,
                    hops: vec![obs],
                });
        }
        // The camera notifies downstream when the vehicle leaves; we use
        // entry time as the notification timestamp, matching the
        // time-shifted ground truth.
        self.notifications
            .insert((obs.camera, obs.vehicle), obs.seen_at);
    }

    /// Completed tracks, by vehicle id.
    #[must_use]
    pub fn tracks(&self) -> Vec<&SpaceTimeTrack> {
        self.tracks.values().collect()
    }

    /// Re-identification counters.
    #[must_use]
    pub fn stats(&self) -> ReidStats {
        self.stats
    }
}

/// Replays per-camera visit lists (e.g. from
/// [`crate::dataset::campus_vehicle_visits`] + [`crate::dataset::time_shifted`])
/// through a tracker and returns it. Visit lists are indexed by camera in
/// graph order.
#[must_use]
pub fn track_corridor(
    graph: CameraGraph,
    tolerance: SimDuration,
    per_camera_visits: &[Vec<VehicleVisit>],
) -> TrackBuilder {
    let mut tracker = TrackBuilder::new(graph, tolerance);
    let mut observations: Vec<Observation> = per_camera_visits
        .iter()
        .enumerate()
        .flat_map(|(cam, visits)| {
            visits.iter().map(move |v| Observation {
                camera: CameraId(cam as u32),
                seen_at: v.enters,
                vehicle: v.vehicle,
            })
        })
        .collect();
    observations.sort_by_key(|o| (o.seen_at, o.camera));
    for obs in observations {
        tracker.observe(obs);
    }
    tracker
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{campus_vehicle_visits, time_shifted, VideoSegment};

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn corridor_visits(cameras: u32, travel: SimDuration, seed: u64) -> Vec<Vec<VehicleVisit>> {
        let base = campus_vehicle_visits(VideoSegment::campus_video(), seed);
        (0..cameras)
            .map(|i| time_shifted(&base, travel.mul_f64(f64::from(i))))
            .collect()
    }

    #[test]
    fn corridor_graph_topology() {
        let g = CameraGraph::corridor(4, SimDuration::from_secs(12));
        assert_eq!(g.corridors().len(), 3);
        assert!(g.upstream_of(CameraId(0)).is_empty());
        assert_eq!(
            g.upstream_of(CameraId(2)),
            vec![(CameraId(1), SimDuration::from_secs(12))]
        );
    }

    #[test]
    fn perfect_replay_builds_full_tracks() {
        let travel = SimDuration::from_secs(12);
        let visits = corridor_visits(4, travel, 7);
        let vehicles = visits[0].len();
        let tracker = track_corridor(
            CameraGraph::corridor(4, travel),
            SimDuration::from_secs(2),
            &visits,
        );
        let tracks = tracker.tracks();
        assert_eq!(tracks.len(), vehicles, "one track per vehicle");
        for t in tracks {
            assert_eq!(t.len(), 4, "vehicle {} tracked end to end", t.vehicle());
            assert!(!t.is_empty());
            // Hops are time-ordered through consecutive cameras.
            for w in t.hops().windows(2) {
                assert!(w[0].seen_at < w[1].seen_at);
                assert_eq!(w[1].camera.0, w[0].camera.0 + 1);
            }
        }
        let stats = tracker.stats();
        assert_eq!(stats.origins as usize, vehicles);
        assert_eq!(stats.matched as usize, vehicles * 3);
        assert_eq!(stats.missed_window, 0);
    }

    #[test]
    fn out_of_window_arrivals_break_the_track() {
        // The downstream camera's replay is shifted by far more than the
        // corridor's nominal travel time → no hand-off is justified.
        let travel = SimDuration::from_secs(12);
        let base = campus_vehicle_visits(VideoSegment::campus_video(), 3);
        let visits = vec![
            base.clone(),
            time_shifted(&base, SimDuration::from_secs(40)),
        ];
        let tracker = track_corridor(
            CameraGraph::corridor(2, travel),
            SimDuration::from_secs(2),
            &visits,
        );
        let stats = tracker.stats();
        assert_eq!(stats.matched, 0);
        assert_eq!(stats.missed_window as usize, base.len());
    }

    #[test]
    fn observation_order_independence_across_vehicles() {
        // Two vehicles interleaved; both still tracked.
        let g = CameraGraph::corridor(2, SimDuration::from_secs(10));
        let mut tracker = TrackBuilder::new(g, SimDuration::from_secs(1));
        for obs in [
            Observation {
                camera: CameraId(0),
                seen_at: secs(0),
                vehicle: 0,
            },
            Observation {
                camera: CameraId(0),
                seen_at: secs(3),
                vehicle: 1,
            },
            Observation {
                camera: CameraId(1),
                seen_at: secs(10),
                vehicle: 0,
            },
            Observation {
                camera: CameraId(1),
                seen_at: secs(13),
                vehicle: 1,
            },
        ] {
            tracker.observe(obs);
        }
        assert_eq!(tracker.tracks().len(), 2);
        assert!(tracker.tracks().iter().all(|t| t.len() == 2));
        assert_eq!(tracker.stats().matched, 2);
    }

    #[test]
    fn branching_graph_accepts_either_upstream() {
        // Y-shaped: cameras 0 and 1 both feed camera 2.
        let corridor = |from, travel| Corridor {
            from: CameraId(from),
            to: CameraId(2),
            travel: SimDuration::from_secs(travel),
        };
        let g = CameraGraph {
            corridors: vec![corridor(0, 5), corridor(1, 9)],
        };
        let mut tracker = TrackBuilder::new(g, SimDuration::from_secs(1));
        tracker.observe(Observation {
            camera: CameraId(1),
            seen_at: secs(0),
            vehicle: 7,
        });
        tracker.observe(Observation {
            camera: CameraId(2),
            seen_at: secs(9),
            vehicle: 7,
        });
        assert_eq!(tracker.stats().matched, 1);
    }
}
