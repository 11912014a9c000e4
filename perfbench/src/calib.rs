//! Host-speed probe: a fixed amount of work that uses none of the
//! program's code, timed around every replay so that host times can be
//! scaled to one reference host speed.
//!
//! On a host whose cores, caches and memory are shared with other tenants,
//! the same replay runs up to 1.7x slower for minutes at a time, longer
//! than one run of the benchmark, so no statistic over one run's replays
//! can remove it. The probe is shaped like a replay (a binary-heap event
//! queue with one pending event per entity, each event touching its
//! entity's state and allocating a small box), so it slows down with the
//! replay, while a pure arithmetic loop or a DRAM pointer chase barely
//! does. A replay's time divided by the probe's time around it measures the
//! program, not the neighbours; the probe calls none of the program's code,
//! so a change to the program moves the scaled time in full. The probe
//! runs on as many threads as the replay, one instance each.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Entities of one instance, each with one pending event.
const ENTITIES: usize = 100_000;
/// `u64` words of state per entity (512 bytes).
const WORDS: usize = 64;
/// Events one instance delivers per probe.
const EVENTS: usize = 1_500_000;
/// Simulated time between two events of one entity.
const PERIOD: u64 = 1_000_000;

/// The reference host speed, as the probe's time: about its time on a
/// 2-vCPU Intel Xeon (Sapphire Rapids) VM. Only a scale: a scaled time
/// reads as the host time on a host whose probe takes this long.
pub const REFERENCE_S: f64 = 0.45;

/// One instance's queue and state.
struct Des {
    state: Vec<u64>,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    x: u64,
}

impl Des {
    fn new(seed: u64) -> Self {
        let mut des = Des {
            state: vec![1; ENTITIES * WORDS],
            queue: BinaryHeap::with_capacity(ENTITIES),
            x: seed | 1,
        };
        for e in 0..ENTITIES {
            let at = des.next() % PERIOD;
            des.queue.push(Reverse((at, u32::try_from(e).expect("few entities"))));
        }
        des
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Delivers [`EVENTS`] events.
    fn run(&mut self) {
        for _ in 0..EVENTS {
            let Reverse((at, e)) = self.queue.pop().expect("one event per entity");
            let r = self.next();
            let base = e as usize * WORDS;
            let word = base + (r % (WORDS as u64 - 8)) as usize;
            let v = self.state[word].wrapping_add(self.state[base] ^ at);
            self.state[word + 8] = v;
            self.state[base] = v | 1;
            black_box(Box::new([v; 8]));
            self.queue.push(Reverse((at + PERIOD + r % 1_000, e)));
        }
    }
}

/// The probe, one instance per thread of the replay it scales.
pub struct Probe {
    instances: Vec<Des>,
}

impl Probe {
    /// A probe for a replay on `threads` threads.
    pub fn new(threads: usize) -> Self {
        Probe {
            instances: (0..threads as u64).map(|t| Des::new(0x9E37_79B9 + t)).collect(),
        }
    }

    /// Runs every instance once, concurrently; returns the mean of their
    /// host times in seconds.
    pub fn seconds(&mut self) -> f64 {
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .instances
                .iter_mut()
                .map(|des| {
                    s.spawn(move || {
                        let start = Instant::now();
                        des.run();
                        start.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the probe does not panic"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }
}

/// Scales `host_s`, measured between probes that took `before` and `after`
/// seconds, to the reference host speed.
pub fn at_reference(host_s: f64, before: f64, after: f64) -> f64 {
    host_s * REFERENCE_S * 2.0 / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_by_the_mean_of_the_probes_around() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(at_reference(2.0, REFERENCE_S, REFERENCE_S), 2.0));
        assert!(close(at_reference(3.0, 1.5 * REFERENCE_S, 1.5 * REFERENCE_S), 2.0));
        assert!(close(at_reference(2.0, REFERENCE_S, 3.0 * REFERENCE_S), 1.0));
    }
}
