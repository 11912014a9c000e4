//! The traced run's per-layer ledger, and the calls into the program that
//! feed it.
//!
//! Every call the workloads make into a layer goes through [`Ctx`]. With
//! tracing off each helper is the bare call behind one branch; with tracing
//! on it opens a span, times the call and records what the layer did.

use std::time::Instant;

use microedge_core::runtime::{RunResults, World};
use microedge_sim::time::{SimDuration, SimTime};

use crate::spans::Tracer;

/// Simulated time between two samples of the event queue's depth and of
/// the replay's host time.
const SLICE: SimDuration = SimDuration::from_millis(100);

/// What the layers did during a traced replay.
#[derive(Debug, Default)]
pub struct Ledger {
    /// `World::pending_events`, sampled at every [`SLICE`] boundary.
    pub pending: Vec<usize>,
    /// Host time spent in `run_until` per [`SLICE`] of simulated time.
    pub slice_ns: Vec<u64>,
    /// Host time spent in `run_until` in total.
    pub run_until_ns: u64,
    /// Host time spent in `finish`.
    pub finish_ns: u64,
    /// Host time of each admission call, admitted or not.
    pub admit_ns: Vec<u64>,
    /// Admission calls that returned an error.
    pub rejected: u64,
    /// Host time of each removal call.
    pub remove_ns: Vec<u64>,
    /// Host time of each `defrag_epoch` tick that ran a planning cycle.
    pub defrag_ns: Vec<u64>,
}

/// Where one world stands on the [`SLICE`] grid.
#[derive(Debug)]
pub struct Slicer {
    next: SimTime,
    acc_ns: u64,
}

impl Slicer {
    /// A world whose clock is at zero.
    pub fn new() -> Self {
        Slicer {
            next: SimTime::ZERO + SLICE,
            acc_ns: 0,
        }
    }
}

/// The tracer and ledger of one run.
#[derive(Debug)]
pub struct Ctx {
    /// Spans of the whole run.
    pub tracer: Tracer,
    /// The layer ledger the traced calls fill.
    pub ledger: Ledger,
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).expect("call shorter than 584 years")
}

impl Ctx {
    /// A context that traces only when `traced`.
    pub fn new(traced: bool) -> Self {
        Ctx {
            tracer: Tracer::new(traced),
            ledger: Ledger::default(),
        }
    }

    /// `true` when spans and the ledger are being recorded.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Runs `f` inside a span named `name`, returning its host time in
    /// nanoseconds when traced (0 otherwise).
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.traced() {
            return (f(), 0);
        }
        self.tracer.open(name);
        let start = Instant::now();
        let out = f();
        let ns = elapsed_ns(start);
        self.tracer.close();
        (out, ns)
    }

    /// An admission call (`World::admit_stream` or a wrapper of it).
    pub fn admit<T, E>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let (out, ns) = self.call("admit", f);
        if self.traced() {
            self.ledger.admit_ns.push(ns);
            self.ledger.rejected += u64::from(out.is_err());
        }
        out
    }

    /// A removal call (`World::remove_stream`).
    pub fn remove<T, E>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let (out, ns) = self.call("remove", f);
        if self.traced() {
            self.ledger.remove_ns.push(ns);
        }
        out
    }

    /// `World::finish` (or a finaliser wrapping it).
    pub fn finish<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (out, ns) = self.call("finish", f);
        self.ledger.finish_ns += ns;
        out
    }

    /// One `World::defrag_epoch` tick; timed when it ran a planning cycle.
    pub fn defrag_epoch(&mut self, world: &mut World) {
        let cycles = |w: &World| w.defrag_stats().map_or(0, |s| s.cycles);
        let before = cycles(world);
        let ((), ns) = self.call("defrag_epoch", || world.defrag_epoch());
        if self.traced() && cycles(world) > before {
            self.ledger.defrag_ns.push(ns);
        }
    }

    /// Advances `world` to `to` with `World::run_until`. Traced, the
    /// advance is cut at every [`SLICE`] boundary, where the queue depth
    /// and the slice's host time are sampled; cutting `run_until` changes
    /// no delivery, since it delivers every event up to its argument in
    /// `(time, seq)` order either way.
    pub fn advance(&mut self, world: &mut World, slicer: &mut Slicer, to: SimTime) {
        if !self.traced() {
            world.run_until(to);
            return;
        }
        self.tracer.open("run_until");
        while slicer.next <= to {
            let start = Instant::now();
            world.run_until(slicer.next);
            let ns = elapsed_ns(start);
            self.ledger.run_until_ns += ns;
            self.ledger.slice_ns.push(slicer.acc_ns + ns);
            self.ledger.pending.push(world.pending_events());
            slicer.acc_ns = 0;
            slicer.next += SLICE;
        }
        let start = Instant::now();
        world.run_until(to);
        let ns = elapsed_ns(start);
        self.ledger.run_until_ns += ns;
        slicer.acc_ns += ns;
        self.tracer.close();
    }

    /// Drains `world` up to `deadline` and finalises it the way
    /// `World::run_to_completion` does.
    pub fn run_to_completion(&mut self, mut world: World, deadline: SimTime) -> RunResults {
        let mut slicer = Slicer::new();
        self.advance(&mut world, &mut slicer, deadline);
        let end = world.now().max(SimTime::from_nanos(1));
        self.finish(|| world.finish(end))
    }
}
