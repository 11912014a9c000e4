//! Kernel performance harness (`repro --perf`).
//!
//! Times the simulation kernel on a fixed reference workload — the five
//! Fig. 6 configurations replayed over the 60-minute downsized trace
//! (seed 42, 6 TPUs) — and compares against the pre-overhaul kernel's
//! numbers recorded on the same workload. The configurations are run
//! *serially* here, on purpose: the harness measures single-thread kernel
//! throughput, not the parallel sweep.
//!
//! Two events/sec figures are reported. The overhaul removed the
//! per-frame `Complete` event class (completions are recorded inline when
//! their timing is decided), so the same replay now delivers ~25 % fewer
//! events while producing identical results. The *raw* rate divides the
//! current event count by wall-clock; the *pre-PR-equivalent* rate divides
//! the pre-overhaul event count for this exact workload by the current
//! wall-clock, which is the honest like-for-like throughput comparison —
//! the work done (same trace, same decisions, same outputs) is unchanged.

#![expect(
    clippy::disallowed_methods,
    reason = "times the simulator itself; lands on host_ lines"
)]

use std::fmt::Write as _;
use std::time::Instant;

use microedge_sim::time::SimDuration;
use microedge_workloads::trace::{synthesize, TraceConfig};

use crate::trace_study::{fig6_configs, run_trace};

/// Wall-clock for the reference workload on the pre-overhaul kernel
/// (best of 3 on the development host, release profile).
pub const PRE_PR_WALL_S: f64 = 0.520;

/// Events the pre-overhaul kernel delivered for the reference workload
/// (deterministic; the count is exact, not a measurement).
pub const PRE_PR_EVENTS: u64 = 8_145_757;

/// One configuration's timing within the reference replay.
#[derive(Debug, Clone)]
pub struct ConfigTiming {
    /// Configuration label.
    pub config: String,
    /// Best-of-rounds wall-clock seconds for this configuration.
    pub wall_s: f64,
    /// Events the kernel delivered (identical every round).
    pub events: u64,
}

/// The harness result: total and per-configuration timings.
#[derive(Debug, Clone)]
pub struct KernelPerf {
    /// Best-of-rounds wall-clock for the full five-configuration loop.
    pub wall_s: f64,
    /// Total events delivered across the five configurations.
    pub events: u64,
    /// Rounds timed.
    pub rounds: u32,
    /// Per-configuration breakdown (each configuration's best round).
    pub per_config: Vec<ConfigTiming>,
}

impl KernelPerf {
    /// Raw throughput: current events over current wall-clock.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }

    /// Pre-PR-equivalent throughput: the pre-overhaul event count for this
    /// workload over the current wall-clock (see module docs).
    #[must_use]
    pub fn equivalent_events_per_sec(&self) -> f64 {
        PRE_PR_EVENTS as f64 / self.wall_s
    }

    /// Wall-clock speedup over the pre-overhaul kernel.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        PRE_PR_WALL_S / self.wall_s
    }

    /// Renders the `BENCH_kernel.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut configs = String::new();
        for (i, c) in self.per_config.iter().enumerate() {
            let comma = if i + 1 < self.per_config.len() {
                ","
            } else {
                ""
            };
            let _ = write!(
                configs,
                "\n    {{\"config\": \"{}\", \"wall_s\": {:.6}, \"events\": {}}}{comma}",
                c.config, c.wall_s, c.events
            );
        }
        format!(
            "{{\n  \"benchmark\": \"fig6_trace_study_kernel\",\n  \"workload\": \"60-min downsized trace, seed 42, 6 TPUs, 5 configs, serial\",\n  \"rounds\": {rounds},\n  \"pre_pr\": {{\n    \"wall_s\": {pre_wall:.6},\n    \"events\": {pre_events},\n    \"events_per_sec\": {pre_eps:.0}\n  }},\n  \"current\": {{\n    \"wall_s\": {wall:.6},\n    \"events\": {events},\n    \"events_per_sec\": {eps:.0},\n    \"pre_pr_equivalent_events_per_sec\": {eq_eps:.0}\n  }},\n  \"speedup_wall\": {speedup:.2},\n  \"per_config\": [{configs}\n  ]\n}}\n",
            rounds = self.rounds,
            pre_wall = PRE_PR_WALL_S,
            pre_events = PRE_PR_EVENTS,
            pre_eps = PRE_PR_EVENTS as f64 / PRE_PR_WALL_S,
            wall = self.wall_s,
            events = self.events,
            eps = self.events_per_sec(),
            eq_eps = self.equivalent_events_per_sec(),
            speedup = self.speedup(),
        )
    }

    /// Renders the human-readable summary `repro --perf` prints.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "### Kernel perf — Fig. 6 trace study, best of {} rounds (serial)\n\
             pre-PR kernel : {:.3} s, {} events ({:.1}M ev/s)\n\
             this kernel   : {:.3} s, {} events ({:.1}M ev/s raw, {:.1}M ev/s pre-PR-equivalent)\n\
             wall speedup  : {:.2}x\n",
            self.rounds,
            PRE_PR_WALL_S,
            PRE_PR_EVENTS,
            PRE_PR_EVENTS as f64 / PRE_PR_WALL_S / 1e6,
            self.wall_s,
            self.events,
            self.events_per_sec() / 1e6,
            self.equivalent_events_per_sec() / 1e6,
            self.speedup(),
        );
        for c in &self.per_config {
            let _ = writeln!(
                out,
                "  {:<28} {:.3} s  {} events",
                c.config, c.wall_s, c.events
            );
        }
        out
    }
}

/// Times `rounds` serial replays of a trace built from `trace_config`
/// against all five Fig. 6 configurations on `tpus` TPUs.
#[must_use]
pub fn run_kernel_perf_with(
    trace_config: &TraceConfig,
    seed: u64,
    tpus: u32,
    rounds: u32,
) -> KernelPerf {
    assert!(rounds > 0, "at least one round");
    let trace = synthesize(trace_config, seed);
    let configs = fig6_configs();
    let mut best_total = f64::INFINITY;
    let mut best_config = vec![f64::INFINITY; configs.len()];
    let mut events_by_config = vec![0u64; configs.len()];
    for _ in 0..rounds {
        let mut total = 0.0;
        for (i, config) in configs.iter().enumerate() {
            let start = Instant::now();
            let outcome = run_trace(*config, &trace, trace_config, tpus);
            let wall = start.elapsed().as_secs_f64();
            total += wall;
            best_config[i] = best_config[i].min(wall);
            events_by_config[i] = outcome.events_processed();
        }
        best_total = best_total.min(total);
    }
    KernelPerf {
        wall_s: best_total,
        events: events_by_config.iter().sum(),
        rounds,
        per_config: configs
            .iter()
            .zip(best_config.iter().zip(events_by_config.iter()))
            .map(|(config, (&wall_s, &events))| ConfigTiming {
                config: config.label(),
                wall_s,
                events,
            })
            .collect(),
    }
}

/// Times the reference workload: the 60-minute downsized trace, seed 42,
/// 6 TPUs — the workload [`PRE_PR_WALL_S`] and [`PRE_PR_EVENTS`] describe.
#[must_use]
pub fn run_kernel_perf(rounds: u32) -> KernelPerf {
    let mut cfg = TraceConfig::microedge_downsized();
    cfg.duration = SimDuration::from_secs(3600);
    run_kernel_perf_with(&cfg, 42, 6, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_perf() -> KernelPerf {
        let mut cfg = TraceConfig::microedge_downsized();
        cfg.duration = SimDuration::from_secs(5 * 60);
        run_kernel_perf_with(&cfg, 7, 6, 1)
    }

    #[test]
    fn harness_reports_work_and_time() {
        let perf = quick_perf();
        assert!(perf.wall_s > 0.0);
        assert!(perf.events > 0);
        assert_eq!(perf.per_config.len(), 5);
        assert!(perf.per_config.iter().all(|c| c.events > 0));
        // The per-config bests cannot exceed the best full loop.
        let sum: f64 = perf.per_config.iter().map(|c| c.wall_s).sum();
        assert!(sum <= perf.wall_s * 1.000_001);
    }

    #[test]
    fn json_has_both_throughput_definitions() {
        let perf = quick_perf();
        let json = perf.to_json();
        assert!(json.contains("\"pre_pr\""));
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"pre_pr_equivalent_events_per_sec\""));
        assert!(json.contains("\"speedup_wall\""));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn summary_mentions_every_config() {
        let perf = quick_perf();
        let text = perf.render_summary();
        for c in &perf.per_config {
            assert!(text.contains(&c.config));
        }
        assert!(text.contains("speedup"));
    }
}
