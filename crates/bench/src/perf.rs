//! Kernel performance harness (`repro --perf`).
//!
//! Times the simulation kernel on a fixed reference workload — the five
//! Fig. 6 configurations replayed over the 60-minute downsized trace
//! (seed 42, 6 TPUs) — and writes `BENCH_kernel.json`. The configurations
//! are run *serially* here, on purpose: the harness measures single-thread
//! kernel throughput, not the parallel sweep. Event counts are
//! deterministic; every wall-clock figure is a `host_` field.

#![expect(
    clippy::disallowed_methods,
    reason = "times the simulator itself; lands on host_ lines"
)]

use std::fmt::Write as _;
use std::time::Instant;

use microedge_sim::time::SimDuration;
use microedge_workloads::trace::{synthesize, TraceConfig};

use crate::artifact::{self, fixed};
use crate::trace_study::{fig6_configs, run_trace};

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
    /// Throughput: events over wall-clock.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }

    /// Renders the `BENCH_kernel.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        artifact::document(|d| {
            d.str("benchmark", "fig6_trace_study_kernel")
                .str(
                    "workload",
                    "60-min downsized trace, seed 42, 6 TPUs, 5 configs, serial",
                )
                .num("rounds", self.rounds)
                .num("events", self.events)
                .host("wall_s", fixed(self.wall_s, 6))
                .host("events_per_sec", fixed(self.events_per_sec(), 0))
                .rows("per_config", 4, &self.per_config, |r, c| {
                    r.str("config", &c.config)
                        .num("events", c.events)
                        .host("wall_s", fixed(c.wall_s, 6));
                });
        })
    }

    /// Renders the human-readable summary `repro --perf` prints.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "### Kernel perf — Fig. 6 trace study, best of {} rounds (serial)\n\
             kernel : {:.3} s, {} events ({:.1}M ev/s)\n",
            self.rounds,
            self.wall_s,
            self.events,
            self.events_per_sec() / 1e6,
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
/// 6 TPUs, best of 3 rounds.
#[must_use]
pub fn run_kernel_perf() -> KernelPerf {
    let mut cfg = TraceConfig::microedge_downsized();
    cfg.duration = SimDuration::from_secs(3600);
    run_kernel_perf_with(&cfg, 42, 6, 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::strip_host_lines;

    fn five_minute_perf() -> KernelPerf {
        let mut cfg = TraceConfig::microedge_downsized();
        cfg.duration = SimDuration::from_secs(5 * 60);
        run_kernel_perf_with(&cfg, 7, 6, 1)
    }

    #[test]
    fn harness_reports_work_and_time() {
        let perf = five_minute_perf();
        assert!(perf.wall_s > 0.0);
        assert!(perf.events > 0);
        assert_eq!(perf.per_config.len(), 5);
        assert!(perf.per_config.iter().all(|c| c.events > 0));
        // The per-config bests cannot exceed the best full loop.
        let sum: f64 = perf.per_config.iter().map(|c| c.wall_s).sum();
        assert!(sum <= perf.wall_s * 1.000_001);
    }

    #[test]
    fn json_keeps_timings_on_host_lines() {
        let perf = five_minute_perf();
        let json = perf.to_json();
        assert!(json.contains("\"host_wall_s\""));
        assert!(json.contains("\"host_events_per_sec\""));
        let stripped = strip_host_lines(&json);
        assert!(!stripped.contains("wall") && !stripped.contains("per_sec"));
        for c in &perf.per_config {
            assert!(stripped.contains(&format!(
                "{{\"config\": \"{}\", \"events\": {},",
                c.config, c.events
            )));
        }
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn summary_mentions_every_config() {
        let perf = five_minute_perf();
        let text = perf.render_summary();
        for c in &perf.per_config {
            assert!(text.contains(&c.config));
        }
    }
}
