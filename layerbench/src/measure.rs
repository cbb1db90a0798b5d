//! Repeated runs within a time budget, and the statistics reported over
//! them.

use crate::affinity::CpuRotation;
use crate::run::{run_once, LayerRun, RunOutput};
use crate::trace::{Count, Snapshot, Span, Tracer};
use bcc::core::{BackendSpec, ExperimentSpec};
use bcc::net::NetStats;
use std::sync::Arc;
use std::time::Instant;

/// The figures of one run kept for the statistics: everything but the
/// run's outputs, which are checked as each run ends and then dropped.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Host seconds from the spec to the first broadcast.
    pub setup_s: f64,
    /// Host seconds of the round loop.
    pub run_s: f64,
    /// Host ms of each timed round.
    pub round_ms: Vec<f64>,
    /// Rounds broadcast.
    pub attempted: usize,
    /// Rounds ending in a typed error.
    pub failed: usize,
    /// Run totals of the TCP backend's counters.
    pub net: Option<NetStats>,
    /// Per-layer figures of a traced run.
    pub layers: Option<LayerRun>,
}

/// Runs `spec` repeatedly — each run from the spec, set-up included —
/// until `seconds` have passed and at least `min_runs` runs are done.
/// `inspect` sees each run's full output (to check it) before it is
/// reduced to a [`RunSummary`]. Runs on the virtual backend, which run on
/// the calling thread alone, are pinned to each allowed CPU in turn; TCP
/// runs are left to the scheduler, whose fleet threads would otherwise
/// inherit the pin.
///
/// # Errors
/// The first run [`run_once`] cannot assemble.
pub fn collect(
    spec: &ExperimentSpec,
    traced: bool,
    seconds: f64,
    min_runs: usize,
    mut inspect: impl FnMut(usize, &RunOutput),
) -> Result<Vec<RunSummary>, String> {
    let start = Instant::now();
    let rotation = matches!(spec.backend, BackendSpec::Virtual)
        .then(CpuRotation::current)
        .flatten();
    let mut runs = Vec::new();
    while runs.len() < min_runs || start.elapsed().as_secs_f64() < seconds {
        if let Some(rotation) = &rotation {
            rotation.pin(runs.len());
        }
        let tracer = traced.then(|| Arc::new(Tracer::default()));
        let run = run_once(spec, tracer)?;
        inspect(runs.len(), &run);
        runs.push(RunSummary {
            setup_s: run.setup_s,
            run_s: run.run_s,
            round_ms: run.round_ms,
            attempted: run.attempted,
            failed: run.failed,
            net: run.net,
            layers: run.layers,
        });
    }
    Ok(runs)
}

/// Median (mean of the middle pair for an even count); NaN when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]`; NaN when empty.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// End-to-end figures over a set of untraced runs of one spec.
///
/// Every run of a spec repeats the same rounds on the same inputs, so a
/// round's work is fixed and the host only adds to its time: other tenants
/// of a shared machine slow it, nothing speeds it. Each round's time is
/// therefore its fastest over the runs; the median and 95th percentile are
/// then taken over the rounds, whose work does differ (messages decoded,
/// rows computed). `run_s` is the round loop with every round at its
/// fastest: the sum of the rounds' fastest times plus the fastest final
/// stretch, from the last broadcast to the loop's return.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Round-loop seconds with every round at its fastest.
    pub run_s: f64,
    /// Median over the rounds of each round's fastest ms.
    pub round_ms_p50: f64,
    /// 95th percentile over the rounds of each round's fastest ms.
    pub round_ms_p95: f64,
    /// Rounds timed in a run.
    pub rounds: usize,
    /// Round samples over all runs.
    pub samples: usize,
    /// Rounds attempted.
    pub attempted: usize,
    /// Rounds ending in a typed error.
    pub failed: usize,
    /// Runs measured.
    pub runs: usize,
}

impl EndToEnd {
    /// Summarizes `runs`. Failed rounds are counted, never timed.
    #[must_use]
    pub fn from_runs(runs: &[RunSummary]) -> Self {
        let setups: Vec<f64> = runs
            .iter()
            .map(|r| r.setup_s)
            .filter(|s| s.is_finite())
            .collect();
        let fastest_tail = runs
            .iter()
            .map(|r| r.run_s - r.round_ms.iter().sum::<f64>() * 1e-3)
            .filter(|s| s.is_finite())
            .min_by(f64::total_cmp)
            .unwrap_or(f64::NAN);
        let rounds = fastest_rounds(runs);
        Self {
            setup_s: median(&setups),
            run_s: rounds.iter().sum::<f64>() * 1e-3 + fastest_tail,
            round_ms_p50: median(&rounds),
            round_ms_p95: percentile(&rounds, 0.95),
            rounds: rounds.len(),
            samples: runs.iter().map(|r| r.round_ms.len()).sum(),
            attempted: runs.iter().map(|r| r.attempted).sum(),
            failed: runs.iter().map(|r| r.failed).sum(),
            runs: runs.len(),
        }
    }

    /// Rounds ending in a typed error over rounds attempted.
    #[must_use]
    pub fn failed_round_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Round `i`'s fastest ms over the runs that timed a round `i`.
#[must_use]
pub fn fastest_rounds(runs: &[RunSummary]) -> Vec<f64> {
    let mut fastest: Vec<f64> = Vec::new();
    for run in runs {
        for (i, &ms) in run.round_ms.iter().enumerate() {
            match fastest.get_mut(i) {
                Some(best) => *best = best.min(ms),
                None => fastest.push(ms),
            }
        }
    }
    fastest
}

/// Per-layer totals over a set of traced runs.
#[derive(Debug, Clone)]
pub struct Layers {
    /// Counter deltas over every timed round.
    pub spans: Snapshot,
    /// Wall nanoseconds of those rounds.
    pub wall_nanos: u64,
    /// Timed rounds.
    pub rounds: usize,
    /// Median data-generation seconds per run.
    pub generate_s: f64,
    /// Median packing seconds per run.
    pub pack_s: f64,
    /// Smallest per-round residual seen, nanoseconds.
    pub min_residual_nanos: i128,
    /// Counter totals over whole runs.
    pub run_totals: Snapshot,
}

impl Layers {
    /// Sums the traced figures of `runs`.
    #[must_use]
    pub fn from_runs(runs: &[RunSummary]) -> Self {
        let layers: Vec<_> = runs.iter().filter_map(|r| r.layers.as_ref()).collect();
        let generate: Vec<f64> = layers.iter().map(|l| l.generate_s).collect();
        let pack: Vec<f64> = layers.iter().map(|l| l.pack_s).collect();
        Self {
            spans: layers
                .iter()
                .fold(Snapshot::zero(), |acc, l| acc.plus(&l.spans)),
            wall_nanos: layers.iter().map(|l| l.wall_nanos).sum(),
            rounds: layers.iter().map(|l| l.rounds).sum(),
            generate_s: median(&generate),
            pack_s: median(&pack),
            min_residual_nanos: layers
                .iter()
                .map(|l| l.min_residual_nanos)
                .min()
                .unwrap_or(0),
            run_totals: layers
                .iter()
                .fold(Snapshot::zero(), |acc, l| acc.plus(&l.run_totals)),
        }
    }

    /// Self time of `span` on every thread, per timed round, in `scale`
    /// units per nanosecond (1e-3 for µs, 1e-6 for ms).
    #[must_use]
    pub fn per_round(&self, span: Span, scale: f64) -> f64 {
        let nanos = self.spans.master_nanos(span) + self.spans.other_nanos(span);
        self.mean(nanos as f64) * scale
    }

    /// Calls of `span` per timed round.
    #[must_use]
    pub fn calls_per_round(&self, span: Span) -> f64 {
        self.mean(self.spans.calls(span) as f64)
    }

    /// Counter `count` per timed round.
    #[must_use]
    pub fn count_per_round(&self, count: Count) -> f64 {
        self.mean(self.spans.count(count) as f64)
    }

    /// Every master-thread span, µs per round.
    #[must_use]
    pub fn spans_us(&self) -> f64 {
        self.mean(self.spans.master_total_nanos() as f64) * 1e-3
    }

    /// Round wall minus every master-thread span, µs per round.
    #[must_use]
    pub fn residual_us(&self) -> f64 {
        self.wall_us() - self.spans_us()
    }

    /// Round wall, µs per round.
    #[must_use]
    pub fn wall_us(&self) -> f64 {
        self.mean(self.wall_nanos as f64) * 1e-3
    }

    /// Share of unit rows handed to `encode` that the backend's unit cache
    /// served instead of the kernel. Taken over whole runs: worker threads
    /// compute and encode across round boundaries.
    #[must_use]
    pub fn rows_reused_frac(&self) -> f64 {
        let encoded = self.run_totals.count(Count::EncodedRows) as f64;
        if encoded == 0.0 {
            return 0.0;
        }
        1.0 - self.run_totals.count(Count::KernelRows) as f64 / encoded
    }

    /// `total` per timed round; 0 when no round was timed.
    fn mean(&self, total: f64) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        total / self.rounds as f64
    }
}

/// Peak resident memory of this process in MB (`VmHWM`); NaN where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fastest_rounds_take_each_index_minimum() {
        // Round times in ms; each run's final stretch is 1 ms or 2 ms.
        let run = |round_ms: Vec<f64>, tail_ms: f64| RunSummary {
            setup_s: 1.0,
            run_s: (round_ms.iter().sum::<f64>() + tail_ms) * 1e-3,
            round_ms,
            attempted: 3,
            failed: 0,
            net: None,
            layers: None,
        };
        let runs = [run(vec![3.0, 1.0, 5.0], 2.0), run(vec![2.0, 4.0], 1.0)];
        assert_eq!(fastest_rounds(&runs), vec![2.0, 1.0, 5.0]);
        let e2e = EndToEnd::from_runs(&runs);
        assert!((e2e.run_s - 9e-3).abs() < 1e-12, "{}", e2e.run_s);
        assert_eq!(e2e.rounds, 3);
        assert_eq!(e2e.samples, 5);
        assert_eq!(e2e.round_ms_p50, 2.0);
    }
}
