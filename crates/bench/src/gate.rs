//! The perf-regression gate behind `repro gate`.
//!
//! Compares seven freshly measured artifacts against checked-in
//! baselines and fails (non-zero exit in the CLI) when any per-entry
//! metric grew by more than the allowed factor:
//!
//! * host wall-clock — `BENCH_round_engine.json` (seconds per round) and
//!   `BENCH_gradient_kernel.json` (packed-kernel ns per sweep);
//! * deterministic simulated metrics — `BENCH_policy_tradeoff.json`,
//!   `BENCH_modes.json`, `BENCH_scale.json`, `BENCH_adaptive.json`
//!   (simulated seconds) and `BENCH_net.json` (messages per round), where
//!   any drift is a behaviour change rather than host noise.
//!
//! CI runs it right after the snapshots, so a PR that regresses the round
//! hot path, the packed gradient kernels, or a protocol's simulated cost
//! cannot merge silently.
//!
//! Two safeguards keep the comparison honest:
//!
//! * **Config equality.** A baseline measured at one workload cannot be
//!   compared against a snapshot of another (e.g. `--fast` vs full); the
//!   gate rejects mismatched configs with a readable error instead of
//!   passing vacuously.
//! * **Entry alignment.** Every baseline entry must exist in the current
//!   measurement (keyed by scheme / loss); a missing entry is an error,
//!   not a pass.
//!
//! Wall-clock ratios are only meaningful within one machine class; the
//! default `1.5×` threshold leaves headroom for runner noise while still
//! catching the step-function regressions that matter (a lost
//! vectorization, an accidental per-round allocation, a dropped cache).

use crate::experiments::control::ControlResult;
use crate::experiments::engine_bench::{EngineBenchResult, GradientKernelResult};
use crate::experiments::modes::ModesResult;
use crate::experiments::net_bench::NetBenchResult;
use crate::experiments::policy_sweep::PolicySweepResult;
use crate::experiments::scale::ScaleBenchResult;
use crate::report::Table;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Default failure threshold: a per-entry slowdown beyond 1.5× fails.
pub const DEFAULT_MAX_SLOWDOWN: f64 = 1.5;

/// One gated metric comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateEntry {
    /// Which artifact the entry comes from (`round_engine` /
    /// `gradient_kernel` / `policy_tradeoff` / `modes` / `scale` / `net`
    /// / `adaptive`).
    pub artifact: String,
    /// Entry key within the artifact (scheme or loss name + metric).
    pub entry: String,
    /// Baseline measurement (seconds or nanoseconds — ratio-compared, so
    /// units only need to agree between the two files).
    pub baseline: f64,
    /// Fresh measurement.
    pub current: f64,
    /// `current / baseline` (> 1 ⇒ slower).
    pub ratio: f64,
    /// Whether the entry stays within the allowed slowdown.
    pub ok: bool,
}

/// The gate's full verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateReport {
    /// The threshold applied.
    pub max_slowdown: f64,
    /// Every compared entry, in artifact order.
    pub entries: Vec<GateEntry>,
}

impl GateReport {
    /// True when every entry is within the allowed slowdown.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.entries.iter().all(|e| e.ok)
    }

    /// The entries that breached the threshold.
    #[must_use]
    pub fn failures(&self) -> Vec<&GateEntry> {
        self.entries.iter().filter(|e| !e.ok).collect()
    }
}

fn entry(
    artifact: &str,
    name: String,
    baseline: f64,
    current: f64,
    max_slowdown: f64,
) -> Result<GateEntry, String> {
    if !(baseline.is_finite() && baseline > 0.0) {
        return Err(format!(
            "{artifact}: baseline entry `{name}` has non-positive measurement {baseline}"
        ));
    }
    if !(current.is_finite() && current > 0.0) {
        return Err(format!(
            "{artifact}: current entry `{name}` has non-positive measurement {current}"
        ));
    }
    let ratio = current / baseline;
    Ok(GateEntry {
        artifact: artifact.to_string(),
        entry: name,
        baseline,
        current,
        ratio,
        ok: ratio <= max_slowdown,
    })
}

/// Compares two round-engine results per scheme
/// (`wall_seconds_per_round`).
///
/// # Errors
/// A readable message when the configs differ or a baseline scheme is
/// missing from the current measurement.
pub fn compare_engine(
    baseline: &EngineBenchResult,
    current: &EngineBenchResult,
    max_slowdown: f64,
) -> Result<Vec<GateEntry>, String> {
    if baseline.config != current.config {
        return Err(format!(
            "round_engine: baseline and current configs differ — baseline {:?} vs current {:?}; \
             measure with the same configuration (did one side run --fast?)",
            baseline.config, current.config
        ));
    }
    baseline
        .rows
        .iter()
        .map(|b| {
            let c = current
                .rows
                .iter()
                .find(|c| c.scheme == b.scheme)
                .ok_or_else(|| {
                    format!(
                        "round_engine: scheme `{}` missing from current measurement",
                        b.scheme
                    )
                })?;
            entry(
                "round_engine",
                format!("{} wall s/round", b.scheme),
                b.wall_seconds_per_round,
                c.wall_seconds_per_round,
                max_slowdown,
            )
        })
        .collect()
}

/// Compares two gradient-kernel results per loss (`packed_ns_per_sweep` —
/// the shipped hot path).
///
/// # Errors
/// A readable message when the configs differ or a baseline loss is
/// missing from the current measurement.
pub fn compare_kernel(
    baseline: &GradientKernelResult,
    current: &GradientKernelResult,
    max_slowdown: f64,
) -> Result<Vec<GateEntry>, String> {
    if baseline.config != current.config {
        return Err(format!(
            "gradient_kernel: baseline and current configs differ — baseline {:?} vs current \
             {:?}; measure with the same configuration (did one side run --fast?)",
            baseline.config, current.config
        ));
    }
    baseline
        .rows
        .iter()
        .map(|b| {
            let c = current
                .rows
                .iter()
                .find(|c| c.loss == b.loss)
                .ok_or_else(|| {
                    format!(
                        "gradient_kernel: loss `{}` missing from current measurement",
                        b.loss
                    )
                })?;
            entry(
                "gradient_kernel",
                format!("{} packed ns/sweep", b.loss),
                b.packed_ns_per_sweep,
                c.packed_ns_per_sweep,
                max_slowdown,
            )
        })
        .collect()
}

/// Compares two policy-tradeoff results per cell (`mean_round_time` —
/// simulated seconds, so on the virtual backend any drift is a *behaviour*
/// change, not host noise).
///
/// # Errors
/// A readable message when the configs differ or a baseline cell is
/// missing from the current measurement.
pub fn compare_policy(
    baseline: &PolicySweepResult,
    current: &PolicySweepResult,
    max_slowdown: f64,
) -> Result<Vec<GateEntry>, String> {
    if baseline.config != current.config {
        return Err(format!(
            "policy_tradeoff: baseline and current configs differ — baseline {:?} vs current \
             {:?}; measure with the same configuration (did one side run --fast?)",
            baseline.config, current.config
        ));
    }
    baseline
        .rows
        .iter()
        .map(|b| {
            let c = current.row(&b.model, &b.scheme, &b.policy).ok_or_else(|| {
                format!(
                    "policy_tradeoff: cell `{}/{}/{}` missing from current measurement",
                    b.model, b.scheme, b.policy
                )
            })?;
            entry(
                "policy_tradeoff",
                format!("{}/{}/{} simulated s/round", b.model, b.scheme, b.policy),
                b.mean_round_time,
                c.mean_round_time,
                max_slowdown,
            )
        })
        .collect()
}

/// Compares two training-mode grid results per cell
/// (`simulated_seconds` — deterministic on the virtual backend, so any
/// drift is a *schedule-behaviour* change, not host noise: a regressed
/// entry means the mode's overlap algebra, merge order, or latency
/// sampling changed).
///
/// # Errors
/// A readable message when the configs differ or a baseline cell is
/// missing from the current measurement.
pub fn compare_modes(
    baseline: &ModesResult,
    current: &ModesResult,
    max_slowdown: f64,
) -> Result<Vec<GateEntry>, String> {
    if baseline.config != current.config {
        return Err(format!(
            "modes: baseline and current configs differ — baseline {:?} vs current {:?}; \
             measure with the same configuration (did one side run --fast?)",
            baseline.config, current.config
        ));
    }
    baseline
        .rows
        .iter()
        .map(|b| {
            let c = current.row(&b.model, &b.scheme, &b.mode).ok_or_else(|| {
                format!(
                    "modes: cell `{}/{}/{}` missing from current measurement",
                    b.model, b.scheme, b.mode
                )
            })?;
            entry(
                "modes",
                format!("{}/{}/{} simulated s", b.model, b.scheme, b.mode),
                b.simulated_seconds,
                c.simulated_seconds,
                max_slowdown,
            )
        })
        .collect()
}

/// Compares two adaptive-control grid results per cell
/// (`simulated_seconds` — deterministic on the virtual backend, so any
/// drift is a *controller-behaviour* change, not host noise: a regressed
/// entry means the telemetry statistics, a controller's decision rule, or
/// the round-boundary application changed).
///
/// Additionally fails — a non-ratio check — when any current adaptive
/// cell stopped beating its `static` counterpart on simulated wallclock
/// at equal-or-lower final risk (1 % slack) in at least four cells per
/// controller: the artifact's headline claim must keep holding, not just
/// its timings.
///
/// # Errors
/// A readable message when the configs differ, a baseline cell is missing
/// from the current measurement, or the static-vs-adaptive claim broke.
pub fn compare_control(
    baseline: &ControlResult,
    current: &ControlResult,
    max_slowdown: f64,
) -> Result<Vec<GateEntry>, String> {
    if baseline.config != current.config {
        return Err(format!(
            "adaptive: baseline and current configs differ — baseline {:?} vs current {:?}; \
             measure with the same configuration (did one side run --fast?)",
            baseline.config, current.config
        ));
    }
    let wins = current.wins_over_static(0.01);
    for controller in ["quantile-deadline", "adaptive-k", "regime-switch"] {
        let own = wins.iter().filter(|(_, _, c, _)| c == controller).count();
        if own < 4 {
            return Err(format!(
                "adaptive: controller `{controller}` now beats static in only {own} cells \
                 (need ≥ 4 at ≤ 1% risk slack) — the adaptive-control claim broke"
            ));
        }
    }
    baseline
        .rows
        .iter()
        .map(|b| {
            let c = current
                .row(&b.model, &b.scheme, &b.controller)
                .ok_or_else(|| {
                    format!(
                        "adaptive: cell `{}/{}/{}` missing from current measurement",
                        b.model, b.scheme, b.controller
                    )
                })?;
            entry(
                "adaptive",
                format!("{}/{}/{} simulated s", b.model, b.scheme, b.controller),
                b.simulated_seconds,
                c.simulated_seconds,
                max_slowdown,
            )
        })
        .collect()
}

/// Compares two scale-benchmark results per grid cell
/// (`simulated_seconds_per_round` — deterministic on the virtual backend,
/// so any drift is a behaviour change, not host noise).
///
/// Config equality is keyed on [`ScaleGrid`] alone: the host-timing knobs
/// (`stream_reps`) differ between `--fast` and full runs
/// by design and never influence the gated metrics.
///
/// [`ScaleGrid`]: crate::experiments::scale::ScaleGrid
///
/// # Errors
/// A readable message when the grids differ or a baseline cell is missing
/// from the current measurement.
pub fn compare_scale(
    baseline: &ScaleBenchResult,
    current: &ScaleBenchResult,
    max_slowdown: f64,
) -> Result<Vec<GateEntry>, String> {
    if baseline.config.grid != current.config.grid {
        return Err(format!(
            "scale: baseline and current grids differ — baseline {:?} vs current {:?}; \
             the swept grid must match for cells to compare",
            baseline.config.grid, current.config.grid
        ));
    }
    baseline
        .rows
        .iter()
        .map(|b| {
            let c = current.row(b.workers, b.dim, &b.mode).ok_or_else(|| {
                format!(
                    "scale: cell `n{} d{} {}` missing from current measurement",
                    b.workers, b.dim, b.mode
                )
            })?;
            entry(
                "scale",
                format!("n{} d{} {} simulated s/round", b.workers, b.dim, b.mode),
                b.simulated_seconds_per_round,
                c.simulated_seconds_per_round,
                max_slowdown,
            )
        })
        .collect()
}

/// Compares two networked-backend results per cell (`avg_messages_used` —
/// deterministic on the staircase latency profile, so any drift is a
/// protocol-behaviour change, not host noise). Wall times and byte counts
/// are recorded in the artifact but deliberately **not** gated: loopback
/// TCP timing is host property, not protocol property.
///
/// Additionally fails — the gate's non-ratio check — when any current
/// cell lost bit-equivalence with the virtual backend
/// (`gradients_match_virtual == false`): a backend that diverges from its
/// reference has no baseline worth comparing against.
///
/// # Errors
/// A readable message when the configs differ, a baseline cell is missing
/// from the current measurement, or a current cell broke equivalence.
pub fn compare_net(
    baseline: &NetBenchResult,
    current: &NetBenchResult,
    max_slowdown: f64,
) -> Result<Vec<GateEntry>, String> {
    if baseline.config != current.config {
        return Err(format!(
            "net: baseline and current configs differ — baseline {:?} vs current {:?}; \
             measure with the same configuration (did one side run --fast?)",
            baseline.config, current.config
        ));
    }
    if let Some(broken) = current.rows.iter().find(|r| !r.gradients_match_virtual) {
        return Err(format!(
            "net: cell `{}` no longer matches the virtual backend bit for bit — \
             cross-backend equivalence must hold before perf is worth comparing",
            broken.cell
        ));
    }
    baseline
        .rows
        .iter()
        .map(|b| {
            let c = current.row(&b.cell).ok_or_else(|| {
                format!("net: cell `{}` missing from current measurement", b.cell)
            })?;
            entry(
                "net",
                format!("{} messages/round", b.cell),
                b.avg_messages_used,
                c.avg_messages_used,
                max_slowdown,
            )
        })
        .collect()
}

fn read_json<T: Deserialize>(path: &Path) -> Result<T, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&body).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Runs the full gate: reads the seven artifacts listed in the module
/// docs from both directories and compares every entry.
///
/// # Errors
/// A readable message on missing/unparsable files, config mismatches, or
/// missing entries — all conditions under which a pass would be
/// meaningless.
pub fn run(
    baseline_dir: &Path,
    current_dir: &Path,
    max_slowdown: f64,
) -> Result<GateReport, String> {
    if !(max_slowdown.is_finite() && max_slowdown >= 1.0) {
        return Err(format!(
            "max slowdown must be a finite factor ≥ 1, got {max_slowdown}"
        ));
    }
    let mut entries = Vec::new();
    {
        let baseline: EngineBenchResult = read_json(&baseline_dir.join("BENCH_round_engine.json"))?;
        let current: EngineBenchResult = read_json(&current_dir.join("BENCH_round_engine.json"))?;
        entries.extend(compare_engine(&baseline, &current, max_slowdown)?);
    }
    {
        let baseline: GradientKernelResult =
            read_json(&baseline_dir.join("BENCH_gradient_kernel.json"))?;
        let current: GradientKernelResult =
            read_json(&current_dir.join("BENCH_gradient_kernel.json"))?;
        entries.extend(compare_kernel(&baseline, &current, max_slowdown)?);
    }
    {
        let baseline: PolicySweepResult =
            read_json(&baseline_dir.join("BENCH_policy_tradeoff.json"))?;
        let current: PolicySweepResult =
            read_json(&current_dir.join("BENCH_policy_tradeoff.json"))?;
        entries.extend(compare_policy(&baseline, &current, max_slowdown)?);
    }
    {
        let baseline: ModesResult = read_json(&baseline_dir.join("BENCH_modes.json"))?;
        let current: ModesResult = read_json(&current_dir.join("BENCH_modes.json"))?;
        entries.extend(compare_modes(&baseline, &current, max_slowdown)?);
    }
    {
        let baseline: ScaleBenchResult = read_json(&baseline_dir.join("BENCH_scale.json"))?;
        let current: ScaleBenchResult = read_json(&current_dir.join("BENCH_scale.json"))?;
        entries.extend(compare_scale(&baseline, &current, max_slowdown)?);
    }
    {
        let baseline: NetBenchResult = read_json(&baseline_dir.join("BENCH_net.json"))?;
        let current: NetBenchResult = read_json(&current_dir.join("BENCH_net.json"))?;
        entries.extend(compare_net(&baseline, &current, max_slowdown)?);
    }
    {
        let baseline: ControlResult = read_json(&baseline_dir.join("BENCH_adaptive.json"))?;
        let current: ControlResult = read_json(&current_dir.join("BENCH_adaptive.json"))?;
        entries.extend(compare_control(&baseline, &current, max_slowdown)?);
    }
    Ok(GateReport {
        max_slowdown,
        entries,
    })
}

/// Renders the verdict as a console table.
#[must_use]
pub fn render(report: &GateReport) -> Table {
    let mut t = Table::new(
        format!(
            "perf gate — fail beyond {:.2}x per-entry slowdown",
            report.max_slowdown
        ),
        &[
            "artifact", "entry", "baseline", "current", "ratio", "verdict",
        ],
    );
    for e in &report.entries {
        t.push_row(vec![
            e.artifact.clone(),
            e.entry.clone(),
            format!("{:.3e}", e.baseline),
            format!("{:.3e}", e.current),
            format!("{:.2}x", e.ratio),
            if e.ok {
                "ok".into()
            } else {
                "REGRESSED".into()
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::engine_bench::{
        EngineBenchConfig, EngineBenchRow, GradientKernelConfig, GradientKernelRow,
    };

    fn engine_result(wall: f64) -> EngineBenchResult {
        EngineBenchResult {
            schema: "bcc/bench_round_engine/v1".into(),
            backend: "virtual-des".into(),
            config: EngineBenchConfig::default_config(),
            rows: vec![EngineBenchRow {
                scheme: "bcc".into(),
                rounds: 50,
                wall_seconds_per_round: wall,
                simulated_seconds_per_round: 0.4,
                avg_messages_used: 11.0,
                avg_communication_units: 11.0,
            }],
        }
    }

    fn kernel_result(packed_ns: f64) -> GradientKernelResult {
        GradientKernelResult {
            schema: "bcc/bench_gradient_kernel/v1".into(),
            config: GradientKernelConfig::default_config(),
            rows: vec![GradientKernelRow {
                loss: "logistic".into(),
                per_example_ns_per_sweep: 2.0 * packed_ns,
                packed_ns_per_sweep: packed_ns,
                speedup: 2.0,
            }],
        }
    }

    fn scale_result(sim_round: f64) -> ScaleBenchResult {
        use crate::experiments::scale::{ScaleBenchConfig, ScaleCellRow};
        ScaleBenchResult {
            schema: "bcc/bench_scale/v2".into(),
            backend: "virtual-des".into(),
            host_threads: 1,
            config: ScaleBenchConfig::default_config(),
            rows: vec![ScaleCellRow {
                workers: 50,
                dim: 32,
                mode: "full".into(),
                examples: 200,
                minibatch_units: None,
                rows_per_sweep: 1000,
                stream_seconds_per_sweep: 1e-3,
                stream_examples_per_sec: 1e6,
                chunk_materializations: 13,
                live_chunks: 8,
                simulated_seconds_per_round: sim_round,
                avg_messages_used: 46.0,
            }],
        }
    }

    fn policy_result(mean_round: f64) -> PolicySweepResult {
        use crate::experiments::policy_sweep::{PolicyCellRow, PolicySweepConfig};
        PolicySweepResult {
            schema: "bcc/bench_policy_tradeoff/v1".into(),
            backend: "virtual-des".into(),
            config: PolicySweepConfig::default_config(),
            threads_used: 1,
            rows: vec![PolicyCellRow {
                model: "shifted-exp".into(),
                scheme: "uncoded".into(),
                policy: "fastest-k".into(),
                rounds: 40,
                total_time: 40.0 * mean_round,
                mean_round_time: mean_round,
                p99_round_time: 2.0 * mean_round,
                avg_messages_used: 30.0,
                avg_coverage: 0.6,
                exact_rounds: 0,
                mean_gradient_error: 0.05,
                final_risk: 0.2,
                wall_seconds: 0.01,
            }],
        }
    }

    fn modes_result(sim: f64) -> ModesResult {
        use crate::experiments::modes::{ModeCellRow, ModesConfig};
        ModesResult {
            schema: "bcc/bench_modes/v1".into(),
            backend: "virtual-des".into(),
            config: ModesConfig::default_config(),
            threads_used: 1,
            rows: vec![ModeCellRow {
                model: "pareto".into(),
                scheme: "bcc".into(),
                mode: "ssp".into(),
                rounds: 40,
                simulated_seconds: sim,
                total_round_time: 1.4 * sim,
                avg_messages_used: 11.0,
                mean_staleness: 0.8,
                max_staleness: 3,
                mean_gradient_error: 0.02,
                final_risk: 0.2,
                wall_seconds: 0.01,
            }],
        }
    }

    /// A minimal grid where the adaptive-control claim holds: six
    /// (model × scheme) pairs, each with a slow `static` baseline and
    /// three adaptive controllers at `adaptive_sim` seconds and matched
    /// risk — every adaptive builtin wins in 6 cells (two over the ≥ 4
    /// floor, so dropping a single cell still tests entry alignment, not
    /// the claim check).
    fn control_result(adaptive_sim: f64) -> ControlResult {
        use crate::experiments::control::{ControlCellRow, ControlConfig};
        let mut rows = Vec::new();
        for model in ["markov", "bimodal"] {
            for scheme in ["uncoded", "bcc", "fractional-repetition"] {
                for controller in ["static", "quantile-deadline", "adaptive-k", "regime-switch"] {
                    rows.push(ControlCellRow {
                        model: model.into(),
                        scheme: scheme.into(),
                        controller: controller.into(),
                        rounds: 30,
                        simulated_seconds: if controller == "static" {
                            10.0
                        } else {
                            adaptive_sim
                        },
                        avg_messages_used: 18.0,
                        final_risk: 0.2,
                        switches: usize::from(controller != "static"),
                        trace: Vec::new(),
                        wall_seconds: 0.01,
                    });
                }
            }
        }
        ControlResult {
            schema: "bcc/bench_adaptive/v1".into(),
            backend: "virtual-des".into(),
            config: ControlConfig::default_config(),
            threads_used: 1,
            rows,
        }
    }

    fn net_result(avg_messages: f64) -> NetBenchResult {
        use crate::experiments::net_bench::{NetBenchConfig, NetCellRow};
        NetBenchResult {
            schema: "bcc/bench_net/v3".into(),
            backend: "tcp-local".into(),
            config: NetBenchConfig::default_config(),
            rows: vec![NetCellRow {
                cell: "uncoded".into(),
                scheme: "uncoded".into(),
                policy: "wait-decodable".into(),
                wan: false,
                rounds: 8,
                avg_messages_used: avg_messages,
                avg_communication_units: avg_messages,
                gradients_match_virtual: true,
                round_wall_seconds: vec![0.07; 8],
                mean_round_wall_seconds: 0.07,
                wall_jitter_seconds: 0.004,
                broadcast_wall_seconds: 0.001,
                max_queue_depth: 2,
                flushes: 48,
                backpressure_events: 0,
                stale_frames: 0,
                bytes_sent: 4096,
                bytes_received: 2048,
                frames_sent: 64,
                frames_received: 56,
                deaths: 0,
                reconnects: 0,
            }],
        }
    }

    #[test]
    fn within_threshold_passes() {
        let entries = compare_engine(&engine_result(1e-5), &engine_result(1.4e-5), 1.5).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].ok);
        assert!((entries[0].ratio - 1.4).abs() < 1e-9);
    }

    #[test]
    fn injected_slowdown_fails_the_gate() {
        // The acceptance scenario: a 2x regression on one entry must flip
        // the verdict.
        let entries = compare_engine(&engine_result(1e-5), &engine_result(2e-5), 1.5).unwrap();
        assert!(!entries[0].ok, "2x slowdown must fail a 1.5x gate");
        let report = GateReport {
            max_slowdown: 1.5,
            entries,
        };
        assert!(!report.passed());
        assert_eq!(report.failures().len(), 1);
        assert!(render(&report).render().contains("REGRESSED"));
    }

    #[test]
    fn speedups_always_pass() {
        let entries = compare_kernel(&kernel_result(1000.0), &kernel_result(300.0), 1.5).unwrap();
        assert!(entries[0].ok);
        assert!(entries[0].ratio < 1.0);
    }

    #[test]
    fn config_mismatch_is_an_error_not_a_pass() {
        let baseline = engine_result(1e-5);
        let mut current = engine_result(1e-5);
        current.config.rounds = 10; // e.g. baseline full, current --fast
        let err = compare_engine(&baseline, &current, 1.5).unwrap_err();
        assert!(err.contains("configs differ"), "{err}");
    }

    #[test]
    fn non_positive_measurements_are_errors_on_either_side() {
        // A zeroed current reading must not slip through as a "speedup".
        let err = compare_engine(&engine_result(1e-5), &engine_result(0.0), 1.5).unwrap_err();
        assert!(
            err.contains("current") && err.contains("non-positive"),
            "{err}"
        );
        let err = compare_engine(&engine_result(0.0), &engine_result(1e-5), 1.5).unwrap_err();
        assert!(
            err.contains("baseline") && err.contains("non-positive"),
            "{err}"
        );
    }

    #[test]
    fn missing_entry_is_an_error() {
        let baseline = engine_result(1e-5);
        let mut current = engine_result(1e-5);
        current.rows.clear();
        let err = compare_engine(&baseline, &current, 1.5).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn full_gate_reads_directories_and_flags_regressions() {
        let dir = std::env::temp_dir().join(format!("bcc_gate_test_{}", std::process::id()));
        let baseline_dir = dir.join("baseline");
        let current_dir = dir.join("current");
        std::fs::create_dir_all(&baseline_dir).unwrap();
        std::fs::create_dir_all(&current_dir).unwrap();
        let write = |dir: &Path,
                     engine: &EngineBenchResult,
                     kernel: &GradientKernelResult,
                     policy: &PolicySweepResult,
                     modes: &ModesResult,
                     scale: &ScaleBenchResult,
                     net: &NetBenchResult,
                     control: &ControlResult| {
            std::fs::write(
                dir.join("BENCH_round_engine.json"),
                serde_json::to_string_pretty(engine).unwrap(),
            )
            .unwrap();
            std::fs::write(
                dir.join("BENCH_gradient_kernel.json"),
                serde_json::to_string_pretty(kernel).unwrap(),
            )
            .unwrap();
            std::fs::write(
                dir.join("BENCH_policy_tradeoff.json"),
                serde_json::to_string_pretty(policy).unwrap(),
            )
            .unwrap();
            std::fs::write(
                dir.join("BENCH_modes.json"),
                serde_json::to_string_pretty(modes).unwrap(),
            )
            .unwrap();
            std::fs::write(
                dir.join("BENCH_scale.json"),
                serde_json::to_string_pretty(scale).unwrap(),
            )
            .unwrap();
            std::fs::write(
                dir.join("BENCH_net.json"),
                serde_json::to_string_pretty(net).unwrap(),
            )
            .unwrap();
            std::fs::write(
                dir.join("BENCH_adaptive.json"),
                serde_json::to_string_pretty(control).unwrap(),
            )
            .unwrap();
        };
        write(
            &baseline_dir,
            &engine_result(1e-5),
            &kernel_result(1000.0),
            &policy_result(0.2),
            &modes_result(2.0),
            &scale_result(0.3),
            &net_result(6.0),
            &control_result(2.0),
        );
        // Engine fine, kernel injected 1.6x slower: the gate must fail on
        // exactly that entry.
        write(
            &current_dir,
            &engine_result(1.1e-5),
            &kernel_result(1600.0),
            &policy_result(0.2),
            &modes_result(2.0),
            &scale_result(0.3),
            &net_result(6.0),
            &control_result(2.0),
        );

        let report = run(&baseline_dir, &current_dir, 1.5).unwrap();
        assert_eq!(report.entries.len(), 6 + control_result(2.0).rows.len());
        assert!(!report.passed());
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].artifact, "gradient_kernel");

        // Missing files are errors, not passes.
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&empty, &current_dir, 1.5).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nonsensical_threshold_is_rejected() {
        let err = run(Path::new("."), Path::new("."), 0.5).unwrap_err();
        assert!(err.contains("≥ 1"), "{err}");
    }

    #[test]
    fn policy_config_mismatch_is_an_error_not_a_pass() {
        let baseline = policy_result(0.2);
        let mut current = policy_result(0.2);
        current.config.iterations = 10; // e.g. baseline full, current --fast
        let err = compare_policy(&baseline, &current, 1.5).unwrap_err();
        assert!(err.contains("configs differ"), "{err}");
    }

    #[test]
    fn scale_grid_mismatch_is_an_error_but_rep_counts_are_not() {
        let baseline = scale_result(0.3);
        // Timing-rep knobs may differ (--fast vs full): still comparable.
        let mut current = scale_result(0.3);
        current.config.stream_reps = 1;
        let entries = compare_scale(&baseline, &current, 1.5).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].ok);
        // A different grid is not comparable.
        let mut other_grid = scale_result(0.3);
        other_grid.config.grid.rounds = 7;
        let err = compare_scale(&baseline, &other_grid, 1.5).unwrap_err();
        assert!(err.contains("grids differ"), "{err}");
    }

    #[test]
    fn scale_drift_fails_the_gate() {
        // Simulated round times are deterministic: drift beyond the
        // threshold is a behaviour change.
        let entries = compare_scale(&scale_result(0.3), &scale_result(0.6), 1.5).unwrap();
        assert!(!entries[0].ok);
        assert!(entries[0].entry.contains("n50 d32 full"));
        let missing = ScaleBenchResult {
            rows: Vec::new(),
            ..scale_result(0.3)
        };
        let err = compare_scale(&scale_result(0.3), &missing, 1.5).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn net_drift_fails_the_gate() {
        // Messages per round are deterministic on the staircase profile:
        // drift beyond the threshold is a protocol-behaviour change.
        let entries = compare_net(&net_result(4.0), &net_result(6.0), 1.4).unwrap();
        assert!(!entries[0].ok);
        assert!(entries[0].entry.contains("uncoded"));
        let missing = NetBenchResult {
            rows: Vec::new(),
            ..net_result(6.0)
        };
        let err = compare_net(&net_result(6.0), &missing, 1.5).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn net_equivalence_break_is_an_error_not_a_pass() {
        let baseline = net_result(6.0);
        let mut current = net_result(6.0);
        current.rows[0].gradients_match_virtual = false;
        let err = compare_net(&baseline, &current, 1.5).unwrap_err();
        assert!(
            err.contains("no longer matches the virtual backend"),
            "{err}"
        );
        let mut other_cfg = net_result(6.0);
        other_cfg.config.rounds = 3;
        let err = compare_net(&baseline, &other_cfg, 1.5).unwrap_err();
        assert!(err.contains("configs differ"), "{err}");
    }

    #[test]
    fn modes_drift_fails_the_gate() {
        // Simulated wallclock is deterministic on the virtual backend:
        // drift beyond the threshold is a schedule-behaviour change.
        let entries = compare_modes(&modes_result(2.0), &modes_result(3.5), 1.5).unwrap();
        assert!(!entries[0].ok);
        assert!(entries[0].entry.contains("pareto/bcc/ssp"));
        let missing = ModesResult {
            rows: Vec::new(),
            ..modes_result(2.0)
        };
        let err = compare_modes(&modes_result(2.0), &missing, 1.5).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let mut other_cfg = modes_result(2.0);
        other_cfg.config.iterations = 10; // e.g. baseline full, current --fast
        let err = compare_modes(&modes_result(2.0), &other_cfg, 1.5).unwrap_err();
        assert!(err.contains("configs differ"), "{err}");
    }

    #[test]
    fn control_drift_fails_the_gate() {
        // Simulated wallclock is deterministic on the virtual backend:
        // drift beyond the threshold is a controller-behaviour change.
        let entries = compare_control(&control_result(2.0), &control_result(3.5), 1.5).unwrap();
        let failed: Vec<_> = entries.iter().filter(|e| !e.ok).collect();
        assert!(!failed.is_empty());
        assert!(failed[0].entry.contains("quantile-deadline"));
        let missing = ControlResult {
            rows: control_result(2.0)
                .rows
                .into_iter()
                .filter(|r| {
                    !(r.model == "markov" && r.scheme == "uncoded" && r.controller == "adaptive-k")
                })
                .collect(),
            ..control_result(2.0)
        };
        let err = compare_control(&control_result(2.0), &missing, 1.5).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let mut other_cfg = control_result(2.0);
        other_cfg.config.iterations = 10; // e.g. baseline full, current --fast
        let err = compare_control(&control_result(2.0), &other_cfg, 1.5).unwrap_err();
        assert!(err.contains("configs differ"), "{err}");
    }

    #[test]
    fn control_claim_break_is_an_error_not_a_pass() {
        // An adaptive controller that stops beating static (here: its
        // wallclock now exceeds the 10.0s baseline) must fail the gate
        // even though the ratio comparison alone would pass.
        let baseline = control_result(2.0);
        let mut current = control_result(2.0);
        for row in &mut current.rows {
            if row.controller == "adaptive-k" {
                row.simulated_seconds = 11.0;
            }
        }
        // Keep ratios inside the threshold by widening the allowance.
        let err = compare_control(&baseline, &current, 10.0).unwrap_err();
        assert!(
            err.contains("adaptive-k") && err.contains("claim broke"),
            "{err}"
        );
    }

    #[test]
    fn policy_drift_fails_the_gate() {
        // Simulated round times are deterministic on the virtual backend:
        // anything beyond the threshold is a behaviour change.
        let entries = compare_policy(&policy_result(0.2), &policy_result(0.5), 1.5).unwrap();
        assert!(!entries[0].ok);
        assert!(entries[0].entry.contains("fastest-k"));
        let missing = PolicySweepResult {
            rows: Vec::new(),
            ..policy_result(0.2)
        };
        let err = compare_policy(&policy_result(0.2), &missing, 1.5).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }
}
