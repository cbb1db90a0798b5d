//! The data-path scaling benchmark behind `BENCH_scale.json` —
//! `repro scale`.
//!
//! Sweeps a grid of `n` workers × feature dimension × {full, minibatch}
//! rounds and measures, per cell:
//!
//! * **Streaming compute throughput** (the headline, in gradient-example
//!   evaluations per second): every worker's compute + encode sweep through
//!   a [`StreamedContext`] over a [`ChunkedDataset`] whose live-chunk
//!   window is bounded, so peak memory stays independent of the example
//!   count. The chunk size tiles the coding units, so every unit read is a
//!   zero-copy alias of a live chunk.
//! * **Simulated round metrics** from a replayable [`ExperimentSpec`]
//!   (virtual backend, fixed-point rounds). These are deterministic in the
//!   spec seed — identical across hosts, thread counts, and `--fast` — and
//!   are what the perf gate compares, so drift means a behaviour change,
//!   never host noise.
//!
//! `--fast` trims only the host-timing repetitions
//! ([`ScaleBenchConfig::stream_reps`]); the grid — and with it every
//! simulated metric and every persisted cell spec — is unchanged, which
//! is why the gate can compare a `--fast` snapshot against the committed
//! full artifact (it keys config equality on [`ScaleGrid`] alone).

use crate::report::{f1, Table};
use bcc_cluster::{Minibatch, StreamedContext, UnitMap, UnitSelection};
use bcc_coding::{CyclicRepetitionScheme, GradientCodingScheme, Payload};
use bcc_core::experiment::{
    BackendSpec, ControllerSpec, DataSpec, Experiment, ExperimentSpec, LatencySpec, LossSpec,
    ModeSpec, OptimizerSpec, PolicySpec,
};
use bcc_data::synthetic::SyntheticConfig;
use bcc_data::ChunkedDataset;
use bcc_linalg::parallel::Parallelism;
use bcc_optim::{GradScratch, LogisticLoss};
use bcc_stats::rng::derive_rng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Stream tag for the cyclic-repetition placement RNG (unused by the
/// deterministic CR construction, but fixed so the scheme build is
/// reproducible by contract).
const SCHEME_STREAM: u64 = 0x5CA1E;

/// The swept grid — the gate's config-equality key. Everything here shapes
/// the *deterministic* outputs (cell specs and simulated metrics);
/// host-timing knobs live on [`ScaleBenchConfig`] instead so `--fast`
/// snapshots stay comparable against full baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleGrid {
    /// Worker counts `n` (one coding unit per worker, `m = n`).
    pub workers: Vec<usize>,
    /// Feature dimensions.
    pub dims: Vec<usize>,
    /// Examples per coding unit.
    pub points_per_unit: usize,
    /// Computational load `r` (cyclic-repetition window).
    pub r: usize,
    /// Minibatch cells sample `units / minibatch_divisor` units per round.
    pub minibatch_divisor: usize,
    /// Simulated rounds per cell.
    pub rounds: usize,
    /// Live-chunk bound of the streamed dataset (peak resident chunks).
    pub max_live_chunks: usize,
    /// Spec seed.
    pub seed: u64,
}

/// Configuration of one scale-benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleBenchConfig {
    /// The deterministic grid (the gate's comparison key).
    pub grid: ScaleGrid,
    /// Timed streaming sweeps per cell (minimum is reported).
    pub stream_reps: usize,
}

impl ScaleBenchConfig {
    /// The full grid: `n ∈ {50, 200, 1000} × dim ∈ {32, 1024, 10240}`,
    /// full and minibatch rounds — 18 cells.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            grid: ScaleGrid {
                workers: vec![50, 200, 1000],
                dims: vec![32, 1024, 10240],
                points_per_unit: 4,
                r: 5,
                minibatch_divisor: 4,
                rounds: 3,
                max_live_chunks: 8,
                seed: 2024,
            },
            stream_reps: 3,
        }
    }

    /// Reduced host-timing repetitions for smoke runs. The grid is
    /// untouched: every deterministic output (simulated metrics, cell
    /// specs) is identical to the full run's, so the gate still compares.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            stream_reps: 1,
            ..Self::default_config()
        }
    }
}

/// One grid cell: a worker count, a dimension, and the round mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleCell {
    /// Workers `n` (= units `m`).
    pub workers: usize,
    /// Feature dimension.
    pub dim: usize,
    /// `Some(k)`: sample `k` units per round; `None`: full rounds.
    pub minibatch: Option<usize>,
}

impl ScaleCell {
    /// `full` or `minibatch` — the mode key used in rows and file names.
    #[must_use]
    pub fn mode(&self) -> &'static str {
        if self.minibatch.is_some() {
            "minibatch"
        } else {
            "full"
        }
    }

    /// The cell's artifact/file stem, e.g. `scale_n200_d1024_minibatch`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("scale_n{}_d{}_{}", self.workers, self.dim, self.mode())
    }
}

impl ScaleGrid {
    /// Units sampled per round in a minibatch cell with `n` units.
    #[must_use]
    pub fn minibatch_units(&self, units: usize) -> usize {
        (units / self.minibatch_divisor).max(1)
    }

    /// Every cell of the grid, in row order (n-major, then dim, then
    /// full before minibatch).
    #[must_use]
    pub fn cells(&self) -> Vec<ScaleCell> {
        let mut cells = Vec::new();
        for &n in &self.workers {
            for &dim in &self.dims {
                for minibatch in [None, Some(self.minibatch_units(n))] {
                    cells.push(ScaleCell {
                        workers: n,
                        dim,
                        minibatch,
                    });
                }
            }
        }
        cells
    }

    /// The replayable spec behind one cell's simulated metrics
    /// (fixed-point rounds on the virtual backend).
    #[must_use]
    pub fn cell_spec(&self, cell: &ScaleCell) -> ExperimentSpec {
        let mut data = DataSpec::synthetic(self.points_per_unit, cell.dim);
        if let Some(k) = cell.minibatch {
            data = data.with_minibatch(k);
        }
        ExperimentSpec {
            name: cell.name(),
            workers: cell.workers,
            units: cell.workers,
            scheme: bcc_core::schemes::SchemeConfig::CyclicRepetition { r: self.r }.spec(),
            data,
            latency: LatencySpec::Ec2Like,
            backend: BackendSpec::Virtual,
            loss: LossSpec::Logistic,
            optimizer: OptimizerSpec::FixedPoint,
            policy: PolicySpec::default(),
            mode: ModeSpec::default(),
            controller: ControllerSpec::default(),
            iterations: self.rounds,
            record_risk: false,
            seed: self.seed,
        }
    }
}

/// One cell's measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleCellRow {
    /// Workers `n` (= units).
    pub workers: usize,
    /// Feature dimension.
    pub dim: usize,
    /// `full` or `minibatch`.
    pub mode: String,
    /// Total examples `m · points_per_unit`.
    pub examples: usize,
    /// Units sampled per round (`None` on full cells).
    pub minibatch_units: Option<usize>,
    /// Gradient-example evaluations per streaming sweep (counts
    /// replication: each selected unit is computed by `r` workers).
    pub rows_per_sweep: usize,
    /// Host seconds of the fastest full streaming compute+encode sweep.
    pub stream_seconds_per_sweep: f64,
    /// The headline: `rows_per_sweep / stream_seconds_per_sweep`.
    pub stream_examples_per_sec: f64,
    /// Chunk materializations during the first sweep (cache misses — shows
    /// the LRU window actually streamed instead of going fully resident).
    pub chunk_materializations: u64,
    /// Live chunks after the sweep (bounded by the grid's
    /// `max_live_chunks`).
    pub live_chunks: usize,
    /// Mean simulated round latency (deterministic; gated).
    pub simulated_seconds_per_round: f64,
    /// Mean messages consumed per round (deterministic).
    pub avg_messages_used: f64,
}

/// The full benchmark result (serialized to `BENCH_scale.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleBenchResult {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// Backend behind the simulated metrics.
    pub backend: String,
    /// Hardware threads of the measuring host — the context every
    /// wall-clock column must be read in.
    pub host_threads: usize,
    /// The configuration measured.
    pub config: ScaleBenchConfig,
    /// One row per grid cell, in [`ScaleGrid::cells`] order.
    pub rows: Vec<ScaleCellRow>,
}

impl ScaleBenchResult {
    /// The row of one grid cell, keyed like the gate compares.
    #[must_use]
    pub fn row(&self, workers: usize, dim: usize, mode: &str) -> Option<&ScaleCellRow> {
        self.rows
            .iter()
            .find(|r| r.workers == workers && r.dim == dim && r.mode == mode)
    }
}

/// Builds the cell's cyclic-repetition scheme. CR keeps the placement
/// deterministic at any `n` (no coverage retry loop).
fn cell_scheme(grid: &ScaleGrid, n: usize) -> CyclicRepetitionScheme {
    let mut rng = derive_rng(grid.seed, SCHEME_STREAM);
    CyclicRepetitionScheme::new(n, grid.r, &mut rng)
}

/// The evaluation point used by every streaming sweep (fixed, seedless).
fn eval_point(dim: usize) -> Vec<f64> {
    (0..dim).map(|k| 0.05 * ((k as f64) * 0.7).sin()).collect()
}

/// Gradient-example evaluations of one sweep: every worker's selected
/// assigned units' rows.
fn sweep_rows(
    scheme: &dyn GradientCodingScheme,
    units: &UnitMap,
    selection: Option<&UnitSelection>,
) -> usize {
    (0..scheme.num_workers())
        .map(|w| {
            scheme
                .placement()
                .worker_examples(w)
                .iter()
                .filter(|&&u| selection.is_none_or(|sel| sel.contains(u)))
                .map(|&u| units.unit_range(u).len())
                .sum::<usize>()
        })
        .sum()
}

/// Runs the scale benchmark over the full grid.
///
/// # Panics
/// Panics when a cell's spec fails to build or run (the grid is
/// structurally valid by construction).
#[must_use]
pub fn run(config: &ScaleBenchConfig) -> ScaleBenchResult {
    let grid = &config.grid;
    let rows = grid
        .cells()
        .iter()
        .map(|cell| {
            let n = cell.workers;
            let num_examples = n * grid.points_per_unit;

            // Deterministic, replayable simulated metrics (the gated part).
            let report = Experiment::from_spec(grid.cell_spec(cell))
                .expect("scale cell specs are structurally valid")
                .run()
                .expect("scale cell rounds complete");

            // Streamed compute+encode throughput over the bounded-memory
            // chunked dataset (chunks tile the units → zero-copy reads).
            let scheme = cell_scheme(grid, n);
            let units = UnitMap::grouped(num_examples, n);
            let chunked = ChunkedDataset::synthetic(
                SyntheticConfig {
                    num_examples,
                    dim: cell.dim,
                    separation: 1.5,
                    seed: grid.seed,
                },
                grid.points_per_unit,
                grid.max_live_chunks,
            );
            let selection = cell
                .minibatch
                .map(|k| Minibatch::new(k, grid.seed).select(0, n));
            let ctx = StreamedContext {
                scheme: &scheme,
                units: &units,
                data: &chunked,
                loss: &LogisticLoss,
            };
            let w = eval_point(cell.dim);
            let mut scratch = GradScratch::new();
            let mut stream_best = f64::INFINITY;
            let mut first_sweep_misses = 0;
            for rep in 0..config.stream_reps.max(1) {
                let t = Instant::now();
                let out: Vec<Payload> = (0..n)
                    .map(|worker| {
                        ctx.compute_and_encode(worker, &w, &mut scratch, selection.as_ref())
                            .expect("streamed encode succeeds")
                    })
                    .collect();
                stream_best = stream_best.min(t.elapsed().as_secs_f64());
                if rep == 0 {
                    first_sweep_misses = chunked.materializations();
                }
                std::hint::black_box(out);
            }
            let rows_per_sweep = sweep_rows(&scheme, &units, selection.as_ref());

            ScaleCellRow {
                workers: n,
                dim: cell.dim,
                mode: cell.mode().to_string(),
                examples: num_examples,
                minibatch_units: cell.minibatch,
                rows_per_sweep,
                stream_seconds_per_sweep: stream_best,
                stream_examples_per_sec: rows_per_sweep as f64 / stream_best,
                chunk_materializations: first_sweep_misses,
                live_chunks: chunked.live_chunks(),
                simulated_seconds_per_round: report.metrics.avg_round_time(),
                avg_messages_used: report.metrics.avg_recovery_threshold(),
            }
        })
        .collect();

    ScaleBenchResult {
        schema: "bcc/bench_scale/v2".into(),
        backend: "virtual-des".into(),
        host_threads: Parallelism::available().get(),
        config: config.clone(),
        rows,
    }
}

/// Renders the result as a console table.
#[must_use]
pub fn render(result: &ScaleBenchResult) -> Table {
    let mut table = Table::new(
        format!(
            "data-path scaling, {} cells (host threads: {})",
            result.rows.len(),
            result.host_threads
        ),
        &["cell", "examples", "stream ex/s", "sim s/round", "K (msgs)"],
    );
    for row in &result.rows {
        table.push_row(vec![
            format!("n{} d{} {}", row.workers, row.dim, row.mode),
            row.examples.to_string(),
            format!("{:.3e}", row.stream_examples_per_sec),
            format!("{:.3}", row.simulated_seconds_per_round),
            f1(row.avg_messages_used),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleBenchConfig {
        ScaleBenchConfig {
            grid: ScaleGrid {
                workers: vec![8, 12],
                dims: vec![3],
                points_per_unit: 2,
                r: 3,
                minibatch_divisor: 4,
                rounds: 2,
                max_live_chunks: 3,
                seed: 11,
            },
            stream_reps: 1,
        }
    }

    #[test]
    fn grid_enumerates_full_and_minibatch_cells() {
        let grid = ScaleBenchConfig::default_config().grid;
        let cells = grid.cells();
        assert_eq!(cells.len(), 18, "3 n × 3 dim × 2 modes");
        assert_eq!(cells[0].mode(), "full");
        assert_eq!(cells[1].mode(), "minibatch");
        assert_eq!(cells[1].minibatch, Some(12), "50 units / 4");
        let spec = grid.cell_spec(&cells[1]);
        assert_eq!(spec.data.minibatch(), Some(12));
        assert_eq!(spec.units, 50);
    }

    #[test]
    fn tiny_grid_produces_sane_rows_and_roundtrips() {
        let cfg = tiny();
        let result = run(&cfg);
        assert_eq!(result.rows.len(), 4, "2 n × 1 dim × 2 modes");
        for row in &result.rows {
            assert!(row.stream_examples_per_sec > 0.0, "{row:?}");
            assert!(row.simulated_seconds_per_round > 0.0, "{row:?}");
            assert!(
                row.live_chunks <= cfg.grid.max_live_chunks,
                "LRU bound violated: {row:?}"
            );
            assert!(row.chunk_materializations > 0, "{row:?}");
        }
        let full = result.row(8, 3, "full").unwrap();
        let mini = result.row(8, 3, "minibatch").unwrap();
        assert_eq!(mini.minibatch_units, Some(2));
        assert!(
            mini.rows_per_sweep < full.rows_per_sweep,
            "minibatch sweeps touch fewer rows"
        );
        let json = serde_json::to_string(&result).unwrap();
        assert!(json.contains("bcc/bench_scale/v2"));
        let back: ScaleBenchResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, result);
        assert_eq!(render(&result).len(), 4);
    }

    #[test]
    fn fast_mode_keeps_the_grid_and_the_simulated_metrics() {
        assert_eq!(
            ScaleBenchConfig::fast().grid,
            ScaleBenchConfig::default_config().grid,
            "--fast must stay gate-comparable against the full artifact"
        );
        let mut fast = tiny();
        fast.stream_reps = 2;
        let a = run(&tiny());
        let b = run(&fast);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(
                ra.simulated_seconds_per_round.to_bits(),
                rb.simulated_seconds_per_round.to_bits(),
                "simulated metrics are rep-invariant"
            );
            assert_eq!(ra.avg_messages_used, rb.avg_messages_used);
            assert_eq!(ra.rows_per_sweep, rb.rows_per_sweep);
        }
    }
}
