//! One run of a spec, assembled from public parts, with per-round host
//! stamps from a [`RoundObserver`] — and optionally every layer wrapped in
//! the timing decorators of [`crate::trace`].
//!
//! `Experiment::from_spec` validates the spec and builds the scheme, the
//! profile and the straggler model; `Experiment::dataset` generates the
//! data. `Experiment::run` has no observer hook, so the round loop is the
//! one it runs for synchronous modes, rebuilt here: the backend from a
//! `BackendConfig` seeded by the documented `derive_seed(seed, 0x5EED)`
//! stream, driven by `DistributedGd::train` (or a `FixedPointDriver` for
//! fixed-point specs). The benchmark checks that the result is
//! bit-identical to `Experiment::run`'s.

use crate::trace::{
    Snapshot, TimedBackend, TimedLoss, TimedModel, TimedOptimizer, TimedPolicy, TimedScheme, Tracer,
};
use bcc::cluster::{
    BackendConfig, ClusterBackend, ClusterError, FixedPointDriver, RoundEvent, RoundObserver,
    RunMetrics, SharedObserver, UnitMap, VirtualCluster,
};
use bcc::coding::GradientCodingScheme;
use bcc::core::{
    BackendSpec, DistributedGd, Experiment, ExperimentSpec, LossSpec, OptimizerSpec,
    PolicyRegistry, TrainingConfig,
};
use bcc::net::{LocalNetCluster, NetStats};
use bcc::optim::{GradientDescent, LogisticLoss, Loss, Nesterov, Optimizer, SquaredLoss};
use bcc::stats::derive_seed;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The backend latency stream `Experiment::run` documents:
/// `derive_seed(spec.seed, 0x5EED)`.
const BACKEND_STREAM: u64 = 0x5EED;

/// What one run measured and produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Host seconds from the spec to the first round's broadcast.
    pub setup_s: f64,
    /// Host seconds from the first broadcast to the end of the round loop.
    pub run_s: f64,
    /// Host ms of each finished round: broadcast to next broadcast (the
    /// last round has no next broadcast and is not a sample).
    pub round_ms: Vec<f64>,
    /// Rounds broadcast.
    pub attempted: usize,
    /// Rounds that ended in a typed error (a failing round ends the run).
    pub failed: usize,
    /// The error the run ended in.
    pub error: Option<ClusterError>,
    /// Final iterate; for fixed-point specs the last round's gradient sum.
    pub weights: Vec<f64>,
    /// Recorded empirical risk per round (empty when not recorded).
    pub risks: Vec<f64>,
    /// Simulated seconds summed over finished rounds.
    pub simulated_seconds: f64,
    /// Messages the master consumed, summed over finished rounds.
    pub messages_used: usize,
    /// Run totals of the TCP backend's counters.
    pub net: Option<NetStats>,
    /// Per-layer figures of a traced run.
    pub layers: Option<LayerRun>,
}

/// Per-layer figures of one traced run.
#[derive(Debug, Clone)]
pub struct LayerRun {
    /// Host seconds `Experiment::dataset` took to generate the data.
    pub generate_s: f64,
    /// Host seconds from `run_rounds` entry to the first broadcast request.
    pub pack_s: f64,
    /// Counter deltas over the timed rounds.
    pub spans: Snapshot,
    /// Wall nanoseconds of the timed rounds.
    pub wall_nanos: u64,
    /// Rounds timed.
    pub rounds: usize,
    /// Smallest per-round residual (wall minus master spans), nanoseconds.
    pub min_residual_nanos: i128,
    /// Counter totals over the whole run.
    pub run_totals: Snapshot,
}

/// Host stamps of the round events, plus a counter snapshot per broadcast
/// in traced runs.
#[derive(Debug)]
struct Stamps {
    tracer: Option<Arc<Tracer>>,
    broadcasts: Vec<(Instant, Snapshot)>,
}

impl RoundObserver for Stamps {
    fn on_event(&mut self, event: &RoundEvent) {
        if let RoundEvent::Broadcast { .. } = event {
            let now = Instant::now();
            let snapshot = self
                .tracer
                .as_ref()
                .map_or_else(Snapshot::zero, |t| t.snapshot());
            self.broadcasts.push((now, snapshot));
        }
    }
}

/// Result of the round loop itself.
struct Loop {
    result: Result<(), ClusterError>,
    end: Instant,
    weights: Vec<f64>,
    risks: Vec<f64>,
    metrics: RunMetrics,
}

/// Runs `spec` once; traced when `tracer` is given.
///
/// # Errors
/// A spec the builder rejects or a backend this benchmark does not drive.
pub fn run_once(spec: &ExperimentSpec, tracer: Option<Arc<Tracer>>) -> Result<RunOutput, String> {
    let start = Instant::now();
    let exp = Experiment::from_spec(spec.clone()).map_err(|e| e.to_string())?;
    let generate = Instant::now();
    let data = exp.dataset();
    let generate_s = generate.elapsed().as_secs_f64();
    let (num_examples, _) = spec.data.shape(spec.units);
    let units = UnitMap::grouped(num_examples, spec.units);
    let backend_seed = derive_seed(spec.seed, BACKEND_STREAM);

    let wan = match &spec.backend {
        BackendSpec::Tcp { wan, .. } => *wan,
        _ => None,
    };
    let mut model = exp.net_model(wan);
    let mut policy = PolicyRegistry::builtin()
        .build(&spec.policy)
        .map_err(|e| e.to_string())?;
    if let Some(tracer) = &tracer {
        model = Arc::new(TimedModel {
            inner: model,
            tracer: Arc::clone(tracer),
        });
        policy = Arc::new(TimedPolicy {
            inner: policy,
            tracer: Arc::clone(tracer),
        });
    }
    let stamps = Arc::new(Mutex::new(Stamps {
        tracer: tracer.clone(),
        broadcasts: Vec::with_capacity(spec.iterations + 1),
    }));
    let observer: SharedObserver = stamps.clone();
    let mut config = BackendConfig::new()
        .straggler_model(model)
        .aggregation_policy(policy)
        .observer(observer);
    if let Some(minibatch) = exp.minibatch() {
        config = config.minibatch(minibatch);
    }

    let parts = Parts {
        exp: &exp,
        spec,
        units: &units,
        tracer: tracer.as_deref(),
    };
    let ((looped, pack_s), net) = match &spec.backend {
        BackendSpec::Virtual => {
            let mut backend =
                VirtualCluster::new(exp.profile().clone(), backend_seed).configured(config);
            (parts.drive(&mut backend, data), None)
        }
        BackendSpec::Tcp {
            time_scale,
            addr: None,
            ..
        } => {
            let mut backend =
                LocalNetCluster::new(exp.profile().clone(), backend_seed, *time_scale)
                    .configured(config);
            let looped = parts.drive(&mut backend, data);
            (looped, backend.last_net_stats())
        }
        other => return Err(format!("backend {other:?} is not driven by this benchmark")),
    };

    let broadcasts = std::mem::take(
        &mut stamps
            .lock()
            .expect("round observer lock poisoned")
            .broadcasts,
    );
    let first = broadcasts.first().map(|b| b.0);
    let round_ms = broadcasts
        .windows(2)
        .map(|w| w[1].0.duration_since(w[0].0).as_secs_f64() * 1e3)
        .collect();
    let layers = tracer.map(|t| {
        LayerRun::new(
            &broadcasts,
            generate_s,
            pack_s.unwrap_or(f64::NAN),
            t.snapshot(),
        )
    });
    let failed = usize::from(looped.result.is_err());
    Ok(RunOutput {
        setup_s: first.map_or(f64::NAN, |b| b.duration_since(start).as_secs_f64()),
        run_s: first.map_or(f64::NAN, |b| looped.end.duration_since(b).as_secs_f64()),
        round_ms,
        attempted: broadcasts.len(),
        failed,
        error: looped.result.err(),
        weights: looped.weights,
        risks: looped.risks,
        simulated_seconds: looped.metrics.total_time,
        messages_used: looped.metrics.messages_used,
        net,
        layers,
    })
}

impl LayerRun {
    /// A traced run's figures; the timed rounds are those between its
    /// broadcast stamps.
    fn new(
        broadcasts: &[(Instant, Snapshot)],
        generate_s: f64,
        pack_s: f64,
        run_totals: Snapshot,
    ) -> Self {
        let mut min_residual_nanos = i128::MAX;
        for w in broadcasts.windows(2) {
            let wall = w[1].0.duration_since(w[0].0).as_nanos() as i128;
            let spans = i128::from(w[1].1.since(&w[0].1).master_total_nanos());
            min_residual_nanos = min_residual_nanos.min(wall - spans);
        }
        let (spans, wall_nanos) = match (broadcasts.first(), broadcasts.last()) {
            (Some(a), Some(b)) => (
                b.1.since(&a.1),
                u64::try_from(b.0.duration_since(a.0).as_nanos())
                    .expect("run shorter than 584 years"),
            ),
            _ => (Snapshot::zero(), 0),
        };
        Self {
            generate_s,
            pack_s,
            spans,
            wall_nanos,
            rounds: broadcasts.len().saturating_sub(1),
            min_residual_nanos,
            run_totals,
        }
    }
}

/// The pieces every backend arm drives the same way.
struct Parts<'a> {
    exp: &'a Experiment,
    spec: &'a ExperimentSpec,
    units: &'a UnitMap,
    tracer: Option<&'a Tracer>,
}

impl Parts<'_> {
    /// Runs the round loop on `backend`; also returns the traced run's
    /// packing seconds.
    fn drive(
        &self,
        backend: &mut dyn ClusterBackend,
        data: &bcc::data::Dataset,
    ) -> (Loop, Option<f64>) {
        let spec = self.spec;
        let plain_loss: &dyn Loss = match spec.loss {
            LossSpec::Logistic => &LogisticLoss,
            LossSpec::Squared => &SquaredLoss,
        };
        let (_, dim) = spec.data.shape(spec.units);

        let timed_scheme;
        let timed_loss;
        let mut timed_backend = None;
        let (scheme, loss, backend): (
            &dyn GradientCodingScheme,
            &dyn Loss,
            &mut dyn ClusterBackend,
        ) = match self.tracer {
            Some(tracer) => {
                timed_scheme = TimedScheme {
                    inner: self.exp.scheme(),
                    units: self.units,
                    tracer,
                };
                timed_loss = TimedLoss {
                    inner: plain_loss,
                    tracer,
                };
                let timed = timed_backend.insert(TimedBackend {
                    inner: backend,
                    tracer,
                    pack_seconds: None,
                });
                (&timed_scheme, &timed_loss, timed)
            }
            None => (self.exp.scheme(), plain_loss, backend),
        };

        let mut optimizer: Option<Box<dyn Optimizer>> = match spec.optimizer {
            OptimizerSpec::Nesterov { rate } => Some(Box::new(Nesterov::new(vec![0.0; dim], rate))),
            OptimizerSpec::GradientDescent { rate } => {
                Some(Box::new(GradientDescent::new(vec![0.0; dim], rate)))
            }
            OptimizerSpec::FixedPoint => None,
        };
        let looped = match optimizer.as_mut() {
            Some(opt) => {
                let mut timed_opt;
                let opt: &mut dyn Optimizer = match self.tracer {
                    Some(tracer) => {
                        timed_opt = TimedOptimizer {
                            inner: opt.as_mut(),
                            tracer,
                        };
                        &mut timed_opt
                    }
                    None => opt.as_mut(),
                };
                let mut gd = DistributedGd::new(backend, scheme, self.units, data, loss)
                    .expect("the builder validated the problem dimensions");
                let config = TrainingConfig {
                    iterations: spec.iterations,
                    record_risk: spec.record_risk,
                };
                let result = gd.train(opt, &config);
                let end = Instant::now();
                match result {
                    Ok(report) => Loop {
                        result: Ok(()),
                        end,
                        weights: report.weights,
                        risks: report.trace.points().iter().map(|p| p.risk).collect(),
                        metrics: report.metrics,
                    },
                    Err(e) => Loop {
                        result: Err(e),
                        end,
                        weights: opt.iterate().to_vec(),
                        risks: Vec::new(),
                        metrics: RunMetrics::new(),
                    },
                }
            }
            None => {
                let mut driver = FixedPointDriver::new(vec![0.0; dim]);
                let result = backend.run_rounds(
                    spec.iterations,
                    scheme,
                    self.units,
                    data,
                    loss,
                    &mut driver,
                );
                let end = Instant::now();
                let mut metrics = RunMetrics::new();
                for outcome in &driver.outcomes {
                    metrics.absorb(&outcome.metrics);
                }
                Loop {
                    result,
                    end,
                    weights: driver
                        .outcomes
                        .last()
                        .map(|o| o.gradient_sum.clone())
                        .unwrap_or_default(),
                    risks: Vec::new(),
                    metrics,
                }
            }
        };
        let pack_s = timed_backend.and_then(|b| b.pack_seconds);
        (looped, pack_s)
    }
}
