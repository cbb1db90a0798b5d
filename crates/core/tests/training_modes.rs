//! Training-mode pins.
//!
//! Two guarantees the `mode` API makes and this file locks in:
//!
//! 1. **`ssgd` is the legacy driver.** Running an experiment under the
//!    default mode must be *byte-identical* (weights and message counts)
//!    to wiring the backend + [`DistributedGd`] by hand the way callers
//!    did before modes existed — across schemes and aggregation policies.
//! 2. **Every round-protocol mode is backend-invariant.** SSP/ASGD re-time
//!    rounds through offsets sampled master-side from the shared
//!    `(seed, round, worker)` latency stream, so the virtual, threaded, and
//!    loopback-TCP backends must produce byte-identical weights, message
//!    counts, and per-round staleness. LocalSGD simulates its barrier
//!    without any backend, so a real backend is rejected at build time.

use bcc_cluster::{
    AggregationPolicy, BackendConfig, FastestK, UnitMap, VirtualCluster, WaitDecodable,
};
use bcc_core::experiment::LatencySpec;
use bcc_core::experiment::{
    BackendSpec, BuildError, DataSpec, ExperimentBuilder, ModeSpec, OptimizerSpec, PolicySpec,
};
use bcc_core::{DistributedGd, Experiment, SchemeConfig, TrainingConfig};
use bcc_optim::{LearningRate, LogisticLoss, Nesterov};
use bcc_stats::derive_seed;
use std::sync::Arc;

/// The backend latency stream tag (`Experiment::run`'s documented
/// `derive(seed, 0x5EED)`).
const BACKEND_STREAM: u64 = 0x5EED;

/// Staircase latency: per-worker shift gaps ≫ the exponential tail, so
/// real-time arrival order on the threaded/TCP backends is unambiguous
/// (the `net_equivalence` convention for cross-backend pins).
fn staircase() -> LatencySpec {
    LatencySpec::Explicit {
        workers: (0..10)
            .map(|i| bcc_cluster::WorkerProfile {
                mu: 1e4,
                a: 0.02 * i as f64,
            })
            .collect(),
        comm: bcc_cluster::CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.001,
        },
    }
}

fn builder(scheme: SchemeConfig, seed: u64) -> ExperimentBuilder {
    Experiment::builder()
        .name("mode-pin")
        .workers(10)
        .units(10)
        .scheme(scheme)
        .data(DataSpec::synthetic(6, 4))
        .latency(staircase())
        .optimizer(OptimizerSpec::nesterov(0.5))
        .iterations(10)
        .seed(seed)
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: component {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn ssgd_mode_matches_the_legacy_driver() {
    type PolicyFactory = fn() -> Arc<dyn AggregationPolicy>;
    let policies: [(&str, PolicyFactory); 2] = [
        ("wait-decodable", || Arc::new(WaitDecodable)),
        ("fastest-k", || Arc::new(FastestK::new(7))),
    ];
    for scheme in [
        SchemeConfig::Uncoded,
        SchemeConfig::Bcc { r: 2 },
        SchemeConfig::FractionalRepetition { r: 2 },
    ] {
        for (policy_name, policy) in &policies {
            let mut b = builder(scheme, 41).policy(PolicySpec::named(*policy_name));
            if *policy_name == "fastest-k" {
                b = b.policy(PolicySpec::fastest_k(7));
            }
            let exp = b.build().unwrap();
            let via_mode = exp.run().unwrap();

            // The pre-mode call sequence, wired by hand.
            let spec = exp.spec();
            let units = UnitMap::grouped(spec.data.shape(spec.units).0, spec.units);
            let mut backend = VirtualCluster::new(
                exp.profile().clone(),
                derive_seed(spec.seed, BACKEND_STREAM),
            )
            .configured(
                BackendConfig::new()
                    .straggler_model(exp.net_model(None))
                    .aggregation_policy(policy()),
            );
            let mut driver = DistributedGd::new(
                &mut backend,
                exp.scheme(),
                &units,
                exp.dataset(),
                &LogisticLoss,
            )
            .unwrap();
            let mut opt = Nesterov::new(vec![0.0; 4], LearningRate::Constant(0.5));
            let legacy = driver
                .train(
                    &mut opt,
                    &TrainingConfig {
                        iterations: spec.iterations,
                        record_risk: spec.record_risk,
                    },
                )
                .unwrap();

            let what = format!("{} / {policy_name}", scheme.name());
            assert_bitwise_eq(&via_mode.weights, &legacy.weights, &what);
            assert_eq!(
                via_mode.metrics.messages_used, legacy.metrics.messages_used,
                "{what}: messages_used"
            );
            assert_eq!(
                via_mode.metrics.total_time.to_bits(),
                legacy.metrics.total_time.to_bits(),
                "{what}: total_time"
            );
        }
    }
}

/// The threaded/TCP backends run real sleeps: the staircase's gaps are far
/// wider than normal scheduler jitter, but a fully saturated host (the
/// whole workspace sweep in parallel) can overshoot them and slip one
/// extra arrival into a round. As in the `BENCH_net` replay pin, each
/// real-time backend retries a bounded number of times — transient jitter
/// passes on a retry, while a genuine mode-schedule change fails every
/// attempt deterministically.
#[test]
fn every_mode_is_backend_invariant() {
    let backends = [
        BackendSpec::Threaded { time_scale: 0.1 },
        BackendSpec::Tcp {
            time_scale: 0.1,
            addr: None,
            wan: None,
        },
    ];
    for backend in &backends {
        let err = builder(SchemeConfig::Bcc { r: 2 }, 43)
            .mode(ModeSpec::local_sgd(2))
            .backend(backend.clone())
            .build()
            .expect_err("local-sgd never builds a backend, so a real one is refused");
        assert!(
            matches!(
                &err,
                BuildError::InvalidValue { field, reason }
                    if *field == "backend" && reason.contains("virtual")
            ),
            "local-sgd on {backend:?}: expected a typed backend error, got {err:?}"
        );
    }
    for mode in [
        ModeSpec::default(),
        ModeSpec::ssp(3),
        ModeSpec::named("asgd"),
    ] {
        let run = |backend: &BackendSpec| {
            builder(SchemeConfig::Bcc { r: 2 }, 43)
                .mode(mode.clone())
                .backend(backend.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let staleness = |r: &bcc_core::ExperimentReport| -> Vec<usize> {
            r.round_samples.iter().map(|s| s.staleness).collect()
        };
        let virtual_report = run(&BackendSpec::Virtual);

        let matches = |other: &bcc_core::ExperimentReport| -> Result<(), String> {
            if virtual_report
                .weights
                .iter()
                .zip(&other.weights)
                .any(|(x, y)| x.to_bits() != y.to_bits())
            {
                return Err("weights differ".into());
            }
            if virtual_report.metrics.messages_used != other.metrics.messages_used {
                return Err(format!(
                    "messages_used: {} vs {}",
                    virtual_report.metrics.messages_used, other.metrics.messages_used
                ));
            }
            if staleness(&virtual_report) != staleness(other) {
                return Err("per-round staleness differs".into());
            }
            Ok(())
        };
        for (i, backend) in backends.iter().enumerate() {
            let mut last_err = String::new();
            let ok = (0..3).any(|_| match matches(&run(backend)) {
                Ok(()) => true,
                Err(e) => {
                    last_err = e;
                    false
                }
            });
            assert!(
                ok,
                "{} on real-time backend #{i} diverged from the virtual \
                 backend on every attempt: {last_err}",
                mode.name
            );
        }
    }
}

#[test]
fn ssp_staleness_respects_the_bound() {
    for bound in [1usize, 3, 5] {
        let report = builder(SchemeConfig::Bcc { r: 2 }, 47)
            .mode(ModeSpec::ssp(bound))
            .iterations(24)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(
            report.round_samples.iter().all(|s| s.staleness <= bound),
            "bound {bound}: staleness must stay within the SSP window, got {:?}",
            report
                .round_samples
                .iter()
                .map(|s| s.staleness)
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn stale_runs_replay_byte_identically() {
    for mode in [ModeSpec::ssp(4), ModeSpec::named("asgd")] {
        let run = || {
            builder(SchemeConfig::Bcc { r: 2 }, 53)
                .mode(mode.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_bitwise_eq(&a.weights, &b.weights, &mode.name);
        assert_eq!(a.simulated_seconds.to_bits(), b.simulated_seconds.to_bits());
    }
}
