//! The pipelined fan-out must be a pure latency optimisation: for every
//! builtin scheme × aggregation policy cell, a loopback TCP run (writer
//! threads, pooled frames, speculative next-round broadcast) must land on
//! *bit-identical* outcomes to the virtual simulation. Only wall-clock
//! fields may differ; decoded gradients, message counts, communication
//! load, and compute-time accounting are compared bit for bit.
//!
//! Determinism across OS scheduling noise is owned by the master's
//! delay-ordered release buffer (see `NetArrivals` in
//! `crates/net/src/master.rs`): the decoder consumes arrivals in simulated
//! `(delay, worker)` order regardless of real socket timing, so this grid
//! is stable even on a loaded single-core host.

use bcc_cluster::backend::FixedPointDriver;
use bcc_cluster::policy::{AggregationPolicy, BestEffortAll, Deadline, FastestK, WaitDecodable};
use bcc_cluster::{
    BackendConfig, ClusterBackend, ClusterProfile, CommModel, RoundOutcome, UnitMap,
    VirtualCluster, WorkerProfile,
};
use bcc_coding::{BccScheme, CyclicRepetitionScheme, GradientCodingScheme, UncodedScheme};
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_net::LocalNetCluster;
use bcc_optim::LogisticLoss;
use bcc_stats::rng::derive_rng;
use std::sync::Arc;

/// Deterministic staircase profile: per-worker shifts far apart relative
/// to the microsecond exponential tail, so simulated arrival order is a
/// fixed scramble of the worker ids.
fn staircase_profile(shifts: &[f64]) -> ClusterProfile {
    ClusterProfile {
        workers: shifts
            .iter()
            .map(|&a| WorkerProfile { mu: 1e4, a })
            .collect(),
        comm: CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.001,
        },
    }
}

/// The builtin schemes the grid pins, all sized for 10 workers / 10 units.
fn builtin_schemes() -> Vec<(&'static str, Box<dyn GradientCodingScheme>)> {
    let (m, n, r) = (10usize, 10usize, 2usize);
    let mut rng = derive_rng(91, 0);
    let bcc = loop {
        let s = BccScheme::new(m, n, r, &mut rng);
        if s.covers_all_batches() {
            break s;
        }
    };
    vec![
        ("uncoded", Box::new(UncodedScheme::new(m, n))),
        ("bcc", Box::new(bcc)),
        (
            "cyclic-rep",
            Box::new(CyclicRepetitionScheme::new(n, r, &mut rng)),
        ),
    ]
}

/// The policy grid. The deadline is placed far beyond every simulated
/// arrival: the policy's wall-derived clock is exercised without making
/// the *cut itself* depend on scheduler jitter, which no transport could
/// pin bit-identically.
fn policies() -> Vec<(&'static str, Arc<dyn AggregationPolicy>)> {
    vec![
        ("wait-decodable", Arc::new(WaitDecodable)),
        ("fastest-8", Arc::new(FastestK::new(8))),
        ("deadline-10s", Arc::new(Deadline::new(10.0))),
        ("best-effort-all", Arc::new(BestEffortAll)),
    ]
}

fn assert_outcomes_match(reference: &RoundOutcome, got: &RoundOutcome, tag: &str) {
    assert_eq!(
        reference.metrics.messages_used, got.metrics.messages_used,
        "{tag}: messages_used diverged"
    );
    assert_eq!(
        reference.metrics.communication_units, got.metrics.communication_units,
        "{tag}: communication load diverged"
    );
    assert_eq!(
        reference.metrics.compute_time.to_bits(),
        got.metrics.compute_time.to_bits(),
        "{tag}: compute-time accounting diverged"
    );
    assert_eq!(reference.coverage, got.coverage, "{tag}: coverage diverged");
    assert_eq!(reference.exact, got.exact, "{tag}: exactness diverged");
    assert_eq!(
        reference.gradient_sum.len(),
        got.gradient_sum.len(),
        "{tag}"
    );
    for (i, (a, b)) in reference
        .gradient_sum
        .iter()
        .zip(&got.gradient_sum)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{tag}: gradient component {i} differs: {a} vs {b}"
        );
    }
}

type RunResult = Result<Vec<RoundOutcome>, String>;

fn run_net(
    scheme: &dyn GradientCodingScheme,
    policy: &Arc<dyn AggregationPolicy>,
    profile: &ClusterProfile,
    units: &UnitMap,
    data: &bcc_data::Dataset,
    rounds: usize,
    seed: u64,
) -> (RunResult, Option<bcc_net::NetStats>) {
    let mut cluster = LocalNetCluster::new(profile.clone(), seed, 0.5)
        .configured(BackendConfig::new().aggregation_policy(Arc::clone(policy)));
    let mut driver = FixedPointDriver::new(vec![0.05; 4]);
    let result = cluster
        .run_rounds(rounds, scheme, units, data, &LogisticLoss, &mut driver)
        .map(|()| driver.outcomes)
        .map_err(|e| e.to_string());
    (result, cluster.last_net_stats())
}

#[test]
fn pipelined_fanout_matches_virtual_across_schemes_and_policies() {
    // 10 workers finishing in the scrambled order 7ᵢ mod 10.
    let shifts: Vec<f64> = (0..10)
        .map(|i| 0.01 * (((i * 7) % 10) + 1) as f64)
        .collect();
    let profile = staircase_profile(&shifts);
    let units = UnitMap::grouped(30, 10);
    let data = generate(&SyntheticConfig::small(30, 4, 91));
    let rounds = 3;

    for (scheme_name, scheme) in builtin_schemes() {
        for (policy_name, policy) in policies() {
            let tag = format!("{scheme_name}/{policy_name}");
            let seed = 97;

            let mut virtual_driver = FixedPointDriver::new(vec![0.05; 4]);
            let virtual_result: RunResult = VirtualCluster::new(profile.clone(), seed)
                .configured(BackendConfig::new().aggregation_policy(Arc::clone(&policy)))
                .run_rounds(
                    rounds,
                    scheme.as_ref(),
                    &units,
                    &data.dataset,
                    &LogisticLoss,
                    &mut virtual_driver,
                )
                .map(|()| virtual_driver.outcomes)
                .map_err(|e| e.to_string());

            let (net_result, stats) = run_net(
                scheme.as_ref(),
                &policy,
                &profile,
                &units,
                &data.dataset,
                rounds,
                seed,
            );

            // Some cells legitimately cannot decode (fastest-8 is below
            // uncoded's n-of-n threshold): then both backends must fail
            // with the *same* error, never just one of them.
            match (virtual_result, net_result) {
                (Ok(virt), Ok(net)) => {
                    assert_eq!(net.len(), rounds, "{tag}: TCP round count");
                    for (r, (v, n)) in virt.iter().zip(&net).enumerate() {
                        assert_outcomes_match(v, n, &format!("{tag} round {r} TCP-vs-virtual"));
                    }
                }
                (Err(virt), Err(net)) => {
                    assert_eq!(virt, net, "{tag}: TCP must fail like the simulation");
                }
                (virt, net) => panic!(
                    "{tag}: backends disagree on success: virtual {:?}, TCP {:?}",
                    virt.is_ok(),
                    net.is_ok()
                ),
            }
            // The run really went through the writer-thread fan-out: every
            // broadcast drains through per-worker queues and flushes.
            let stats = stats.expect("stats after a TCP run");
            assert!(
                stats.flushes > 0,
                "{tag}: TCP run recorded no writer flushes"
            );
            assert!(
                stats.max_queue_depth >= 1,
                "{tag}: TCP run recorded no queue occupancy"
            );
        }
    }
}
