//! Fault injection over real sockets: workers that drop their connection
//! mid-round, and a peer that stays connected but falls silent.
//!
//! The contract under test is the tentpole's fault story: a worker death
//! is detected (EOF fast path, heartbeat-timeout slow path), mapped onto
//! the live set, and surfaced through the policy layer's exhaustion path —
//! [`BestEffortAll`] completes the round with whatever coverage arrived,
//! the default [`bcc_cluster::WaitDecodable`] returns a typed
//! [`ClusterError::Stalled`]. Neither ever hangs: every test here runs
//! against real TCP connections with bounded timeouts.

use bcc_cluster::backend::FixedPointDriver;
use bcc_cluster::engine::RoundContext;
use bcc_cluster::{
    AggregationPolicy, BackendConfig, BestEffortAll, ClusterBackend, ClusterError, ClusterProfile,
    CommModel, RoundOutcome, UnitMap, WaitDecodable, WorkerBlocks, WorkerProfile,
};
use bcc_coding::UncodedScheme;
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_net::{
    auth_token, connect_with_retry, handshake, serve_rounds, LocalNetCluster, NetStats, TcpCluster,
    WorkerConfig,
};
use bcc_optim::LogisticLoss;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic staircase: 5 workers, tens-of-milliseconds shifts.
fn profile() -> ClusterProfile {
    ClusterProfile {
        workers: [0.025, 0.005, 0.020, 0.010, 0.015]
            .iter()
            .map(|&a| WorkerProfile { mu: 1e4, a })
            .collect(),
        comm: CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.001,
        },
    }
}

#[test]
fn best_effort_all_completes_despite_midround_death() {
    let data = generate(&SyntheticConfig::small(30, 4, 61));
    let units = UnitMap::grouped(30, 10);
    let scheme = UncodedScheme::new(10, 5);
    let mut cluster = LocalNetCluster::new(profile(), 61, 1.0).configured(
        BackendConfig::new()
            .aggregation_policy(Arc::new(BestEffortAll))
            .recv_timeout(Duration::from_secs(5)),
    );
    // Worker 2 drops its connection the moment round 0 starts.
    cluster.fail_worker_at(2, 0);
    let out = cluster
        .run_round(&scheme, &units, &data.dataset, &LogisticLoss, &[0.0; 4])
        .expect("best-effort round completes despite the death");
    assert_eq!(
        out.metrics.messages_used, 4,
        "all four survivors contribute, the dead worker does not"
    );
    let stats = cluster.last_net_stats().expect("stats after a run");
    assert_eq!(stats.deaths, 1, "exactly one death recorded");
}

#[test]
fn wait_decodable_surfaces_typed_error_not_a_hang() {
    let data = generate(&SyntheticConfig::small(30, 4, 67));
    let units = UnitMap::grouped(30, 10);
    let scheme = UncodedScheme::new(10, 5);
    // Default policy (WaitDecodable): uncoded cannot decode with a death.
    let mut cluster = LocalNetCluster::new(profile(), 67, 1.0)
        .configured(BackendConfig::new().recv_timeout(Duration::from_secs(5)));
    cluster.fail_worker_at(0, 0);
    let start = Instant::now();
    let err = cluster
        .run_round(&scheme, &units, &data.dataset, &LogisticLoss, &[0.0; 4])
        .unwrap_err();
    assert!(
        matches!(
            err,
            ClusterError::Stalled { received: 4, ref reason } if reason.contains("died mid-round")
        ),
        "got {err:?}"
    );
    // The EOF fast path must detect the death promptly — far inside the
    // receive timeout, never a hang.
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "death detection must be bounded"
    );
}

#[test]
fn run_continues_past_a_death_under_best_effort() {
    // The acceptance scenario: a mid-run death completes its round with
    // reduced coverage and the next rounds proceed without the dead worker.
    let data = generate(&SyntheticConfig::small(30, 4, 71));
    let units = UnitMap::grouped(30, 10);
    let scheme = UncodedScheme::new(10, 5);
    let mut cluster = LocalNetCluster::new(profile(), 71, 1.0).configured(
        BackendConfig::new()
            .aggregation_policy(Arc::new(BestEffortAll))
            .recv_timeout(Duration::from_secs(5)),
    );
    cluster.fail_worker_at(4, 1);
    let mut driver = FixedPointDriver::new(vec![0.0; 4]);
    cluster
        .run_rounds(
            3,
            &scheme,
            &units,
            &data.dataset,
            &LogisticLoss,
            &mut driver,
        )
        .expect("best-effort run survives a mid-run death");
    assert_eq!(driver.outcomes.len(), 3);
    // Round 0: everyone alive. Round 1: worker 4 dies mid-round. Round 2:
    // the survivor set carries on.
    assert_eq!(driver.outcomes[0].metrics.messages_used, 5);
    assert_eq!(driver.outcomes[1].metrics.messages_used, 4);
    assert_eq!(driver.outcomes[2].metrics.messages_used, 4);
    let stats = cluster.last_net_stats().expect("stats after a run");
    assert_eq!(stats.deaths, 1);
}

/// Silence threshold for the frozen-peer tests: well above the survivors'
/// heartbeat cadence, far below the receive timeout.
const FROZEN_HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(400);

/// Wall-time bound on a round with a frozen peer: the heartbeat timeout
/// plus generous scheduling slack, and well under the receive timeout,
/// so only the heartbeat path can end the round in time.
const FROZEN_ROUND_BOUND: Duration = Duration::from_secs(8);

/// Runs one round on a bound [`TcpCluster`] where workers 0, 1, 3 and 4
/// serve normally and worker 2 completes the handshake, then neither
/// reads nor writes while keeping its socket open. Returns the round's
/// result, its wall time, and the transport counters.
fn round_with_frozen_peer(
    policy: Arc<dyn AggregationPolicy>,
    seed: u64,
) -> (Result<RoundOutcome, ClusterError>, Duration, NetStats) {
    const FROZEN: usize = 2;
    let data = generate(&SyntheticConfig::small(30, 4, seed));
    let units = UnitMap::grouped(30, 10);
    let scheme = UncodedScheme::new(10, 5);
    let packed = WorkerBlocks::build(&scheme, &units, &data.dataset);
    let ctx = RoundContext {
        scheme: &scheme,
        units: &units,
        data: &data.dataset,
        loss: &LogisticLoss,
        packed: &packed,
        minibatch: None,
    };
    let mut master = TcpCluster::bind("127.0.0.1:0", profile(), seed, 1.0)
        .expect("bind master")
        .configured(
            BackendConfig::new()
                .aggregation_policy(policy)
                .heartbeat_timeout(FROZEN_HEARTBEAT_TIMEOUT)
                .recv_timeout(Duration::from_secs(60))
                .connect_timeout(Duration::from_secs(10)),
        );
    let addr = master.local_addr().to_string();
    let token = auth_token(seed);
    let connect = Duration::from_secs(10);

    // The frozen peer holds its socket open, unread and unwritten, until
    // the master has shut down.
    let (release_tx, release_rx) = crossbeam_channel::bounded::<()>(1);
    let (result, elapsed) = crossbeam::scope(|scope| {
        let frozen_addr = addr.clone();
        scope.spawn(move |_| {
            let mut stream = connect_with_retry(&frozen_addr, connect).expect("connect");
            handshake(&mut stream, FROZEN, token).expect("frozen peer is admitted");
            let _ = release_rx.recv();
            drop(stream);
        });
        for worker in (0..5).filter(|&w| w != FROZEN) {
            let addr = addr.clone();
            let ctx = &ctx;
            scope.spawn(move |_| {
                let mut stream = connect_with_retry(&addr, connect).expect("connect");
                handshake(&mut stream, worker, token).expect("admitted");
                let _ = serve_rounds(stream, ctx, &WorkerConfig::new(worker, 1.0));
            });
        }
        let start = Instant::now();
        let result = master.run_round(&scheme, &units, &data.dataset, &LogisticLoss, &[0.0; 4]);
        let elapsed = start.elapsed();
        master.shutdown();
        let _ = release_tx.send(());
        (result, elapsed)
    })
    .expect("worker threads exit cleanly");
    (result, elapsed, master.stats())
}

#[test]
fn best_effort_all_completes_past_a_frozen_peer() {
    let (result, elapsed, stats) = round_with_frozen_peer(Arc::new(BestEffortAll), 73);
    let out = result.expect("best-effort round completes once the silent peer is declared dead");
    assert_eq!(
        out.metrics.messages_used, 4,
        "the four survivors contribute, the frozen peer does not"
    );
    assert!(!out.exact, "4 of 5 uncoded shards cannot decode exactly");
    assert_eq!(
        stats.deaths, 1,
        "the frozen peer is the one death, found by silence"
    );
    assert!(
        elapsed < FROZEN_ROUND_BOUND,
        "heartbeat-timeout detection must bound the round, took {elapsed:?}"
    );
}

#[test]
fn wait_decodable_reports_a_frozen_peer_as_stalled() {
    let (result, elapsed, stats) = round_with_frozen_peer(Arc::new(WaitDecodable), 79);
    let err = result.expect_err("uncoded cannot decode without the frozen peer's shard");
    assert!(
        matches!(err, ClusterError::Stalled { received: 4, .. }),
        "got {err:?}"
    );
    assert_eq!(stats.deaths, 1);
    assert!(
        elapsed < FROZEN_ROUND_BOUND,
        "a frozen peer must end in a typed error within a bounded wall time, took {elapsed:?}"
    );
}
