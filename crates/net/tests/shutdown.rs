//! `TcpCluster::shutdown` never hangs on its acceptor.
//!
//! The acceptor thread blocks in `accept`; shutdown wakes it with one
//! connect of its own to the listening address (loopback when the master
//! bound an unspecified address). Without that wake-up the join would
//! wait for a connection that never comes, so each case here runs the
//! shutdown on a helper thread under a fixed wall bound.

use bcc_cluster::engine::RoundContext;
use bcc_cluster::{ClusterBackend, ClusterProfile, CommModel, UnitMap, WorkerBlocks};
use bcc_coding::UncodedScheme;
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_net::{auth_token, connect_with_retry, handshake, serve_rounds, TcpCluster, WorkerConfig};
use bcc_optim::LogisticLoss;
use std::time::Duration;

/// Wall bound on one shutdown: far above the milliseconds it takes.
const SHUTDOWN_BOUND: Duration = Duration::from_secs(2);

fn profile(workers: usize) -> ClusterProfile {
    ClusterProfile::homogeneous(
        workers,
        1e4,
        0.001,
        CommModel {
            per_message_overhead: 0.001,
            per_unit: 0.001,
        },
    )
}

/// Shuts `master` down on a helper thread and fails unless that returns
/// within [`SHUTDOWN_BOUND`].
fn shutdown_within_bound(mut master: TcpCluster) {
    let (done_tx, done_rx) = crossbeam_channel::bounded(1);
    std::thread::spawn(move || {
        master.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(SHUTDOWN_BOUND)
        .expect("shutdown hung past its wall bound");
}

#[test]
fn shutdown_returns_promptly_on_loopback_without_workers() {
    let master = TcpCluster::bind("127.0.0.1:0", profile(2), 3, 1e-3).expect("bind");
    shutdown_within_bound(master);
}

#[test]
fn shutdown_returns_promptly_on_an_unspecified_address_without_workers() {
    let master = TcpCluster::bind("0.0.0.0:0", profile(2), 5, 1e-3).expect("bind");
    assert!(master.local_addr().ip().is_unspecified());
    shutdown_within_bound(master);
}

#[test]
fn shutdown_returns_promptly_after_a_loopback_run() {
    let data = generate(&SyntheticConfig::small(12, 4, 7));
    let units = UnitMap::grouped(12, 4);
    let scheme = UncodedScheme::new(4, 3);
    let packed = WorkerBlocks::build(&scheme, &units, &data.dataset);
    let ctx = RoundContext {
        scheme: &scheme,
        units: &units,
        data: &data.dataset,
        loss: &LogisticLoss,
        packed: &packed,
        minibatch: None,
    };
    let seed = 7;
    let mut master = TcpCluster::bind("127.0.0.1:0", profile(3), seed, 1e-3).expect("bind");
    let addr = master.local_addr().to_string();
    let token = auth_token(seed);
    crossbeam::scope(|scope| {
        for worker in 0..3 {
            let addr = addr.clone();
            let ctx = &ctx;
            scope.spawn(move |_| {
                let mut stream =
                    connect_with_retry(&addr, Duration::from_secs(10)).expect("connect");
                handshake(&mut stream, worker, token).expect("admitted");
                let _ = serve_rounds(stream, ctx, &WorkerConfig::new(worker, 1e-3));
            });
        }
        let out = master
            .run_round(&scheme, &units, &data.dataset, &LogisticLoss, &[0.0; 4])
            .expect("every worker serves the round");
        assert_eq!(out.metrics.messages_used, 3);
        // The workers exit on the master's Shutdown frames, so the scope
        // joins only once shutdown has returned.
        shutdown_within_bound(master);
    })
    .expect("worker threads exit cleanly");
}
