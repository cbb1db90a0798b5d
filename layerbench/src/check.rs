//! Output checks: what every run of a workload must reproduce, taken from
//! `Experiment::run`, and the pinned reference values in `reference.txt`.

use crate::run::RunOutput;
use crate::workload::{virtual_twin, Workload, TARGET_RISK};
use bcc::core::{Experiment, ExperimentReport, ExperimentSpec};

/// Pinned simulated-clock values: `workload seed workers rounds
/// messages_used simulated_seconds_bits` per line.
const REFERENCE: &str = include_str!("../reference.txt");

/// Collects failed checks; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            println!("CHECK FAILED: {message}");
            self.failures.push(message);
        }
    }

    /// True when no check failed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The simulated-clock facts of one virtual run, as pinned in the
/// reference file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pinned {
    /// Rounds run.
    pub rounds: usize,
    /// Messages used over all rounds.
    pub messages: usize,
    /// Simulated seconds over all rounds.
    pub simulated_seconds: f64,
}

/// What every run of a workload must reproduce.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The spec the benchmark measures (`train-bcc` shortened to the round
    /// that reaches the target risk).
    pub spec: ExperimentSpec,
    /// Risk per round, when recorded.
    pub risks: Option<Vec<f64>>,
    /// Final weights, when `Experiment::run` reports meaningful ones.
    pub weights: Option<Vec<f64>>,
    /// The virtual run's simulated-clock facts (`tcp-wide`: its twin's).
    pub pinned: Pinned,
}

fn pinned_of(report: &ExperimentReport, rounds: usize) -> Pinned {
    let samples = &report.round_samples[..rounds];
    Pinned {
        rounds,
        messages: samples.iter().map(|s| s.messages_used).sum(),
        simulated_seconds: samples.iter().fold(0.0, |acc, s| acc + s.total_time),
    }
}

fn run_spec(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    Experiment::from_spec(spec.clone())
        .map_err(|e| e.to_string())?
        .run()
        .map_err(|e| format!("Experiment::run of {}: {e}", spec.name))
}

/// Runs the workload once through `Experiment::run` (untimed) and derives
/// what the measured runs must reproduce.
///
/// # Errors
/// The reference run fails, or `train-bcc` never reaches its target risk.
pub fn expected(workload: Workload, seed: u64) -> Result<Expected, String> {
    let mut spec = workload.spec(seed);
    match workload {
        Workload::TrainBcc => {
            let report = run_spec(&spec)?;
            let risks: Vec<f64> = report.trace.points().iter().map(|p| p.risk).collect();
            let reached = risks
                .iter()
                .position(|&r| r <= TARGET_RISK)
                .ok_or_else(|| {
                    format!(
                    "train-bcc: risk {:?} after {} rounds never reached the target {TARGET_RISK}",
                    risks.last(),
                    risks.len()
                )
                })?;
            spec.iterations = reached + 1;
            Ok(Expected {
                spec,
                pinned: pinned_of(&report, reached + 1),
                risks: Some(risks[..=reached].to_vec()),
                weights: None,
            })
        }
        Workload::ProtocolCr => {
            let report = run_spec(&spec)?;
            Ok(Expected {
                pinned: pinned_of(&report, spec.iterations),
                spec,
                risks: None,
                weights: None,
            })
        }
        Workload::TcpWide => {
            let report = run_spec(&virtual_twin(&spec))?;
            Ok(Expected {
                pinned: pinned_of(&report, spec.iterations),
                spec,
                risks: None,
                weights: Some(report.weights),
            })
        }
    }
}

/// `a` and `b` bit for bit.
#[must_use]
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Expected {
    /// Checks one measured run. `virtual_clock` says whether its simulated
    /// seconds are deterministic (TCP rounds are timed on the host clock).
    pub fn verify(&self, run: &RunOutput, label: &str, virtual_clock: bool, checks: &mut Checks) {
        checks.expect(run.error.is_none(), || {
            format!("{label}: run ended in error: {:?}", run.error)
        });
        checks.expect(run.attempted == self.spec.iterations, || {
            format!(
                "{label}: {} of {} rounds broadcast",
                run.attempted, self.spec.iterations
            )
        });
        if let Some(risks) = &self.risks {
            checks.expect(same_bits(&run.risks, risks), || {
                format!("{label}: risk trace differs from Experiment::run")
            });
            checks.expect(run.risks.last().is_some_and(|&r| r <= TARGET_RISK), || {
                format!(
                    "{label}: final risk {:?} misses the target {TARGET_RISK}",
                    run.risks.last()
                )
            });
        }
        if let Some(weights) = &self.weights {
            checks.expect(same_bits(&run.weights, weights), || {
                format!("{label}: weights differ from the virtual twin's Experiment::run")
            });
        }
        checks.expect(run.messages_used == self.pinned.messages, || {
            format!(
                "{label}: {} messages used, Experiment::run used {}",
                run.messages_used, self.pinned.messages
            )
        });
        if virtual_clock {
            checks.expect(
                run.simulated_seconds.to_bits() == self.pinned.simulated_seconds.to_bits(),
                || {
                    format!(
                        "{label}: {} simulated seconds, Experiment::run took {}",
                        run.simulated_seconds, self.pinned.simulated_seconds
                    )
                },
            );
        }
    }

    /// Checks the pinned values against the reference file, when it has a
    /// line for this workload, seed and worker count.
    pub fn verify_reference(&self, workload: Workload, checks: &mut Checks) {
        match lookup(workload.name(), self.spec.seed, self.spec.workers) {
            Some(pinned) => {
                checks.expect(pinned == self.pinned, || {
                    format!(
                        "{}: simulated facts {:?} differ from the reference {pinned:?}",
                        workload.name(),
                        self.pinned
                    )
                });
                if pinned == self.pinned {
                    println!(
                        "reference: seed {} matches the pinned messages_used and simulated seconds",
                        self.spec.seed
                    );
                }
            }
            None => println!(
                "reference: no pinned line for seed {} with {} workers",
                self.spec.seed, self.spec.workers
            ),
        }
    }

    /// This workload's line for the reference file.
    #[must_use]
    pub fn reference_line(&self, workload: Workload) -> String {
        format!(
            "{} {} {} {} {} {:016x}",
            workload.name(),
            self.spec.seed,
            self.spec.workers,
            self.pinned.rounds,
            self.pinned.messages,
            self.pinned.simulated_seconds.to_bits()
        )
    }
}

fn lookup(workload: &str, seed: u64, workers: usize) -> Option<Pinned> {
    REFERENCE.lines().find_map(|line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [name, s, n, rounds, messages, bits]
                if *name == workload && s.parse() == Ok(seed) && n.parse() == Ok(workers) =>
            {
                Some(Pinned {
                    rounds: rounds.parse().ok()?,
                    messages: messages.parse().ok()?,
                    simulated_seconds: f64::from_bits(u64::from_str_radix(bits, 16).ok()?),
                })
            }
            _ => None,
        }
    })
}
