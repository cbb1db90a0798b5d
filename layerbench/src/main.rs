//! `layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` prints the end-to-end metrics of untraced runs; with
//! `--trace 1` the per-layer metrics of traced runs. Either way the last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! `layerbench --workload <name> --seed <n> --write-reference` prints the
//! workload's line for `reference.txt` instead.

use bcc::core::{BackendSpec, Experiment, OptimizerSpec};
use bcc::optim::gradient::{empirical_risk, full_gradient};
use bcc::optim::{LogisticLoss, Nesterov, Optimizer};
use layerbench::check::{self, same_bits, Checks, Expected};
use layerbench::measure::{collect, median, peak_rss_mb, EndToEnd, Layers, RunSummary};
use layerbench::run::RunOutput;
use layerbench::trace::{Count, Span, Tracer};
use layerbench::workload::{virtual_twin, Workload, TARGET_RISK};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: layerbench --workload <train-bcc|protocol-cr|tcp-wide> \
--seed <n> (--seconds <s> --trace <0|1> | --write-reference)";

/// Runs per measured set, whatever the time budget: `setup_s` is a median
/// over runs.
const MIN_RUNS: usize = 3;
/// Relative tolerance of the serial baseline's final risk — the decoders'
/// own tolerance on a decoded gradient.
const DECODE_TOLERANCE: f64 = 1e-6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut write_reference = false;
        while let Some(flag) = args.next() {
            if flag == "--write-reference" {
                write_reference = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    });
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let seed = seed.ok_or("--seed is required")?;
        // Writing a reference line measures nothing.
        let (seconds, trace) = if write_reference {
            (0.0, false)
        } else {
            (
                seconds.ok_or("--seconds is required")?,
                trace.ok_or("--trace is required")?,
            )
        };
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
            write_reference,
        })
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one invocation reports.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    Tracer::mark_master();
    let result = if args.write_reference {
        check::expected(args.workload, args.seed)
            .map(|expected| println!("{}", expected.reference_line(args.workload)))
    } else {
        bench(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let mut checks = Checks::default();
    let expected = check::expected(args.workload, args.seed)?;
    expected.verify_reference(args.workload, &mut checks);
    println!(
        "workload {} seed {}: {} workers, {} rounds per run, {} s budget",
        args.workload.name(),
        args.seed,
        expected.spec.workers,
        expected.spec.iterations,
        args.seconds
    );
    let outcome = if args.trace {
        per_layer(args, &expected, &mut checks)?
    } else {
        end_to_end(args, &expected, &mut checks)?
    };
    checks.expect(outcome.attempted > 0, || "no round was attempted".into());
    let mut correct = checks.passed();
    let mut fields = Vec::new();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            println!("CHECK FAILED: metric {} is not finite", m.name);
            correct = false;
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    Ok(())
}

fn is_virtual(expected: &Expected) -> bool {
    matches!(expected.spec.backend, BackendSpec::Virtual)
}

/// Checks one run, and that it ended on the same bits as `first` — the
/// first checked run's weights, recorded here when still unset.
fn verify_run(
    expected: &Expected,
    run: &RunOutput,
    label: &str,
    virtual_clock: bool,
    first: &mut Option<Vec<f64>>,
    checks: &mut Checks,
) {
    expected.verify(run, label, virtual_clock, checks);
    let first = first.get_or_insert_with(|| run.weights.clone());
    checks.expect(same_bits(&run.weights, first), || {
        format!("{label}: final weights differ from the first run's")
    });
}

fn print_e2e(set: &str, e2e: &EndToEnd) {
    println!(
        "{set}: {} runs, setup_s {:.6} (median), run_s {:.6} (fastest rounds), round_ms p50 {:.6} p95 {:.6} \
         over {} rounds, each the fastest of its runs ({} round samples)",
        e2e.runs,
        e2e.setup_s,
        e2e.run_s,
        e2e.round_ms_p50,
        e2e.round_ms_p95,
        e2e.rounds,
        e2e.samples
    );
}

fn end_to_end(args: &Args, expected: &Expected, checks: &mut Checks) -> Result<Outcome, String> {
    let virtual_clock = is_virtual(expected);
    let mut first = None;
    // Peak memory of one run of the workload: process start, the reference
    // run and the first measured run — before the benchmark's own sample
    // store has grown with the time budget.
    let mut peak_rss = f64::NAN;
    let runs = collect(&expected.spec, false, args.seconds, MIN_RUNS, |i, run| {
        verify_run(
            expected,
            run,
            &format!("untraced run {i}"),
            virtual_clock,
            &mut first,
            checks,
        );
        if i == 0 {
            peak_rss = peak_rss_mb();
        }
    })?;
    let e2e = EndToEnd::from_runs(&runs);
    print_e2e("untraced", &e2e);
    println!("failed_round_frac {}", e2e.failed_round_frac());
    Ok(Outcome {
        attempted: e2e.attempted,
        failed: e2e.failed,
        metrics: vec![
            metric("setup_s", e2e.setup_s, "s"),
            metric("round_ms_p50", e2e.round_ms_p50, "ms"),
            metric("round_ms_p95", e2e.round_ms_p95, "ms"),
            metric("run_s", e2e.run_s, "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
        ],
    })
}

fn per_layer(args: &Args, expected: &Expected, checks: &mut Checks) -> Result<Outcome, String> {
    let spec = &expected.spec;
    let tcp = !is_virtual(expected);
    // The traced set gets half the budget; the untraced set (and on TCP
    // the virtual twin) share the rest.
    let share = if tcp { 0.25 } else { 0.5 };
    let mut first = None;
    let untraced = collect(spec, false, args.seconds * share, MIN_RUNS, |i, run| {
        verify_run(
            expected,
            run,
            &format!("untraced run {i}"),
            !tcp,
            &mut first,
            checks,
        );
    })?;
    let plain = EndToEnd::from_runs(&untraced);
    print_e2e("untraced", &plain);

    let twin = if tcp {
        let mut twin_first = None;
        let runs = collect(
            &virtual_twin(spec),
            false,
            args.seconds * share,
            MIN_RUNS,
            |i, run| {
                verify_run(
                    expected,
                    run,
                    &format!("virtual twin run {i}"),
                    true,
                    &mut twin_first,
                    checks,
                );
            },
        )?;
        let twin = EndToEnd::from_runs(&runs);
        print_e2e("virtual twin", &twin);
        Some((twin, runs))
    } else {
        None
    };

    // Traced runs must end on the untraced runs' bits.
    let traced = collect(spec, true, args.seconds * 0.5, MIN_RUNS, |i, run| {
        verify_run(
            expected,
            run,
            &format!("traced run {i}"),
            !tcp,
            &mut first,
            checks,
        );
    })?;
    let traced_e2e = EndToEnd::from_runs(&traced);
    print_e2e("traced", &traced_e2e);
    let layers = Layers::from_runs(&traced);

    sum_check(&layers, checks);
    let overhead = traced_e2e.round_ms_p50 - plain.round_ms_p50;
    println!(
        "tracing overhead: traced round_ms_p50 {:.6} - untraced {:.6} = {overhead:.6} ms ({:+.2}%)",
        traced_e2e.round_ms_p50,
        plain.round_ms_p50,
        100.0 * overhead / plain.round_ms_p50
    );

    let net_overhead_ms = twin
        .as_ref()
        .map_or(0.0, |(t, _)| plain.round_ms_p50 - t.round_ms_p50);
    print_layer_table(&layers, tcp, net_overhead_ms);

    if args.workload == Workload::TrainBcc {
        let distributed = expected
            .risks
            .as_ref()
            .and_then(|r| r.last().copied())
            .unwrap_or(f64::NAN);
        serial_baseline(expected, distributed, checks)?;
    }

    let all: Vec<&RunSummary> = untraced
        .iter()
        .chain(twin.iter().flat_map(|(_, runs)| runs))
        .chain(&traced)
        .collect();
    let attempted: usize = all.iter().map(|r| r.attempted).sum();
    let failed: usize = all.iter().map(|r| r.failed).sum();
    let failed_round_frac = failed as f64 / attempted.max(1) as f64;

    Ok(Outcome {
        attempted,
        failed,
        metrics: layer_metrics(&layers, &traced, net_overhead_ms, failed_round_frac),
    })
}

/// Sum check: master-thread self times plus the residual are the traced
/// round wall by definition, so what can fail is a round whose spans
/// exceed its wall — an instant counted twice.
fn sum_check(layers: &Layers, checks: &mut Checks) {
    let spans_us = layers.spans_us();
    let residual_us = layers.residual_us();
    let wall_us = layers.wall_us();
    println!(
        "sum check: spans {spans_us:.3} us + residual {residual_us:.3} us = wall {wall_us:.3} us per round \
         over {} traced rounds; smallest per-round residual {} ns",
        layers.rounds, layers.min_residual_nanos
    );
    checks.expect(layers.min_residual_nanos >= 0, || {
        format!(
            "sum check: a round's spans exceed its wall by {} ns",
            -layers.min_residual_nanos
        )
    });
    println!(
        "residual share {:.4} of the traced round wall",
        residual_us / wall_us
    );
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn layer_metrics(
    layers: &Layers,
    traced: &[RunSummary],
    net_overhead_ms: f64,
    failed_round_frac: f64,
) -> Vec<Metric> {
    // Network counters are run totals; report them per round attempted.
    let net_rounds: usize = traced
        .iter()
        .filter(|r| r.net.is_some())
        .map(|r| r.attempted)
        .sum();
    let net_total = |f: fn(&bcc::net::NetStats) -> f64| -> f64 {
        let total: f64 = traced.iter().filter_map(|r| r.net.as_ref()).map(f).sum();
        if net_rounds == 0 {
            0.0
        } else {
            total / net_rounds as f64
        }
    };

    vec![
        metric("data.generate_s", layers.generate_s, "s"),
        metric("cluster.pack_s", layers.pack_s, "s"),
        metric(
            "optim.kernel_ms",
            layers.per_round(Span::Kernel, 1e-6),
            "ms",
        ),
        metric(
            "optim.kernel_rows",
            layers.count_per_round(Count::KernelRows),
            "count",
        ),
        metric("optim.rows_reused_frac", layers.rows_reused_frac(), "ratio"),
        metric("optim.risk_ms", layers.per_round(Span::Risk, 1e-6), "ms"),
        metric("optim.step_us", layers.per_round(Span::Step, 1e-3), "us"),
        metric("core.driver_ms", layers.per_round(Span::Driver, 1e-6), "ms"),
        metric(
            "coding.encode_us",
            layers.per_round(Span::Encode, 1e-3),
            "us",
        ),
        metric(
            "coding.encodes",
            layers.calls_per_round(Span::Encode),
            "count",
        ),
        metric(
            "coding.receive_us",
            layers.per_round(Span::Receive, 1e-3),
            "us",
        ),
        metric(
            "coding.receives",
            layers.calls_per_round(Span::Receive),
            "count",
        ),
        metric(
            "coding.decode_us",
            layers.per_round(Span::Decode, 1e-3),
            "us",
        ),
        metric(
            "cluster.latency_sample_us",
            layers.per_round(Span::Latency, 1e-3),
            "us",
        ),
        metric(
            "cluster.latency_samples",
            layers.calls_per_round(Span::Latency),
            "count",
        ),
        metric(
            "cluster.policy_us",
            layers.per_round(Span::Policy, 1e-3),
            "us",
        ),
        metric(
            "cluster.messages_used",
            layers.count_per_round(Count::MessagesUsed),
            "count",
        ),
        metric("cluster.residual_us", layers.residual_us(), "us"),
        metric(
            "net.bytes",
            net_total(|s| (s.bytes_sent + s.bytes_received) as f64),
            "bytes",
        ),
        metric(
            "net.frames",
            net_total(|s| (s.frames_sent + s.frames_received) as f64),
            "count",
        ),
        metric(
            "net.broadcast_ms",
            net_total(|s| s.broadcast_wall_seconds() * 1e3),
            "ms",
        ),
        metric(
            "net.stale_frames",
            net_total(|s| s.stale_frames as f64),
            "count",
        ),
        metric(
            "net.backpressure_events",
            net_total(|s| s.backpressure_events as f64),
            "count",
        ),
        metric("net.overhead_ms", net_overhead_ms, "ms"),
        metric("failed_round_frac", failed_round_frac, "ratio"),
    ]
}

/// Prints each layer's host time per round and names the largest.
fn print_layer_table(layers: &Layers, tcp: bool, net_overhead_ms: f64) {
    let us = |span| layers.per_round(span, 1e-3);
    let residual = layers.residual_us();
    let mut table = vec![
        ("optim", us(Span::Kernel) + us(Span::Risk) + us(Span::Step)),
        (
            "coding",
            us(Span::Encode) + us(Span::Receive) + us(Span::Decode),
        ),
        ("core", us(Span::Driver)),
    ];
    // The residual is engine bookkeeping on the virtual backend, and
    // sockets and threads on TCP.
    let cluster = us(Span::Latency) + us(Span::Policy);
    if tcp {
        table.push(("cluster", cluster));
        table.push(("net", residual));
    } else {
        table.push(("cluster", cluster + residual));
    }
    for (layer, value) in &table {
        println!("layer {layer}: {value:.3} us per round");
    }
    if tcp {
        println!("net overhead over the virtual twin: {net_overhead_ms:.6} ms per round");
    }
    if let Some((layer, _)) = table.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
        println!("largest layer: {layer}");
    }
}

/// The plain single-worker run of `train-bcc`: serial full gradient and
/// Nesterov over the same data and rounds, through `bcc_optim` alone.
fn serial_baseline(
    expected: &Expected,
    distributed_risk: f64,
    checks: &mut Checks,
) -> Result<(), String> {
    let spec = &expected.spec;
    let OptimizerSpec::Nesterov { rate } = spec.optimizer else {
        return Err("the serial baseline needs a Nesterov spec".into());
    };
    let exp = Experiment::from_spec(spec.clone()).map_err(|e| e.to_string())?;
    let data = exp.dataset();
    let (_, dim) = spec.data.shape(spec.units);
    let mut optimizer = Nesterov::new(vec![0.0; dim], rate);
    let mut round_ms = Vec::with_capacity(spec.iterations);
    let mut risk = f64::NAN;
    for _ in 0..spec.iterations {
        let start = Instant::now();
        let gradient = full_gradient(data, &LogisticLoss, optimizer.eval_point());
        optimizer.step(&gradient);
        risk = empirical_risk(data, &LogisticLoss, optimizer.iterate());
        round_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    println!(
        "baseline.serial_round_ms {:.6} over {} rounds; final risk {risk} (distributed {distributed_risk}, target {TARGET_RISK})",
        median(&round_ms),
        round_ms.len()
    );
    checks.expect(
        (risk - distributed_risk).abs() <= DECODE_TOLERANCE * distributed_risk.abs().max(1.0),
        || {
            format!(
                "serial baseline risk {risk} differs from the distributed run's {distributed_risk}"
            )
        },
    );
    Ok(())
}
