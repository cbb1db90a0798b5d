//! Host-time spans recorded from the benchmark's side of each layer
//! boundary: timing decorators around the public trait objects the
//! program calls through, feeding one [`Tracer`].
//!
//! A span's *self time* is its duration minus the spans nested inside it
//! on the same thread (the policy's `finish` minus the decode it calls, the
//! driver's `consume` minus the optimizer step and risk evaluation), so the
//! self times of one thread never count an instant twice and add up to at
//! most the wall time they cover. Spans on the thread that drives the run
//! (the master) are kept apart from spans on other threads (the in-process
//! TCP workers), which overlap the master in wall time.

use bcc::cluster::{
    AggregatedGradient, AggregationPolicy, ClusterBackend, ClusterError, RoundDriver, RoundOutcome,
    RoundVerdict, RoundView, StragglerModel, UnitMap,
};
use bcc::coding::{CodingError, Coverage, Decoder, GradientCodingScheme, Payload};
use bcc::data::{Dataset, PackedBlock, Placement};
use bcc::linalg::Matrix;
use bcc::optim::{Loss, Optimizer};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The timed layer boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Loss::add_gradient_rows` / `add_gradient` — the gradient kernel.
    Kernel,
    /// `Loss::value` — empirical-risk evaluation.
    Risk,
    /// `Optimizer::step`.
    Step,
    /// `RoundDriver::eval_point` + `consume`.
    Driver,
    /// `GradientCodingScheme::encode`.
    Encode,
    /// `Decoder::receive`.
    Receive,
    /// `Decoder::decode` / `decode_partial` / `partial_sum_terms`.
    Decode,
    /// `StragglerModel::compute_seconds`.
    Latency,
    /// `AggregationPolicy::on_arrival` / `finish`.
    Policy,
}

impl Span {
    /// Every span, in counter order.
    pub const ALL: [Span; 9] = [
        Span::Kernel,
        Span::Risk,
        Span::Step,
        Span::Driver,
        Span::Encode,
        Span::Receive,
        Span::Decode,
        Span::Latency,
        Span::Policy,
    ];
    const COUNT: usize = Self::ALL.len();

    fn index(self) -> usize {
        self as usize
    }
}

/// Counters that are not span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Example rows the gradient kernel processed.
    KernelRows,
    /// Example rows behind the unit partials handed to `encode` (computed
    /// or served from the backend's per-round unit cache).
    EncodedRows,
    /// Messages the master consumed, summed over finished rounds.
    MessagesUsed,
}

const COUNTS: usize = 3;

/// Offsets of each counter group inside a [`Snapshot`].
const MASTER_NANOS: usize = 0;
const OTHER_NANOS: usize = Span::COUNT;
const CALLS: usize = 2 * Span::COUNT;
const EXTRA: usize = 3 * Span::COUNT;
const SNAPSHOT_LEN: usize = EXTRA + COUNTS;

/// A copy of every counter at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot([u64; SNAPSHOT_LEN]);

impl Snapshot {
    /// Self-time nanoseconds of `span` on the master thread.
    #[must_use]
    pub fn master_nanos(&self, span: Span) -> u64 {
        self.0[MASTER_NANOS + span.index()]
    }

    /// Self-time nanoseconds of `span` on all other threads.
    #[must_use]
    pub fn other_nanos(&self, span: Span) -> u64 {
        self.0[OTHER_NANOS + span.index()]
    }

    /// Calls of `span` on any thread.
    #[must_use]
    pub fn calls(&self, span: Span) -> u64 {
        self.0[CALLS + span.index()]
    }

    /// The value of counter `count`.
    #[must_use]
    pub fn count(&self, count: Count) -> u64 {
        self.0[EXTRA + count as usize]
    }

    /// Master-thread self time summed over every span.
    #[must_use]
    pub fn master_total_nanos(&self) -> u64 {
        Span::ALL.iter().map(|&s| self.master_nanos(s)).sum()
    }

    /// Counter-wise `self − earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = [0; SNAPSHOT_LEN];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&earlier.0)) {
            *o = a - b;
        }
        Snapshot(out)
    }

    /// Counter-wise sum.
    #[must_use]
    pub fn plus(&self, other: &Snapshot) -> Snapshot {
        let mut out = [0; SNAPSHOT_LEN];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            *o = a + b;
        }
        Snapshot(out)
    }

    /// All counters zero.
    #[must_use]
    pub fn zero() -> Snapshot {
        Snapshot([0; SNAPSHOT_LEN])
    }
}

thread_local! {
    /// Child-time accumulators of the spans open on this thread.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Whether this thread drives the run (set by [`Tracer::mark_master`]).
    static IS_MASTER: Cell<bool> = const { Cell::new(false) };
}

/// Span and counter sink shared by every decorator of one traced run.
/// Counters are statistics only, so they use relaxed atomics.
#[derive(Debug)]
pub struct Tracer {
    counters: [AtomicU64; SNAPSHOT_LEN],
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Tracer {
    /// Marks the calling thread as the master: its spans are the ones that
    /// must add up to the round wall.
    pub fn mark_master() {
        IS_MASTER.with(|m| m.set(true));
    }

    /// Runs `f` inside a span of kind `span`.
    pub fn span<R>(&self, span: Span, f: impl FnOnce() -> R) -> R {
        OPEN.with(|open| open.borrow_mut().push(0));
        let start = Instant::now();
        let out = f();
        let nanos = u64::try_from(start.elapsed().as_nanos()).expect("span shorter than 584 years");
        let child = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let child = open.pop().expect("span stack balanced");
            if let Some(parent) = open.last_mut() {
                *parent += nanos;
            }
            child
        });
        let group = if IS_MASTER.with(Cell::get) {
            MASTER_NANOS
        } else {
            OTHER_NANOS
        };
        self.add(group + span.index(), nanos - child);
        self.add(CALLS + span.index(), 1);
        out
    }

    /// Adds `n` to counter `count`.
    pub fn count(&self, count: Count, n: u64) {
        self.add(EXTRA + count as usize, n);
    }

    fn add(&self, index: usize, n: u64) {
        self.counters[index].fetch_add(n, Ordering::Relaxed);
    }

    /// Copies every counter.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(std::array::from_fn(|i| {
            self.counters[i].load(Ordering::Relaxed)
        }))
    }
}

/// Timed [`Loss`]: the kernel and the risk evaluation.
pub struct TimedLoss<'a> {
    pub inner: &'a dyn Loss,
    pub tracer: &'a Tracer,
}

impl Loss for TimedLoss<'_> {
    fn value(&self, x: &[f64], y: f64, w: &[f64]) -> f64 {
        self.tracer.span(Span::Risk, || self.inner.value(x, y, w))
    }

    fn add_gradient(&self, x: &[f64], y: f64, w: &[f64], out: &mut [f64]) {
        self.tracer.count(Count::KernelRows, 1);
        self.tracer
            .span(Span::Kernel, || self.inner.add_gradient(x, y, w, out));
    }

    fn gradient(&self, x: &[f64], y: f64, w: &[f64]) -> Vec<f64> {
        self.tracer.count(Count::KernelRows, 1);
        self.tracer
            .span(Span::Kernel, || self.inner.gradient(x, y, w))
    }

    fn add_gradient_rows(
        &self,
        x: &Matrix,
        y: &[f64],
        rows: std::ops::Range<usize>,
        w: &[f64],
        margins: &mut Vec<f64>,
        acc: &mut [f64],
    ) {
        self.tracer.count(Count::KernelRows, rows.len() as u64);
        self.tracer.span(Span::Kernel, || {
            self.inner.add_gradient_rows(x, y, rows, w, margins, acc);
        });
    }

    fn add_gradient_block(
        &self,
        block: &PackedBlock,
        w: &[f64],
        margins: &mut Vec<f64>,
        acc: &mut [f64],
    ) {
        self.tracer.count(Count::KernelRows, block.len() as u64);
        self.tracer.span(Span::Kernel, || {
            self.inner.add_gradient_block(block, w, margins, acc);
        });
    }
}

/// Timed [`GradientCodingScheme`]: encode, plus a timed decoder per round.
#[derive(Debug)]
pub struct TimedScheme<'a> {
    pub inner: &'a dyn GradientCodingScheme,
    pub units: &'a UnitMap,
    pub tracer: &'a Tracer,
}

impl GradientCodingScheme for TimedScheme<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn placement(&self) -> &Placement {
        self.inner.placement()
    }

    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    fn num_examples(&self) -> usize {
        self.inner.num_examples()
    }

    fn encode(&self, worker: usize, partials: &[Vec<f64>]) -> Result<Payload, CodingError> {
        let rows: usize = self
            .inner
            .placement()
            .worker_examples(worker)
            .iter()
            .map(|&unit| self.units.unit_range(unit).len())
            .sum();
        self.tracer.count(Count::EncodedRows, rows as u64);
        self.tracer
            .span(Span::Encode, || self.inner.encode(worker, partials))
    }

    fn decoder(&self) -> Box<dyn Decoder + '_> {
        Box::new(TimedDecoder {
            inner: self.inner.decoder(),
            tracer: self.tracer,
        })
    }

    fn analytic_recovery_threshold(&self) -> Option<f64> {
        self.inner.analytic_recovery_threshold()
    }

    fn message_units(&self, worker: usize) -> usize {
        self.inner.message_units(worker)
    }
}

/// Timed [`Decoder`]: receive (including any per-arrival solve) and decode.
struct TimedDecoder<'a> {
    inner: Box<dyn Decoder + 'a>,
    tracer: &'a Tracer,
}

impl Decoder for TimedDecoder<'_> {
    fn receive(&mut self, worker: usize, payload: Payload) -> Result<bool, CodingError> {
        let inner = &mut self.inner;
        self.tracer
            .span(Span::Receive, || inner.receive(worker, payload))
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn decode(&self) -> Result<Vec<f64>, CodingError> {
        self.tracer.span(Span::Decode, || self.inner.decode())
    }

    fn messages_received(&self) -> usize {
        self.inner.messages_received()
    }

    fn communication_units(&self) -> usize {
        self.inner.communication_units()
    }

    fn coverage(&self) -> Coverage {
        self.inner.coverage()
    }

    fn decode_partial(&self) -> Result<Vec<f64>, CodingError> {
        self.tracer
            .span(Span::Decode, || self.inner.decode_partial())
    }

    fn partial_sum_terms(&self) -> Option<Vec<(f64, &[f64])>> {
        self.tracer
            .span(Span::Decode, || self.inner.partial_sum_terms())
    }
}

/// Timed [`AggregationPolicy`]. Its self time excludes the decoder calls
/// nested in `finish`; the pooled weighted sum `DecodePool` runs over the
/// decoder's terms is `bcc_cluster` code and stays in the policy's time.
#[derive(Debug)]
pub struct TimedPolicy {
    pub inner: Arc<dyn AggregationPolicy>,
    pub tracer: Arc<Tracer>,
}

impl AggregationPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_arrival(&self, view: &RoundView<'_>) -> RoundVerdict {
        self.tracer
            .span(Span::Policy, || self.inner.on_arrival(view))
    }

    fn complete_on_exhausted(&self) -> bool {
        self.inner.complete_on_exhausted()
    }

    fn finish(&self, view: &RoundView<'_>) -> Result<AggregatedGradient, ClusterError> {
        self.tracer.span(Span::Policy, || self.inner.finish(view))
    }
}

/// Timed [`StragglerModel`]: latency sampling.
#[derive(Debug)]
pub struct TimedModel {
    pub inner: Arc<dyn StragglerModel>,
    pub tracer: Arc<Tracer>,
}

impl StragglerModel for TimedModel {
    fn compute_seconds(&self, seed: u64, round: u64, worker: usize, load: usize) -> f64 {
        self.tracer.span(Span::Latency, || {
            self.inner.compute_seconds(seed, round, worker, load)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mean_compute_seconds(&self, worker: usize, load: usize) -> Option<f64> {
        self.inner.mean_compute_seconds(worker, load)
    }
}

/// Timed [`Optimizer`]: the step.
pub struct TimedOptimizer<'a> {
    pub inner: &'a mut dyn Optimizer,
    pub tracer: &'a Tracer,
}

impl Optimizer for TimedOptimizer<'_> {
    fn eval_point(&self) -> &[f64] {
        self.inner.eval_point()
    }

    fn step(&mut self, gradient: &[f64]) {
        let inner = &mut self.inner;
        self.tracer.span(Span::Step, || inner.step(gradient));
    }

    fn iterate(&self) -> &[f64] {
        self.inner.iterate()
    }

    fn iteration(&self) -> usize {
        self.inner.iteration()
    }
}

/// Timed [`RoundDriver`]: the driver's own work between rounds, and the
/// instant of the first broadcast request (the end of the backend's
/// per-run packing).
struct TimedDriver<'a> {
    inner: &'a mut dyn RoundDriver,
    tracer: &'a Tracer,
    first_eval: &'a mut Option<Instant>,
}

impl RoundDriver for TimedDriver<'_> {
    fn eval_point(&mut self, round: usize) -> Vec<f64> {
        self.first_eval.get_or_insert_with(Instant::now);
        let inner = &mut self.inner;
        self.tracer.span(Span::Driver, || inner.eval_point(round))
    }

    fn consume(&mut self, round: usize, outcome: RoundOutcome) {
        self.tracer
            .count(Count::MessagesUsed, outcome.metrics.messages_used as u64);
        let inner = &mut self.inner;
        self.tracer
            .span(Span::Driver, || inner.consume(round, outcome));
    }
}

/// Backend wrapper that times the driver it is handed and records the
/// host seconds from `run_rounds` entry to the first broadcast request —
/// per-run packing, plus fleet spawn and handshake on TCP.
pub struct TimedBackend<'a> {
    pub inner: &'a mut dyn ClusterBackend,
    pub tracer: &'a Tracer,
    /// `run_rounds` entry → first `eval_point` of the last call.
    pub pack_seconds: Option<f64>,
}

impl ClusterBackend for TimedBackend<'_> {
    fn run_round(
        &mut self,
        scheme: &dyn GradientCodingScheme,
        units: &UnitMap,
        data: &Dataset,
        loss: &dyn Loss,
        weights: &[f64],
    ) -> Result<RoundOutcome, ClusterError> {
        self.inner.run_round(scheme, units, data, loss, weights)
    }

    fn run_rounds(
        &mut self,
        rounds: usize,
        scheme: &dyn GradientCodingScheme,
        units: &UnitMap,
        data: &Dataset,
        loss: &dyn Loss,
        driver: &mut dyn RoundDriver,
    ) -> Result<(), ClusterError> {
        let entered = Instant::now();
        let mut first_eval = None;
        let mut timed = TimedDriver {
            inner: driver,
            tracer: self.tracer,
            first_eval: &mut first_eval,
        };
        let result = self
            .inner
            .run_rounds(rounds, scheme, units, data, loss, &mut timed);
        self.pack_seconds = first_eval.map(|first| first.duration_since(entered).as_secs_f64());
        result
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}
