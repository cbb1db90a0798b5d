//! Emulated delays that last as long as requested.
//!
//! The real-time backends turn every sampled straggler delay and every
//! serialized transfer into host time (compressed by `time_scale`). At the
//! small scales the benchmarks use, those delays are microseconds — far
//! below what a kernel sleep can resolve: Linux lets a normal thread's
//! timer fire up to its *timer slack* late (50 µs by default, see
//! `prctl(PR_SET_TIMERSLACK)`), so `std::thread::sleep` of 1 µs takes
//! ~57 µs. [`emulate_delay`] sleeps only while more than the slack is
//! left and yields the CPU for the rest, so the wait ends at its deadline
//! instead of one timer slack after it.

use std::time::{Duration, Instant};

/// Longest single kernel sleep: a cancelled delay notices within one
/// slice.
pub const SLEEP_SLICE: Duration = Duration::from_millis(2);

/// How late a kernel sleep may wake: the Linux default timer slack of a
/// normal thread. Delays shorter than this are waited out by yielding.
pub const TIMER_SLACK: Duration = Duration::from_micros(50);

/// Waits `duration` of host time, returning early only when `cancelled`
/// reports true (checked on every pass).
///
/// Kernel sleeps of at most [`SLEEP_SLICE`] run while more than
/// [`TIMER_SLACK`] is left, each ending at least one slack before the
/// deadline; the remainder is waited out with
/// [`std::thread::yield_now`]. An uncancelled call never returns before
/// its deadline, and a zero duration returns at once.
pub fn emulate_delay(duration: Duration, cancelled: impl Fn() -> bool) {
    let deadline = Instant::now() + duration;
    loop {
        if cancelled() {
            return;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > TIMER_SLACK {
            std::thread::sleep(SLEEP_SLICE.min(left - TIMER_SLACK));
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_returns_before_its_deadline() {
        for duration in [
            Duration::ZERO,
            Duration::from_micros(1),
            Duration::from_micros(100),
            Duration::from_millis(3),
        ] {
            for _ in 0..5 {
                let start = Instant::now();
                emulate_delay(duration, || false);
                let elapsed = start.elapsed();
                assert!(
                    elapsed >= duration,
                    "{duration:?} returned after {elapsed:?}"
                );
            }
        }
    }

    #[test]
    fn zero_duration_returns_at_once() {
        let calls = std::cell::Cell::new(0);
        emulate_delay(Duration::ZERO, || {
            calls.set(calls.get() + 1);
            false
        });
        assert!(calls.get() <= 1, "{} passes for a zero delay", calls.get());
    }

    #[test]
    fn short_delays_do_not_pay_the_timer_slack() {
        // A kernel sleep of 1 µs lasts about one timer slack (~57 µs at
        // the 50 µs default), rarely as little as ~30 µs when another
        // wakeup lands first; the yield tail lasts about the delay. The
        // tenth percentile of many runs, so descheduled runs on a busy
        // host cannot fail the check.
        let mut took: Vec<Duration> = (0..50)
            .map(|_| {
                let start = Instant::now();
                emulate_delay(Duration::from_micros(1), || false);
                start.elapsed()
            })
            .collect();
        took.sort();
        let p10 = took[took.len() / 10];
        assert!(p10 < TIMER_SLACK / 2, "1 µs delays took {p10:?} (p10)");
    }

    #[test]
    fn cancellation_is_noticed_within_one_slice() {
        // The flag flips 10 ms into a 10 s delay. Best of several, so
        // scheduler noise on a busy host cannot fail the check; a helper
        // that slept longer than a slice would overshoot on every run.
        let flip_after = Duration::from_millis(10);
        let best_overshoot = (0..5)
            .map(|_| {
                let start = Instant::now();
                let flip_at = start + flip_after;
                emulate_delay(Duration::from_secs(10), || Instant::now() >= flip_at);
                let elapsed = start.elapsed();
                assert!(elapsed >= flip_after, "returned before the flag flipped");
                elapsed - flip_after
            })
            .min()
            .unwrap();
        assert!(
            best_overshoot <= SLEEP_SLICE + Duration::from_millis(1),
            "noticed cancellation {best_overshoot:?} late"
        );
    }
}
