//! Chunked fork/join helpers built on `crossbeam::scope`.
//!
//! The only data parallelism the workloads need is "split a slice into
//! contiguous chunks, process each on its own thread, combine the results" —
//! e.g. computing per-example partial gradients of a large batch. Scoped
//! threads keep borrows simple (no `Arc`), per the Rust Atomics & Locks
//! guidance, and avoid pulling in a full work-stealing runtime.

use std::num::NonZeroUsize;

/// Degree of parallelism to use for chunked maps.
///
/// Defaults to the machine's available parallelism, capped so tiny inputs do
/// not spawn more threads than chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// Uses up to `n` threads.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    #[must_use]
    pub fn threads(n: usize) -> Self {
        Self(NonZeroUsize::new(n).expect("parallelism must be non-zero"))
    }

    /// Single-threaded execution (useful for deterministic tests).
    #[must_use]
    pub fn sequential() -> Self {
        Self::threads(1)
    }

    /// Available hardware parallelism, falling back to 1.
    #[must_use]
    pub fn available() -> Self {
        Self(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// Thread count.
    #[must_use]
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::available()
    }
}

/// Applies `f` to contiguous chunks of `items` across up to `par` threads and
/// returns per-chunk results in input order.
///
/// `f` receives `(chunk_start_index, chunk)` so callers can recover global
/// indices. Falls back to a simple sequential loop for one thread or small
/// inputs.
pub fn par_chunk_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let threads = par.get().min(items.len().max(1));
    if threads <= 1 || items.is_empty() {
        return if items.is_empty() {
            Vec::new()
        } else {
            vec![f(0, items)]
        };
    }
    let chunk_len = items.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(threads);
    out.resize_with(items.len().div_ceil(chunk_len), || None);

    crossbeam::scope(|s| {
        let mut handles = Vec::with_capacity(out.len());
        for (ci, chunk) in items.chunks(chunk_len).enumerate() {
            let fref = &f;
            handles.push(s.spawn(move |_| (ci, fref(ci * chunk_len, chunk))));
        }
        for h in handles {
            let (ci, r) = h.join().expect("parallel chunk worker panicked");
            out[ci] = Some(r);
        }
    })
    .expect("crossbeam scope failed");

    out.into_iter().map(|r| r.expect("chunk missing")).collect()
}

/// Parallel map-reduce: maps chunks with `map`, folds the per-chunk values
/// with `reduce` in chunk order, starting from `init`.
pub fn par_map_reduce<T, R, M, F>(
    par: Parallelism,
    items: &[T],
    init: R,
    map: M,
    mut reduce: F,
) -> R
where
    T: Sync,
    R: Send,
    M: Fn(usize, &[T]) -> R + Sync,
    F: FnMut(R, R) -> R,
{
    par_chunk_map(par, items, map)
        .into_iter()
        .fold(init, &mut reduce)
}

/// Sums equal-length `f64` vectors produced per chunk — the common pattern for
/// "sum of per-example gradients" — returning a zero vector of `dim` when
/// `items` is empty.
pub fn par_sum_vectors<T, M>(par: Parallelism, items: &[T], dim: usize, map: M) -> Vec<f64>
where
    T: Sync,
    M: Fn(usize, &[T]) -> Vec<f64> + Sync,
{
    par_map_reduce(par, items, vec![0.0; dim], map, |mut acc, v| {
        crate::vec_ops::add_assign(&mut acc, &v);
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_constructors() {
        assert_eq!(Parallelism::sequential().get(), 1);
        assert_eq!(Parallelism::threads(4).get(), 4);
        assert!(Parallelism::available().get() >= 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_parallelism_panics() {
        let _ = Parallelism::threads(0);
    }

    #[test]
    fn chunk_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let sums = par_chunk_map(Parallelism::threads(7), &items, |_, c| {
            c.iter().sum::<u64>()
        });
        let total: u64 = sums.iter().sum();
        assert_eq!(total, 999 * 1000 / 2);
        // Order: first chunk contains the smallest values.
        assert!(sums[0] < *sums.last().unwrap());
    }

    #[test]
    fn chunk_map_passes_global_offsets() {
        let items: Vec<u32> = (0..100).collect();
        let offsets = par_chunk_map(Parallelism::threads(4), &items, |start, chunk| {
            // Each element equals its global index.
            for (k, v) in chunk.iter().enumerate() {
                assert_eq!(*v as usize, start + k);
            }
            start
        });
        assert_eq!(offsets[0], 0);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u8> = vec![];
        let r = par_chunk_map(Parallelism::threads(4), &items, |_, c| c.len());
        assert!(r.is_empty());
        let s = par_sum_vectors(Parallelism::threads(4), &items, 3, |_, _| vec![1.0; 3]);
        assert_eq!(s, vec![0.0; 3]);
    }

    #[test]
    fn sequential_equals_parallel() {
        let items: Vec<f64> = (0..257).map(|i| i as f64).collect();
        let seq = par_map_reduce(
            Parallelism::sequential(),
            &items,
            0.0,
            |_, c| c.iter().sum::<f64>(),
            |a, b| a + b,
        );
        let par = par_map_reduce(
            Parallelism::threads(8),
            &items,
            0.0,
            |_, c| c.iter().sum::<f64>(),
            |a, b| a + b,
        );
        assert!((seq - par).abs() < 1e-9);
    }

    #[test]
    fn par_sum_vectors_sums_per_chunk_gradients() {
        let items: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        // Each chunk contributes [sum, count].
        let s = par_sum_vectors(Parallelism::threads(3), &items, 2, |_, c| {
            vec![c.iter().sum::<f64>(), c.len() as f64]
        });
        assert_eq!(s, vec![55.0, 10.0]);
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1.0, 2.0];
        let r = par_chunk_map(Parallelism::threads(16), &items, |_, c| c.len());
        let total: usize = r.iter().sum();
        assert_eq!(total, 2);
    }
}
