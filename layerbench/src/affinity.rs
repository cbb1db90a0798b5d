//! Round-robin CPU pinning of the measuring thread.
//!
//! On a shared host one core can be slowed for many seconds by another
//! tenant while the other runs at full speed; a thread the scheduler leaves
//! on the slow core measures the tenant. Pinning successive runs to
//! successive CPUs lets the fastest-round statistics of [`crate::measure`]
//! see every core the process may use.

/// Mask words: room for 1024 CPUs.
const WORDS: usize = 16;
type Mask = [u64; WORDS];

#[cfg(target_os = "linux")]
mod sys {
    use super::Mask;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> Option<Mask> {
        let mut mask = Mask::default();
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Sets the calling thread's CPU mask. Best effort: a refused mask
    /// leaves the thread where it was.
    pub fn set(mask: &Mask) {
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    }
}

/// Elsewhere the mask is unknown and pinning is not attempted.
#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Mask;

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_mask: &Mask) {}
}

/// Pins the calling thread to one allowed CPU after another; restores the
/// thread's original mask when dropped.
#[derive(Debug)]
pub struct CpuRotation {
    original: Mask,
    cpus: Vec<usize>,
}

impl CpuRotation {
    /// A rotation over the CPUs the calling thread may run on; `None` when
    /// there is only one or the mask cannot be read.
    #[must_use]
    pub fn current() -> Option<Self> {
        let original = sys::get()?;
        let cpus: Vec<usize> = (0..WORDS * 64)
            .filter(|&cpu| original[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        (cpus.len() > 1).then_some(Self { original, cpus })
    }

    /// Pins the calling thread to the `k`-th allowed CPU, cyclically.
    pub fn pin(&self, k: usize) {
        let cpu = self.cpus[k % self.cpus.len()];
        let mut mask = Mask::default();
        mask[cpu / 64] = 1 << (cpu % 64);
        sys::set(&mask);
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        sys::set(&self.original);
    }
}
