//! Moving the measuring thread over the host's cores in turn.
//!
//! On a shared VM one vCPU can run a loop markedly slower than another
//! for minutes at a time, and the scheduler tends to leave a lone busy
//! thread on whichever core it started on. A single-threaded run would
//! then measure one core or the other, or an unpredictable mix of the
//! two. [`Rotation`] pins the calling thread to the allowed cores in
//! turn, so every run spends the same number of windows on each.
//!
//! Only for single-threaded loops: threads spawned while pinned inherit
//! the pin. Where pinning is not available this does nothing.

/// The allowed cores of the process, visited in turn.
pub struct Rotation {
    cpus: Vec<usize>,
}

impl Rotation {
    /// The cores the calling thread may run on now.
    pub fn new() -> Self {
        Rotation {
            cpus: sys::allowed(),
        }
    }

    /// Pins the calling thread to the `i`-th core of the rotation.
    pub fn pin(&self, i: usize) {
        if self.cpus.len() > 1 {
            sys::set(&[self.cpus[i % self.cpus.len()]]);
        }
    }

    /// Lets the calling thread run on every allowed core again.
    pub fn release(&self) {
        if self.cpus.len() > 1 {
            sys::set(&self.cpus);
        }
    }
}

impl Default for Rotation {
    fn default() -> Self {
        Rotation::new()
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    /// Words of a `cpu_set_t` (1024 cores).
    const WORDS: usize = 16;
    const BITS: usize = 64;

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * BITS)
            .filter(|&c| mask[c / BITS] >> (c % BITS) & 1 == 1)
            .collect()
    }

    pub fn set(cpus: &[usize]) {
        let mut mask = [0u64; WORDS];
        for &c in cpus {
            mask[c / BITS] |= 1 << (c % BITS);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 is the calling thread. A failure leaves the affinity as
        // it was, which only costs the balancing.
        unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_: &[usize]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_keeps_the_thread_on_allowed_cores_and_releases() {
        let before = sys::allowed();
        let r = Rotation::new();
        for i in 0..2 * before.len().max(1) {
            r.pin(i);
            let now = sys::allowed();
            if before.len() > 1 {
                assert_eq!(now, vec![before[i % before.len()]]);
            }
        }
        r.release();
        assert_eq!(sys::allowed(), before);
    }
}
