//! Best-effort CPU core pinning.
//!
//! The paper binds LVRM and each VRI to dedicated cores and shows that
//! letting the kernel float them ("default") costs throughput (Experiment
//! 2a). On Linux we pin with `sched_setaffinity`; anywhere else — or when
//! the requested core does not exist — pinning is a no-op and the caller is
//! told so.

/// Number of logical CPUs visible to this process.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Pin the calling thread to `core`. Returns `true` on success.
#[cfg(target_os = "linux")]
pub fn pin_to_core(core: usize) -> bool {
    if core >= available_cores() {
        return false;
    }
    // SAFETY: cpu_set_t is POD; CPU_ZERO/CPU_SET only touch the local set.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut set);
        libc::CPU_SET(core, &mut set);
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_core(_core: usize) -> bool {
    false
}

/// The core the calling thread currently runs on, if the OS tells us.
#[cfg(target_os = "linux")]
pub fn current_core() -> Option<usize> {
    // SAFETY: sched_getcpu has no preconditions.
    let c = unsafe { libc::sched_getcpu() };
    (c >= 0).then_some(c as usize)
}

#[cfg(not(target_os = "linux"))]
pub fn current_core() -> Option<usize> {
    None
}

pub use lvrm_core::vri::spin_for_ns;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_one_core() {
        assert!(available_cores() >= 1);
    }

    #[test]
    fn pin_to_core_zero_works_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(pin_to_core(0), "pinning to core 0 must succeed");
            if let Some(c) = current_core() {
                assert_eq!(c, 0);
            }
        }
    }

    #[test]
    fn pin_to_absurd_core_fails_gracefully() {
        assert!(!pin_to_core(100_000));
    }

    #[test]
    fn spin_burns_roughly_the_requested_time() {
        let t0 = std::time::Instant::now();
        spin_for_ns(2_000_000); // 2 ms
        let took = t0.elapsed().as_nanos() as u64;
        assert!(took >= 2_000_000, "spun only {took} ns");
        assert!(took < 200_000_000, "spun way too long: {took} ns");
    }
}
