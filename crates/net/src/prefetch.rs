//! The workspace's one software-prefetch primitive.
//!
//! Burst ingress knows, a few hundred nanoseconds ahead, which cache lines
//! it will read: every frame's header line and the flow-table slot its hash
//! selects. Asking for them early overlaps DRAM misses that would otherwise
//! be taken one after another. The hint lives here, once, so the rest of the
//! workspace stays free of `unsafe` and of per-architecture `cfg`s.

/// Hint that the cache line holding `*r` is about to be read. Changes no
/// program-visible state; a no-op off x86_64 and under miri.
#[inline(always)]
pub fn prefetch_read<T>(r: &T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: PREFETCHT0 is a hint: it performs no architecturally visible
    // access, never faults whatever the address, and belongs to SSE, which
    // every x86_64 target has. The address comes from a live reference.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(r).cast::<i8>());
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = r;
}

#[cfg(test)]
mod tests {
    use super::prefetch_read;

    #[test]
    fn prefetch_leaves_the_value_alone() {
        let v = [7u8; 128];
        prefetch_read(&v[0]);
        prefetch_read(&v[127]);
        prefetch_read(&v);
        assert!(v.iter().all(|&b| b == 7));
    }
}
