//! Cross-PROCESS IPC: frames travel through a SysV shared-memory queue
//! between a parent and a forked child — the paper's actual deployment
//! shape ("LVRM allocates a shared memory segment for each IPC queue via
//! shmget()", §3.8), with real address-space separation.
#![cfg(target_os = "linux")]

use lvrm_net::{Frame, FrameBuilder};
use lvrm_runtime::shm::{queue_region_len, ShmFrameQueue, ShmRegion};
use std::net::Ipv4Addr;

fn frame(tag: u8) -> Frame {
    FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1))
        .udp(100, 200, &[tag; 32])
}

/// The single test in this binary (so no other test threads exist when we
/// fork — fork() in a multithreaded process must only run async-signal-safe
/// code, and the child below sticks to raw memory ops and `_exit`).
#[test]
fn frames_cross_a_fork_boundary() {
    const N: u8 = 100;
    let to_child = ShmRegion::create(queue_region_len(8)).expect("shm available");
    let from_child = ShmRegion::create(queue_region_len(8)).expect("shm available");

    // SAFETY: single-threaded at this point (one #[test] in this binary);
    // the child only touches the shared mappings and exits with _exit.
    let pid = unsafe { libc::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        // Child: echo N frames from to_child into from_child, bumping the
        // first payload byte so the parent can verify real processing.
        let rx = ShmFrameQueue::new(&to_child, 8);
        let tx = ShmFrameQueue::new(&from_child, 8);
        let mut echoed = 0u32;
        let mut spins: u64 = 0;
        while echoed < N as u32 {
            if let Some(f) = rx.try_recv() {
                let mut bytes = f.bytes().to_vec();
                let payload_at = 14 + 20 + 8; // eth + ip + udp
                bytes[payload_at] = bytes[payload_at].wrapping_add(1);
                let f2 = Frame::new(&bytes);
                while !tx.try_send(&f2) {
                    std::hint::spin_loop();
                }
                echoed += 1;
            } else {
                std::hint::spin_loop();
                spins += 1;
                if spins > 20_000_000_000 {
                    unsafe { libc::_exit(3) };
                }
            }
        }
        unsafe { libc::_exit(0) };
    }

    // Parent: send N tagged frames and check each comes back incremented.
    let tx = ShmFrameQueue::new(&to_child, 8);
    let rx = ShmFrameQueue::new(&from_child, 8);
    let mut received = 0u32;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut sent = 0u8;
    while received < N as u32 {
        assert!(std::time::Instant::now() < deadline, "cross-process echo timed out");
        if sent < N && tx.try_send(&frame(sent)) {
            sent += 1;
        }
        if let Some(f) = rx.try_recv() {
            let payload = f.udp().unwrap().payload();
            assert_eq!(
                payload[0],
                (received as u8).wrapping_add(1),
                "child really processed frame {received} in its own address space"
            );
            received += 1;
        }
    }
    // Reap the child and check it exited cleanly.
    let mut status = 0;
    let waited = unsafe { libc::waitpid(pid, &mut status, 0) };
    assert_eq!(waited, pid);
    assert!(libc::WIFEXITED(status) && libc::WEXITSTATUS(status) == 0, "child exit {status}");
}
