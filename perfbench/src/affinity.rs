//! Pinning load threads to CPUs.
//!
//! On a small host the scheduler's choice of where two communicating
//! threads run picks the regime a run measures: on one CPU a handoff is a
//! context switch, on two it is a cross-CPU wake-up, several times slower.
//! Left to the scheduler, runs land in either regime; pinning each load
//! thread to a fixed CPU makes every run measure the same one.

use std::os::raw::c_int;

/// CPU mask words: room for 1024 CPUs, the kernel's default `CPU_SETSIZE`.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread to `cpu`. Returns whether the kernel
/// accepted the mask.
pub fn pin_current(cpu: usize) -> bool {
    if cpu >= WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins the calling thread to the `slot`-th allowed CPU (wrapping), when
/// `cpus` is not empty.
pub fn pin_slot(cpus: &[usize], slot: usize) {
    if let Some(&cpu) = cpus.get(slot % cpus.len().max(1)) {
        pin_current(cpu);
    }
}
