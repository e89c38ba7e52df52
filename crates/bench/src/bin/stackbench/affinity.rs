//! CPU placement of the benchmark's threads, as an operator would set
//! it with `taskset`. Threads inherit the mask of the thread that
//! spawns them, so pinning the caller before `serve` places every
//! server thread without touching the server.
//!
//! Why one CPU: on the 2-vCPU sizing host a wake-up that crosses vCPUs
//! costs ~20 µs (the idle vCPU has halted), more than a whole unit READ
//! through the stack. Left to the scheduler, `small_qd1` ran in one of
//! two modes for a whole process lifetime — client and shard stacked on
//! one vCPU (75 kops/s, read p50 14 µs) or spread over both (30 kops/s,
//! 50 µs) — and no workload was faster on two vCPUs than on one. On one
//! CPU every workload measures the CPU time an op costs, which is what
//! a change to the program can move.

extern "C" {
    /// glibc's wrapper of the Linux system call (`std` already links it).
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16;

/// The highest-numbered CPU this process may run on, from
/// `Cpus_allowed_list` (e.g. `0-1` or `0,2-3`).
fn last_allowed_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .split([',', '-'])
        .filter_map(|n| n.parse().ok())
        .max()
}

/// Restrict the calling thread, and every thread it spawns from now
/// on, to one CPU: the last the process is allowed (CPU 0 takes the
/// host's housekeeping). Returns the CPU, or `None` where the platform
/// refuses, in which case placement stays with the scheduler.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = last_allowed_cpu().filter(|c| *c < 64 * MASK_WORDS)?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `pid` 0 names the calling thread; `mask` is a live array
    // of exactly `size_of_val(&mask)` bytes, which the call only reads.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_confines_this_thread_and_its_children_to_one_cpu() {
        let allowed = || {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap();
            line.trim().to_string()
        };
        let cpu = pin_to_one_cpu().expect("this platform pins");
        assert_eq!(allowed(), cpu.to_string());
        let child = std::thread::spawn(allowed).join().unwrap();
        assert_eq!(child, cpu.to_string());
    }
}
