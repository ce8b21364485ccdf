//! The clock host timings are read from: the CPU time of the benchmark's
//! one thread (`CLOCK_THREAD_CPUTIME_ID`), not the wall clock.
//!
//! The sandbox is a few cores of a shared host. When the hypervisor gives
//! the core to another guest the wall clock runs on and the thread's CPU
//! clock does not (the kernel is built with `PARAVIRT_TIME_ACCOUNTING`, so
//! stolen time is kept out of it), and the same holds when another process
//! of this guest is scheduled in. A sweep of all five workloads through
//! such a spell lost 10 to 18 % of `host_ops_per_s` and gained 13 to 51 %
//! of `setup_s` on the wall clock, while `/proc/stat` counted some 200
//! stolen seconds. On an idle machine the two clocks agree
//! (`bench.oncpu_share` is their ratio).

/// A reading of the calling thread's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct OnCpu(u64);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Linux's id of the calling thread's CPU-time clock.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

impl OnCpu {
    /// The clock now.
    pub fn now() -> Self {
        let mut t = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `t` is a valid `struct timespec` of a 64-bit Linux, which
        // is all `clock_gettime` writes to.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
        assert_eq!(rc, 0, "no thread CPU clock on this system");
        OnCpu(t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64)
    }

    /// CPU ns the thread used between `earlier` and this reading.
    pub fn since(self, earlier: OnCpu) -> u64 {
        self.0 - earlier.0
    }

    /// CPU ns the thread used since this reading.
    pub fn elapsed_ns(self) -> u64 {
        OnCpu::now().since(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cpu_clock_runs_while_working_and_stands_while_sleeping() {
        let started = OnCpu::now();
        let wall = std::time::Instant::now();
        let mut x = 1u64;
        while wall.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        let worked = started.elapsed_ns();
        assert!(
            worked > 5_000_000,
            "{worked} ns on the CPU in 20 ms of work"
        );
        let before_sleep = OnCpu::now();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let slept = before_sleep.elapsed_ns();
        assert!(slept < 5_000_000, "{slept} ns on the CPU in 20 ms of sleep");
    }
}
