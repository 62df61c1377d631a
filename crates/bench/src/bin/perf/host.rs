//! The host, as the benchmark sees it: how many CPUs it has, which one the
//! run is pinned to, and — slice by slice — whether something other than
//! the benchmark was slowing that CPU down.
//!
//! The reference host is a 2-vCPU guest whose core is shared with other
//! tenants: for hundreds of milliseconds to tens of seconds at a time,
//! throughput-bound code (hashing, atomics, locks, the clock) runs at
//! 0.55–0.75x, while a dependent chain of ALU or L1 loads does not notice.
//! A timed slice cannot tell that from the code under test getting slower,
//! so the benchmark asks a third party: a small fixed kernel, the
//! [`Probe`], is timed before and after every slice, and a slice counts
//! only when both readings sit at the run's quiet level. The choice never
//! looks at the slice's own result.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Iterations of one probe reading: about half a millisecond.
const PROBE_STEPS: u32 = 16_384;
/// A reading is quiet within this share of the run's quiet level. Quiet
/// readings scatter by 3–5 %, fully disturbed ones start at about +30 %.
const QUIET_TOLERANCE: f64 = 0.05;

/// A fixed kernel of the operations the slow state hits and the engine is
/// made of — a `HashMap` lookup, an atomic add, an uncontended mutex — on
/// 16 KiB of data of its own.
pub struct Probe {
    map: HashMap<u64, u64>,
    counter: AtomicU64,
    lock: Mutex<u64>,
    x: u64,
}

impl Probe {
    /// A probe; every probe does the same work.
    pub fn new() -> Self {
        Self {
            map: (0..1024).map(|i| (i * 7919, i)).collect(),
            counter: AtomicU64::new(0),
            lock: Mutex::new(0),
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Runs the kernel once; nanoseconds per iteration.
    pub fn reading(&mut self) -> f64 {
        let started = Instant::now();
        let mut sum = 0u64;
        for _ in 0..PROBE_STEPS {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            sum = sum.wrapping_add(self.map[&((self.x % 1024) * 7919)]);
            self.counter.fetch_add(1, Ordering::SeqCst);
            *self.lock.lock().expect("the probe's own mutex") += sum;
        }
        std::hint::black_box(sum);
        started.elapsed().as_nanos() as f64 / f64::from(PROBE_STEPS)
    }
}

/// The quiet level of one run: the 5th percentile of its probe readings.
/// While the host is quiet for a twentieth of the run this is the
/// undisturbed reading; when it never is, it is the calmest the run saw.
#[derive(Debug, Clone, Copy)]
pub struct QuietLevel(f64);

impl QuietLevel {
    /// The quiet level of `readings`.
    pub fn of(readings: &[f64]) -> Self {
        let mut sorted = readings.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self(sorted.get(sorted.len() / 20).copied().unwrap_or(f64::INFINITY))
    }

    /// The level itself, in nanoseconds per probe iteration. It is the same
    /// from run to run while the host has quiet moments at all, so a higher
    /// one marks a run the host never left alone.
    pub fn ns(&self) -> f64 {
        self.0
    }

    /// Whether a reading sits at the quiet level.
    pub fn holds(&self, reading: f64) -> bool {
        reading <= self.0 * (1.0 + QUIET_TOLERANCE)
    }

    /// Share of `readings` at the quiet level.
    pub fn share(&self, readings: &[f64]) -> f64 {
        readings.iter().filter(|r| self.holds(**r)).count() as f64 / readings.len().max(1) as f64
    }
}

/// The host as the run record describes it.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// CPUs the process could use when it started.
    pub cpus: u64,
    /// The CPU every thread of the run is pinned to, if pinning worked.
    pub pinned_cpu: Option<usize>,
}

impl Host {
    /// Reads the CPU count, then pins the process (and so every thread it
    /// spawns later) to the lowest CPU it is allowed on.
    ///
    /// On the 2-vCPU reference host an unpinned run is bistable: the
    /// generator and the queue worker either alternate (about 0.3 M ops/s on
    /// `read_hot`) or, for seconds at a time, stream in parallel (0.5 M);
    /// with one thread on each CPU the slices of one run read anywhere from
    /// 0.2 M to 0.55 M. On one CPU they always alternate, at the same
    /// 0.3 M ops/s, and ten runs repeat within 2 %. What is lost is the
    /// parallel regime, which no estimator could report steadily;
    /// `README.md` has the numbers.
    pub fn pinned() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
        Self { cpus, pinned_cpu: pin_to_lowest_cpu() }
    }
}

#[cfg(target_os = "linux")]
fn pin_to_lowest_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is writable for the `size_of_val` bytes passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().find(|(_, bits)| **bits != 0)?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut only = [0u64; 16];
    only[word] = 1 << (cpu % 64);
    // SAFETY: `only` is readable for the `size_of_val` bytes passed; the call
    // changes the affinity of the calling thread and touches no memory of ours.
    (unsafe { sched_setaffinity(0, size_of_val(&only), only.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_lowest_cpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_level_is_the_fifth_percentile_and_tolerates_a_twentieth() {
        // Ten quiet readings around 27 ns, ten disturbed ones around 38.
        let mut readings: Vec<f64> = (0..10).map(|i| 27.0 + f64::from(i) * 0.1).collect();
        readings.extend((0..10).map(|i| 36.0 + f64::from(i) * 0.5));
        let level = QuietLevel::of(&readings);
        assert_eq!(level.ns(), 27.1);
        assert!(level.holds(27.0) && level.holds(28.4));
        assert!(!level.holds(28.5) && !level.holds(38.0));
        assert_eq!(level.share(&readings), 0.5);
        // A host that is never quiet: the level is the calmest it was.
        let level = QuietLevel::of(&[38.0, 38.5, 45.0]);
        assert!(level.holds(38.5) && !level.holds(45.0));
        assert!(QuietLevel::of(&[]).holds(1e9));
    }

    #[test]
    fn a_probe_reading_is_a_positive_time() {
        let mut probe = Probe::new();
        let reading = probe.reading();
        assert!(reading > 0.0 && reading < 1e6, "{reading} ns per iteration");
    }
}
