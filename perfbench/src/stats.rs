//! Order statistics, timers and process measurements.

use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile of `values` (`p` in `0..=100`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPUs: the server's worker count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of this process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process (all its threads) has run so far.
///
/// The benchmark times work on this clock, not the wall clock: on a shared
/// host, wall time also counts the time other processes, and the host
/// itself (steal), keep this one off its CPUs, which swings from run to run.
/// The kernel accounts steal time apart from a task's run time, so this
/// clock counts only the program's own work. It counts the server's
/// threads too, so a request's CPU time is what the caller, the server's
/// threads and the loopback stack spent on it.
pub fn cpu_now() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A stopwatch on both clocks: the CPU clock the metrics use and the wall
/// clock, printed beside them for reference.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    cpu: Duration,
    wall: std::time::Instant,
}

/// What a [`Stopwatch`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Spent {
    pub cpu: Duration,
    pub wall: Duration,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu: cpu_now(),
            wall: std::time::Instant::now(),
        }
    }

    pub fn stop(&self) -> Spent {
        let wall = self.wall.elapsed();
        Spent {
            cpu: cpu_now().saturating_sub(self.cpu),
            wall,
        }
    }
}

impl std::ops::Add for Spent {
    type Output = Spent;

    fn add(self, other: Spent) -> Spent {
        Spent {
            cpu: self.cpu + other.cpu,
            wall: self.wall + other.wall,
        }
    }
}
