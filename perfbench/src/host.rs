//! Process and host measurements: CPU time, memory, hypervisor steal,
//! and the order statistics the report is built from.

use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_rest: [i64; 14],
}

const _: () = assert!(std::mem::size_of::<Rusage>() == 144);

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds consumed so far by every thread of this
/// process, including threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (size asserted above); getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) fails only on a bad pointer");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&ru.ru_utime) + secs(&ru.ru_stime)
}

/// Wall and CPU time of one interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub wall: f64,
    pub cpu: f64,
}

/// A running wall + CPU clock.
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    pub fn stop(&self) -> Span {
        Span {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: cpu_seconds() - self.cpu,
        }
    }
}

/// A `/proc/self/status` field in MiB (`VmHWM`, `VmRSS`), 0 when absent.
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide `(steal, total)` CPU ticks from the first line of
/// `/proc/stat`; `(0, 0)` where the file is unreadable.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolation percentile `p ∈ [0, 1]`; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile (capped at p90) with at least ten samples
/// beyond it, or `None` when none above the median has ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n <= 20 {
        return None;
    }
    Some((1.0 - 10.0 / n as f64).min(0.9))
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// CPU seconds of the fastest round of a fixed piece of benchmark-owned
/// work (sorting, an ordered map, integer formatting and parsing),
/// repeated for `min_s` CPU seconds. The program never runs this code,
/// so its time moves only with the host's speed, which on a shared VM
/// swings by half within seconds to minutes; the benchmark divides its
/// timings by it (see `NOTES.md`).
pub fn reference_round(min_s: f64) -> f64 {
    let (mut total, mut best) = (0.0, f64::INFINITY);
    while total < min_s {
        let clock = Clock::start();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut keys: Vec<u64> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        keys.sort_unstable();
        let map: std::collections::BTreeMap<u64, usize> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k % 50_000, i))
            .collect();
        let text = keys[..5000]
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        let sum: usize = text
            .split(' ')
            .filter_map(|t| t.parse::<u64>().ok())
            .map(|k| map.get(&(k % 50_000)).copied().unwrap_or(0))
            .sum();
        std::hint::black_box(sum);
        let cpu = clock.stop().cpu;
        total += cpu;
        best = best.min(cpu);
    }
    best
}
