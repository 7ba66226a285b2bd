//! Latency samples, quantiles, and the process counters read from `/proc`.

use std::time::Instant;

/// Per-call costs of one class of operation: wall time and the process's
/// CPU time (every thread), in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    wall: Vec<u64>,
    cpu: Vec<u64>,
}

/// A call's cost: `(wall_ns, cpu_ns)`.
pub type Cost = (u64, u64);

/// A call's start on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Clocks {
    /// Wall clock at the start.
    pub wall: Instant,
    cpu: u64,
}

impl Clocks {
    /// Read both clocks: CPU first, so the wall interval nests inside the
    /// CPU interval.
    pub fn start() -> Clocks {
        let cpu = process_cpu_ns();
        Clocks {
            wall: Instant::now(),
            cpu,
        }
    }

    /// `(wall_ns, cpu_ns)` since [`Clocks::start`].
    pub fn stop(&self) -> Cost {
        let wall = self.wall.elapsed().as_nanos() as u64;
        (wall, process_cpu_ns().saturating_sub(self.cpu))
    }
}

fn quantile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    let at = ((v.len() - 1) as f64 * q).round() as usize;
    let (_, x, _) = v.select_nth_unstable(at);
    *x as f64 / 1e3
}

impl Samples {
    /// Record one call.
    pub fn push(&mut self, (wall, cpu): Cost) {
        self.wall.push(wall);
        self.cpu.push(cpu);
    }

    /// Calls recorded.
    pub fn len(&self) -> usize {
        self.wall.len()
    }

    /// True when no call was recorded.
    pub fn is_empty(&self) -> bool {
        self.wall.is_empty()
    }

    /// `(wall_ns, cpu_ns)` summed over the calls.
    pub fn total_ns(&self) -> Cost {
        (self.wall.iter().sum(), self.cpu.iter().sum())
    }

    /// Sum of the calls' wall time, in seconds.
    pub fn total_s(&self) -> f64 {
        self.wall.iter().sum::<u64>() as f64 / 1e9
    }

    /// Sum of the calls' CPU time, in seconds.
    pub fn cpu_total_s(&self) -> f64 {
        self.cpu.iter().sum::<u64>() as f64 / 1e9
    }

    /// Nearest-rank wall-time quantile `q`, in microseconds (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile(&self.wall, q)
    }

    /// Median wall time, in microseconds.
    pub fn p50_us(&self) -> f64 {
        quantile(&self.wall, 0.5)
    }

    /// Median CPU time, in microseconds.
    pub fn cpu_p50_us(&self) -> f64 {
        quantile(&self.cpu, 0.5)
    }

    /// CPU times of the calls, in order, nanoseconds.
    pub fn cpu_ns(&self) -> &[u64] {
        &self.cpu
    }

    /// The calls `a..b`.
    pub fn slice(&self, a: usize, b: usize) -> Samples {
        Samples {
            wall: self.wall[a..b].to_vec(),
            cpu: self.cpu[a..b].to_vec(),
        }
    }

    /// Append another collection's calls.
    pub fn extend(&mut self, other: &Samples) {
        self.wall.extend_from_slice(&other.wall);
        self.cpu.extend_from_slice(&other.cpu);
    }
}

/// `(wchar, syscw)` of this process: bytes handed to `write`-family calls
/// and the number of such calls. Zero where `/proc/self/io` is unreadable.
pub fn proc_io() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("wchar:"), field("syscw:"))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `clockid_t` of the calling process's CPU-time clock on Linux: the sum
/// over all its threads, so work the program hands to another thread is
/// still counted.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used, in nanoseconds: time on a CPU,
/// not time blocked on the disk or waiting to be scheduled.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) and the
    // clock id is a constant the kernel defines; the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
