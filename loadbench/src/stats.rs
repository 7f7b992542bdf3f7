//! Order statistics over latency samples, the host-speed scale every timing
//! is reported at, and the process memory peak.

use std::time::{Duration, Instant};

/// Nearest-rank `q`-quantile of `xs` (`0` for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        sum(xs) / xs.len() as f64
    }
}

/// Operations per second of a closed loop whose operations took `ms` each:
/// completed operations over the time spent inside them.
pub fn per_second(ms: &[f64]) -> f64 {
    if ms.is_empty() {
        0.0
    } else {
        ms.len() as f64 / (sum(ms) / 1e3)
    }
}

/// What [`calibrate_ms`] takes on a quiet 2.1 GHz x86-64 vCPU: the speed
/// every reported timing is scaled to.
pub const REFERENCE_MS: f64 = 0.5;

/// How often [`HostSpeed::tick`] samples the host.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Half-width of the window of samples an operation is scaled by.
const WINDOW_S: f64 = 0.5;

/// Fewest samples a window must hold; with fewer, the whole stretch's
/// samples are used.
const MIN_WINDOW_SAMPLES: usize = 4;

/// Times one fixed kernel of the kind the engine runs — dense products of
/// small f64 polynomials and scattered reads — and returns its ms. The
/// kernel is the benchmark's own, so no change to the crates moves it.
pub fn calibrate_ms() -> f64 {
    let t = Instant::now();
    let a: Vec<f64> = (0..256).map(|i| ((i * 37 % 101) as f64) / 101.0).collect();
    let mut b: Vec<f64> = (0..256).map(|i| ((i * 53 % 97) as f64) / 97.0).collect();
    let mut out = vec![0.0f64; 511];
    let mut next: Vec<usize> = (0..4096).map(|i| (i * 2_654_435_761usize) % 4096).collect();
    let mut acc = 0.0;
    for _ in 0..24 {
        out.iter_mut().for_each(|x| *x = 0.0);
        for (i, x) in a.iter().enumerate() {
            for (j, y) in b.iter().enumerate() {
                out[i + j] += x * y;
            }
        }
        let norm: f64 = out.iter().sum();
        b.iter_mut().zip(&out).for_each(|(y, o)| *y = o / norm);
        let mut at = 0;
        for _ in 0..4096 {
            at = next[at];
            acc += out[at % 511];
        }
        next.rotate_left(1);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// The host's speed over a stretch of a run.
///
/// On a shared host the same code runs up to ~1.6× slower in phases that
/// last from a second to minutes, and CPU time slows with it, so neither
/// wall nor CPU time repeats between runs, and a run that meets two phases
/// sees every latency twice, once per phase. The fixed [`calibrate_ms`]
/// kernel is timed between operations (never inside one) at least every
/// 50 ms. Each operation is scaled by [`REFERENCE_MS`] / (mean kernel time
/// within ±0.5 s of it): it reads as on the reference host, and a change
/// to the code under test moves it while a change of phase does not.
pub struct HostSpeed {
    origin: Instant,
    /// `(seconds since origin, kernel ms)`, in time order.
    samples: Vec<(f64, f64)>,
    last: Instant,
}

impl HostSpeed {
    /// Starts with `n` samples.
    pub fn new(n: usize) -> Self {
        let now = Instant::now();
        let mut s = HostSpeed {
            origin: now,
            samples: Vec::new(),
            last: now,
        };
        s.sample(n);
        s
    }

    /// Seconds since the stretch started: the time stamp of an operation.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Takes `n` samples now.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let at = self.now();
            let ms = calibrate_ms();
            self.samples.push((at + ms / 2e3, ms));
        }
        self.last = Instant::now();
    }

    /// Takes a sample if the last one is older than 50 ms; call between
    /// operations.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= SAMPLE_EVERY {
            self.sample(1);
        }
    }

    /// Mean kernel time in ms over the whole stretch.
    pub fn kernel_ms(&self) -> f64 {
        mean(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// The factor that scales the whole stretch to the reference host.
    pub fn scale(&self) -> f64 {
        to_reference(self.kernel_ms())
    }

    /// The factor that scales an operation at `at` (seconds since the
    /// stretch started) to the reference host.
    pub fn scale_at(&self, at: f64) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 < at - WINDOW_S);
        let hi = self.samples.partition_point(|s| s.0 <= at + WINDOW_S);
        if hi - lo < MIN_WINDOW_SAMPLES {
            return self.scale();
        }
        let window: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        to_reference(mean(&window))
    }

    /// `ms[i]`, measured at `at[i]`, scaled to the reference host.
    pub fn scale_each(&self, ms: &[f64], at: &[f64]) -> Vec<f64> {
        ms.iter()
            .zip(at)
            .map(|(m, &t)| m * self.scale_at(t))
            .collect()
    }
}

fn to_reference(kernel_ms: f64) -> f64 {
    if kernel_ms > 0.0 {
        REFERENCE_MS / kernel_ms
    } else {
        1.0
    }
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn host_speed_scales_by_the_samples_near_an_operation() {
        // A fast second (kernel 0.25 ms), then a slow one (1.0 ms).
        let samples = (0..40)
            .map(|i| (i as f64 * 0.05, if i < 20 { 0.25 } else { 1.0 }))
            .collect();
        let s = HostSpeed {
            origin: Instant::now(),
            samples,
            last: Instant::now(),
        };
        assert_eq!(s.scale_at(0.2), 2.0);
        assert_eq!(s.scale_at(1.8), 0.5);
        assert_eq!(s.scale_each(&[1.0, 4.0], &[0.2, 1.8]), vec![2.0, 2.0]);
        // Outside every window: the whole stretch.
        assert_eq!(s.scale_at(9.0), s.scale());
    }
}
