//! The one sampler behind every timed ledger row: a set of repeated
//! measurements and the statistics the rows and gates read from it.

use std::time::Instant;

/// Repeated measurements of one quantity, kept sorted ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Wraps raw measurements (in any order). Panics on an empty set: every
    /// caller takes at least one measurement.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "a sample needs at least one value");
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Number of measurements.
    pub fn reps(&self) -> usize {
        self.sorted.len()
    }

    /// The smallest measurement — the best-of estimator for a timing,
    /// where every run does the full work and noise only adds.
    pub fn best(&self) -> f64 {
        self.sorted[0]
    }

    /// The median (linear interpolation between order statistics).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The interquartile range `q(0.75) − q(0.25)`: the run-to-run spread.
    pub fn iqr(&self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }

    /// Mean of the middle half — robust to the heavy upper tail (scheduler
    /// preemption, CPU steal) and to the occasional too-fast-to-trust clock
    /// reading at the bottom. With fewer than two values it is the mean of
    /// them all.
    pub fn iq_mean(&self) -> f64 {
        let n = self.sorted.len();
        let (lo, hi) = if n < 2 { (0, n) } else { (n / 4, n * 3 / 4) };
        self.sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
    }

    fn quantile(&self, p: f64) -> f64 {
        let h = (self.sorted.len() - 1) as f64 * p;
        let (lo, frac) = (h.floor() as usize, h - h.floor());
        let hi = (lo + 1).min(self.sorted.len() - 1);
        self.sorted[lo] + frac * (self.sorted[hi] - self.sorted[lo])
    }
}

/// Runs `f` `reps` times (at least once) and samples each run's wall-clock
/// in milliseconds.
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> Sample {
    Sample::new(
        (0..reps.max(1))
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_follow_the_order_statistics() {
        let s = Sample::new(vec![4.0, 1.0, 3.0, 2.0, 100.0]);
        assert_eq!(s.reps(), 5);
        assert_eq!(s.best(), 1.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.iqr(), 2.0);
        // Middle half of five values is indices 1..3: (2 + 3) / 2.
        assert_eq!(s.iq_mean(), 2.5);
        let one = Sample::new(vec![7.0]);
        assert_eq!(
            (one.best(), one.median(), one.iqr(), one.iq_mean()),
            (7.0, 7.0, 0.0, 7.0)
        );
    }

    #[test]
    fn timer_samples_every_rep() {
        let s = time_ms(3, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert_eq!(s.reps(), 3);
        assert!(s.best() >= 1.0 && s.best() <= s.median() && s.iqr() >= 0.0);
    }
}
