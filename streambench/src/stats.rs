//! Exact statistics over raw samples: nearest-rank percentiles, and the
//! sub-window median every reported value goes through.
//!
//! The registry `Histogram` is bucketed (≤1.6 % relative error), which is
//! more than some of the bounds this benchmark gates on, so reported
//! percentiles are always computed here from the raw `u64` samples.

/// Share of the timed window, from its start, treated as warm-up and dropped.
pub const WARMUP_FRACTION: f64 = 0.10;
/// Equal sub-windows the rest of the timed window is cut into. Nine, not
/// three: the sandbox's hypervisor takes the CPU away for up to 0.1 s at a
/// time, and over ten seeds the median of nine one-second p99s spread 3-5 %
/// where the median of three three-second p99s spread 5-15 %.
pub const SUB_WINDOWS: usize = 9;

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p` percent of the samples at or below it. `None` on no samples.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    // 99.9 has no exact binary form: without the guard 99.9 % of 1000 comes
    // out a hair above 999 and rounds up to rank 1000.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` in place and returns its nearest-rank percentile.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    samples.sort_unstable();
    percentile_sorted(samples, p)
}

/// Median of a handful of floats (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A reported value: the median of the sub-window values, how far apart the
/// sub-windows were, and how many raw samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reported {
    pub value: f64,
    /// `(max − min) / median` over the sub-window values.
    pub spread: f64,
    pub samples: usize,
}

impl Reported {
    /// A value that has no sub-windows behind it (a count, a probe result).
    pub fn single(value: f64, samples: usize) -> Self {
        Reported {
            value,
            spread: 0.0,
            samples,
        }
    }
}

/// Median and `(max − min) / median` of per-sub-window values.
pub fn summarize(values: &[f64], samples: usize) -> Reported {
    let med = median(values);
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let spread = if values.is_empty() || med == 0.0 {
        0.0
    } else {
        (max - min) / med
    };
    Reported {
        value: med,
        spread,
        samples,
    }
}

/// The timed window `[start, end)` in harness nanoseconds, with the warm-up
/// cut and the sub-window grid derived from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Window {
    /// First nanosecond after warm-up.
    pub fn measured_start_ns(&self) -> u64 {
        self.start_ns + ((self.end_ns - self.start_ns) as f64 * WARMUP_FRACTION) as u64
    }

    /// Length of one sub-window.
    pub fn sub_len_ns(&self) -> u64 {
        (self.end_ns - self.measured_start_ns()) / SUB_WINDOWS as u64
    }

    /// The sub-window `at_ns` falls into; `None` during warm-up or after the
    /// window closes.
    pub fn sub_window(&self, at_ns: u64) -> Option<usize> {
        let from = self.measured_start_ns();
        if at_ns < from || at_ns >= self.end_ns {
            return None;
        }
        let idx = ((at_ns - from) / self.sub_len_ns().max(1)) as usize;
        Some(idx.min(SUB_WINDOWS - 1))
    }

    /// Splits `(at_ns, value)` samples by sub-window, dropping warm-up.
    pub fn split(&self, samples: &[(u64, u64)]) -> [Vec<u64>; SUB_WINDOWS] {
        let mut out: [Vec<u64>; SUB_WINDOWS] = Default::default();
        for &(at, value) in samples {
            if let Some(i) = self.sub_window(at) {
                out[i].push(value);
            }
        }
        out
    }

    /// Percentile `p` of each sub-window `keep` lets through, scaled by
    /// `scale`, then the median across them. Sub-windows without samples are
    /// left out.
    pub fn percentile_where(
        &self,
        keep: impl Fn(usize) -> bool,
        samples: &[(u64, u64)],
        p: f64,
        scale: f64,
    ) -> Reported {
        let mut subs = self.split(samples);
        let mut n = 0;
        let mut values = Vec::with_capacity(SUB_WINDOWS);
        for (_, sub) in subs.iter_mut().enumerate().filter(|(i, _)| keep(*i)) {
            n += sub.len();
            values.extend(percentile(sub, p).map(|v| v as f64 * scale));
        }
        summarize(&values, n)
    }

    pub fn percentile(&self, samples: &[(u64, u64)], p: f64, scale: f64) -> Reported {
        self.percentile_where(|_| true, samples, p, scale)
    }

    /// Sum of the sample values per second in each sub-window `keep` lets
    /// through, scaled, then the median across them (bytes → MB/s).
    pub fn rate_where(
        &self,
        keep: impl Fn(usize) -> bool,
        samples: &[(u64, u64)],
        scale: f64,
    ) -> Reported {
        let subs = self.split(samples);
        let secs = self.sub_len_ns() as f64 / 1e9;
        let mut n = 0;
        let mut values = Vec::with_capacity(SUB_WINDOWS);
        for (_, sub) in subs.iter().enumerate().filter(|(i, _)| keep(*i)) {
            n += sub.len();
            values.push(sub.iter().sum::<u64>() as f64 * scale / secs);
        }
        summarize(&values, n)
    }

    pub fn rate(&self, samples: &[(u64, u64)], scale: f64) -> Reported {
        self.rate_where(|_| true, samples, scale)
    }
}

/// The sub-windows a traced run records spans in: the middle third. The two
/// outer thirds run untraced and give the reference the overhead is taken
/// against, on either side of the traced stretch so that drift cancels.
pub const TRACED_SUB_WINDOWS: std::ops::Range<usize> = SUB_WINDOWS / 3..2 * SUB_WINDOWS / 3;

pub fn is_traced_sub_window(i: usize) -> bool {
    TRACED_SUB_WINDOWS.contains(&i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        // The textbook example: 5 values, ranks by ceil(p/100 * n).
        let v = [15u64, 20, 35, 40, 50];
        assert_eq!(percentile_sorted(&v, 5.0), Some(15));
        assert_eq!(percentile_sorted(&v, 30.0), Some(20));
        assert_eq!(percentile_sorted(&v, 40.0), Some(20));
        assert_eq!(percentile_sorted(&v, 50.0), Some(35));
        assert_eq!(percentile_sorted(&v, 100.0), Some(50));
        assert_eq!(percentile_sorted(&v, 0.0), Some(15));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        // 1..=1000: p99 is exactly the 990th value, p99.9 the 999th.
        let mut big: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut big, 99.0), Some(990));
        assert_eq!(percentile_sorted(&big, 99.9), Some(999));
        assert_eq!(percentile_sorted(&big, 50.0), Some(500));
    }

    #[test]
    fn median_and_spread_of_sub_windows() {
        let r = summarize(&[10.0, 12.0, 11.0], 300);
        assert_eq!(r.value, 11.0);
        assert!((r.spread - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(r.samples, 300);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(summarize(&[], 0).value, 0.0);
    }

    #[test]
    fn window_drops_warmup_and_cuts_equal_parts() {
        let w = Window {
            start_ns: 1_000,
            end_ns: 11_000,
        };
        assert_eq!(w.measured_start_ns(), 2_000);
        assert_eq!(w.sub_len_ns(), 1_000);
        assert_eq!(w.sub_window(1_999), None);
        assert_eq!(w.sub_window(2_000), Some(0));
        assert_eq!(w.sub_window(2_999), Some(0));
        assert_eq!(w.sub_window(3_000), Some(1));
        assert_eq!(w.sub_window(10_999), Some(SUB_WINDOWS - 1));
        assert_eq!(w.sub_window(11_000), None);
        // One sample in each of three sub-windows plus one in warm-up: the
        // median of the three p50s is the middle one, warm-up does not count.
        let samples = [(1_500, 999), (2_500, 7), (6_000, 9), (9_000, 8)];
        let r = w.percentile(&samples, 50.0, 1.0);
        assert_eq!(r.value, 8.0);
        assert_eq!(r.samples, 3);
        // Restricted to the traced third (sub-windows 3..6) only the sample
        // at 6 000 ns is left.
        assert!(!is_traced_sub_window(2) && is_traced_sub_window(3));
        assert!(is_traced_sub_window(5) && !is_traced_sub_window(6));
        let r = w.percentile_where(is_traced_sub_window, &samples, 50.0, 1.0);
        assert_eq!((r.value, r.samples), (9.0, 1));
        // Every sub-window carries 5 units in its 1 000 ns.
        let flat: Vec<(u64, u64)> = (0..9).map(|i| (2_500 + i * 1_000, 5)).collect();
        let r = w.rate(&flat, 1.0);
        assert!((r.value - 5.0 / 1e-6).abs() < 1e-3);
        assert_eq!(r.spread, 0.0);
    }
}
