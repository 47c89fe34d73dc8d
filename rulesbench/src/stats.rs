//! Order statistics for the benchmark's timing samples.

use std::ops::Range;

/// Candidate tail percentiles, in per-mille, highest first.
const TAIL_CANDIDATES_PERMILLE: [u64; 5] = [990, 950, 900, 750, 500];

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count; 0
/// for no samples).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of the `permille`-th percentile among `n`
/// samples, in integer arithmetic so that e.g. p90 of 100 samples is
/// exactly rank 90.
fn rank(n: usize, permille: u64) -> usize {
    ((permille * n as u64).div_ceil(1000) as usize).max(1)
}

/// Nearest-rank value of the `permille`-th percentile of `xs` (0 for no
/// samples).
pub fn percentile(xs: &[f64], permille: u64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s.get(rank(s.len(), permille) - 1).copied().unwrap_or(0.0)
}

/// The highest candidate percentile (99, 95, 90, 75, 50) that still has
/// at least [`MIN_BEYOND`] of `n` samples strictly beyond its rank, or
/// `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES_PERMILLE
        .into_iter()
        .find(|&p| n >= rank(n, p) + MIN_BEYOND)
        .map(|p| p as f64 / 10.0)
}

/// Splits a run's consecutive samples, with durations `secs`, into at
/// most `n` windows of about equal wall time: a sample belongs to the
/// window in which it starts. Returns the non-empty windows as index
/// ranges, in order.
pub fn windows(secs: &[f64], n: usize) -> Vec<Range<usize>> {
    let total: f64 = secs.iter().sum();
    let mut out: Vec<Range<usize>> = Vec::new();
    let (mut elapsed, mut last_w) = (0.0, None);
    for (i, s) in secs.iter().enumerate() {
        let w = ((elapsed / total * n as f64) as usize).min(n - 1);
        match out.last_mut() {
            Some(last) if last_w == Some(w) => last.end = i + 1,
            _ => out.push(i..i + 1),
        }
        last_w = Some(w);
        elapsed += s;
    }
    out
}

/// A median plus the tail percentile chosen by [`tail_percentile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// The reported tail percentile; `None` means too few samples, and
    /// `tail` then repeats the median.
    pub percentile: Option<f64>,
    /// Nearest-rank value at `percentile`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        let percentile = tail_percentile(s.len());
        let tail = match percentile {
            Some(p) => s[rank(s.len(), (p * 10.0).round() as u64) - 1],
            None => median(&s),
        };
        Summary {
            n: s.len(),
            median: median(&s),
            percentile,
            tail,
        }
    }

    /// Human-readable percentile label (`p90`, or `p50(n<20)` when the
    /// tail falls back to the median).
    pub fn label(&self) -> String {
        match self.percentile {
            Some(p) => format!("p{p}"),
            None => format!("p50(n<{})", 2 * MIN_BEYOND),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        // The defining property, over a range of sample counts: the chosen
        // rank leaves at least ten samples beyond it, and the next higher
        // candidate would not.
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            let pm = (p * 10.0).round() as u64;
            assert!(n - rank(n, pm) >= MIN_BEYOND, "n={n} p={p}");
            if let Some(&higher) = TAIL_CANDIDATES_PERMILLE.iter().rev().find(|&&c| c > pm) {
                assert!(n - rank(n, higher) < MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 10.0);
        assert_eq!(percentile(&xs, 950), 190.0);
        assert_eq!(percentile(&[7.0], 50), 7.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn windows_split_by_wall_time() {
        assert_eq!(windows(&[1.0; 9], 3), vec![0..3, 3..6, 6..9]);
        // A long sample runs past the end of its window, and the window
        // it covers holds no sample.
        assert_eq!(windows(&[1.0, 5.0, 1.0, 1.0], 3), vec![0..2, 2..4]);
        assert_eq!(windows(&[4.0, 1.0, 1.0], 3), vec![0..1, 1..3]);
        // Fewer samples than windows: one window each.
        assert_eq!(windows(&[2.0, 3.0], 3), vec![0..1, 1..2]);
        assert_eq!(windows(&[], 3), Vec::<Range<usize>>::new());
    }

    #[test]
    fn summary_reads_the_nearest_rank_value() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.percentile, Some(90.0));
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.median, 50.5);
        let few = Summary::of(&[2.0, 1.0, 3.0]);
        assert_eq!(few.percentile, None);
        assert_eq!(few.tail, 2.0);
        assert_eq!(few.label(), "p50(n<20)");
    }
}
