//! Order statistics over samples.

use std::time::Duration;

/// Nearest-rank `p`-quantile of `v` (sorted in place). `None` when empty.
pub fn quantile<T: Copy + PartialOrd>(v: &mut [T], p: f64) -> Option<T> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median of `v` as `f64` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Nearest-rank quantile of nanosecond samples, in microseconds.
pub fn q_us(v: &mut [u32], p: f64) -> Option<f64> {
    quantile(v, p).map(|ns| f64::from(ns) / 1e3)
}

/// Median of durations, in microseconds.
pub fn median_us(v: &[Duration]) -> Option<f64> {
    median(&v.iter().map(|d| d.as_secs_f64() * 1e6).collect::<Vec<_>>())
}

/// A duration as saturating nanoseconds in a `u32` (4.29 s ceiling).
pub fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}
