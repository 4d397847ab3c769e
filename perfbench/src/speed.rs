//! Host-speed reference for the end-to-end times.
//!
//! On a shared host the speed of the benchmark's core drifts while it
//! runs: on the 2-vCPU VM this benchmark was built on, the same pass over
//! the same units took anywhere from 3.5 s to 5.5 s within one run, and
//! whole runs moved by ±20 %. A fixed reference kernel, timed between
//! units, slows down and speeds up with it. Every end-to-end time is
//! divided by the kernel's median time around it and multiplied by
//! [`REFERENCE_MS`], so the drift cancels; the kernel is the benchmark's
//! own code, so no change to the simulator moves it.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The kernel time, in ms, of the reference host: reported times are
/// what they would be on a host where the kernel takes this long.
pub const REFERENCE_MS: f64 = 0.8;

/// Least time between two kernel samples, in seconds.
const SAMPLE_EVERY_S: f64 = 0.05;

/// Samples within this many seconds either side of an instant make up
/// the host speed at that instant.
const WINDOW_S: f64 = 1.0;

/// Times the reference kernel once, in ms: a 3000-step event loop over a
/// binary heap and a B-tree of small vectors — the allocation-heavy,
/// pointer-chasing mix of the simulator's engine, on fixed inputs.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut queue = BinaryHeap::new();
    let mut state = BTreeMap::new();
    let mut x = 1u64;
    for step in 0..3000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        queue.push((x % 100_000, step));
        state.insert(x, vec![step; 4]);
        if step % 2 == 1 {
            if let Some((key, _)) = queue.pop() {
                state.remove(&key);
            }
        }
    }
    black_box((&queue, &state));
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel samples taken over a run, with the instants they were taken.
#[derive(Debug)]
pub struct SpeedTrack {
    origin: Instant,
    last: Option<f64>,
    samples: Vec<(f64, f64)>,
}

impl Default for SpeedTrack {
    fn default() -> Self {
        SpeedTrack::new()
    }
}

impl SpeedTrack {
    /// An empty track whose clock starts now.
    pub fn new() -> SpeedTrack {
        SpeedTrack {
            origin: Instant::now(),
            last: None,
            samples: Vec::new(),
        }
    }

    /// Seconds since the track started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times the kernel.
    pub fn sample(&mut self) {
        let at = self.now();
        self.samples.push((at, kernel_ms()));
        self.last = Some(self.now());
    }

    /// Times the kernel unless the last sample is recent.
    pub fn sample_if_due(&mut self) {
        let now = self.now();
        if self.last.is_none_or(|last| now - last >= SAMPLE_EVERY_S) {
            self.sample();
        }
    }

    /// Median of every sample.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Median kernel time within [`WINDOW_S`] of instant `t`, or the
    /// nearest sample when none is that close.
    pub fn local_ms(&self, t: f64) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| (s.0 - t).abs() <= WINDOW_S)
            .map(|s| s.1)
            .collect();
        if near.is_empty() {
            self.samples
                .iter()
                .min_by(|a, b| (a.0 - t).abs().total_cmp(&(b.0 - t).abs()))
                .map_or(REFERENCE_MS, |s| s.1)
        } else {
            median(&near)
        }
    }

    /// `ms`, taken at instant `t`, at the reference host's speed.
    pub fn at_reference(&self, t: f64, ms: f64) -> f64 {
        ms * REFERENCE_MS / self.local_ms(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_speed_uses_the_window_around_an_instant() {
        let track = SpeedTrack {
            origin: Instant::now(),
            last: None,
            samples: vec![(0.0, 1.0), (0.5, 1.0), (5.0, 2.0), (5.5, 2.0), (6.0, 2.0)],
        };
        assert_eq!(track.local_ms(0.2), 1.0);
        assert_eq!(track.local_ms(5.2), 2.0);
        // Nothing within a second of t = 2.4: the nearest sample decides.
        assert_eq!(track.local_ms(2.4), 1.0);
        assert_eq!(track.at_reference(5.0, 5.0), 2.0);
    }

    #[test]
    fn kernel_takes_measurable_time() {
        assert!(kernel_ms() > 0.0);
    }
}
