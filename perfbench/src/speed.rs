//! Host-speed probe.
//!
//! The reference host's speed drifts by up to 2× in stretches of seconds
//! to minutes (other tenants share its cores), and the drift moves every
//! host time the benchmark measures, whatever estimator a run uses. A run
//! therefore also times a fixed probe — sorting the same pseudo-random
//! keys — at most every [`EVERY_S`] seconds between units of work, and
//! scales its end-to-end host times by [`REF_S`] ÷ the probe's mean over
//! the run: they are seconds at the reference host's typical speed. The
//! probe is the benchmark's own code, so a change to the program under
//! test never moves it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::trace::Tracer;

/// Least seconds between two probe samples.
pub const EVERY_S: f64 = 0.25;

/// The probe's typical time on the reference host (2-vCPU Xeon, model
/// 143): the mean over a few minutes of samples.
pub const REF_S: f64 = 0.0045;

/// Keys sorted by one probe sample.
const KEYS: usize = 200_000;

#[derive(Debug, Default)]
struct State {
    samples: Vec<f64>,
    last: Option<Instant>,
}

/// Shared probe state; cheap to clone into `'static` closures.
#[derive(Debug, Clone, Default)]
pub struct Probe(Arc<Mutex<State>>);

impl Probe {
    /// A probe with no samples yet.
    pub fn new() -> Self {
        Probe::default()
    }

    /// Time the probe once if [`EVERY_S`] has passed since the last
    /// sample (or none was taken). Returns the host seconds spent, so a
    /// caller timing a span around this call can take them out.
    pub fn tick(&self, tracer: &Tracer) -> f64 {
        let t = Instant::now();
        let mut s = self.0.lock().expect("probe lock");
        if s.last
            .is_some_and(|last| last.elapsed().as_secs_f64() < EVERY_S)
        {
            return 0.0;
        }
        let secs = {
            let _span = tracer.span("bench.probe", String::new);
            sort_once()
        };
        s.samples.push(secs);
        s.last = Some(Instant::now());
        t.elapsed().as_secs_f64()
    }

    /// Every sample taken, in seconds.
    pub fn samples(&self) -> Vec<f64> {
        self.0.lock().expect("probe lock").samples.clone()
    }

    /// [`REF_S`] ÷ the mean sample: the factor that takes a host time
    /// measured in this run to the reference host's typical speed (1 with
    /// no samples).
    pub fn scale(&self) -> f64 {
        let v = self.samples();
        if v.is_empty() {
            1.0
        } else {
            REF_S / crate::mean(&v)
        }
    }
}

/// Sort [`KEYS`] xorshift keys from a fixed start; returns the seconds.
fn sort_once() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut keys: Vec<u32> = (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    let t = Instant::now();
    keys.sort_unstable();
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(&keys);
    secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_rate_limited() {
        let p = Probe::new();
        assert_eq!(p.scale(), 1.0);
        assert!(p.tick(&Tracer::off()) > 0.0);
        assert_eq!(p.tick(&Tracer::off()), 0.0, "second tick within EVERY_S");
        assert_eq!(p.samples().len(), 1);
        assert!(p.scale() > 0.0);
    }
}
