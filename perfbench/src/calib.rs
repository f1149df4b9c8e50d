//! Host-speed calibration.
//!
//! On a shared VM the same code runs at different speeds from one moment
//! to the next. On a 2-vCPU Firecracker VM (2.1 GHz Xeon), a fixed loop
//! switched between a fast and a ~1.7× slower state every 0.1–2 s, and
//! the share of slow time drifted between runs, with no steal time and
//! CPU time equal to wall time. Contention for memory drifted apart from
//! contention for the core: a random-access loop slowed by up to 1.4×
//! more than a compute loop at some times than at others. A study's wall
//! time follows both, so raw host times of identical work spread by up
//! to ±30% between runs, and by more between hours.
//!
//! The benchmark therefore times a fixed reference kernel (a probe) and
//! scales its host times to a reference speed. Job times are divided by
//! [`HostSpeed::factor`], the mean time of the probes run before every
//! job (over the middle half of them) relative to [`REF_PROBE`]. A
//! set-up is divided by [`HostSpeed::factor_now`] taken right before and
//! right after it, because a run's first second need not see the speed
//! of the whole run. The kernel is benchmark code, so a change to the
//! program moves the job times but not the probe.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time one probe takes at the reference speed: about its fast-state
/// time on an uncontended vCPU of a 2.1 GHz Xeon VM. A factor of 1 means
/// the run saw that speed.
pub const REF_PROBE: Duration = Duration::from_micros(300);

/// Rounds of the density step per probe.
const ROUNDS: usize = 8;
/// Observations per round.
const OBSERVATIONS: usize = 128;
/// Candidate points scored against the observations per round.
const CANDIDATES: usize = 24;
/// Words in the buffer of the memory step (4 MiB).
const MEMORY_WORDS: usize = 1 << 19;
/// Random updates of that buffer per probe.
const MEMORY_UPDATES: usize = 16_384;
/// Probes in one [`HostSpeed::factor_now`] reading.
const BURST: usize = 4;

/// A small Parzen-estimator step, the kind of work the tuner does: draw
/// observations, sort them, then score candidates by a Gaussian kernel
/// density (`exp`, `ln`) over them.
fn density_step() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..ROUNDS {
        let mut observations: Vec<f64> = (0..OBSERVATIONS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        observations.sort_by(f64::total_cmp);
        for c in 0..CANDIDATES {
            let candidate = c as f64 / CANDIDATES as f64;
            let density: f64 = black_box(&observations)
                .iter()
                .map(|&o| (-(candidate - o) * (candidate - o) * 50.0).exp())
                .sum();
            acc += (density + 1e-12).ln();
        }
    }
    black_box(acc);
}

/// Random read-modify-writes over a buffer larger than a core's private
/// caches, so they contend for the shared cache and memory.
fn memory_step(buffer: &mut [u64]) {
    let mask = buffer.len() - 1;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..MEMORY_UPDATES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        buffer[i] = buffer[i].wrapping_add(x);
    }
    black_box(buffer);
}

/// The probe times of one run.
pub struct HostSpeed {
    probes: Vec<f64>,
    buffer: Vec<u64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            probes: Vec::new(),
            // Written in full here, so no probe pays its page faults.
            buffer: (0..MEMORY_WORDS as u64).collect(),
        }
    }
}

impl HostSpeed {
    /// Runs one probe and keeps its time.
    pub fn sample(&mut self) {
        let probe = self.probe();
        self.probes.push(probe);
    }

    /// How much slower than the reference speed the host is now: the
    /// mean of a few probes run at once, divided by [`REF_PROBE`]. These
    /// probes are not kept.
    pub fn factor_now(&mut self) -> f64 {
        let total: f64 = (0..BURST).map(|_| self.probe()).sum();
        total / BURST as f64 / REF_PROBE.as_secs_f64()
    }

    /// Runs the kernel once, the density step then the memory step, and
    /// returns its time in seconds.
    fn probe(&mut self) -> f64 {
        let start = Instant::now();
        density_step();
        memory_step(&mut self.buffer);
        start.elapsed().as_secs_f64()
    }

    /// How much slower than the reference speed this run's host was: the
    /// mean probe time over the middle half of the probes, divided by
    /// [`REF_PROBE`]. The mean follows the share of slow time smoothly,
    /// and dropping the outer quarters drops probes a preemption hit.
    pub fn factor(&self) -> f64 {
        let mut sorted = self.probes.clone();
        sorted.sort_by(f64::total_cmp);
        let quarter = sorted.len() / 4;
        let middle = &sorted[quarter..sorted.len() - quarter];
        if middle.is_empty() {
            return 1.0;
        }
        let mean = middle.iter().sum::<f64>() / middle.len() as f64;
        mean / REF_PROBE.as_secs_f64()
    }

    /// Probes taken so far.
    pub fn count(&self) -> usize {
        self.probes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_interquartile_mean_over_the_reference() {
        let reference = REF_PROBE.as_secs_f64();
        let speed = HostSpeed {
            // The outer quarters (one probe each) are dropped.
            probes: vec![
                reference,
                2.0 * reference,
                2.0 * reference,
                90.0 * reference,
            ],
            buffer: Vec::new(),
        };
        assert!((speed.factor() - 2.0).abs() < 1e-12);
        assert_eq!(HostSpeed::default().factor(), 1.0);
    }

    #[test]
    fn probes_take_measurable_time() {
        let mut speed = HostSpeed::default();
        for _ in 0..8 {
            speed.sample();
        }
        assert_eq!(speed.count(), 8);
        assert!(speed.factor() > 0.0);
        assert!(speed.factor_now() > 0.0);
        assert_eq!(speed.count(), 8);
    }
}
