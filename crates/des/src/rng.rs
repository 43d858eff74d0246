//! Deterministic random-number streams and BGP timer jitter.
//!
//! Every stochastic component of a simulation (each router, the topology
//! generator, the workload) draws from its own stream derived from a single
//! root seed, so adding a component or reordering draws in one component
//! never perturbs another — a standard variance-reduction/reproducibility
//! technique in discrete-event simulation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// Factory for independent, reproducible RNG streams.
///
/// ```
/// use bgpsim_des::RngStreams;
/// use rand::Rng;
///
/// let streams = RngStreams::new(42);
/// let mut a = streams.stream("router", 7);
/// let mut b = streams.stream("router", 8);
/// let mut a2 = RngStreams::new(42).stream("router", 7);
/// let x: u64 = a.gen();
/// assert_eq!(x, a2.gen::<u64>(), "same (seed, label, index) ⇒ same stream");
/// assert_ne!(x, b.gen::<u64>(), "different index ⇒ different stream");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RngStreams {
    root: u64,
}

impl RngStreams {
    /// Creates a stream factory from a root seed.
    pub fn new(root_seed: u64) -> RngStreams {
        RngStreams { root: root_seed }
    }

    /// Derives the RNG stream for component `label` number `index`.
    ///
    /// The same `(root seed, label, index)` triple always yields the same
    /// stream; distinct triples yield statistically independent streams.
    pub fn stream(&self, label: &str, index: u64) -> SmallRng {
        let mut h = self.root;
        for &b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h ^ index);
        SmallRng::seed_from_u64(h)
    }
}

/// SplitMix64 — the standard seed-scrambling finalizer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies RFC 1771 timer jitter: the configured interval is multiplied by a
/// uniform random factor in `[0.75, 1.0)`, i.e. reduced by up to 25%.
///
/// This is how SSFNet (and the paper, §3.2: "All the timers were jittered as
/// specified in RFC 1771 resulting in a reduction of up to 25%") randomizes
/// the MRAI and other BGP timers to avoid synchronization.
///
/// ```
/// use bgpsim_des::{rng::jittered, SimDuration};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let base = SimDuration::from_secs(30);
/// let j = jittered(base, &mut rng);
/// assert!(j <= base && j >= base.mul_f64(0.75));
/// ```
pub fn jittered<R: Rng + ?Sized>(base: SimDuration, rng: &mut R) -> SimDuration {
    base.mul_f64(rng.gen_range(0.75..1.0))
}

/// Draws a duration uniformly from `[lo, hi]`.
///
/// Used for the paper's per-update processing delay, uniform on 1–30 ms.
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn uniform_duration<R: Rng + ?Sized>(
    lo: SimDuration,
    hi: SimDuration,
    rng: &mut R,
) -> SimDuration {
    assert!(
        lo <= hi,
        "uniform_duration bounds out of order: {lo} > {hi}"
    );
    if lo == hi {
        return lo;
    }
    SimDuration::from_nanos(rng.gen_range(lo.as_nanos()..=hi.as_nanos()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn streams_are_reproducible() {
        let a = RngStreams::new(7).stream("node", 3).gen::<u64>();
        let b = RngStreams::new(7).stream("node", 3).gen::<u64>();
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ_by_label_and_index() {
        let s = RngStreams::new(7);
        let by_label = (
            s.stream("node", 0).gen::<u64>(),
            s.stream("link", 0).gen::<u64>(),
        );
        assert_ne!(by_label.0, by_label.1);
        let by_index = (
            s.stream("node", 0).gen::<u64>(),
            s.stream("node", 1).gen::<u64>(),
        );
        assert_ne!(by_index.0, by_index.1);
    }

    #[test]
    fn streams_differ_by_root_seed() {
        let a = RngStreams::new(1).stream("node", 0).gen::<u64>();
        let b = RngStreams::new(2).stream("node", 0).gen::<u64>();
        assert_ne!(a, b);
    }

    #[test]
    fn jitter_stays_in_rfc_band() {
        let mut rng = SmallRng::seed_from_u64(99);
        let base = SimDuration::from_secs_f64(2.25);
        for _ in 0..10_000 {
            let j = jittered(base, &mut rng);
            assert!(j >= base.mul_f64(0.75), "jitter reduced more than 25%");
            assert!(j <= base, "jitter increased the timer");
        }
    }

    #[test]
    fn jitter_covers_the_band() {
        let mut rng = SmallRng::seed_from_u64(5);
        let base = SimDuration::from_secs(1);
        let draws: Vec<f64> = (0..10_000)
            .map(|_| jittered(base, &mut rng).as_secs_f64())
            .collect();
        let min = draws.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = draws.iter().cloned().fold(0.0, f64::max);
        assert!(min < 0.76, "band lower edge unexplored: min={min}");
        assert!(max > 0.99, "band upper edge unexplored: max={max}");
    }

    #[test]
    fn uniform_duration_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        let lo = SimDuration::from_millis(1);
        let hi = SimDuration::from_millis(30);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let d = uniform_duration(lo, hi, &mut rng);
            assert!(d >= lo && d <= hi);
            sum += d.as_millis_f64();
        }
        let mean = sum / 10_000.0;
        assert!((mean - 15.5).abs() < 0.5, "mean {mean} far from 15.5 ms");
    }

    #[test]
    fn uniform_duration_degenerate_range() {
        let mut rng = SmallRng::seed_from_u64(3);
        let d = SimDuration::from_millis(5);
        assert_eq!(uniform_duration(d, d, &mut rng), d);
    }

    #[test]
    #[should_panic(expected = "bounds out of order")]
    fn uniform_duration_bad_bounds_panics() {
        let mut rng = SmallRng::seed_from_u64(3);
        let _ = uniform_duration(
            SimDuration::from_millis(30),
            SimDuration::from_millis(1),
            &mut rng,
        );
    }
}
