//! Degree distributions.
//!
//! The paper's experiments sweep a family of *skewed* distributions in which
//! a fraction of nodes has low degree (uniform on a small range) and the
//! rest a high degree chosen so the average lands on a target (§4.1):
//!
//! | name       | low fraction | low degrees | high degrees | avg  |
//! |------------|--------------|-------------|--------------|------|
//! | 70-30      | 70%          | 1–3         | 8            | 3.8  |
//! | 50-50      | 50%          | 1–3         | 5 or 6       | 3.8  |
//! | 85-15      | 85%          | 1–3         | 14           | 3.8  |
//! | 50-50 dense| 50%          | 1–3         | 13 or 14     | 7.6  |
//!
//! For the "realistic" topologies (§4.1, Fig 13) the paper derives a degree
//! distribution from Internet AS connectivity data, truncated at degree 40
//! with average ≈ 3.4 and ~70% of ASes connected to fewer than 4 others;
//! [`internet_like`] reproduces that shape with a truncated power law.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A skewed two-class degree distribution (the paper's workhorse).
///
/// `high_fraction` of nodes draw a degree from the weighted `high` choices;
/// the rest draw uniformly from `low_min..=low_max`. The class counts are
/// deterministic (`round(high_fraction · n)` high nodes) so every sampled
/// sequence hits the intended mix exactly; which nodes are high is random.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SkewedSpec {
    /// Smallest low-class degree.
    pub low_min: u32,
    /// Largest low-class degree.
    pub low_max: u32,
    /// High-class degree choices with sampling weights (need not sum to 1).
    pub high: Vec<(u32, f64)>,
    /// Fraction of nodes in the high class, in `[0, 1]`.
    pub high_fraction: f64,
}

impl SkewedSpec {
    /// The paper's default "70-30" distribution: 70% degree 1–3, 30%
    /// degree 8 (average 3.8).
    pub fn seventy_thirty() -> SkewedSpec {
        SkewedSpec {
            low_min: 1,
            low_max: 3,
            high: vec![(8, 1.0)],
            high_fraction: 0.3,
        }
    }

    /// "50-50": 50% degree 1–3, 50% degree 5 or 6, weighted so the average
    /// is 3.8 (high-class mean 5.6).
    pub fn fifty_fifty() -> SkewedSpec {
        SkewedSpec {
            low_min: 1,
            low_max: 3,
            high: vec![(5, 0.4), (6, 0.6)],
            high_fraction: 0.5,
        }
    }

    /// "85-15": 85% degree 1–3, 15% degree 14 (average 3.8).
    pub fn eighty_five_fifteen() -> SkewedSpec {
        SkewedSpec {
            low_min: 1,
            low_max: 3,
            high: vec![(14, 1.0)],
            high_fraction: 0.15,
        }
    }

    /// The dense "50-50" of Fig 5: high degrees 13 or 14 (high-class mean
    /// 13.2), average degree 7.6.
    pub fn fifty_fifty_dense() -> SkewedSpec {
        SkewedSpec {
            low_min: 1,
            low_max: 3,
            high: vec![(13, 0.8), (14, 0.2)],
            high_fraction: 0.5,
        }
    }

    /// Expected mean degree of the distribution.
    pub fn mean(&self) -> f64 {
        let low_mean = f64::from(self.low_min + self.low_max) / 2.0;
        let wsum: f64 = self.high.iter().map(|&(_, w)| w).sum();
        let high_mean: f64 = self
            .high
            .iter()
            .map(|&(d, w)| f64::from(d) * w)
            .sum::<f64>()
            / wsum;
        (1.0 - self.high_fraction) * low_mean + self.high_fraction * high_mean
    }

    /// The smallest degree any high-class node can get (used by the
    /// degree-dependent MRAI experiments to classify nodes).
    pub fn min_high_degree(&self) -> u32 {
        self.high.iter().map(|&(d, _)| d).min().unwrap_or(0)
    }

    /// Samples a degree sequence of length `n`.
    ///
    /// Exactly `round(high_fraction · n)` entries are high-class; positions
    /// are shuffled. The sum is made even (a requirement for a degree
    /// sequence to be realizable) by bumping one low-class entry.
    ///
    /// # Panics
    ///
    /// Panics if the spec is malformed: `low_min > low_max`, `low_min == 0`,
    /// empty `high` list, or `high_fraction` outside `[0, 1]`.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<u32> {
        assert!(self.low_min <= self.low_max, "low range out of order");
        assert!(self.low_min >= 1, "degree-0 nodes cannot be connected");
        assert!(!self.high.is_empty(), "high choices empty");
        assert!(
            (0.0..=1.0).contains(&self.high_fraction),
            "high_fraction {} outside [0, 1]",
            self.high_fraction
        );
        let num_high = (self.high_fraction * n as f64).round() as usize;
        let wsum: f64 = self.high.iter().map(|&(_, w)| w).sum();
        let mut degrees: Vec<u32> = Vec::with_capacity(n);
        for _ in 0..num_high {
            let mut pick = rng.gen_range(0.0..wsum);
            let mut chosen = self.high[self.high.len() - 1].0;
            for &(d, w) in &self.high {
                if pick < w {
                    chosen = d;
                    break;
                }
                pick -= w;
            }
            degrees.push(chosen);
        }
        for _ in num_high..n {
            degrees.push(rng.gen_range(self.low_min..=self.low_max));
        }
        shuffle(&mut degrees, rng);
        make_sum_even(&mut degrees);
        degrees
    }
}

/// The fewest ASes [`caida_like`] can split into stub and transit tiers.
pub const CAIDA_LIKE_MIN_ASES: usize = 64;

/// CAIDA-like AS-level degree distribution for Internet-scale topologies
/// (the ROADMAP's 10k–70k-AS target): a tiered stub/transit mix with a
/// power-law transit tail and overall average degree ≈ 4.2, the shape of
/// the measured AS graph.
///
/// * **Stubs** (82% of ASes) have degree 1–3 — edge networks, single- or
///   multi-homed to a few providers. This is the low class, so the
///   degree-dependent MRAI experiments classify exactly the transit tier
///   as "high" ([`SkewedSpec::min_high_degree`] = 4).
/// * **Transit** ASes (18%) draw from a truncated power law over
///   `4..=max`, where `max` grows with `n` (≈ 4·√n, capped at `n/4` — a
///   hub scale the configuration-model construction still realizes
///   reliably) and the exponent is solved by bisection so the overall
///   mean lands on 4.2.
///
/// Below roughly 300 ASes the truncation is too tight for the transit
/// tier to reach its share of the 4.2 target; the exponent saturates and
/// the mean falls short. The preset asserts only `n >= 64` so small
/// smoke tests still run, but it is meant for thousands of ASes.
///
/// ```
/// use bgpsim_topology::degree::caida_like;
///
/// let spec = caida_like(10_000);
/// assert!((spec.mean() - 4.2).abs() < 0.05);
/// assert_eq!(spec.min_high_degree(), 4);
/// ```
///
/// # Panics
///
/// Panics if `n <` [`CAIDA_LIKE_MIN_ASES`] — too few ASes to tier.
pub fn caida_like(n: usize) -> SkewedSpec {
    assert!(
        n >= CAIDA_LIKE_MIN_ASES,
        "caida_like needs a population to tier (n >= {CAIDA_LIKE_MIN_ASES})"
    );
    const STUB_FRACTION: f64 = 0.82;
    const TARGET_MEAN: f64 = 4.2;
    let stub_mean = 2.0; // uniform 1..=3
    let transit_fraction = 1.0 - STUB_FRACTION;
    let transit_mean = (TARGET_MEAN - STUB_FRACTION * stub_mean) / transit_fraction;
    let max_degree = ((4.0 * (n as f64).sqrt()).round() as u32)
        .min(n as u32 / 4)
        .max(8);
    // Mean of the truncated power law over 4..=max_degree decreases
    // monotonically in the exponent; bisect to hit the transit target.
    let mean_for = |gamma: f64| {
        let (mut num, mut den) = (0.0, 0.0);
        for d in 4..=max_degree {
            let w = f64::from(d).powf(-gamma);
            num += f64::from(d) * w;
            den += w;
        }
        num / den
    };
    let (mut lo, mut hi) = (0.0_f64, 8.0_f64);
    for _ in 0..100 {
        let mid = (lo + hi) / 2.0;
        if mean_for(mid) > transit_mean {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let gamma = (lo + hi) / 2.0;
    SkewedSpec {
        low_min: 1,
        low_max: 3,
        high: (4..=max_degree)
            .map(|d| (d, f64::from(d).powf(-gamma)))
            .collect(),
        high_fraction: transit_fraction,
    }
}

/// A degree distribution specification.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DegreeSpec {
    /// Two-class skewed distribution ([`SkewedSpec`]).
    Skewed(SkewedSpec),
    /// Truncated power law: `P(d) ∝ d^-gamma` for `1 ≤ d ≤ max_degree`.
    PowerLaw {
        /// Exponent (> 1).
        gamma: f64,
        /// Largest degree allowed.
        max_degree: u32,
    },
    /// Uniform on `min..=max`.
    Uniform {
        /// Smallest degree.
        min: u32,
        /// Largest degree.
        max: u32,
    },
    /// An explicit sequence (cycled/truncated to the requested length).
    Explicit(Vec<u32>),
}

impl DegreeSpec {
    /// Expected mean degree.
    ///
    /// # Panics
    ///
    /// Panics on malformed specs (e.g. empty explicit sequence).
    pub fn mean(&self) -> f64 {
        match self {
            DegreeSpec::Skewed(s) => s.mean(),
            DegreeSpec::PowerLaw { gamma, max_degree } => {
                let (mut num, mut den) = (0.0, 0.0);
                for d in 1..=*max_degree {
                    let p = f64::from(d).powf(-gamma);
                    num += f64::from(d) * p;
                    den += p;
                }
                num / den
            }
            DegreeSpec::Uniform { min, max } => f64::from(min + max) / 2.0,
            DegreeSpec::Explicit(seq) => {
                assert!(!seq.is_empty(), "explicit degree sequence is empty");
                seq.iter().map(|&d| f64::from(d)).sum::<f64>() / seq.len() as f64
            }
        }
    }

    /// Samples a degree sequence of length `n` (sum forced even).
    ///
    /// # Panics
    ///
    /// Panics on malformed specs; see [`SkewedSpec::sample`] for the skewed
    /// case. `PowerLaw` requires `max_degree ≥ 1`; `Uniform` requires
    /// `1 ≤ min ≤ max`; `Explicit` requires a non-empty sequence.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<u32> {
        let mut degrees: Vec<u32> = match self {
            DegreeSpec::Skewed(s) => return s.sample(n, rng),
            DegreeSpec::PowerLaw { gamma, max_degree } => {
                assert!(*max_degree >= 1, "max_degree must be at least 1");
                // Inverse-CDF sampling over the discrete truncated power law.
                let weights: Vec<f64> = (1..=*max_degree)
                    .map(|d| f64::from(d).powf(-gamma))
                    .collect();
                let total: f64 = weights.iter().sum();
                (0..n)
                    .map(|_| {
                        let mut pick = rng.gen_range(0.0..total);
                        for (i, w) in weights.iter().enumerate() {
                            if pick < *w {
                                return i as u32 + 1;
                            }
                            pick -= w;
                        }
                        *max_degree
                    })
                    .collect()
            }
            DegreeSpec::Uniform { min, max } => {
                assert!(*min >= 1 && min <= max, "uniform degree bounds invalid");
                (0..n).map(|_| rng.gen_range(*min..=*max)).collect()
            }
            DegreeSpec::Explicit(seq) => {
                assert!(!seq.is_empty(), "explicit degree sequence is empty");
                (0..n).map(|i| seq[i % seq.len()]).collect()
            }
        };
        make_sum_even(&mut degrees);
        degrees
    }
}

/// The Internet-derived degree distribution used for the paper's "realistic"
/// topologies (§4.1): a power law truncated at `max_degree` (the paper uses
/// 40 for 120-AS networks) with exponent solved so the mean degree is
/// `target_mean` (paper: ≈ 3.4, which also puts ~70% of ASes below degree 4).
///
/// ```
/// use bgpsim_topology::degree::internet_like;
///
/// let spec = internet_like(40, 3.4);
/// assert!((spec.mean() - 3.4).abs() < 0.01);
/// ```
///
/// # Panics
///
/// Panics if `target_mean` is not achievable for the given truncation
/// (it must lie strictly between 1 and `(1 + max_degree) / 2`).
pub fn internet_like(max_degree: u32, target_mean: f64) -> DegreeSpec {
    assert!(max_degree >= 2, "max_degree must allow some spread");
    assert!(
        target_mean > 1.0 && target_mean < f64::from(1 + max_degree) / 2.0,
        "target mean {target_mean} out of achievable range"
    );
    // Mean degree decreases monotonically in gamma; bisect.
    let mean_for = |gamma: f64| DegreeSpec::PowerLaw { gamma, max_degree }.mean();
    let (mut lo, mut hi) = (0.0_f64, 8.0_f64);
    for _ in 0..200 {
        let mid = (lo + hi) / 2.0;
        if mean_for(mid) > target_mean {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    DegreeSpec::PowerLaw {
        gamma: (lo + hi) / 2.0,
        max_degree,
    }
}

/// Whether `degrees` is *graphical* — realizable as a simple undirected
/// graph — per the Erdős–Gallai theorem.
///
/// Power-law samples over few nodes are frequently non-graphical (e.g. two
/// degree-40 hubs among 60 nodes of mostly degree 1); generators use this
/// to resample cheaply instead of failing a doomed construction.
///
/// ```
/// use bgpsim_topology::degree::is_graphical;
///
/// assert!(is_graphical(&[2, 2, 2]));           // triangle
/// assert!(is_graphical(&[4, 1, 1, 1, 1]));     // star
/// assert!(!is_graphical(&[3, 1, 1]));          // odd sum
/// assert!(!is_graphical(&[3, 3, 1, 1]));       // Erdős–Gallai violation
/// assert!(!is_graphical(&[5, 1, 1, 1, 1]));    // degree exceeds n-1
/// ```
pub fn is_graphical(degrees: &[u32]) -> bool {
    let sum: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
    if sum % 2 == 1 {
        return false;
    }
    let mut sorted: Vec<u64> = degrees.iter().map(|&d| u64::from(d)).collect();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let n = sorted.len() as u64;
    if sorted.first().is_some_and(|&d| d >= n) {
        return false;
    }
    let mut lhs = 0u64;
    for k in 1..=sorted.len() {
        lhs += sorted[k - 1];
        let rhs: u64 =
            k as u64 * (k as u64 - 1) + sorted[k..].iter().map(|&d| d.min(k as u64)).sum::<u64>();
        if lhs > rhs {
            return false;
        }
    }
    true
}

/// Fisher–Yates shuffle (kept local to avoid a `rand` feature dependency).
fn shuffle<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Degree sequences must have an even sum to be realizable; bump the first
/// smallest entry if needed.
fn make_sum_even(degrees: &mut [u32]) {
    if degrees.iter().map(|&d| u64::from(d)).sum::<u64>() % 2 == 1 {
        if let Some(min_idx) = (0..degrees.len()).min_by_key(|&i| degrees[i]) {
            degrees[min_idx] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mean_of(degrees: &[u32]) -> f64 {
        degrees.iter().map(|&d| f64::from(d)).sum::<f64>() / degrees.len() as f64
    }

    #[test]
    fn preset_means_match_paper() {
        assert!((SkewedSpec::seventy_thirty().mean() - 3.8).abs() < 1e-9);
        assert!((SkewedSpec::fifty_fifty().mean() - 3.8).abs() < 1e-9);
        assert!((SkewedSpec::eighty_five_fifteen().mean() - 3.8).abs() < 1e-9);
        assert!((SkewedSpec::fifty_fifty_dense().mean() - 7.6).abs() < 1e-9);
    }

    #[test]
    fn caida_like_hits_internet_shape() {
        for n in [1_000, 10_000, 70_000] {
            let spec = caida_like(n);
            assert!(
                (spec.mean() - 4.2).abs() < 0.05,
                "n={n}: mean {} off the 4.2 target",
                spec.mean()
            );
            assert_eq!(spec.min_high_degree(), 4, "transit tier starts at 4");
        }
        // The hub scale grows with the AS count.
        let small = caida_like(1_000).high.last().unwrap().0;
        let large = caida_like(70_000).high.last().unwrap().0;
        assert!(small < large, "hub cap must scale: {small} !< {large}");
    }

    #[test]
    fn caida_like_sample_is_stub_heavy() {
        let mut rng = SmallRng::seed_from_u64(13);
        let degrees = caida_like(10_000).sample(10_000, &mut rng);
        let stubs = degrees.iter().filter(|&&d| d <= 3).count() as f64 / 10_000.0;
        assert!(
            (0.79..=0.85).contains(&stubs),
            "stub fraction {stubs} should be ~0.82"
        );
        let m = mean_of(&degrees);
        assert!((m - 4.2).abs() < 0.4, "sampled mean {m} off target");
        assert_eq!(
            degrees.iter().map(|&d| u64::from(d)).sum::<u64>() % 2,
            0,
            "degree sum must be even"
        );
    }

    #[test]
    #[should_panic(expected = "population to tier")]
    fn caida_like_rejects_tiny_populations() {
        let _ = caida_like(10);
    }

    #[test]
    fn skewed_sample_has_exact_class_counts() {
        let mut rng = SmallRng::seed_from_u64(1);
        let spec = SkewedSpec::seventy_thirty();
        let degrees = spec.sample(120, &mut rng);
        assert_eq!(degrees.len(), 120);
        // 36 high-degree (8) nodes; the even-sum fix can bump one low node.
        let high = degrees.iter().filter(|&&d| d == 8).count();
        assert_eq!(high, 36);
        let low_ok = degrees.iter().filter(|&&d| (1..=4).contains(&d)).count();
        assert_eq!(low_ok + high, 120);
        assert!((mean_of(&degrees) - 3.8).abs() < 0.3);
    }

    #[test]
    fn skewed_sample_sum_is_even() {
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [3, 10, 59, 120, 241] {
            let degrees = SkewedSpec::eighty_five_fifteen().sample(n, &mut rng);
            let sum: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
            assert_eq!(sum % 2, 0, "odd degree sum for n={n}");
        }
    }

    #[test]
    fn min_high_degree_reported() {
        assert_eq!(SkewedSpec::fifty_fifty().min_high_degree(), 5);
        assert_eq!(SkewedSpec::seventy_thirty().min_high_degree(), 8);
    }

    #[test]
    fn power_law_sample_in_range() {
        let mut rng = SmallRng::seed_from_u64(3);
        let spec = DegreeSpec::PowerLaw {
            gamma: 2.2,
            max_degree: 40,
        };
        let degrees = spec.sample(5000, &mut rng);
        assert!(degrees.iter().all(|&d| (1..=40).contains(&d)));
        // Heavy head: most mass at low degree.
        let low = degrees.iter().filter(|&&d| d < 4).count();
        assert!(low as f64 / 5000.0 > 0.6, "power law not head-heavy");
    }

    #[test]
    fn internet_like_hits_target_mean() {
        let spec = internet_like(40, 3.4);
        assert!((spec.mean() - 3.4).abs() < 0.01);
        let mut rng = SmallRng::seed_from_u64(11);
        let degrees = spec.sample(20_000, &mut rng);
        let m = mean_of(&degrees);
        assert!((m - 3.4).abs() < 0.15, "sampled mean {m} off target");
        let below4 = degrees.iter().filter(|&&d| d < 4).count() as f64 / 20_000.0;
        assert!(
            (0.6..0.85).contains(&below4),
            "fraction below degree 4 = {below4}, paper reports ~0.7"
        );
    }

    #[test]
    fn uniform_and_explicit_sample() {
        let mut rng = SmallRng::seed_from_u64(5);
        let u = DegreeSpec::Uniform { min: 2, max: 4 }.sample(100, &mut rng);
        assert!(u.iter().all(|&d| (2..=5).contains(&d))); // +1 possible from even-sum fix
        let e = DegreeSpec::Explicit(vec![2, 4]).sample(5, &mut rng);
        assert_eq!(e.iter().map(|&d| u64::from(d)).sum::<u64>() % 2, 0);
        assert_eq!(e.len(), 5);
    }

    #[test]
    fn explicit_mean() {
        assert_eq!(DegreeSpec::Explicit(vec![2, 4]).mean(), 3.0);
        assert_eq!(DegreeSpec::Uniform { min: 1, max: 3 }.mean(), 2.0);
    }

    #[test]
    #[should_panic(expected = "out of achievable range")]
    fn internet_like_rejects_silly_mean() {
        let _ = internet_like(4, 10.0);
    }

    #[test]
    #[should_panic(expected = "high_fraction")]
    fn skewed_rejects_bad_fraction() {
        let mut rng = SmallRng::seed_from_u64(5);
        let spec = SkewedSpec {
            high_fraction: 1.5,
            ..SkewedSpec::seventy_thirty()
        };
        let _ = spec.sample(10, &mut rng);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = SkewedSpec::seventy_thirty().sample(50, &mut SmallRng::seed_from_u64(9));
        let b = SkewedSpec::seventy_thirty().sample(50, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
