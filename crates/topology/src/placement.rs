//! Router placement on the grid.
//!
//! The paper places routers uniformly at random on a 1000×1000 grid (§3.1).

use rand::Rng;

use crate::graph::Point;
use crate::GRID_SIDE;

/// Places `n` routers uniformly at random on the standard grid.
///
/// ```
/// use bgpsim_topology::placement::place;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let pts = place(120, &mut rng);
/// assert_eq!(pts.len(), 120);
/// assert!(pts.iter().all(|p| (0.0..=1000.0).contains(&p.x)));
/// ```
pub fn place<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Point> {
    (0..n)
        .map(|_| {
            let (x, y) = (rng.gen_range(0.0..GRID_SIDE), rng.gen_range(0.0..GRID_SIDE));
            Point::new(x, y)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_grid() {
        let mut rng = SmallRng::seed_from_u64(2);
        let pts = place(2000, &mut rng);
        let in_center_quarter = pts
            .iter()
            .filter(|p| (250.0..750.0).contains(&p.x) && (250.0..750.0).contains(&p.y))
            .count();
        // Centre quarter of the area should hold ~25% of uniform points.
        let frac = in_center_quarter as f64 / 2000.0;
        assert!(
            (0.18..0.32).contains(&frac),
            "uniform placement skewed: {frac}"
        );
    }

    #[test]
    fn placement_is_deterministic() {
        let a = place(10, &mut SmallRng::seed_from_u64(4));
        let b = place(10, &mut SmallRng::seed_from_u64(4));
        assert_eq!(a, b);
    }
}
