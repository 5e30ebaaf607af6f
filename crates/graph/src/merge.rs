//! The Kruskal merge profile: largest component size as a function of
//! the transmitting range.
//!
//! For fixed node positions, raising the range `r` only adds edges, so
//! the size of the largest connected component is a nondecreasing step
//! function of `r`. [`MergeProfile`] materializes that step function by
//! running Kruskal's algorithm over all pairwise distances and
//! recording every range at which the maximum component size grows.
//!
//! This is the device behind the paper's Figures 4–6: the average size
//! of the largest component at an arbitrary range — and the ranges
//! `rl90`, `rl75`, `rl50` at which it crosses `0.9n`, `0.75n`, `0.5n`
//! — can be evaluated *exactly* from one profile per simulation step,
//! instead of re-simulating for every candidate range.

use crate::dsu::UnionFind;
use manet_geom::Point;

/// Step function `r -> size of largest connected component`.
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::MergeProfile;
///
/// // Nodes at 0, 1, 3: pairs at distance 1, 2, 3.
/// let pts = vec![Point::new([0.0]), Point::new([1.0]), Point::new([3.0])];
/// let prof = MergeProfile::of(&pts);
/// assert_eq!(prof.largest_component_at(0.5), 1);
/// assert_eq!(prof.largest_component_at(1.0), 2);
/// assert_eq!(prof.largest_component_at(2.0), 3);
/// assert_eq!(prof.critical_range(), Some(2.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MergeProfile {
    n: usize,
    /// `(range, size)` events, strictly increasing in both coordinates:
    /// at ranges `>= range`, the largest component has at least `size`
    /// nodes.
    events: Vec<(f64, u32)>,
}

/// A node pair keyed for the merge order: `(d².to_bits(), a, b)` with
/// `a < b`.
///
/// **Tie rule.** Pairs merge in increasing `(d², a, b)` order. A
/// squared distance is a non-negative finite float, and for those the
/// IEEE bit pattern orders exactly as the value, so the derived tuple
/// order is a total order on pairs. Tied distances therefore merge
/// lowest `a` first, then lowest `b`. [`MergeProfile::of`] and
/// [`crate::WindowedKruskal::merge_profile`] both sort by this key, which
/// is what makes their event vectors identical even where tied
/// distances would record different intermediate sizes.
pub(crate) type PairKey = (u64, u32, u32);

/// Keys the pair `(a, b)`, `a < b`, at squared distance `d2`.
pub(crate) fn pair_key(d2: f64, a: usize, b: usize) -> PairKey {
    (d2.to_bits(), a as u32, b as u32)
}

impl MergeProfile {
    /// Builds the profile of `points` by sorting all `O(n²)` pairwise
    /// distances and merging with union-find.
    ///
    /// Pairs merge in increasing `(d², a, b)` order (`a < b`): tied
    /// distances merge lowest `a` first, then lowest `b`. The order
    /// matters because ties can record different intermediate sizes;
    /// [`crate::WindowedKruskal::merge_profile`] uses the same order.
    pub fn of<const D: usize>(points: &[Point<D>]) -> Self {
        let n = points.len();
        let mut pairs = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push(pair_key(points[i].distance_sq(&points[j]), i, j));
            }
        }
        pairs.sort_unstable();
        Self::merge_sorted(&pairs, &mut UnionFind::new(n))
    }

    /// Runs the merge process over `pairs`, which must be sorted by
    /// [`PairKey`], on the fresh singletons `uf`. The event list is
    /// complete (its last size is `n`) whenever `pairs` is a prefix of
    /// the full sorted pair list long enough to connect the points;
    /// callers holding a shorter prefix check that themselves.
    pub(crate) fn merge_sorted(pairs: &[PairKey], uf: &mut UnionFind) -> Self {
        let n = uf.len();
        let mut events = Vec::new();
        let mut current_max = if n == 0 { 0 } else { 1u32 };
        for &(bits, i, j) in pairs {
            uf.union(i as usize, j as usize);
            let m = uf.largest_component() as u32;
            if m > current_max {
                current_max = m;
                events.push((f64::from_bits(bits).sqrt(), m));
                if m as usize == n {
                    break;
                }
            }
        }
        MergeProfile { n, events }
    }

    /// Number of nodes the profile describes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The recorded `(range, size)` growth events.
    pub fn events(&self) -> &[(f64, u32)] {
        &self.events
    }

    /// Size of the largest connected component at range `r`.
    ///
    /// For `n = 0` this is 0; for any `n >= 1` and `r` below the first
    /// merge it is 1.
    pub fn largest_component_at(&self, r: f64) -> usize {
        let mut size = if self.n == 0 { 0u32 } else { 1 };
        for &(range, s) in &self.events {
            if range <= r {
                size = s;
            } else {
                break;
            }
        }
        size as usize
    }

    /// The smallest range at which the largest component reaches
    /// `target` nodes, or `None` when `target > n`.
    ///
    /// `target <= 1` yields `Some(0.0)`: a single node needs no range.
    pub fn range_for_size(&self, target: usize) -> Option<f64> {
        if target > self.n {
            return None;
        }
        if target <= 1 {
            return Some(0.0);
        }
        for &(range, s) in &self.events {
            if s as usize >= target {
                return Some(range);
            }
        }
        // target <= n and every merge was recorded, so the last event
        // reaches n >= target; unreachable unless n <= 1 handled above.
        None
    }

    /// The critical transmitting range (range at which all `n` nodes
    /// join one component), or `None` for `n == 0`. Equals
    /// `Some(0.0)` for `n == 1`.
    pub fn critical_range(&self) -> Option<f64> {
        match self.n {
            0 => None,
            1 => Some(0.0),
            n => self.range_for_size(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::AdjacencyList;
    use crate::components::largest_component_size;
    use crate::mst::critical_range;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<Point<1>> = vec![];
        let p0 = MergeProfile::of(&empty);
        assert_eq!(p0.largest_component_at(10.0), 0);
        assert_eq!(p0.critical_range(), None);
        assert_eq!(p0.range_for_size(1), None);

        let one = vec![Point::new([2.0])];
        let p1 = MergeProfile::of(&one);
        assert_eq!(p1.largest_component_at(0.0), 1);
        assert_eq!(p1.critical_range(), Some(0.0));
        assert_eq!(p1.range_for_size(1), Some(0.0));
    }

    #[test]
    fn events_are_monotone() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let pts: Vec<Point<2>> = (0..50)
            .map(|_| Point::new([rng.random_range(0.0..20.0), rng.random_range(0.0..20.0)]))
            .collect();
        let prof = MergeProfile::of(&pts);
        for w in prof.events().windows(2) {
            assert!(w[0].0 <= w[1].0, "ranges must be nondecreasing");
            assert!(w[0].1 < w[1].1, "sizes must strictly increase");
        }
        assert_eq!(prof.events().last().unwrap().1 as usize, pts.len());
    }

    #[test]
    fn profile_matches_direct_component_computation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let pts: Vec<Point<2>> = (0..40)
            .map(|_| Point::new([rng.random_range(0.0..15.0), rng.random_range(0.0..15.0)]))
            .collect();
        let prof = MergeProfile::of(&pts);
        for r in [0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 20.0] {
            let g = AdjacencyList::from_points_brute_force(&pts, r);
            assert_eq!(
                prof.largest_component_at(r),
                largest_component_size(&g),
                "mismatch at r = {r}"
            );
        }
    }

    #[test]
    fn critical_range_matches_mst_bottleneck() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for _ in 0..5 {
            let pts: Vec<Point<2>> = (0..35)
                .map(|_| Point::new([rng.random_range(0.0..25.0), rng.random_range(0.0..25.0)]))
                .collect();
            let from_profile = MergeProfile::of(&pts).critical_range().unwrap();
            let from_mst = critical_range(&pts);
            assert!((from_profile - from_mst).abs() < 1e-9);
        }
    }

    #[test]
    fn range_for_size_is_inverse_of_largest_at() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let pts: Vec<Point<2>> = (0..30)
            .map(|_| Point::new([rng.random_range(0.0..12.0), rng.random_range(0.0..12.0)]))
            .collect();
        let prof = MergeProfile::of(&pts);
        for target in 2..=pts.len() {
            let r = prof.range_for_size(target).unwrap();
            assert!(prof.largest_component_at(r) >= target);
            assert!(prof.largest_component_at(r * (1.0 - 1e-9)) < target);
        }
        assert_eq!(prof.range_for_size(pts.len() + 1), None);
    }

    #[test]
    fn tied_distances_merge_in_pair_order() {
        // Three pairs tie at distance 1. Merging (0,1), (1,2), (2,3) in
        // that order records sizes 2, 3, 4; the order (0,1), (2,3),
        // (1,2) would record only 2 and 4.
        let pts: Vec<Point<1>> = (0..4).map(|x| Point::new([x as f64])).collect();
        let prof = MergeProfile::of(&pts);
        assert_eq!(prof.events(), &[(1.0, 2), (1.0, 3), (1.0, 4)]);
    }

    #[test]
    fn duplicates_merge_at_zero() {
        let pts = vec![Point::new([1.0]); 3];
        let prof = MergeProfile::of(&pts);
        assert_eq!(prof.largest_component_at(0.0), 3);
        assert_eq!(prof.critical_range(), Some(0.0));
    }
}
