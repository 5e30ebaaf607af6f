//! Windowed Kruskal: the critical range and the merge profile of a
//! moving point set from the thin shell of pairs around the previous
//! step's answer.
//!
//! The oracles, [`critical_range`] (dense Prim) and
//! [`MergeProfile::of`] (sort of all `n(n−1)/2` pairs), recompute each
//! step from scratch. Both quantities only involve pairs up to the
//! critical range, and when every node moves at most `d` per step every
//! pair distance, and so the critical range, changes by at most `2d`.
//! [`WindowedKruskal`] uses that *drift* to cut the work down to one
//! pass over the pairs plus a sort of the few that matter:
//!
//! * **Critical range.** With the previous value `c'` and drift `s`,
//!   let `lo = c' − s` and `hi = c' + s`. Every pair with `d² < lo²` is
//!   unioned in any order; the band `lo² ≤ d² ≤ hi²` is sorted and
//!   Kruskal runs over it until the graph is connected.
//! * **Merge profile.** With reach `R = c' + s`, the pairs with
//!   `d² ≤ R²` are sorted by the [`MergeProfile`] tie key and run
//!   through the same event loop as the oracle.
//!
//! The drift only picks the window; exactness comes from checking each
//! result (see DESIGN.md, "Windowed Kruskal bottleneck"). A window that
//! fails its check, a call without a previous value or drift, and
//! `n < 2` all fall back to the oracle, and [`WindowStats`] counts
//! which way every call went.

use crate::dsu::UnionFind;
use crate::merge::{pair_key, MergeProfile, PairKey};
use crate::mst::critical_range;
use manet_geom::Point;

/// Where each [`WindowedKruskal`] call got its answer.
///
/// `windowed + cold + rejected` is the number of calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Calls answered from the window (the check accepted it).
    pub windowed: u64,
    /// Calls with no window to try: no previous value, no drift bound,
    /// or fewer than two points. The oracle answered directly.
    pub cold: u64,
    /// Calls whose window failed the check; the oracle answered.
    pub rejected: u64,
}

impl WindowStats {
    /// Calls the oracle answered (`cold + rejected`).
    pub fn fallbacks(&self) -> u64 {
        self.cold + self.rejected
    }

    /// Adds `other`'s counts (commutative, so campaign totals do not
    /// depend on the order iterations finish in).
    pub fn merge(&mut self, other: &WindowStats) {
        self.windowed += other.windowed;
        self.cold += other.cold;
        self.rejected += other.rejected;
    }
}

/// Reusable scratch for the windowed critical range and merge profile
/// of one trajectory.
///
/// The buffers (a union-find and the collected pairs, at most
/// `n(n−1)/2` of 16 bytes each) are reused across calls, so a
/// trajectory allocates only on its first steps.
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::{critical_range, WindowedKruskal};
///
/// let before = vec![Point::new([0.0]), Point::new([1.0]), Point::new([4.0])];
/// let after = vec![Point::new([0.0]), Point::new([1.5]), Point::new([4.0])];
/// let mut wk = WindowedKruskal::new();
/// // No previous value: the oracle answers.
/// let c = wk.critical_range(&before, None, Some(1.0));
/// assert_eq!(c, 3.0);
/// // Each node moved at most 0.5, so the answer moved at most 1.0.
/// assert_eq!(wk.critical_range(&after, Some(c), Some(1.0)), critical_range(&after));
/// assert_eq!(wk.stats().windowed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedKruskal {
    uf: UnionFind,
    pairs: Vec<PairKey>,
    stats: WindowStats,
}

impl Default for WindowedKruskal {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowedKruskal {
    /// Empty scratch with zeroed statistics.
    pub fn new() -> Self {
        WindowedKruskal {
            uf: UnionFind::new(0),
            pairs: Vec::new(),
            stats: WindowStats::default(),
        }
    }

    /// Call statistics since construction.
    pub fn stats(&self) -> WindowStats {
        self.stats
    }

    /// The critical range of `points`, bit-identical to
    /// [`critical_range`].
    ///
    /// `previous` is the critical range of an earlier configuration and
    /// `drift` a bound on how far any pair distance has moved since
    /// (`2d` per step for a model moving each node at most `d`). Either
    /// being `None` skips the window. Neither needs to be right: a wrong
    /// window fails the check and the oracle answers.
    pub fn critical_range<const D: usize>(
        &mut self,
        points: &[Point<D>],
        previous: Option<f64>,
        drift: Option<f64>,
    ) -> f64 {
        let n = points.len();
        let (Some(c), Some(s), true) = (previous, drift, n >= 2) else {
            self.stats.cold += 1;
            return critical_range(points);
        };
        let lo = c - s;
        let hi = c + s;
        // Nothing lies strictly below a non-positive (or NaN) `lo`.
        let lo2 = if lo > 0.0 { lo * lo } else { 0.0 };
        let hi2 = hi * hi;

        self.uf.reset(n);
        self.pairs.clear();
        for (i, p) in points.iter().enumerate() {
            for (j, q) in points.iter().enumerate().skip(i + 1) {
                let d2 = p.distance_sq(q);
                if d2 < lo2 {
                    self.uf.union(i, j);
                } else if d2 <= hi2 {
                    self.pairs.push(pair_key(d2, i, j));
                }
            }
        }
        // Check 1: the pairs below lo must leave the graph disconnected,
        // so the bottleneck is at least lo.
        if !self.uf.is_single_component() {
            // Only the distance matters here; ties may merge in any order.
            self.pairs.sort_unstable_by_key(|p| p.0);
            for &(bits, a, b) in &self.pairs {
                if self.uf.union(a as usize, b as usize) && self.uf.is_single_component() {
                    self.stats.windowed += 1;
                    return f64::from_bits(bits).sqrt();
                }
            }
        }
        // Check 1 failed, or (check 2) the band did not connect.
        self.stats.rejected += 1;
        critical_range(points)
    }

    /// The merge profile of `points`, equal (events bit for bit) to
    /// [`MergeProfile::of`].
    ///
    /// `previous` is the critical range of an earlier configuration and
    /// `drift` a bound on how far any pair distance has moved since; the
    /// window is every pair within `previous + drift`. Either being
    /// `None` skips the window, and a window whose largest component
    /// does not reach all `n` nodes falls back to the oracle.
    pub fn merge_profile<const D: usize>(
        &mut self,
        points: &[Point<D>],
        previous: Option<f64>,
        drift: Option<f64>,
    ) -> MergeProfile {
        let n = points.len();
        let (Some(c), Some(s), true) = (previous, drift, n >= 2) else {
            self.stats.cold += 1;
            return MergeProfile::of(points);
        };
        let reach = c + s;
        let reach2 = reach * reach;

        self.pairs.clear();
        for (i, p) in points.iter().enumerate() {
            for (j, q) in points.iter().enumerate().skip(i + 1) {
                let d2 = p.distance_sq(q);
                if d2 <= reach2 {
                    self.pairs.push(pair_key(d2, i, j));
                }
            }
        }
        // The pairs within reach are a prefix of the oracle's sorted
        // list, so the event loop replays the oracle's first events;
        // the check is that they already connect everything (only then
        // does the profile have a critical range).
        self.pairs.sort_unstable();
        self.uf.reset(n);
        let profile = MergeProfile::merge_sorted(&self.pairs, &mut self.uf);
        if profile.critical_range().is_some() {
            self.stats.windowed += 1;
            return profile;
        }
        self.stats.rejected += 1;
        MergeProfile::of(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(xs: &[f64]) -> Vec<Point<1>> {
        xs.iter().map(|&x| Point::new([x])).collect()
    }

    #[test]
    fn fewer_than_two_points_go_cold() {
        let mut wk = WindowedKruskal::new();
        for pts in [line(&[]), line(&[3.0])] {
            assert_eq!(wk.critical_range(&pts, Some(1.0), Some(1.0)), 0.0);
            assert_eq!(
                wk.merge_profile(&pts, Some(1.0), Some(1.0)),
                MergeProfile::of(&pts)
            );
        }
        assert_eq!(
            wk.stats(),
            WindowStats {
                cold: 4,
                ..WindowStats::default()
            }
        );
    }

    #[test]
    fn two_points() {
        let pts = line(&[0.0, 5.0]);
        let mut wk = WindowedKruskal::new();
        assert_eq!(wk.critical_range(&pts, Some(4.0), Some(2.0)), 5.0);
        assert_eq!(
            wk.merge_profile(&pts, Some(4.0), Some(2.0)),
            MergeProfile::of(&pts)
        );
        assert_eq!(wk.stats().windowed, 2);
    }

    #[test]
    fn all_duplicate_points() {
        let pts = vec![Point::new([2.0, 2.0]); 5];
        let mut wk = WindowedKruskal::new();
        // lo <= 0: nothing is below it and the band [0, hi²] holds
        // every (zero-length) pair.
        assert_eq!(wk.critical_range(&pts, Some(0.5), Some(1.0)), 0.0);
        assert_eq!(
            wk.merge_profile(&pts, Some(0.0), Some(0.0)),
            MergeProfile::of(&pts)
        );
        assert_eq!(wk.stats().windowed, 2);
        // A positive lo puts every pair below it: the graph is
        // connected before the band, so check 1 rejects the window.
        assert_eq!(wk.critical_range(&pts, Some(3.0), Some(1.0)), 0.0);
        assert_eq!(wk.stats().rejected, 1);
    }

    #[test]
    fn bottleneck_exactly_at_lo_is_in_the_band() {
        // Gaps 1, 3, 2: the bottleneck is 3 = lo for c' = 4, s = 1.
        let pts = line(&[0.0, 1.0, 4.0, 6.0]);
        let mut wk = WindowedKruskal::new();
        assert_eq!(wk.critical_range(&pts, Some(4.0), Some(1.0)), 3.0);
        assert_eq!(wk.stats().windowed, 1);
    }

    #[test]
    fn bottleneck_exactly_at_hi_is_in_the_band() {
        // The bottleneck is 3 = hi for c' = 2, s = 1.
        let pts = line(&[0.0, 1.0, 4.0, 6.0]);
        let mut wk = WindowedKruskal::new();
        assert_eq!(wk.critical_range(&pts, Some(2.0), Some(1.0)), 3.0);
        assert_eq!(wk.stats().windowed, 1);
        // Reach exactly 3 still holds the connecting pair.
        assert_eq!(
            wk.merge_profile(&pts, Some(2.0), Some(1.0)),
            MergeProfile::of(&pts)
        );
        assert_eq!(wk.stats().windowed, 2);
    }

    #[test]
    fn lattice_ties_at_both_window_edges() {
        // A 4 x 4 unit lattice: every nearest-neighbour pair ties at
        // d² = 1, the bottleneck. With c' = 1 and s = 0, lo² = hi² = 1
        // and the whole tie class sits on both edges at once.
        let pts: Vec<Point<2>> = (0..16)
            .map(|k| Point::new([(k % 4) as f64, (k / 4) as f64]))
            .collect();
        let mut wk = WindowedKruskal::new();
        assert_eq!(wk.critical_range(&pts, Some(1.0), Some(0.0)), 1.0);
        let oracle = MergeProfile::of(&pts);
        assert_eq!(wk.merge_profile(&pts, Some(1.0), Some(0.0)), oracle);
        // Reach one ulp short of 1 misses the tie class: rejected, and
        // the fallback still returns the oracle's events.
        let short = 1.0 - f64::EPSILON / 2.0;
        assert_eq!(wk.merge_profile(&pts, Some(short), Some(0.0)), oracle);
        assert_eq!(wk.stats().windowed, 2);
        assert_eq!(wk.stats().rejected, 1);
    }

    #[test]
    fn wrong_windows_fall_back_to_the_oracle() {
        let pts = line(&[0.0, 1.0, 4.0, 6.0]);
        let mut wk = WindowedKruskal::new();
        // Window entirely below the answer: the band never connects.
        assert_eq!(wk.critical_range(&pts, Some(1.0), Some(0.5)), 3.0);
        // Window entirely above: connected before the band.
        assert_eq!(wk.critical_range(&pts, Some(10.0), Some(0.5)), 3.0);
        // NaN and negative drifts are wrong windows too, never wrong
        // answers.
        assert_eq!(wk.critical_range(&pts, Some(3.0), Some(f64::NAN)), 3.0);
        assert_eq!(wk.critical_range(&pts, Some(3.0), Some(-1.0)), 3.0);
        assert_eq!(
            wk.merge_profile(&pts, Some(1.0), Some(0.5)),
            MergeProfile::of(&pts)
        );
        assert_eq!(wk.stats().rejected, 5);
        assert_eq!(wk.stats().fallbacks(), 5);
    }
}
