//! Slow, independent oracles for the output checks.
//!
//! Written here rather than borrowed from the library, so a later
//! library change cannot change the oracle with it.

use manet_core::geom::Point;

/// Disjoint-set forest with union by size.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut a: usize) -> usize {
        while self.parent[a] != a {
            self.parent[a] = self.parent[self.parent[a]];
            a = self.parent[a];
        }
        a
    }

    /// Merges the sets of `a` and `b`; returns whether they differed.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut a, mut b) = (self.find(a), self.find(b));
        if a == b {
            return false;
        }
        if self.size[a] < self.size[b] {
            std::mem::swap(&mut a, &mut b);
        }
        self.parent[b] = a;
        self.size[a] += self.size[b];
        true
    }
}

/// Squared distance, summed per axis as the library does.
fn distance_sq<const D: usize>(a: &Point<D>, b: &Point<D>) -> f64 {
    let (a, b) = (a.coords(), b.coords());
    let mut acc = 0.0;
    for i in 0..D {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// Every pair `(a, b)`, `a < b`, within `range`, in lexicographic
/// order: an all-pairs scan.
pub fn edges<const D: usize>(points: &[Point<D>], range: f64) -> Vec<(u32, u32)> {
    let r2 = range * range;
    let mut out = Vec::new();
    for a in 0..points.len() {
        for b in (a + 1)..points.len() {
            if distance_sq(&points[a], &points[b]) <= r2 {
                out.push((a as u32, b as u32));
            }
        }
    }
    out
}

/// Component count and largest component size of the graph on `n`
/// nodes with `edges`.
pub fn components(n: usize, edges: &[(u32, u32)]) -> (usize, usize) {
    let mut uf = UnionFind::new(n);
    let mut count = n;
    for &(a, b) in edges {
        if uf.union(a as usize, b as usize) {
            count -= 1;
        }
    }
    let largest = (0..n)
        .map(|i| {
            let root = uf.find(i);
            uf.size[root]
        })
        .max()
        .unwrap_or(0);
    (count, largest)
}

/// The critical range as the bottleneck of Kruskal over all pairs
/// sorted by distance: the largest pair distance the minimum spanning
/// tree needs. 0 for fewer than two points.
pub fn critical_range<const D: usize>(points: &[Point<D>]) -> f64 {
    let n = points.len();
    let mut pairs = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            pairs.push((distance_sq(&points[a], &points[b]), a, b));
        }
    }
    pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut uf = UnionFind::new(n);
    let mut joined = 1;
    for (d2, a, b) in pairs {
        if joined == n {
            break;
        }
        if uf.union(a, b) {
            joined += 1;
            if joined == n {
                return d2.sqrt();
            }
        }
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(xs: &[f64]) -> Vec<Point<1>> {
        xs.iter().map(|&x| Point::new([x])).collect()
    }

    #[test]
    fn edges_include_the_boundary() {
        let pts = line(&[0.0, 1.0, 3.0]);
        assert_eq!(edges(&pts, 1.0), vec![(0, 1)]);
        assert_eq!(edges(&pts, 2.0), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn components_count_and_largest() {
        assert_eq!(components(5, &[(0, 1), (1, 2)]), (3, 3));
        assert_eq!(components(3, &[]), (3, 1));
    }

    #[test]
    fn bottleneck_is_the_longest_tree_edge() {
        assert_eq!(critical_range(&line(&[0.0, 1.0, 4.0])), 3.0);
        assert_eq!(critical_range(&line(&[2.0])), 0.0);
    }
}
