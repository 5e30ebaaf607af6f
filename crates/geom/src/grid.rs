//! Contract tests of the spatial index's one-shot pair query.
//!
//! A [`MovingCellGrid`](crate::MovingCellGrid) built on a frozen
//! placement and scanned over its whole lattice must list exactly the
//! pairs a brute-force `O(n²)` check finds, in every dimension the
//! models use, including the degenerate layouts (no points, a single
//! cell, points on the region's far boundary). The unit tests of the
//! incremental update and of sharded scans stay beside the index in
//! `moving_grid`.

#[cfg(test)]
mod tests {
    use crate::moving_grid::tests::{brute_force_pairs, scanned_pairs};
    use crate::{MovingCellGrid, Point};
    use rand::{RngExt, SeedableRng};

    #[test]
    fn build_validates() {
        let pts = [Point::new([0.5])];
        assert!(MovingCellGrid::build(&pts, 0.0, 1.0).is_err());
        assert!(MovingCellGrid::build(&pts, 1.0, 0.0).is_err());
        assert!(MovingCellGrid::build(&pts, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn empty_point_set() {
        let grid: MovingCellGrid<2> = MovingCellGrid::build(&[], 10.0, 1.0).unwrap();
        assert!(grid.is_empty());
        assert!(scanned_pairs(&grid, 1.0).is_empty());
    }

    #[test]
    fn cell_width_at_least_requested() {
        let pts = [Point::new([0.5, 0.5])];
        let grid = MovingCellGrid::build(&pts, 10.0, 3.0).unwrap();
        assert!(grid.cell_width() >= 3.0);
        assert_eq!(grid.cells_per_side(), 3);
    }

    #[test]
    fn tiny_region_single_cell() {
        let pts = [Point::new([0.1]), Point::new([0.9])];
        let grid = MovingCellGrid::build(&pts, 1.0, 5.0).unwrap();
        assert_eq!(grid.cells_per_side(), 1);
        assert_eq!(scanned_pairs(&grid, 1.0), vec![(0, 1)]);
    }

    #[test]
    fn pairs_match_brute_force_2d() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..20 {
            let n = 50 + trial;
            let pts: Vec<Point<2>> = (0..n)
                .map(|_| Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]))
                .collect();
            let r = rng.random_range(2.0..15.0);
            let grid = MovingCellGrid::build(&pts, 100.0, r).unwrap();
            assert_eq!(
                scanned_pairs(&grid, r),
                brute_force_pairs(&pts, r),
                "trial {trial} r={r}"
            );
        }
    }

    #[test]
    fn pairs_match_brute_force_1d_and_3d() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pts1: Vec<Point<1>> = (0..200)
            .map(|_| Point::new([rng.random_range(0.0..50.0)]))
            .collect();
        let grid1 = MovingCellGrid::build(&pts1, 50.0, 2.0).unwrap();
        assert_eq!(scanned_pairs(&grid1, 2.0), brute_force_pairs(&pts1, 2.0));

        let pts3: Vec<Point<3>> = (0..100)
            .map(|_| {
                Point::new([
                    rng.random_range(0.0..20.0),
                    rng.random_range(0.0..20.0),
                    rng.random_range(0.0..20.0),
                ])
            })
            .collect();
        let grid3 = MovingCellGrid::build(&pts3, 20.0, 4.0).unwrap();
        assert_eq!(scanned_pairs(&grid3, 4.0), brute_force_pairs(&pts3, 4.0));
    }

    #[test]
    fn points_on_boundary_are_indexed() {
        let pts = vec![
            Point::new([0.0, 0.0]),
            Point::new([10.0, 10.0]),
            Point::new([9.0, 10.0]),
        ];
        let grid = MovingCellGrid::build(&pts, 10.0, 1.0).unwrap();
        assert_eq!(grid.len(), 3);
        // The corner point at side = 10 is clamped into the last cell,
        // where the scan still finds its neighbor exactly 1 away.
        let mut cand = Vec::new();
        grid.for_each_candidate(&pts[1], |j| cand.push(j));
        cand.sort_unstable();
        assert_eq!(cand, vec![1, 2]);
        assert_eq!(scanned_pairs(&grid, 1.0), vec![(1, 2)]);
    }
}
