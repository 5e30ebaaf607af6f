//! Exact counter literals for the step kernel's path mix.
//!
//! The registry proptests check every step against the rebuild oracle
//! and the path partition identity, but not *which* path served each
//! step or how much candidate work it did. These four seeded 2-D
//! trajectories pin the full `StepKernelMetrics` and `GridMetrics`
//! blocks as literals, each at two step-thread counts, so any kernel
//! restructuring that moves a step between paths (or changes a
//! candidate tally) fails here even when every snapshot stays exact:
//!
//! - `incremental`: 20 % of the nodes move per step, plus one
//!   zero-motion step (still an incremental step);
//! - `bulk`: every node moves, `Skin::Off` under a declared bound;
//! - `verlet`: every node moves, `Skin::Auto` under a declared bound,
//!   plus one zero-motion step (an empty verify step);
//! - `fallback`: partial, then all-moving steps, with one bound
//!   violation before the cache arms and one while it is armed.

use manet_geom::Point;
use manet_graph::{AdjacencyList, DynamicGraph, Skin};
use manet_obs::{GridMetrics, StepKernelMetrics};
use rand::{RngExt, SeedableRng};

const N: usize = 1000;
const SIDE: f64 = 300.0;
const RANGE: f64 = 15.0;
const STEPS: usize = 40;
const STEP_LEN: f64 = 0.4;
/// Per-step displacement bound for jitters of at most `STEP_LEN` on
/// each axis.
const BOUND: f64 = 0.5657;

/// How each step of a trajectory moves the nodes.
#[derive(Clone, Copy)]
enum Motion {
    /// Nodes `i` with `i % 5 == step % 5` jitter; the rest stay put.
    Fifth,
    /// Every node jitters.
    All,
    /// Nobody moves.
    Pause,
    /// Every node jitters and node 7 teleports across the region.
    AllWithTeleport,
    /// A fifth of the nodes jitter and node 7 teleports.
    FifthWithTeleport,
}

fn trajectory(seed: u64, plan: impl Fn(usize) -> Motion) -> Vec<Vec<Point<2>>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pts: Vec<Point<2>> = (0..N)
        .map(|_| Point::new([rng.random_range(0.0..SIDE), rng.random_range(0.0..SIDE)]))
        .collect();
    let mut out = vec![pts.clone()];
    for step in 0..STEPS {
        let motion = plan(step);
        for (i, p) in pts.iter_mut().enumerate() {
            let moves = match motion {
                Motion::Pause => false,
                Motion::All | Motion::AllWithTeleport => true,
                Motion::Fifth | Motion::FifthWithTeleport => i % 5 == step % 5,
            };
            if moves {
                let q = *p
                    + Point::new([
                        rng.random_range(-STEP_LEN..STEP_LEN),
                        rng.random_range(-STEP_LEN..STEP_LEN),
                    ]);
                *p = Point::new([q.coord(0).clamp(0.0, SIDE), q.coord(1).clamp(0.0, SIDE)]);
            }
        }
        if matches!(motion, Motion::AllWithTeleport | Motion::FifthWithTeleport) {
            let p = pts[7];
            pts[7] = Point::new([SIDE - p.coord(0), SIDE - p.coord(1)]);
        }
        out.push(pts.clone());
    }
    out
}

/// Replays the trajectory at 1 and 4 step threads, checks the final
/// snapshot against a from-scratch build, and returns the counters
/// after asserting they agree across the two thread counts.
fn replay(
    traj: &[Vec<Point<2>>],
    bound: Option<f64>,
    skin: Skin,
) -> (StepKernelMetrics, GridMetrics) {
    let run = |threads: usize| {
        let mut dg = DynamicGraph::new(&traj[0], SIDE, RANGE)
            .with_displacement_bound(bound)
            .with_step_threads(threads)
            .with_skin(skin);
        for pts in &traj[1..] {
            dg.step(pts);
        }
        let last = traj.last().expect("non-empty trajectory");
        assert_eq!(
            dg.graph(),
            &AdjacencyList::from_points(last, SIDE, RANGE),
            "{threads}-thread final snapshot"
        );
        (*dg.metrics(), *dg.grid_metrics().expect("grid exists"))
    };
    let serial = run(1);
    assert_eq!(run(4), serial, "counters differ across step threads");
    serial
}

#[test]
fn incremental_mix_counters_are_pinned() {
    let traj = trajectory(101, |step| {
        if step == 17 {
            Motion::Pause
        } else {
            Motion::Fifth
        }
    });
    let (kernel, grid) = replay(&traj, None, Skin::Auto);
    assert_eq!(
        kernel,
        StepKernelMetrics {
            steps: 40,
            incremental_steps: 40,
            bulk_rescan_steps: 0,
            fallback_steps: 0,
            moved_nodes: 7800,
            moved_rescan_candidates: 172957,
            bulk_rescan_candidates: 0,
            edges_added: 648,
            edges_removed: 681,
            cache_verify_steps: 0,
            cache_rebuilds: 0,
            cached_pairs: 0,
            verify_candidates: 0,
        }
    );
    assert_eq!(
        grid,
        GridMetrics {
            relocations: 40,
            nodes_moved: 7800,
            boundary_crossings: 159,
            cells_touched: 318,
            resets: 0,
        }
    );
}

#[test]
fn bulk_counters_are_pinned() {
    let traj = trajectory(202, |_| Motion::All);
    let (kernel, grid) = replay(&traj, Some(BOUND), Skin::Off);
    assert_eq!(
        kernel,
        StepKernelMetrics {
            steps: 40,
            incremental_steps: 0,
            bulk_rescan_steps: 40,
            fallback_steps: 0,
            moved_nodes: 40000,
            moved_rescan_candidates: 0,
            bulk_rescan_candidates: 892542,
            edges_added: 2576,
            edges_removed: 2516,
            cache_verify_steps: 0,
            cache_rebuilds: 0,
            cached_pairs: 0,
            verify_candidates: 0,
        }
    );
    assert_eq!(
        grid,
        GridMetrics {
            relocations: 0,
            nodes_moved: 0,
            boundary_crossings: 0,
            cells_touched: 14717,
            resets: 40,
        }
    );
}

#[test]
fn verlet_counters_are_pinned() {
    let traj = trajectory(303, |step| {
        if step == 23 {
            Motion::Pause
        } else {
            Motion::All
        }
    });
    let (kernel, grid) = replay(&traj, Some(BOUND), Skin::Auto);
    assert_eq!(
        kernel,
        StepKernelMetrics {
            steps: 40,
            incremental_steps: 0,
            bulk_rescan_steps: 6,
            fallback_steps: 0,
            moved_nodes: 39000,
            moved_rescan_candidates: 0,
            bulk_rescan_candidates: 229456,
            edges_added: 2654,
            edges_removed: 2638,
            cache_verify_steps: 34,
            cache_rebuilds: 6,
            cached_pairs: 36395,
            verify_candidates: 200170,
        }
    );
    assert_eq!(
        grid,
        GridMetrics {
            relocations: 0,
            nodes_moved: 0,
            boundary_crossings: 0,
            cells_touched: 1483,
            resets: 6,
        }
    );
}

#[test]
fn fallback_counters_are_pinned() {
    let traj = trajectory(404, |step| match step {
        4 => Motion::FifthWithTeleport,
        0..=7 => Motion::Fifth,
        25 => Motion::AllWithTeleport,
        _ => Motion::All,
    });
    let (kernel, grid) = replay(&traj, Some(BOUND), Skin::Auto);
    assert_eq!(
        kernel,
        StepKernelMetrics {
            steps: 40,
            incremental_steps: 7,
            bulk_rescan_steps: 5,
            fallback_steps: 2,
            moved_nodes: 33601,
            moved_rescan_candidates: 30877,
            bulk_rescan_candidates: 188172,
            edges_added: 2286,
            edges_removed: 2308,
            cache_verify_steps: 26,
            cache_rebuilds: 5,
            cached_pairs: 30430,
            verify_candidates: 158224,
        }
    );
    assert_eq!(
        grid,
        GridMetrics {
            relocations: 7,
            nodes_moved: 1400,
            boundary_crossings: 33,
            cells_touched: 1688,
            resets: 6,
        }
    );
}
