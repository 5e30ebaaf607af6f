//! Property tests: the delta-stream recorder agrees with a
//! from-scratch oracle that recomputes every temporal metric from the
//! full per-step edge sets, and bit for bit with a reference fold that
//! keeps its link state in two ordered maps.

use manet_geom::{Point, Region};
use manet_graph::{AdjacencyList, ComponentSummary, DynamicComponents, DynamicGraph, EdgeDiff};
use manet_trace::{IntervalAccumulator, TemporalRecord, TraceRecorder, TraceSummary};
use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const SIDE: f64 = 50.0;

/// Chunks a flat coordinate stream into a trajectory of `n`-node steps.
fn trajectory(n: usize, flat: &[(f64, f64)]) -> Vec<Vec<Point<2>>> {
    flat.chunks_exact(n)
        .map(|c| c.iter().map(|&(x, y)| Point::new([x, y])).collect())
        .collect()
}

/// Oracle: recompute lifetimes/inter-contacts/outages/isolation by
/// scanning full edge sets per step, no deltas involved.
struct Oracle {
    lifetimes: Vec<usize>,
    lifetimes_censored: usize,
    intercontacts: Vec<usize>,
    outages: Vec<usize>,
    connected_steps: usize,
    isolation_spells: Vec<usize>,
    isolation_censored: usize,
    time_to_repair: Option<usize>,
}

fn oracle(steps: &[Vec<Point<2>>], r: f64) -> Oracle {
    let n = steps[0].len();
    let graphs: Vec<AdjacencyList> = steps
        .iter()
        .map(|pts| AdjacencyList::from_points_brute_force(pts, r))
        .collect();
    let edge_sets: Vec<BTreeSet<(usize, usize)>> =
        graphs.iter().map(|g| g.edges().collect()).collect();

    let mut lifetimes = Vec::new();
    let mut lifetimes_censored = 0;
    let mut intercontacts = Vec::new();
    // Per-pair up/down scan.
    for a in 0..n {
        for b in (a + 1)..n {
            let series: Vec<bool> = edge_sets.iter().map(|s| s.contains(&(a, b))).collect();
            let mut run_start = 0usize;
            for t in 1..=series.len() {
                if t == series.len() || series[t] != series[t - 1] {
                    let len = t - run_start;
                    if series[t - 1] {
                        if t == series.len() {
                            lifetimes_censored += 1;
                        } else {
                            lifetimes.push(len);
                        }
                    } else if run_start > 0 && t < series.len() {
                        // A completed gap between two contacts.
                        intercontacts.push(len);
                    }
                    run_start = t;
                }
            }
        }
    }

    // Connectivity episodes.
    let connected: Vec<bool> = graphs
        .iter()
        .map(|g| ComponentSummary::of(g).is_connected())
        .collect();
    let mut outages = Vec::new();
    let mut time_to_repair = None;
    let mut run_start = 0usize;
    for t in 1..=connected.len() {
        if t == connected.len() || connected[t] != connected[t - 1] {
            if !connected[t - 1] && t < connected.len() {
                outages.push(t - run_start);
                if time_to_repair.is_none() {
                    time_to_repair = Some(t - run_start);
                }
            }
            run_start = t;
        }
    }

    // Isolation spells.
    let mut isolation_spells = Vec::new();
    let mut isolation_censored = 0;
    for i in 0..n {
        let series: Vec<bool> = graphs.iter().map(|g| g.degree(i) == 0).collect();
        let mut run_start = 0usize;
        for t in 1..=series.len() {
            if t == series.len() || series[t] != series[t - 1] {
                if series[t - 1] {
                    if t == series.len() {
                        isolation_censored += 1;
                    } else {
                        isolation_spells.push(t - run_start);
                    }
                }
                run_start = t;
            }
        }
    }

    Oracle {
        lifetimes,
        lifetimes_censored,
        intercontacts,
        outages,
        connected_steps: connected.iter().filter(|&&c| c).count(),
        isolation_spells,
        isolation_censored,
        time_to_repair,
    }
}

fn record(steps: &[Vec<Point<2>>], r: f64) -> manet_trace::TemporalRecord {
    let mut dg = DynamicGraph::new(&steps[0], SIDE, r);
    let mut rec = TraceRecorder::new(steps[0].len(), steps.len());
    rec.observe(&dg.initial_diff(), dg.graph());
    for pts in &steps[1..] {
        let diff = dg.advance(pts);
        rec.observe(&diff, dg.graph());
    }
    rec.finish()
}

fn mean(xs: &[usize]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<usize>() as f64 / xs.len() as f64)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recorder_matches_full_rescan_oracle(
        n in 2usize..10,
        flat in prop::collection::vec((0.0..SIDE, 0.0..SIDE), 30..240),
        r in 3.0..25.0f64,
    ) {
        let steps = trajectory(n, &flat);
        prop_assume!(steps.len() >= 2);
        let got = record(&steps, r);
        let want = oracle(&steps, r);

        prop_assert_eq!(got.lifetimes.count() as usize, want.lifetimes.len());
        prop_assert_eq!(got.lifetimes.censored() as usize, want.lifetimes_censored);
        prop_assert_eq!(got.intercontacts.count() as usize, want.intercontacts.len());
        prop_assert_eq!(got.outages.count() as usize, want.outages.len());
        prop_assert_eq!(got.isolation.count() as usize, want.isolation_spells.len());
        prop_assert_eq!(got.isolation.censored() as usize, want.isolation_censored);
        prop_assert_eq!(got.connected_steps, want.connected_steps);
        prop_assert_eq!(got.time_to_repair, want.time_to_repair);

        for (label, got_mean, want_mean) in [
            ("lifetime", got.lifetimes.mean(), mean(&want.lifetimes)),
            ("intercontact", got.intercontacts.mean(), mean(&want.intercontacts)),
            ("outage", got.outages.mean(), mean(&want.outages)),
            ("isolation", got.isolation.mean(), mean(&want.isolation_spells)),
        ] {
            match (got_mean, want_mean) {
                (None, None) => {}
                (Some(g), Some(w)) => prop_assert!(
                    (g - w).abs() < 1e-9,
                    "{} mean: recorder {} oracle {}", label, g, w
                ),
                other => prop_assert!(false, "{} mean mismatch: {:?}", label, other),
            }
        }
    }

    #[test]
    fn availability_bounds_and_aggregation(
        n in 2usize..8,
        flat in prop::collection::vec((0.0..SIDE, 0.0..SIDE), 16..160),
        r in 3.0..30.0f64,
    ) {
        let steps = trajectory(n, &flat);
        prop_assume!(!steps.is_empty());
        let rec = record(&steps, r);
        prop_assert!((0.0..=1.0).contains(&rec.availability));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&rec.path_availability));
        // Path availability dominates the connectivity indicator.
        prop_assert!(rec.path_availability >= rec.availability - 1e-12);
        // Every up event is accounted for exactly once.
        prop_assert_eq!(
            rec.link_up_events,
            rec.lifetimes.count() + rec.lifetimes.censored()
        );
        prop_assert_eq!(
            rec.link_down_events,
            rec.intercontacts.count() + rec.intercontacts.censored()
        );
        // Aggregating the single record reproduces its headline values.
        let availability = rec.availability;
        let s = TraceSummary::aggregate(&[rec]).unwrap();
        prop_assert_eq!(s.availability, availability);
        prop_assert_eq!(s.iterations, 1);
    }
}

/// Reference fold: the recorder's per-step logic with its link state in
/// two ordered maps (open up-intervals and open contact gaps, keyed by
/// the packed pair). The recorder must reproduce its record exactly.
struct ReferenceFold {
    nodes: usize,
    steps_seen: usize,
    up_since: BTreeMap<u64, usize>,
    down_since: BTreeMap<u64, usize>,
    isolated_since: Vec<Option<usize>>,
    lifetimes: IntervalAccumulator,
    intercontacts: IntervalAccumulator,
    isolation: IntervalAccumulator,
    outages: IntervalAccumulator,
    link_up_events: u64,
    link_down_events: u64,
    peak_churn: usize,
    connected_steps: usize,
    path_connectivity_sum: f64,
    down_run_start: Option<usize>,
    first_disconnect_at: Option<usize>,
    time_to_repair: Option<usize>,
}

impl ReferenceFold {
    fn new(nodes: usize, steps: usize) -> Self {
        ReferenceFold {
            nodes,
            steps_seen: 0,
            up_since: BTreeMap::new(),
            down_since: BTreeMap::new(),
            isolated_since: vec![None; nodes],
            lifetimes: IntervalAccumulator::new(steps),
            intercontacts: IntervalAccumulator::new(steps),
            isolation: IntervalAccumulator::new(steps),
            outages: IntervalAccumulator::new(steps),
            link_up_events: 0,
            link_down_events: 0,
            peak_churn: 0,
            connected_steps: 0,
            path_connectivity_sum: 0.0,
            down_run_start: None,
            first_disconnect_at: None,
            time_to_repair: None,
        }
    }

    /// Pairs ever linked (each sits in exactly one of the two maps).
    fn pairs_ever_linked(&self) -> usize {
        self.up_since.len() + self.down_since.len()
    }

    fn observe(&mut self, diff: &EdgeDiff, graph: &AdjacencyList, components: &DynamicComponents) {
        let t = self.steps_seen;
        let key = |a: u32, b: u32| ((a as u64) << 32) | b as u64;
        for &(a, b) in &diff.removed {
            if let Some(up) = self.up_since.remove(&key(a, b)) {
                self.lifetimes.record(t - up);
            }
            self.down_since.insert(key(a, b), t);
            self.link_down_events += 1;
        }
        for &(a, b) in &diff.added {
            if let Some(down) = self.down_since.remove(&key(a, b)) {
                self.intercontacts.record(t - down);
            }
            self.up_since.insert(key(a, b), t);
            self.link_up_events += 1;
        }
        if t > 0 {
            self.peak_churn = self.peak_churn.max(diff.churn());
        }
        for i in 0..self.nodes {
            let isolated = graph.degree(i) == 0;
            match (self.isolated_since[i], isolated) {
                (None, true) => self.isolated_since[i] = Some(t),
                (Some(since), false) => {
                    self.isolation.record(t - since);
                    self.isolated_since[i] = None;
                }
                _ => {}
            }
        }
        self.path_connectivity_sum += if self.nodes < 2 {
            1.0
        } else {
            let n = self.nodes as u64;
            components.ordered_reachable_pairs() as f64 / (n * (n - 1)) as f64
        };
        if components.is_connected() {
            self.connected_steps += 1;
            if let Some(start) = self.down_run_start.take() {
                self.outages.record(t - start);
                if self.time_to_repair.is_none() {
                    self.time_to_repair = Some(t - start);
                }
            }
        } else if self.down_run_start.is_none() {
            self.down_run_start = Some(t);
            if self.first_disconnect_at.is_none() {
                self.first_disconnect_at = Some(t);
            }
        }
        self.steps_seen += 1;
    }

    fn finish(mut self) -> TemporalRecord {
        for _ in 0..self.up_since.len() {
            self.lifetimes.record_censored();
        }
        for _ in 0..self.down_since.len() {
            self.intercontacts.record_censored();
        }
        for _ in self.isolated_since.iter().flatten() {
            self.isolation.record_censored();
        }
        if self.down_run_start.is_some() {
            self.outages.record_censored();
        }
        let steps = self.steps_seen.max(1);
        TemporalRecord {
            nodes: self.nodes,
            steps: self.steps_seen,
            lifetimes: self.lifetimes,
            intercontacts: self.intercontacts,
            isolation: self.isolation,
            outages: self.outages,
            link_up_events: self.link_up_events,
            link_down_events: self.link_down_events,
            peak_churn: self.peak_churn,
            connected_steps: self.connected_steps,
            availability: self.connected_steps as f64 / steps as f64,
            path_availability: self.path_connectivity_sum / steps as f64,
            first_disconnect_at: self.first_disconnect_at,
            time_to_repair: self.time_to_repair,
            kernel: Default::default(),
        }
    }
}

/// Drives a seeded jitter-and-teleport trajectory (most steps move a
/// node by at most 4 units, ~1 in 20 re-places it uniformly, so pairs
/// both persist and re-contact) through the recorder and the reference
/// fold. Returns both records, the pairs ever linked and the link-table
/// growths.
fn record_against_reference(
    n: usize,
    steps: usize,
    r: f64,
    seed: u64,
) -> (TemporalRecord, TemporalRecord, usize, u32) {
    let region: Region<2> = Region::new(SIDE).expect("positive side");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pts = region.place_uniform(n, &mut rng);
    let mut dg = DynamicGraph::new(&pts, SIDE, r);
    let mut dc = DynamicComponents::new(n);
    let mut rec = TraceRecorder::new(n, steps);
    let initial_slots = rec.link_table_slots();
    let mut reference = ReferenceFold::new(n, steps);
    let diff = dg.initial_diff();
    dc.apply(&diff, dg.graph());
    rec.observe_with(&diff, dg.graph(), &dc);
    reference.observe(&diff, dg.graph(), &dc);
    for _ in 1..steps {
        for p in &mut pts {
            if rng.random_bool(0.05) {
                *p = region.sample_uniform(&mut rng);
            } else {
                let x = (p.coords()[0] + rng.random_range(-4.0..4.0)).clamp(0.0, SIDE);
                let y = (p.coords()[1] + rng.random_range(-4.0..4.0)).clamp(0.0, SIDE);
                *p = Point::new([x, y]);
            }
        }
        let diff = dg.advance(&pts);
        dc.apply(&diff, dg.graph());
        rec.observe_with(&diff, dg.graph(), &dc);
        reference.observe(&diff, dg.graph(), &dc);
    }
    let growths = (rec.link_table_slots() / initial_slots).trailing_zeros();
    let ever_linked = reference.pairs_ever_linked();
    (rec.finish(), reference.finish(), ever_linked, growths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn recorder_is_bit_identical_to_reference_fold(
        n in 12usize..17,
        steps in 60usize..160,
        r in 8.0..20.0f64,
        seed in any::<u64>(),
    ) {
        let (got, want, ever_linked, growths) = record_against_reference(n, steps, r, seed);
        prop_assert_eq!(&got, &want);
        // Small n, many steps: pairs re-contact, and the table (which
        // starts small) grows at least three times along the way.
        prop_assert!(got.intercontacts.count() > 0);
        prop_assert!(growths >= 3, "{} growths for {} pairs ever linked", growths, ever_linked);
    }
}

/// One hand-written step: removed edges, added edges, snapshot edges.
type HandStep<'a> = (&'a [(u32, u32)], &'a [(u32, u32)], &'a [(usize, usize)]);

/// Folds hand-written deltas through the recorder and the reference
/// fold.
fn replay_hand_deltas(n: usize, steps: &[HandStep<'_>]) {
    let mut rec = TraceRecorder::new(n, steps.len());
    let mut reference = ReferenceFold::new(n, steps.len());
    for &(removed, added, edges) in steps {
        let diff = EdgeDiff {
            added: added.to_vec(),
            removed: removed.to_vec(),
        };
        let mut graph = AdjacencyList::empty(n);
        for &(a, b) in edges {
            graph.add_edge(a, b);
        }
        let components = DynamicComponents::from_graph(&graph);
        rec.observe_with(&diff, &graph, &components);
        reference.observe(&diff, &graph, &components);
    }
    assert_eq!(rec.finish(), reference.finish());
}

#[test]
fn removal_without_open_up_interval_matches_reference() {
    // (0, 1) goes down without ever having come up, goes down again
    // (re-stamping its gap), then comes up: one inter-contact from the
    // second stamp.
    replay_hand_deltas(
        3,
        &[
            (&[(0, 1)], &[], &[]),
            (&[(0, 1)], &[], &[]),
            (&[], &[(0, 1)], &[(0, 1)]),
        ],
    );
}

#[test]
fn re_add_while_up_matches_reference() {
    // (1, 2) comes up at 0, is re-added at 1 (re-stamping its
    // up-interval) and goes down at 3: one lifetime from the re-stamp.
    replay_hand_deltas(
        3,
        &[
            (&[], &[(1, 2)], &[(1, 2)]),
            (&[], &[(1, 2)], &[(1, 2)]),
            (&[], &[], &[(1, 2)]),
            (&[(1, 2)], &[], &[]),
        ],
    );
}
