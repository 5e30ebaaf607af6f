//! The per-trajectory event folder.
//!
//! A [`TraceRecorder`] consumes one trajectory's stream of edge deltas
//! (from [`manet_graph::DynamicGraph`]) plus the per-step snapshot, and
//! folds it into a [`TemporalRecord`]: link lifetimes, inter-contact
//! times, per-node isolation spells, connectivity episodes (partition
//! outages, time-to-repair) and path availability. All bookkeeping on
//! the edge stream is proportional to the number of *changed* edges,
//! which is what makes tracing cheap enough to run at every step.

use crate::intervals::IntervalAccumulator;
use manet_graph::{AdjacencyList, DynamicComponents, EdgeDiff};
use manet_obs::KernelMetrics;

/// Packs an undirected edge `(a, b)`, `a < b`, into one table key.
/// Never 0 (that would need `a == b == 0`), which frees 0 to mark an
/// empty [`LinkTable`] slot.
fn pair_key(a: u32, b: u32) -> u64 {
    debug_assert!(a < b, "edge endpoints must be ordered");
    ((a as u64) << 32) | b as u64
}

/// Top bit of a link-state word: set while the pair's link is up. The
/// low 31 bits are the step at which the current up- or down-interval
/// began.
const UP: u32 = 1 << 31;

/// Largest step a link-state word can stamp.
const MAX_STAMP: usize = (UP - 1) as usize;

/// Key of an empty [`LinkTable`] slot (no ordered pair packs to it).
const EMPTY: u64 = 0;

/// Slots a fresh [`LinkTable`] starts with (a power of two).
const MIN_SLOTS: usize = 16;

/// Open-addressing map from every pair ever linked to its open
/// interval: linear probing from a Fibonacci multiply-shift home slot,
/// capacity doubled before the load would pass 3/4. Two parallel
/// columns, 12 B per slot: `keys` (packed pair, [`EMPTY`] when free)
/// and `state` (start step, [`UP`] bit while linked). Entries are
/// never removed — a pair that goes down keeps its slot with the bit
/// cleared — and the table is never iterated outside rehashing, so
/// slot order cannot reach any output.
#[derive(Debug, Clone)]
struct LinkTable {
    keys: Vec<u64>,
    state: Vec<u32>,
    /// Occupied slots.
    len: usize,
}

impl LinkTable {
    fn new() -> Self {
        LinkTable {
            keys: vec![EMPTY; MIN_SLOTS],
            state: vec![0; MIN_SLOTS],
            len: 0,
        }
    }

    /// Home slot of `key`: the top `log2(slots)` bits of its Fibonacci
    /// hash.
    fn home(&self, key: u64) -> usize {
        let bits = self.keys.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Sets `key`'s state word to `word`, returning the previous word
    /// when the pair was already in the table.
    fn swap(&mut self, key: u64, word: u32) -> Option<u32> {
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(core::mem::replace(&mut self.state[i], word));
            }
            if k == EMPTY {
                break;
            }
            i = (i + 1) & mask;
        }
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            // Re-probe in the doubled table (load now <= 3/8).
            self.grow();
            return self.swap(key, word);
        }
        self.keys[i] = key;
        self.state[i] = word;
        self.len += 1;
        None
    }

    /// Doubles the capacity in place and re-places every entry from
    /// its new home. Entries not yet re-placed count as free slots (an
    /// entry swaps into one and the displaced entry is re-placed next),
    /// so a re-placed entry never moves again and every probe run it
    /// crossed stays occupied. Growing the two columns in place keeps
    /// the peak near the new size instead of old plus new. Walking the
    /// old slots from the top down means a new home (about twice the
    /// old one) almost always lies in already-settled slots, so swaps
    /// are rare.
    fn grow(&mut self) {
        let old = self.keys.len();
        let mask = 2 * old - 1;
        self.keys.resize(2 * old, EMPTY);
        self.state.resize(2 * old, 0);
        let mut pending: Vec<bool> = self.keys.iter().map(|&k| k != EMPTY).collect();
        for i in (0..old).rev() {
            while pending[i] {
                // Slot i itself is pending, so the scan stops by then.
                let mut t = self.home(self.keys[i]);
                while self.keys[t] != EMPTY && !pending[t] {
                    t = (t + 1) & mask;
                }
                if t != i {
                    self.keys.swap(i, t);
                    self.state.swap(i, t);
                    pending.swap(i, t);
                }
                pending[t] = false;
            }
        }
    }

    /// Slots in the table.
    fn slots(&self) -> usize {
        self.keys.len()
    }
}

/// Fraction of ordered node pairs connected by some path: the paper's
/// per-step connectivity indicator refined to a `[0, 1]` measure
/// (1 iff connected). Networks with fewer than two nodes count as
/// fully path-available.
fn pair_connectivity(components: &DynamicComponents, n: usize) -> f64 {
    if n < 2 {
        return 1.0;
    }
    components.ordered_reachable_pairs() as f64 / (n as u64 * (n as u64 - 1)) as f64
}

/// Folds one trajectory's link events and connectivity episodes into
/// temporal metrics.
///
/// Drive it with [`TraceRecorder::observe`] once per step — the step-0
/// delta is the initial snapshot's edges reported as added (see
/// [`manet_graph::DynamicGraph::initial_diff`]) — then call
/// [`TraceRecorder::finish`].
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::DynamicGraph;
/// use manet_trace::TraceRecorder;
///
/// let steps = vec![
///     vec![Point::new([0.0]), Point::new([1.0])], // linked
///     vec![Point::new([0.0]), Point::new([5.0])], // apart
///     vec![Point::new([0.0]), Point::new([1.0])], // linked again
/// ];
/// let mut dg = DynamicGraph::new(&steps[0], 10.0, 2.0);
/// let mut rec = TraceRecorder::new(2, steps.len());
/// rec.observe(&dg.initial_diff(), dg.graph());
/// for pts in &steps[1..] {
///     let diff = dg.advance(pts);
///     rec.observe(&diff, dg.graph());
/// }
/// let record = rec.finish();
/// assert_eq!(record.lifetimes.count(), 1);      // one completed lifetime
/// assert_eq!(record.intercontacts.count(), 1);  // one reconnection
/// assert_eq!(record.time_to_repair, Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    nodes: usize,
    steps_seen: usize,
    /// Every pair ever linked -> its open up-interval or contact gap.
    links: LinkTable,
    /// Pairs whose link is up (open up-intervals).
    open_up: usize,
    /// Pairs once linked and now down (open contact gaps).
    open_down: usize,
    /// Open isolation spells, per node.
    isolated_since: Vec<Option<usize>>,
    lifetimes: IntervalAccumulator,
    intercontacts: IntervalAccumulator,
    isolation: IntervalAccumulator,
    outages: IntervalAccumulator,
    link_up_events: u64,
    link_down_events: u64,
    /// Largest single-step churn (added + removed edges) seen so far.
    peak_churn: usize,
    connected_steps: usize,
    path_connectivity_sum: f64,
    /// Step the current partition outage began (None while connected).
    down_run_start: Option<usize>,
    first_disconnect_at: Option<usize>,
    time_to_repair: Option<usize>,
    /// Incremental component summary maintained by [`TraceRecorder::observe`]
    /// for standalone (non-stream) drivers; `None` until first use.
    /// [`TraceRecorder::observe_with`] clears it, so `observe` can
    /// detect (and refuse) resuming from state that missed a delta.
    components: Option<DynamicComponents>,
    /// The driving kernel's cumulative counters, overwritten per step
    /// via [`TraceRecorder::set_kernel_metrics`]; zero when the driver
    /// reports none (standalone recorder use).
    kernel: KernelMetrics,
}

impl TraceRecorder {
    /// Creates a recorder for `nodes` nodes observed over `steps`
    /// mobility steps (the horizon fixes histogram geometry so records
    /// from parallel iterations merge).
    pub fn new(nodes: usize, steps: usize) -> Self {
        TraceRecorder {
            nodes,
            steps_seen: 0,
            links: LinkTable::new(),
            open_up: 0,
            open_down: 0,
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
            components: None,
            kernel: KernelMetrics::default(),
        }
    }

    /// Records the driving kernel's *cumulative* deterministic
    /// counters as of the step just observed. Call once per step with
    /// the stream's latest roll-up (see `LinkView::kernel_metrics` in
    /// `manet-sim`) — each call overwrites the previous one, so
    /// [`TraceRecorder::finish`] carries the trajectory's totals into
    /// the [`TemporalRecord`]. Never calling it leaves the record's
    /// counters zero (standalone recorder use).
    pub fn set_kernel_metrics(&mut self, kernel: &KernelMetrics) {
        self.kernel = *kernel;
    }

    /// Folds in one step: the edge delta that produced `graph` from
    /// the previous snapshot, plus the snapshot itself (for degrees
    /// and components). Maintains an internal [`DynamicComponents`]
    /// under the delta stream — no per-step relabeling. Drivers that
    /// already maintain components (the `manet-sim` connectivity
    /// stream) should call [`TraceRecorder::observe_with`] instead to
    /// avoid the duplicate apply.
    ///
    /// # Panics
    ///
    /// Panics when `graph` has a different node count than the
    /// recorder was created with, or when the recorder was previously
    /// driven through [`TraceRecorder::observe_with`] — the internal
    /// component state would have missed those deltas, so the two
    /// entry points must not be mixed on one recorder.
    pub fn observe(&mut self, diff: &EdgeDiff, graph: &AdjacencyList) {
        assert!(
            self.steps_seen == 0 || self.components.is_some(),
            "observe() cannot follow observe_with(): internal components missed earlier deltas"
        );
        let mut components = self
            .components
            .take()
            .unwrap_or_else(|| DynamicComponents::new(self.nodes));
        components.apply(diff, graph);
        self.observe_with(diff, graph, &components);
        self.components = Some(components);
    }

    /// Folds in one step using a caller-maintained component summary
    /// (which must already reflect `diff` applied onto `graph`).
    ///
    /// # Panics
    ///
    /// Panics when `graph` or `components` has a different node count
    /// than the recorder was created with.
    pub fn observe_with(
        &mut self,
        diff: &EdgeDiff,
        graph: &AdjacencyList,
        components: &DynamicComponents,
    ) {
        // Drop any internal component state: it has not seen this
        // delta, so a later `observe` must not resume from it (its
        // guard refuses once this is None past step 0). `observe`
        // itself restores its state right after delegating here.
        self.components = None;
        assert_eq!(graph.len(), self.nodes, "node count changed mid-trace");
        assert_eq!(components.len(), self.nodes, "component summary mismatch");
        let t = self.steps_seen;
        assert!(t <= MAX_STAMP, "step {t} overflows the 31-bit link stamp");
        let stamp = t as u32;

        // Link events — one table lookup per changed edge. A removal
        // closes an open up-interval (if any) and opens a contact gap;
        // an addition closes an open gap (if any) and opens an
        // up-interval. Re-stamping a pair already in the target state
        // drops its old start, as a map insert would.
        for &(a, b) in &diff.removed {
            match self.links.swap(pair_key(a, b), stamp) {
                Some(word) if word & UP != 0 => {
                    self.lifetimes.record(t - (word & !UP) as usize);
                    self.open_up -= 1;
                    self.open_down += 1;
                }
                Some(_) => {}
                None => self.open_down += 1,
            }
            self.link_down_events += 1;
        }
        for &(a, b) in &diff.added {
            match self.links.swap(pair_key(a, b), UP | stamp) {
                Some(word) if word & UP == 0 => {
                    self.intercontacts.record(t - word as usize);
                    self.open_down -= 1;
                    self.open_up += 1;
                }
                Some(_) => {}
                None => self.open_up += 1,
            }
            self.link_up_events += 1;
        }
        // Peak link-dynamics intensity. Step 0's delta is the whole
        // initial snapshot reported as added (`initial_diff`) — that's
        // placement, not dynamics, so it is excluded from the peak
        // (unlike the event totals, which the docs define as including
        // the initial edges).
        if t > 0 {
            self.peak_churn = self.peak_churn.max(diff.churn());
        }

        // Isolation spells (degree-0 runs per node).
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

        // Connectivity episodes and path availability, read off the
        // incrementally-maintained components.
        let connected = components.is_connected();
        self.path_connectivity_sum += pair_connectivity(components, self.nodes);
        if connected {
            self.connected_steps += 1;
            if let Some(start) = self.down_run_start.take() {
                let outage = t - start;
                self.outages.record(outage);
                if self.time_to_repair.is_none() {
                    self.time_to_repair = Some(outage);
                }
            }
        } else if self.down_run_start.is_none() {
            self.down_run_start = Some(t);
            if self.first_disconnect_at.is_none() {
                self.first_disconnect_at = Some(t);
            }
        }

        self.steps_seen += 1;
        #[cfg(feature = "strict-invariants")]
        self.debug_validate(graph);
    }

    /// Link-table coherence after a step: the open up-intervals are
    /// exactly the snapshot's edges, every occupied slot holds one open
    /// interval, and the load is within 3/4. `O(slots)` —
    /// strict-invariants builds only.
    #[cfg(feature = "strict-invariants")]
    fn debug_validate(&self, graph: &AdjacencyList) {
        debug_assert_eq!(
            self.open_up,
            graph.edge_count(),
            "strict-invariants: open up-intervals disagree with the snapshot's edge count"
        );
        let occupied = self.links.keys.iter().filter(|&&k| k != EMPTY).count();
        debug_assert_eq!(
            self.open_up + self.open_down,
            occupied,
            "strict-invariants: open intervals disagree with the occupied link slots"
        );
        debug_assert!(
            occupied * 4 <= self.links.slots() * 3,
            "strict-invariants: link table load {occupied}/{} exceeds 3/4",
            self.links.slots()
        );
    }

    /// Slots in the recorder's link-state table: a capacity
    /// diagnostic (it doubles whenever the pairs ever linked would
    /// fill more than 3/4 of it), never an input to any metric.
    pub fn link_table_slots(&self) -> usize {
        self.links.slots()
    }

    /// Steps observed so far.
    pub fn steps_seen(&self) -> usize {
        self.steps_seen
    }

    /// Closes the trajectory: intervals still open are censored, and
    /// the accumulated metrics become a [`TemporalRecord`].
    pub fn finish(mut self) -> TemporalRecord {
        for _ in 0..self.open_up {
            self.lifetimes.record_censored();
        }
        for _ in 0..self.open_down {
            self.intercontacts.record_censored();
        }
        let open_isolation = self.isolated_since.iter().filter(|s| s.is_some()).count();
        for _ in 0..open_isolation {
            self.isolation.record_censored();
        }
        if self.down_run_start.is_some() {
            self.outages.record_censored();
        }
        let steps = self.steps_seen.max(1); // guard the zero-step degenerate case
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
            kernel: self.kernel,
        }
    }
}

/// One trajectory's temporal metrics, mergeable across iterations into
/// a [`crate::TraceSummary`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TemporalRecord {
    /// Node count.
    pub nodes: usize,
    /// Steps observed.
    pub steps: usize,
    /// Completed link lifetimes (up-interval lengths).
    pub lifetimes: IntervalAccumulator,
    /// Completed inter-contact times (down-interval lengths per pair).
    pub intercontacts: IntervalAccumulator,
    /// Completed per-node isolation spells (degree-0 runs).
    pub isolation: IntervalAccumulator,
    /// Completed partition outages (disconnected runs).
    pub outages: IntervalAccumulator,
    /// Total edge-up events (including the initial snapshot's edges).
    pub link_up_events: u64,
    /// Total edge-down events.
    pub link_down_events: u64,
    /// Largest single-step edge churn (added + removed links) over
    /// steps `t > 0` — the peak link-dynamics intensity of the
    /// trajectory. Step 0's delta (the initial placement's edges) is
    /// excluded: it measures density, not dynamics.
    pub peak_churn: usize,
    /// Steps whose graph was connected.
    pub connected_steps: usize,
    /// Fraction of steps connected.
    pub availability: f64,
    /// Mean fraction of node pairs joined by some path.
    pub path_availability: f64,
    /// Step of the first disconnection (`None` if never disconnected).
    pub first_disconnect_at: Option<usize>,
    /// Duration of the first outage, in steps (`None` if the network
    /// never disconnected, or never repaired within the horizon).
    pub time_to_repair: Option<usize>,
    /// The driving kernel's deterministic counter totals for this
    /// trajectory (all-zero when the driver never reported any, e.g.
    /// a standalone recorder outside the `manet-sim` stream).
    pub kernel: KernelMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_geom::Point;
    use manet_graph::DynamicGraph;

    /// Replays a 1-D trajectory through DynamicGraph into a recorder.
    fn record_trajectory(steps: &[Vec<f64>], range: f64) -> TemporalRecord {
        let pts =
            |xs: &Vec<f64>| -> Vec<Point<1>> { xs.iter().map(|&x| Point::new([x])).collect() };
        let first = pts(&steps[0]);
        let mut dg = DynamicGraph::new(&first, 100.0, range);
        let mut rec = TraceRecorder::new(first.len(), steps.len());
        rec.observe(&dg.initial_diff(), dg.graph());
        for xs in &steps[1..] {
            let diff = dg.advance(&pts(xs));
            rec.observe(&diff, dg.graph());
        }
        rec.finish()
    }

    #[test]
    fn static_connected_pair_has_one_censored_lifetime() {
        let record = record_trajectory(&[vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0]], 2.0);
        assert_eq!(record.lifetimes.count(), 0);
        assert_eq!(record.lifetimes.censored(), 1);
        assert_eq!(record.link_up_events, 1);
        assert_eq!(record.link_down_events, 0);
        assert_eq!(record.availability, 1.0);
        assert_eq!(record.path_availability, 1.0);
        assert_eq!(record.time_to_repair, None);
        assert_eq!(record.first_disconnect_at, None);
        assert_eq!(record.outages.count(), 0);
    }

    #[test]
    fn flapping_link_produces_lifetimes_and_intercontacts() {
        // Pair linked at t=0,1, apart at t=2,3, linked at t=4.
        let record = record_trajectory(
            &[
                vec![0.0, 1.0],
                vec![0.0, 1.0],
                vec![0.0, 50.0],
                vec![0.0, 50.0],
                vec![0.0, 1.0],
            ],
            2.0,
        );
        assert_eq!(record.lifetimes.count(), 1);
        assert_eq!(record.lifetimes.mean(), Some(2.0)); // up at 0, down at 2
        assert_eq!(record.intercontacts.count(), 1);
        assert_eq!(record.intercontacts.mean(), Some(2.0)); // down at 2, up at 4
        assert_eq!(record.lifetimes.censored(), 1); // final up interval open
                                                    // Outage structure: disconnected at t=2..3, repaired at t=4.
        assert_eq!(record.outages.count(), 1);
        assert_eq!(record.outages.mean(), Some(2.0));
        assert_eq!(record.time_to_repair, Some(2));
        assert_eq!(record.first_disconnect_at, Some(2));
        assert!((record.availability - 0.6).abs() < 1e-12);
    }

    #[test]
    fn isolation_spells_follow_degree_zero_runs() {
        // Node 2 starts isolated for 2 steps, then joins.
        let record = record_trajectory(
            &[
                vec![0.0, 1.0, 50.0],
                vec![0.0, 1.0, 50.0],
                vec![0.0, 1.0, 2.0],
            ],
            2.0,
        );
        assert_eq!(record.isolation.count(), 1);
        assert_eq!(record.isolation.mean(), Some(2.0));
        assert_eq!(record.isolation.censored(), 0);
        // Path availability: steps 0-1 have 2/6 of ordered pairs
        // reachable, step 2 has all.
        let expected = (2.0 / 6.0 + 2.0 / 6.0 + 1.0) / 3.0;
        assert!((record.path_availability - expected).abs() < 1e-12);
    }

    #[test]
    fn never_connected_network_has_censored_outage() {
        let record = record_trajectory(&[vec![0.0, 50.0], vec![0.0, 50.0]], 1.0);
        assert_eq!(record.availability, 0.0);
        assert_eq!(record.outages.count(), 0);
        assert_eq!(record.outages.censored(), 1);
        assert_eq!(record.first_disconnect_at, Some(0));
        assert_eq!(record.time_to_repair, None);
        // Both nodes isolated throughout: two censored spells.
        assert_eq!(record.isolation.censored(), 2);
    }

    #[test]
    fn single_node_network_is_trivially_available() {
        let record = record_trajectory(&[vec![5.0], vec![6.0]], 1.0);
        assert_eq!(record.availability, 1.0);
        assert_eq!(record.path_availability, 1.0);
        assert_eq!(record.link_up_events, 0);
    }

    #[test]
    fn zero_step_recorder_finishes_without_panicking() {
        let record = TraceRecorder::new(4, 10).finish();
        assert_eq!(record.steps, 0);
        assert_eq!(record.availability, 0.0);
        assert_eq!(record.lifetimes.count(), 0);
    }

    #[test]
    fn link_table_keeps_every_pair_across_growth() {
        let mut table = LinkTable::new();
        let pairs: Vec<u64> = (0..39u32)
            .flat_map(|a| (a + 1..39).map(move |b| pair_key(a, b)))
            .collect();
        for (i, &key) in pairs.iter().enumerate() {
            assert_eq!(table.swap(key, i as u32), None);
            assert!(table.len * 4 <= table.slots() * 3);
        }
        assert_eq!(table.len, pairs.len());
        // 741 pairs: past 3/4 of 512 slots, within 3/4 of 1024.
        assert_eq!(table.slots(), 1024);
        for (i, &key) in pairs.iter().enumerate() {
            assert_eq!(table.swap(key, UP | i as u32), Some(i as u32));
        }
        assert_eq!(table.len, pairs.len());
    }

    #[test]
    #[should_panic(expected = "overflows the 31-bit link stamp")]
    fn step_past_the_31_bit_stamp_panics_instead_of_wrapping() {
        let mut graph = AdjacencyList::empty(2);
        graph.add_edge(0, 1);
        let components = DynamicComponents::from_graph(&graph);
        let up = EdgeDiff {
            added: vec![(0, 1)],
            removed: Vec::new(),
        };
        let mut rec = TraceRecorder::new(2, 5);
        // The last representable step still folds…
        rec.steps_seen = MAX_STAMP;
        rec.observe_with(&up, &graph, &components);
        assert_eq!(rec.open_up, 1);
        // …the next one must refuse rather than wrap the stamp.
        rec.observe_with(&EdgeDiff::default(), &graph, &components);
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "strict-invariants: open up-intervals")]
    fn strict_invariants_catch_an_added_edge_missing_from_the_snapshot() {
        let graph = AdjacencyList::empty(2);
        let components = DynamicComponents::from_graph(&graph);
        let ghost = EdgeDiff {
            added: vec![(0, 1)],
            removed: Vec::new(),
        };
        TraceRecorder::new(2, 5).observe_with(&ghost, &graph, &components);
    }

    #[test]
    #[should_panic(expected = "node count changed")]
    fn observe_rejects_wrong_node_count() {
        let mut rec = TraceRecorder::new(3, 5);
        rec.observe(&EdgeDiff::default(), &AdjacencyList::empty(2));
    }

    #[test]
    fn event_counts_balance_interval_counts() {
        // Invariant: every up event either completes (a recorded
        // lifetime) or stays open (censored); same for down events and
        // inter-contacts.
        let record = record_trajectory(
            &[
                vec![0.0, 1.0, 3.0, 50.0],
                vec![0.0, 2.5, 3.0, 50.0],
                vec![0.0, 50.0, 3.0, 49.5],
                vec![0.0, 1.0, 3.0, 49.5],
            ],
            2.0,
        );
        assert_eq!(
            record.link_up_events,
            record.lifetimes.count() + record.lifetimes.censored()
        );
        assert_eq!(
            record.link_down_events,
            record.intercontacts.count() + record.intercontacts.censored()
        );
    }

    #[test]
    fn peak_churn_excludes_the_initial_placement() {
        // Step 0 brings up 3 links at once (placement density); the
        // only dynamics afterwards is one link flapping down then up.
        let record = record_trajectory(
            &[
                vec![0.0, 1.0, 2.0, 3.0], // 3 initial links
                vec![0.0, 1.0, 2.0, 9.0], // link 2-3 down
                vec![0.0, 1.0, 2.0, 3.0], // link 2-3 up
            ],
            1.5,
        );
        assert_eq!(record.link_up_events, 4); // 3 initial + 1 re-up
        assert_eq!(record.peak_churn, 1, "placement must not set the peak");

        // A static network has zero peak churn however dense it is.
        let still = record_trajectory(&[vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0]], 1.5);
        assert_eq!(still.peak_churn, 0);
    }

    #[test]
    #[should_panic(expected = "cannot follow observe_with")]
    fn mixing_observe_with_then_observe_panics() {
        let pts: Vec<Point<1>> = vec![Point::new([0.0]), Point::new([1.0])];
        let dg = DynamicGraph::new(&pts, 10.0, 2.0);
        let mut external = manet_graph::DynamicComponents::new(2);
        external.apply(&dg.initial_diff(), dg.graph());
        let mut rec = TraceRecorder::new(2, 5);
        rec.observe_with(&dg.initial_diff(), dg.graph(), &external);
        // The internal component state missed the first delta; folding
        // through `observe` now must be refused, not silently wrong.
        rec.observe(&EdgeDiff::default(), dg.graph());
    }

    #[test]
    #[should_panic(expected = "cannot follow observe_with")]
    fn interleaving_observe_with_between_observes_panics() {
        let pts: Vec<Point<1>> = vec![Point::new([0.0]), Point::new([1.0])];
        let dg = DynamicGraph::new(&pts, 10.0, 2.0);
        let mut external = manet_graph::DynamicComponents::new(2);
        external.apply(&dg.initial_diff(), dg.graph());
        let mut rec = TraceRecorder::new(2, 5);
        rec.observe(&dg.initial_diff(), dg.graph());
        // An interleaved external step invalidates the internal state…
        rec.observe_with(&EdgeDiff::default(), dg.graph(), &external);
        // …so resuming the internal path must panic, not drift.
        rec.observe(&EdgeDiff::default(), dg.graph());
    }
}
