//! In-memory span recording for the traced replay.
//!
//! Each thread of the replay owns a [`Tracer`]; worker tracers are
//! adopted into the main one after their threads join, so recording
//! takes no lock. Spans stay in memory until the run ends.

use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer (or a container such as an iteration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.dynamic.step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the replay's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the replay's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Engine iteration index, or sweep cell index in the sweep lane.
    pub cell: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. A disabled tracer runs the timed calls
/// without reading the clock (the set-up measurements use it).
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    cell: u32,
    current: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer whose spans carry `cell`.
    pub fn new(epoch: Instant, cell: u32) -> Self {
        Tracer {
            epoch,
            enabled: true,
            cell,
            current: NO_PARENT,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            // lint:allow(R2): an epoch the disabled tracer never reads
            ..Tracer::new(Instant::now(), 0)
        }
    }

    /// A fresh tracer for another thread or iteration: same epoch and
    /// enablement, spans carrying `cell`.
    pub fn child(&self, cell: u32) -> Tracer {
        Tracer {
            epoch: self.epoch,
            enabled: self.enabled,
            cell,
            current: NO_PARENT,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the currently open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.current,
            cell: self.cell,
        });
        self.current = id;
        id
    }

    /// Closes the span `id` returned by [`Tracer::enter`].
    pub fn exit(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        self.current = span.parent;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Appends the spans of another tracer (sharing this epoch), hanging
    /// its root spans under `parent`.
    pub fn adopt(&mut self, other: Tracer, parent: u32) {
        if !self.enabled {
            return;
        }
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + offset
            };
            s
        }));
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted samples; 0
/// for an empty sample.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Children that ran on other threads can make a
/// container's self time negative, so only leaf layers should use it.
pub fn self_times(spans: &[Span]) -> Vec<i128> {
    let mut own: Vec<i128> = spans.iter().map(|s| s.duration_ns() as i128).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.duration_ns() as i128;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_adoption_keep_parents() {
        let mut root = Tracer::new(Instant::now(), 0);
        let a = root.enter("campaign");
        let section = root.enter("sim.engine.run");
        let mut worker = root.child(3);
        let it = worker.enter("sim.engine.iteration");
        worker.time("mobility.step", || ());
        worker.exit(it);
        root.exit(section);
        root.adopt(worker, section);
        root.exit(a);
        let spans = root.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[3].cell, 3);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.time("mobility.step", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }
}
