//! The traced replay: each workload's campaign rebuilt from the public
//! layer functions, with a span around every call into a layer.
//!
//! It follows the library's loops step for step (the engine's seeding
//! and round-robin fan-out, the connectivity stream's build/step/apply
//! order, the bisection's probe order), so its outcome must equal the
//! library's bit for bit. It also snapshots a sample of steps for the
//! oracle checks, which run after the replay so they cost no span time.

use crate::campaign::Outcome;
use crate::oracle;
use crate::spans::{Span, Tracer};
use crate::workload::{CriticalScaling, Inputs, PaperFig, TraceDense, R_STATIONARY_QUANTILE};
use manet_core::geom::{Point, Region};
use manet_core::graph::{critical_range, DynamicComponents, DynamicGraph, MergeProfile};
use manet_core::mobility::Mobility;
use manet_core::obs::KernelMetrics;
use manet_core::sim::search::bisect_monotone;
use manet_core::sim::{
    CriticalPoint, CriticalRangeResults, CriticalRangeSearch, ProfileResults, RangeSizeProfile,
    SimConfig, SimError, StationaryAnalysis, SweepScheduler,
};
use manet_core::stats::{FrozenSeries, SeedSequence};
use manet_core::trace::{TraceRecorder, TraceSummary};
use manet_core::{AnyModel, CoreError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Oracle-checked steps per iteration (per probe in the sweep lane).
const SAMPLES_PER_ITERATION: usize = 10;

/// A step kept for the oracle checks.
#[derive(Debug, Clone)]
pub enum Snapshot {
    /// A critical range as the library computed it.
    Critical {
        /// Node positions at the step.
        positions: Vec<Point<2>>,
        /// The library's critical range.
        value: f64,
    },
    /// A fixed-range graph as the step kernel maintained it.
    Links {
        /// Node positions at the step.
        positions: Vec<Point<2>>,
        /// Transmitting range.
        range: f64,
        /// The kernel's edge set, `(a, b)` with `a < b`, sorted.
        edges: Vec<(u32, u32)>,
        /// Component count of the incremental components.
        count: usize,
        /// Largest component size of the incremental components.
        largest: usize,
    },
}

impl Snapshot {
    /// Compares the snapshot with the oracles; `Err` names the mismatch.
    pub fn check(&self) -> Result<(), String> {
        match self {
            Snapshot::Critical { positions, value } => {
                let expected = oracle::critical_range(positions);
                if expected.to_bits() == value.to_bits() {
                    Ok(())
                } else {
                    Err(format!("critical range {value} != oracle {expected}"))
                }
            }
            Snapshot::Links {
                positions,
                range,
                edges,
                count,
                largest,
            } => {
                let expected = oracle::edges(positions, *range);
                if &expected != edges {
                    return Err(format!(
                        "edge set differs from the all-pairs scan ({} vs {} edges)",
                        edges.len(),
                        expected.len()
                    ));
                }
                let (c, l) = oracle::components(positions.len(), &expected);
                if (c, l) != (*count, *largest) {
                    return Err(format!(
                        "components (count {count}, largest {largest}) != oracle ({c}, {l})"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Everything the traced replay produced.
#[derive(Debug)]
pub struct Replay {
    /// The replay's own outcome (must equal the library's).
    pub outcome: Outcome,
    /// All spans; index 0 is the `campaign` root.
    pub spans: Vec<Span>,
    /// Fan-out sections: `(span index, workers)`.
    pub sections: Vec<(u32, usize)>,
    /// Sampled steps for the oracle checks.
    pub snapshots: Vec<Snapshot>,
    /// Edge events (added + removed) seen by the trace recorder.
    pub trace_events: u64,
    /// Steps the trace recorder observed.
    pub trace_steps: u64,
    /// Worker tracers and their parent span, adopted after the root
    /// span closes so the bookkeeping costs no traced time.
    pending: Vec<(Tracer, u32)>,
}

/// What one iteration or sweep cell hands back to the fan-out.
struct Part<T> {
    value: T,
    snapshots: Vec<Snapshot>,
    events: u64,
    steps: u64,
}

impl<T> Part<T> {
    fn of(value: T) -> Self {
        Part {
            value,
            snapshots: Vec::new(),
            events: 0,
            steps: 0,
        }
    }
}

/// Whether `step` is one of the oracle-checked steps.
fn sampled(step: usize, steps: usize) -> bool {
    step.is_multiple_of((steps / SAMPLES_PER_ITERATION).max(1))
}

/// One trajectory, seeded as the engine seeds iteration `i`.
struct Walk {
    rng: StdRng,
    region: Region<2>,
    positions: Vec<Point<2>>,
    model: AnyModel<2>,
}

impl Walk {
    fn start(tr: &mut Tracer, config: &SimConfig<2>, model: &AnyModel<2>, i: usize) -> Walk {
        let mut rng = StdRng::seed_from_u64(SeedSequence::new(config.seed()).seed_for(i as u64));
        let region = config.region();
        let positions = tr.time("geom.place", || {
            region.place_uniform(config.nodes(), &mut rng)
        });
        let model = tr.time("mobility.init", || {
            let mut m = model.clone();
            m.init(&positions, &region, &mut rng);
            m
        });
        Walk {
            rng,
            region,
            positions,
            model,
        }
    }

    fn step(&mut self, tr: &mut Tracer) {
        tr.time("mobility.step", || {
            self.model
                .step(&mut self.positions, &self.region, &mut self.rng)
        });
    }
}

/// The connectivity stream's per-iteration state at one range.
struct Link {
    graph: DynamicGraph<2>,
    components: DynamicComponents,
}

impl Link {
    fn start(
        tr: &mut Tracer,
        config: &SimConfig<2>,
        model: &AnyModel<2>,
        walk: &Walk,
        range: f64,
    ) -> Link {
        let bound = model.max_step_displacement();
        let graph = tr.time("graph.dynamic.build", || {
            DynamicGraph::new(&walk.positions, config.side(), range)
                .with_displacement_bound(bound)
                .with_step_threads(config.step_threads().unwrap_or(1))
                .with_skin(config.skin())
        });
        let mut components = tr.time("graph.components.build", || {
            DynamicComponents::new(walk.positions.len())
        });
        tr.time("graph.components.apply", || {
            components.apply(graph.last_diff(), graph.graph())
        });
        Link { graph, components }
    }

    fn step(&mut self, tr: &mut Tracer, positions: &[Point<2>]) {
        tr.time("graph.dynamic.step", || self.graph.step(positions));
        tr.time("graph.components.apply", || {
            self.components
                .apply(self.graph.last_diff(), self.graph.graph())
        });
    }

    fn kernel(&self) -> KernelMetrics {
        KernelMetrics {
            grid: self.graph.grid_metrics().copied().unwrap_or_default(),
            step: *self.graph.metrics(),
            components: *self.components.metrics(),
        }
    }

    fn snapshot(&self, positions: &[Point<2>]) -> Snapshot {
        Snapshot::Links {
            positions: positions.to_vec(),
            range: self.graph.range(),
            edges: self
                .graph
                .graph()
                .edges()
                .map(|(a, b)| (a as u32, b as u32))
                .collect(),
            count: self.components.count(),
            largest: self.components.largest_size(),
        }
    }
}

/// Runs `iterations` with the engine's fan-out: `min(threads,
/// iterations)` workers, worker `t` taking iterations `t, t + w, …`.
fn fan_out<T: Send>(
    tr: &mut Tracer,
    replay: &mut Replay,
    threads: usize,
    iterations: usize,
    run: &(dyn Fn(usize, &mut Tracer) -> Part<T> + Sync),
) -> Vec<T> {
    let workers = threads.min(iterations).max(1);
    let proto = tr.child(0);
    let iteration = |i: usize| {
        let mut it = proto.child(i as u32);
        let id = it.enter("sim.engine.iteration");
        let part = run(i, &mut it);
        it.exit(id);
        (part, it)
    };
    let section = tr.enter("sim.engine.run");
    let mut parts: Vec<(usize, (Part<T>, Tracer))> = if workers == 1 {
        (0..iterations).map(|i| (i, iteration(i))).collect()
    } else {
        // lint:allow(R6): replays the engine's fan-out (round-robin iterations, outputs sorted by iteration index after the join), and every run checks the outcome bit-identical to the library's
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|t| {
                    let iteration = &iteration;
                    scope.spawn(move || {
                        (t..iterations)
                            .step_by(workers)
                            .map(|i| (i, iteration(i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                // lint:allow(R3): a worker panic must propagate, not be swallowed
                .flat_map(|h| h.join().expect("replay worker panicked"))
                .collect()
        })
    };
    tr.exit(section);
    parts.sort_by_key(|(i, _)| *i);
    absorb(
        replay,
        section,
        workers,
        parts.into_iter().map(|(_, part)| part),
    )
}

/// Replays the workload under a recording tracer.
///
/// # Errors
///
/// Propagates library errors.
pub fn run(inputs: &Inputs) -> Result<Replay, CoreError> {
    // lint:allow(R2): the benchmark's span clock; timings never feed the checked outcome
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut replay = Replay {
        outcome: Outcome::TraceDense {
            summaries: Vec::new(),
        },
        spans: Vec::new(),
        sections: Vec::new(),
        snapshots: Vec::new(),
        trace_events: 0,
        trace_steps: 0,
        pending: Vec::new(),
    };
    let root = tr.enter("campaign");
    replay.outcome = match inputs {
        Inputs::PaperFig(p) => paper_fig(&mut tr, &mut replay, p)?,
        Inputs::TraceDense(t) => trace_dense(&mut tr, &mut replay, t)?,
        Inputs::CriticalScaling(c) => critical_scaling(&mut tr, &mut replay, c)?,
    };
    tr.exit(root);
    for (worker, parent) in std::mem::take(&mut replay.pending) {
        tr.adopt(worker, parent);
    }
    replay.spans = tr.spans().to_vec();
    Ok(replay)
}

/// Records a fan-out section run by `workers` and collects its parts.
fn absorb<T>(
    replay: &mut Replay,
    section: u32,
    workers: usize,
    parts: impl Iterator<Item = (Part<T>, Tracer)>,
) -> Vec<T> {
    replay.sections.push((section, workers));
    parts
        .map(|(p, tracer)| {
            replay.snapshots.extend(p.snapshots);
            replay.trace_events += p.events;
            replay.trace_steps += p.steps;
            replay.pending.push((tracer, section));
            p.value
        })
        .collect()
}

fn paper_fig(tr: &mut Tracer, replay: &mut Replay, p: &PaperFig) -> Result<Outcome, CoreError> {
    let problem = tr.time("config.build", || p.problem())?;
    let config = problem.config();
    let rs = tr.time("sim.stationary.calibrate", || {
        StationaryAnalysis::run::<2>(p.nodes, p.side, p.placements, p.calibration_seed)
            .and_then(|a| a.r_stationary(R_STATIONARY_QUANTILE))
    })?;

    // `solve`: the critical range of every step.
    let parts = fan_out(tr, replay, p.threads, p.iterations, &|i, tr| {
        let mut walk = Walk::start(tr, config, &p.model, i);
        let mut series = Vec::with_capacity(config.steps());
        let mut snapshots = Vec::new();
        for step in 0..config.steps() {
            if step > 0 {
                walk.step(tr);
            }
            let c = tr.time("graph.mst.critical", || critical_range(&walk.positions));
            series.push(c);
            if sampled(step, config.steps()) {
                snapshots.push(Snapshot::Critical {
                    positions: walk.positions.clone(),
                    value: c,
                });
            }
        }
        Part {
            snapshots,
            ..Part::of(tr.time("sim.results", || FrozenSeries::new(series)))
        }
    });
    let series = parts.into_iter().collect::<Result<Vec<_>, _>>()?;

    // `component_profiles`: a merge profile every `stride` steps.
    let stride = config.profile_stride();
    let parts = fan_out(tr, replay, p.threads, p.iterations, &|i, tr| {
        let mut walk = Walk::start(tr, config, &p.model, i);
        let mut profile = RangeSizeProfile::new(
            config.nodes(),
            config.profile_max_range(),
            config.profile_bins(),
        );
        for step in 0..config.steps() {
            if step > 0 {
                walk.step(tr);
            }
            if step.is_multiple_of(stride) {
                let merge = tr.time("graph.merge.profile", || MergeProfile::of(&walk.positions));
                if let Ok(profile) = profile.as_mut() {
                    tr.time("sim.profile.accumulate", || profile.accumulate(&merge));
                }
            }
        }
        Part::of(profile)
    });
    let profiles = parts.into_iter().collect::<Result<Vec<_>, _>>()?;

    tr.time("sim.results", || {
        Outcome::paper_fig(
            rs,
            CriticalRangeResults::from_series(series),
            ProfileResults::from_profiles(profiles),
        )
    })
}

/// Hands one step to the trace recorder as the trace observer does.
fn observe(tr: &mut Tracer, recorder: &mut TraceRecorder, link: &Link) {
    tr.time("trace.observe", || {
        recorder.observe_with(link.graph.last_diff(), link.graph.graph(), &link.components);
        recorder.set_kernel_metrics(&link.kernel());
    });
}

fn trace_dense(tr: &mut Tracer, replay: &mut Replay, t: &TraceDense) -> Result<Outcome, CoreError> {
    let problem = tr.time("config.build", || t.problem())?;
    let config = problem.config();
    let mut summaries = Vec::new();
    for &range in &t.ranges {
        let records = fan_out(tr, replay, t.threads, t.iterations, &|i, tr| {
            let mut walk = Walk::start(tr, config, &t.model, i);
            let mut link = Link::start(tr, config, &t.model, &walk, range);
            let mut recorder = tr.time("trace.build", || {
                TraceRecorder::new(config.nodes(), config.steps())
            });
            let (mut snapshots, mut events) = (Vec::new(), 0);
            for step in 0..config.steps() {
                if step > 0 {
                    walk.step(tr);
                    link.step(tr, &walk.positions);
                }
                observe(tr, &mut recorder, &link);
                events += link.graph.last_diff().churn() as u64;
                if sampled(step, config.steps()) {
                    snapshots.push(link.snapshot(&walk.positions));
                }
            }
            Part {
                snapshots,
                events,
                steps: config.steps() as u64,
                ..Part::of(tr.time("trace.finish", || recorder.finish()))
            }
        });
        let summary = tr.time("trace.aggregate", || TraceSummary::aggregate(&records));
        summaries.push(summary.map_err(|e| CoreError::Sim(SimError::Trace(e)))?);
    }
    Ok(Outcome::TraceDense { summaries })
}

/// One cell's bisection, replaying `find_critical_range`: every probe
/// is a serial multi-iteration stream at the probed range.
fn bisect_cell(
    tr: &mut Tracer,
    config: &SimConfig<2>,
    model: &AnyModel<2>,
    target: f64,
    snapshots: &mut Vec<Snapshot>,
) -> CriticalPoint {
    let search = CriticalRangeSearch::new().with_target(target);
    let hi = config.region().diameter();
    let tol = search.rel_tol() * config.side();
    let (steps, nodes) = (config.steps(), config.nodes() as f64);
    let mut probes = 0;
    let mut kernel = KernelMetrics::default();
    let range = bisect_monotone(1e-9, hi, tol, |r| {
        let probe = tr.enter("sim.sweep.probe");
        let (mut sum, mut probe_kernel) = (0.0, KernelMetrics::default());
        for i in 0..config.iterations() {
            let it = tr.enter("sim.engine.iteration");
            let mut walk = Walk::start(tr, config, model, i);
            let mut link = Link::start(tr, config, model, &walk, r);
            let mut giant = 0.0;
            for step in 0..steps {
                if step > 0 {
                    walk.step(tr);
                    link.step(tr, &walk.positions);
                }
                giant += link.components.largest_size() as f64 / nodes;
                if i == 0 && sampled(step, steps) {
                    snapshots.push(link.snapshot(&walk.positions));
                }
            }
            sum += giant / steps as f64;
            probe_kernel.merge(&link.kernel());
            tr.exit(it);
        }
        probes += 1;
        kernel.merge(&probe_kernel);
        tr.exit(probe);
        sum / config.iterations() as f64 >= search.target()
    });
    CriticalPoint {
        range,
        normalized: range / config.side(),
        probes,
        kernel,
    }
}

fn critical_scaling(
    tr: &mut Tracer,
    replay: &mut Replay,
    c: &CriticalScaling,
) -> Result<Outcome, CoreError> {
    let proto = tr.child(0);
    let section = tr.enter("sim.sweep.run");
    let run = SweepScheduler::new(c.threads).run(
        &c.cells,
        (0..c.cells.len()).map(|_| None).collect(),
        |id, cell| {
            let mut tr = proto.child(id as u32);
            let span = tr.enter("sim.sweep.cell");
            let config = tr.time("config.build", || c.config(cell))?;
            let mut snapshots = Vec::new();
            let point = bisect_cell(&mut tr, &config, &cell.model, c.target, &mut snapshots);
            tr.exit(span);
            Ok((
                Part {
                    snapshots,
                    ..Part::of(point)
                },
                tr,
            ))
        },
    );
    tr.exit(section);
    let parts = run?.into_complete()?;
    let workers = c.threads.min(c.cells.len()).max(1);
    let points = absorb(replay, section, workers, parts.into_iter());
    Ok(tr.time("sim.scaling.fit", || Outcome::critical_scaling(c, points))?)
}

/// Time from a cold start of the campaign to its first simulated step:
/// config validation, `r_stationary` calibration where the pipeline
/// does one, placement, model init and the step-0 observation (the
/// first `DynamicGraph::new` on the fixed-range lanes).
///
/// # Errors
///
/// Propagates library errors.
pub fn setup_once(inputs: &Inputs) -> Result<Duration, CoreError> {
    let tr = &mut Tracer::disabled();
    // lint:allow(R2): timing the set-up is this function's purpose
    let t0 = Instant::now();
    Ok(match inputs {
        Inputs::PaperFig(p) => {
            let problem = p.problem()?;
            black_box(p.r_stationary()?);
            let walk = Walk::start(tr, problem.config(), &p.model, 0);
            black_box(critical_range(&walk.positions));
            t0.elapsed()
        }
        Inputs::TraceDense(t) => {
            let problem = t.problem()?;
            let config = problem.config();
            let walk = Walk::start(tr, config, &t.model, 0);
            let link = Link::start(tr, config, &t.model, &walk, t.ranges[0]);
            let mut recorder = TraceRecorder::new(config.nodes(), config.steps());
            observe(tr, &mut recorder, &link);
            black_box(&recorder);
            t0.elapsed()
        }
        Inputs::CriticalScaling(c) => {
            let configs = c
                .cells
                .iter()
                .map(|cell| c.config(cell))
                .collect::<Result<Vec<_>, _>>()?;
            let model = &c.cells[0].model;
            let walk = Walk::start(tr, &configs[0], model, 0);
            let link = Link::start(tr, &configs[0], model, &walk, 1e-9);
            black_box(link.components.largest_size());
            t0.elapsed()
        }
    })
}
