//! The three workloads and the seed-driven input generator.
//!
//! The programs under test receive only what [`generate`] derives from
//! the seed: a configuration, model parameters and (for `trace-dense`)
//! the transmitting ranges. Every size here mirrors a `manet-repro`
//! invocation; README.md says why each workload exists.

use manet_core::sim::{SimConfig, SimError};
use manet_core::{AnyModel, CoreError, ModelRegistry, MtrProblem, MtrmProblem, PaperScale};

/// Seed used when `--seed` is not given (the DSN 2002 conference date,
/// as in `manet-repro`).
pub const DEFAULT_SEED: u64 = 20_020_623;

/// A second seed, never used while tuning, on which a claimed gain
/// must also hold.
pub const HELD_OUT_SEED: u64 = 7_919;

/// Seed of `trace-dense`'s `r_stationary` calibration, the same for
/// every `--seed` so that every seed runs at the same ranges.
pub const TRACE_CALIBRATION_SEED: u64 = DEFAULT_SEED ^ 0x5747;

/// Engine threads (and sweep workers) of every timed campaign.
pub const THREADS: usize = 2;

/// The paper's simulation horizon, to which pause times are anchored.
const PAPER_STEPS: usize = 10_000;

/// The paper's pause time at its horizon, in steps.
const PAPER_PAUSE: u32 = 2_000;

/// The connection-probability quantile defining `r_stationary`.
pub const R_STATIONARY_QUANTILE: f64 = 0.99;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The largest Fig. 2/Fig. 4 cell: critical range and merge
    /// profiles on the positions-only lane.
    PaperFig,
    /// `manet-repro trace --nodes 2000` at two fixed ranges.
    TraceDense,
    /// A `find_critical_range` sweep on the sweep scheduler.
    CriticalScaling,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFig,
        Workload::TraceDense,
        Workload::CriticalScaling,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig => "paper-fig",
            Workload::TraceDense => "trace-dense",
            Workload::CriticalScaling => "critical-scaling",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The size a workload runs at: the benchmark itself, or a tiny
/// version for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-scale sizes for `cargo test`.
    Tiny,
}

/// Inputs of `paper-fig`.
#[derive(Debug, Clone)]
pub struct PaperFig {
    /// Nodes `n`.
    pub nodes: usize,
    /// Region side `l`.
    pub side: f64,
    /// Iterations of the campaign.
    pub iterations: usize,
    /// Steps per iteration.
    pub steps: usize,
    /// Master seed of the campaign.
    pub seed: u64,
    /// Stationary placements of the `r_stationary` calibration.
    pub placements: usize,
    /// Seed of the calibration.
    pub calibration_seed: u64,
    /// Merge profiles are taken every `profile_stride` steps.
    pub profile_stride: usize,
    /// The paper's random waypoint at side `l`.
    pub model: AnyModel<2>,
    /// Engine threads.
    pub threads: usize,
}

/// Inputs of `trace-dense`.
#[derive(Debug, Clone)]
pub struct TraceDense {
    /// Nodes `n`.
    pub nodes: usize,
    /// Region side `l`.
    pub side: f64,
    /// Iterations per range.
    pub iterations: usize,
    /// Steps per iteration.
    pub steps: usize,
    /// Master seed of the campaign.
    pub seed: u64,
    /// The fixed transmitting ranges, in run order.
    pub ranges: Vec<f64>,
    /// The paper's random waypoint at side `l`.
    pub model: AnyModel<2>,
    /// Engine threads.
    pub threads: usize,
}

/// One `(model, n)` cell of `critical-scaling`.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Registry name of the model.
    pub model_name: &'static str,
    /// The model at this cell's side.
    pub model: AnyModel<2>,
    /// Nodes `n`.
    pub nodes: usize,
    /// Density-preserving side for `n`.
    pub side: f64,
}

/// Inputs of `critical-scaling`.
#[derive(Debug, Clone)]
pub struct CriticalScaling {
    /// Sweep cells in job order (`n` outer, model inner, as the CLI).
    pub cells: Vec<Cell>,
    /// Iterations per probe.
    pub iterations: usize,
    /// Steps per iteration.
    pub steps: usize,
    /// Master seed of every probe.
    pub seed: u64,
    /// Giant-fraction target of the bisection.
    pub target: f64,
    /// Sweep workers.
    pub threads: usize,
}

/// The generated inputs of one workload.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// `paper-fig`.
    PaperFig(PaperFig),
    /// `trace-dense`.
    TraceDense(TraceDense),
    /// `critical-scaling`.
    CriticalScaling(CriticalScaling),
}

impl Inputs {
    /// The same inputs on `threads` engine threads or sweep workers.
    pub fn with_threads(&self, threads: usize) -> Inputs {
        let mut out = self.clone();
        match &mut out {
            Inputs::PaperFig(p) => p.threads = threads,
            Inputs::TraceDense(t) => t.threads = threads,
            Inputs::CriticalScaling(c) => c.threads = threads,
        }
        out
    }

    /// The generated parameters, as `(key, value)` pairs for the run
    /// manifest.
    pub fn describe(&self) -> Vec<(String, String)> {
        let mut out: Vec<(&str, String)> = Vec::new();
        let mut cells = Vec::new();
        match self {
            Inputs::PaperFig(p) => {
                out.extend([
                    ("nodes", p.nodes.to_string()),
                    ("side", p.side.to_string()),
                    ("iterations", p.iterations.to_string()),
                    ("steps", p.steps.to_string()),
                    ("seed", p.seed.to_string()),
                    ("placements", p.placements.to_string()),
                    ("calibration_seed", p.calibration_seed.to_string()),
                    ("profile_stride", p.profile_stride.to_string()),
                    ("threads", p.threads.to_string()),
                    ("model", format!("{:?}", p.model)),
                ]);
            }
            Inputs::TraceDense(t) => out.extend([
                ("nodes", t.nodes.to_string()),
                ("side", t.side.to_string()),
                ("iterations", t.iterations.to_string()),
                ("steps", t.steps.to_string()),
                ("seed", t.seed.to_string()),
                ("ranges", format!("{:?}", t.ranges)),
                ("threads", t.threads.to_string()),
                ("model", format!("{:?}", t.model)),
            ]),
            Inputs::CriticalScaling(c) => {
                out.extend([
                    ("iterations", c.iterations.to_string()),
                    ("steps", c.steps.to_string()),
                    ("seed", c.seed.to_string()),
                    ("target", c.target.to_string()),
                    ("threads", c.threads.to_string()),
                ]);
                for (i, cell) in c.cells.iter().enumerate() {
                    cells.push((
                        format!("cell{i}"),
                        format!(
                            "{} n={} side={} {:?}",
                            cell.model_name, cell.nodes, cell.side, cell.model
                        ),
                    ));
                }
            }
        }
        out.into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .chain(cells)
            .collect()
    }
}

impl PaperFig {
    /// The `MtrmProblem` the figure cell solves (validates the config).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn problem(&self) -> Result<MtrmProblem<2>, CoreError> {
        let mut b = MtrmProblem::<2>::builder();
        b.nodes(self.nodes)
            .side(self.side)
            .iterations(self.iterations)
            .steps(self.steps)
            .seed(self.seed)
            .profile_stride(self.profile_stride)
            .threads(self.threads)
            .model(self.model.clone());
        b.build()
    }

    /// `r_stationary` exactly as `manet-repro` calibrates it.
    ///
    /// # Errors
    ///
    /// Propagates calibration errors.
    pub fn r_stationary(&self) -> Result<f64, CoreError> {
        MtrProblem::<2>::new(self.nodes, self.side)?.r_stationary(
            R_STATIONARY_QUANTILE,
            self.placements,
            self.calibration_seed,
        )
    }
}

impl TraceDense {
    /// The `MtrmProblem` whose `temporal_trace` the workload calls.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn problem(&self) -> Result<MtrmProblem<2>, CoreError> {
        let mut b = MtrmProblem::<2>::builder();
        b.nodes(self.nodes)
            .side(self.side)
            .iterations(self.iterations)
            .steps(self.steps)
            .seed(self.seed)
            .threads(self.threads)
            .model(self.model.clone());
        b.build()
    }
}

impl CriticalScaling {
    /// The per-cell config `manet-repro critical-scaling` builds: each
    /// cell's bisection runs single-threaded under the scheduler.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn config(&self, cell: &Cell) -> Result<SimConfig<2>, SimError> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(cell.nodes)
            .side(cell.side)
            .iterations(self.iterations)
            .steps(self.steps)
            .seed(self.seed)
            .threads(1);
        b.build()
    }
}

/// Density-preserving side for `n` nodes (`manet-repro`'s `side_for`).
pub fn side_for(n: usize) -> f64 {
    64.0 * (n as f64).sqrt()
}

/// The registry model `name` at side `l`, with the paper's pause time
/// scaled to a `steps`-long horizon (as `manet-repro` does).
fn paper_model(name: &str, side: f64, steps: usize) -> Result<AnyModel<2>, CoreError> {
    let pause = (PAPER_PAUSE as f64 * steps as f64 / PAPER_STEPS as f64).round() as u32;
    let scale = PaperScale::new(side).with_pause(pause);
    Ok(ModelRegistry::<2>::with_builtins().build(name, &scale)?)
}

/// Derives a workload's inputs from `seed`: the campaign's master seed
/// (and `paper-fig`'s calibration seed) follow it. For `trace-dense`
/// this runs an `r_stationary` calibration, so call it outside any
/// timed region.
///
/// # Errors
///
/// Propagates model, configuration and calibration errors.
pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Result<Inputs, CoreError> {
    let tiny = scale == Scale::Tiny;
    Ok(match workload {
        Workload::PaperFig => {
            let (nodes, side, iterations, steps, placements) = if tiny {
                (16, 256.0, 2, 60, 20)
            } else {
                (128, 16_384.0, 4, PAPER_STEPS, 5_000)
            };
            Inputs::PaperFig(PaperFig {
                nodes,
                side,
                iterations,
                steps,
                seed,
                placements,
                calibration_seed: seed ^ 0x5747,
                profile_stride: 5,
                model: paper_model("waypoint", side, steps)?,
                threads: THREADS,
            })
        }
        Workload::TraceDense => {
            let (nodes, side, iterations, steps, placements) = if tiny {
                (64, 256.0, 2, 40, 8)
            } else {
                (2_000, 1_024.0, 2, 500, 32)
            };
            // The calibration seed is fixed: a 0.99 quantile from a few
            // placements varies by several percent between seeds, and
            // the 1.5x cell's cost grows with the square of the range,
            // so seed-derived ranges would make the work itself vary.
            let rs = MtrProblem::<2>::new(nodes, side)?.r_stationary(
                R_STATIONARY_QUANTILE,
                placements,
                TRACE_CALIBRATION_SEED,
            )?;
            Inputs::TraceDense(TraceDense {
                nodes,
                side,
                iterations,
                steps,
                seed,
                ranges: vec![rs, 1.5 * rs],
                model: paper_model("waypoint", side, steps)?,
                threads: THREADS,
            })
        }
        Workload::CriticalScaling => {
            let (node_counts, iterations, steps): (&[usize], usize, usize) = if tiny {
                (&[8, 12, 16], 2, 30)
            } else {
                (&[16, 32, 64], 5, 500)
            };
            let mut cells = Vec::new();
            for &nodes in node_counts {
                let side = side_for(nodes);
                for model_name in ["waypoint", "drunkard"] {
                    cells.push(Cell {
                        model_name,
                        model: paper_model(model_name, side, steps)?,
                        nodes,
                        side,
                    });
                }
            }
            Inputs::CriticalScaling(CriticalScaling {
                cells,
                iterations,
                steps,
                seed,
                target: 0.99,
                threads: THREADS,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = generate(Workload::TraceDense, 5, Scale::Tiny).unwrap();
        let b = generate(Workload::TraceDense, 5, Scale::Tiny).unwrap();
        let c = generate(Workload::TraceDense, 6, Scale::Tiny).unwrap();
        assert_eq!(a.describe(), b.describe());
        assert_ne!(a.describe(), c.describe());
    }
}
