//! The timed campaigns: the library entry points each `manet-repro`
//! subcommand calls, with tracing off, and the outcome they produce.

use crate::workload::{CriticalScaling, Inputs, PaperFig, TraceDense};
use manet_core::obs::KernelMetrics;
use manet_core::sim::{
    find_critical_range, fit_scaling_exponent, CriticalPoint, CriticalRangeResults,
    CriticalRangeSearch, ProfileResults, RangeQuantiles, RangeSizeProfile, ScalingExponent,
    SimError, SweepScheduler,
};
use manet_core::stats::FrozenSeries;
use manet_core::trace::TraceSummary;
use manet_core::CoreError;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hasher};

/// Confidence level of the scaling fits (as `manet-repro`).
const CONFIDENCE_LEVEL: f64 = 0.95;

/// Everything a workload's campaign computes. Two outcomes are equal
/// bit for bit when their `Debug` renderings are equal: floats print
/// as their shortest round-trip form. [`Outcome::fingerprint`] hashes
/// that rendering.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The figure cell: calibration, per-iteration sorted critical
    /// series, per-iteration merge profiles, pooled quantiles and the
    /// Fig. 4 largest-component fractions at `r90/r10/r0`.
    PaperFig {
        /// `r_stationary` of the cell.
        r_stationary: f64,
        /// Sorted critical-range series, one per iteration.
        series: Vec<FrozenSeries>,
        /// Merge-profile accumulations, one per iteration.
        profiles: Vec<RangeSizeProfile>,
        /// `r100/r90/r10/r0` of the pooled series.
        pooled: RangeQuantiles,
        /// Mean largest-component fraction at pooled `r90, r10, r0`.
        fractions: [f64; 3],
    },
    /// One trace summary per range.
    TraceDense {
        /// Summaries in range order.
        summaries: Vec<TraceSummary>,
    },
    /// One critical point per sweep cell, plus per-model fits.
    CriticalScaling {
        /// Critical points in job order.
        points: Vec<CriticalPoint>,
        /// Scaling fits per model, in first-appearance order.
        fits: Vec<ScalingExponent>,
    },
}

impl Outcome {
    /// The paper-fig outcome from the library's result types.
    ///
    /// # Errors
    ///
    /// Propagates statistics errors of the aggregation.
    pub fn paper_fig(
        r_stationary: f64,
        critical: CriticalRangeResults,
        profiles: ProfileResults,
    ) -> Result<Outcome, CoreError> {
        let pooled = RangeQuantiles::from_series(&critical.pooled()?)?;
        let at = |r: f64| profiles.mean_average_fraction_at(r);
        Ok(Outcome::PaperFig {
            r_stationary,
            fractions: [at(pooled.r90), at(pooled.r10), at(pooled.r0)],
            pooled,
            series: critical.per_iteration().to_vec(),
            profiles: profiles.per_iteration().to_vec(),
        })
    }

    /// The critical-scaling outcome, fitting one exponent per model.
    ///
    /// # Errors
    ///
    /// Propagates fit errors.
    pub fn critical_scaling(
        inputs: &CriticalScaling,
        points: Vec<CriticalPoint>,
    ) -> Result<Outcome, SimError> {
        let mut names: Vec<&str> = Vec::new();
        for cell in &inputs.cells {
            if !names.contains(&cell.model_name) {
                names.push(cell.model_name);
            }
        }
        let mut fits = Vec::new();
        for name in names {
            let xy: Vec<(usize, f64)> = inputs
                .cells
                .iter()
                .zip(&points)
                .filter(|(cell, _)| cell.model_name == name)
                .map(|(cell, p)| (cell.nodes, p.normalized))
                .collect();
            if xy.len() >= 3 {
                fits.push(fit_scaling_exponent(&xy, CONFIDENCE_LEVEL)?);
            }
        }
        Ok(Outcome::CriticalScaling { points, fits })
    }

    /// A fingerprint of the outcome's exact `Debug` text, streamed into
    /// a fixed-key SipHash so the benchmark holds no copy of it (its
    /// memory would otherwise show in `peak_rss_mb`).
    pub fn fingerprint(&self) -> u64 {
        struct Digest(DefaultHasher);
        impl std::fmt::Write for Digest {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0.write(s.as_bytes());
                Ok(())
            }
        }
        let mut digest = Digest(DefaultHasher::new());
        // lint:allow(R3): Digest::write_str never fails, and the outcome types' Debug impls only forward formatter errors
        write!(digest, "{self:?}").expect("formatting into a hasher cannot fail");
        digest.0.finish()
    }

    /// The kernel counters pooled over the whole campaign (zero on the
    /// positions-only lane).
    pub fn kernel(&self) -> KernelMetrics {
        let mut k = KernelMetrics::default();
        match self {
            Outcome::PaperFig { .. } => {}
            Outcome::TraceDense { summaries } => summaries.iter().for_each(|s| k.merge(&s.kernel)),
            Outcome::CriticalScaling { points, .. } => {
                points.iter().for_each(|p| k.merge(&p.kernel))
            }
        }
        k
    }

    /// The deterministic counter block: kernel counters per range or
    /// cell, probe counts and observer call counts. These must repeat
    /// exactly across repetitions and thread counts.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        let mut kernel = |prefix: String, k: &KernelMetrics, extra: (&str, u64)| {
            let header = KernelMetrics::csv_header();
            let row = k.csv_row();
            for (name, value) in header.split(',').zip(row.split(',')) {
                // lint:allow(R3): KernelMetrics::csv_row prints u64 counters only
                let value = value.parse().expect("kernel counters are integers");
                out.insert(format!("{prefix}.{name}"), value);
            }
            out.insert(format!("{prefix}.{}", extra.0), extra.1);
        };
        match self {
            Outcome::PaperFig {
                series, profiles, ..
            } => {
                let steps: usize = series.iter().map(FrozenSeries::len).sum();
                let samples: usize = profiles.iter().map(RangeSizeProfile::samples).sum();
                let overflow: u64 = profiles.iter().map(RangeSizeProfile::overflow_events).sum();
                out.insert("critical_range.calls".into(), steps as u64);
                out.insert("merge_profile.calls".into(), samples as u64);
                out.insert("merge_profile.overflow_events".into(), overflow);
            }
            Outcome::TraceDense { summaries } => {
                for (i, s) in summaries.iter().enumerate() {
                    let churn = ("peak_churn", s.peak_churn as u64);
                    kernel(format!("range{i}"), &s.kernel, churn);
                }
            }
            Outcome::CriticalScaling { points, .. } => {
                for (i, p) in points.iter().enumerate() {
                    kernel(format!("cell{i}"), &p.kernel, ("probes", p.probes as u64));
                }
            }
        }
        out
    }
}

/// Runs the workload's campaign through the library entry points.
///
/// # Errors
///
/// Propagates library errors.
pub fn run(inputs: &Inputs) -> Result<Outcome, CoreError> {
    match inputs {
        Inputs::PaperFig(p) => paper_fig(p),
        Inputs::TraceDense(t) => trace_dense(t),
        Inputs::CriticalScaling(c) => critical_scaling(c),
    }
}

/// `fig2`/`fig4` at one cell: calibration, `solve`, `component_profiles`.
fn paper_fig(p: &PaperFig) -> Result<Outcome, CoreError> {
    let rs = p.r_stationary()?;
    let problem = p.problem()?;
    let solution = problem.solve()?;
    let profiles = problem.component_profiles()?;
    Outcome::paper_fig(rs, solution.critical, profiles)
}

/// `trace --nodes 2000` at the generated ranges.
fn trace_dense(t: &TraceDense) -> Result<Outcome, CoreError> {
    let problem = t.problem()?;
    let summaries = t
        .ranges
        .iter()
        .map(|&r| problem.temporal_trace(r))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Outcome::TraceDense { summaries })
}

/// `critical-scaling`: one bisection per cell on the sweep scheduler.
fn critical_scaling(c: &CriticalScaling) -> Result<Outcome, CoreError> {
    let search = CriticalRangeSearch::new().with_target(c.target);
    let run =
        SweepScheduler::new(c.threads).run(&c.cells, vec![None; c.cells.len()], |_, cell| {
            find_critical_range(&c.config(cell)?, &cell.model, &search)
        })?;
    Ok(Outcome::critical_scaling(c, run.into_complete()?)?)
}
