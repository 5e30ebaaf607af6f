//! Metric definitions, the per-layer analysis of the traced replay,
//! the run manifest and JSON output.

use crate::replay::Replay;
use crate::spans::{percentile, self_times, Span, NO_PARENT};
use crate::workload::{Inputs, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 3] = [
    lower("campaign_s", "s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 42] = [
    lower("mobility.step_us_p50", "us"),
    lower("mobility.step_us_p99", "us"),
    lower("mobility.self_s", "s"),
    lower("sim.stationary.calibrate_s", "s"),
    lower("graph.mst.critical_us_p50", "us"),
    lower("graph.mst.critical_us_p99", "us"),
    lower("graph.mst.pairs_per_step", "count"),
    lower("graph.mst.self_s", "s"),
    lower("graph.merge.profile_us_p50", "us"),
    lower("graph.merge.profile_us_p99", "us"),
    lower("graph.merge.pairs_sorted_per_call", "count"),
    lower("graph.merge.self_s", "s"),
    lower("graph.dynamic.build_ms", "ms"),
    lower("graph.dynamic.step_us_p50", "us"),
    lower("graph.dynamic.step_us_p99", "us"),
    lower("graph.dynamic.self_s", "s"),
    higher("graph.dynamic.share_incremental", "frac"),
    lower("graph.dynamic.share_bulk", "frac"),
    higher("graph.dynamic.share_cache_verify", "frac"),
    lower("graph.dynamic.share_fallback", "frac"),
    lower("graph.dynamic.cache_rebuilds", "count"),
    lower("graph.dynamic.candidates_per_event", "ratio"),
    lower("geom.grid.cells_touched_per_step", "count"),
    lower("geom.grid.resets", "count"),
    lower("graph.components.apply_us_p50", "us"),
    lower("graph.components.apply_us_p99", "us"),
    lower("graph.components.full_rebuild_share", "frac"),
    lower("graph.components.relabeled_per_apply", "count"),
    lower("graph.components.self_s", "s"),
    lower("trace.observe_us_p50", "us"),
    lower("trace.observe_us_p99", "us"),
    lower("trace.events_per_step", "count"),
    lower("trace.self_s", "s"),
    lower("sim.engine.busy_s", "s"),
    lower("sim.engine.idle_s", "s"),
    lower("sim.sweep.probes", "count"),
    lower("sim.sweep.probe_ms_p50", "ms"),
    lower("sim.sweep.probe_ms_p99", "ms"),
    lower("sim.sweep.idle_s", "s"),
    lower("unattributed_frac", "frac"),
    lower("trace_overhead_frac", "frac"),
    lower("check_fail_frac", "frac"),
];

/// Spans that group calls rather than call into a layer: their self
/// time is loop overhead, counted as unattributed.
const CONTAINERS: [&str; 6] = [
    "campaign",
    "sim.engine.run",
    "sim.engine.iteration",
    "sim.sweep.run",
    "sim.sweep.cell",
    "sim.sweep.probe",
];

/// The layer a span belongs to: its name without the last segment
/// (`graph.dynamic.step` → `graph.dynamic`).
fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Per-layer thread-time accounting of a replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Self time per layer, seconds.
    pub layer_self_s: BTreeMap<String, f64>,
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Engine iterations' busy time, seconds.
    pub engine_busy_s: f64,
    /// Engine workers' waiting time, seconds.
    pub engine_idle_s: f64,
    /// Sweep workers' waiting time, seconds.
    pub sweep_idle_s: f64,
    /// Thread time available to the replay, seconds: the root's wall
    /// time plus the extra workers of each fan-out section.
    pub thread_s: f64,
    /// Share of `thread_s` not covered by a layer span or by waiting.
    pub unattributed_frac: f64,
    /// Wall time of the replay, seconds.
    pub wall_s: f64,
}

/// Attributes a replay's thread time to layers.
pub fn attribute(replay: &Replay) -> Attribution {
    let spans = &replay.spans;
    let own = self_times(spans);
    let mut a = Attribution {
        wall_s: spans.first().map_or(0.0, |s| secs(s.duration_ns())),
        ..Attribution::default()
    };
    let mut thread_ns = spans.first().map_or(0, |s| s.duration_ns() as i128);
    let mut attributed_ns: i128 = 0;
    for (s, own) in spans.iter().zip(&own) {
        *a.calls.entry(s.name).or_default() += 1;
        if !CONTAINERS.contains(&s.name) {
            attributed_ns += own;
            *a.layer_self_s
                .entry(layer_of(s.name).to_string())
                .or_default() += *own as f64 / 1e9;
        }
    }
    for &(section, workers) in &replay.sections {
        let sec = &spans[section as usize];
        let busy: i128 = spans
            .iter()
            .filter(|s| s.parent == section)
            .map(|s| s.duration_ns() as i128)
            .sum();
        let idle = workers as i128 * sec.duration_ns() as i128 - busy;
        thread_ns += (workers as i128 - 1) * sec.duration_ns() as i128;
        attributed_ns += idle;
        if sec.name == "sim.engine.run" {
            a.engine_busy_s += busy as f64 / 1e9;
            a.engine_idle_s += idle as f64 / 1e9;
        } else {
            a.sweep_idle_s += idle as f64 / 1e9;
        }
    }
    a.thread_s = thread_ns as f64 / 1e9;
    a.unattributed_frac = if thread_ns > 0 {
        ((thread_ns - attributed_ns).max(0)) as f64 / thread_ns as f64
    } else {
        0.0
    };
    a
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric of a traced replay, in [`PER_LAYER`] order.
pub fn per_layer(
    inputs: &Inputs,
    replay: &Replay,
    attribution: &Attribution,
    campaign_s: f64,
    check_fail_frac: f64,
) -> Vec<(MetricDef, f64)> {
    let spans = &replay.spans;
    let p =
        |name: &str, q: f64, scale: f64| percentile(&mut durations(spans, name), q) as f64 / scale;
    let calls = |name: &str| attribution.calls.get(name).copied().unwrap_or(0);
    let layer_s = |layer: &str| attribution.layer_self_s.get(layer).copied().unwrap_or(0.0);
    let pairs = match inputs {
        Inputs::PaperFig(f) => (f.nodes * (f.nodes - 1) / 2) as f64,
        _ => 0.0,
    };
    let pairs_if = |name: &str| if calls(name) > 0 { pairs } else { 0.0 };
    let k = replay.outcome.kernel();
    let (step, grid, comp) = (&k.step, &k.grid, &k.components);
    let candidates =
        step.moved_rescan_candidates + step.bulk_rescan_candidates + step.verify_candidates;
    let values = [
        p("mobility.step", 0.5, 1e3),
        p("mobility.step", 0.99, 1e3),
        layer_s("mobility"),
        secs(durations(spans, "sim.stationary.calibrate").iter().sum()),
        p("graph.mst.critical", 0.5, 1e3),
        p("graph.mst.critical", 0.99, 1e3),
        pairs_if("graph.mst.critical"),
        layer_s("graph.mst"),
        p("graph.merge.profile", 0.5, 1e3),
        p("graph.merge.profile", 0.99, 1e3),
        pairs_if("graph.merge.profile"),
        layer_s("graph.merge"),
        p("graph.dynamic.build", 0.5, 1e6),
        p("graph.dynamic.step", 0.5, 1e3),
        p("graph.dynamic.step", 0.99, 1e3),
        layer_s("graph.dynamic"),
        step.incremental_fraction(),
        step.bulk_fraction(),
        step.cache_verify_fraction(),
        step.fallback_fraction(),
        step.cache_rebuilds as f64,
        ratio(candidates, step.edges_added + step.edges_removed),
        ratio(grid.cells_touched, step.steps),
        grid.resets as f64,
        p("graph.components.apply", 0.5, 1e3),
        p("graph.components.apply", 0.99, 1e3),
        ratio(comp.full_rebuilds, comp.applies),
        ratio(
            comp.partial_nodes_relabeled + comp.full_nodes_relabeled,
            comp.applies,
        ),
        layer_s("graph.components"),
        p("trace.observe", 0.5, 1e3),
        p("trace.observe", 0.99, 1e3),
        ratio(replay.trace_events, replay.trace_steps),
        layer_s("trace"),
        attribution.engine_busy_s,
        attribution.engine_idle_s,
        calls("sim.sweep.probe") as f64,
        p("sim.sweep.probe", 0.5, 1e6),
        p("sim.sweep.probe", 0.99, 1e6),
        attribution.sweep_idle_s,
        attribution.unattributed_frac,
        attribution.wall_s / campaign_s - 1.0,
        check_fail_frac,
    ];
    PER_LAYER.into_iter().zip(values).collect()
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite float as a JSON number (non-finite values become `null`,
/// which no consumer accepts as a measurement).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON object from already-encoded values.
pub fn json_obj<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: correctness, check counts and metrics with units.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let metrics = json_obj(metrics.iter().map(|(m, v)| {
        (
            m.name,
            json_obj([("value", json_num(*v)), ("unit", json_str(m.unit))]),
        )
    }));
    json_obj([
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics),
    ])
}

/// Output of a short helper command, or `"unknown"`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit from `.git`, without running git (the
/// benchmark may run from an exported tree, which has none).
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(String::from))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The run manifest: host, toolchain, build, seed, generated inputs
/// and every metric's unit and direction.
pub fn manifest(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    inputs: &Inputs,
) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let metric_list = |defs: &[MetricDef]| {
        json_obj(defs.iter().map(|m| {
            (
                m.name,
                json_obj([("unit", json_str(m.unit)), ("better", json_str(m.better))]),
            )
        }))
    };
    let described = inputs.describe();
    let generated = json_obj(described.iter().map(|(k, v)| (k.as_str(), json_str(v))));
    json_obj([(
        "manifest",
        json_obj([
            ("workload", json_str(workload.name())),
            ("seed", seed.to_string()),
            ("default_seed", DEFAULT_SEED.to_string()),
            ("held_out_seed", HELD_OUT_SEED.to_string()),
            ("seconds", seconds.to_string()),
            ("trace", trace.to_string()),
            ("available_parallelism", parallelism.to_string()),
            ("nproc", json_str(&command_output("nproc", &[]))),
            ("cpu_model", json_str(&cpu_model())),
            ("rustc", json_str(&command_output("rustc", &["-V"]))),
            ("profile", json_str(profile)),
            (
                "features",
                json_str(&manet_core::compiled_features().join(",")),
            ),
            ("git_commit", json_str(&git_commit())),
            ("inputs", generated),
            ("end_to_end", metric_list(&END_TO_END)),
            ("per_layer", metric_list(&PER_LAYER)),
        ]),
    )])
}

/// The per-layer self-time report of a traced run.
pub fn layer_report(attribution: &Attribution, campaign_s: f64) -> String {
    let layers = json_obj(attribution.layer_self_s.iter().map(|(layer, s)| {
        (
            layer.as_str(),
            json_obj([
                ("self_s", json_num(*s)),
                (
                    "share",
                    json_num(s / attribution.thread_s.max(f64::MIN_POSITIVE)),
                ),
            ]),
        )
    }));
    let calls = json_obj(attribution.calls.iter().map(|(n, c)| (*n, c.to_string())));
    json_obj([(
        "layers",
        json_obj([
            ("self_time", layers),
            ("calls", calls),
            ("engine_idle_s", json_num(attribution.engine_idle_s)),
            ("sweep_idle_s", json_num(attribution.sweep_idle_s)),
            ("thread_s", json_num(attribution.thread_s)),
            ("wall_s", json_num(attribution.wall_s)),
            ("unattributed_frac", json_num(attribution.unattributed_frac)),
            (
                "trace_overhead_frac",
                json_num(attribution.wall_s / campaign_s - 1.0),
            ),
        ]),
    )])
}

/// The spans as CSV, one line per span.
pub fn spans_csv(spans: &[Span]) -> String {
    let mut out = String::from("index,name,parent,cell,start_ns,end_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{i},{},{parent},{},{},{}",
            s.name, s.cell, s.start_ns, s.end_ns
        );
    }
    out
}
