//! The benchmark's own tests, at tiny scale: the replay equals the
//! library, injected perturbations are caught, counters repeat, and
//! `BENCHMARK.json` lists exactly the metrics the benchmark prints.

use manet_bench_e2e::replay::{self, Snapshot};
use manet_bench_e2e::report::{self, END_TO_END, PER_LAYER};
use manet_bench_e2e::workload::{generate, Scale, Workload};
use manet_bench_e2e::{campaign, Checks};

const SEED: u64 = 11;

fn calls(replay: &replay::Replay, name: &str) -> usize {
    replay.spans.iter().filter(|s| s.name == name).count()
}

#[test]
fn replay_equals_library_and_passes_the_oracles() {
    for workload in Workload::ALL {
        let inputs = generate(workload, SEED, Scale::Tiny).unwrap();
        let library = campaign::run(&inputs).unwrap();
        let replay = replay::run(&inputs).unwrap();
        assert_eq!(
            replay.outcome.fingerprint(),
            library.fingerprint(),
            "{}",
            workload.name()
        );
        assert!(!replay.snapshots.is_empty());
        for s in &replay.snapshots {
            assert_eq!(s.check(), Ok(()), "{}", workload.name());
        }
    }
}

#[test]
fn bypassed_layers_show_zero_calls() {
    let run = |w| replay::run(&generate(w, SEED, Scale::Tiny).unwrap()).unwrap();
    let paper = run(Workload::PaperFig);
    assert_eq!(calls(&paper, "graph.dynamic.step"), 0);
    assert_eq!(calls(&paper, "graph.components.apply"), 0);
    assert!(calls(&paper, "graph.mst.critical") > 0);
    assert!(calls(&paper, "graph.merge.profile") > 0);
    for w in [Workload::TraceDense, Workload::CriticalScaling] {
        let r = run(w);
        assert_eq!(calls(&r, "graph.mst.critical"), 0);
        assert_eq!(calls(&r, "graph.merge.profile"), 0);
        assert!(calls(&r, "graph.dynamic.step") > 0);
    }
}

#[test]
fn injected_edge_and_component_perturbations_are_caught() {
    let inputs = generate(Workload::TraceDense, SEED, Scale::Tiny).unwrap();
    let replay = replay::run(&inputs).unwrap();
    let Some(Snapshot::Links {
        positions,
        range,
        edges,
        count,
        largest,
    }) = replay
        .snapshots
        .iter()
        .find(|s| matches!(s, Snapshot::Links { edges, .. } if !edges.is_empty()))
        .cloned()
    else {
        panic!("no snapshot with edges");
    };
    let links = |edges: Vec<(u32, u32)>, count| Snapshot::Links {
        positions: positions.clone(),
        range,
        edges,
        count,
        largest,
    };
    let mut dropped = edges.clone();
    dropped.pop();
    let mut extra = edges.clone();
    let far = (0..positions.len() as u32)
        .flat_map(|a| ((a + 1)..positions.len() as u32).map(move |b| (a, b)))
        .find(|e| !edges.contains(e))
        .unwrap();
    extra.push(far);
    extra.sort_unstable();

    let mut checks = Checks::default();
    checks.expect_ok(links(edges.clone(), count).check());
    checks.expect_ok(links(dropped, count).check());
    checks.expect_ok(links(extra, count).check());
    checks.expect_ok(links(edges, count + 1).check());
    assert_eq!(
        (checks.attempted, checks.failed()),
        (4, 3),
        "{:?}",
        checks.failures
    );
}

#[test]
fn injected_critical_range_perturbation_is_caught() {
    let inputs = generate(Workload::PaperFig, SEED, Scale::Tiny).unwrap();
    let replay = replay::run(&inputs).unwrap();
    let Some(Snapshot::Critical { positions, value }) = replay.snapshots.first().cloned() else {
        panic!("no critical-range snapshot");
    };
    let nudged = f64::from_bits(value.to_bits() + 1);
    let mut checks = Checks::default();
    checks.expect_ok(
        Snapshot::Critical {
            positions: positions.clone(),
            value,
        }
        .check(),
    );
    checks.expect_ok(
        Snapshot::Critical {
            positions,
            value: nudged,
        }
        .check(),
    );
    assert_eq!((checks.attempted, checks.failed()), (2, 1));
}

#[test]
fn counters_repeat_across_runs_and_thread_counts() {
    for workload in [Workload::TraceDense, Workload::CriticalScaling] {
        let inputs = generate(workload, SEED, Scale::Tiny).unwrap();
        let a = campaign::run(&inputs).unwrap();
        let b = campaign::run(&inputs).unwrap();
        let single = campaign::run(&inputs.with_threads(1)).unwrap();
        assert!(a.counters().values().any(|&v| v > 0));
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.counters(), single.counters());
        assert_eq!(a.fingerprint(), single.fingerprint());
    }
}

#[test]
fn traced_replay_attributes_every_span_to_a_layer_or_container() {
    let inputs = generate(Workload::CriticalScaling, SEED, Scale::Tiny).unwrap();
    let replay = replay::run(&inputs).unwrap();
    let a = report::attribute(&replay);
    assert!(a.thread_s > 0.0 && a.wall_s > 0.0);
    assert!((0.0..=1.0).contains(&a.unattributed_frac));
    assert_eq!(a.calls["sim.sweep.cell"], 6);
    let metrics = report::per_layer(&inputs, &replay, &a, a.wall_s, 0.0);
    assert_eq!(metrics.len(), PER_LAYER.len());
    assert!(metrics.iter().all(|(_, v)| v.is_finite()));
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("{{\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(text.contains(&entry), "missing {entry}");
    }
    let names = text.matches("\"name\":").count();
    assert_eq!(
        names,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed", "1"],
        vec!["--workload", "paper-fig", "--trace", "2"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench-e2e"))
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
