//! `bench-e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! One run: generate the workload's inputs from the seed, time its
//! set-up and its campaign through the library entry points (tracing
//! off), replay it from the layer functions under spans, check every
//! output (a traced run also reruns the campaign on one engine thread),
//! then print the manifest,
//! the counter block and, as the last line, the result with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! Exits 1 when a check fails, 2 on a usage or library error.

use manet_bench_e2e::report::{self, MetricDef, END_TO_END};
use manet_bench_e2e::workload::{self, Scale, Workload, DEFAULT_SEED};
use manet_bench_e2e::{campaign, replay, Checks};
use std::error::Error;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: bench-e2e --workload paper-fig|trace-dense|critical-scaling \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Timed campaigns per run, at least; more while `--seconds` lasts.
const MIN_CAMPAIGNS: usize = 3;

/// A set-up sample averages as many set-ups as fill this time, so that
/// a microsecond set-up is not one timer reading.
const SETUP_BATCH: Duration = Duration::from_millis(10);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds must be a whole number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark once; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, Box<dyn Error>> {
    let inputs = workload::generate(args.workload, args.seed, Scale::Full)?;
    println!(
        "{}",
        report::manifest(args.workload, args.seed, args.seconds, args.trace, &inputs)
    );

    // The first set-up is cold; the rest are sampled after every
    // campaign, so their median spans the run like the campaigns' does.
    let cold = replay::setup_once(&inputs)?;
    let warm = replay::setup_once(&inputs)?;
    let batch = ((SETUP_BATCH.as_secs_f64() / warm.as_secs_f64().max(1e-9)).ceil() as usize).max(1);
    let setup_sample = || -> Result<f64, Box<dyn Error>> {
        let mut total = Duration::ZERO;
        for _ in 0..batch {
            total += replay::setup_once(&inputs)?;
        }
        Ok(total.as_secs_f64() / batch as f64)
    };
    let mut setup_s = vec![cold.as_secs_f64(), warm.as_secs_f64()];

    // Campaigns after the first are compared with it as they finish, so
    // the benchmark's own memory does not grow with the repetitions.
    let mut checks = Checks::default();
    let started = Instant::now();
    let first = campaign::run(&inputs)?;
    let mut campaign_s = vec![started.elapsed().as_secs_f64()];
    let (fingerprint, counters) = (first.fingerprint(), first.counters());
    setup_s.push(setup_sample()?);
    while campaign_s.len() < MIN_CAMPAIGNS || started.elapsed().as_secs() < args.seconds {
        let t = Instant::now();
        let outcome = campaign::run(&inputs)?;
        campaign_s.push(t.elapsed().as_secs_f64());
        let i = campaign_s.len() - 1;
        checks.expect(outcome.fingerprint() == fingerprint, || {
            format!("campaign {i} differs from campaign 0")
        });
        checks.expect(outcome.counters() == counters, || {
            format!("counters of campaign {i} differ")
        });
        setup_s.push(setup_sample()?);
    }
    let peak_rss_mb = report::peak_rss_mb();

    let replay = replay::run(&inputs)?;

    if args.trace {
        // Thread invariance is checked once per traced run: a whole
        // single-threaded campaign is too slow to repeat in every run.
        let single = campaign::run(&inputs.with_threads(1))?;
        checks.expect(single.fingerprint() == fingerprint, || {
            "the campaign on 1 engine thread differs from 2 threads".into()
        });
        checks.expect(single.counters() == counters, || {
            "counters on 1 engine thread differ from 2 threads".into()
        });
    }
    checks.expect(replay.outcome.fingerprint() == fingerprint, || {
        "the traced replay differs from the library".into()
    });
    checks.expect(replay.outcome.counters() == counters, || {
        "the traced replay's counters differ from the library's".into()
    });
    for snapshot in &replay.snapshots {
        checks.expect_ok(snapshot.check());
    }
    for failure in &checks.failures {
        eprintln!("bench-e2e: check failed: {failure}");
    }

    let attribution = report::attribute(&replay);
    let block = counters
        .iter()
        .map(|(k, v)| (k.clone(), v.to_string()))
        .chain(
            attribution
                .calls
                .iter()
                .map(|(k, v)| (format!("calls.{k}"), v.to_string())),
        )
        .collect::<Vec<_>>();
    println!(
        "{}",
        report::json_obj([(
            "counters",
            report::json_obj(block.iter().map(|(k, v)| (k.as_str(), v.clone())))
        )])
    );
    let samples = |v: &[f64]| {
        let list: Vec<String> = v.iter().map(|x| report::json_num(*x)).collect();
        format!("[{}]", list.join(", "))
    };
    println!(
        "{}",
        report::json_obj([(
            "samples",
            report::json_obj([
                ("campaign_s", samples(&campaign_s)),
                ("setup_s", samples(&setup_s)),
            ])
        )])
    );

    let campaign = median(&mut campaign_s);
    let check_fail_frac = checks.failed() as f64 / checks.attempted.max(1) as f64;
    let metrics: Vec<(MetricDef, f64)> = if args.trace {
        println!("{}", report::layer_report(&attribution, campaign));
        write_spans(args.workload, &replay.spans);
        report::per_layer(&inputs, &replay, &attribution, campaign, check_fail_frac)
    } else {
        END_TO_END
            .into_iter()
            .zip([campaign, median(&mut setup_s), peak_rss_mb])
            .collect()
    };
    let correct = checks.failures.is_empty();
    println!(
        "{}",
        report::result_line(correct, checks.attempted, checks.failed(), &metrics)
    );
    Ok(correct)
}

/// Writes the traced run's spans under the build directory (best
/// effort: a failure is reported but does not fail the run).
fn write_spans(workload: Workload, spans: &[manet_bench_e2e::spans::Span]) {
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("bench_e2e");
    let path = dir.join(format!("spans-{}.csv", workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, report::spans_csv(spans)));
    match written {
        Ok(()) => eprintln!(
            "bench-e2e: wrote {} spans to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("bench-e2e: cannot write {}: {e}", path.display()),
    }
}
