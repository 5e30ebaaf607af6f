//! Deterministic fan-out for the sharded step kernel.
//!
//! One function: run a vector of closures, one scoped worker thread
//! each, and return their results **in job order**. Determinism does
//! not come from the scheduler — threads race freely — but from the
//! structure: every job owns its inputs and output buffer, nothing is
//! shared mutably, and the caller consumes results in the fixed job
//! order. The pattern matches `crates/sim/src/sweep.rs` (job and
//! iteration fan-out) one layer down, inside a single step.
//!
//! This module is one of the two sanctioned `std::thread` sites in the
//! workspace (see `R6_EXEMPT_MODULES` in `crates/lint/src/walk.rs` and
//! the root `clippy.toml`): kernel code must not spawn threads except
//! through this fan-out, whose merge discipline is what the
//! thread-invariance proptests pin.

/// Runs `jobs` concurrently on scoped threads and returns their
/// results in job order. A single job (or none) runs inline on the
/// caller's thread — the one-shard path pays no thread overhead.
///
/// # Panics
///
/// Propagates a panic from any job.
#[allow(clippy::disallowed_methods)] // thread::scope/spawn: the sanctioned fan-out site
pub(crate) fn run_jobs<R, F>(jobs: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    if jobs.len() <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(job)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("step kernel worker panicked")) // lint:allow(R3): a worker panic is already a crash; propagate it
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<_> = (0..8).map(|i| move || i * 10).collect();
        assert_eq!(run_jobs(jobs), vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn zero_and_one_job_run_inline() {
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(run_jobs(none).is_empty());
        assert_eq!(run_jobs(vec![|| 7u32]), vec![7]);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom"))];
        let _ = run_jobs(jobs);
    }
}
