//! End-to-end and per-layer benchmark of the `manet-repro` pipelines.
//!
//! See README.md in this directory for the workloads, the metrics and
//! the layer each metric explains.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod campaign;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod spans;
pub mod workload;

/// Tally of output checks: every check attempted, and the ones failed
/// with a reason.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Reasons of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `why` describes a failure.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    /// Records one check given as a `Result`.
    pub fn expect_ok(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failures.push(why);
        }
    }

    /// Checks that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}
