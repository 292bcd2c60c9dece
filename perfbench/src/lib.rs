//! The faqs benchmark: three seeded workloads that time calls into the
//! stack's public API from outside its crates, check every answer, and
//! report end-to-end metrics (untraced runs) or per-layer metrics
//! (traced runs). See `README.md` for the metrics and what each
//! workload stresses and bypasses.

pub mod dist;
pub mod gen;
pub mod pin;
pub mod report;
pub mod serve;
pub mod triangle;

use gen::Sizes;
use report::Report;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["serve-zipf-rw", "triangle-churn", "dist-star-tcp"];

/// What one run measures.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Tiny inputs, for the smoke test.
    pub smoke: bool,
}

impl Opts {
    /// The input sizes this run uses.
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

/// Runs the named workload; `None` for an unknown name.
pub fn run(workload: &str, opts: &Opts) -> Option<Report> {
    match workload {
        "serve-zipf-rw" => Some(serve::run(opts)),
        "triangle-churn" => Some(triangle::run(opts)),
        "dist-star-tcp" => Some(dist::run(opts)),
        _ => None,
    }
}

/// The host's core count as the standard library sees it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
