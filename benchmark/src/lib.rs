//! The repository's benchmark (see `README.md` beside this crate).
//!
//! Six fixed workloads, seven end-to-end metrics, and a traced mode that
//! times the calls into each workspace crate's public functions from
//! here — nothing inside the crates is instrumented. The binary in
//! `main.rs` is the one entry point; this library holds its pieces so
//! the arithmetic can be unit-tested from `tests/`.

pub mod agree;
pub mod chain;
pub mod layer_run;
pub mod loadgen;
pub mod names;
pub mod probes;
pub mod report;
pub mod serve_run;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;

/// Any failure of a workspace call; the binary prints it and exits non-zero.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
