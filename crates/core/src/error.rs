//! The unified error type of the execution layer.
//!
//! Planning, shape validation, parallel execution and numeric guarding
//! each have their own typed error ([`PlanError`], [`ShapeError`],
//! [`PoolError`], [`NumericError`]); [`WinoError`] unifies them so
//! `run_layer` / `run_net` (and everything underneath) can thread one
//! `Result` end-to-end instead of panicking inside worker threads.

use wino_sched::PoolError;
use wino_simd::AllocError;
use wino_tensor::{ShapeError, TensorError};

use crate::plan::PlanError;
use crate::sentinel::SentinelError;

/// A non-finite value (NaN or ±Inf) detected by the numeric guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumericError {
    /// Which buffer tripped the guard (e.g. `"output"`).
    pub stage: &'static str,
    /// Flat index of the first non-finite element.
    pub index: usize,
}

impl std::fmt::Display for NumericError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "non-finite value in {} at flat index {}", self.stage, self.index)
    }
}

impl std::error::Error for NumericError {}

/// Scan a buffer for non-finite values; `Err` carries the first offender.
///
/// NaN and ±Inf are exactly the values whose exponent bits are all ones.
/// That test is OR-reduced over a chunk without an early exit, so the loop
/// vectorises and the scan runs at memory speed (the guard reads every
/// layer output of a guarded `run_net`); only a chunk that tripped is
/// walked for the index.
pub fn check_finite(stage: &'static str, data: &[f32]) -> Result<(), NumericError> {
    const EXP: u32 = 0x7f80_0000;
    const CHUNK: usize = 1024;
    for (c, chunk) in data.chunks(CHUNK).enumerate() {
        let tripped = chunk.iter().fold(0u32, |acc, v| acc | u32::from(v.to_bits() & EXP == EXP));
        if tripped != 0 {
            let at = chunk.iter().position(|v| !v.is_finite()).expect("the chunk tripped");
            return Err(NumericError { stage, index: c * CHUNK + at });
        }
    }
    Ok(())
}

/// Any failure of the convolution engine, from planning to execution.
#[derive(Debug)]
pub enum WinoError {
    /// Plan construction failed.
    Plan(PlanError),
    /// Buffers passed to an execution entry point do not match the plan.
    Shape(ShapeError),
    /// The parallel substrate failed: a worker panicked mid-layer, a
    /// barrier watchdog fired, or the pool was already dead.
    Pool(PoolError),
    /// The numeric guard found NaN/Inf in a transformed output.
    Numeric(NumericError),
    /// An accuracy sentinel found a finite-but-wrong output (relative
    /// error above the plan's a-priori bound) in a context with no
    /// degradation ladder to absorb it (e.g. a guarded training step).
    Sentinel(SentinelError),
    /// The allocator (or the fault injector) refused a buffer — the
    /// run-time memory cause of the degradation table: a `Network` layer
    /// retries on larger tiles, then the im2col rescue, before this
    /// surfaces as a failure.
    Alloc(AllocError),
    /// Kernel list length does not match the network's layer count.
    LayerCount { expected: usize, got: usize },
    /// The requested operation is not available for this plan (e.g.
    /// memoised kernel transforms for an im2col-planned layer).
    Unsupported(&'static str),
}

impl std::fmt::Display for WinoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WinoError::Plan(e) => write!(f, "planning failed: {e}"),
            WinoError::Shape(e) => write!(f, "shape error: {e}"),
            WinoError::Pool(e) => write!(f, "parallel execution failed: {e}"),
            WinoError::Numeric(e) => write!(f, "numeric guard: {e}"),
            WinoError::Sentinel(e) => write!(f, "accuracy sentinel: {e}"),
            WinoError::Alloc(e) => write!(f, "allocation failed: {e}"),
            WinoError::LayerCount { expected, got } => {
                write!(f, "network has {expected} layers but {got} kernel banks were supplied")
            }
            WinoError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for WinoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WinoError::Plan(e) => Some(e),
            WinoError::Shape(e) => Some(e),
            WinoError::Pool(e) => Some(e),
            WinoError::Numeric(e) => Some(e),
            WinoError::Sentinel(e) => Some(e),
            WinoError::Alloc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for WinoError {
    fn from(e: PlanError) -> Self {
        WinoError::Plan(e)
    }
}

impl From<ShapeError> for WinoError {
    fn from(e: ShapeError) -> Self {
        WinoError::Shape(e)
    }
}

impl From<PoolError> for WinoError {
    fn from(e: PoolError) -> Self {
        WinoError::Pool(e)
    }
}

impl From<NumericError> for WinoError {
    fn from(e: NumericError) -> Self {
        WinoError::Numeric(e)
    }
}

impl From<SentinelError> for WinoError {
    fn from(e: SentinelError) -> Self {
        WinoError::Sentinel(e)
    }
}

impl From<AllocError> for WinoError {
    fn from(e: AllocError) -> Self {
        WinoError::Alloc(e)
    }
}

impl From<TensorError> for WinoError {
    fn from(e: TensorError) -> Self {
        match e {
            TensorError::Shape(s) => WinoError::Shape(s),
            TensorError::Alloc(a) => WinoError::Alloc(a),
        }
    }
}

/// `Err(Shape(Mismatch))` unless `got == expected`.
pub(crate) fn ensure_eq(what: &'static str, expected: usize, got: usize) -> Result<(), WinoError> {
    if got == expected {
        Ok(())
    } else {
        Err(ShapeError::Mismatch { what, expected, got }.into())
    }
}

/// `Err(Shape(Mismatch))` unless `got >= expected`.
pub(crate) fn ensure_at_least(
    what: &'static str,
    expected: usize,
    got: usize,
) -> Result<(), WinoError> {
    if got >= expected {
        Ok(())
    } else {
        Err(ShapeError::Mismatch { what, expected, got }.into())
    }
}

/// `Err(Shape(Mismatch))` unless the dimension lists agree (rank checked
/// first, then each extent).
pub(crate) fn ensure_dims_eq(
    what: &'static str,
    expected: &[usize],
    got: &[usize],
) -> Result<(), WinoError> {
    if expected.len() != got.len() {
        return Err(ShapeError::RankMismatch { expected: expected.len(), got: got.len() }.into());
    }
    for (&e, &g) in expected.iter().zip(got) {
        if e != g {
            return Err(ShapeError::Mismatch { what, expected: e, got: g }.into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_finite_reports_first_offender() {
        assert!(check_finite("output", &[1.0, 2.0, -3.0]).is_ok());
        let e = check_finite("output", &[1.0, f32::NAN, f32::INFINITY]).unwrap_err();
        assert_eq!(e.index, 1);
        assert_eq!(e.stage, "output");
        let e = check_finite("u", &[f32::NEG_INFINITY]).unwrap_err();
        assert_eq!(e.index, 0);
    }

    #[test]
    fn check_finite_agrees_with_the_scalar_scan_across_chunks() {
        // Several chunks plus a ragged tail; every extreme finite value
        // passes, and each kind of offender is found where the plain
        // `is_finite` scan finds it — first, last and on chunk boundaries.
        let n = 3 * 1024 + 37;
        let mut data: Vec<f32> = (0..n).map(|i| (i as f32 - 1500.0) * 0.25).collect();
        data[5] = f32::MAX;
        data[6] = f32::MIN;
        data[7] = f32::MIN_POSITIVE / 4.0; // subnormal
        data[8] = -0.0;
        assert!(check_finite("output", &data).is_ok());
        for at in [0, 1023, 1024, 2047, 3 * 1024, n - 1] {
            for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut d = data.clone();
                d[at] = bad;
                d[n - 1] = f32::NAN; // a later offender never wins
                let want = d.iter().position(|v| !v.is_finite());
                assert_eq!(check_finite("output", &d).unwrap_err().index, at);
                assert_eq!(want, Some(at));
            }
        }
        assert!(check_finite("output", &[]).is_ok());
    }

    #[test]
    fn display_formats() {
        let e = WinoError::Numeric(NumericError { stage: "output", index: 7 });
        assert!(e.to_string().contains("output"));
        assert!(e.to_string().contains('7'));
        let e = WinoError::LayerCount { expected: 3, got: 2 };
        assert!(e.to_string().contains('3'));
        let e = WinoError::Plan(PlanError::RankTooHigh { rank: 9 });
        assert!(e.to_string().contains("planning failed"));
    }

    #[test]
    fn source_chain_reaches_inner_errors() {
        use std::error::Error;
        let e = WinoError::Pool(PoolError::Unusable);
        assert!(e.source().is_some());
        let e = WinoError::Unsupported("x");
        assert!(e.source().is_none());
    }

    #[test]
    fn conversions() {
        let e: WinoError = PlanError::RankTooHigh { rank: 7 }.into();
        assert!(matches!(e, WinoError::Plan(_)));
        let e: WinoError = ShapeError::ZeroDim.into();
        assert!(matches!(e, WinoError::Shape(_)));
        let e: WinoError = PoolError::Unusable.into();
        assert!(matches!(e, WinoError::Pool(_)));
        let e: WinoError = NumericError { stage: "y", index: 0 }.into();
        assert!(matches!(e, WinoError::Numeric(_)));
    }

    #[test]
    fn ensure_helpers() {
        assert!(ensure_eq("batch", 2, 2).is_ok());
        assert!(matches!(
            ensure_eq("batch", 2, 3),
            Err(WinoError::Shape(ShapeError::Mismatch { what: "batch", expected: 2, got: 3 }))
        ));
        assert!(ensure_at_least("slots", 2, 4).is_ok());
        assert!(ensure_at_least("slots", 4, 2).is_err());
        assert!(ensure_dims_eq("dim", &[3, 4], &[3, 4]).is_ok());
        assert!(matches!(
            ensure_dims_eq("dim", &[3, 4], &[3, 5]),
            Err(WinoError::Shape(ShapeError::Mismatch { .. }))
        ));
        assert!(matches!(
            ensure_dims_eq("dim", &[3, 4], &[3]),
            Err(WinoError::Shape(ShapeError::RankMismatch { .. }))
        ));
    }
}
