//! Run-time backend selection: one detection, one cache, one entry point.
//!
//! [`dispatch`] is the only way a [`Simd16`] type parameter comes into
//! existence. Each x86 backend is a zero-sized proof token
//! (`avx2::Avx2`, `avx512::Avx512`) that only `detect` can construct,
//! after `is_x86_feature_detected!` succeeded; the token's `run` is the
//! safe door into that backend's `#[target_feature]` arm, which calls the
//! kernel's `#[inline(always)]` generic body. The cached [`Backend`]
//! holds the token, so the hot path is one `OnceLock` load and a
//! three-way match per *task* (a tile, a micro-kernel call) — never a
//! function pointer in an inner loop.

use std::sync::OnceLock;

use crate::scalar;
use crate::Simd16;

#[cfg(target_arch = "x86_64")]
use crate::{avx2::Avx2, avx512::Avx512};

/// A computation written once against [`Simd16`] and compiled per
/// backend.
pub trait Kernel {
    /// What the computation returns.
    type Output;

    /// The body. Implementations **must** mark it `#[inline(always)]`
    /// (and likewise every `V`-generic helper it calls): it is inlined
    /// into the backend's `#[target_feature]` arm and only then sees the
    /// ISA. A body that is not inlined stays correct but runs the vector
    /// intrinsics as out-of-line calls.
    fn run<V: Simd16>(self) -> Self::Output;
}

/// A backend the running CPU was proven to support. Ordered: a later
/// variant implies every earlier one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `[f32; 16]`; always available.
    Scalar,
    /// Two `__m256` halves, AVX2 + FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
    /// One `__m512`, AVX-512F.
    #[cfg(target_arch = "x86_64")]
    Avx512(Avx512),
}

/// `WINO_SIMD` asked for something this process cannot do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IsaError {
    /// The value is not one of `scalar`, `avx2`, `avx512`.
    Unknown(String),
    /// The value names a backend above what the CPU supports (`best`).
    Unsupported { requested: String, best: &'static str },
}

impl std::fmt::Display for IsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsaError::Unknown(v) => {
                write!(f, "WINO_SIMD={v:?} is not one of scalar, avx2, avx512")
            }
            IsaError::Unsupported { requested, best } => write!(
                f,
                "WINO_SIMD={requested} is not supported by this CPU (best backend: {best}); \
                 the override can only lower the backend"
            ),
        }
    }
}

impl std::error::Error for IsaError {}

impl Backend {
    const NAMES: [&'static str; 3] = ["scalar", "avx2", "avx512"];

    /// Every backend the CPU supports, weakest first (ignores
    /// `WINO_SIMD`).
    fn detected() -> Vec<Backend> {
        let mut all = vec![Backend::Scalar];
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            all.push(Backend::Avx2(avx2));
            if let Some(avx512) = Avx512::detect() {
                all.push(Backend::Avx512(avx512));
            }
        }
        all
    }

    /// The backend `request` (the `WINO_SIMD` value, if set) selects
    /// among `detected`: the strongest one by default, a weaker one by
    /// name, never a stronger one.
    fn resolve(detected: &[Backend], request: Option<&str>) -> Result<Backend, IsaError> {
        let best = *detected.last().expect("scalar is always detected");
        let Some(name) = request else { return Ok(best) };
        if let Some(b) = detected.iter().find(|b| b.name() == name) {
            Ok(*b)
        } else if Self::NAMES.contains(&name) {
            Err(IsaError::Unsupported { requested: name.to_string(), best: best.name() })
        } else {
            Err(IsaError::Unknown(name.to_string()))
        }
    }

    /// Every backend this process may run, weakest first: what the CPU
    /// supports, cut off at the active backend. Cross-backend tests
    /// iterate this.
    pub fn available() -> Vec<Backend> {
        let active = backend();
        let mut all = Self::detected();
        all.truncate(1 + all.iter().position(|b| *b == active).expect("active is detected"));
        all
    }

    /// `"scalar"`, `"avx2"` or `"avx512"`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => "avx2",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => "avx512",
        }
    }

    /// Run `k` on this backend.
    #[inline]
    pub fn run<K: Kernel>(self, k: K) -> K::Output {
        match self {
            Backend::Scalar => k.run::<scalar::F32x16>(),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(isa) => isa.run(k),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(isa) => isa.run(k),
        }
    }
}

static ACTIVE: OnceLock<Result<Backend, IsaError>> = OnceLock::new();

/// The active backend: the strongest the CPU supports, lowered by
/// `WINO_SIMD` if set. Detection and the environment read happen on the
/// first call; the outcome (including an error) is cached for the
/// process.
#[inline]
pub fn try_backend() -> Result<Backend, IsaError> {
    ACTIVE
        .get_or_init(|| {
            let request = std::env::var("WINO_SIMD").ok();
            Backend::resolve(&Backend::detected(), request.as_deref())
        })
        .clone()
}

/// [`try_backend`] for callers with no error channel (every vector
/// kernel).
///
/// # Panics
/// With the [`IsaError`] message when `WINO_SIMD` cannot be honoured:
/// running a different backend than the one asked for would silently
/// invalidate whatever the override was set to test.
#[inline]
pub fn backend() -> Backend {
    try_backend().unwrap_or_else(|e| panic!("{e}"))
}

/// Run `k` on the active backend.
#[inline]
pub fn dispatch<K: Kernel>(k: K) -> K::Output {
    backend().run(k)
}

/// Name of the active backend (for logs and bench reports).
pub fn backend_name() -> &'static str {
    backend().name()
}

/// True if the vector kernels may use AVX-512F: the CPU has it and
/// `WINO_SIMD` has not lowered the backend below it. `wino-jit` keys its
/// EVEX emission on this, so the JIT and the dispatched kernels agree.
pub fn cpu_has_avx512f() -> bool {
    backend().name() == "avx512"
}

/// True if the vector kernels may use AVX2 and FMA (see
/// [`cpu_has_avx512f`]).
pub fn cpu_has_avx2_fma() -> bool {
    backend().name() != "scalar"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_strongest_detected() {
        let detected = Backend::detected();
        assert_eq!(detected[0], Backend::Scalar);
        assert_eq!(Backend::resolve(&detected, None), Ok(*detected.last().unwrap()));
    }

    #[test]
    fn override_lowers_but_never_raises() {
        let detected = Backend::detected();
        for b in &detected {
            assert_eq!(Backend::resolve(&detected, Some(b.name())), Ok(*b));
        }
        // A scalar-only machine: every vector request is unsupported.
        let scalar_only = [Backend::Scalar];
        for name in ["avx2", "avx512"] {
            assert_eq!(
                Backend::resolve(&scalar_only, Some(name)),
                Err(IsaError::Unsupported { requested: name.into(), best: "scalar" })
            );
        }
    }

    #[test]
    fn unknown_override_is_a_typed_error() {
        for bad in ["", "AVX2", "sse2", "native"] {
            let err = Backend::resolve(&Backend::detected(), Some(bad)).unwrap_err();
            assert_eq!(err, IsaError::Unknown(bad.into()));
            assert!(err.to_string().contains("scalar, avx2, avx512"), "{err}");
        }
    }

    /// The direction nobody tested while the backend was a `cfg`: with no
    /// override, a CPU feature must actually be *used*.
    #[test]
    fn detected_features_select_the_matching_backend() {
        if std::env::var_os("WINO_SIMD").is_some() {
            eprintln!("skipping: WINO_SIMD is set");
            return;
        }
        #[cfg(target_arch = "x86_64")]
        let want = {
            let fma = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            match (fma, std::arch::is_x86_feature_detected!("avx512f")) {
                (true, true) => "avx512",
                (true, false) => "avx2",
                (false, _) => "scalar",
            }
        };
        #[cfg(not(target_arch = "x86_64"))]
        let want = "scalar";
        assert_eq!(backend_name(), want);
        assert_eq!(cpu_has_avx512f(), want == "avx512");
        assert_eq!(cpu_has_avx2_fma(), want != "scalar");
    }

    #[test]
    fn available_ends_at_the_active_backend() {
        let available = Backend::available();
        assert_eq!(available[0], Backend::Scalar);
        assert_eq!(*available.last().unwrap(), backend());
        let detected = Backend::detected();
        assert_eq!(available[..], detected[..available.len()]);
    }

}
