//! Every [`Simd16`] operation, on every backend this process may run,
//! against per-lane scalar arithmetic. The x86 arms are compiled into
//! every build, so this is the test that executes them wherever the CPU
//! allows — and says which ones it could not reach.

use wino_simd::{sfence, AlignedVec, Backend, Kernel, Simd16};

/// Lane values of every operation's result.
struct Lanes {
    zero: [f32; 16],
    splat: [f32; 16],
    /// `load` from a 4-byte-misaligned address, then `store` to another.
    moved: [f32; 16],
    sliced: [f32; 16],
    add: [f32; 16],
    sub: [f32; 16],
    mul: [f32; 16],
    fma: [f32; 16],
}

struct EveryOp<'a> {
    a: &'a [f32; 16],
    b: &'a [f32; 16],
    c: &'a [f32; 16],
    /// Two vectors' worth of 64-byte aligned floats for `store_nt`.
    streamed: &'a mut AlignedVec,
}

impl Kernel for EveryOp<'_> {
    type Output = Lanes;

    #[inline(always)]
    fn run<V: Simd16>(self) -> Lanes {
        let (a, b, c) = (V::from_slice(self.a), V::from_slice(self.b), V::from_slice(self.c));

        let mut raw = [0.0f32; 34];
        raw[1..17].copy_from_slice(self.a);
        // SAFETY: floats 1..17 are read and 18..34 written, both inside
        // the 34-float buffer.
        let moved = unsafe {
            V::load(raw.as_ptr().add(1)).store(raw.as_mut_ptr().add(18));
            std::array::from_fn(|i| raw[18 + i])
        };

        let mut sliced = [0.0f32; 16];
        b.write_to_slice(&mut sliced);

        assert!(self.streamed.len() >= 32);
        // SAFETY: the buffer is 64-byte aligned and holds two vectors.
        unsafe {
            a.store_nt(self.streamed.as_mut_ptr());
            c.store_nt(self.streamed.as_mut_ptr().add(16));
        }

        Lanes {
            zero: V::zero().to_array(),
            splat: V::splat(3.25).to_array(),
            moved,
            sliced,
            add: (a + b).to_array(),
            sub: (a - b).to_array(),
            mul: (a * b).to_array(),
            fma: a.mul_add(b, c).to_array(),
        }
    }
}

#[test]
fn every_op_matches_per_lane_arithmetic_on_every_backend() {
    // Inexact products and sums, so a fused and an unfused multiply-add
    // round differently on some lanes.
    let a: [f32; 16] = std::array::from_fn(|i| (i as f32 - 7.5) * 1.1);
    let b: [f32; 16] = std::array::from_fn(|i| 0.3 * i as f32 + 1.0 / 3.0);
    let c: [f32; 16] = std::array::from_fn(|i| 10.0 - 0.7 * i as f32);

    let available = Backend::available();
    for name in ["scalar", "avx2", "avx512"] {
        if !available.iter().any(|b| b.name() == name) {
            eprintln!("backend_differential: skipped {name} (not available in this process)");
        }
    }

    for backend in available {
        let name = backend.name();
        let mut streamed = AlignedVec::zeroed(32);
        let got = backend.run(EveryOp { a: &a, b: &b, c: &c, streamed: &mut streamed });
        sfence();

        assert_eq!(got.zero, [0.0; 16], "{name} zero");
        assert_eq!(got.splat, [3.25; 16], "{name} splat");
        assert_eq!(got.moved, a, "{name} unaligned load/store");
        assert_eq!(got.sliced, b, "{name} write_to_slice");
        assert_eq!(&streamed[..16], &a, "{name} store_nt");
        assert_eq!(&streamed[16..32], &c, "{name} store_nt (second line)");
        let mut fused_lanes = 0;
        for i in 0..16 {
            assert_eq!(got.add[i], a[i] + b[i], "{name} add lane {i}");
            assert_eq!(got.sub[i], a[i] - b[i], "{name} sub lane {i}");
            assert_eq!(got.mul[i], a[i] * b[i], "{name} mul lane {i}");
            let (fused, unfused) = (a[i].mul_add(b[i], c[i]), a[i] * b[i] + c[i]);
            assert!(
                got.fma[i] == fused || got.fma[i] == unfused,
                "{name} mul_add lane {i}: {} vs {fused} / {unfused}",
                got.fma[i]
            );
            fused_lanes += (fused != unfused && got.fma[i] == fused) as usize;
        }
        // The x86 backends promise one rounding; scalar promises two.
        if name == "scalar" {
            assert_eq!(fused_lanes, 0, "scalar mul_add must not fuse");
        } else {
            assert!(fused_lanes > 0, "{name} mul_add did not fuse on any lane");
        }
    }
}
