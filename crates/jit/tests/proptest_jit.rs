//! Property-style differential testing of the machine-code generator,
//! driven by the seeded `wino-rng` generator (no registry access, so no
//! `proptest`): for arbitrary legal kernel shapes and random data, the
//! JIT kernel must agree with the scalar reference (and hence with the
//! monomorphised engine, which is tested against the same oracle).

use wino_gemm::microkernel_reference;
use wino_jit::{JitKernel, JitOutput};
use wino_rng::Rng;
use wino_simd::AlignedVec;

fn filled(n: usize, seed: u64) -> AlignedVec {
    let mut v = AlignedVec::zeroed(n);
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    for x in v.iter_mut() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *x = ((s >> 40) as f32 / (1u64 << 23) as f32) - 1.0;
    }
    v
}

#[test]
fn jit_block_kernel_matches_reference() {
    if !wino_simd::cpu_has_avx512f() {
        return;
    }
    let mut rng = Rng::seed_from_u64(0x317b);
    for _ in 0..32 {
        let n_blk = rng.range_usize(1, 30);
        let c_blk = rng.range_usize(1, 96);
        let cp_blk = rng.range_usize(1, 6) * 16;
        let beta = rng.next_bool();
        let seed = rng.next_u64() % 10_000;
        let u = filled(n_blk * c_blk, seed);
        let v = filled(c_blk * cp_blk, seed ^ 1);
        let x0 = filled(n_blk * cp_blk, seed ^ 2);
        let mut x_jit = x0.clone();
        let mut x_ref: Vec<f32> = x0.as_slice().to_vec();

        let kern = JitKernel::compile(n_blk, c_blk, cp_blk, beta).unwrap();
        unsafe { kern.call(u.as_ptr(), v.as_ptr(), x_jit.as_mut_ptr()) };
        microkernel_reference(n_blk, &u, &v, &mut x_ref, c_blk, cp_blk, beta);
        for i in 0..n_blk * cp_blk {
            let (a, b) = (x_jit[i], x_ref[i]);
            assert!(
                (a - b).abs() <= 1e-4 * b.abs().max(1.0),
                "n_blk={n_blk} c_blk={c_blk} cp_blk={cp_blk} beta={beta} elem {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn jit_scatter_kernel_matches_reference() {
    if !wino_simd::cpu_has_avx512f() {
        return;
    }
    let mut rng = Rng::seed_from_u64(0x5ca7);
    for _ in 0..32 {
        let n_blk = rng.range_usize(1, 12);
        let c_blk = rng.range_usize(1, 48);
        let cp_q = rng.range_usize(1, 4);
        let beta = rng.next_bool();
        let stride_extra = rng.range_usize(0, 3); // group_stride = cp-group + padding·16
        let seed = rng.next_u64() % 10_000;
        let cp_blk = cp_q * 16;
        let group_stride = 16 + stride_extra * 16;
        let u = filled(n_blk * c_blk, seed);
        let v = filled(c_blk * cp_blk, seed ^ 3);
        let x0 = filled(n_blk * cp_blk, seed ^ 4);
        let mut x_ref: Vec<f32> = x0.as_slice().to_vec();
        microkernel_reference(n_blk, &u, &v, &mut x_ref, c_blk, cp_blk, beta);

        let row_span = 1024usize;
        let mut arena = AlignedVec::zeroed(n_blk * row_span + cp_q * group_stride);
        let base = arena.as_mut_ptr();
        let row_ptrs: Vec<*mut f32> =
            (0..n_blk).map(|j| unsafe { base.add(j * row_span) }).collect();

        let kern = JitKernel::compile_with_output(
            n_blk,
            c_blk,
            cp_blk,
            beta,
            // Both store flavours of operation ⑥, by the case's parity.
            JitOutput::Scatter { group_stride, streaming: seed.is_multiple_of(2) },
        )
        .unwrap();
        unsafe { kern.call_scatter(u.as_ptr(), v.as_ptr(), x0.as_ptr(), row_ptrs.as_ptr()) };
        wino_simd::sfence();

        for j in 0..n_blk {
            for q in 0..cp_q {
                for lane in 0..16 {
                    let got = arena[j * row_span + q * group_stride + lane];
                    let want = x_ref[j * cp_blk + q * 16 + lane];
                    assert!(
                        (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                        "row {j} group {q} lane {lane}: {got} vs {want}"
                    );
                }
            }
        }
    }
}
