//! A deliberately *generic* batched GEMM — the stand-in for the library
//! kernels (MKL / LIBXSMM) the paper benchmarks against in Fig. 6.
//!
//! It is competent — cache-blocked over the same block-panel layout, inner
//! loops written so LLVM auto-vectorises the AXPY — but it is not
//! specialised for the problem: no per-size monomorphisation, no register
//! tiling of the accumulators (partial sums round-trip through the
//! `X̂` block), no software prefetch, no streaming scatter. The gap between
//! this and `crate::blocked` is the quantity Fig. 6 measures.

use wino_tensor::BlockedMatrices;

/// Batched product `X_t = U_t · V_t` using generic (non-specialised)
/// kernels. Same shape contract as [`crate::batched_gemm`].
pub fn batched_gemm_generic(u: &BlockedMatrices, v: &BlockedMatrices, x: &mut BlockedMatrices) {
    assert_eq!(u.t_count(), v.t_count());
    assert_eq!(u.t_count(), x.t_count());
    assert_eq!(u.cols(), v.rows());
    assert_eq!(u.rows(), x.rows());
    assert_eq!(v.cols(), x.cols());
    assert_eq!(u.cb(), v.rb());
    assert_eq!(u.rb(), x.rb());
    assert_eq!(v.cb(), x.cb());

    let (n_blk, c_blk, cp_blk) = (u.rb(), u.cb(), v.cb());
    let k_blocks = v.rows() / v.rb();
    let x_base = x.as_mut_ptr();
    for t in 0..u.t_count() {
        for j in 0..v.col_blocks() {
            for k in 0..k_blocks {
                for i in 0..u.row_blocks() {
                    let ub = u.block(i, k, t);
                    let vb = v.block(k, j, t);
                    let xo = x.block_offset(i, j, t);
                    // SAFETY: exclusive &mut x; block is rb·cb in bounds.
                    let xb = unsafe {
                        std::slice::from_raw_parts_mut(x_base.add(xo), n_blk * cp_blk)
                    };
                    if k == 0 {
                        xb.fill(0.0);
                    }
                    // Row-at-a-time AXPY: accumulators live in memory (the
                    // "generic" inefficiency Fig. 6 exposes).
                    for r in 0..n_blk {
                        let urow = &ub[r * c_blk..(r + 1) * c_blk];
                        let xrow = &mut xb[r * cp_blk..(r + 1) * cp_blk];
                        for (kk, &a) in urow.iter().enumerate() {
                            let vrow = &vb[kk * cp_blk..(kk + 1) * cp_blk];
                            for (xv, &vv) in xrow.iter_mut().zip(vrow) {
                                *xv += a * vv;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::{batched_gemm, dense_reference};

    fn fill(m: &mut BlockedMatrices, seed: usize) {
        for t in 0..m.t_count() {
            for r in 0..m.rows() {
                for c in 0..m.cols() {
                    let h = (t * 131 + r * 31 + c * 7 + seed).wrapping_mul(0x9E3779B9);
                    m.set(t, r, c, ((h >> 20) % 512) as f32 / 256.0 - 1.0);
                }
            }
        }
    }

    #[test]
    fn generic_matches_dense_reference() {
        let (t, rows, c, cp) = (2, 20, 32, 48);
        let mut u = BlockedMatrices::new(t, rows, c, 6, 16);
        let mut v = BlockedMatrices::new(t, c, cp, 16, 16);
        let mut x = BlockedMatrices::new(t, rows, cp, 6, 16);
        fill(&mut u, 0);
        fill(&mut v, 9);
        batched_gemm_generic(&u, &v, &mut x);
        for tt in 0..t {
            let want = dense_reference(&u.to_dense(tt), &v.to_dense(tt), rows, c, cp);
            let got = x.to_dense(tt);
            for i in 0..want.len() {
                assert!((got[i] - want[i]).abs() <= 1e-3 * want[i].abs().max(1.0));
            }
        }
    }

    #[test]
    fn generic_matches_specialised() {
        let (t, rows, c, cp) = (3, 33, 64, 64);
        let mut u = BlockedMatrices::new(t, rows, c, 8, 32);
        let mut v = BlockedMatrices::new(t, c, cp, 32, 32);
        fill(&mut u, 5);
        fill(&mut v, 6);
        let mut xa = BlockedMatrices::new(t, rows, cp, 8, 32);
        let mut xb = BlockedMatrices::new(t, rows, cp, 8, 32);
        batched_gemm_generic(&u, &v, &mut xa);
        batched_gemm(&u, &v, &mut xb);
        for tt in 0..t {
            let a = xa.to_dense(tt);
            let b = xb.to_dense(tt);
            for i in 0..a.len() {
                assert!(
                    (a[i] - b[i]).abs() <= 1e-3 * b[i].abs().max(1.0),
                    "t={tt} elem {i}: {} vs {}",
                    a[i],
                    b[i]
                );
            }
        }
    }
}
