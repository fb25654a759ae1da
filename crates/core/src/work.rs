//! Per-stage operation and traffic models for the observability layer
//! (DESIGN.md §8).
//!
//! [`WinogradLayer::work_model`] predicts, per pipeline stage, how many
//! floating-point operations one forward pass performs and how many bytes
//! it moves under an ideal-cache model (each logical buffer read or
//! written exactly once). The benchmark's traced report divides them by
//! each stage's measured span time for its per-stage `gflops` and
//! `computed_gbps`.
//!
//! ## Formulas
//!
//! With `ρ = B·N` panel rows, `T = ∏α_d` the tile volume, and
//! `O(P)` the scalar op count of one line of a generated 1-D transform
//! codelet `P` (FMA = 2 ops; the table row's count, which `build.rs`
//! takes from the paired program it prints):
//!
//! * **input-transform** — `Bᵀ` is square (`α_d → α_d`), applied along
//!   every dimension of every tile line: `ρ · C · Σ_d (T/α_d) · O(Bᵀ_d)`.
//! * **kernel-transform** — `G` expands `r_d → α_d` in dimension order,
//!   so applications along `d` count already-expanded dims before and
//!   unexpanded dims after: `C·C' · Σ_d (∏_{e<d} α_e · ∏_{e>d} r_e) ·
//!   O(G_d)`.
//! * **elementwise-gemm** — `T` products of `(ρ × C) · (C × C')`:
//!   `2 · T · ρ · C · C'` (logical rows; panel padding does a little
//!   extra real work that the model deliberately ignores).
//! * **output-transform** — `Aᵀ` contracts `α_d → m_d` in dimension
//!   order: `ρ · C' · Σ_d (∏_{e<d} m_e · ∏_{e>d} α_e) · O(Aᵀ_d)`.
//!
//! Byte counts move each buffer that leaves the core once, at its
//! allocated size (`footprint::BufferBytes`, the count the memory
//! footprint and the store-flavour rule use): the stage's inputs are read,
//! its outputs written. On a staged plan the elementwise-gemm reads `U`
//! and `V` and writes `Y`; a ring plan ([`WinogradLayer::is_fused`]) keeps
//! `U` and `Y` in its rings, so its three phases move the image in, `V`,
//! and the image out; a dual plan ([`WinogradLayer::is_dual`]) keeps `V`
//! and `Y` in its rings, so its kernel transform moves only the raw
//! kernels and its elementwise-gemm reads `U` once per `cols`-wide column
//! group. Real caches re-read evicted panels, so the modelled bytes are a
//! lower bound on the real traffic.

use wino_probe::{SpanCategory, StageWork, WorkModel};

use crate::footprint::BufferBytes;
use crate::fused::Schedule;
use crate::plan::WinogradLayer;

impl WinogradLayer {
    /// The per-stage operation/traffic model for one forward pass of this
    /// layer (see the module docs for the formulas).
    pub fn work_model(&self) -> WorkModel {
        let rank = self.rank();
        let rows = self.rows() as u128;
        let t_vol = self.t_vol() as u128;
        let c = self.shape.in_channels as u128;
        let cp = self.shape.out_channels as u128;
        let alpha = &self.grid.tile_dims;
        let m = &self.grid.m;
        let r = &self.shape.kernel_dims;

        // Σ_d applications·ops for each transform family.
        let mut bt_ops = 0u128;
        let mut g_ops = 0u128;
        let mut at_ops = 0u128;
        for (d, row) in self.table_rows().enumerate() {
            let (o_bt, o_g, o_at) = (row.bt_ops as u128, row.g_ops as u128, row.at_ops as u128);
            bt_ops += (t_vol / alpha[d] as u128) * o_bt;
            let mut g_apps = 1u128;
            let mut at_apps = 1u128;
            for e in 0..rank {
                if e < d {
                    g_apps *= alpha[e] as u128;
                    at_apps *= m[e] as u128;
                } else if e > d {
                    g_apps *= r[e] as u128;
                    at_apps *= alpha[e] as u128;
                }
            }
            g_ops += g_apps * o_g;
            at_ops += at_apps * o_at;
        }

        let b = BufferBytes::of(self);
        let bytes = |moved: &[usize]| moved.iter().map(|&n| n as u128).sum::<u128>();
        // A dual plan's column groups each read all of `U`, and its ring
        // holds one block of `V̂` at a time: none of `V̂` crosses memory.
        let (u_reads, v) = match self.schedule {
            Schedule::Dual { cols, .. } => (self.shape.out_channels / cols, 0),
            _ => (1, b.v),
        };

        let mut model = WorkModel::new();
        model.set(
            SpanCategory::InputTransform,
            StageWork {
                flops: rows * c * bt_ops,
                bytes: bytes(&[b.input, b.u]),
            },
        );
        model.set(
            SpanCategory::KernelTransform,
            StageWork {
                flops: c * cp * g_ops,
                bytes: bytes(&[b.kernels, v]),
            },
        );
        model.set(
            SpanCategory::ElementwiseGemm,
            StageWork {
                flops: 2 * t_vol * rows * c * cp,
                bytes: bytes(&[u_reads * b.u, v, b.y]),
            },
        );
        model.set(
            SpanCategory::OutputTransform,
            StageWork {
                flops: rows * cp * at_ops,
                bytes: bytes(&[b.y, b.output]),
            },
        );
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ConvOptions;
    use wino_tensor::ConvShape;

    fn layer_2d() -> WinogradLayer {
        let s = ConvShape::new(2, 32, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        WinogradLayer::new(s, &[2, 2], ConvOptions::default()).unwrap()
    }

    #[test]
    fn gemm_flops_formula() {
        let l = layer_2d();
        let w = l.work_model();
        let gemm = w.get(SpanCategory::ElementwiseGemm).unwrap();
        // T = 16 tiles of (rows × 32)·(32 × 32): rows = 2 · 25 = 50.
        assert_eq!(l.t_vol(), 16);
        assert_eq!(l.rows(), 50);
        assert_eq!(gemm.flops, 2 * 16 * 50 * 32 * 32);
    }

    #[test]
    fn input_transform_counts_bt_applications() {
        let l = layer_2d();
        let w = l.work_model();
        // F(2,3): Bᵀ is 4×4 with 4 adds per line; T/α = 4 lines per dim,
        // two dims → 32 ops per (tile, channel).
        let o_bt = wino_transforms::FmrPlan::new(2, 3).bt.op_count().total() as u128;
        let expect = l.rows() as u128 * 32 * 2 * (16 / 4) * o_bt;
        assert_eq!(w.get(SpanCategory::InputTransform).unwrap().flops, expect);
    }

    /// One layer, all three schedules, counted by hand: 2 × 32 → 32
    /// channels, 10² image, pad 1, F(2², 3²) — T = 16, 50 rows. A staged
    /// plan (two 16-channel reduction blocks, 6-row panels: 54 allocated
    /// rows) moves `U` and `Y` between its stages; a fused one only the
    /// images and `V`; a dual one (the same blocking, pinned) the images,
    /// the raw kernels and `U` — written once, read once per 16-wide column
    /// group.
    #[test]
    fn fused_and_staged_byte_totals_by_hand_count() {
        let image = 2 * 32 * 10 * 10 * 4; // in = out: 32 channels, 10² both
        let raw_kernels = 32 * 32 * 9 * 4;
        let v = 16 * 32 * 32 * 4;
        let (u, y) = (16 * 54 * 32 * 4, 16 * 50 * 32 * 4);
        let bytes = |l: &WinogradLayer| {
            let w = l.work_model();
            [
                SpanCategory::InputTransform,
                SpanCategory::KernelTransform,
                SpanCategory::ElementwiseGemm,
                SpanCategory::OutputTransform,
            ]
            .map(|cat| w.get(cat).unwrap().bytes)
        };
        let s = ConvShape::new(2, 32, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let staged = WinogradLayer::new(s.clone(), &[2, 2], crate::plan::split_reduction()).unwrap();
        assert!(!staged.is_fused() && !staged.is_dual() && layer_2d().is_fused());
        assert_eq!(bytes(&staged), [image + u, raw_kernels + v, u + v + y, y + image]);
        assert_eq!(bytes(&layer_2d()), [image, raw_kernels + v, v, image]);
        assert_eq!(staged.work_model().total_flops(), layer_2d().work_model().total_flops());
        let host = crate::plan::Host::test(crate::plan::Pin::Dual, false);
        let dual = WinogradLayer::new_on(s, &[2, 2], crate::plan::split_reduction(), host).unwrap();
        assert!(dual.is_dual());
        assert_eq!(bytes(&dual), [image + u, raw_kernels, 2 * u, image]);
        assert_eq!(dual.work_model().total_flops(), staged.work_model().total_flops());
    }

    #[test]
    fn all_stage_categories_modelled() {
        let w = layer_2d().work_model();
        for cat in [
            SpanCategory::InputTransform,
            SpanCategory::KernelTransform,
            SpanCategory::ElementwiseGemm,
            SpanCategory::OutputTransform,
        ] {
            let s = w.get(cat).unwrap();
            assert!(s.flops > 0, "{cat:?} flops");
            assert!(s.bytes > 0, "{cat:?} bytes");
        }
    }

    #[test]
    fn three_d_model_is_consistent() {
        let s = ConvShape::new(1, 16, 16, &[6, 8, 8], &[3, 3, 3], &[1, 1, 1]).unwrap();
        let l = WinogradLayer::new(s, &[2, 2, 2], ConvOptions::default()).unwrap();
        let w = l.work_model();
        let gemm = w.get(SpanCategory::ElementwiseGemm).unwrap();
        assert_eq!(
            gemm.flops,
            2 * l.t_vol() as u128 * l.rows() as u128 * 16 * 16
        );
        // Winograd total flops must undercut direct flops on this shape…
        // only for the gemm; transform overhead may push the total over.
        assert!(w.total_flops() > 0);
    }
}
