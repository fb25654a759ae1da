//! Kernel sizes other than 3 — the headline generality claim; every
//! `F(m ≤ 8, r ≤ 5)` runs generated codelets. Runs the
//! Budden et al. sample network (3 layers, 32 channels, the "unusual"
//! 4×4 kernels from §5.1) with `F(3×3, 4×4)` Winograd and reports
//! throughput in MVox/s, plus a 1-D and a 5×5 example for good measure.
//!
//! ```text
//! cargo run --release --example custom_kernel_4x4
//! ```

use wino_baseline::direct_f64;
use wino_conv::{convolve_simple, ConvOptions, Scratch, WinogradLayer};
use wino_sched::SerialExecutor;
use wino_tensor::{BlockedImage, BlockedKernels, SimpleImage, SimpleKernels};
use wino_workloads::{budden_sample_net, mvox_per_sec, time_best, uniform_input, xavier_kernels};

fn main() {
    println!("== Budden sample network: 3 layers of 4x4 kernels, 32 channels ==");
    for layer in budden_sample_net(128) {
        let plan = WinogradLayer::new(layer.shape.clone(), &[3, 3], ConvOptions::default())
            .expect("F(3x3, 4x4) plans fine");
        let input = BlockedImage::from_simple(&uniform_input(&layer.shape, 5)).unwrap();
        let kernels =
            BlockedKernels::from_simple(&xavier_kernels(&layer.shape, 6)).unwrap();
        let mut out = plan.new_output().unwrap();
        let mut scratch = Scratch::new(&plan, 1);
        let t = time_best(3, || {
            plan.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor)
                .expect("example forward failed");
        });
        println!(
            "  layer {}: tile {:?} (alpha 6), {:.2} ms -> {:.1} MVox/s",
            layer.label,
            plan.grid.tile_dims,
            t.best_ms,
            mvox_per_sec(&layer.shape, t.best_ms)
        );
    }

    println!("== 5x5 kernels with F(2x2, 5x5) ==");
    let img = SimpleImage::from_fn(1, 16, &[20, 20], |_, c, xy| {
        ((c + xy[0] * 2 + xy[1]) % 9) as f32 * 0.1
    });
    let ker = SimpleKernels::from_fn(16, 16, &[5, 5], |co, ci, xy| {
        ((co + ci + xy[0] + xy[1]) % 7) as f32 * 0.05 - 0.15
    });
    let out = convolve_simple(&img, &ker, &[2, 2], &[2, 2]).unwrap();
    let want = direct_f64(&img, &ker, &[2, 2]);
    let (max_err, _) = wino_baseline::element_errors(&out, &want);
    println!("  5x5 'same' conv: out {:?}, max err {max_err:.2e}", out.dims);
    assert!(max_err < 1e-3);

    println!("== 1-D signals with F(8, 3) ==");
    let sig = SimpleImage::from_fn(4, 16, &[257], |b, c, x| {
        ((b * 3 + c + x[0]) % 13) as f32 * 0.07 - 0.4
    });
    let taps = SimpleKernels::from_fn(16, 16, &[3], |co, ci, x| {
        ((co * 2 + ci + x[0]) % 5) as f32 * 0.2 - 0.4
    });
    let out = convolve_simple(&sig, &taps, &[1], &[8]).unwrap();
    let want = direct_f64(&sig, &taps, &[1]);
    let (max_err, _) = wino_baseline::element_errors(&out, &want);
    println!("  1-D conv over 257 samples: out {:?}, max err {max_err:.2e}", out.dims);
    assert!(max_err < 1e-2);
    println!("OK — kernels up to 5 wide, signals of any rank.");
}
