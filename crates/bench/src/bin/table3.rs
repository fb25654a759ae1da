//! Table 3 harness: element errors of Winograd convolution for various
//! `F(m, r)`, against an extended-precision direct-convolution ground
//! truth.
//!
//! Reproduces the paper's protocol (§5.3): inputs uniform in
//! `[-0.1, 0.1]`; training errors with Xavier-initialised kernels,
//! inference errors with (pseudo-)pretrained kernels; `max` and `avg`
//! absolute element errors reported per `F(m, r)`, with f32 direct
//! convolution as the control column.
//!
//! ```text
//! cargo run -p wino-bench --release --bin table3 -- [--threads N] [--small]
//! ```
//!
//! The engine plans the Wincnn-style fractional points only; for the
//! integer schedule `accuracy` prints the exact γ beside the mixed one.

use wino_baseline::{direct_conv, direct_f64, element_errors};
use wino_bench::{make_executor, Args};
use wino_conv::{ConvOptions, Scratch, WinogradLayer};
use wino_sched::Executor;
use wino_tensor::{BlockedImage, BlockedKernels, ConvShape, SimpleImage, SimpleKernels};
use wino_workloads::{pretrained_kernels, uniform_input, xavier_kernels};

struct Case {
    name: String,
    m: Option<Vec<usize>>, // None = direct f32 control
}

fn winograd_out(
    shape: &ConvShape,
    m: &[usize],
    img: &SimpleImage,
    ker: &SimpleKernels,
    exec: &dyn Executor,
) -> SimpleImage {
    let layer = WinogradLayer::new(shape.clone(), m, ConvOptions::default())
        .expect("table3 plans must be valid");
    let input = BlockedImage::from_simple(img).unwrap();
    let kernels = BlockedKernels::from_simple(ker).unwrap();
    let mut out = layer.new_output().unwrap();
    let mut scratch = Scratch::new(&layer, exec.threads());
    layer.forward(&input, &kernels, &mut out, &mut scratch, exec).expect("table3 forward failed");
    out.to_simple()
}

fn direct_out(shape: &ConvShape, img: &SimpleImage, ker: &SimpleKernels, exec: &dyn Executor) -> SimpleImage {
    let input = BlockedImage::from_simple(img).unwrap();
    let kernels = BlockedKernels::from_simple(ker).unwrap();
    let mut out = BlockedImage::zeros(shape.batch, shape.out_channels, &shape.out_dims()).unwrap();
    direct_conv(&input, &kernels, &shape.padding, &mut out, exec).expect("table3 direct_conv failed");
    out.to_simple()
}

fn run_block(title: &str, shape: &ConvShape, cases: &[Case], exec: &dyn Executor) {
    eprintln!("# computing ground truth for {title}…");
    let img = uniform_input(shape, 2024);
    let train_ker = xavier_kernels(shape, 7);
    let infer_ker = pretrained_kernels(shape, 7);
    let truth_train = direct_f64(&img, &train_ker, &shape.padding);
    let truth_infer = direct_f64(&img, &infer_ker, &shape.padding);

    let mut rows: Vec<(String, [f64; 4])> = Vec::new();
    for case in cases {
        let (out_train, out_infer) = match &case.m {
            None => (
                direct_out(shape, &img, &train_ker, exec),
                direct_out(shape, &img, &infer_ker, exec),
            ),
            Some(m) => (
                winograd_out(shape, m, &img, &train_ker, exec),
                winograd_out(shape, m, &img, &infer_ker, exec),
            ),
        };
        let (tmax, tavg) = element_errors(&out_train, &truth_train);
        let (imax, iavg) = element_errors(&out_infer, &truth_infer);
        rows.push((case.name.clone(), [tmax, tavg, imax, iavg]));
    }

    println!("\n== {title} ==");
    print!("{:<12}", "");
    for (name, _) in &rows {
        print!("{name:>14}");
    }
    println!();
    for (i, label) in ["Train max", "Train avg", "Infer max", "Infer avg"].iter().enumerate() {
        print!("{label:<12}");
        for (_, e) in &rows {
            print!("{:>14.2E}", e[i]);
        }
        println!();
    }
}

fn main() {
    let args = Args::from_env();
    let exec = make_executor(&args);
    // Error statistics are distribution properties — a mid-size layer is
    // representative; --small shrinks further for quick checks.
    let small = args.flag("--small");
    let (img2d, img3d) = if small { (28, [8, 14, 14]) } else { (56, [12, 28, 28]) };

    let mk = |name: &str, m: Vec<usize>| Case { name: name.into(), m: Some(m) };
    let direct = || Case { name: "Direct".into(), m: None };

    let shape2d = ConvShape::new(1, 64, 64, &[img2d, img2d], &[3, 3], &[1, 1]).unwrap();
    let tiles2d: Vec<(&str, Vec<usize>)> = vec![
        ("F(2²,3²)", vec![2, 2]),
        ("F(4²,3²)", vec![4, 4]),
        ("F(6²,3²)", vec![6, 6]),
        ("F(6x8,3²)", vec![6, 8]),
        ("F(8²,3²)", vec![8, 8]),
    ];
    let mut cases2d = vec![direct()];
    cases2d.extend(tiles2d.iter().map(|(n, m)| mk(n, m.clone())));
    run_block(
        "VGG-style 2D layer (Table 3, top) — Wincnn-style fractional points",
        &shape2d,
        &cases2d,
        exec.as_ref(),
    );

    let shape3d = ConvShape::new(1, 64, 64, &img3d, &[3, 3, 3], &[1, 1, 1]).unwrap();
    let tiles3d: Vec<(&str, Vec<usize>)> = vec![
        ("F(2³,3³)", vec![2, 2, 2]),
        ("F(4³,3³)", vec![4, 4, 4]),
        ("F(4x6²,3³)", vec![4, 6, 6]),
        ("F(6³,3³)", vec![6, 6, 6]),
        ("F(8x6²,3³)", vec![8, 6, 6]),
    ];
    let mut cases3d = vec![direct()];
    cases3d.extend(tiles3d.iter().map(|(n, m)| mk(n, m.clone())));
    run_block(
        "C3D-style 3D layer (Table 3, bottom) — Wincnn-style fractional points",
        &shape3d,
        &cases3d,
        exec.as_ref(),
    );
}
