//! A miniature VGG-style network through the [`wino_conv::Network`]
//! runner: five same-padded 3×3 layers with ReLU, one shared auxiliary
//! buffer (§4.4), comparing training-mode and memoised-kernel ("FX")
//! inference end to end.
//!
//! ```text
//! cargo run --release --example mini_vgg_net
//! ```

use wino_conv::{ConvOptions, LayerSpec, Network};
use wino_sched::SerialExecutor;
use wino_tensor::{BlockedImage, BlockedKernels, SimpleKernels};
use wino_workloads::time_best;

fn main() {
    // conv3-32, conv3-32, conv3-64, conv3-64, conv3-64 — a VGG-A flavoured
    // stack (pooling omitted; it is not a convolution concern).
    let specs = vec![
        LayerSpec::same(32, 2, 3, 4),
        LayerSpec::same(32, 2, 3, 4),
        LayerSpec::same(64, 2, 3, 4),
        LayerSpec::same(64, 2, 3, 4),
        LayerSpec::same(64, 2, 3, 4),
    ];
    let mut net = Network::new(1, 16, &[56, 56], &specs, ConvOptions::default(), 1)
        .expect("network plans");
    println!(
        "{} layers, shared auxiliary buffer {:.1} MiB",
        net.num_layers(),
        net.scratch_bytes() as f64 / (1 << 20) as f64
    );

    // Deterministic weights per layer.
    let kernels: Vec<BlockedKernels> = net
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let s = &l.plan.shape;
            let k = SimpleKernels::from_fn(s.out_channels, s.in_channels, &[3, 3], |co, ci, xy| {
                ((co * 5 + ci * 3 + xy[0] + xy[1] * 2 + i * 7) % 17) as f32 * 0.02 - 0.15
            });
            BlockedKernels::from_simple(&k).unwrap()
        })
        .collect();

    let img = wino_workloads::uniform_input(&net.layers()[0].plan.shape, 77);
    let input = BlockedImage::from_simple(&img).unwrap();

    let train = net.forward(&input, &kernels, &SerialExecutor).unwrap();
    let t_train = time_best(3, || {
        net.forward(&input, &kernels, &SerialExecutor).unwrap();
    });

    let tks = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();
    let fx = net.forward_fx(&input, &tks, &SerialExecutor).unwrap();
    let t_fx = time_best(3, || {
        net.forward_fx(&input, &tks, &SerialExecutor).unwrap();
    });

    assert_eq!(train.as_slice(), fx.as_slice(), "FX must be bit-identical");
    println!("final activation: {:?} × {} channels", fx.dims, fx.channels);
    println!("training-mode forward: {:.2} ms", t_train.best_ms);
    println!(
        "inference (FX) forward: {:.2} ms  ({:.1}% saved by memoising kernel transforms)",
        t_fx.best_ms,
        (1.0 - t_fx.best_ms / t_train.best_ms) * 100.0
    );
}
