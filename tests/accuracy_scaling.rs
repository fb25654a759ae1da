//! Integration tests for the evaluation-side claims: Table 3's error
//! monotonicity, the FLOP accounting used in Fig. 5 reporting, and
//! wisdom-guided planning. (The point-schedule conditioning ablation is
//! exact arithmetic: `wino_transforms::conditioning`'s tests.)

use winograd_nd_repro::baseline::{direct_f64, element_errors};
use winograd_nd_repro::conv::{ConvOptions, Scratch, WinogradLayer};
use winograd_nd_repro::sched::SerialExecutor;
use winograd_nd_repro::tensor::{BlockedImage, BlockedKernels, ConvShape};
use winograd_nd_repro::workloads::{
    effective_gflops, full_catalog, scaled_catalog, uniform_input, xavier_kernels,
};

fn winograd_error(shape: &ConvShape, m: &[usize]) -> (f64, f64) {
    let img = uniform_input(shape, 99);
    let ker = xavier_kernels(shape, 100);
    let truth = direct_f64(&img, &ker, &shape.padding);
    let plan = WinogradLayer::new(shape.clone(), m, ConvOptions::default()).unwrap();
    let input = BlockedImage::from_simple(&img).unwrap();
    let kernels = BlockedKernels::from_simple(&ker).unwrap();
    let mut out = plan.new_output().unwrap();
    let mut scratch = Scratch::new(&plan, 1);
    plan.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
    element_errors(&out.to_simple(), &truth)
}

#[test]
fn table3_error_grows_monotonically_with_tile_size() {
    // The Table 3 law, stated against the a-priori error model instead
    // of sampling luck: for every practical F(m, r) the *measured* max
    // relative error stays within the
    // exact-conditioning bound (`predicted_bound`, the runtime-sentinel
    // trip threshold), and the *predicted* bounds — which drive
    // budget-based tile selection — are strictly monotone in m.
    for r in [3usize, 5] {
        let pad = r / 2;
        let shape = ConvShape::new(1, 32, 32, &[20, 20], &[r, r], &[pad, pad]).unwrap();
        let img = uniform_input(&shape, 99);
        let ker = xavier_kernels(&shape, 100);
        let truth = direct_f64(&img, &ker, &shape.padding);
        let truth_inf =
            truth.data.iter().fold(0.0f64, |a, &v| a.max((v as f64).abs())).max(1.0);
        let mut last_bound = 0.0f64;
        for m in [2usize, 4, 6, 8] {
            let plan = WinogradLayer::new(shape.clone(), &[m, m], ConvOptions::default()).unwrap();
            let bound = plan.predicted_bound();

            let input = BlockedImage::from_simple(&img).unwrap();
            let kernels = BlockedKernels::from_simple(&ker).unwrap();
            let mut out = plan.new_output().unwrap();
            let mut scratch = Scratch::new(&plan, 1);
            plan.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
            let (max_err, avg_err) = element_errors(&out.to_simple(), &truth);
            let measured = max_err / truth_inf;

            assert!(
                measured <= bound,
                "F({m}²,{r}²): measured rel err {measured:.3e} exceeds a-priori bound {bound:.3e}"
            );
            assert!(
                bound > last_bound,
                "F({m}²,{r}²): predicted bound must be strictly monotone in m \
                 ({bound:.3e} vs prev {last_bound:.3e})"
            );
            assert!(avg_err < max_err);
            last_bound = bound;
        }
    }
}

#[test]
fn f2_is_more_accurate_than_direct_f32() {
    // Table 3's counter-intuitive row: F(2) beats plain f32 direct
    // convolution (fewer roundings on the summation path).
    let shape = ConvShape::new(1, 64, 32, &[16, 16], &[3, 3], &[1, 1]).unwrap();
    let img = uniform_input(&shape, 5);
    let ker = xavier_kernels(&shape, 6);
    let truth = direct_f64(&img, &ker, &shape.padding);

    let (wino_max, _) = winograd_error(&shape, &[2, 2]);

    let input = BlockedImage::from_simple(&img).unwrap();
    let kernels = BlockedKernels::from_simple(&ker).unwrap();
    let mut dout = BlockedImage::zeros(1, 32, &shape.out_dims()).unwrap();
    winograd_nd_repro::baseline::direct_conv(
        &input,
        &kernels,
        &shape.padding,
        &mut dout,
        &SerialExecutor,
    )
    .unwrap();
    let (direct_max, _) = element_errors(&dout.to_simple(), &truth);
    assert!(
        wino_max < direct_max,
        "F(2²) should beat direct f32: {wino_max} vs {direct_max}"
    );
}

#[test]
fn catalog_flop_accounting_matches_paper_table2() {
    // Spot-check the direct-FLOP normaliser against hand-computed Table 2
    // values (the basis of every effective-GFLOP/s number we report).
    let cat = full_catalog();
    let vgg12 = &cat.iter().find(|l| l.id() == "VGG 1.2").unwrap().shape;
    // 2 · B·C·C'·H·W·r² = 2·64·64·64·224²·9
    assert_eq!(vgg12.direct_flops(), 2 * 64 * 64 * 64 * 224 * 224 * 9);
    let c2a = &cat.iter().find(|l| l.id() == "C3D C2a").unwrap().shape;
    assert_eq!(
        c2a.direct_flops(),
        2 * 32 * 64 * 128 * (16 * 56 * 56) * 27
    );
    // effective_gflops inverts correctly.
    let g = effective_gflops(vgg12, 1000.0);
    assert!((g - vgg12.direct_flops() as f64 / 1e9).abs() < 1e-6);
}

#[test]
fn every_scaled_layer_plans_and_runs() {
    // Smoke the whole Table 2 catalogue end to end with small tiles.
    for layer in scaled_catalog() {
        let m = vec![2usize; layer.rank()];
        let plan = WinogradLayer::new(layer.shape.clone(), &m, ConvOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", layer.id()));
        // Only run the small ones end-to-end (time budget); planning +
        // scratch sizing is the per-layer risk.
        let elems: usize = layer.shape.image_dims.iter().product();
        if elems * layer.shape.batch * layer.shape.in_channels <= 64 * 24 * 24 * 2 {
            let img = uniform_input(&layer.shape, 3);
            let ker = xavier_kernels(&layer.shape, 4);
            let input = BlockedImage::from_simple(&img).unwrap();
            let kernels = BlockedKernels::from_simple(&ker).unwrap();
            let mut out = plan.new_output().unwrap();
            let mut scratch = Scratch::new(&plan, 1);
            plan.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
            let truth = direct_f64(&img, &ker, &layer.shape.padding);
            let (max_err, _) = element_errors(&out.to_simple(), &truth);
            assert!(max_err < 1e-3, "{}: max err {max_err}", layer.id());
        }
    }
}

#[test]
fn tile_selection_picks_a_valid_plan() {
    use winograd_nd_repro::conv::select::{candidate_tiles, Purpose};
    let shape = ConvShape::new(1, 16, 16, &[18, 18], &[3, 3], &[1, 1]).unwrap();
    // The largest tile the planner accepts under the purpose's budget.
    let purpose = Purpose::Training;
    let opts = ConvOptions { budget: Some(purpose.budget()), ..Default::default() };
    let candidates = candidate_tiles(&shape, purpose);
    assert_eq!(candidates.len(), 5);
    let plan = candidates
        .iter()
        .rev()
        .find_map(|m| WinogradLayer::new(shape.clone(), m, opts).ok())
        .unwrap();
    assert!(plan.grid.m.iter().all(|&m| (2..=6).contains(&m)));
    // The selected plan actually convolves correctly.
    let img = uniform_input(&shape, 8);
    let ker = xavier_kernels(&shape, 9);
    let input = BlockedImage::from_simple(&img).unwrap();
    let kernels = BlockedKernels::from_simple(&ker).unwrap();
    let mut out = plan.new_output().unwrap();
    let mut scratch = Scratch::new(&plan, 1);
    plan.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
    let truth = direct_f64(&img, &ker, &shape.padding);
    let (max_err, _) = element_errors(&out.to_simple(), &truth);
    assert!(max_err < 1e-3);
}
