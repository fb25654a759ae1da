//! The dispatch matrix, exhaustively: every (rank, stride, dilation,
//! groups) combination on a small-shape grid must *route* somewhere
//! valid — direct Winograd, grouped Winograd, or the designed im2col
//! fallback with a typed [`FallbackReason`] — and the chosen route's
//! output must match the f64 direct oracle. Stride is a swept axis, not a
//! route: a strided scenario takes the route its groups dictate and is
//! judged against the strided oracle. No panics, no
//! `PlanError` rejections for representable layers; the only hard errors
//! are genuinely unrepresentable geometries (groups not dividing the
//! channel counts), and those are *typed*.
//!
//! This is the closing test of the conv scenario matrix: the routing
//! table below is the specification, and the grid proves the dispatcher
//! implements it.

use winograd_nd_repro::baseline::{direct_f64_geo, element_errors};
use winograd_nd_repro::conv::{
    plan_dispatch, Activation, ConvOptions, FallbackPolicy, LayerBackend, LayerSpec, Network,
    PlanError, Route, WinogradLayer,
};
use winograd_nd_repro::sched::SerialExecutor;
use winograd_nd_repro::tensor::{
    BlockedImage, BlockedKernels, ConvShape, ShapeError, SimpleImage, SimpleKernels,
};

const C: usize = 32;
const K: usize = 32;

/// What the dispatcher is specified to do with one scenario.
#[derive(Debug, PartialEq, Clone, Copy)]
enum Expect {
    Direct,
    Grouped,
    /// Designed im2col route with this provenance code.
    Im2col(&'static str),
}

/// The routing table: precedence is dilation > group width > grouping;
/// the stride chooses nothing. Every arm of the real dispatcher maps to
/// exactly one row.
fn expected(dilation: usize, groups: usize) -> Expect {
    if dilation > 1 {
        Expect::Im2col("dilated")
    } else if C / groups < 16 {
        Expect::Im2col("group-narrow")
    } else if groups > 1 {
        Expect::Grouped
    } else {
        Expect::Direct
    }
}

fn scenario_data(rank: usize, groups: usize, seed: usize) -> (SimpleImage, SimpleKernels) {
    let dims = vec![9; rank];
    let img = SimpleImage::from_fn(1, C, &dims, |_, ch, xy| {
        let mut h = ch.wrapping_mul(17).wrapping_add(seed);
        for &x in xy {
            h = h.wrapping_mul(31).wrapping_add(x);
        }
        (h % 211) as f32 / 211.0 * 0.2 - 0.1
    });
    let ker = SimpleKernels::from_fn(K, C / groups, &vec![3; rank], |co, ci, xy| {
        let mut h = co.wrapping_mul(19).wrapping_add(ci.wrapping_mul(5)).wrapping_add(seed);
        for &x in xy {
            h = h.wrapping_mul(13).wrapping_add(x);
        }
        (h % 97) as f32 / 97.0 * 0.4 - 0.2
    });
    (img, ker)
}

#[test]
fn every_scenario_routes_and_matches_the_oracle() {
    let mut combos = 0;
    for rank in [1usize, 2] {
        for stride in [1usize, 2] {
            for dilation in [1usize, 2] {
                for groups in [1usize, 2, C] {
                    combos += 1;
                    let want = expected(dilation, groups);
                    let label =
                        format!("rank={rank} s={stride} d={dilation} g={groups} ({want:?})");

                    let (img, ker) = scenario_data(rank, groups, combos);
                    let shape = ConvShape::new(
                        1,
                        C,
                        K,
                        &vec![9; rank],
                        &vec![3; rank],
                        &vec![dilation; rank], // "same"-ish: pad = dilation keeps r_eff covered
                    )
                    .unwrap();
                    let opts = ConvOptions::default()
                        .with_stride(&vec![stride; rank])
                        .with_dilation(&vec![dilation; rank])
                        .with_groups(groups);
                    let (dp, fb) =
                        plan_dispatch(&shape, &vec![2; rank], opts, &FallbackPolicy::default())
                            .unwrap_or_else(|e| panic!("{label}: rejected: {e:?}"));

                    // Route and provenance match the table.
                    match want {
                        Expect::Direct => {
                            assert!(matches!(dp.route, Route::Direct(_)), "{label}");
                            assert!(fb.is_none(), "{label}: {fb:?}");
                        }
                        Expect::Grouped => {
                            assert!(matches!(dp.route, Route::Grouped { .. }), "{label}");
                            assert!(fb.is_none(), "{label}: {fb:?}");
                            assert_eq!(dp.backend(), LayerBackend::WinogradGrouped, "{label}");
                        }
                        Expect::Im2col(code) => {
                            assert!(matches!(dp.route, Route::Im2col), "{label}");
                            assert_eq!(dp.backend(), LayerBackend::Im2col, "{label}");
                            let reason = fb.as_ref().unwrap_or_else(|| {
                                panic!("{label}: designed fallback must carry a reason")
                            });
                            assert_eq!(reason.code(), code, "{label}: {reason:?}");
                        }
                    }
                    assert_eq!(dp.kernel_in_channels(), C / groups, "{label}");

                    // Execute the route and judge it against the oracle.
                    let geo = opts.geometry(rank);
                    let truth = direct_f64_geo(&img, &ker, &shape.padding, &geo);
                    let bi = BlockedImage::from_simple(&img).unwrap();
                    let bk = BlockedKernels::from_simple(&ker).unwrap();
                    let mut out = dp.new_output().unwrap();
                    dp.forward(&bi, &bk, &mut out, &SerialExecutor)
                        .unwrap_or_else(|e| panic!("{label}: forward failed: {e:?}"));
                    assert_eq!(out.dims, truth.dims, "{label}");
                    let (max_err, _) = element_errors(&out.to_simple(), &truth);
                    // Per-path tolerance: im2col accumulates in plain f32
                    // order (tight); Winograd transforms amplify roundoff.
                    let tol = match want {
                        Expect::Im2col(_) => 1e-4,
                        _ => 5e-3,
                    };
                    assert!(max_err < tol, "{label}: max err {max_err}");
                }
            }
        }
    }
    assert_eq!(combos, 24, "the grid must stay exhaustive");
}

#[test]
fn network_reports_carry_the_same_provenance() {
    // The same matrix once more, through `Network` — the plan-time
    // (backend, reason) pair must surface verbatim in the per-layer
    // `ExecutionReport`, so a serving stack can account for every layer.
    for stride in [1usize, 2] {
        for dilation in [1usize, 2] {
            for groups in [1usize, 2, C] {
                let want = expected(dilation, groups);
                let label = format!("s={stride} d={dilation} g={groups} ({want:?})");
                let specs = vec![LayerSpec {
                    out_channels: K,
                    kernel: vec![3, 3],
                    padding: vec![dilation, dilation],
                    m: vec![2, 2],
                    activation: Activation::None,
                }];
                let opts = ConvOptions::default()
                    .with_stride(&[stride, stride])
                    .with_dilation(&[dilation, dilation])
                    .with_groups(groups);
                let mut net = Network::with_policy(
                    1,
                    C,
                    &[9, 9],
                    &specs,
                    opts,
                    1,
                    &FallbackPolicy::default(),
                )
                .unwrap_or_else(|e| panic!("{label}: network rejected: {e:?}"));

                let (img, ker) = scenario_data(2, groups, 7);
                let input = BlockedImage::from_simple(&img).unwrap();
                let kernels = vec![BlockedKernels::from_simple(&ker).unwrap()];
                let (out, reports) = net
                    .run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::default())
                    .unwrap_or_else(|e| panic!("{label}: run failed: {e:?}"));
                let report = &reports[0];
                match want {
                    Expect::Direct => {
                        assert!(
                            matches!(
                                report.backend,
                                LayerBackend::WinogradJit | LayerBackend::WinogradMono
                            ),
                            "{label}: {:?}",
                            report.backend
                        );
                        assert!(report.fallback.is_none(), "{label}");
                    }
                    Expect::Grouped => {
                        assert_eq!(report.backend, LayerBackend::WinogradGrouped, "{label}");
                        assert!(report.fallback.is_none(), "{label}");
                    }
                    Expect::Im2col(code) => {
                        assert_eq!(report.backend, LayerBackend::Im2col, "{label}");
                        let r = report.fallback.as_ref().unwrap();
                        assert_eq!(r.code(), code, "{label}");
                    }
                }
                // And the output is still the right convolution.
                let truth = direct_f64_geo(&img, &ker, &[dilation, dilation], &opts.geometry(2));
                let (max_err, _) = element_errors(&out.to_simple(), &truth);
                assert!(max_err < 5e-3, "{label}: max err {max_err}");
            }
        }
    }
}

#[test]
fn unrepresentable_groups_fail_typed_everywhere() {
    // groups = 3 does not divide C = 32: a hard, *typed* error from the
    // dispatcher and from `Network` alike — never a panic, never a
    // silent fallback (no backend can execute an ill-formed layer).
    let shape = ConvShape::new(1, C, K, &[9, 9], &[3, 3], &[1, 1]).unwrap();
    let opts = ConvOptions::default().with_groups(3);
    assert!(matches!(
        plan_dispatch(&shape, &[2, 2], opts, &FallbackPolicy::default()),
        Err(PlanError::Shape(ShapeError::BadGroups { channels: 32, groups: 3 }))
    ));
    let specs = vec![LayerSpec::same(K, 2, 3, 2)];
    assert!(matches!(
        Network::with_policy(1, C, &[9, 9], &specs, opts, 1, &FallbackPolicy::default()),
        Err(PlanError::Shape(ShapeError::BadGroups { .. }))
    ));
}

#[test]
fn monolithic_planner_declines_geometry_with_a_pointer() {
    // The pre-dispatch entry point stays honest: handed a non-identity
    // geometry it refuses with `PlanError::Geometry` (whose message
    // points at the dispatcher) instead of silently computing a stride-1
    // convolution.
    let shape = ConvShape::new(1, C, K, &[9, 9], &[3, 3], &[1, 1]).unwrap();
    for opts in [
        ConvOptions::default().with_stride(&[2, 2]),
        ConvOptions::default().with_dilation(&[2, 2]),
        ConvOptions::default().with_groups(2),
    ] {
        assert!(matches!(
            WinogradLayer::new(shape.clone(), &[2, 2], opts),
            Err(PlanError::Geometry { .. })
        ));
    }
}

#[test]
fn a_kernel_wider_than_the_codelet_table_runs_im2col_with_provenance() {
    // The Winograd stages run generated codelets and nothing else, and
    // the table ends at r = 5: a 7-wide kernel has no Winograd plan
    // (`BadTileSize`), which the default policy turns into the im2col
    // route with `plan-failed` — from the dispatcher and through
    // `Network` alike — and the strict policy surfaces.
    let shape = ConvShape::new(1, C, K, &[12, 12], &[7, 7], &[3, 3]).unwrap();
    let opts = ConvOptions::default();
    assert!(matches!(
        plan_dispatch(&shape, &[2, 2], opts, &FallbackPolicy::strict()),
        Err(PlanError::BadTileSize { dim: 0, m: 2, r: 7 })
    ));
    let (dp, fb) = plan_dispatch(&shape, &[2, 2], opts, &FallbackPolicy::default()).unwrap();
    assert!(matches!(dp.route, Route::Im2col));
    assert_eq!(fb.as_ref().map(|r| r.code()), Some("plan-failed"), "{fb:?}");

    let img = SimpleImage::from_fn(1, C, &[12, 12], |_, ch, xy| {
        ((ch * 17 + xy[0] * 31 + xy[1]) % 211) as f32 / 211.0 * 0.2 - 0.1
    });
    let ker = SimpleKernels::from_fn(K, C, &[7, 7], |co, ci, xy| {
        ((co * 19 + ci * 5 + xy[0] * 13 + xy[1]) % 97) as f32 / 97.0 * 0.4 - 0.2
    });
    let truth = direct_f64_geo(&img, &ker, &shape.padding, &opts.geometry(2));
    let input = BlockedImage::from_simple(&img).unwrap();
    let kernels = vec![BlockedKernels::from_simple(&ker).unwrap()];
    let mut out = dp.new_output().unwrap();
    dp.forward(&input, &kernels[0], &mut out, &SerialExecutor).unwrap();
    let (max_err, _) = element_errors(&out.to_simple(), &truth);
    assert!(max_err < 1e-4, "dispatcher: max err {max_err}");

    let specs = vec![LayerSpec { activation: Activation::None, ..LayerSpec::same(K, 2, 7, 2) }];
    let policy = FallbackPolicy::default();
    let mut net = Network::with_policy(1, C, &[12, 12], &specs, opts, 1, &policy).unwrap();
    let (out, reports) = net.run_net(&input, &kernels, &SerialExecutor, &policy).unwrap();
    assert_eq!(reports[0].backend, LayerBackend::Im2col);
    assert_eq!(reports[0].fallback.as_ref().map(|r| r.code()), Some("plan-failed"));
    let (max_err, _) = element_errors(&out.to_simple(), &truth);
    assert!(max_err < 1e-4, "network: max err {max_err}");
}
