//! The transform-stage entry points allocate nothing per call: what they
//! need per layer (resolved table rows, extents, strides) comes from the
//! plan or lives in fixed-size arrays on the stack. A counting global
//! allocator — counting per thread, so parallel tests do not disturb each
//! other — watches one warmed-up call of each on the serial executor, for
//! a 3-wide kernel and for a `[5, 2]` one; one repeat `forward_fx`
//! through the ring-fused driver, whose rings are part of the scratch; and
//! `forward` through the dual ring, whose `Û` and rings are too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use winograd_nd_repro::conv::{stage1, stage3, ConvOptions, Scratch, WinogradLayer};
use winograd_nd_repro::gemm::BlockShape;
use winograd_nd_repro::sched::SerialExecutor;
use winograd_nd_repro::tensor::{BlockedImage, BlockedKernels, ConvShape};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: defers every request to `System` unchanged; the counter is a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `GlobalAlloc::dealloc` contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn assert_stage_calls_do_not_allocate(kernel: &[usize], m: &[usize]) {
    // Ragged in both dimensions, so gather and clipped write run too.
    let shape = ConvShape::new(2, 32, 32, &[21, 18], kernel, &[1, 1]).unwrap();
    let layer = WinogradLayer::new(shape, m, ConvOptions::default()).unwrap();
    let mut input = BlockedImage::zeros(2, 32, &[21, 18]).unwrap();
    input.as_mut_slice().iter_mut().enumerate().for_each(|(i, v)| *v = (i % 13) as f32 * 0.1);
    let mut kernels = BlockedKernels::zeros(32, 32, kernel).unwrap();
    kernels.as_mut_slice().iter_mut().enumerate().for_each(|(i, v)| *v = (i % 7) as f32 * 0.1);
    let mut output = layer.new_output().unwrap();
    let mut scratch = Scratch::new(&layer, 1);
    let exec = SerialExecutor;

    // The forward pass of a fused plan allocates nothing, not even the
    // first time: the rings came with the scratch.
    assert!(layer.is_fused());
    let memo = layer.prepare_kernels(&kernels, &mut scratch, &exec).unwrap();
    for pass in ["first", "repeat"] {
        let n = allocations_in(|| {
            layer.forward_fx(&input, &memo, &mut output, &mut scratch, &exec).unwrap()
        });
        assert_eq!(n, 0, "{pass} fused forward_fx allocated {n} times");
    }

    // The stage calls below allocate the layer-sized `u`, `x`, `y` such a
    // scratch starts without — in the warm-up pass only.
    for pass in ["warm-up", "measured"] {
        let n = allocations_in(|| stage1::transform_inputs(&layer, &input, &mut scratch, &exec).unwrap());
        assert!(pass == "warm-up" || n == 0, "transform_inputs allocated {n} times");
        let n =
            allocations_in(|| stage1::transform_kernels(&layer, &kernels, &mut scratch, &exec).unwrap());
        assert!(pass == "warm-up" || n == 0, "transform_kernels allocated {n} times");
        let n = allocations_in(|| {
            stage3::inverse_transform(&layer, &mut scratch, &mut output, &exec).unwrap()
        });
        assert!(pass == "warm-up" || n == 0, "inverse_transform allocated {n} times");
    }
}

#[test]
fn transform_stage_entry_points_do_not_allocate() {
    assert_stage_calls_do_not_allocate(&[3, 3], &[4, 4]);
}

#[test]
fn other_kernel_widths_do_not_allocate_either() {
    assert_stage_calls_do_not_allocate(&[5, 2], &[2, 3]);
}

/// A dual plan's training-mode pass allocates nothing, not even the first
/// time: it never materialises `V̂`, and `Û` and the rings came with the
/// scratch.
#[test]
fn a_dual_forward_does_not_allocate() {
    let shape = ConvShape::new(1, 32, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
    let block = Some(BlockShape { n_blk: 6, c_blk: 16, cp_blk: 16 });
    let layer = WinogradLayer::new(shape, &[2, 2], ConvOptions { block, ..Default::default() }).unwrap();
    assert!(layer.is_dual());
    let mut input = BlockedImage::zeros(1, 32, &[10, 10]).unwrap();
    input.as_mut_slice().iter_mut().enumerate().for_each(|(i, v)| *v = (i % 13) as f32 * 0.1);
    let mut kernels = BlockedKernels::zeros(32, 32, &[3, 3]).unwrap();
    kernels.as_mut_slice().iter_mut().enumerate().for_each(|(i, v)| *v = (i % 7) as f32 * 0.1);
    let mut output = layer.new_output().unwrap();
    // The backend probe allocates once per process, on the first dispatch.
    let _ = winograd_nd_repro::simd::backend();
    let mut scratch = Scratch::new(&layer, 1);
    for pass in ["first", "repeat"] {
        let n = allocations_in(|| {
            layer.forward(&input, &kernels, &mut output, &mut scratch, &SerialExecutor).unwrap()
        });
        assert_eq!(n, 0, "{pass} dual forward allocated {n} times");
    }
    assert_eq!(scratch.v.bytes(), 0, "no `V̂`");
}
