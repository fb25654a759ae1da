//! # wino-baseline
//!
//! Comparator implementations for the Fig. 5 evaluation:
//!
//! * [`direct::direct_conv`] — vectorised direct convolution on the
//!   blocked layout (the Zlateski & Seung \[58\] / MKL-DNN-direct stand-in),
//! * [`im2col::im2col_conv`] — lowering + one large GEMM (the stand-in for
//!   cuDNN's matrix-multiply based algorithm),
//! * [`reference::direct_f64`] — the extended-precision ground truth for
//!   the Table 3 accuracy study.

pub mod direct;
pub mod im2col;
pub mod reference;

pub use direct::direct_conv;
pub use im2col::{im2col_conv, im2col_conv_geo, Im2colError};
pub use reference::{direct_f64, direct_f64_geo, element_errors};

/// Maximum supported spatial rank (mirrors `wino_conv::MAX_RANK`).
pub const MAX_RANK: usize = 6;
