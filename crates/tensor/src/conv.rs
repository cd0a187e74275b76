//! Convolution kernels: `im2col`-based 2-D convolution and its
//! batch-parallel backward, direct 1-D convolution, and the
//! moving-average pooling used by trend decomposition.
//!
//! Layout conventions (matching the usual DL framework conventions):
//! * conv2d input  `[B, C_in, H, W]`
//! * conv2d weight `[C_out, C_in, KH, KW]`
//! * conv1d input  `[B, C_in, L]`
//! * conv1d weight `[C_out, C_in, K]`
//!
//! [`conv2d_backward`] never folds columns back with [`col2im`]: the
//! input gradient is itself a forward convolution (of the output
//! gradient with the flipped, channel-swapped kernel), and the weight
//! gradient is a per-sample gemm against the `im2col` columns. Both run
//! batch-parallel on [`crate::par`]; `col2im` survives as the adjoint
//! oracle the backward is tested against.

use std::cell::RefCell;

use crate::gemm::MatRef;
use crate::Tensor;

/// Unfold a `[C, H, W]` sample given as a raw slice into the column
/// matrix layout of [`im2col`], writing into `out` (resized to
/// `c*kh*kw * oh*ow`). Every element of `out` is written — interior
/// spans are bulk-copied from the input rows, padding spans are zero
/// filled — so the buffer can be reused across calls without clearing.
/// This is the allocation-free core behind [`im2col`] and the conv2d
/// batch loop (which keeps a thread-local scratch buffer per worker).
#[allow(clippy::too_many_arguments)] // mirrors im2col geometry
pub fn im2col_into(
    src: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ph: usize,
    pw: usize,
    out: &mut Vec<f32>,
) {
    assert_eq!(src.len(), c * h * w, "im2col_into: input length mismatch");
    let oh = h + 2 * ph + 1 - kh;
    let ow = w + 2 * pw + 1 - kw;
    out.resize(c * kh * kw * oh * ow, 0.0);
    let ocols = oh * ow;
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((ci * kh + ki) * kw + kj) * ocols;
                // Output columns whose input column jj = oj + kj - pw is
                // in range; everything outside is zero padding.
                let lo = pw.saturating_sub(kj).min(ow);
                let hi = (w + pw).saturating_sub(kj).min(ow).max(lo);
                for oi in 0..oh {
                    let dst = &mut out[row + oi * ow..row + (oi + 1) * ow];
                    // Input row index for this output row / kernel row.
                    let ii = oi + ki;
                    if ii < ph || ii >= h + ph {
                        dst.fill(0.0); // zero padding row
                        continue;
                    }
                    let ii = ii - ph;
                    dst[..lo].fill(0.0);
                    if hi > lo {
                        // Input column for output column `lo` is
                        // lo + kj - pw (non-negative whenever the span
                        // is non-empty).
                        let src_lo = (ci * h + ii) * w + (lo + kj - pw);
                        dst[lo..hi].copy_from_slice(&src[src_lo..src_lo + (hi - lo)]);
                    }
                    dst[hi..].fill(0.0);
                }
            }
        }
    }
}

/// Unfold `input` (`[C, H, W]`) into a `[C*kh*kw, oh*ow]` column matrix for
/// a convolution with the given padding and stride 1.
pub fn im2col(input: &Tensor, kh: usize, kw: usize, ph: usize, pw: usize) -> Tensor {
    assert_eq!(input.rank(), 3, "im2col expects [C,H,W]");
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let oh = h + 2 * ph + 1 - kh;
    let ow = w + 2 * pw + 1 - kw;
    let mut out = Vec::new();
    im2col_into(input.as_slice(), c, h, w, kh, kw, ph, pw, &mut out);
    Tensor::from_vec(out, &[c * kh * kw, oh * ow])
}

/// Fold a `[C*kh*kw, oh*ow]` column matrix back into `[C, H, W]`,
/// **accumulating** overlapping contributions — the adjoint of [`im2col`].
/// Not on any production path: it is the reference [`conv2d_backward`]
/// is tested against.
#[allow(clippy::too_many_arguments)] // mirrors im2col geometry
pub fn col2im(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ph: usize,
    pw: usize,
) -> Tensor {
    let oh = h + 2 * ph + 1 - kh;
    let ow = w + 2 * pw + 1 - kw;
    assert_eq!(cols.shape(), &[c * kh * kw, oh * ow], "col2im: column shape mismatch");
    let src = cols.as_slice();
    let mut out = vec![0.0f32; c * h * w];
    let ocols = oh * ow;
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((ci * kh + ki) * kw + kj) * ocols;
                for oi in 0..oh {
                    let ii = oi + ki;
                    if ii < ph || ii >= h + ph {
                        continue;
                    }
                    let ii = ii - ph;
                    for oj in 0..ow {
                        let jj = oj + kj;
                        if jj < pw || jj >= w + pw {
                            continue;
                        }
                        let jj = jj - pw;
                        out[(ci * h + ii) * w + jj] += src[row + oi * ow + oj];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[c, h, w])
}

thread_local! {
    // Per-worker column-matrix scratch for the forward and weight-gradient
    // batch loops, reused across samples and calls (the persistent pool
    // keeps workers alive, so steady-state conv2d does no per-sample
    // allocation).
    static COLS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The four extents of a rank-4 tensor.
fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    let s = t.shape();
    (s[0], s[1], s[2], s[3])
}

/// 2-D convolution (cross-correlation, as in DL frameworks), stride 1.
///
/// * `input`:  `[B, C_in, H, W]`
/// * `weight`: `[C_out, C_in, KH, KW]`
/// * returns `[B, C_out, OH, OW]` with `OH = H + 2*ph + 1 - KH`.
///
/// Batch entries are independent (`im2col` + matmul per sample), so
/// they are partitioned across threads via [`crate::par`]; each sample
/// is computed by the identical serial kernel, keeping the result
/// bit-identical to a serial run.
pub fn conv2d(input: &Tensor, weight: &Tensor, ph: usize, pw: usize) -> Tensor {
    assert_eq!(input.rank(), 4, "conv2d input must be [B,C,H,W]");
    assert_eq!(weight.rank(), 4, "conv2d weight must be [Co,Ci,KH,KW]");
    let (b, cin, h, w) = dims4(input);
    let (cout, cin2, kh, kw) = dims4(weight);
    assert_eq!(cin, cin2, "conv2d: channel mismatch (input {cin} vs weight {cin2})");
    assert!(h + 2 * ph >= kh && w + 2 * pw >= kw, "conv2d: kernel larger than padded input");
    let oh = h + 2 * ph + 1 - kh;
    let ow = w + 2 * pw + 1 - kw;
    let mut _span = ts3_obs::span("tensor.conv2d");
    if _span.active() {
        let flops = 2 * b * cout * oh * ow * cin * kh * kw;
        _span.field("b", b);
        _span.field("cin", cin);
        _span.field("cout", cout);
        _span.field("kh", kh);
        _span.field("kw", kw);
        _span.field("flops", flops);
        ts3_obs::counter_add("tensor.conv2d.calls", 1);
        ts3_obs::counter_add("tensor.conv2d.flops", flops as u64);
        ts3_obs::counter_add(
            "tensor.conv2d.bytes",
            (4 * (input.numel() + weight.numel() + b * cout * oh * ow)) as u64,
        );
    }
    conv2d_kernel(input, weight, ph, pw)
}

/// The untraced batch-parallel body of [`conv2d`] (shapes already
/// checked), shared with the input-gradient pass of [`conv2d_backward`]
/// so backward work is never counted as forward work.
fn conv2d_kernel(input: &Tensor, weight: &Tensor, ph: usize, pw: usize) -> Tensor {
    let (b, cin, h, w) = dims4(input);
    let (cout, _, kh, kw) = dims4(weight);
    let oh = h + 2 * ph + 1 - kh;
    let ow = w + 2 * pw + 1 - kw;
    let sample = cout * oh * ow;
    let in_sample = cin * h * w;
    let mut out = vec![0.0f32; b * sample];
    if sample > 0 {
        let src = input.as_slice();
        crate::par::par_rows_mut(&mut out, sample, 1, |b0, block| {
            COLS.with(|cell| {
                let cols = &mut *cell.borrow_mut();
                for (i, ob) in block.chunks_mut(sample).enumerate() {
                    let x = &src[(b0 + i) * in_sample..(b0 + i + 1) * in_sample];
                    im2col_into(x, cin, h, w, kh, kw, ph, pw, cols);
                    crate::linalg::matmul_block(
                        weight.as_slice(),
                        cols,
                        ob,
                        cout,
                        cin * kh * kw,
                        oh * ow,
                    );
                }
            });
        });
    }
    Tensor::from_vec(out, &[b, cout, oh, ow])
}

/// Gradients of [`conv2d`]: given the forward's `input`, `weight`,
/// padding and the output gradient `grad_out` (`[B, C_out, OH, OW]`),
/// returns `(grad_input, grad_weight)`.
///
/// * **Input gradient** — a full correlation of `grad_out` with the
///   kernel flipped 180° and its channel axes swapped
///   (`[C_in, C_out, KH, KW]`), padded by `KH - 1 - ph` (resp. `KW - 1 -
///   pw`). It runs through the batch-parallel forward kernel. Padding
///   beyond `K - 1` pads the forward with rows no input reaches; the
///   matching `grad_out` border is cropped instead of padded negatively.
/// * **Weight gradient** — per sample `grad_out_b · cols_bᵀ` into its
///   own slot of a `[B, C_out, C_in·KH·KW]` scratch, in parallel, then
///   summed in ascending `b`. The reduction order is fixed, so the result
///   is bit-identical at any thread count and schedule (and equal to the
///   serial sum of per-sample products).
///
/// Traced as the `tensor.conv2d.bwd` span with `tensor.conv2d.bwd.*`
/// counters; `flops` counts the multiply-adds of both products.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    ph: usize,
    pw: usize,
) -> (Tensor, Tensor) {
    assert_eq!(input.rank(), 4, "conv2d_backward input must be [B,C,H,W]");
    assert_eq!(weight.rank(), 4, "conv2d_backward weight must be [Co,Ci,KH,KW]");
    let (b, cin, h, w) = dims4(input);
    let (cout, cin2, kh, kw) = dims4(weight);
    assert_eq!(cin, cin2, "conv2d_backward: channel mismatch (input {cin} vs weight {cin2})");
    assert!(
        h + 2 * ph >= kh && w + 2 * pw >= kw,
        "conv2d_backward: kernel larger than padded input"
    );
    let oh = h + 2 * ph + 1 - kh;
    let ow = w + 2 * pw + 1 - kw;
    assert_eq!(grad_out.shape(), &[b, cout, oh, ow], "conv2d_backward: gradient shape mismatch");
    let taps = cin * kh * kw;
    let mut _span = ts3_obs::span("tensor.conv2d.bwd");
    if _span.active() {
        let flops = 2 * b * cout * taps * (h * w + oh * ow);
        _span.field("b", b);
        _span.field("cin", cin);
        _span.field("cout", cout);
        _span.field("kh", kh);
        _span.field("kw", kw);
        _span.field("flops", flops);
        ts3_obs::counter_add("tensor.conv2d.bwd.calls", 1);
        ts3_obs::counter_add("tensor.conv2d.bwd.flops", flops as u64);
        // Reads input, weight and grad_out; writes both gradients.
        ts3_obs::counter_add(
            "tensor.conv2d.bwd.bytes",
            (8 * (input.numel() + weight.numel()) + 4 * grad_out.numel()) as u64,
        );
    }

    // Input gradient: the flipped conv over grad_out, cropped where the
    // forward padding exceeded the kernel reach.
    let (dh, dw) = (ph.saturating_sub(kh - 1), pw.saturating_sub(kw - 1));
    let cropped;
    let gy = if dh + dw > 0 {
        cropped = grad_out.narrow(2, dh, oh - 2 * dh).narrow(3, dw, ow - 2 * dw);
        &cropped
    } else {
        grad_out
    };
    let flipped = weight.flip(2).flip(3).permute(&[1, 0, 2, 3]);
    let gx = conv2d_kernel(gy, &flipped, kh - 1 + dh - ph, kw - 1 + dw - pw);

    // Weight gradient: per-sample partials in parallel, fixed-order sum.
    let wsize = cout * taps;
    let mut gw = vec![0.0f32; wsize];
    if wsize > 0 {
        let (ocols, in_sample) = (oh * ow, cin * h * w);
        let (src, g) = (input.as_slice(), grad_out.as_slice());
        let mut partials = vec![0.0f32; b * wsize];
        crate::par::par_rows_mut(&mut partials, wsize, 1, |b0, block| {
            COLS.with(|cell| {
                let cols = &mut *cell.borrow_mut();
                for (i, pb) in block.chunks_mut(wsize).enumerate() {
                    let bi = b0 + i;
                    let x = &src[bi * in_sample..][..in_sample];
                    im2col_into(x, cin, h, w, kh, kw, ph, pw, cols);
                    crate::gemm::gemm(
                        MatRef::dense(&g[bi * cout * ocols..][..cout * ocols], ocols),
                        MatRef::dense_t(cols, ocols),
                        pb,
                        cout,
                        ocols,
                        taps,
                    );
                }
            });
        });
        for part in partials.chunks_exact(wsize) {
            for (acc, v) in gw.iter_mut().zip(part) {
                *acc += v;
            }
        }
    }
    (gx, Tensor::from_vec(gw, &[cout, cin, kh, kw]))
}

/// 1-D convolution (cross-correlation), stride 1.
///
/// * `input`:  `[B, C_in, L]`
/// * `weight`: `[C_out, C_in, K]`
/// * returns `[B, C_out, L + 2*pad + 1 - K]`.
pub fn conv1d(input: &Tensor, weight: &Tensor, pad: usize) -> Tensor {
    assert_eq!(input.rank(), 3, "conv1d input must be [B,C,L]");
    assert_eq!(weight.rank(), 3, "conv1d weight must be [Co,Ci,K]");
    // Reuse the 2-D kernel with H = 1.
    let (b, c, l) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (co, ci, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
    let x4 = input.reshape(&[b, c, 1, l]);
    let w4 = weight.reshape(&[co, ci, 1, k]);
    let y = conv2d(&x4, &w4, 0, pad);
    let ol = y.shape()[3];
    y.reshape(&[b, co, ol])
}

/// Moving-average along `axis` with window `k`, producing the **same
/// length** via replicate padding — this is exactly the paper's
/// `AvgPool(Padding(X))` trend extractor (Eq. 1).
pub fn moving_avg_same(input: &Tensor, axis: usize, k: usize) -> Tensor {
    assert!(k >= 1, "moving_avg_same: window must be >= 1");
    if k == 1 {
        return input.clone();
    }
    let before = (k - 1) / 2;
    let after = k - 1 - before;
    let padded = input.pad_axis_replicate(axis, before, after);
    // Prefix-sum based windowed mean along `axis`.
    let outer: usize = padded.shape()[..axis].iter().product();
    let n = padded.shape()[axis];
    let inner: usize = padded.shape()[axis + 1..].iter().product();
    let out_n = n + 1 - k;
    let mut out = vec![0.0f32; outer * out_n * inner];
    let src = padded.as_slice();
    for o in 0..outer {
        for i in 0..inner {
            let mut acc = 0.0f64;
            for t in 0..k {
                acc += src[(o * n + t) * inner + i] as f64;
            }
            out[o * out_n * inner + i] = (acc / k as f64) as f32;
            for t in 1..out_n {
                acc += src[(o * n + t + k - 1) * inner + i] as f64;
                acc -= src[(o * n + t - 1) * inner + i] as f64;
                out[(o * out_n + t) * inner + i] = (acc / k as f64) as f32;
            }
        }
    }
    let mut shape = input.shape().to_vec();
    shape[axis] = out_n;
    debug_assert_eq!(out_n, input.shape()[axis]);
    Tensor::from_vec(out, &shape)
}

/// Average-pool along `axis` with non-overlapping windows of size `k`
/// (last partial window averaged over its actual length).
pub fn avg_pool_axis(input: &Tensor, axis: usize, k: usize) -> Tensor {
    assert!(k >= 1, "avg_pool_axis: window must be >= 1");
    let outer: usize = input.shape()[..axis].iter().product();
    let n = input.shape()[axis];
    let inner: usize = input.shape()[axis + 1..].iter().product();
    let out_n = n.div_ceil(k);
    let mut out = vec![0.0f32; outer * out_n * inner];
    let src = input.as_slice();
    for o in 0..outer {
        for t_out in 0..out_n {
            let start = t_out * k;
            let len = k.min(n - start);
            for i in 0..inner {
                let mut acc = 0.0f32;
                for t in start..start + len {
                    acc += src[(o * n + t) * inner + i];
                }
                out[(o * out_n + t_out) * inner + i] = acc / len as f32;
            }
        }
    }
    let mut shape = input.shape().to_vec();
    shape[axis] = out_n;
    Tensor::from_vec(out, &shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn im2col_identity_kernel_size_one() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[1, 3, 4]);
        let cols = im2col(&x, 1, 1, 0, 0);
        assert_eq!(cols.shape(), &[1, 12]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }

    #[test]
    fn im2col_into_matches_reference_and_reuses_dirty_buffers() {
        // Sweep geometries (including pathological padding) against a
        // direct per-element reference, reusing one scratch buffer
        // across all calls to prove every element gets written.
        let mut scratch = vec![f32::NAN; 4]; // dirty, wrong-sized
        for (c, h, w, kh, kw, ph, pw) in [
            (1, 1, 1, 1, 1, 0, 0),
            (2, 4, 5, 3, 3, 1, 1),
            (3, 5, 4, 2, 4, 0, 2),
            (1, 6, 3, 5, 1, 2, 0),
            (2, 3, 3, 3, 3, 2, 2),
            (1, 1, 1, 6, 6, 3, 3), // kw > w + pw: all-padding columns
        ] {
            let x = Tensor::from_vec(
                (0..c * h * w).map(|v| ((v * 31 + 7) as f32 * 0.13).sin()).collect(),
                &[c, h, w],
            );
            let want = im2col(&x, kh, kw, ph, pw);
            im2col_into(x.as_slice(), c, h, w, kh, kw, ph, pw, &mut scratch);
            assert_eq!(
                want.as_slice(),
                &scratch[..],
                "c={c} h={h} w={w} kh={kh} kw={kw} ph={ph} pw={pw}"
            );
        }
    }

    #[test]
    fn conv2d_identity() {
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]);
        let y = conv2d(&x, &w, 0, 0);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv2d_mean_filter() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::full(&[1, 1, 3, 3], 1.0 / 9.0);
        let y = conv2d(&x, &w, 0, 0);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert!((y.item() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn conv2d_same_padding_shape() {
        let x = Tensor::ones(&[2, 3, 5, 7]);
        let w = Tensor::ones(&[4, 3, 3, 3]);
        let y = conv2d(&x, &w, 1, 1);
        assert_eq!(y.shape(), &[2, 4, 5, 7]);
        // Interior value: 3 channels * 9 taps = 27.
        assert!((y.at(&[0, 0, 2, 3]) - 27.0).abs() < 1e-5);
        // Corner sees only 4 taps per channel = 12.
        assert!((y.at(&[0, 0, 0, 0]) - 12.0).abs() < 1e-5);
    }

    #[test]
    fn conv2d_manual_3x3_check() {
        // x = [[1,2],[3,4]], kernel = [[1,0],[0,1]] (no padding) -> 1*1+4*1 = 5
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[1, 1, 2, 2]);
        let y = conv2d(&x, &w, 0, 0);
        assert_eq!(y.item(), 5.0);
    }

    #[test]
    fn conv1d_matches_manual_correlation() {
        // x = [1,2,3,4], k = [1,-1] -> [1*1+2*-1, 2-3, 3-4] = [-1,-1,-1]
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let w = Tensor::from_vec(vec![1.0, -1.0], &[1, 1, 2]);
        let y = conv1d(&x, &w, 0);
        assert_eq!(y.shape(), &[1, 1, 3]);
        assert_eq!(y.as_slice(), &[-1.0, -1.0, -1.0]);
    }

    #[test]
    fn conv1d_multichannel_sums_channels() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], &[1, 2, 2]);
        let w = Tensor::from_vec(vec![1.0, 1.0], &[1, 2, 1]);
        let y = conv1d(&x, &w, 0);
        assert_eq!(y.as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let (c, h, w, kh, kw, ph, pw) = (2, 4, 5, 3, 3, 1, 1);
        let x = Tensor::from_vec((0..c * h * w).map(|v| (v as f32).sin()).collect(), &[c, h, w]);
        let cols = im2col(&x, kh, kw, ph, pw);
        let y = Tensor::from_vec(
            (0..cols.numel()).map(|v| ((v * 7 + 3) as f32).cos()).collect(),
            cols.shape(),
        );
        let lhs: f32 = cols.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, c, h, w, kh, kw, ph, pw);
        let rhs: f32 = x.as_slice().iter().zip(back.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn moving_avg_preserves_length_and_constants() {
        let x = Tensor::full(&[10, 2], 3.0);
        let y = moving_avg_same(&x, 0, 5);
        assert_eq!(y.shape(), &[10, 2]);
        for v in y.as_slice() {
            assert!((v - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn moving_avg_smooths_ramp_interior() {
        let x = Tensor::arange(9).reshape(&[9, 1]);
        let y = moving_avg_same(&x, 0, 3);
        // Interior of a ramp is unchanged by centered moving average.
        for t in 1..8 {
            assert!((y.at(&[t, 0]) - t as f32).abs() < 1e-5);
        }
        // Edges are pulled toward the replicated edge value.
        assert!(y.at(&[0, 0]) > 0.0);
    }

    #[test]
    fn moving_avg_window_one_is_identity() {
        let x = Tensor::from_vec(vec![5.0, -2.0, 7.0], &[3, 1]);
        assert_eq!(moving_avg_same(&x, 0, 1), x);
    }

    #[test]
    fn avg_pool_axis_basic_and_ragged() {
        let x = Tensor::arange(5).reshape(&[5, 1]);
        let y = avg_pool_axis(&x, 0, 2);
        assert_eq!(y.shape(), &[3, 1]);
        assert_eq!(y.as_slice(), &[0.5, 2.5, 4.0]);
    }

    #[test]
    fn conv2d_parallel_bit_identical_to_serial() {
        // The batch loop is partitioned by `par`; recompute each sample
        // with the single-sample (hence single-block) path and demand
        // bit equality for every forced thread count.
        let (b, cin, h, w, cout, kh, kw, ph, pw) = (5, 3, 6, 7, 4, 3, 3, 1, 1);
        let x = Tensor::from_vec(
            (0..b * cin * h * w).map(|v| ((v * 13 + 1) as f32 * 0.173).sin()).collect(),
            &[b, cin, h, w],
        );
        let wt = Tensor::from_vec(
            (0..cout * cin * kh * kw).map(|v| ((v * 7 + 5) as f32 * 0.291).cos()).collect(),
            &[cout, cin, kh, kw],
        );
        let batched = conv2d(&x, &wt, ph, pw);
        let mut serial = vec![0.0f32; batched.numel()];
        let sample = batched.numel() / b;
        let wmat = wt.reshape(&[cout, cin * kh * kw]);
        for bi in 0..b {
            let cols = im2col(&x.index_axis(0, bi), kh, kw, ph, pw);
            crate::linalg::matmul_block(
                wmat.as_slice(),
                cols.as_slice(),
                &mut serial[bi * sample..(bi + 1) * sample],
                cout,
                cin * kh * kw,
                (h + 2 * ph + 1 - kh) * (w + 2 * pw + 1 - kw),
            );
        }
        for threads in [1, 2, 3, 5, 8] {
            let mut par = vec![0.0f32; b * sample];
            crate::par::par_rows_mut_in(threads, &mut par, sample, &|b0, block| {
                for (i, ob) in block.chunks_mut(sample).enumerate() {
                    let cols = im2col(&x.index_axis(0, b0 + i), kh, kw, ph, pw);
                    crate::linalg::matmul_block(
                        wmat.as_slice(),
                        cols.as_slice(),
                        ob,
                        cout,
                        cin * kh * kw,
                        (h + 2 * ph + 1 - kh) * (w + 2 * pw + 1 - kw),
                    );
                }
            });
            assert_eq!(
                serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            batched.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    /// Deterministic, value-varied fill for a tensor of `shape`.
    fn wave(shape: &[usize], stride: usize) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|v| ((v * stride + 3) as f32 * 0.173).sin()).collect(), shape)
    }

    /// The serial per-sample backward `conv2d_backward` replaced: the
    /// input gradient folds `Wᵀ·gy` back through `col2im`, the weight
    /// gradient sums `gy · im2col(x)ᵀ` in ascending `b`.
    fn conv2d_backward_reference(
        x: &Tensor,
        w: &Tensor,
        gy: &Tensor,
        ph: usize,
        pw: usize,
    ) -> (Tensor, Tensor) {
        let (b, cin, h, wd) = dims4(x);
        let (cout, _, kh, kw) = dims4(w);
        let ocols = gy.shape()[2] * gy.shape()[3];
        let wmat = w.reshape(&[cout, cin * kh * kw]);
        let mut gx = Tensor::zeros(&[b, cin, h, wd]);
        let mut gw = Tensor::zeros(&[cout, cin * kh * kw]);
        for bi in 0..b {
            let gyb = gy.index_axis(0, bi).reshape(&[cout, ocols]);
            let gxb = col2im(&wmat.matmul_ta(&gyb), cin, h, wd, kh, kw, ph, pw);
            gx.assign_narrow(0, bi, &gxb.reshape(&[1, cin, h, wd]));
            gw.add_assign(&gyb.matmul_tb(&im2col(&x.index_axis(0, bi), kh, kw, ph, pw)));
        }
        (gx, gw.reshape(&[cout, cin, kh, kw]))
    }

    #[test]
    fn conv2d_backward_matches_col2im_reference() {
        for (b, cin, cout, h, w, kh, kw, ph, pw) in [
            // The im2col_into geometry sweep, with a batch and Ci != Co.
            (2, 1, 2, 1, 1, 1, 1, 0, 0),
            (2, 2, 3, 4, 5, 3, 3, 1, 1),
            (3, 3, 2, 5, 4, 2, 4, 0, 2),
            (2, 1, 1, 6, 3, 5, 1, 2, 0),
            (2, 2, 2, 3, 3, 3, 3, 2, 2),
            (2, 1, 3, 1, 1, 6, 6, 3, 3),
            // ph = pw = 0 on H = 1: MICN's valid conv1d.
            (4, 3, 5, 1, 20, 1, 7, 0, 0),
            // Padding beyond the kernel reach (ph > kh - 1): cropped path.
            (2, 2, 3, 3, 4, 3, 3, 4, 3),
            (3, 2, 1, 2, 2, 1, 1, 2, 1),
            // B = 1 and the merged 5x5 inception geometry.
            (1, 4, 6, 8, 12, 5, 5, 2, 2),
        ] {
            let x = wave(&[b, cin, h, w], 7);
            let wt = wave(&[cout, cin, kh, kw], 11);
            let y = conv2d(&x, &wt, ph, pw);
            let gy = wave(y.shape(), 5);
            let (gx, gw) = conv2d_backward(&x, &wt, &gy, ph, pw);
            let (rx, rw) = conv2d_backward_reference(&x, &wt, &gy, ph, pw);
            let geom = format!("b={b} ci={cin} co={cout} h={h} w={w} k={kh}x{kw} p={ph},{pw}");
            assert_eq!(gx.shape(), x.shape(), "{geom}");
            let scale = rx.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
            assert!(gx.allclose(&rx, 1e-5 * scale), "{geom}: gx off by {}", gx.max_abs_diff(&rx));
            // Same per-sample gemm, same ascending-b sum: the weight
            // gradient is not merely close but bitwise equal.
            assert_eq!(
                gw.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                rw.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{geom}"
            );
        }
    }

    #[test]
    fn conv2d_batch_independence() {
        let x0 = Tensor::ones(&[1, 1, 3, 3]);
        let x1 = Tensor::full(&[1, 1, 3, 3], 2.0);
        let x = Tensor::concat(&[&x0, &x1], 0);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, 1, 1);
        let y0 = conv2d(&x0, &w, 1, 1);
        let y1 = conv2d(&x1, &w, 1, 1);
        assert!(y.index_axis(0, 0).allclose(&y0.index_axis(0, 0), 1e-6));
        assert!(y.index_axis(0, 1).allclose(&y1.index_axis(0, 0), 1e-6));
    }
}
