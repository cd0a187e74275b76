//! `Var::gelu` splits its elementwise maps over the worker pool and
//! reuses the forward's `tanh` in the backward. Neither may change a bit:
//! forward values and input gradients are pinned against the plain
//! scalar formulas at forced thread counts.
//!
//! One `#[test]` in its own binary, because the thread cap is
//! process-global.

use ts3_autograd::{no_grad, Var};
use ts3_tensor::{par, Tensor};

/// The scalar forward formula, written out as the reference.
fn gelu_ref(v: f32) -> f32 {
    0.5 * v * (1.0 + (0.797_884_6 * (v + 0.044_715 * v * v * v)).tanh())
}

/// The scalar derivative formula, recomputing `tanh` from `x`.
fn dgelu_ref(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    const A: f32 = 0.044_715;
    let t = (C * (x + A * x * x * x)).tanh();
    let du = C * (1.0 + 3.0 * A * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn gelu_forward_and_backward_bits_ignore_thread_count() {
    // The TF-block activation shape: large enough to split many ways.
    let shape = [32, 8, 8, 96];
    let x = Tensor::randn(&shape, 3).mul_scalar(2.0);
    let g = Tensor::randn(&shape, 4);
    let want_y = x.map(gelu_ref);
    let want_gx = Tensor::from_vec(
        x.as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(&x, &g)| g * dgelu_ref(x))
            .collect(),
        &shape,
    );

    let orig = par::max_threads();
    for threads in [1, 2, 3, 5, 8] {
        par::set_max_threads(threads);
        let leaf = Var::constant(x.clone());
        let y = leaf.gelu();
        y.backward_with(g.clone());
        assert_eq!(bits(y.value()), bits(&want_y), "forward, threads = {threads}");
        assert_eq!(bits(&leaf.grad().unwrap()), bits(&want_gx), "backward, threads = {threads}");
        let frozen = no_grad(|| Var::constant(x.clone()).gelu());
        assert_eq!(bits(frozen.value()), bits(&want_y), "no-grad, threads = {threads}");
    }
    par::set_max_threads(orig);
}
