//! `conv2d_backward` reports its own work under `tensor.conv2d.bwd`: one
//! span and exact `calls` / `flops` / `bytes` counters, with nothing
//! counted as forward conv work even though the input gradient runs
//! through the forward kernel.
//!
//! Its own binary: the trace level and the metrics registry are
//! process-global.

use ts3_tensor::{conv2d_backward, Tensor};

#[test]
fn backward_counters_are_exact_and_separate_from_forward() {
    let (b, ci, co, h, w, k, p) = (2, 3, 4, 4, 5, 3, 1);
    let x = Tensor::randn(&[b, ci, h, w], 1);
    let wt = Tensor::randn(&[co, ci, k, k], 2);
    let gy = Tensor::randn(&[b, co, h, w], 3); // same padding: OH = H

    ts3_obs::set_level(1);
    ts3_obs::reset();
    let (gx, gw) = conv2d_backward(&x, &wt, &gy, p, p);
    let snap = ts3_obs::metrics_snapshot();
    let shape = ts3_obs::tree_shape();
    ts3_obs::set_level(0);
    ts3_obs::reset();

    assert_eq!(gx.shape(), x.shape());
    assert_eq!(gw.shape(), wt.shape());
    let counter = |name: &str| snap.counters.iter().find(|(n, _)| *n == name).map(|c| c.1);
    assert_eq!(counter("tensor.conv2d.bwd.calls"), Some(1));
    // Both products: 2 · B · Co · Ci·K·K · (H·W + OH·OW) = 2·2·4·27·40.
    assert_eq!(counter("tensor.conv2d.bwd.flops"), Some(17_280));
    // Reads x, w, gy and writes gx, gw: 4 bytes · (2·120 + 2·108 + 160).
    assert_eq!(counter("tensor.conv2d.bwd.bytes"), Some(2_464));
    assert_eq!(counter("tensor.conv2d.calls"), None, "backward counted as forward work");
    assert_eq!(shape, "tensor.conv2d.bwd");
}
