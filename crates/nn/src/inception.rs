//! Inception-style multi-kernel 2-D convolution block — the
//! `ConvBackbone` of the paper's TF-Block (Eq. 13), also used by the
//! TimesNet baseline.
//!
//! Each stage is the average of same-padded convs with kernel sizes
//! `{1, 3, 5}`. Convolution is linear in its kernel, so that average is
//! one 5×5 conv whose kernel is the mean of the zero-padded kernels
//! (`(pad(w1, 2) + pad(w3, 1) + w5) / 3`) and whose bias is the mean of
//! the biases — RepVGG-style structural re-parameterisation (Ding et
//! al., CVPR 2021). The merged kernel is rebuilt inside every forward
//! from the three parameters with differentiable pads and adds, so
//! training, parameter names and checkpoints stay per-kernel while the
//! stage costs one conv (25 taps instead of 1 + 9 + 25) and one bias add.

use crate::layers::Conv2d;
use crate::module::{Ctx, Module};
use crate::Activation;
use ts3_rng::rngs::StdRng;
use ts3_autograd::{Param, Var};

/// Two multi-scale stages `c_in -> hidden -> c_in` with a GELU between
/// them; each stage averages same-padded convs with kernel sizes
/// `{1, 3, 5}`, executed as one merged conv.
pub struct InceptionBlock {
    stage1: Vec<Conv2d>,
    stage2: Vec<Conv2d>,
}

impl InceptionBlock {
    /// Build a block `c_in -> hidden -> c_in` with the default kernel set.
    pub fn new(name: &str, c_in: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let kernels = [1usize, 3, 5];
        InceptionBlock {
            stage1: kernels
                .iter()
                .map(|&k| Conv2d::new(&format!("{name}.s1.k{k}"), c_in, hidden, k, rng))
                .collect(),
            stage2: kernels
                .iter()
                .map(|&k| Conv2d::new(&format!("{name}.s2.k{k}"), hidden, c_in, k, rng))
                .collect(),
        }
    }

    /// One stage: the mean of the convs' outputs, computed as a single
    /// conv with the mean of their kernels zero-padded to the largest
    /// size, plus the mean bias.
    fn multi_scale(convs: &[Conv2d], x: &Var) -> Var {
        let k = convs.iter().map(|c| c.weight.shape()[2]).max().unwrap_or(1);
        let mean = |terms: Vec<Var>| {
            terms
                .into_iter()
                .reduce(|acc, t| acc.add(&t))
                // ts3-lint: allow(no-unwrap-in-lib) the kernel list is non-empty by construction, so the fold always produces a value
                .expect("at least one kernel")
                .mul_scalar(1.0 / convs.len() as f32)
        };
        let kernel = mean(
            convs
                .iter()
                .map(|c| match (k - c.weight.shape()[2]) / 2 {
                    0 => c.weight.var(),
                    p => c.weight.var().pad_axis(2, p, p).pad_axis(3, p, p),
                })
                .collect(),
        );
        let bias = mean(convs.iter().map(|c| c.bias.var()).collect());
        let co = bias.shape()[0];
        x.conv2d(&kernel, k / 2, k / 2).add(&bias.reshape(&[co, 1, 1]))
    }
}

impl Module for InceptionBlock {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        assert_eq!(x.shape().len(), 4, "InceptionBlock expects [B, C, H, W]");
        let h = Self::multi_scale(&self.stage1, x);
        let h = Activation::Gelu.forward(&h, ctx);
        Self::multi_scale(&self.stage2, &h)
    }

    fn params(&self) -> Vec<Param> {
        self.stage1
            .iter()
            .chain(self.stage2.iter())
            .flat_map(|c| c.params())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_rng::SeedableRng;
    use ts3_tensor::Tensor;

    #[test]
    fn inception_preserves_spatial_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let block = InceptionBlock::new("inc", 4, 6, &mut rng);
        let mut ctx = Ctx::eval();
        let y = block.forward(&Var::constant(Tensor::randn(&[2, 4, 8, 12], 1)), &mut ctx);
        assert_eq!(y.shape(), &[2, 4, 8, 12]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn inception_param_count() {
        let mut rng = StdRng::seed_from_u64(6);
        let block = InceptionBlock::new("inc", 2, 3, &mut rng);
        // stage1: (1+9+25) kernels * 2*3 weights + 3 biases each;
        // stage2 symmetric with 2 out channels.
        let expected = (1 + 9 + 25) * 6 + 3 * 3 + (1 + 9 + 25) * 6 + 3 * 2;
        assert_eq!(block.num_params(), expected);
    }

    /// The explicit form the merged stage replaces: every conv run on
    /// its own, outputs summed and scaled.
    fn three_conv_stage(convs: &[Conv2d], x: &Var, ctx: &mut Ctx) -> Var {
        let sum = convs[1..]
            .iter()
            .fold(convs[0].forward(x, ctx), |acc, c| acc.add(&c.forward(x, ctx)));
        sum.mul_scalar(1.0 / convs.len() as f32)
    }

    #[test]
    fn merged_stages_match_three_conv_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        let block = InceptionBlock::new("inc", 3, 5, &mut rng);
        // Non-zero biases so the bias averaging is exercised too.
        for (i, p) in block.params().iter().enumerate() {
            if p.shape().len() == 1 {
                p.set_value(Tensor::randn(&p.shape(), 40 + i as u64));
            }
        }
        let x = Tensor::randn(&[2, 3, 6, 7], 9);
        let target = Tensor::randn(&[2, 3, 6, 7], 10);
        let mut ctx = Ctx::eval();
        let run = |forward: &dyn Fn(&Var, &mut Ctx) -> Var, ctx: &mut Ctx| {
            for p in block.params() {
                p.zero_grad();
            }
            let y = forward(&Var::constant(x.clone()), ctx);
            y.mse_loss(&target).backward();
            let grads: Vec<Tensor> = block.params().iter().map(|p| p.grad().clone()).collect();
            (y.value().clone(), grads)
        };
        let (y, grads) = run(&|x, ctx| block.forward(x, ctx), &mut ctx);
        let (y_ref, grads_ref) = run(
            &|x, ctx| {
                let h = three_conv_stage(&block.stage1, x, ctx);
                let h = Activation::Gelu.forward(&h, ctx);
                three_conv_stage(&block.stage2, &h, ctx)
            },
            &mut ctx,
        );
        assert!(y.allclose(&y_ref, 1e-5), "output off by {}", y.max_abs_diff(&y_ref));
        assert_eq!(grads.len(), 12);
        for ((p, g), r) in block.params().iter().zip(&grads).zip(&grads_ref) {
            let scale = r.as_slice().iter().fold(1e-3f32, |m, v| m.max(v.abs()));
            assert!(
                g.allclose(r, 1e-4 * scale),
                "{}: gradient off by {} (scale {scale})",
                p.name(),
                g.max_abs_diff(r)
            );
        }
    }

    #[test]
    fn checkpoint_round_trips_under_per_kernel_names() {
        let mut rng = StdRng::seed_from_u64(11);
        let block = InceptionBlock::new("inc", 2, 3, &mut rng);
        let names: Vec<String> = block.params().iter().map(|p| p.name().to_string()).collect();
        let want: Vec<String> = ["s1", "s2"]
            .iter()
            .flat_map(|s| [1, 3, 5].map(|k| format!("inc.{s}.k{k}")))
            .flat_map(|c| [format!("{c}.weight"), format!("{c}.bias")])
            .collect();
        assert_eq!(names, want);

        let ckpt = crate::checkpoint::Checkpoint::capture(&block.params()).unwrap();
        let restored = InceptionBlock::new("inc", 2, 3, &mut StdRng::seed_from_u64(12));
        ckpt.restore(&restored.params()).unwrap();
        let x = Var::constant(Tensor::randn(&[1, 2, 4, 5], 13));
        let mut ctx = Ctx::eval();
        let (a, b) = (block.forward(&x, &mut ctx), restored.forward(&x, &mut ctx));
        assert_eq!(a.value().as_slice(), b.value().as_slice());
    }

    #[test]
    fn inception_trains_toward_zero() {
        let mut rng = StdRng::seed_from_u64(7);
        let block = InceptionBlock::new("inc", 2, 2, &mut rng);
        let mut ctx = Ctx::train(0);
        let x = Var::constant(Tensor::randn(&[1, 2, 4, 6], 2).mul_scalar(0.5));
        let target = Tensor::zeros(&[1, 2, 4, 6]);
        let losses: Vec<f32> = (0..5)
            .map(|_| {
                let loss = block.forward(&x, &mut ctx).mse_loss(&target);
                for p in block.params() {
                    p.zero_grad();
                }
                loss.backward();
                for p in block.params() {
                    p.update_with(|v, g| v.axpy(-0.1, g));
                }
                loss.value().item()
            })
            .collect();
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }
}
