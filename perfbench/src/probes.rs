//! Layer probes: direct calls into each layer's public functions at the
//! shapes the workloads use, each call wrapped in a span. A probe's
//! figure is the median span over its repetitions (after one untimed
//! warm-up call). Work rates (GFLOP/s) are computed from the shapes.
//!
//! Each probe runs at the thread cap of the workload whose shape it
//! takes: train-shape probes at `threads_for("train")`, so the stage
//! probes and the traced train forward they are compared with share a
//! cap; serve- and stream-shape probes at `threads_for("serve")`.

use crate::threads_for;
use crate::trace::{self, span};
use std::collections::BTreeMap;
use std::hint::black_box;
use ts3_autograd::{no_grad, Param, Var};
use ts3_data::{spec_by_name, ForecastTask, Split};
use ts3_nn::{Ctx, DataEmbedding, InceptionBlock, Module};
use ts3_rng::rngs::StdRng;
use ts3_rng::SeedableRng;
use ts3_signal::decompose::DEFAULT_TREND_KERNELS;
use ts3_signal::{
    dominant_period, trend_decompose, triple_decompose, CwtPlan, TripleConfig, WaveletKind,
};
use ts3_tensor::{conv2d, Tensor};
use ts3net_core::{
    batch_dominant_period, batch_trend_split, branch_plans, cwt_amplitude, iwt, Autoregression,
    ForecastModel, PredictionHead, SgdLayer, TS3Net, TS3NetConfig, TfBlock,
};

use crate::train::{BATCH, HORIZON, LOOKBACK};
/// TS3Net scaled profile on 7 channels: d_model, d_hidden, lambda, blocks.
const D_MODEL: usize = 8;
const D_HIDDEN: usize = 8;
const LAMBDA: usize = 8;
/// TF-Blocks in the scaled profile.
const N_BLOCKS: usize = 2;
const C: usize = 7;

fn probe<R>(name: &'static str, reps: usize, mut f: impl FnMut() -> R) {
    black_box(f());
    for _ in 0..reps {
        let _g = span(name);
        black_box(f());
    }
}

fn leaf(name: &str, shape: &[usize], seed: u64) -> Var {
    Param::new(name, Tensor::randn(shape, seed)).var()
}

/// Run every probe; returns per-layer metrics by name and notes naming
/// the thread cap of each probe group.
pub fn run(seed: u64) -> (BTreeMap<String, f64>, Vec<String>) {
    let (train_threads, serve_threads) = (threads_for("train"), threads_for("serve"));
    ts3_tensor::par::set_max_threads(train_threads);
    trace::enable();
    let spec = spec_by_name("ETTh1").expect("ETTh1 is in the catalog");
    probe("data.generate", 5, || spec.generate(crate::DATA_SEED));
    let task = ForecastTask::new(
        &spec.generate(crate::DATA_SEED),
        LOOKBACK,
        HORIZON,
        spec.split,
    );
    let idx: Vec<usize> = (0..BATCH).collect();
    let (x32, _) = task.batch(Split::Val, &idx);
    let mut rng = StdRng::seed_from_u64(seed);

    // tensor: the TF-Block conv shapes, and the fold / head / attention gemms.
    let tf_in = Tensor::randn(&[BATCH, D_MODEL, LAMBDA, LOOKBACK], seed);
    let mut conv_flops = 0.0;
    for k in [1usize, 3, 5] {
        let w = Tensor::randn(&[D_HIDDEN, D_MODEL, k, k], seed + k as u64);
        let name = ["tensor.conv2d.k1", "tensor.conv2d.k3", "tensor.conv2d.k5"][k / 2];
        probe(name, 20, || conv2d(&tf_in, &w, k / 2, k / 2));
        conv_flops += (2 * BATCH * D_HIDDEN * LAMBDA * LOOKBACK * D_MODEL * k * k) as f64;
    }
    let gemms: [(&'static str, [usize; 3], usize); 3] = [
        (
            "tensor.matmul.fold",
            [BATCH * LOOKBACK, D_MODEL * LAMBDA, D_MODEL],
            1,
        ),
        (
            "tensor.matmul.head",
            [BATCH * D_MODEL, LOOKBACK, HORIZON],
            1,
        ),
        // PatchTST at batch 8: 8 x 7 channels x 2 heads, 11 patches, head dim 4.
        ("tensor.matmul.attn", [11, 4, 11], 8 * C * 2),
    ];
    let gemm_probe = |i: usize| {
        let (name, [m, k, n], b) = gemms[i];
        let s = seed + 10 + i as u64;
        if b == 1 {
            let (a, w) = (Tensor::randn(&[m, k], s), Tensor::randn(&[k, n], s + 1));
            probe(name, 50, || a.matmul(&w));
        } else {
            let (q, kk) = (
                Tensor::randn(&[b, m, k], s),
                Tensor::randn(&[b, n, k], s + 1),
            );
            probe(name, 50, || q.matmul_tb(&kk));
        }
    };
    // Fold and head at the train shape.
    gemm_probe(0);
    gemm_probe(1);

    // nn: InceptionBlock at the train shape.
    let inc = InceptionBlock::new("probe.inception", D_MODEL, D_HIDDEN, &mut rng);
    let inc_x = leaf(
        "probe.inception.x",
        &[BATCH, D_MODEL, LAMBDA, LOOKBACK],
        seed,
    );
    let mut ctx = Ctx::train(seed);
    probe("nn.inception.fwd", 7, || inc.forward(&inc_x, &mut ctx));
    probe("nn.inception.fwd_bwd", 5, || {
        inc.forward(&inc_x, &mut ctx).sum().backward()
    });

    // core: TS3Net stages at the train shape, each on a fresh module of
    // the model's own shape.
    let (trend, seasonal) = batch_trend_split(&x32, &DEFAULT_TREND_KERNELS);
    let t_f = batch_dominant_period(&seasonal).clamp(2, LOOKBACK / 2);
    probe("core.trend_split", 20, || {
        batch_trend_split(&x32, &DEFAULT_TREND_KERNELS)
    });
    probe("core.select_t_f", 20, || batch_dominant_period(&seasonal));
    let embed = DataEmbedding::new("probe.embed", C, D_MODEL, 0.1, &mut rng);
    let seasonal_v = Var::constant(seasonal.clone());
    probe("core.embed.fwd", 20, || {
        embed.forward(&seasonal_v, &mut ctx)
    });
    let plans = branch_plans(
        LOOKBACK,
        LAMBDA,
        &[WaveletKind::ComplexGaussian, WaveletKind::ComplexGaussian1],
    );
    let h = leaf("probe.h", &[BATCH, LOOKBACK, D_MODEL], seed + 1);
    let sgd = SgdLayer::new(plans[0].clone());
    probe("core.sgd.fwd", 10, || sgd.forward(&h, t_f).regular);
    probe("core.cwt_amp.fwd_bwd", 10, || {
        cwt_amplitude(&h, &plans[0]).sum().backward()
    });
    let block = TfBlock::new("probe.block", &plans, D_MODEL, D_HIDDEN, &mut rng);
    probe("core.tf_block.fwd", 5, || block.forward(&h, &mut ctx));
    probe("core.tf_block.fwd_bwd", 3, || {
        block.forward(&h, &mut ctx).sum().backward()
    });
    let head_r = PredictionHead::new("probe.head_r", LOOKBACK, HORIZON, D_MODEL, C, &mut rng);
    let head_f = PredictionHead::new("probe.head_f", LOOKBACK, HORIZON, D_MODEL, C, &mut rng);
    let head_t = Autoregression::new(
        "probe.head_t",
        LOOKBACK,
        HORIZON,
        LOOKBACK.max(32),
        &mut rng,
    );
    let fluct = leaf("probe.fluct", &[BATCH, D_MODEL, LAMBDA, LOOKBACK], seed + 2);
    let trend_v = Var::constant(trend);
    probe("core.heads.fwd", 10, || {
        let y = head_r
            .forward(&h, &mut ctx)
            .add(&head_t.forward(&trend_v, &mut ctx));
        y.add(&head_f.forward(&iwt(&fluct, &plans[0]), &mut ctx))
    });
    // The whole train forward, probed right after its stages, so the
    // attribution compares figures taken at one time and one cap.
    let model = TS3Net::new(
        TS3NetConfig::scaled(C, LOOKBACK, HORIZON),
        crate::train::MODEL_SEED,
    );
    probe("core.forward.probe", 5, || model.forecast(&x32, &mut ctx));

    // Serve and stream shapes, at the serve cap.
    ts3_tensor::par::set_max_threads(serve_threads);
    gemm_probe(2);

    // signal: the stream window shape [96, 7].
    let win = task.data.narrow(0, 0, LOOKBACK);
    let col: Vec<f32> = (0..LOOKBACK).map(|i| win.as_slice()[i * C]).collect();
    let plan = CwtPlan::new(LOOKBACK, LAMBDA, WaveletKind::ComplexGaussian);
    let amp = plan.amplitude(&col);
    probe("signal.rfft.n96", 2000, || ts3_signal::fft::rfft(&col));
    probe("signal.cwt_amp", 500, || plan.amplitude(&col));
    probe("signal.cwt_inverse", 500, || plan.inverse(&amp));
    probe("signal.trend", 500, || {
        trend_decompose(&win, &DEFAULT_TREND_KERNELS)
    });
    probe("signal.periodogram", 500, || dominant_period(&win));
    let tcfg = TripleConfig {
        lambda: crate::stream::LAMBDA,
        ..Default::default()
    };
    probe("signal.triple_decompose", 50, || {
        triple_decompose(&win, &tcfg)
    });

    // nn: InceptionBlock at the serve shape (B = 1, tape-free as in a
    // compiled plan).
    let inc_x1 = Var::constant(Tensor::randn(&[1, D_MODEL, LAMBDA, LOOKBACK], seed));
    let mut eval = Ctx::eval();
    probe("nn.inception.b1.fwd", 50, || {
        no_grad(|| inc.forward(&inc_x1, &mut eval))
    });

    // core: compiled plans of the three serve tenants at batch 1 and 8.
    let calib: Vec<Vec<f32>> = (0..3)
        .map(|_| x32.narrow(0, 0, 1).as_slice().to_vec())
        .collect();
    probe("core.freeze", 3, || crate::serve::build_plans(&calib));
    let tenant_plans = crate::serve::build_plans(&calib);
    let (x1, x8) = (x32.narrow(0, 0, 1), x32.narrow(0, 0, 8));
    let names: [[&'static str; 2]; 3] = [
        ["core.plan_run.ts3net.b1", "core.plan_run.ts3net.b8"],
        ["core.plan_run.patchtst.b1", "core.plan_run.patchtst.b8"],
        ["core.plan_run.dlinear.b1", "core.plan_run.dlinear.b8"],
    ];
    for ((plan, [n1, n8]), reps) in tenant_plans.iter().zip(names).zip([20usize, 100, 400]) {
        probe(n1, reps, || plan.run(&x1).expect("plan runs"));
        probe(n8, reps / 4, || plan.run(&x8).expect("plan runs"));
    }

    let a = trace::aggregate(&trace::take());
    let us = |n: &str| a[n].median_us();
    let ms = |n: &str| a[n].median_ms();
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("data.generate_ms", ms("data.generate"));
    let conv_us: f64 = ["tensor.conv2d.k1", "tensor.conv2d.k3", "tensor.conv2d.k5"]
        .iter()
        .map(|n| {
            put(&format!("{n}.us"), us(n));
            us(n)
        })
        .sum();
    put("tensor.conv2d.gflops", conv_flops / conv_us / 1e3);
    let (mut flops, mut secs) = (0.0, 0.0);
    for (name, [mm, k, n], b) in gemms {
        let f = (2 * b * mm * k * n) as f64;
        put(&format!("{name}.gflops"), f / us(name) / 1e3);
        flops += f;
        secs += us(name);
    }
    put("tensor.matmul.gflops", flops / secs / 1e3);
    // Stage probes times their calls per forward (trend split, period
    // selection, embed and heads once; S-GD and TF-Block once per block)
    // over the probed forward.
    let stages = ms("core.trend_split")
        + ms("core.select_t_f")
        + ms("core.embed.fwd")
        + N_BLOCKS as f64 * (ms("core.sgd.fwd") + ms("core.tf_block.fwd"))
        + ms("core.heads.fwd");
    let forward = ms("core.forward.probe");
    put("core.forward.attributed_frac", stages / forward);
    for n in [
        "signal.rfft.n96",
        "signal.cwt_amp",
        "signal.cwt_inverse",
        "signal.trend",
        "signal.periodogram",
        "signal.triple_decompose",
    ] {
        put(&format!("{n}.us"), us(n));
    }
    for n in [
        "nn.inception.fwd",
        "nn.inception.fwd_bwd",
        "nn.inception.b1.fwd",
        "core.trend_split",
        "core.select_t_f",
        "core.embed.fwd",
        "core.sgd.fwd",
        "core.cwt_amp.fwd_bwd",
        "core.tf_block.fwd",
        "core.tf_block.fwd_bwd",
        "core.heads.fwd",
        "core.freeze",
    ] {
        put(&format!("{n}_ms"), ms(n));
    }
    for (t, [n1, n8]) in crate::spec::TENANTS.iter().zip(names) {
        put(&format!("core.plan_run.{t}.b1_ms"), ms(n1));
        put(&format!("core.plan_run.{t}.b8_ms"), ms(n8));
        put(
            &format!("core.plan_run.{t}.batch_gain"),
            8.0 * ms(n1) / ms(n8),
        );
    }
    let notes = vec![
        format!(
            "probes at TS3_THREADS={train_threads} (train shapes): data.generate, tensor.conv2d.*, \
             tensor.matmul.fold/head, nn.inception.fwd/fwd_bwd, core stages"
        ),
        format!(
            "probes at TS3_THREADS={serve_threads} (serve and stream shapes): tensor.matmul.attn, \
             signal.*, nn.inception.b1.fwd, core.freeze, core.plan_run.*"
        ),
        "tensor.matmul.gflops pools the fold, head and attn probes at their own caps".to_string(),
        format!(
            "core.forward.attributed_frac: stages {stages:.2} ms of a probed train forward of {forward:.2} ms"
        ),
    ];
    (m, notes)
}
