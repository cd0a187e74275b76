//! `train`: closed-loop TS3Net training at the scaled profile on
//! ETTh1-like synthetic data (7 channels, lookback 96, horizon 96,
//! batch 32). An episode restores the seeded initial weights, takes a
//! fixed number of Adam steps with `clip_grad_norm(5.0)` and evaluates
//! on fixed validation windows; episodes repeat until the timed window
//! is over. Every episode must reach a bitwise-identical `val_mse`.

use crate::stats::{median, summarize};
use crate::trace::{self, span};
use crate::{PassCfg, PassOut};
use std::time::Instant;
use ts3_data::{spec_by_name, ForecastTask, Split};
use ts3_nn::{mse, Adam, Ctx, Optimizer};
use ts3_tensor::Tensor;
use ts3net_core::{ForecastModel, TS3Net, TS3NetConfig};

/// Lookback, horizon, batch size (the paper's long-term setting).
pub const LOOKBACK: usize = 96;
/// Forecast horizon.
pub const HORIZON: usize = 96;
/// Training batch size.
pub const BATCH: usize = 32;
/// Adam steps per episode.
const STEPS: usize = 8;
/// Validation batches of `BATCH` windows.
const VAL_BATCHES: usize = 4;
/// Seed of the model's initial weights and dropout stream: part of the
/// program under test, not of the generated inputs.
pub const MODEL_SEED: u64 = 2024;
const LR: f32 = 1e-3;

struct Setup {
    task: ForecastTask,
    model: TS3Net,
    init: Vec<Tensor>,
    order: Vec<Vec<usize>>,
    val: Vec<(Tensor, Tensor)>,
}

fn setup(seed: u64, steps: usize) -> Setup {
    let spec = spec_by_name("ETTh1").expect("ETTh1 is in the catalog");
    let raw = spec.generate(crate::DATA_SEED);
    let task = ForecastTask::new(&raw, LOOKBACK, HORIZON, spec.split);
    let model = trace::timed("setup.train.build", || {
        TS3Net::new(
            TS3NetConfig::scaled(spec.dims, LOOKBACK, HORIZON),
            MODEL_SEED,
        )
    });
    let init = model
        .parameters()
        .iter()
        .map(|p| p.value().clone())
        .collect();
    let order = task.epoch_batches(Split::Train, BATCH, seed, Some(steps));
    assert_eq!(order.len(), steps, "ETTh1 holds enough training windows");
    // Fixed, evenly spread validation windows.
    let n_val = task.len(Split::Val);
    let stride = n_val / (VAL_BATCHES * BATCH);
    let val = (0..VAL_BATCHES)
        .map(|b| {
            let idx: Vec<usize> = (0..BATCH).map(|i| (b * BATCH + i) * stride).collect();
            task.batch(Split::Val, &idx)
        })
        .collect();
    Setup {
        task,
        model,
        init,
        order,
        val,
    }
}

/// One episode; returns (step seconds, val_mse, all losses finite).
fn episode(s: &Setup, steps: &mut Vec<f64>, deadline: Option<Instant>) -> Option<(f64, bool)> {
    for (p, v) in s.model.parameters().iter().zip(&s.init) {
        p.set_value(v.clone());
        p.zero_grad();
    }
    let mut opt = Adam::new(s.model.parameters(), LR);
    let mut ctx = Ctx::train(MODEL_SEED);
    let mut finite = true;
    for idx in &s.order {
        let t = Instant::now();
        {
            let _step = span("train.step");
            let (x, y) = trace::timed("data.batch", || s.task.batch(Split::Train, idx));
            let loss = trace::timed("core.forward", || {
                s.model.forecast(&x, &mut ctx).mse_loss(&y)
            });
            finite &= loss.value().item().is_finite();
            opt.zero_grad();
            trace::timed("autograd.backward", || loss.backward());
            trace::timed("nn.clip", || opt.clip_grad_norm(5.0));
            trace::timed("nn.adam", || opt.step());
        }
        steps.push(t.elapsed().as_secs_f64());
        if deadline.is_some_and(|d| Instant::now() > d) {
            return None;
        }
    }
    let _eval = span("train.eval");
    let mut ctx = Ctx::eval();
    let total: f64 = s
        .val
        .iter()
        .map(|(x, y)| mse(s.model.forecast(x, &mut ctx).value(), y) as f64)
        .sum();
    Some((total / s.val.len() as f64, finite))
}

/// Run the `train` workload.
pub fn run(cfg: PassCfg) -> PassOut {
    let mut out = PassOut::default();
    let steps_per_episode = if cfg.full { STEPS } else { 2 };
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..cfg.setups.max(1) {
        if cfg.traced {
            trace::enable();
        }
        drop(s.take());
        let t = Instant::now();
        s = Some(setup(cfg.seed, steps_per_episode));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one setup");

    let mut steps = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut finite = true;
    let t0 = Instant::now();
    let end = t0 + std::time::Duration::from_secs_f64(cfg.seconds);
    // At least two whole episodes, so the determinism check has a pair.
    loop {
        let deadline = if vals.len() >= 2 { Some(end) } else { None };
        match episode(&s, &mut steps, deadline) {
            Some((v, ok)) => {
                vals.push(v);
                finite &= ok;
            }
            None => break,
        }
        if vals.len() >= 2 && Instant::now() > end {
            break;
        }
    }
    let spans = trace::take();

    let lat: Vec<f64> = steps.iter().map(|s| s * 1e3).collect();
    let sum = summarize(&lat);
    out.e2e.insert("setup_s".into(), median(&setup_s));
    // Windows per second of step time: evaluation is excluded, so the
    // figure does not depend on where the timed window cuts an episode.
    out.e2e.insert(
        "throughput_per_s".into(),
        (steps.len() * BATCH) as f64 / steps.iter().sum::<f64>(),
    );
    out.e2e.insert("latency_ms.p50".into(), sum.p50);
    out.e2e.insert("latency_ms.tail".into(), sum.tail);
    out.e2e.insert("val_mse".into(), vals[0]);
    out.attempted = steps.len() as u64;
    out.notes.push(format!(
        "train: latency_ms.tail is p{} of n={} steps; {} episodes of {} steps; val_mse {:?}",
        sum.tail_pct,
        sum.n,
        vals.len(),
        steps_per_episode,
        vals[0]
    ));
    out.check("every training loss is finite", finite);
    out.check(
        format!(
            "val_mse bitwise equal across {} episodes at one seed",
            vals.len()
        ),
        vals.iter().all(|v| v.to_bits() == vals[0].to_bits()),
    );
    out.check("val_mse is finite", vals[0].is_finite());

    if cfg.traced {
        let a = trace::aggregate(&spans);
        let step_agg = &a["train.step"];
        let step = step_agg.mean_ms();
        let phase = |n: &str| a.get(n).map_or(0.0, |x| x.mean_ms());
        // The step's own self time is what its phases do not account for.
        let attributed_frac = 1.0 - step_agg.self_ns as f64 / step_agg.total_ns as f64;
        let l = &mut out.layer;
        l.insert("setup.train.build_ms".into(), phase("setup.train.build"));
        l.insert("train.step_ms".into(), step);
        l.insert("train.step.attributed_frac".into(), attributed_frac);
        l.insert("train.eval_ms".into(), phase("train.eval"));
        l.insert("data.batch_ms".into(), phase("data.batch"));
        l.insert("core.forward_ms".into(), phase("core.forward"));
        l.insert("autograd.backward_ms".into(), phase("autograd.backward"));
        l.insert(
            "autograd.backward_frac".into(),
            phase("autograd.backward") / step,
        );
        l.insert("nn.clip_ms".into(), phase("nn.clip"));
        l.insert("nn.adam_ms".into(), phase("nn.adam"));
        out.notes.push(format!(
            "train phases per step: data {:.3} + forward {:.2} + backward {:.2} + clip {:.3} + adam {:.3} ms \
             = {:.1}% of {:.2} ms measured",
            phase("data.batch"),
            phase("core.forward"),
            phase("autograd.backward"),
            phase("nn.clip"),
            phase("nn.adam"),
            100.0 * attributed_frac,
            step
        ));
    }
    out
}
