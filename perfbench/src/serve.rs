//! `serve`: open-loop Poisson arrivals of whole `[96, 7]` windows at a
//! fixed ladder of rates against one `ts3-serve` server hosting three
//! frozen plans of very different cost — TS3Net, PatchTST and DLinear,
//! each fed windows from its own synthetic dataset.
//!
//! One load thread generates the requests and steps the server: it submits
//! every request that has come due, steps the server at the current
//! millisecond tick (the step blocks while the executor runs due
//! batches), collects replies and sleeps until the next arrival or tick.
//! Each request is timed from the moment it was due, so a long batch that
//! delays later submissions is charged to them.

use crate::spec::TENANTS;
use crate::stats::{self, median, summarize, Rung};
use crate::trace::{self, span};
use crate::{PassCfg, PassOut};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};
use ts3_baselines::{build_forecaster, BaselineConfig};
use ts3_data::{spec_by_name, ForecastTask, Split};
use ts3_rng::rngs::StdRng;
use ts3_rng::seq::SliceRandom;
use ts3_rng::{Rng, SeedableRng};
use ts3_serve::{CoalescerConfig, ForecastRequest, ForecastResponse, ServerConfig, ServerHandle};
use ts3_tensor::Tensor;
use ts3net_core::{CompiledPlan, ForecastModel, TS3NetConfig};

/// Offered rates, requests per second. The lowest builds no queue; the
/// highest is well past capacity.
pub const RATES: [f64; 6] = [25.0, 50.0, 100.0, 250.0, 500.0, 2000.0];
/// Index of the middle rate (the end-to-end latency rung). At 100/s the
/// median request sits well below the knee where cheap requests start
/// to queue behind TS3Net batches; at 250/s it sat on that knee and
/// moved with every change in host speed.
const MID: usize = 2;
/// Tail-latency limit for `serve.slo_rate_per_s`.
pub const SLO_LIMIT_MS: f64 = 50.0;
/// Share of the timed window per rung. The overload rung is short: its
/// backlog drains after it, at capacity, for about as long again.
const RUNG_SHARE: [f64; 6] = [0.06, 0.06, 0.5, 0.16, 0.16, 0.06];
/// Bursts the overload rung is split into.
const TOP_BURSTS: usize = 3;
/// Order in which the rungs run (indices into `RATES`). The overload
/// rung runs as `TOP_BURSTS` bursts spread over the timed window, each
/// drained before the next rung starts, so the capacity figure averages
/// host phases that last seconds instead of sampling one.
const RUN_ORDER: [usize; 8] = [0, 1, 5, 2, 5, 3, 4, 5];
/// Request mix over the tenants, per block of `MIX_BLOCK` arrivals. An
/// assumption: no traffic data stands behind it (see README.md,
/// *Assumptions*). Cheaper tenants send more requests; half are DLinear,
/// so the median request reads the execute path, while TS3Net, a fifth
/// of the requests, takes most of the executor's time and sets capacity
/// and the tail.
const MIX: [usize; 3] = [2, 3, 5];
const MIX_BLOCK: usize = 10;
/// Dataset feeding each tenant.
const DATASETS: [&str; 3] = ["ETTh1", "ETTm1", "ETTh2"];
/// Model names as the baseline factory knows them.
const MODELS: [&str; 3] = ["TS3Net", "PatchTST", "DLinear"];
const LOOKBACK: usize = 96;
const HORIZON: usize = 96;
const CHANNELS: usize = 7;
/// Deadline slack in ticks (1 tick = 1 ms).
const SLACK_TICKS: u64 = 50;
/// Served replies kept per tenant for the solo re-run check.
const CHECK_CAP: [usize; 3] = [150, 400, 1000];
const MODEL_SEED: u64 = crate::train::MODEL_SEED;

fn coalescer() -> CoalescerConfig {
    CoalescerConfig {
        max_batch: 8,
        max_hold: 2,
    }
}

/// Build the three tenant plans (on whichever thread calls this; plans
/// are `!Send`). `calib` is one `[1, 96, 7]` window per tenant.
pub fn build_plans(calib: &[Vec<f32>]) -> Vec<CompiledPlan> {
    let cfg = BaselineConfig::scaled(CHANNELS, LOOKBACK, HORIZON);
    let ts3 = TS3NetConfig::scaled(CHANNELS, LOOKBACK, HORIZON);
    MODELS
        .iter()
        .zip(calib)
        .map(|(name, c)| {
            let model: Rc<dyn ForecastModel> =
                Rc::from(build_forecaster(name, &cfg, &ts3, MODEL_SEED));
            let calib = Tensor::from_vec(c.clone(), &[1, LOOKBACK, CHANNELS]);
            CompiledPlan::freeze(model, &calib)
                .unwrap_or_else(|e| panic!("{name}: freeze failed: {e}"))
        })
        .collect()
}

struct Arrival {
    due: f64,
    tenant: usize,
    window: usize,
}

struct Setup {
    /// Per tenant: test-split windows (x, y).
    windows: Vec<Vec<(Tensor, Tensor)>>,
    solo: Vec<CompiledPlan>,
    server: ServerHandle,
    /// Arrivals per segment, in `RUN_ORDER`.
    schedule: Vec<Vec<Arrival>>,
}

fn setup(cfg: &PassCfg) -> Setup {
    let windows: Vec<Vec<(Tensor, Tensor)>> = DATASETS
        .iter()
        .map(|name| {
            let spec = spec_by_name(name).expect("dataset in the catalog");
            let raw = spec.generate(crate::DATA_SEED);
            let task = ForecastTask::new(&raw, LOOKBACK, HORIZON, spec.split);
            (0..task.len(Split::Test))
                .map(|i| task.window(Split::Test, i))
                .collect()
        })
        .collect();
    let calib: Vec<Vec<f32>> = windows.iter().map(|w| w[0].0.as_slice().to_vec()).collect();
    let solo = trace::timed("setup.serve.build", || build_plans(&calib));
    let server = {
        let _s = span("setup.serve.server_start");
        let server = ServerHandle::start(
            ServerConfig {
                coalescer: coalescer(),
            },
            move || build_plans(&calib),
        );
        // The first step returns once the executor has built its plans.
        server.step(0).expect("server starts");
        server
    };
    // Warm every tenant at batch 1 and 8 so lazy set-up is done before
    // timing.
    let (tx, rx) = channel();
    for (tenant, w) in windows.iter().enumerate() {
        for n in [1usize, 8] {
            for (x, _) in w.iter().take(n) {
                let req = ForecastRequest {
                    tenant,
                    input: x.clone(),
                    submitted: 0,
                    deadline: 0,
                };
                server.submit(req, &tx).expect("server accepts the warm-up");
            }
            server.step(0).expect("warm-up step");
        }
    }
    drop(tx);
    assert_eq!(rx.iter().count(), 27, "every warm-up request is answered");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e7e);
    let mut block: Vec<usize> = (0..3)
        .flat_map(|t| std::iter::repeat_n(t, MIX[t]))
        .collect();
    let mut per_rung: Vec<Vec<Arrival>> = RATES
        .iter()
        .zip(RUNG_SHARE)
        .enumerate()
        .map(|(i, (&rate, share))| {
            let d = (cfg.seconds * share).max(0.2);
            stats::poisson_arrivals(rate, d, cfg.seed.wrapping_mul(31).wrapping_add(i as u64))
                .into_iter()
                .enumerate()
                .map(|(j, due)| {
                    // Exact mix per block of MIX_BLOCK arrivals, in seeded
                    // order, so every rung carries the same share of each
                    // tenant.
                    if j % MIX_BLOCK == 0 {
                        block.shuffle(&mut rng);
                    }
                    let tenant = block[j % MIX_BLOCK];
                    let window = rng.gen_range(0..windows[tenant].len());
                    Arrival {
                        due,
                        tenant,
                        window,
                    }
                })
                .collect()
        })
        .collect();
    // Cut the overload rung into bursts, each timed from its own start.
    let top = RATES.len() - 1;
    let burst_s = (cfg.seconds * RUNG_SHARE[top]).max(0.2) / TOP_BURSTS as f64;
    let mut bursts: Vec<Vec<Arrival>> = (0..TOP_BURSTS).map(|_| Vec::new()).collect();
    for a in per_rung[top].drain(..) {
        let b = ((a.due / burst_s) as usize).min(TOP_BURSTS - 1);
        bursts[b].push(Arrival {
            due: a.due - b as f64 * burst_s,
            ..a
        });
    }
    let mut bursts = bursts.into_iter();
    let schedule = RUN_ORDER
        .iter()
        .map(|&r| {
            if r == top {
                bursts.next().expect("one burst per top slot")
            } else {
                std::mem::take(&mut per_rung[r])
            }
        })
        .collect();
    Setup {
        windows,
        solo,
        server,
        schedule,
    }
}

struct Outstanding {
    idx: usize,
    tick: u64,
    due: f64,
    sent: f64,
}

/// Per-rung measurements.
#[derive(Default)]
struct RungOut {
    latency_ms: Vec<f64>,
    /// (due time, latency ms), for slicing.
    latency_at: Vec<(f64, f64)>,
    /// (step seconds, requests the step completed).
    steps: Vec<(f64, usize)>,
    tenant_ms: [Vec<f64>; 3],
    lateness_ms: Vec<f64>,
    batches: f64,
    misses: usize,
    backlog: Vec<(f64, f64)>,
    /// Whether the backlog grew in any segment of the rung.
    growing: bool,
    arrivals: usize,
    failed: usize,
    spans: Vec<trace::SpanRec>,
}

impl RungOut {
    /// Fold in another segment of the same rung.
    fn absorb(&mut self, o: RungOut) {
        self.latency_ms.extend(o.latency_ms);
        self.latency_at.extend(o.latency_at);
        self.steps.extend(o.steps);
        for (a, b) in self.tenant_ms.iter_mut().zip(o.tenant_ms) {
            a.extend(b);
        }
        self.lateness_ms.extend(o.lateness_ms);
        self.batches += o.batches;
        self.misses += o.misses;
        self.backlog.extend(o.backlog);
        self.growing |= o.growing;
        self.arrivals += o.arrivals;
        self.failed += o.failed;
        let base = self.spans.len();
        self.spans.extend(o.spans.into_iter().map(|mut sp| {
            sp.parent = sp.parent.map(|p| p + base);
            sp
        }));
    }
}

/// A kept reply for the solo check.
struct Kept {
    tenant: usize,
    window: usize,
    y: Tensor,
}

struct Acc {
    kept: Vec<Kept>,
    seen: [usize; 3],
    stride: [usize; 3],
    sq_err: f64,
    n_err: usize,
    bad_shape: usize,
    mismatched: usize,
}

/// Run one segment of the schedule.
fn run_rung(s: &Setup, seg: usize, pass_t0: Instant, traced: bool, acc: &mut Acc) -> RungOut {
    let arrivals = &s.schedule[seg];
    let mut out = RungOut {
        arrivals: arrivals.len(),
        ..RungOut::default()
    };
    let chans: Vec<(Sender<ForecastResponse>, Receiver<ForecastResponse>)> =
        (0..3).map(|_| channel()).collect();
    let mut outstanding: Vec<VecDeque<Outstanding>> = (0..3).map(|_| VecDeque::new()).collect();
    let mut n_out = 0usize;
    let mut next = 0usize;
    let (mut due, mut answered) = (0usize, 0usize);
    let mut last_tick = None;
    if traced {
        trace::enable();
    }
    let t0 = Instant::now();
    let tick_of = |t: Instant| t.duration_since(pass_t0).as_millis() as u64;
    loop {
        let mut submitted = false;
        while next < arrivals.len() && arrivals[next].due <= t0.elapsed().as_secs_f64() {
            let a = &arrivals[next];
            let tick = tick_of(Instant::now());
            let req = ForecastRequest {
                tenant: a.tenant,
                input: s.windows[a.tenant][a.window].0.clone(),
                submitted: tick,
                deadline: tick + SLACK_TICKS,
            };
            let ok =
                trace::timed("serve.submit", || s.server.submit(req, &chans[a.tenant].0)).is_ok();
            let sent = t0.elapsed().as_secs_f64();
            if ok {
                outstanding[a.tenant].push_back(Outstanding {
                    idx: next,
                    tick,
                    due: a.due,
                    sent,
                });
                n_out += 1;
            } else {
                out.failed += 1;
            }
            next += 1;
            submitted = true;
        }
        let tick = tick_of(Instant::now());
        if submitted || (n_out > 0 && last_tick.is_none_or(|l| tick > l)) {
            let t_step = Instant::now();
            let rep = trace::timed("serve.step", || s.server.step(tick));
            last_tick = Some(tick);
            match rep {
                Ok(rep) => out
                    .steps
                    .push((t_step.elapsed().as_secs_f64(), rep.completed)),
                Err(_) => {
                    out.failed += n_out + arrivals.len() - next;
                    break;
                }
            }
        }
        let now = t0.elapsed().as_secs_f64();
        for (tenant, (_, rx)) in chans.iter().enumerate() {
            while let Ok(resp) = rx.try_recv() {
                let Some(o) = outstanding[tenant].pop_front() else {
                    acc.mismatched += 1;
                    continue;
                };
                n_out -= 1;
                answered += 1;
                if resp.submitted != o.tick {
                    acc.mismatched += 1;
                }
                let t = stats::due_timing(o.due, o.sent, now);
                out.lateness_ms.push(t.lateness_s * 1e3);
                match resp.result {
                    Ok(y) => {
                        let ms = t.latency_s * 1e3;
                        out.latency_ms.push(ms);
                        out.latency_at.push((o.due, ms));
                        out.tenant_ms[tenant].push(ms);
                        out.batches += 1.0 / resp.batched_with as f64;
                        out.misses += resp.deadline_missed as usize;
                        acc.record(s, &arrivals[o.idx], y);
                    }
                    Err(_) => out.failed += 1,
                }
            }
        }
        // Backlog while arrivals last: requests due so far and not yet
        // answered, whether still in the coalescer
        // (`StepReport::still_pending`) or not yet submitted because the
        // load thread was busy in a step. The drain after the last arrival is
        // left out, so it cannot hide growth.
        while due < arrivals.len() && arrivals[due].due <= now {
            due += 1;
        }
        if next < arrivals.len() {
            out.backlog.push((now, (due - answered) as f64));
        }
        if next == arrivals.len() && n_out == 0 {
            break;
        }
        // Sleep until the next arrival, or the next tick while requests
        // wait in the coalescer.
        let now = t0.elapsed().as_secs_f64();
        let mut wake = arrivals.get(next).map_or(f64::INFINITY, |a| a.due);
        if n_out > 0 {
            let since_pass = pass_t0.elapsed().as_secs_f64();
            let next_tick = (since_pass * 1e3).floor() / 1e3 + 1e-3;
            wake = wake.min(now + (next_tick - since_pass));
        }
        wait_until(t0, wake);
    }
    out.spans = trace::take();
    out.growing = stats::backlog_growing(
        &out.backlog,
        arrivals.len(),
        2.0 * coalescer().max_batch as f64,
    );
    out
}

impl Acc {
    fn record(&mut self, s: &Setup, a: &Arrival, y: Tensor) {
        if y.shape() != [HORIZON, CHANNELS] || !y.all_finite() {
            self.bad_shape += 1;
            return;
        }
        let truth = &s.windows[a.tenant][a.window].1;
        for (p, t) in y.as_slice().iter().zip(truth.as_slice()) {
            let d = (*p - *t) as f64;
            self.sq_err += d * d;
        }
        self.n_err += y.numel();
        let k = self.seen[a.tenant];
        self.seen[a.tenant] += 1;
        if k.is_multiple_of(self.stride[a.tenant]) {
            self.kept.push(Kept {
                tenant: a.tenant,
                window: a.window,
                y,
            });
        }
    }
}

/// Run the `serve` workload.
pub fn run(cfg: PassCfg) -> PassOut {
    let mut out = PassOut::default();
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..cfg.setups.max(1) {
        if cfg.traced {
            trace::enable();
        }
        drop(s.take());
        let t = Instant::now();
        s = Some(setup(&cfg));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one setup");
    let setup_spans = trace::aggregate(&trace::take());

    let mut expected = [0usize; 3];
    for a in s.schedule.iter().flatten() {
        expected[a.tenant] += 1;
    }
    let mut acc = Acc {
        kept: Vec::new(),
        seen: [0; 3],
        stride: std::array::from_fn(|t| expected[t].div_ceil(CHECK_CAP[t]).max(1)),
        sq_err: 0.0,
        n_err: 0,
        bad_shape: 0,
        mismatched: 0,
    };
    let pass_t0 = Instant::now();
    let mut rungs: Vec<RungOut> = RATES.iter().map(|_| RungOut::default()).collect();
    for (seg, &r) in RUN_ORDER.iter().enumerate() {
        let o = run_rung(&s, seg, pass_t0, cfg.traced, &mut acc);
        rungs[r].absorb(o);
    }

    // Checks, after the timed window: replies finite and [H, C]; DLinear
    // and PatchTST bitwise equal to a solo run; TS3Net's batch
    // dependence is counted, not failed.
    let mut solo_diff = [0usize; 3];
    let mut solo_n = [0usize; 3];
    for k in &acc.kept {
        let x = s.windows[k.tenant][k.window]
            .0
            .reshape(&[1, LOOKBACK, CHANNELS]);
        let y = s.solo[k.tenant]
            .run(&x)
            .expect("solo plan run")
            .reshape(&[HORIZON, CHANNELS]);
        solo_n[k.tenant] += 1;
        let same = y
            .as_slice()
            .iter()
            .zip(k.y.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        solo_diff[k.tenant] += !same as usize;
    }
    let attempted: usize = s.schedule.iter().map(Vec::len).sum();
    let failed: usize = rungs.iter().map(|r| r.failed).sum::<usize>() + acc.bad_shape;
    out.attempted = attempted as u64;
    out.failed = failed as u64;
    out.check(
        format!("every reply finite and shaped [{HORIZON}, {CHANNELS}]"),
        acc.bad_shape == 0,
    );
    out.check(
        "replies arrive in submission order per tenant",
        acc.mismatched == 0,
    );
    for t in [1, 2] {
        out.check(
            format!(
                "served {} bitwise equal to solo runs ({} checked)",
                MODELS[t], solo_n[t]
            ),
            solo_diff[t] == 0 && solo_n[t] > 0,
        );
    }
    let batch_dep = solo_diff[0] as f64 / solo_n[0].max(1) as f64;
    out.notes.push(format!(
        "serve: TS3Net served forecasts differing from solo: {}/{} (batch-dependent period selection)",
        solo_diff[0], solo_n[0]
    ));

    // End-to-end metrics.
    let top = rungs.last().expect("ladder has rungs");
    let mid = &rungs[MID];
    let mid_secs = (cfg.seconds * RUNG_SHARE[MID]).max(0.2);
    let mid_sum = stats::sliced_summary(&mid.latency_at, mid_secs, 2.0);
    out.e2e.insert("setup_s".into(), median(&setup_s));
    // Past capacity every step carries a backlog; completions per second
    // of step time over the whole rung is the executor's capacity for
    // this exact request mix.
    let (busy, done) = top
        .steps
        .iter()
        .fold((0.0, 0usize), |(t, n), s| (t + s.0, n + s.1));
    out.e2e
        .insert("throughput_per_s".into(), done as f64 / busy);
    out.e2e.insert("latency_ms.p50".into(), mid_sum.p50);
    out.e2e.insert("latency_ms.tail".into(), mid_sum.tail);
    out.e2e
        .insert("val_mse".into(), acc.sq_err / acc.n_err.max(1) as f64);

    let ladder: Vec<Rung> = rungs
        .iter()
        .zip(RATES)
        .map(|(r, rate)| Rung {
            rate,
            tail_ms: summarize(&r.latency_ms).tail,
            failed: r.failed,
            backlog_growing: r.growing,
        })
        .collect();
    for (r, rung) in rungs.iter().zip(&ladder) {
        let sum = summarize(&r.latency_ms);
        out.notes.push(format!(
            "serve rate {:>6}/s: {} requests, p50 {:.2} ms, tail p{} {:.2} ms (n={}), backlog growing {}",
            rung.rate,
            r.arrivals,
            sum.p50,
            sum.tail_pct,
            sum.tail,
            sum.n,
            rung.backlog_growing
        ));
    }
    out.notes.push(format!(
        "serve: latency_ms is rate {} /s, median over 2-s slices (tail p{} per slice, n={}); \
         throughput is the executor's completion rate at rate {} /s",
        RATES[MID],
        mid_sum.tail_pct,
        mid_sum.n,
        RATES[RATES.len() - 1]
    ));

    let slo = stats::slo_rate(&ladder, SLO_LIMIT_MS);
    let low = summarize(&rungs[0].latency_ms);
    out.notes
        .push(format!("{} = {slo} 1/s", crate::spec::slo_metric()));
    out.notes.push(format!(
        "serve.low.latency_ms.p50 = {:.4} ms, serve.low.latency_ms.tail = {:.4} ms (p{} of n={}) at rate {} /s",
        low.p50, low.tail, low.tail_pct, low.n, RATES[0]
    ));
    if cfg.traced {
        let l = &mut out.layer;
        let agg_ms = |a: &std::collections::BTreeMap<&str, trace::Agg>, n: &str| {
            a.get(n).map_or(0.0, |x| x.mean_ms())
        };
        l.insert(
            "setup.serve.build_ms".into(),
            agg_ms(&setup_spans, "setup.serve.build"),
        );
        l.insert(
            "setup.serve.server_start_ms".into(),
            agg_ms(&setup_spans, "setup.serve.server_start"),
        );
        l.insert(crate::spec::slo_metric(), slo);
        l.insert("serve.low.latency_ms.p50".into(), low.p50);
        l.insert("serve.low.latency_ms.tail".into(), low.tail);
        let mid_agg = trace::aggregate(&mid.spans);
        l.insert(
            "serve.submit_us".into(),
            mid_agg.get("serve.submit").map_or(0.0, |a| a.median_us()),
        );
        l.insert("serve.batch_dependent_frac".into(), batch_dep);
        for (t, name) in TENANTS.iter().enumerate() {
            let sum = summarize(&mid.tenant_ms[t]);
            l.insert(format!("serve.tenant.{name}.latency_ms.p50"), sum.p50);
            l.insert(format!("serve.tenant.{name}.latency_ms.tail"), sum.tail);
        }
        for ((r, rung), rate) in rungs.iter().zip(&ladder).zip(RATES) {
            let p = format!("serve.rate{}", rate as u64);
            let lat = summarize(&r.latency_ms);
            let late = summarize(&r.lateness_ms);
            let agg = trace::aggregate(&r.spans);
            let n = r.latency_ms.len().max(1) as f64;
            l.insert(format!("{p}.latency_ms.p50"), lat.p50);
            l.insert(format!("{p}.latency_ms.tail"), rung.tail_ms);
            l.insert(format!("{p}.gen_lateness_ms.p50"), late.p50);
            l.insert(format!("{p}.gen_lateness_ms.tail"), late.tail);
            l.insert(
                format!("{p}.step_ms"),
                agg.get("serve.step").map_or(0.0, |a| a.mean_ms()),
            );
            l.insert(format!("{p}.batch_size.mean"), n / r.batches.max(1e-9));
            l.insert(format!("{p}.deadline_miss_frac"), r.misses as f64 / n);
            l.insert(
                format!("{p}.backlog.max"),
                r.backlog.iter().map(|b| b.1).fold(0.0, f64::max),
            );
        }
    }
    out
}

/// Block until `at` seconds after `t0`: sleep while the wait is long,
/// then spin the last stretch, so the generator's timing does not
/// depend on how late the OS wakes a sleeping thread (on a shared
/// virtual machine that is often over a millisecond, a whole tick).
/// Only the idle load thread spins; while the executor runs, it is
/// blocked in `step`.
fn wait_until(t0: Instant, at: f64) {
    const SPIN_S: f64 = 2e-3;
    let left = at - t0.elapsed().as_secs_f64();
    if left > SPIN_S {
        std::thread::sleep(Duration::from_secs_f64(left - SPIN_S));
    }
    while t0.elapsed().as_secs_f64() < at {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_brackets_the_slo_and_the_mid_rung_exists() {
        assert!(RATES.windows(2).all(|w| w[0] < w[1]));
        assert!(MID > 0 && MID + 1 < RATES.len());
        assert!((RUNG_SHARE.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for r in 0..RATES.len() {
            let n = RUN_ORDER.iter().filter(|&&o| o == r).count();
            assert_eq!(n, if r + 1 == RATES.len() { TOP_BURSTS } else { 1 });
        }
        assert_eq!(MIX.iter().sum::<usize>(), MIX_BLOCK);
    }
}
