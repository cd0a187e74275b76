//! `stream`: `STREAMS` multichannel streams each append one sample per
//! tick through a `PulsedTriple` (window 96, one pulse every `HOP`
//! samples, streams staggered so pulses spread over ticks) with a
//! `SlidingDft` drift monitor. Every pulse's window is forecast by a warm
//! DLinear plan through a tick-stepped `ServerHandle`; deadlines are one
//! tick out, so each tick's pulses run as one batch in that tick and
//! batching is deterministic. Closed lockstep: the next tick starts when
//! the previous one is done.

use crate::stats::{self, median};
use crate::trace::{self, span};
use crate::{PassCfg, PassOut};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::mpsc::channel;
use std::time::Instant;
use ts3_baselines::{build_forecaster, BaselineConfig};
use ts3_data::{spec_by_name, ForecastTask};
use ts3_serve::{CoalescerConfig, ForecastRequest, ServerConfig, ServerHandle};
use ts3_signal::{triple_decompose, TripleConfig};
use ts3_stream::{PulsedTriple, SlidingDft, StreamConfig, StreamDecomposition};
use ts3_tensor::Tensor;
use ts3net_core::{CompiledPlan, ForecastModel, TS3NetConfig};

/// Concurrent streams. Like `HOP`, an assumption with no deployment data
/// behind it: 16 staggered streams at hop 4 put `STREAMS / HOP` = 4
/// pulses in every tick, so the DLinear plan runs at batch 4 (between the
/// b1 and b8 plan probes), and the tick's signal work (16 pushes, 4
/// decompositions) outweighs its one plan step, as the workload intends.
const STREAMS: usize = 16;
/// Pulse cadence, samples (see `STREAMS`).
const HOP: usize = 4;
/// Window (= model lookback) and horizon.
const WINDOW: usize = 96;
const HORIZON: usize = 96;
/// Spectral bands of the streamed decomposition (TS3Net's scaled lambda).
pub const LAMBDA: usize = 8;
/// Keep every `CHECK_EVERY`-th pulse for the batch-equivalence check.
const CHECK_EVERY: usize = 37;
const CHECK_CAP: usize = 120;

fn triple_cfg() -> TripleConfig {
    TripleConfig {
        lambda: LAMBDA,
        ..Default::default()
    }
}

struct Stream {
    pulse: PulsedTriple,
    monitor: SlidingDft,
    pos: usize,
    in_flight: bool,
}

struct Setup {
    data: Vec<f32>,
    len: usize,
    channels: usize,
    streams: Vec<Stream>,
    server: ServerHandle,
}

fn build_plan(channels: usize) -> CompiledPlan {
    let cfg = BaselineConfig::scaled(channels, WINDOW, HORIZON);
    let ts3 = TS3NetConfig::scaled(channels, WINDOW, HORIZON);
    let model: Rc<dyn ForecastModel> = Rc::from(build_forecaster(
        "DLinear",
        &cfg,
        &ts3,
        crate::train::MODEL_SEED,
    ));
    CompiledPlan::freeze(model, &Tensor::zeros(&[1, WINDOW, channels])).expect("DLinear freezes")
}

fn setup(seed: u64) -> Setup {
    let spec = spec_by_name("ETTm1").expect("ETTm1 is in the catalog");
    let raw = spec.generate(crate::DATA_SEED);
    let task = ForecastTask::new(&raw, WINDOW, HORIZON, spec.split);
    let (len, channels) = (task.data.shape()[0], task.data.shape()[1]);
    let data = task.data.as_slice().to_vec();
    let mut streams: Vec<Stream> = trace::timed("setup.stream.build", || {
        (0..STREAMS)
            .map(|i| Stream {
                pulse: PulsedTriple::new(StreamConfig {
                    window: WINDOW,
                    channels,
                    hop: HOP,
                    triple: triple_cfg(),
                }),
                monitor: SlidingDft::new(WINDOW, channels),
                pos: (i * 997 + seed as usize * 131) % len,
                in_flight: false,
            })
            .collect()
    });
    // Fill every window, staggered by stream index so each tick carries
    // STREAMS / HOP pulses.
    for (i, s) in streams.iter_mut().enumerate() {
        for _ in 0..WINDOW + i % HOP {
            let row = &data[s.pos * channels..(s.pos + 1) * channels];
            s.monitor.push(row);
            let _ = s.pulse.push(row);
            s.pos = (s.pos + 1) % len;
        }
    }
    let server = {
        let _s = span("setup.stream.server_start");
        let cfg = ServerConfig {
            coalescer: CoalescerConfig {
                max_batch: STREAMS,
                max_hold: 1,
            },
        };
        let server = ServerHandle::start(cfg, move || vec![build_plan(channels)]);
        server.step(0).expect("server starts");
        server
    };
    Setup {
        data,
        len,
        channels,
        streams,
        server,
    }
}

struct Flight {
    stream: usize,
    arrived: f64,
    /// Index of the pulse's newest sample in the series.
    last: usize,
}

/// Run the `stream` workload.
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
        s = Some(setup(cfg.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut s = s.expect("at least one setup");
    let setup_spans = trace::aggregate(&trace::take());
    let c = s.channels;
    let (tx, rx) = channel();
    // Warm the executor and the plan at the pulse batch size.
    for _ in 0..3 {
        for st in s.streams.iter().take(STREAMS / HOP) {
            let input = st.pulse.window_tensor().expect("windows are full");
            s.server
                .submit(
                    ForecastRequest {
                        tenant: 0,
                        input,
                        submitted: 0,
                        deadline: 0,
                    },
                    &tx,
                )
                .expect("submit");
        }
        s.server.step(0).expect("warm-up step");
    }
    while rx.try_recv().is_ok() {}

    if cfg.traced {
        trace::enable();
    }
    let mut flights: VecDeque<Flight> = VecDeque::new();
    // Sampled emits, each with the index of its pulse's newest sample.
    let mut kept: Vec<(StreamDecomposition, usize)> = Vec::new();
    let (mut pulses, mut skipped, mut alerts, mut samples) = (0usize, 0usize, 0usize, 0usize);
    let (mut bad, mut mismatched, mut failed) = (0usize, 0usize, 0usize);
    let (mut sq_err, mut n_err) = (0.0f64, 0usize);
    let mut latency_ms = Vec::new();
    let mut sample_times = Vec::new();
    let t0 = Instant::now();
    let mut tick: u64 = 1;
    while t0.elapsed().as_secs_f64() < cfg.seconds {
        for (i, st) in s.streams.iter_mut().enumerate() {
            let row = &s.data[st.pos * c..(st.pos + 1) * c];
            let arrived = t0.elapsed().as_secs_f64();
            trace::timed("stream.sdft", || st.monitor.push(row));
            let g = span("stream.push");
            let emit = st.pulse.push(row);
            g.rename(if emit.is_some() {
                "stream.push_emit"
            } else {
                "stream.push_noemit"
            });
            drop(g);
            let last = st.pos;
            st.pos = (st.pos + 1) % s.len;
            samples += 1;
            let Some(emit) = emit else { continue };
            pulses += 1;
            alerts += st.monitor.drift_against(emit.t_f).is_some() as usize;
            if st.in_flight {
                skipped += 1;
                continue;
            }
            let req = ForecastRequest {
                tenant: 0,
                input: emit.window_tensor(WINDOW, c),
                submitted: tick,
                deadline: tick + 1,
            };
            if s.server.submit(req, &tx).is_ok() {
                st.in_flight = true;
                flights.push_back(Flight {
                    stream: i,
                    arrived,
                    last,
                });
            } else {
                failed += 1;
            }
            if pulses % CHECK_EVERY == 0 && kept.len() < CHECK_CAP {
                kept.push((emit, last));
            }
        }
        sample_times.push(t0.elapsed().as_secs_f64());
        if trace::timed("stream.serve_step", || s.server.step(tick)).is_err() {
            failed += flights.len();
            break;
        }
        let now = t0.elapsed().as_secs_f64();
        while let Ok(resp) = rx.try_recv() {
            let Some(f) = flights.pop_front() else {
                mismatched += 1;
                continue;
            };
            s.streams[f.stream].in_flight = false;
            mismatched += (resp.submitted != tick) as usize;
            match resp.result {
                Ok(y) if y.shape() == [HORIZON, c] && y.all_finite() => {
                    latency_ms.push((f.arrived, (now - f.arrived) * 1e3));
                    for (h, p) in y.as_slice().chunks(c).enumerate() {
                        let at = (f.last + 1 + h) % s.len;
                        for (ch, v) in p.iter().enumerate() {
                            let d = (*v - s.data[at * c + ch]) as f64;
                            sq_err += d * d;
                        }
                    }
                    n_err += HORIZON * c;
                }
                Ok(_) => bad += 1,
                Err(_) => failed += 1,
            }
        }
        tick += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let spans = trace::take();
    drop(tx);

    // Checks, after the timed window. The trailing window is rebuilt
    // from the series itself, so a stream that buffered the wrong rows
    // fails even if it decomposes its own window correctly.
    let cfg3 = triple_cfg();
    let (mut unequal, mut wrong_window) = (0usize, 0usize);
    let eq = |a: &[f32], b: &[f32]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    for (e, last) in &kept {
        let window: Vec<f32> = (0..WINDOW)
            .flat_map(|i| {
                let at = (last + s.len + 1 + i - WINDOW) % s.len;
                s.data[at * c..(at + 1) * c].iter().copied()
            })
            .collect();
        wrong_window += !eq(&e.window, &window) as usize;
        let b = triple_decompose(&Tensor::from_vec(window, &[WINDOW, c]), &cfg3);
        let eq = |a: &[f32], t: &Tensor| eq(a, t.as_slice());
        let same = e.t_f == b.t_f
            && eq(&e.trend, &b.trend)
            && eq(&e.seasonal, &b.seasonal)
            && eq(&e.regular, &b.regular)
            && eq(&e.fluctuant_1d, &b.fluctuant_1d)
            && eq(&e.fluctuant_2d, &b.fluctuant_2d)
            && eq(&e.tf, &b.tf);
        unequal += !same as usize;
    }
    out.check(
        format!(
            "sampled pulse windows bitwise equal to the stream's trailing {WINDOW} samples ({} checked)",
            kept.len()
        ),
        wrong_window == 0 && !kept.is_empty(),
    );
    out.check(
        format!(
            "sampled pulse emits bitwise equal to triple_decompose of that window ({} checked)",
            kept.len()
        ),
        unequal == 0 && !kept.is_empty(),
    );
    out.check(
        format!("every forecast finite and shaped [{HORIZON}, {c}]"),
        bad == 0,
    );
    out.check(
        "replies arrive in the tick they were submitted, in order",
        mismatched == 0 && flights.is_empty(),
    );
    out.attempted = samples as u64;
    out.failed = (failed + bad) as u64;

    // The ingest rate is the median over half-second slices, so a short
    // stall of the shared host does not set it.
    let n_slices = ((elapsed * 2.0).round() as usize).max(2);
    let per_tick: Vec<(f64, f64)> = sample_times.iter().map(|&t| (t, STREAMS as f64)).collect();
    let rates: Vec<f64> = stats::slices(&per_tick, elapsed, n_slices)
        .iter()
        .map(|s| s.iter().sum::<f64>() / (elapsed / n_slices as f64))
        .collect();
    let sum = stats::sliced_summary(&latency_ms, elapsed, 1.0);
    out.e2e.insert("setup_s".into(), median(&setup_s));
    out.e2e.insert("throughput_per_s".into(), median(&rates));
    out.e2e.insert("latency_ms.p50".into(), sum.p50);
    out.e2e.insert("latency_ms.tail".into(), sum.tail);
    out.e2e
        .insert("val_mse".into(), sq_err / n_err.max(1) as f64);
    out.notes.push(format!(
        "stream: {STREAMS} streams x {tick} ticks, {pulses} pulses, {} forecasts; latency is the median over 1-s slices, tail p{} per slice of n={}",
        latency_ms.len(),
        sum.tail_pct,
        sum.n
    ));

    if cfg.traced {
        let a = trace::aggregate(&spans);
        let us = |n: &str| a.get(n).map_or(0.0, |x| x.median_us());
        let l = &mut out.layer;
        let setup_ms = |n: &str| setup_spans.get(n).map_or(0.0, |x| x.mean_ms());
        l.insert(
            "setup.stream.build_ms".into(),
            setup_ms("setup.stream.build"),
        );
        l.insert(
            "setup.stream.server_start_ms".into(),
            setup_ms("setup.stream.server_start"),
        );
        l.insert("stream.push_emit_us".into(), us("stream.push_emit"));
        l.insert("stream.push_noemit_us".into(), us("stream.push_noemit"));
        l.insert("stream.sdft_us".into(), us("stream.sdft"));
        l.insert(
            "stream.serve_step_ms".into(),
            a.get("stream.serve_step").map_or(0.0, |x| x.mean_ms()),
        );
        l.insert(
            "stream.pulses_skipped_frac".into(),
            skipped as f64 / pulses.max(1) as f64,
        );
        l.insert(
            "stream.drift_alert_frac".into(),
            alerts as f64 / pulses.max(1) as f64,
        );
    }
    out
}
