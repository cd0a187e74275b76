//! End-to-end benchmark of the TS3Net workspace, with per-layer numbers
//! measured from outside the crates.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train|serve|stream --seed N --seconds S --trace 0|1
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml   # self-tests
//! ```
//!
//! `--trace 0` runs the workload untraced and prints every end-to-end
//! metric. `--trace 1` runs it untraced and then traced (the difference is
//! the tracing overhead), runs compact traced passes of the other two
//! workloads and the layer probes, and prints every per-layer metric.
//! Human-readable lines (provenance, metric table, checks) come first;
//! the last line of standard output is one JSON object. See README.md.

mod probes;
mod serve;
mod spec;
mod stats;
mod stream;
mod trace;
mod train;

use std::collections::BTreeMap;

/// Seed of the synthetic datasets. They are fixed instances, like the
/// files of a real benchmark; the workload seed (`--seed`) drives what
/// is drawn from them: batch order, arrival times, request mix and
/// windows, stream offsets.
pub const DATA_SEED: u64 = 2024;

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// End-to-end metrics of the pass (`setup_s`, throughput, ...).
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metrics this pass can speak for.
    pub layer: BTreeMap<String, f64>,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks: (what, passed).
    pub checks: Vec<(String, bool)>,
    /// Extra report lines (tail percentile and sample counts, ...).
    pub notes: Vec<String>,
}

impl PassOut {
    /// Record an output check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }
}

/// How long and how thoroughly a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct PassCfg {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Record spans.
    pub traced: bool,
    /// Full pass (`false`: the short pass a trace run makes of the
    /// workloads it was not asked for).
    pub full: bool,
    /// How many times to repeat set-up (the median is `setup_s`).
    pub setups: usize,
}

/// `TS3_THREADS` per workload, within the 2-core budget: `train` uses
/// both cores; in `serve` and `stream` the load thread and the
/// single-threaded executor take turns (the load thread blocks in `step`
/// while the executor runs), so at most one core is busy with plans.
pub fn threads_for(workload: &str) -> usize {
    match workload {
        "train" => 2,
        _ => 1,
    }
}

fn run_pass(workload: &str, cfg: PassCfg) -> PassOut {
    let threads = threads_for(workload);
    ts3_tensor::par::set_max_threads(threads);
    let mut out = match workload {
        "train" => train::run(cfg),
        "serve" => serve::run(cfg),
        "stream" => stream::run(cfg),
        other => unreachable!("workload {other} was validated"),
    };
    out.notes.push(format!("{workload}: TS3_THREADS={threads}"));
    out
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host, SIMD level, thread cap, source and seed: printed with every
/// result so results from different stamps are compared only as
/// information.
fn provenance(workload: &str, seed: u64) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512f) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512f) = (false, false);
    let simd_env = std::env::var("TS3_SIMD").unwrap_or_else(|_| "unset".to_string());
    format!(
        "{{\"cpu\": \"{}\", \"nproc\": {nproc}, \"avx2\": {avx2}, \"avx512f\": {avx512f}, \
         \"TS3_SIMD\": \"{simd_env}\", \"kernels\": \"{}\", \"TS3_THREADS\": {}, \
         \"source\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}}}",
        cpu.replace('"', "'"),
        ts3_tensor::simd::kernel_name(),
        threads_for(workload),
        source_stamp(),
    )
}

/// The commit when the checkout is a git repository, else `unknown`.
fn source_stamp() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match commit.trim() {
        "" => "unknown".to_string(),
        c => format!("commit {c}"),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ts3-perfbench --workload train|serve|stream --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = spec::run_seconds();
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => traced = val() == "1",
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !spec::workloads().contains(&workload) || seconds <= 0.0 {
        usage();
    }
    println!("# provenance {}", provenance(&workload, seed));

    let main_cfg = PassCfg {
        seed,
        seconds,
        traced: false,
        full: true,
        setups: 21,
    };
    let untraced = run_pass(&workload, main_cfg);
    let rss = peak_rss_mb();
    let mut passes = vec![(workload.clone(), untraced)];
    let mut metrics: Vec<(String, f64, String)> = Vec::new();

    if !traced {
        let mut e2e = passes[0].1.e2e.clone();
        e2e.insert("peak_rss_mb".to_string(), rss);
        let p = &passes[0].1;
        println!(
            "# note failed_frac {:?} ({} of {} attempted)",
            p.failed as f64 / p.attempted.max(1) as f64,
            p.failed,
            p.attempted
        );
        for d in spec::end_to_end() {
            let v = *e2e
                .get(&d.name)
                .unwrap_or_else(|| panic!("{workload}: no value for {}", d.name));
            metrics.push((d.name, v, d.unit));
        }
    } else {
        let traced_cfg = PassCfg {
            traced: true,
            setups: 1,
            ..main_cfg
        };
        let t = run_pass(&workload, traced_cfg);
        let thr_u = passes[0].1.e2e["throughput_per_s"];
        let overhead = 1.0 - t.e2e["throughput_per_s"] / thr_u;
        passes.push((workload.clone(), t));
        for w in spec::workloads().iter().filter(|w| **w != workload) {
            let short = PassCfg {
                seed,
                seconds: (seconds / 5.0).clamp(1.0, 4.0),
                traced: true,
                full: false,
                setups: 1,
            };
            passes.push((w.to_string(), run_pass(w, short)));
        }
        let (mut layer, probe_notes) = probes::run(seed);
        passes[0].1.notes.extend(probe_notes);
        for (_, p) in passes.iter().skip(1) {
            layer.extend(p.layer.iter().map(|(k, v)| (k.clone(), *v)));
        }
        layer.insert("obs.trace_overhead_frac".to_string(), overhead);
        let (a, f) = (passes[0].1.attempted, passes[0].1.failed);
        layer.insert("failed_frac".to_string(), f as f64 / a.max(1) as f64);
        for d in spec::per_layer() {
            let v = *layer
                .get(&d.name)
                .unwrap_or_else(|| panic!("no value for per-layer metric {}", d.name));
            metrics.push((d.name, v, d.unit));
        }
    }

    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (w, p) in &passes {
        for note in &p.notes {
            println!("# note {note}");
        }
        for (what, ok) in &p.checks {
            println!("# check {w}: {what}: {}", if *ok { "ok" } else { "FAILED" });
            correct &= *ok;
        }
        attempted += p.attempted;
        failed += p.failed;
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    println!(
        "# check every metric is finite: {}",
        if finite { "ok" } else { "FAILED" }
    );
    correct &= finite;
    for (name, v, unit) in &metrics {
        println!("{name:<44} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

/// A finite f64 with every digit (Rust's shortest round-trip form). A
/// non-finite value would break the JSON, so it prints as 0; the run
/// then reports `correct: false`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
