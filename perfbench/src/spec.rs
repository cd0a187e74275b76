//! The benchmark's contract, read from `BENCHMARK.json` at the
//! repository root (compiled in): workload names, end-to-end metrics
//! with their regression bounds, and every per-layer metric name. The
//! file is edited by hand; a run reports exactly the metrics it names
//! and fails if it cannot produce one of them.

use crate::serve::SLO_LIMIT_MS;
use ts3_json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A metric definition from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
}

fn doc() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn list(key: &str) -> Vec<Json> {
    doc()
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is a list"))
        .to_vec()
}

fn field(item: &Json, key: &str) -> String {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: entry without string `{key}`"))
        .to_string()
}

fn defs(key: &str) -> Vec<Def> {
    list(key)
        .iter()
        .map(|m| Def {
            name: field(m, "name"),
            unit: field(m, "unit"),
        })
        .collect()
}

/// Workload names, in file order.
pub fn workloads() -> Vec<String> {
    list("workloads").iter().map(|w| field(w, "name")).collect()
}

/// Seconds per run, the default for `--seconds`.
pub fn run_seconds() -> f64 {
    doc()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json: `run_seconds` is a number")
}

/// End-to-end metrics (their bounds are for the comparison of runs, not
/// read here). Every workload reports all of them.
pub fn end_to_end() -> Vec<Def> {
    defs("end_to_end")
}

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<Def> {
    defs("per_layer")
}

/// Name of the SLO-rate metric; the latency limit is part of the name so
/// `BENCHMARK.json` fixes it.
pub fn slo_metric() -> String {
    format!("serve.slo_rate_per_s.tail_le_{}ms", SLO_LIMIT_MS as u64)
}

/// Tenant labels, in tenant order.
pub const TENANTS: [&str; 3] = ["ts3net", "patchtst", "dlinear"];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_has_the_contract_keys_and_limits() {
        let keys: Vec<String> = doc()
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let mut seen = BTreeSet::new();
        for m in list("end_to_end").iter().chain(&list("per_layer")) {
            let d = Def {
                name: field(m, "name"),
                unit: field(m, "unit"),
            };
            let name = &d.name;
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
            assert!(
                name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}"
            );
            let better = field(m, "better");
            assert!(better == "higher" || better == "lower", "{name}");
        }
        assert!(per_layer().len() <= 128);
        for w in list("workloads") {
            assert!(field(&w, "why").len() <= 200);
        }
        for m in list("end_to_end") {
            let b = m.get("bound").and_then(Json::as_f64);
            assert!(b.is_some_and(|b| b > 0.0 && b <= 0.25), "{m:?}");
        }
        assert!(end_to_end().iter().any(|d| d.name == "setup_s"));
        let w = run_seconds();
        assert!(w.fract() == 0.0 && (1.0..=60.0).contains(&w));
    }

    #[test]
    fn per_layer_list_names_the_slo_limit_and_every_ladder_rate() {
        let names: BTreeSet<String> = per_layer().into_iter().map(|d| d.name).collect();
        assert!(names.contains(&slo_metric()), "{}", slo_metric());
        for r in crate::serve::RATES {
            let n = format!("serve.rate{}.latency_ms.p50", r as u64);
            assert!(names.contains(&n), "{n}");
        }
        for t in TENANTS {
            let n = format!("core.plan_run.{t}.batch_gain");
            assert!(names.contains(&n), "{n}");
        }
    }
}
