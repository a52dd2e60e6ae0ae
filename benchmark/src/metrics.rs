//! The metric catalogue: every name the benchmark prints, with its unit,
//! which direction is better, and — for end-to-end metrics — the bound by
//! which it may worsen before `compare` calls it a regression.
//! `BENCHMARK.json` is generated from these tables (`cm-benchmark manifest`).

use crate::json::Json;
use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's median by which the metric may worsen.
    pub bound: f64,
    /// A worsening smaller than this, in the metric's unit, is never a
    /// regression: keeps a relative bound from firing on a 30 ms set-up.
    pub floor: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "op_p25_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "ok_ops_share",
        unit: "ratio",
        better: Higher,
        bound: 0.05,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
        floor: 2.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.05,
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// In the order `run::layer_metrics` emits them, then `trace.overhead_pct`
/// (computed by the parent from a traced and an untraced rep).
pub const PER_LAYER: [PerLayer; 60] = [
    layer("workloads.pool_build_ms", "ms", Lower),
    layer("topology.build_ms", "ms", Lower),
    layer("topology.search_us_p50", "us", Lower),
    layer("topology.search_us_p99", "us", Lower),
    layer("topology.search_calls", "count", Lower),
    layer("topology.slot_occupancy", "ratio", Higher),
    layer("core.place_us_p50", "us", Lower),
    layer("core.place_us_p99", "us", Lower),
    layer("core.scale_us_p50", "us", Lower),
    layer("core.scale_us_p99", "us", Lower),
    layer("core.release_us_p50", "us", Lower),
    layer("core.reject_share", "ratio", Lower),
    layer("cluster.admit_us_p50", "us", Lower),
    layer("cluster.admit_us_p99", "us", Lower),
    layer("cluster.scale_us_p50", "us", Lower),
    layer("cluster.scale_us_p99", "us", Lower),
    layer("cluster.depart_us_p50", "us", Lower),
    layer("cluster.migrate_us_p50", "us", Lower),
    layer("cluster.inject_fault_us_p50", "us", Lower),
    layer("cluster.inject_fault_us_p99", "us", Lower),
    layer("cluster.repair_us_p50", "us", Lower),
    layer("cluster.repair_us_p99", "us", Lower),
    layer("cluster.traffic_step_us_p50", "us", Lower),
    layer("cluster.traffic_step_us_p99", "us", Lower),
    layer("cluster.traffic_sync_self_us_p50", "us", Lower),
    layer("cluster.traffic_sync_self_us_p99", "us", Lower),
    layer("cluster.admit_self_us_p50", "us", Lower),
    layer("cluster.live_tenants_mean", "count", Higher),
    layer("cluster.tenants_damaged", "count", Lower),
    layer("cluster.tenants_evicted", "count", Lower),
    layer("cluster.vms_lost", "count", Lower),
    layer("cluster.repair_degraded", "count", Lower),
    layer("enforce.first_step_ms", "ms", Lower),
    layer("enforce.expand_us_p50", "us", Lower),
    layer("enforce.expand_us_p99", "us", Lower),
    layer("enforce.route_us_p50", "us", Lower),
    layer("enforce.solve_us_p50", "us", Lower),
    layer("enforce.solve_us_p99", "us", Lower),
    layer("enforce.score_us_p50", "us", Lower),
    layer("enforce.score_us_p99", "us", Lower),
    layer("enforce.warm_share", "ratio", Higher),
    layer("enforce.dirty_share", "ratio", Lower),
    layer("enforce.components_total_mean", "count", Higher),
    layer("enforce.fluid_flows_mean", "count", Lower),
    layer("enforce.cross_flows_mean", "count", Lower),
    layer("enforce.violations", "count", Lower),
    layer("enforce.non_work_conserving_steps", "count", Lower),
    layer("enforce.ecmp_max_utilization", "ratio", Lower),
    layer("enforce.ecmp_mean_utilization", "ratio", Lower),
    layer("share.mutate", "ratio", Lower),
    layer("share.sync", "ratio", Lower),
    layer("share.expand", "ratio", Lower),
    layer("share.route", "ratio", Lower),
    layer("share.solve", "ratio", Lower),
    layer("share.score", "ratio", Lower),
    layer("share.harness", "ratio", Lower),
    layer("trace.op_p50_us", "us", Lower),
    layer("trace.op_p99_us", "us", Lower),
    layer("trace.machine_slowdown", "ratio", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// How long one driver run measures, seconds (`BENCHMARK.json`'s
/// `run_seconds`).
pub const RUN_SECONDS: u32 = 28;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).expect("valid JSON"),
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest`"
        );
    }
}
