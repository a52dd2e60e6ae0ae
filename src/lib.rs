//! # CloudMirror
//!
//! A from-scratch Rust reproduction of **"Application-Driven Bandwidth
//! Guarantees in Datacenters"** (Lee, Turner, Lee, Popa, Banerjee, Kang,
//! Sharma — SIGCOMM 2014).
//!
//! CloudMirror provides bandwidth guarantees to cloud applications through
//! three pieces, all implemented here:
//!
//! * the **Tenant Application Graph (TAG)** abstraction — guarantees that
//!   mirror the application's communication structure instead of a physical
//!   topology ([`core::model::Tag`]);
//! * a **VM placement algorithm** that maps TAGs onto tree datacenters,
//!   saving bandwidth by provably-beneficial colocation while balancing
//!   slot/bandwidth utilization and (optionally) guaranteeing worst-case
//!   survivability ([`core::placement::CmPlacer`]);
//! * a **unified placement engine**: every algorithm here — CloudMirror,
//!   its ablations, and all baselines — implements the
//!   [`core::placement::Placer`] trait, stages changes through the
//!   transactional [`core::txn::ReservationTxn`], and yields the same
//!   [`core::placement::Deployed`] handle, so the simulator, the figure
//!   harnesses and the benches drive them interchangeably;
//! * a **runtime enforcement** layer — an ElasticSwitch-style guarantee
//!   partitioner with the paper's TAG patch, over a fluid max-min network
//!   ([`enforce`]);
//! * a **tenant-lifecycle controller** — [`Cluster`] owns a topology and
//!   any placer and exposes the whole closed loop as one typed API:
//!   `admit` / `scale_tier` / `migrate` / `depart`, plus utilization and
//!   enforcement-wired guarantee queries ([`cluster`]).
//!
//! Everything the evaluation needs is included: the tree-datacenter
//! substrate ([`topology`]), the Oktopus VC/VOC and SecondNet baselines
//! ([`baselines`]), synthetic bing/hpcloud/mixed workload pools
//! ([`workloads`]), the admission-control simulator ([`sim`]), and the
//! traffic-trace → TAG inference pipeline ([`inference`]).
//!
//! This crate is a facade: it re-exports the workspace members under one
//! name and carries the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`). Start with the
//! [`cm_core`] quick-start, or run:
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release -p cm-bench --bin reproduce
//! ```

#[cfg(test)]
#[path = "../tests/lint_fixture/mod.rs"]
mod lint_fixture;
#[cfg(test)]
mod rules;

pub use cm_baselines as baselines;
pub use cm_cluster as cluster;
pub use cm_core as core;
pub use cm_enforce as enforce;
pub use cm_inference as inference;
pub use cm_sim as sim;
pub use cm_topology as topology;
pub use cm_workloads as workloads;

// Convenience re-exports of the items almost every user touches.
pub use cm_cluster::{
    Cluster, CmError, EcmpConfig, Fault, FaultReport, GuaranteeModel, GuaranteeReport,
    RepairReport, TagSpec, TenantDamage, TenantHandle, TenantId, TrafficReport,
};
pub use cm_core::{
    CmConfig, CmPlacer, CutModel, Deployed, HaPolicy, Placer, RejectReason, ReservationTxn, Tag,
    TagBuilder, TierId,
};
pub use cm_topology::{gbps, mbps, Kbps, Topology, TreeSpec};

#[cfg(test)]
mod tests {
    use crate::lint_fixture::{check, Case};

    /// A stated exception silences exactly the finding it names, counts as
    /// fulfilled, and leaves the next item's finding alone.
    #[test]
    fn suppressed_findings_are_dropped_and_pragma_counts_as_used() {
        check(&Case {
            name: "expect-fulfilled",
            homes: &[&["crates/enforce/src/lib.rs", "crates/enforce/src/route.rs"]],
            source: r#"
/// Every key is inserted before it is looked up.
#[expect(clippy::unwrap_used, reason = "keys are inserted at build time")]
pub fn cached(cache: &std::collections::HashMap<u64, u32>, key: u64) -> u32 {
    *cache.get(&key).unwrap()
}

/// The exception does not reach past its item.
pub fn uncached(cache: &std::collections::HashMap<u64, u32>, key: u64) -> u32 {
    *cache.get(&key).unwrap() //~ clippy::unwrap_used
}
"#,
        });
    }
}
