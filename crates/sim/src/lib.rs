//! # cm-sim
//!
//! The admission-control simulator behind the paper's evaluation (§5.1).
//!
//! A simulation run replays a Poisson process of tenant arrivals and
//! departures against a datacenter topology and one placement algorithm,
//! measuring what the paper measures:
//!
//! * **rejection rates** — of tenants, of their VMs, and of their aggregate
//!   bandwidth (Figs. 7–10);
//! * **worst-case survivability** (WCS) of deployed components at the
//!   server level (Figs. 11–12);
//! * **reserved bandwidth per topology level** under different pricing
//!   models for the *same* placement (Table 1).
//!
//! The load is controlled exactly as in the paper:
//! `load = T_s · λ · T_d / total_slots`, with the mean tenant size `T_s`
//! from the pool, fixed mean dwell time `T_d`, and arrival rate `λ` solved
//! from the target load.
//!
//! Every driver is "a [`Placer`](cm_core::placement::Placer) in, a report
//! out" over the [`cm_cluster::Cluster`] lifecycle controller, so
//! CloudMirror and every baseline go through the same loops:
//!
//! * [`run_sim`] — the Poisson arrival/departure loop (arrival = `admit`,
//!   departure = `depart`);
//! * [`run_churn`] — the autoscaling-churn loop (admit → scale out →
//!   scale in → migrate → depart), which [`run_churn_traffic`] watches
//!   with periodic datacenter-wide traffic solves and [`run_churn_faults`]
//!   with fault injection and repair.

/// The discrete-event core: clock, queue, and event kinds.
pub mod events;
/// End-to-end experiment drivers behind the paper's figures.
pub mod experiments;
/// Churn with fault injection and repair, judged against the Eq. 7 bound.
pub mod faults;
/// The autoscaling-churn loop: admit, scale out and in, migrate, depart.
pub mod lifecycle;
/// Experiment metrics: rejection accounting, WCS statistics, model repricing.
pub mod metrics;
/// Hand-rolled scoped worker pool for sweep parallelism.
pub mod parallel;
/// Churn with periodic cluster-wide traffic steps and their work counts.
pub mod traffic;

pub use cm_cluster::{
    Cluster, CmError, Fault, FaultReport, RepairReport, TagSpec, TenantDamage, TenantHandle,
    TenantId,
};
pub use events::{run_sim, SimConfig, SimResult};
pub use faults::{run_churn_faults, FaultChurnConfig, FaultChurnReport};
pub use lifecycle::{run_churn, ChurnConfig, ChurnReport};
pub use metrics::{reprice_by_level, RejectionCounts, WcsStats};
pub use parallel::{default_threads, par_map_indexed};
pub use traffic::{run_churn_traffic, TrafficChurnConfig, TrafficChurnReport, TrafficStep};

/// Debug-build invariant sweep: re-derive a conservation invariant from
/// scratch and panic with the full violation text if it fails. Compiles to
/// nothing in release builds.
///
/// This is the *dynamic* half of the `txn-discipline` convention. The
/// static half is the `disallowed-methods` entry in the root `clippy.toml`,
/// which keeps every [`cm_topology::Topology`] mutation inside the
/// reservation layer; this sweep re-derives the ledger those transactions
/// maintain, and panics under the convention's name.
#[inline]
pub fn debug_invariant_sweep<F>(check: F)
where
    F: FnOnce() -> Result<(), String>,
{
    #[cfg(debug_assertions)]
    if let Err(violation) = check() {
        panic!("txn-discipline (dynamic re-derivation): {violation}");
    }
    #[cfg(not(debug_assertions))]
    let _ = check;
}
