//! # cm-enforce
//!
//! Runtime enforcement of TAG bandwidth guarantees (§5.2).
//!
//! The paper's prototype patches ElasticSwitch \[7\] — a distributed
//! hose-guarantee enforcer built from two layers:
//!
//! 1. **Guarantee Partitioning (GP)** divides each VM's hose guarantee
//!    among its currently-active peer VMs (max-min over their demands);
//!    a source-destination pair's guarantee is the minimum of the sender's
//!    and the receiver's shares.
//! 2. **Rate Allocation (RA)** is work-conserving: pairs may exceed their
//!    guarantees to use spare bandwidth, probing TCP-like; in steady state
//!    this approximates guarantee-weighted max-min fairness on the
//!    residual capacity.
//!
//! The TAG patch ("30 lines of code") changes only *which hose* a VM pair
//! charges: instead of one hose per VM, the pair is classified by the TAG
//! edge connecting its tiers (trunk or self-loop). That single change is
//! what isolates tier C1's traffic from C2's intra-tier traffic in Fig. 13
//! — and its absence is why the plain hose model fails in Fig. 4.
//!
//! The physical testbed is replaced by a **fluid-flow simulator**
//! ([`fluid`]): steady-state TCP throughput on a network of capacitated
//! links is max-min fair allocation, which progressive filling computes
//! exactly; ElasticSwitch's converged state is modeled by floors
//! (guarantees) plus guarantee-weighted filling of the spare.
//!
//! [`datacenter`] scales the substitution to the whole datacenter: every
//! admitted tenant's placement expands into VM-pair flows routed over the
//! physical tree and solved as one shared weighted max-min network — the
//! Fig. 13/14 interference experiments *through the placement layer*
//! instead of on synthetic 2-link topologies. [`engine`] makes that solve
//! *incremental*: a persistent [`engine::TrafficEngine`] re-expands only
//! tenants whose placement changed, routes server pairs over their LCA
//! ([`route::RouteCache::path`]) and bundles same-class VM pairs into
//! aggregate flows. Both solvers run on the tree placement reserves on —
//! one fluid link per uplink direction at that uplink's capacity, laid
//! out by [`route::RouteCache::build`] — so a multi-rooted core is
//! modelled as placement sees it, as aggregate uplinks. The fluid solve
//! itself is incremental too: [`incremental::IncrementalFluid`] partitions the
//! flow/link graph into connected components and re-solves only the ones
//! churn touched, each with the same max-min kernel the global
//! [`fluid::Fluid::rates`] runs — the step that takes the engine to
//! 100k+-server fat-trees.

#![warn(clippy::unwrap_used, clippy::expect_used)]

/// Tenant traffic reports and per-level utilization accounting.
pub mod datacenter;
/// Elasticity-aware bandwidth headroom for scaling tenants.
pub mod elastic;
/// The enforcement engine: admission of tenant traffic onto physical links.
pub mod engine;
/// Exact progressive-filling max-min fairness solver.
pub mod fluid;
/// Component-scoped incremental wrapper around the fluid solver.
pub mod incremental;
/// Physical routing: the tree's fluid link layout and LCA path memo.
pub mod route;
/// Canned enforcement scenarios reproducing the paper's figures.
pub mod scenario;

pub use datacenter::{LevelUtilization, PairFlow, TenantSummary, TenantTraffic, TrafficReport};
pub use elastic::{split_guarantee, Enforcer, GuaranteeModel, PairGuarantee};
pub use engine::TrafficEngine;
pub use fluid::{FlowSpec, Fluid};
pub use incremental::{IncrementalFluid, SolveStats};
pub use route::RouteCache;
pub use scenario::{fig13_throughput, fig4_throughput, Fig13Point, Fig4Point};
