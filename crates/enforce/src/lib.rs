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
//! [`engine`] scales the substitution to the whole datacenter: every
//! admitted tenant's placement expands into VM-pair flows routed over the
//! physical tree and solved as one shared weighted max-min network — the
//! Fig. 13/14 interference experiments *through the placement layer*
//! instead of on synthetic 2-link topologies. A persistent
//! [`engine::TrafficEngine`] re-expands only tenants whose placement
//! changed, routes server pairs over their LCA
//! ([`route::RouteCache::path`]) and bundles same-class VM pairs into
//! aggregate flows; a tenant may also send on an explicit communication
//! pattern instead of all its TAG-edge pairs. It solves on the tree
//! placement reserves on — one fluid link per uplink direction at that
//! uplink's capacity, laid out by [`route::RouteCache::build`] — so a
//! multi-rooted core is modelled as placement sees it, as aggregate
//! uplinks. The fluid solve itself is incremental too:
//! [`incremental::IncrementalFluid`] partitions the flow/link graph into
//! connected components, keeps each one's flattened kernel input between
//! solves and re-solves only the ones churn touched, each with the same
//! max-min kernel [`fluid::Fluid::rates`] runs — the step
//! that takes the engine to 100k+-server fat-trees. [`datacenter`] holds
//! the report types and the canonical VM indexing.
//!
//! The references these solvers are tested against — a batch solver with
//! one fluid flow per VM pair, and two max-min oracles — live in the
//! dev-only `cm-testkit` crate.

#![warn(clippy::unwrap_used, clippy::expect_used)]

/// Traffic reports, per-level utilization and the canonical VM indexing.
pub mod datacenter;
/// ElasticSwitch Guarantee Partitioning, with and without the TAG patch.
pub mod elastic;
/// The persistent incremental traffic engine: tenants' flows over the tree.
pub mod engine;
/// Exact progressive-filling max-min fairness solver.
pub mod fluid;
/// Component-scoped incremental wrapper around the fluid solver.
pub mod incremental;
/// Physical routing: the tree's fluid link layout and LCA routes.
pub mod route;
/// Canned enforcement scenarios reproducing the paper's figures.
pub mod scenario;

pub use datacenter::{LevelUtilization, PairFlow, TenantSummary, TrafficReport};
pub use elastic::{split_guarantee, Enforcer, GuaranteeModel, PairGuarantee};
pub use engine::TrafficEngine;
pub use fluid::{FlowSpec, Fluid};
pub use incremental::{IncrementalFluid, SolveStats};
pub use route::RouteCache;
pub use scenario::{fig13_throughput, fig4_throughput, Fig13Point, Fig4Point};
