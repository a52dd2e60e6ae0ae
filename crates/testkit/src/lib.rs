//! # cm-testkit
//!
//! Reference implementations the production traffic path of `cm-enforce`
//! is tested against. No production crate depends on this one: it is a
//! dev-dependency only (`publish = false`), and its code is written to be
//! plainly right, not fast.
//!
//! * [`datacenter::solve`] is the batch traffic solver: every tenant
//!   re-expanded into one fluid flow per VM pair, guarantees partitioned
//!   by `Enforcer::partition`, one global solve. The incremental
//!   `TrafficEngine` must match it within float tolerance.
//! * [`fluid::rates_reference`] is the pre-rewrite `O(flows × links)`
//!   progressive filling, a different algorithm from the max-min kernel.
//! * [`fluid::verify_max_min`] checks the definition of the weighted
//!   max-min allocation with floors (its KKT conditions).

pub mod datacenter;
pub mod fluid;
