//! # cm-workloads
//!
//! Tenant workload generation for the CloudMirror evaluation (§5).
//!
//! The paper's experiments draw from three workloads: an empirical dataset
//! from **bing.com** (Bodík et al. \[11\]), one from **hpcloud.com** (Choreo,
//! LaCurts et al. \[29\]), and a **synthetic** mix of application types. The
//! first two are proprietary; this crate provides seeded synthetic
//! generators that match every statistic the paper publishes about them:
//!
//! * [`bing_like_pool`] — 80 tenants, mean size ≈ 57 VMs, largest exactly
//!   732 VMs, several above 200; tier structure `T ≈ 5, K ≈ 10`; a mix of
//!   linear / star / ring / mesh / batch communication patterns (Fig. 7 of
//!   \[11\]); inter-component traffic dominating (≈ 85–91 % per component).
//! * [`hpcloud_like_pool`] — smaller tenants (2–20 VMs) with dense
//!   mesh/star patterns, following Choreo's published measurements.
//! * [`mixed_pool`] — the paper's synthetic workload: three-tier web
//!   services mixed with MapReduce-style batch jobs and Storm-style
//!   pipelines of varying size.
//!
//! Bandwidth values in the pools are **relative units**, exactly as in the
//! bing dataset ("the bandwidth values in the bing.com workload dataset are
//! relative, not absolute"); [`TenantPool::scaled_to_bmax`] rescales a pool
//! so that the largest tenant's mean per-VM demand `B_vm` equals a target
//! `B_max` (the x-axis of Figs. 7 and 12).
//!
//! [`apps`] holds the concrete example applications the paper uses in its
//! figures (three-tier web app of Fig. 2, Storm job of Fig. 3, the Fig. 6
//! rack request, the Fig. 13 enforcement scenario).

/// The paper's example applications as reusable TAG builders.
pub mod apps;
mod bing;
mod hpcloud;
mod mixed;
mod pool;

pub use bing::bing_like_pool;
pub use hpcloud::hpcloud_like_pool;
pub use mixed::mixed_pool;
pub use pool::{PoolStats, TenantPool};
