//! Cluster queries: utilization summaries and enforcement-wired guarantee
//! reports.

use crate::TenantId;
use cm_core::model::{Tag, TierId};
use cm_enforce::{Enforcer, GuaranteeModel};
use cm_topology::{Kbps, NodeId};
use std::sync::Arc;

/// Datacenter-wide resource usage (see [`crate::Cluster::utilization`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Utilization {
    /// Live tenants.
    pub tenants: usize,
    /// Total VM slots in the datacenter.
    pub slots_total: u64,
    /// VM slots currently allocated.
    pub slots_in_use: u64,
    /// Reserved (out, in) kbps summed over the uplinks of each level,
    /// index 0 = server NICs.
    pub reserved_by_level: Vec<(Kbps, Kbps)>,
    /// One-directional capacity summed over the uplinks of each level.
    pub capacity_by_level: Vec<Kbps>,
}

impl Utilization {
    /// Fraction of VM slots in use, `0.0..=1.0`.
    pub fn slot_fraction(&self) -> f64 {
        if self.slots_total == 0 {
            0.0
        } else {
            self.slots_in_use as f64 / self.slots_total as f64
        }
    }
}

/// One VM pair's enforced guarantee (see [`GuaranteeReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PairReport {
    /// Sending VM index (into the report's `vm_tier` / `vm_server`).
    pub src: usize,
    /// Receiving VM index.
    pub dst: usize,
    /// Guaranteed kbps for this pair under the report's model.
    pub kbps: f64,
    /// Whether the pair crosses a server boundary (colocated pairs need no
    /// network reservation; their guarantee is met by the hypervisor).
    pub crosses_network: bool,
}

/// The placement-wired enforcement view of one tenant: its guarantees
/// partitioned among all communicating VM pairs (ElasticSwitch GP with or
/// without the TAG patch), with each VM pinned to the server the placer
/// chose. This is the §5.2 controller hand-off — "the controller knows
/// every placement change" — as a queryable artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct GuaranteeReport {
    /// The tenant reported on.
    pub tenant: TenantId,
    /// Guarantee model used ([`GuaranteeModel::Tag`] = the paper's patch).
    pub model: GuaranteeModel,
    /// Tier of VM `i`.
    pub vm_tier: Vec<TierId>,
    /// Server hosting VM `i`.
    pub vm_server: Vec<NodeId>,
    /// Per-pair guarantees, all pairs greedy (the converged worst case).
    pub pairs: Vec<PairReport>,
}

impl GuaranteeReport {
    /// Total guaranteed kbps across all pairs.
    pub fn total_kbps(&self) -> f64 {
        self.pairs.iter().map(|p| p.kbps).sum()
    }

    /// Guaranteed kbps that actually needs the network (pairs spanning
    /// servers) — what runtime enforcement must protect.
    pub fn cross_network_kbps(&self) -> f64 {
        self.pairs
            .iter()
            .filter(|p| p.crosses_network)
            .map(|p| p.kbps)
            .sum()
    }

    /// Guaranteed kbps absorbed by colocation (pairs on one server) — the
    /// bandwidth the placer's `Colocate` step saved the network.
    pub fn colocated_kbps(&self) -> f64 {
        self.total_kbps() - self.cross_network_kbps()
    }
}

/// Expand a placement into per-VM assignments and partition the TAG's
/// guarantees among the communicating pairs: every edge-connected pair
/// greedy when `active` is `None`, or exactly the given `(src, dst)` pairs
/// (each greedy) when the caller knows the instantaneous communication
/// pattern — guarantee partitioning is demand-aware, so a concentrated
/// pattern (Fig. 13's lone receiver) yields very different shares than
/// all-pairs load.
pub(crate) fn build_report(
    tenant: TenantId,
    tag: &Arc<Tag>,
    placement: &[(NodeId, Vec<u32>)],
    model: GuaranteeModel,
    active: Option<&[(usize, usize)]>,
) -> GuaranteeReport {
    let (vm_tier, vm_server) = cm_enforce::datacenter::expand_placement(placement);

    let mut raw_pairs: Vec<(usize, usize, f64)> = Vec::new();
    match active {
        Some(pairs) => {
            // Validated by `Cluster::guarantee_report_active` before the
            // call (stale indices are a typed `CmError::InvalidPair`).
            for &(s, d) in pairs {
                debug_assert!(s < vm_tier.len() && d < vm_tier.len() && s != d);
                raw_pairs.push((s, d, f64::INFINITY));
            }
        }
        None => {
            // Every pair connected by a TAG edge, all greedy: the steady
            // state the enforcement scenarios converge to when every flow
            // has demand.
            for e in tag.edges() {
                for (s, &st) in vm_tier.iter().enumerate() {
                    if st != e.from {
                        continue;
                    }
                    for (d, &dt) in vm_tier.iter().enumerate() {
                        if dt != e.to || s == d {
                            continue;
                        }
                        raw_pairs.push((s, d, f64::INFINITY));
                    }
                }
            }
        }
    }

    let enforcer = Enforcer::new_shared(Arc::clone(tag), vm_tier.clone(), model);
    let pairs = enforcer
        .partition(&raw_pairs)
        .into_iter()
        .map(|g| PairReport {
            src: g.src,
            dst: g.dst,
            kbps: g.kbps,
            crosses_network: vm_server[g.src] != vm_server[g.dst],
        })
        .collect();

    GuaranteeReport {
        tenant,
        model,
        vm_tier,
        vm_server,
        pairs,
    }
}
