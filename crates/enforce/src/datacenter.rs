//! What a datacenter traffic solve reports, and the canonical VM indexing
//! every placement-wired API shares.
//!
//! [`crate::engine::TrafficEngine`] runs every placed tenant's VM-pair
//! flows over the physical tree as one shared fluid network and returns a
//! [`TrafficReport`]: per pair, the enforced **floor** (the tenant's
//! guarantee model), the **intent** (what the TAG semantics promise — the
//! `Tag`-model partition, whatever model enforcement runs) and the
//! achieved rate; per tenant, a compliance summary; per tree level, link
//! utilization; and a work-conservation verdict.
//! [`expand_placement`](crate::datacenter::expand_placement) fixes which
//! VM index names which VM, so pair lists, guarantee reports and traffic
//! reports can be read against each other.

use cm_core::model::TierId;
use cm_topology::NodeId;

/// Expand a per-server placement (`(server, VMs per tier)`, the shape
/// `Deployed::placement` returns) into per-VM `(tier, server)`
/// assignments, server-major then tier-major. This is the **one**
/// canonical VM indexing: the cluster layer's guarantee reports delegate
/// here, so VM indices are interchangeable across every placement-wired
/// API.
pub fn expand_placement(placement: &[(NodeId, Vec<u32>)]) -> (Vec<TierId>, Vec<NodeId>) {
    let mut vm_tier = Vec::new();
    let mut vm_server = Vec::new();
    for (server, counts) in placement {
        for (t, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                vm_tier.push(TierId(t as u16));
                vm_server.push(*server);
            }
        }
    }
    (vm_tier, vm_server)
}

/// One VM pair's solved steady state.
#[derive(Debug, Clone, PartialEq)]
pub struct PairFlow {
    /// Tenant the pair belongs to.
    pub tenant: u64,
    /// Sending VM index (tenant-local).
    pub src: usize,
    /// Receiving VM index (tenant-local).
    pub dst: usize,
    /// Enforced floor (kbps) under the tenant's guarantee model.
    pub floor_kbps: f64,
    /// What the TAG semantics promise the pair (kbps) — the compliance
    /// target, independent of which model enforcement runs.
    pub intent_kbps: f64,
    /// Achieved steady-state rate (kbps). Colocated pairs never touch the
    /// network; they are reported at their intent (met by the hypervisor).
    pub rate_kbps: f64,
    /// Whether both VMs share a server (no network path).
    pub colocated: bool,
}

impl PairFlow {
    /// Whether the achieved rate falls short of the TAG intent.
    pub fn violated(&self) -> bool {
        !self.colocated && self.rate_kbps + violation_tol(self.intent_kbps) < self.intent_kbps
    }
}

/// Per-tenant guarantee-compliance summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// The tenant reported on.
    pub id: u64,
    /// VMs placed.
    pub vms: usize,
    /// Active pairs (cross-network + colocated).
    pub pairs: usize,
    /// Pairs that traverse the network.
    pub cross_pairs: usize,
    /// Σ intent over cross-network pairs (kbps).
    pub intent_kbps: f64,
    /// Σ achieved rate over cross-network pairs (kbps).
    pub achieved_kbps: f64,
    /// Cross-network pairs whose rate falls short of their intent.
    pub violations: usize,
    /// Largest single-pair shortfall below intent (kbps).
    pub worst_shortfall_kbps: f64,
}

/// Aggregate utilization of one tree level's directional links.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelUtilization {
    /// Tree level (0 = server NICs).
    pub level: usize,
    /// Directional links at this level (2 per node: up + down).
    pub links: usize,
    /// Mean used/capacity over the level's directional links.
    pub mean_utilization: f64,
    /// Largest used/capacity at the level.
    pub max_utilization: f64,
    /// Directional links at ≥ 99.9 % of capacity.
    pub saturated: usize,
}

/// Everything one datacenter solve produces.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Per-tenant compliance summaries, ascending by tenant id.
    pub tenants: Vec<TenantSummary>,
    /// Every active pair with its floor, intent and achieved rate.
    pub flows: Vec<PairFlow>,
    /// Link utilization aggregated per tree level.
    pub levels: Vec<LevelUtilization>,
    /// Pairs that traversed the network (fluid flows solved).
    pub cross_flows: usize,
    /// Pairs absorbed by colocation.
    pub colocated_flows: usize,
    /// Σ achieved rate over cross-network pairs (kbps) — the network's
    /// delivered throughput.
    pub total_rate_kbps: f64,
    /// Whether the allocation is work-conserving (no link both unsaturated
    /// and limiting; verified on the solved rates).
    pub work_conserving: bool,
    /// Σ violations over all tenants.
    pub violations: usize,
    /// Flows in the fluid network: one per bundle of same-class VM pairs
    /// sharing a server pair (one per cross pair of an explicit pattern),
    /// so typically far fewer than `cross_flows`.
    pub fluid_flows: usize,
    /// Seconds spent expanding placements, partitioning guarantees and
    /// routing paths (`expand_secs + route_secs`).
    pub build_secs: f64,
    /// Seconds expanding tenants into routed flow classes since the last
    /// solve: only tenants whose placement changed (or that were given a
    /// pattern), routing included.
    pub expand_secs: f64,
    /// Reads `0.0`: bundles are routed during expansion and the fluid flow
    /// set persists across steps, so no assembly phase is left. Kept for
    /// `benchmark/`, which sums the phases.
    pub route_secs: f64,
    /// Seconds spent in the fluid max-min solve itself.
    pub solve_secs: f64,
    /// Reads `0.0`: no solver starts from a previous step's state any
    /// more. Retained only because the frozen `benchmark/src/run.rs` reads
    /// it; it goes with the next `benchmark` PR.
    pub solve_warm_secs: f64,
    /// Connected components the solver re-solved this step (every one on
    /// an engine's first solve; none on a solve with no churn since the
    /// last).
    pub components_dirty: usize,
    /// Connected components among links carrying at least one flow.
    pub components_total: usize,
    /// Tenant summaries scored this step: tenants with a flow in a
    /// re-solved component, plus tenants expanded with no cross-server
    /// flow. A deterministic count: equal for equal op streams.
    pub tenants_rescored: usize,
    /// Fluid links whose usage was recomputed this step: the links of
    /// re-solved components and touched links left without flows.
    /// Deterministic like `tenants_rescored`.
    pub links_rescored: usize,
    /// Reads `0.0`: no uplink is split into hashed lanes any more. Kept
    /// for `benchmark/`; the benchmark-only follow-up deletes it.
    pub ecmp_max_utilization: f64,
    /// Reads `0.0`, like `ecmp_max_utilization`. Kept for `benchmark/`;
    /// the benchmark-only follow-up deletes it.
    pub ecmp_mean_utilization: f64,
    /// Seconds scoring solved rates into summaries, levels and violations:
    /// re-scoring what the solve invalidated, folding the cached
    /// summaries and utilisation blocks and, for a detailed solve, writing
    /// out every pair.
    pub score_secs: f64,
}

impl TrafficReport {
    /// Tenants with at least one violated pair.
    pub fn violating_tenants(&self) -> usize {
        self.tenants.iter().filter(|t| t.violations > 0).count()
    }

    /// The solved flow for one `(tenant, src, dst)` pair, if active.
    pub fn pair(&self, tenant: u64, src: usize, dst: usize) -> Option<&PairFlow> {
        self.flows
            .iter()
            .find(|f| f.tenant == tenant && f.src == src && f.dst == dst)
    }

    /// Largest `max_utilization` across all levels.
    pub fn max_link_utilization(&self) -> f64 {
        self.levels
            .iter()
            .map(|l| l.max_utilization)
            .fold(0.0, f64::max)
    }
}

/// Shortfalls below this are float noise, not violations.
#[inline]
pub(crate) fn violation_tol(intent: f64) -> f64 {
    1e-3 + 1e-6 * intent.abs()
}
