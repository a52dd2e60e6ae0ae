//! Datacenter-scale traffic engine: every placed tenant's flows over the
//! physical tree, solved as **one** shared fluid network.
//!
//! This is the missing closing of the paper's loop. The enforcement
//! scenarios ([`crate::scenario`]) prove the TAG patch on hand-built
//! 2-link networks; the placement layer reserves worst-case bandwidth but
//! never *runs* traffic. Here the two halves meet:
//!
//! 1. each admitted tenant's live placement is expanded into VM-pair
//!    flows along its active TAG edges (all edge-connected pairs greedy by
//!    default, or an explicit instantaneous communication pattern);
//! 2. each cross-server pair is routed over its real uplink/downlink path
//!    in the physical tree (up from the source server to the lowest common
//!    ancestor, down to the destination — every directional link on the
//!    way is a capacitated fluid link);
//! 3. per-pair **floors** come from the tenant's [`Enforcer`] under its
//!    enforcement model ([`GuaranteeModel::Tag`] = the paper's patched
//!    ElasticSwitch, [`GuaranteeModel::Hose`] = the §2.2 baseline), and
//!    spare capacity is shared guarantee-proportionally;
//! 4. one [`Fluid`] solve over all tenants yields steady-state rates,
//!    which are scored against each pair's **intent** — the guarantee the
//!    TAG semantics promise (the `Tag`-model partition, whatever model
//!    enforcement runs) — plus link utilization per tree level and a
//!    work-conservation verdict.
//!
//! A Fig. 13/14-style experiment therefore happens *through the placement
//! layer*: admit tenants with a real placer, solve, and watch the hose
//! model's floors dilute on the placed topology while the TAG patch keeps
//! every pair at its intent.

use crate::elastic::{Enforcer, GuaranteeModel};
use crate::fluid::{FlowSpec, Fluid};
use crate::route::RouteCache;
use cm_core::model::{Tag, TierId};
use cm_topology::{NodeId, Topology};
use std::sync::Arc;
use std::time::Instant;

/// One tenant's contribution to the datacenter traffic mix.
#[derive(Debug, Clone)]
pub struct TenantTraffic {
    /// Caller-chosen identifier echoed in the report (the cluster layer
    /// passes its `TenantId`).
    pub id: u64,
    /// The tenant's TAG (shared; no deep clone).
    pub tag: Arc<Tag>,
    /// Tier of VM `i`.
    pub vm_tier: Vec<TierId>,
    /// Server hosting VM `i`.
    pub vm_server: Vec<NodeId>,
    /// How this tenant's runtime enforcement derives pair floors.
    pub model: GuaranteeModel,
    /// Instantaneous communication pattern: exactly these `(src, dst)` VM
    /// pairs are active (each greedy). `None` = every TAG-edge-connected
    /// pair sends (the converged all-active worst case).
    pub active: Option<Vec<(usize, usize)>>,
}

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

impl TenantTraffic {
    /// Build from a per-server placement via [`expand_placement`].
    pub fn from_placement(
        id: u64,
        tag: Arc<Tag>,
        placement: &[(NodeId, Vec<u32>)],
        model: GuaranteeModel,
    ) -> Self {
        let (vm_tier, vm_server) = expand_placement(placement);
        TenantTraffic {
            id,
            tag,
            vm_tier,
            vm_server,
            model,
            active: None,
        }
    }

    /// Restrict the tenant to an explicit active-pair pattern.
    pub fn with_active(mut self, pairs: Vec<(usize, usize)>) -> Self {
        self.active = Some(pairs);
        self
    }

    /// Append this tenant's active pair list (explicit pattern or every
    /// TAG-edge-connected pair, all greedy) into `out`, reusing `scratch`
    /// across calls. The old `all_pairs`/`pairs` pair allocated a fresh
    /// per-tier index and pair vector for every tenant on every solve; at
    /// datacenter scale that dominated the expansion phase.
    fn pairs_into(&self, scratch: &mut PairScratch, out: &mut Vec<(usize, usize, f64)>) {
        out.clear();
        if let Some(p) = &self.active {
            out.extend(p.iter().map(|&(s, d)| (s, d, f64::INFINITY)));
            return;
        }
        let nt = self.tag.num_tiers();
        if scratch.by_tier.len() < nt {
            scratch.by_tier.resize_with(nt, Vec::new);
        }
        for v in &mut scratch.by_tier[..nt] {
            v.clear();
        }
        for (i, &t) in self.vm_tier.iter().enumerate() {
            scratch.by_tier[t.index()].push(i as u32);
        }
        let by_tier = &scratch.by_tier;
        let total: usize = self
            .tag
            .edges()
            .iter()
            .map(|e| by_tier[e.from.index()].len() * by_tier[e.to.index()].len())
            .sum();
        out.reserve(total);
        for e in self.tag.edges() {
            for &s in &by_tier[e.from.index()] {
                for &d in &by_tier[e.to.index()] {
                    if s != d {
                        out.push((s as usize, d as usize, f64::INFINITY));
                    }
                }
            }
        }
    }
}

/// Pooled scratch for [`TenantTraffic::pairs_into`]: the per-tier VM index
/// is reused across tenants and steps instead of reallocated per call.
#[derive(Debug, Default)]
struct PairScratch {
    by_tier: Vec<Vec<u32>>,
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
    /// Per-tenant compliance summaries, in input order.
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
    /// Flows handed to the fluid solver. The batch solver materializes one
    /// per cross VM pair (= `cross_flows`); the incremental engine bundles
    /// same-class pairs, so this is typically far smaller.
    pub fluid_flows: usize,
    /// Seconds spent expanding placements, partitioning guarantees and
    /// routing paths (`expand_secs + route_secs`).
    pub build_secs: f64,
    /// Seconds expanding tenants into flow classes: for the incremental
    /// engine, only tenants whose placement changed since the last solve
    /// (including their route-cache fills); for the batch solver, all of
    /// `build_secs`.
    pub expand_secs: f64,
    /// Seconds assembling the fluid flow set from the routed bundles
    /// (zero for the batch solver, which interleaves it with expansion).
    pub route_secs: f64,
    /// Seconds spent in the fluid max-min solve itself.
    pub solve_secs: f64,
    /// Reads `0.0`: no solver starts from a previous step's state any
    /// more. Retained only because the frozen `benchmark/src/run.rs` reads
    /// it; it goes with the next `benchmark` PR.
    pub solve_warm_secs: f64,
    /// Connected components the solver re-solved this step (the batch
    /// solver re-solves everything as one component).
    pub components_dirty: usize,
    /// Connected components among links carrying at least one flow.
    pub components_total: usize,
    /// Tenant summaries scored this step. The incremental engine re-scores
    /// only tenants with a flow in a re-solved component (plus tenants
    /// expanded with no cross-server flow); the batch solver scores every
    /// tenant. A deterministic count: equal for equal op streams.
    pub tenants_rescored: usize,
    /// Fluid links whose usage was recomputed this step. The incremental
    /// engine recomputes the links of re-solved components and touched
    /// links left without flows; the batch solver recomputes every link.
    /// Deterministic like `tenants_rescored`.
    pub links_rescored: usize,
    /// Reads `0.0`: no uplink is split into hashed lanes any more. Kept
    /// for `benchmark/`; the benchmark-only follow-up deletes it.
    pub ecmp_max_utilization: f64,
    /// Reads `0.0`, like `ecmp_max_utilization`. Kept for `benchmark/`;
    /// the benchmark-only follow-up deletes it.
    pub ecmp_mean_utilization: f64,
    /// Seconds scoring solved rates into summaries, levels and violations
    /// (the batch solver folds this into the caller-visible wall time but
    /// reports it as zero).
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

/// Run every tenant's flows over the physical tree and solve the shared
/// weighted max-min network (see the [module docs](self)).
///
/// # Panics
/// Panics if a tenant's `vm_server` names a node that is not a server of
/// `topo`, or an explicit active pair indexes past the tenant's VMs (the
/// cluster layer validates both before calling).
pub fn solve(topo: &Topology, tenants: &[TenantTraffic]) -> TrafficReport {
    let t_build = Instant::now();
    let num_levels = topo.num_levels();

    // One fluid link per direction of every uplink in the tree, at full
    // physical capacity (reservations are admission bookkeeping; the
    // traffic engine models what the wire actually carries) — the
    // incremental engine's layout.
    let mut net = Fluid::new();
    let mut route = RouteCache::build(topo, &mut net);

    let mut flows: Vec<PairFlow> = Vec::new();
    let mut summaries: Vec<TenantSummary> = Vec::with_capacity(tenants.len());
    // Flows are pushed tenant by tenant; the per-tenant range into `flows`
    // attributes them back positionally (ids need not be unique).
    let mut flow_ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(tenants.len());
    // Fluid-flow index -> index into `flows`, to write solved rates back.
    let mut fluid_to_pair: Vec<u32> = Vec::new();
    let mut scratch = PairScratch::default();
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();

    for tenant in tenants {
        tenant.pairs_into(&mut scratch, &mut pairs);
        let pairs = &pairs;
        // Floors under the tenant's enforcement model; intents are the
        // TAG-model partition under either model (what the abstraction
        // promised).
        let enforcer = Enforcer::new_shared(
            Arc::clone(&tenant.tag),
            tenant.vm_tier.clone(),
            tenant.model,
        );
        let floors = enforcer.partition(pairs);
        let intents = if tenant.model == GuaranteeModel::Tag {
            None // floors already are the intents
        } else {
            let tag_enforcer = Enforcer::new_shared(
                Arc::clone(&tenant.tag),
                tenant.vm_tier.clone(),
                GuaranteeModel::Tag,
            );
            Some(tag_enforcer.partition(pairs))
        };

        let flows_start = flows.len();
        let mut summary = TenantSummary {
            id: tenant.id,
            vms: tenant.vm_tier.len(),
            pairs: pairs.len(),
            cross_pairs: 0,
            intent_kbps: 0.0,
            achieved_kbps: 0.0,
            violations: 0,
            worst_shortfall_kbps: 0.0,
        };
        for (i, &(s, d, demand)) in pairs.iter().enumerate() {
            let floor = floors[i].kbps;
            let intent = intents.as_ref().map(|v| v[i].kbps).unwrap_or(floor);
            let (src_srv, dst_srv) = (tenant.vm_server[s], tenant.vm_server[d]);
            let colocated = src_srv == dst_srv;
            if colocated {
                flows.push(PairFlow {
                    tenant: tenant.id,
                    src: s,
                    dst: d,
                    floor_kbps: floor,
                    intent_kbps: intent,
                    rate_kbps: intent,
                    colocated: true,
                });
                continue;
            }
            summary.cross_pairs += 1;
            summary.intent_kbps += intent;
            let mut spec =
                FlowSpec::greedy(route.path(topo, src_srv, dst_srv)).with_guarantee(floor);
            spec.demand = demand;
            fluid_to_pair.push(flows.len() as u32);
            net.flow(spec);
            flows.push(PairFlow {
                tenant: tenant.id,
                src: s,
                dst: d,
                floor_kbps: floor,
                intent_kbps: intent,
                rate_kbps: 0.0,
                colocated: false,
            });
        }
        flow_ranges.push(flows_start..flows.len());
        summaries.push(summary);
    }
    let build_secs = t_build.elapsed().as_secs_f64();

    // One shared solve across every tenant (reusing the output vector is
    // moot here — the network is rebuilt per call — but keeps the hot
    // entry point exercised).
    let t_solve = Instant::now();
    let mut rates = Vec::new();
    net.rates_into(&mut rates);
    let solve_secs = t_solve.elapsed().as_secs_f64();
    let work_conserving = net.is_work_conserving(&rates);
    for (fi, &pi) in fluid_to_pair.iter().enumerate() {
        flows[pi as usize].rate_kbps = rates[fi];
    }

    // Score achieved rates against intents, per tenant.
    let mut total_rate_kbps = 0.0;
    let mut violations = 0usize;
    for (s, range) in summaries.iter_mut().zip(&flow_ranges) {
        for f in &flows[range.clone()] {
            if f.colocated {
                continue;
            }
            s.achieved_kbps += f.rate_kbps;
            total_rate_kbps += f.rate_kbps;
            if f.violated() {
                s.violations += 1;
                violations += 1;
                s.worst_shortfall_kbps = s.worst_shortfall_kbps.max(f.intent_kbps - f.rate_kbps);
            }
        }
    }

    // Link utilization per tree level.
    let mut used = vec![0.0f64; net.num_links()];
    for (spec, &r) in net.flows().iter().zip(&rates) {
        for &l in &spec.path {
            used[l] += r;
        }
    }
    let mut levels: Vec<LevelUtilization> = (0..num_levels.saturating_sub(1))
        .map(|level| LevelUtilization {
            level,
            links: 0,
            mean_utilization: 0.0,
            max_utilization: 0.0,
            saturated: 0,
        })
        .collect();
    for (l, &u) in used.iter().enumerate() {
        let cap = net.link_cap(l);
        let util = if cap > 0.0 { u / cap } else { 0.0 };
        let lv = &mut levels[route.link_level(l) as usize];
        lv.links += 1;
        lv.mean_utilization += util;
        lv.max_utilization = lv.max_utilization.max(util);
        if util >= 0.999 {
            lv.saturated += 1;
        }
    }
    for lv in &mut levels {
        if lv.links > 0 {
            lv.mean_utilization /= lv.links as f64;
        }
    }

    let cross_flows = fluid_to_pair.len();
    let colocated_flows = flows.len() - cross_flows;
    TrafficReport {
        tenants: summaries,
        flows,
        levels,
        cross_flows,
        colocated_flows,
        total_rate_kbps,
        work_conserving,
        violations,
        fluid_flows: cross_flows,
        build_secs,
        expand_secs: build_secs,
        route_secs: 0.0,
        solve_secs,
        solve_warm_secs: 0.0,
        components_dirty: 1,
        components_total: 1,
        tenants_rescored: tenants.len(),
        links_rescored: net.num_links(),
        ecmp_max_utilization: 0.0,
        ecmp_mean_utilization: 0.0,
        score_secs: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::model::TagBuilder;
    use cm_topology::{mbps, TreeSpec};

    /// 2 pods × 2 racks × 2 servers, 4 slots each; NICs 1 Gbps.
    fn topo() -> Topology {
        Topology::build(&TreeSpec::small(
            2,
            2,
            2,
            4,
            [mbps(1000.0), mbps(4000.0), mbps(8000.0)],
        ))
    }

    fn two_tier_tag(n_a: u32, n_b: u32, bw_kbps: u64) -> Arc<Tag> {
        let mut b = TagBuilder::new("t");
        let a = b.tier("a", n_a);
        let z = b.tier("b", n_b);
        b.sym_edge(a, z, bw_kbps).unwrap();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn colocated_pairs_bypass_the_network() {
        let topo = topo();
        let s = topo.servers()[0];
        let tag = two_tier_tag(1, 1, 100_000);
        let t = TenantTraffic {
            id: 7,
            tag: Arc::clone(&tag),
            vm_tier: vec![TierId(0), TierId(1)],
            vm_server: vec![s, s],
            model: GuaranteeModel::Tag,
            active: None,
        };
        let r = solve(&topo, &[t]);
        assert_eq!(r.cross_flows, 0);
        assert_eq!(r.colocated_flows, 2); // both directions of the edge
        assert_eq!(r.violations, 0);
        assert!(r.flows.iter().all(|f| f.colocated));
        assert_eq!(r.total_rate_kbps, 0.0);
    }

    #[test]
    fn cross_rack_pair_is_routed_over_six_links() {
        let topo = topo();
        // Servers 0 and last: different pods — path = 3 up + 3 down.
        let s0 = topo.servers()[0];
        let s7 = *topo.servers().last().unwrap();
        let tag = two_tier_tag(1, 1, 100_000);
        let t = TenantTraffic {
            id: 1,
            tag,
            vm_tier: vec![TierId(0), TierId(1)],
            vm_server: vec![s0, s7],
            model: GuaranteeModel::Tag,
            active: Some(vec![(0, 1)]),
        };
        let r = solve(&topo, &[t]);
        assert_eq!(r.cross_flows, 1);
        // The lone greedy flow grabs the whole 1 Gbps NIC bottleneck.
        let f = r.pair(1, 0, 1).unwrap();
        assert!((f.rate_kbps - 1_000_000.0).abs() < 1e-3, "{f:?}");
        assert!(r.work_conserving);
        // NIC level fully utilized on the two servers' links.
        assert!((r.levels[0].max_utilization - 1.0).abs() < 1e-9);
        // The route crosses exactly 2 directional links per level (src-side
        // up + dst-side down at the NIC, ToR and aggregation stages): each
        // level's carried kbps — mean utilization × links × per-link
        // capacity — must equal 2 × rate, pinning the 6-link path.
        let caps = [mbps(1000.0), mbps(4000.0), mbps(8000.0)];
        for (lv, &cap) in r.levels.iter().zip(&caps) {
            let carried = lv.mean_utilization * lv.links as f64 * cap as f64;
            assert!(
                (carried - 2.0 * f.rate_kbps).abs() < 1.0,
                "level {}: carried {carried} kbps, want 2 × {}",
                lv.level,
                f.rate_kbps
            );
        }
    }

    #[test]
    fn two_tenants_share_a_bottleneck_guarantee_proportionally() {
        let topo = topo();
        let s0 = topo.servers()[0];
        let s1 = topo.servers()[1]; // same rack: server NICs + ToR links
        let mk = |id: u64, g_kbps: u64| {
            let tag = two_tier_tag(1, 1, g_kbps);
            TenantTraffic {
                id,
                tag,
                vm_tier: vec![TierId(0), TierId(1)],
                vm_server: vec![s0, s1],
                model: GuaranteeModel::Tag,
                active: Some(vec![(0, 1)]),
            }
        };
        // Guarantees 600 + 200 Mbps over a shared 1 Gbps NIC path: floors
        // granted, spare 200 split 3:1.
        let r = solve(&topo, &[mk(1, 600_000), mk(2, 200_000)]);
        assert_eq!(r.cross_flows, 2);
        let f1 = r.pair(1, 0, 1).unwrap();
        let f2 = r.pair(2, 0, 1).unwrap();
        assert!((f1.rate_kbps - 750_000.0).abs() < 1.0, "{f1:?}");
        assert!((f2.rate_kbps - 250_000.0).abs() < 1.0, "{f2:?}");
        assert_eq!(r.violations, 0);
        assert!(r.work_conserving);
        assert!((r.total_rate_kbps - 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn all_pairs_expansion_matches_tag_edges() {
        let topo = topo();
        let servers = topo.servers();
        let tag = two_tier_tag(2, 2, 50_000);
        let t = TenantTraffic {
            id: 3,
            tag,
            vm_tier: vec![TierId(0), TierId(0), TierId(1), TierId(1)],
            vm_server: vec![servers[0], servers[1], servers[2], servers[3]],
            model: GuaranteeModel::Tag,
            active: None,
        };
        let r = solve(&topo, &[t]);
        // sym_edge = 2 directed edges × 2 src VMs × 2 dst VMs = 8 pairs.
        assert_eq!(r.flows.len(), 8);
        assert_eq!(r.cross_flows, 8);
        assert_eq!(r.violations, 0);
    }
}
