//! The batch datacenter traffic solver: the reference the incremental
//! [`TrafficEngine`] is tested against.
//!
//! [`solve`] does everything from scratch on every call and shares no
//! expansion code with the engine:
//!
//! 1. each tenant's placement is expanded into VM-pair flows along its
//!    active TAG edges (all edge-connected pairs greedy by default, or an
//!    explicit instantaneous communication pattern);
//! 2. each cross-server pair is one fluid flow, routed over its real
//!    uplink/downlink path in the physical tree (up from the source server
//!    to the lowest common ancestor, down to the destination);
//! 3. per-pair **floors** come from the tenant's [`Enforcer`] under its
//!    enforcement model ([`GuaranteeModel::Tag`] = the paper's patched
//!    ElasticSwitch, [`GuaranteeModel::Hose`] = the §2.2 baseline), and
//!    spare capacity is shared guarantee-proportionally;
//! 4. one global [`Fluid::rates`] solve over all tenants yields
//!    steady-state rates, which are scored against each pair's **intent**
//!    (the `Tag`-model partition, whatever model enforcement runs), plus
//!    link utilization per tree level and a work-conservation verdict.
//!
//! The engine bundles pairs, partitions all-pairs guarantees in closed
//! form and re-solves only dirty components, so agreement with this
//! module is a differential check of all three.
//!
//! [`TrafficEngine`]: cm_enforce::TrafficEngine

use cm_core::model::{Tag, TierId};
use cm_enforce::datacenter::expand_placement;
use cm_enforce::{
    Enforcer, FlowSpec, Fluid, GuaranteeModel, LevelUtilization, PairFlow, RouteCache,
    TenantSummary, TrafficReport,
};
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

    /// Append this tenant's active pair list (explicit pattern or every
    /// TAG-edge-connected pair, all greedy) into `out`, reusing `scratch`
    /// across calls.
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
/// is reused across tenants instead of reallocated per call.
#[derive(Debug, Default)]
struct PairScratch {
    by_tier: Vec<Vec<u32>>,
}

/// Run every tenant's flows over the physical tree and solve the shared
/// weighted max-min network (see the [module docs](self)).
///
/// # Panics
/// Panics if a tenant's `vm_server` names a node that is not a server of
/// `topo`, or an explicit active pair indexes past the tenant's VMs.
pub fn solve(topo: &Topology, tenants: &[TenantTraffic]) -> TrafficReport {
    let t_build = Instant::now();
    let num_levels = topo.num_levels();

    // One fluid link per direction of every uplink in the tree, at full
    // physical capacity (reservations are admission bookkeeping; the
    // traffic engine models what the wire actually carries) — the
    // engine's layout.
    let mut net = Fluid::new();
    let route = RouteCache::build(topo, &mut net);

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

    // One shared solve across every tenant.
    let t_solve = Instant::now();
    let rates = net.rates();
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
        tenants: Arc::new(summaries),
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
        fill_rounds: 0,
        rounds_reused: 0,
        flows_reused: 0,
        full_solves: 1,
        patch_items: 0,
        ecmp_max_utilization: 0.0,
        ecmp_mean_utilization: 0.0,
        score_secs: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::model::TagBuilder;
    use cm_enforce::TrafficEngine;
    use cm_topology::{mbps, TreeSpec};
    use std::collections::BTreeMap;

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

    /// The same tenants solved twice: by this batch reference and by the
    /// production [`TrafficEngine`] (every tenant listed in canonical VM
    /// order, so its placement indexes the VMs the same way).
    fn both(topo: &Topology, tenants: &[TenantTraffic]) -> [TrafficReport; 2] {
        let mut engine = TrafficEngine::new(topo, tenants[0].model);
        for t in tenants {
            let mut by_server: BTreeMap<NodeId, Vec<u32>> = BTreeMap::new();
            for (&tier, &server) in t.vm_tier.iter().zip(&t.vm_server) {
                by_server
                    .entry(server)
                    .or_insert_with(|| vec![0; t.tag.num_tiers()])[tier.index()] += 1;
            }
            let placement: Vec<(NodeId, Vec<u32>)> = by_server.into_iter().collect();
            assert_eq!(
                expand_placement(&placement),
                (t.vm_tier.clone(), t.vm_server.clone()),
                "tenant {} is not in canonical VM order",
                t.id
            );
            match &t.active {
                Some(pairs) => {
                    engine.upsert_tenant_pairs(topo, t.id, 1, &t.tag, &placement, pairs);
                }
                None => engine.upsert_tenant(topo, t.id, 1, &t.tag, &placement),
            }
        }
        [solve(topo, tenants), engine.solve_detailed(topo)]
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
        for r in both(&topo, &[t]) {
            assert_eq!(r.cross_flows, 0);
            assert_eq!(r.colocated_flows, 2); // both directions of the edge
            assert_eq!(r.violations, 0);
            assert!(r.flows.iter().all(|f| f.colocated));
            assert_eq!(r.total_rate_kbps, 0.0);
        }
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
        for r in both(&topo, &[t]) {
            assert_eq!(r.cross_flows, 1);
            // The lone greedy flow grabs the whole 1 Gbps NIC bottleneck.
            let f = r.pair(1, 0, 1).unwrap();
            assert!((f.rate_kbps - 1_000_000.0).abs() < 1e-3, "{f:?}");
            assert!(r.work_conserving);
            // NIC level fully utilized on the two servers' links.
            assert!((r.levels[0].max_utilization - 1.0).abs() < 1e-9);
            // The route crosses exactly 2 directional links per level
            // (src-side up + dst-side down at the NIC, ToR and aggregation
            // stages): each level's carried kbps — mean utilization ×
            // links × per-link capacity — must equal 2 × rate, pinning the
            // 6-link path.
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
        for r in both(&topo, &[mk(1, 600_000), mk(2, 200_000)]) {
            assert_eq!(r.cross_flows, 2);
            let f1 = r.pair(1, 0, 1).unwrap();
            let f2 = r.pair(2, 0, 1).unwrap();
            assert!((f1.rate_kbps - 750_000.0).abs() < 1.0, "{f1:?}");
            assert!((f2.rate_kbps - 250_000.0).abs() < 1.0, "{f2:?}");
            assert_eq!(r.violations, 0);
            assert!(r.work_conserving);
            assert!((r.total_rate_kbps - 1_000_000.0).abs() < 1.0);
        }
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
        for r in both(&topo, &[t]) {
            // sym_edge = 2 directed edges × 2 src VMs × 2 dst VMs = 8 pairs.
            assert_eq!(r.flows.len(), 8);
            assert_eq!(r.cross_flows, 8);
            assert_eq!(r.violations, 0);
        }
    }
}
