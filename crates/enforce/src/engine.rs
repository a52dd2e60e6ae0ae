//! Persistent incremental traffic engine: every phase of a step costs
//! what *churned*, not what is installed.
//!
//! Re-expanding every live tenant's VM pairs, re-partitioning every
//! guarantee and re-routing every pair on every step would spend ~94 % of
//! a paper-scale churn step on redundant rebuilding, while the fluid solve
//! itself takes milliseconds. [`TrafficEngine`] keeps the expensive state
//! across steps:
//!
//! * **Per-tenant flow state.** Each tenant's placement expands once into
//!   routed, bundled flow classes; a tenant is re-expanded only when its
//!   `version` changes (the cluster bumps it on scale/migrate/resize) or
//!   the guarantee model switches. Unchanged tenants cost nothing.
//! * **Closed-form guarantee partition.** In the all-pairs (converged
//!   worst-case) pattern every pair of one TAG edge receives the *same*
//!   floor, so the [`crate::elastic::Enforcer`] max-min split collapses to
//!   one division per edge — computed once per re-expansion and reused
//!   across steps (the cached guarantee partition).
//! * **Flow bundling.** All colocation-free VM pairs of one tenant that
//!   share a TAG edge and a `(src server, dst server)` route are one
//!   aggregate [`FlowSpec`] (floors and weights summed). Weighted max-min
//!   treats `m` identical flows and one `m`-weighted aggregate identically,
//!   so per-pair rates are recovered exactly as `rate / m` — the O(VM²)
//!   flow count collapses to O(server pairs).
//! * **LCA routes.** Server-pair paths are walked through the pair's
//!   lowest common ancestor by [`RouteCache::path`], over one fluid link
//!   per uplink direction — the tree placement reserves on, so floors
//!   admission fitted on an uplink fit on the wire.
//!
//! A tenant can also send on an **explicit pattern**: exactly a given
//! list of `(src VM, dst VM)` pairs, each greedy — the instantaneous
//! patterns of Figs. 13/14 ([`TrafficEngine::upsert_tenant_pairs`]).
//! Demand-aware partitioning has no closed form there: floors come from
//! [`crate::elastic::Enforcer::partition`] under the engine's model,
//! intents from the same call under [`GuaranteeModel::Tag`], and every
//! pair is its own 1×1 bundle or colocated class. Scoring, per-pair output
//! and the solve are the same code for both expansions.
//!
//! The fluid flow set is **persistent**: each bundle is one flow of an
//! [`IncrementalFluid`] across steps, added on (re-)expansion and removed
//! on departure/re-expansion, so a solve re-runs only the connected
//! components churn touched while clean components keep their rates
//! verbatim (see [`crate::incremental`]).
//!
//! ## Scoring is cached too
//!
//! What a report says about the solved rates is kept between steps and
//! refreshed only where the solver says rates moved. Each cache is a pure
//! function of the current flows and rates, recomputed *whole* for what
//! it covers — never a float `+= delta` — so a churned engine and a fresh
//! one hold the same bits:
//!
//! * **Tenant summaries.** Each tenant keeps its [`TenantSummary`]. It is
//!   re-scored when the solver lists the tenant among
//!   [`IncrementalFluid::resolved_keys`] (one of its flows was in a
//!   re-solved component; a tenant not listed kept every rate verbatim)
//!   and initialised at expansion (which is final for a tenant with no
//!   cross-server flow). The report's `tenants` and its totals are one
//!   id-ordered fold over the cached summaries.
//! * **Link usage and work conservation** are the solver's (see
//!   [`crate::incremental`]): usage per link, and the verdict as two
//!   integer counters.
//! * **Level utilisation.** Links are cut into fixed blocks of
//!   256 consecutive ids (`UTIL_BLOCK`); each block keeps, per tree level,
//!   `(Σ util, max, saturated)`. A block is
//!   recomputed when it holds one of
//!   [`IncrementalFluid::changed_links`] (usage or capacity may have
//!   moved; every other block's inputs are unchanged), then all blocks
//!   are folded in order. The association is fixed by the link layout,
//!   not by history.
//!
//! Debug builds recompute all of the above from scratch after every solve
//! and assert bit-equality ([`TrafficEngine::solve`] pays nothing for it
//! in release).
//!
//! Determinism contract: component solves order flows by the canonical
//! `(tenant id, bundle sequence)` key, so an engine that churned through
//! any history produces **bit-identical** rates, floors, intents and
//! verdicts to a fresh engine fed the same final state. The differential
//! tests pin it.

use crate::datacenter::{
    expand_placement, violation_tol, LevelUtilization, PairFlow, TenantSummary, TrafficReport,
};
use crate::elastic::{Enforcer, GuaranteeModel};
use crate::fluid::{FlowSpec, Fluid};
use crate::incremental::IncrementalFluid;
use crate::route::RouteCache;
use cm_core::model::Tag;
use cm_topology::{NodeId, Topology};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Consecutive fluid links per utilisation block (see the
/// [module docs](self)): small enough that a rack-scoped step refreshes a
/// handful of blocks, large enough that folding all of them is ~1k adds
/// per level at 131k servers.
const UTIL_BLOCK: usize = 256;

/// One bundled flow class: every `(src VM, dst VM)` pair of one TAG edge
/// between one ordered server pair. All members share floor, intent, route
/// — and therefore, by symmetry of weighted max-min, the solved rate.
#[derive(Debug, Clone)]
struct Bundle {
    /// First VM index of the sender run (tenant-local, canonical order).
    src: u32,
    /// Sender VMs in the run.
    src_cnt: u32,
    /// First VM index of the receiver run.
    dst: u32,
    /// Receiver VMs in the run.
    dst_cnt: u32,
    /// Per-pair enforced floor (kbps).
    floor: f64,
    /// Per-pair TAG intent (kbps).
    intent: f64,
    /// Stable id of the fluid flow carrying the bundle (the path lives in
    /// the fluid network only) — removed on re-expansion or departure.
    flow: u32,
}

impl Bundle {
    #[inline]
    fn members(&self) -> u32 {
        self.src_cnt * self.dst_cnt
    }
}

/// Pairs absorbed by colocation: both runs on one server; each pair runs
/// at its intent (hypervisor-local, never touches the network).
#[derive(Debug, Clone)]
struct CoClass {
    src: u32,
    src_cnt: u32,
    dst: u32,
    dst_cnt: u32,
    /// Same run on both sides (self-loop edge within one server): the
    /// `src == dst` diagonal is excluded.
    diagonal: bool,
    floor: f64,
    intent: f64,
}

impl CoClass {
    #[inline]
    fn members(&self) -> u32 {
        self.src_cnt * self.dst_cnt - if self.diagonal { self.src_cnt } else { 0 }
    }
}

/// Cached expanded/routed state of one tenant.
#[derive(Debug, Clone)]
struct EngineTenant {
    /// Placement version this expansion reflects.
    version: u64,
    colocated_pairs: usize,
    bundles: Vec<Bundle>,
    colocated: Vec<CoClass>,
    /// The tenant's line of the report: placement-derived fields fixed at
    /// expansion, rate-derived fields as of the last re-score.
    summary: TenantSummary,
}

impl EngineTenant {
    /// Each bundle with its aggregate solved rate, in bundle order.
    fn bundle_rates<'a>(
        &'a self,
        net: &'a IncrementalFluid,
    ) -> impl Iterator<Item = (&'a Bundle, f64)> + 'a {
        self.bundles.iter().map(move |b| (b, net.rate_of(b.flow)))
    }

    /// The tenant's summary scored against the solver's current rates,
    /// recovering per-pair rates as aggregate / members.
    fn scored(&self, net: &IncrementalFluid) -> TenantSummary {
        let mut summary = TenantSummary {
            achieved_kbps: 0.0,
            violations: 0,
            worst_shortfall_kbps: 0.0,
            ..self.summary.clone()
        };
        for (b, aggregate) in self.bundle_rates(net) {
            let m = b.members();
            let per_pair = aggregate / m as f64;
            summary.achieved_kbps += aggregate;
            if per_pair + violation_tol(b.intent) < b.intent {
                summary.violations += m as usize;
                summary.worst_shortfall_kbps =
                    summary.worst_shortfall_kbps.max(b.intent - per_pair);
            }
        }
        summary
    }

    /// Append every VM pair of the tenant with its current rate (the
    /// `solve_detailed` path; O(pairs) by definition).
    fn pair_flows(&self, net: &IncrementalFluid, flows: &mut Vec<PairFlow>) {
        let id = self.summary.id;
        for c in &self.colocated {
            for s in c.src..c.src + c.src_cnt {
                for d in c.dst..c.dst + c.dst_cnt {
                    if c.diagonal && s == d {
                        continue;
                    }
                    flows.push(PairFlow {
                        tenant: id,
                        src: s as usize,
                        dst: d as usize,
                        floor_kbps: c.floor,
                        intent_kbps: c.intent,
                        rate_kbps: c.intent,
                        colocated: true,
                    });
                }
            }
        }
        for (b, aggregate) in self.bundle_rates(net) {
            let per_pair = aggregate / b.members() as f64;
            for s in b.src..b.src + b.src_cnt {
                for d in b.dst..b.dst + b.dst_cnt {
                    flows.push(PairFlow {
                        tenant: id,
                        src: s as usize,
                        dst: d as usize,
                        floor_kbps: b.floor,
                        intent_kbps: b.intent,
                        rate_kbps: per_pair,
                        colocated: false,
                    });
                }
            }
        }
    }
}

/// `(Σ utilisation, max utilisation, links ≥ 99.9 %)` over some links.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct UtilAgg {
    sum: f64,
    max: f64,
    saturated: usize,
}

impl UtilAgg {
    fn add_link(&mut self, util: f64) {
        self.sum += util;
        self.max = self.max.max(util);
        self.saturated += usize::from(util >= 0.999);
    }

    fn add_block(&mut self, block: &UtilAgg) {
        self.sum += block.sum;
        self.max = self.max.max(block.max);
        self.saturated += block.saturated;
    }
}

/// Aggregate block `b`'s links from scratch into `out`, one entry per
/// tree level. A pure function of the block's usages and capacities —
/// production and the debug cross-check both call it, so their
/// association is the same.
fn aggregate_block(route: &RouteCache, fluid: &Fluid, used: &[f64], b: usize, out: &mut [UtilAgg]) {
    out.fill(UtilAgg::default());
    for l in b * UTIL_BLOCK..((b + 1) * UTIL_BLOCK).min(used.len()) {
        let cap = fluid.link_cap(l);
        let util = if cap > 0.0 { used[l] / cap } else { 0.0 };
        out[route.link_level(l) as usize].add_link(util);
    }
}

/// The persistent incremental engine (see the [module docs](self)).
#[derive(Debug)]
pub struct TrafficEngine {
    model: GuaranteeModel,
    route: RouteCache,
    net: IncrementalFluid,
    num_levels: usize,
    /// Ascending-id order gives every report a canonical tenant order.
    tenants: BTreeMap<u64, EngineTenant>,
    /// Expansion seconds accumulated by `upsert_tenant` since the last
    /// solve (the dirty-set work of the step).
    pending_expand: f64,
    /// Tenants expanded since the last solve with no cross-server flow:
    /// scored at expansion, so the solver will never list them.
    pending_flowless: usize,
    /// Links per tree level: static, and its length is the stride of
    /// `util_blocks`.
    util_links: Vec<usize>,
    /// Per-block utilisation aggregates, block-major, one entry per level.
    util_blocks: Vec<UtilAgg>,
    /// Pooled list of the blocks a step recomputes.
    stale_blocks: Vec<u32>,
}

impl TrafficEngine {
    /// Create an engine over `topo` — the same `Topology` must be passed
    /// to every later call — with the given enforcement model.
    pub fn new(topo: &Topology, model: GuaranteeModel) -> Self {
        let mut net = Fluid::new();
        let route = RouteCache::build(topo, &mut net);
        let num_levels = topo.num_levels();
        // Every level but the root's owns uplinks.
        let mut util_links = vec![0usize; num_levels - 1];
        for l in 0..net.num_links() {
            util_links[route.link_level(l) as usize] += 1;
        }
        // An idle network aggregates to all-zero blocks.
        let blocks = net.num_links().div_ceil(UTIL_BLOCK);
        TrafficEngine {
            model,
            route,
            net: IncrementalFluid::new(net),
            num_levels,
            tenants: BTreeMap::new(),
            pending_expand: 0.0,
            pending_flowless: 0,
            util_blocks: vec![UtilAgg::default(); blocks * util_links.len()],
            util_links,
            stale_blocks: Vec::new(),
        }
    }

    /// The engine's persistent fluid network — current flow set and
    /// last-solve rates, exposed for differential tests against a
    /// from-scratch global [`crate::fluid::Fluid::rates`] solve.
    pub fn network(&self) -> &IncrementalFluid {
        &self.net
    }

    /// The enforcement model floors are derived under.
    pub fn model(&self) -> GuaranteeModel {
        self.model
    }

    /// Switch the enforcement model. Floors are placement-dependent state,
    /// so every cached tenant is dropped; the next sync re-expands them
    /// (their versions read as unknown).
    pub fn set_model(&mut self, model: GuaranteeModel) {
        if model != self.model {
            self.model = model;
            self.tenants.clear();
            self.net.clear_flows();
            // Every usage is zero again: so is every block.
            self.util_blocks.fill(UtilAgg::default());
        }
    }

    /// Re-read every uplink capacity from `topo` into the fluid layout —
    /// the fault-injection hook. A degraded (or restored) uplink updates
    /// its two fluid links, dirtying exactly the components whose flows
    /// cross them; everything else keeps its rates. Returns how many fluid
    /// links changed capacity.
    ///
    /// Flows of VMs *lost* to a fault are dropped separately, by the
    /// version-diffed re-expansion (`upsert_tenant`) after the evacuation
    /// shrank the placement.
    pub fn sync_link_caps(&mut self, topo: &Topology) -> usize {
        let mut changed = 0;
        for idx in 0..topo.num_nodes() {
            let n = NodeId(idx as u32);
            let Some((cap_up, cap_dn)) = topo.uplink_capacity(n) else {
                continue;
            };
            let Some((up, dn)) = self.route.links_of(n) else {
                continue;
            };
            changed += usize::from(self.net.set_link_cap(up, cap_up as f64));
            changed += usize::from(self.net.set_link_cap(dn, cap_dn as f64));
        }
        changed
    }

    /// The placement version tenant `id` was last expanded at, if cached.
    pub fn version_of(&self, id: u64) -> Option<u64> {
        self.tenants.get(&id).map(|t| t.version)
    }

    /// Every cached tenant as `(id, placement version)`, ascending by id —
    /// what a caller holding its own id-ordered registry merges against to
    /// find departures and stale expansions in one pass.
    pub fn versions(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.tenants.iter().map(|(&id, t)| (id, t.version))
    }

    /// Drop every cached tenant `keep` rejects (departures), removing
    /// their fluid flows — which dirties exactly the components those
    /// flows crossed.
    pub fn retain_tenants(&mut self, mut keep: impl FnMut(u64) -> bool) {
        let net = &mut self.net;
        self.tenants.retain(|&id, t| {
            let k = keep(id);
            if !k {
                for b in &t.bundles {
                    net.remove_flow(b.flow);
                }
            }
            k
        });
    }

    /// Expand (or re-expand) tenant `id` at placement `placement` (the
    /// `(server, VMs per tier)` shape `Deployed::placement` returns, in
    /// ascending server order — the canonical VM indexing of
    /// [`crate::datacenter::expand_placement`]). No-op if the cached
    /// version already matches.
    pub fn upsert_tenant(
        &mut self,
        topo: &Topology,
        id: u64,
        version: u64,
        tag: &Arc<Tag>,
        placement: &[(NodeId, Vec<u32>)],
    ) {
        if self.tenants.get(&id).is_some_and(|t| t.version == version) {
            return;
        }
        self.expand(topo, id, version, tag, placement, None);
    }

    /// [`TrafficEngine::upsert_tenant`] on an explicit communication
    /// pattern: exactly the `(src VM, dst VM)` pairs of `pairs` are active,
    /// each greedy (see the [module docs](self)); a repeated pair is a
    /// separate flow. The tenant is always re-expanded, as the version
    /// does not identify a pattern, and is cached under `version` like any
    /// other: a later `upsert_tenant` at that version keeps the pattern.
    ///
    /// # Panics
    /// Panics if a pair indexes past the placement's VMs or names one VM
    /// twice (the cluster layer validates patterns before calling).
    pub fn upsert_tenant_pairs(
        &mut self,
        topo: &Topology,
        id: u64,
        version: u64,
        tag: &Arc<Tag>,
        placement: &[(NodeId, Vec<u32>)],
        pairs: &[(usize, usize)],
    ) {
        self.expand(topo, id, version, tag, placement, Some(pairs));
    }

    /// Replace tenant `id`'s cached expansion: on `pairs`, or on every
    /// TAG-edge-connected pair if `None`. Timed as the step's expansion.
    fn expand(
        &mut self,
        topo: &Topology,
        id: u64,
        version: u64,
        tag: &Arc<Tag>,
        placement: &[(NodeId, Vec<u32>)],
        pairs: Option<&[(usize, usize)]>,
    ) {
        let t = Instant::now();
        if let Some(old) = self.tenants.remove(&id) {
            for b in &old.bundles {
                self.net.remove_flow(b.flow);
            }
        }
        let vms = placement
            .iter()
            .map(|(_, c)| c.iter().sum::<u32>() as usize)
            .sum();
        let mut x = Expansion {
            model: self.model,
            topo,
            route: &self.route,
            net: &mut self.net,
            tenant: EngineTenant {
                version,
                colocated_pairs: 0,
                bundles: Vec::new(),
                colocated: Vec::new(),
                summary: TenantSummary {
                    id,
                    vms,
                    pairs: 0,
                    cross_pairs: 0,
                    intent_kbps: 0.0,
                    achieved_kbps: 0.0,
                    violations: 0,
                    worst_shortfall_kbps: 0.0,
                },
            },
        };
        match pairs {
            None => expand_all_pairs(&mut x, tag, placement),
            Some(pairs) => expand_pairs(&mut x, tag, placement, pairs),
        }
        let expanded = x.tenant;
        self.pending_flowless += usize::from(expanded.bundles.is_empty());
        self.tenants.insert(id, expanded);
        self.pending_expand += t.elapsed().as_secs_f64();
    }

    /// Solve the current state: summary-only (`flows` empty) — the hot
    /// churn-step path.
    pub fn solve(&mut self, topo: &Topology) -> TrafficReport {
        self.solve_inner(topo, false)
    }

    /// Solve and materialize every per-pair [`PairFlow`] (the
    /// `traffic_report` path; O(VM pairs) to write out).
    pub fn solve_detailed(&mut self, topo: &Topology) -> TrafficReport {
        self.solve_inner(topo, true)
    }

    fn solve_inner(&mut self, topo: &Topology, detailed: bool) -> TrafficReport {
        debug_assert_eq!(topo.num_levels(), self.num_levels);
        let expand_secs = self.pending_expand;
        self.pending_expand = 0.0;

        // The fluid flow set is persistent (maintained by
        // `upsert_tenant`/`retain_tenants`); nothing to rebuild here.
        let fluid_flows = self.net.num_flows();
        let route_secs = 0.0;

        let t_solve = Instant::now();
        let stats = self.net.solve();
        let solve_secs = t_solve.elapsed().as_secs_f64();

        // Score phase: refresh exactly the caches the solve invalidated —
        // the summaries of tenants with a re-solved flow, the utilisation
        // blocks holding a changed link — then fold the caches in order.
        let t_score = Instant::now();
        for id in self.net.resolved_keys() {
            if let Some(tenant) = self.tenants.get_mut(id) {
                tenant.summary = tenant.scored(&self.net);
            }
        }
        let tenants_rescored = self.net.resolved_keys().len() + self.pending_flowless;
        self.pending_flowless = 0;
        let stride = self.util_links.len();
        self.stale_blocks.clear();
        self.stale_blocks.extend(
            self.net
                .changed_links()
                .iter()
                .map(|&l| l / UTIL_BLOCK as u32),
        );
        self.stale_blocks.sort_unstable();
        self.stale_blocks.dedup();
        for &b in &self.stale_blocks {
            let b = b as usize;
            let out = &mut self.util_blocks[b * stride..(b + 1) * stride];
            aggregate_block(&self.route, self.net.fluid(), self.net.link_usage(), b, out);
        }

        let mut summaries = Vec::with_capacity(self.tenants.len());
        let mut flows: Vec<PairFlow> = Vec::new();
        let mut cross_flows = 0usize;
        let mut colocated_flows = 0usize;
        let mut total_rate_kbps = 0.0;
        let mut violations = 0usize;
        for tenant in self.tenants.values() {
            cross_flows += tenant.summary.cross_pairs;
            colocated_flows += tenant.colocated_pairs;
            total_rate_kbps += tenant.summary.achieved_kbps;
            violations += tenant.summary.violations;
            summaries.push(tenant.summary.clone());
            if detailed {
                tenant.pair_flows(&self.net, &mut flows);
            }
        }

        // Link utilization per tree level.
        let mut totals = vec![UtilAgg::default(); stride];
        for block in self.util_blocks.chunks_exact(stride) {
            for (total, agg) in totals.iter_mut().zip(block) {
                total.add_block(agg);
            }
        }
        let levels: Vec<LevelUtilization> = totals
            .iter()
            .zip(&self.util_links)
            .enumerate()
            .map(|(level, (total, &links))| LevelUtilization {
                level,
                links,
                mean_utilization: if links > 0 {
                    total.sum / links as f64
                } else {
                    0.0
                },
                max_utilization: total.max,
                saturated: total.saturated,
            })
            .collect();
        let score_secs = t_score.elapsed().as_secs_f64();

        #[cfg(debug_assertions)]
        self.assert_caches_exact();

        TrafficReport {
            tenants: summaries,
            flows,
            levels,
            cross_flows,
            colocated_flows,
            total_rate_kbps,
            work_conserving: self.net.is_work_conserving(),
            violations,
            fluid_flows,
            build_secs: expand_secs + route_secs,
            expand_secs,
            route_secs,
            solve_secs,
            solve_warm_secs: 0.0,
            components_dirty: stats.components_dirty,
            components_total: stats.components_total,
            tenants_rescored,
            links_rescored: self.net.changed_links().len(),
            ecmp_max_utilization: 0.0,
            ecmp_mean_utilization: 0.0,
            score_secs,
        }
    }

    /// Recompute from scratch everything scoring caches — the solver's
    /// usage, flags and components, every tenant summary, every
    /// utilisation block — and assert bit-equality with the cached state.
    /// Debug builds run it after every solve, which makes every debug test
    /// that steps an engine a differential test of the caches.
    #[cfg(debug_assertions)]
    fn assert_caches_exact(&self) {
        self.net.assert_caches_exact();
        for (id, tenant) in &self.tenants {
            let (want, got) = (tenant.scored(&self.net), &tenant.summary);
            assert_eq!(want.violations, got.violations, "tenant {id} violations");
            assert_eq!(
                (
                    want.achieved_kbps.to_bits(),
                    want.worst_shortfall_kbps.to_bits()
                ),
                (
                    got.achieved_kbps.to_bits(),
                    got.worst_shortfall_kbps.to_bits()
                ),
                "tenant {id} summary"
            );
        }
        let stride = self.util_links.len();
        let mut want = vec![UtilAgg::default(); stride];
        for (b, got) in self.util_blocks.chunks_exact(stride).enumerate() {
            aggregate_block(
                &self.route,
                self.net.fluid(),
                self.net.link_usage(),
                b,
                &mut want,
            );
            for (w, g) in want.iter().zip(got) {
                assert_eq!(
                    (w.sum.to_bits(), w.max.to_bits(), w.saturated),
                    (g.sum.to_bits(), g.max.to_bits(), g.saturated),
                    "utilisation block {b}"
                );
            }
        }
    }
}

/// The closed-form all-pairs guarantee split: `Enforcer::partition` on a
/// group of `cnt` greedy (infinite-demand) peers performs exactly one
/// max-min round handing each `g / cnt` — unless `g` is below the split's
/// activation epsilon, in which case every share stays zero. Replicated
/// bit-exactly (same single IEEE division, same `1e-9` gate).
#[inline]
fn even_share(g: f64, cnt: u32) -> f64 {
    if cnt > 0 && g > 1e-9 {
        g / cnt as f64
    } else {
        0.0
    }
}

/// One tenant's expansion in progress: the tenant's new cached state plus
/// what routing its bundles into the fluid network needs.
struct Expansion<'a> {
    model: GuaranteeModel,
    topo: &'a Topology,
    route: &'a RouteCache,
    net: &'a mut IncrementalFluid,
    tenant: EngineTenant,
}

impl Expansion<'_> {
    /// Record a colocated class (dropped if it has no member pair).
    fn colocated(&mut self, co: CoClass) {
        let m = co.members() as usize;
        self.tenant.summary.pairs += m;
        self.tenant.colocated_pairs += m;
        if m > 0 {
            self.tenant.colocated.push(co);
        }
    }

    /// Route the bundle of every pair of the sender run `src` on server
    /// `servers.0` and the receiver run `dst` on server `servers.1` (runs
    /// are `(first VM, count)`) and add it as one fluid flow of aggregate
    /// floor and weight, under the canonical `(tenant, sequence)` key the
    /// component solver orders by. The routed path is built once and moved
    /// into its [`FlowSpec`].
    fn bundle(
        &mut self,
        servers: (NodeId, NodeId),
        src: (u32, u32),
        dst: (u32, u32),
        floor: f64,
        intent: f64,
    ) {
        let members = src.1 * dst.1;
        let m = members as f64;
        let w = if floor > 0.0 { floor } else { 1.0 };
        let mut spec = FlowSpec::greedy(self.route.path(self.topo, servers.0, servers.1));
        spec.floor = m * floor;
        spec.weight = m * w;
        let t = &mut self.tenant;
        let seq = t.bundles.len() as u32;
        t.bundles.push(Bundle {
            src: src.0,
            src_cnt: src.1,
            dst: dst.0,
            dst_cnt: dst.1,
            floor,
            intent,
            flow: self.net.add_flow(spec, (t.summary.id, seq)),
        });
        t.summary.pairs += members as usize;
        t.summary.cross_pairs += members as usize;
        t.summary.intent_kbps += intent * m;
    }
}

/// Expand one tenant's placement on every TAG-edge-connected pair into
/// bundled flow classes with closed-form class floors (see the
/// [module docs](self)).
fn expand_all_pairs(x: &mut Expansion<'_>, tag: &Tag, placement: &[(NodeId, Vec<u32>)]) {
    let nt = tag.num_tiers();
    let edges = tag.edges();

    // Placed VMs per tier, and each placement entry's per-tier VM index
    // runs under the canonical server-major, tier-major indexing.
    let mut n = vec![0u32; nt];
    let mut runs: Vec<(NodeId, Vec<(u32, u32)>)> = Vec::with_capacity(placement.len());
    let mut idx = 0u32;
    for (server, counts) in placement {
        debug_assert_eq!(counts.len(), nt);
        let mut per_tier = Vec::with_capacity(nt);
        for (t, &c) in counts.iter().enumerate() {
            n[t] += c;
            per_tier.push((idx, c));
            idx += c;
        }
        runs.push((*server, per_tier));
    }

    // Closed-form class floors per directed TAG edge. Intents are the
    // Tag-model partition under either model; floors follow the
    // enforcement model.
    let peer_cnt = |e: &cm_core::model::TagEdge| {
        let excl = u32::from(e.is_self_loop());
        let snd_peers = n[e.to.index()].saturating_sub(excl); // dsts per src
        let rcv_peers = n[e.from.index()].saturating_sub(excl); // srcs per dst
        (snd_peers, rcv_peers)
    };
    let mut intents = Vec::with_capacity(edges.len());
    for e in edges {
        let (snd_peers, rcv_peers) = peer_cnt(e);
        intents.push(
            even_share(e.snd_kbps as f64, snd_peers).min(even_share(e.rcv_kbps as f64, rcv_peers)),
        );
    }
    let floors: Vec<f64> = match x.model {
        GuaranteeModel::Tag => intents.clone(),
        GuaranteeModel::Hose => {
            // Under plain hose semantics a VM's single send (receive) hose
            // splits over its edge-connected peers across ALL edges.
            let mut snd_peers_of = vec![0u32; nt];
            let mut rcv_peers_of = vec![0u32; nt];
            for e in edges {
                let (snd_peers, rcv_peers) = peer_cnt(e);
                snd_peers_of[e.from.index()] += snd_peers;
                rcv_peers_of[e.to.index()] += rcv_peers;
            }
            edges
                .iter()
                .map(|e| {
                    let u = e.from;
                    let v = e.to;
                    even_share(tag.per_vm_snd(u) as f64, snd_peers_of[u.index()]).min(even_share(
                        tag.per_vm_rcv(v) as f64,
                        rcv_peers_of[v.index()],
                    ))
                })
                .collect()
        }
    };

    for (ei, e) in edges.iter().enumerate() {
        let (u, v) = (e.from.index(), e.to.index());
        if n[u] == 0 || n[v] == 0 {
            continue;
        }
        let (floor, intent) = (floors[ei], intents[ei]);
        for (src_server, src_tiers) in &runs {
            let (src_server, (src, src_cnt)) = (*src_server, src_tiers[u]);
            if src_cnt == 0 {
                continue;
            }
            for (dst_server, dst_tiers) in &runs {
                let (dst_server, (dst, dst_cnt)) = (*dst_server, dst_tiers[v]);
                if dst_cnt == 0 {
                    continue;
                }
                if src_server == dst_server {
                    x.colocated(CoClass {
                        src,
                        src_cnt,
                        dst,
                        dst_cnt,
                        diagonal: u == v,
                        floor,
                        intent,
                    });
                } else {
                    x.bundle(
                        (src_server, dst_server),
                        (src, src_cnt),
                        (dst, dst_cnt),
                        floor,
                        intent,
                    );
                }
            }
        }
    }
}

/// Expand one tenant's placement on the explicit pattern `pairs`: floors
/// and intents from [`Enforcer::partition`] over the pair list, one 1×1
/// bundle per cross-server pair and one colocated class per colocated
/// pair, in pattern order (see the [module docs](self)).
fn expand_pairs(
    x: &mut Expansion<'_>,
    tag: &Arc<Tag>,
    placement: &[(NodeId, Vec<u32>)],
    pairs: &[(usize, usize)],
) {
    let (vm_tier, vm_server) = expand_placement(placement);
    assert!(
        pairs
            .iter()
            .all(|&(s, d)| s < vm_tier.len() && d < vm_tier.len() && s != d),
        "pattern names a VM outside the placement or a self-pair"
    );
    let greedy: Vec<(usize, usize, f64)> =
        pairs.iter().map(|&(s, d)| (s, d, f64::INFINITY)).collect();
    let partition =
        |model| Enforcer::new_shared(Arc::clone(tag), vm_tier.clone(), model).partition(&greedy);
    let floors = partition(x.model);
    // Under the Tag model the floors already are the intents.
    let intents = (x.model != GuaranteeModel::Tag).then(|| partition(GuaranteeModel::Tag));
    for (i, &(s, d)) in pairs.iter().enumerate() {
        let floor = floors[i].kbps;
        let intent = intents.as_ref().map_or(floor, |v| v[i].kbps);
        if vm_server[s] == vm_server[d] {
            x.colocated(CoClass {
                src: s as u32,
                src_cnt: 1,
                dst: d as u32,
                dst_cnt: 1,
                diagonal: false,
                floor,
                intent,
            });
        } else {
            let servers = (vm_server[s], vm_server[d]);
            x.bundle(servers, (s as u32, 1), (d as u32, 1), floor, intent);
        }
    }
}

/// Test fixtures shared with the engine's differential tests against the
/// batch reference (`tests/engine_differential.rs`).
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::common::{assert_report_close, random_placement, random_tag, topo, Rng};
    use super::*;
    use cm_core::model::TagBuilder;
    use cm_topology::mbps;

    /// The closed-form class floors must equal `Enforcer::partition`
    /// bit-exactly, for both models, across random TAGs and placements.
    #[test]
    fn closed_form_floors_match_enforcer_partition_exactly() {
        let topo = topo();
        let servers = topo.servers();
        let mut rng = Rng(0xC0FFEE);
        for _ in 0..60 {
            let tag = random_tag(&mut rng);
            let placement = random_placement(&mut rng, &tag, servers);
            for model in [GuaranteeModel::Tag, GuaranteeModel::Hose] {
                let mut engine = TrafficEngine::new(&topo, model);
                engine.upsert_tenant(&topo, 1, 1, &tag, &placement);
                let report = engine.solve_detailed(&topo);

                let (vm_tier, _) = expand_placement(&placement);
                let enforcer = Enforcer::new_shared(Arc::clone(&tag), vm_tier.clone(), model);
                let pairs: Vec<(usize, usize, f64)> = {
                    // Reconstruct the all-pairs list the enforcer sees.
                    let mut by_tier: Vec<Vec<usize>> = vec![Vec::new(); tag.num_tiers()];
                    for (i, &t) in vm_tier.iter().enumerate() {
                        by_tier[t.index()].push(i);
                    }
                    let mut out = Vec::new();
                    for e in tag.edges() {
                        for &s in &by_tier[e.from.index()] {
                            for &d in &by_tier[e.to.index()] {
                                if s != d {
                                    out.push((s, d, f64::INFINITY));
                                }
                            }
                        }
                    }
                    out
                };
                let reference = enforcer.partition(&pairs);
                assert_eq!(report.flows.len(), pairs.len());
                for g in &reference {
                    let f = report
                        .pair(1, g.src, g.dst)
                        .unwrap_or_else(|| panic!("engine missing pair ({}, {})", g.src, g.dst));
                    assert_eq!(
                        f.floor_kbps.to_bits(),
                        g.kbps.to_bits(),
                        "floor mismatch for ({}, {}): engine {} vs enforcer {}",
                        g.src,
                        g.dst,
                        f.floor_kbps,
                        g.kbps
                    );
                }
            }
        }
    }

    /// Incremental re-expansion under churn, compared against a fresh
    /// engine fed the final state: the component solves are canonical, so
    /// rates, floors and totals must be **bit-identical**.
    #[test]
    fn churned_engine_is_bit_equal_to_fresh_engine() {
        let topo = topo();
        let servers = topo.servers();
        let mut rng = Rng(7);
        let mut engine = TrafficEngine::new(&topo, GuaranteeModel::Tag);
        type Entry = (u64, Arc<Tag>, Vec<(NodeId, Vec<u32>)>);
        let mut state: BTreeMap<u64, Entry> = BTreeMap::new();
        for step in 0..40 {
            let id = rng.next(6);
            if state.contains_key(&id) && rng.next(3) == 0 {
                state.remove(&id);
            } else {
                let tag = random_tag(&mut rng);
                let placement = random_placement(&mut rng, &tag, servers);
                let version = step as u64 + 1;
                state.insert(id, (version, Arc::clone(&tag), placement));
            }
            engine.retain_tenants(|id| state.contains_key(&id));
            for (&id, (version, tag, placement)) in &state {
                engine.upsert_tenant(&topo, id, *version, tag, placement);
            }
            let got = engine.solve_detailed(&topo);

            let mut fresh = TrafficEngine::new(&topo, GuaranteeModel::Tag);
            for (&id, (version, tag, placement)) in &state {
                fresh.upsert_tenant(&topo, id, *version, tag, placement);
            }
            let want = fresh.solve_detailed(&topo);
            assert_eq!(got.flows.len(), want.flows.len(), "step {step}");
            for (a, b) in got.flows.iter().zip(&want.flows) {
                assert_eq!(a.tenant, b.tenant);
                assert_eq!((a.src, a.dst), (b.src, b.dst));
                assert_eq!(a.rate_kbps.to_bits(), b.rate_kbps.to_bits(), "step {step}");
                assert_eq!(a.floor_kbps.to_bits(), b.floor_kbps.to_bits());
            }
            assert_eq!(got.violations, want.violations, "step {step}");
            assert_eq!(got.work_conserving, want.work_conserving, "step {step}");
            assert_eq!(
                got.total_rate_kbps.to_bits(),
                want.total_rate_kbps.to_bits()
            );
        }
    }

    /// Capacity sync after a fault: an engine that degrades links in
    /// place (dirtying only the touched components) matches a fresh
    /// engine built over the degraded topology, and restoring the links
    /// returns the original rates.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "degrades and restores uplinks directly to test the engine's capacity sync"
    )]
    fn sync_link_caps_matches_fresh_engine_on_degraded_topology() {
        let mut topo = topo();
        let servers = topo.servers();
        let mut rng = Rng(0xFA17);
        let mut engine = TrafficEngine::new(&topo, GuaranteeModel::Tag);
        let mut state = Vec::new();
        for id in 0..4u64 {
            let tag = random_tag(&mut rng);
            let placement = random_placement(&mut rng, &tag, servers);
            engine.upsert_tenant(&topo, id, 1, &tag, &placement);
            state.push((id, tag, placement));
        }
        // Plus one deterministic cross-rack pair pinned through the first
        // rack's uplink, so the kill below provably strands traffic.
        let mut b = TagBuilder::new("canary");
        let a = b.tier("a", 1);
        let z = b.tier("z", 1);
        b.edge(a, z, mbps(100.0), mbps(100.0)).unwrap();
        let canary = Arc::new(b.build().unwrap());
        let canary_placement = vec![(servers[0], vec![1, 0]), (servers[2], vec![0, 1])];
        engine.upsert_tenant(&topo, 9, 1, &canary, &canary_placement);
        state.push((9, canary, canary_placement));
        let healthy = engine.solve_detailed(&topo);
        let canary_before = healthy.tenants.iter().find(|t| t.id == 9).unwrap();
        assert_eq!(canary_before.violations, 0);
        assert!(canary_before.achieved_kbps > 0.0);

        // Kill one rack uplink and halve another: the live engine syncs in
        // place; the reference engine is built over the degraded tree.
        let tors: Vec<NodeId> = (0..topo.num_nodes() as u32)
            .map(NodeId)
            .filter(|&n| topo.level(n) == 1)
            .collect();
        topo.degrade_link(tors[0], 0.0).unwrap();
        topo.degrade_link(tors[2], 0.5).unwrap();
        let changed = engine.sync_link_caps(&topo);
        assert!(changed > 0, "two degraded uplinks must change fluid caps");
        let got = engine.solve_detailed(&topo);
        let mut fresh = TrafficEngine::new(&topo, GuaranteeModel::Tag);
        for (id, tag, placement) in &state {
            fresh.upsert_tenant(&topo, *id, 1, tag, placement);
        }
        let want = fresh.solve_detailed(&topo);
        assert_report_close(&got, &want, "degraded");
        // The canary straddles the dead uplink: its traffic is provably
        // stranded, and the solve must measure that as a violation.
        let canary_after = got.tenants.iter().find(|t| t.id == 9).unwrap();
        assert!(canary_after.violations > 0, "dead rack violates the canary");
        assert!(
            canary_after.achieved_kbps < 1e-6,
            "no path around a tree link"
        );
        assert!(got.violations > healthy.violations, "dead rack violates");

        // Restore: back to the healthy rates (same solver state shape).
        topo.restore_link(tors[0]).unwrap();
        topo.restore_link(tors[2]).unwrap();
        assert!(engine.sync_link_caps(&topo) > 0);
        let back = engine.solve_detailed(&topo);
        assert_report_close(&back, &healthy, "restored");
        // And a no-op sync touches nothing.
        assert_eq!(engine.sync_link_caps(&topo), 0);
    }
}
