//! Incremental, component-scoped fluid solver: every per-step cost is
//! proportional to the *churned* part of the network, not the whole of it.
//!
//! Weighted max-min fairness decomposes exactly over the connected
//! components of the flow/link graph: a component's allocation depends
//! only on its own flows and links, never on the rest of the network.
//! [`IncrementalFluid`] exploits that in three respects:
//!
//! * **Dirty region by traversal.** Every link on the path of a flow added
//!   or removed since the last solve, and every link whose capacity
//!   changed, is *touched*. From each touched link that still carries a
//!   flow the solve walks link → flows → path links; what it reaches is
//!   exactly one current connected component, and the union of the walks
//!   is exactly the set of components whose subproblem changed: a removed
//!   flow touches every link it crossed, so every remnant of a component
//!   the removal split contains a touched link, and a component with no
//!   touched link faced the identical subproblem last step. Nothing
//!   outside the walks is read.
//! * **Dirty-set solving.** Only the walked components are re-solved;
//!   every other component keeps its previous rates **verbatim**.
//! * **Localized rounds.** Even an all-dirty step is far cheaper than one
//!   global [`Fluid::rates`] call: each progressive-filling round scans
//!   only the component's links instead of every link in the network, so
//!   total cost is `Σ_c rounds_c × links_c` instead of
//!   `rounds_total × links_total` — orders of magnitude less on a fat-tree
//!   where placement keeps tenants in rack/pod-scoped components.
//!
//! ## What is cached, and why each cache is exact
//!
//! Beside the rates the solver keeps, per link, the **usage** (Σ rate of
//! the link's flows), an **over-capacity** flag and a **component label**
//! (the lowest link of the link's component); per flow, a **starved** flag
//! (below demand with no saturated link on its path); and three integers:
//! links over capacity, flows starved, and the number of components.
//! Every one of them is a *pure function of the
//! current flow set and capacities, recomputed whole* for the links and
//! flows of each component the step re-solved (and reset for a touched
//! link left without flows) — never adjusted by a float delta. A clean
//! component's flows, rates and capacities did not change, so neither did
//! anything derived from them; the counters move only by the exact integer
//! difference of the flags that were rewritten. Usage is summed in the
//! canonical flow order below, so it too is independent of churn history.
//! [`IncrementalFluid::is_work_conserving`] is therefore two integer
//! comparisons, and the component count is
//! `old − (old components the walks and the emptied links covered) +
//! (components walked)`. Debug builds re-derive all of it from scratch
//! after every engine solve and assert bit-equality.
//!
//! ## Determinism
//!
//! Every dirty component is solved by the one max-min kernel the global
//! [`Fluid::rates`] uses (`Fluid::fill`, see [`crate::fluid`]), handed the
//! component's flows ordered by a caller-supplied `(tenant, sequence)` key
//! and its links ascending. The allocation is therefore a pure function
//! of the surviving flow set: a solver that churned through any history
//! holds **bit-identical** rates, usage and verdicts to a fresh one fed
//! the same final state. All solver scratch — rate vectors, per-link
//! indexes, freeze queues, the traversal's stamp maps — is pooled across
//! steps and never cleared wholesale.

use crate::fluid::{tol, FillScratch, FlowSpec, Fluid};

/// Component label of a link no flow crosses.
const NO_COMPONENT: u32 = u32::MAX;

/// What one [`IncrementalFluid::solve`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Components re-solved this step.
    pub components_dirty: usize,
    /// Connected components among links carrying at least one flow.
    pub components_total: usize,
}

/// A [`Fluid`] network solved component-by-component under churn (see the
/// [module docs](self)). Flows are addressed by **stable ids** that
/// survive the underlying network's swap-removals.
#[derive(Debug)]
pub struct IncrementalFluid {
    net: Fluid,
    /// Stable id → dense flow index (`u32::MAX` when free).
    slots: Vec<u32>,
    /// Free stable ids available for reuse.
    free: Vec<u32>,
    /// Dense flow index → stable id.
    slot_of: Vec<u32>,
    /// Dense flow index → canonical sort key (tenant id, sequence).
    keys: Vec<(u64, u32)>,
    /// Dense flow index → last solved rate.
    rates: Vec<f64>,
    /// Dense flow index → at the last solve the flow sat below its demand
    /// with no saturated link on its path.
    starved: Vec<bool>,
    /// Flows with `starved` set.
    flows_starved: usize,
    /// Links on the path of a flow added/removed, or re-capped, since the
    /// last solve.
    touched: Vec<bool>,
    touched_links: Vec<u32>,
    /// Per-link Σ rate of the link's flows, in canonical key order (0.0
    /// for a link no flow crosses).
    used: Vec<f64>,
    /// Per-link "usage exceeds capacity beyond tolerance".
    over: Vec<bool>,
    /// Links with `over` set.
    links_over: usize,
    /// Per-link lowest link of the link's component (`NO_COMPONENT` for a
    /// link no flow crosses).
    label: Vec<u32>,
    /// Connected components among links carrying at least one flow.
    components: usize,
    /// Links whose usage or capacity the last solve may have changed: each
    /// re-solved component's links as one ascending slice, and between the
    /// slices the touched links found without flows.
    changed_links: Vec<u32>,
    /// Ascending distinct first key components of the flows the last
    /// solve re-solved.
    resolved_keys: Vec<u64>,
    scratch: Scratch,
}

/// One dirty component: its slice of `changed_links` and of the
/// traversal's flow arena.
#[derive(Debug, Clone, Copy)]
struct Comp {
    /// Lowest link of the component (its label and its sort key).
    lowest: u32,
    links: (u32, u32),
    flows: (u32, u32),
}

/// Pooled solver scratch, reused across steps and components.
#[derive(Debug, Default)]
struct Scratch {
    /// Monotone stamp for the epoch-stamped maps below; stale entries are
    /// strictly below it, so the maps are never cleared.
    stamp: u64,
    /// Link → stamp of the solve whose traversal reached it.
    link_seen: Vec<u64>,
    /// Dense flow index → stamp of the solve whose traversal reached it.
    flow_seen: Vec<u64>,
    /// Flows of every dirty component (dense indices, traversal order).
    dirty_flows: Vec<u32>,
    /// The dirty components, ascending by lowest link.
    comps: Vec<Comp>,
    /// The component's flows (dense indices, canonical order).
    comp_flows: Vec<u32>,
    /// Component link (position in its `changed_links` slice) → saturated
    /// after the solve.
    lsat: Vec<bool>,
    /// The kernel's scratch: rates and the per-link index of the component
    /// just solved.
    fill: FillScratch,
}

/// Rewrite a cached flag, moving its counter by the exact difference.
#[inline]
fn set_flag(flag: &mut bool, count: &mut usize, on: bool) {
    if *flag != on {
        if on {
            *count += 1;
        } else {
            *count -= 1;
        }
        *flag = on;
    }
}

impl IncrementalFluid {
    /// Wrap a network whose links are laid out but which carries no flows
    /// yet (the [`crate::route::RouteCache::build`] contract).
    pub fn new(net: Fluid) -> Self {
        assert_eq!(net.num_flows(), 0, "wrap an empty network");
        let nl = net.num_links();
        IncrementalFluid {
            net,
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: Vec::new(),
            keys: Vec::new(),
            rates: Vec::new(),
            starved: Vec::new(),
            flows_starved: 0,
            touched: vec![false; nl],
            touched_links: Vec::new(),
            used: vec![0.0; nl],
            over: vec![false; nl],
            links_over: 0,
            label: vec![NO_COMPONENT; nl],
            components: 0,
            changed_links: Vec::new(),
            resolved_keys: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// The wrapped network (flows in dense order, aligned with
    /// [`IncrementalFluid::rates`]).
    pub fn fluid(&self) -> &Fluid {
        &self.net
    }

    /// Number of live flows.
    pub fn num_flows(&self) -> usize {
        self.net.num_flows()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.net.num_links()
    }

    fn touch(&mut self, l: usize) {
        if !self.touched[l] {
            self.touched[l] = true;
            self.touched_links.push(l as u32);
        }
    }

    /// Add a flow under a canonical `(tenant, sequence)` ordering key;
    /// returns a stable id valid until `remove_flow`/`clear_flows`.
    pub fn add_flow(&mut self, spec: FlowSpec, key: (u64, u32)) -> u32 {
        for k in 0..spec.path.len() {
            self.touch(spec.path[k]);
        }
        let dense = self.net.flow(spec) as u32;
        debug_assert_eq!(dense as usize, self.slot_of.len());
        let stable = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = dense;
                s
            }
            None => {
                self.slots.push(dense);
                (self.slots.len() - 1) as u32
            }
        };
        self.slot_of.push(stable);
        self.keys.push(key);
        self.rates.push(0.0);
        self.starved.push(false);
        stable
    }

    /// Remove the flow behind stable id `id`. Its links are touched: the
    /// next solve re-solves whatever components remain on them.
    pub fn remove_flow(&mut self, id: u32) {
        let dense = self.slots[id as usize] as usize;
        for k in 0..self.net.flows()[dense].path.len() {
            let l = self.net.flows()[dense].path[k];
            self.touch(l);
        }
        self.net.remove_flow(dense);
        self.slots[id as usize] = u32::MAX;
        self.free.push(id);
        // Mirror the network's swap-remove on the dense-indexed state.
        self.slot_of.swap_remove(dense);
        self.keys.swap_remove(dense);
        self.rates.swap_remove(dense);
        if self.starved.swap_remove(dense) {
            self.flows_starved -= 1;
        }
        if dense < self.slot_of.len() {
            self.slots[self.slot_of[dense] as usize] = dense as u32;
        }
    }

    /// Change the capacity of link `l` (fault injection / repair),
    /// touching it so the component whose flows cross it re-solves on the
    /// next [`IncrementalFluid::solve`]. A link no flow crosses belongs to
    /// no component; the solve only reports it as changed. Returns whether
    /// the capacity actually changed.
    pub fn set_link_cap(&mut self, l: usize, cap_kbps: f64) -> bool {
        // cm-analyze: allow(float-eq) -- intentional bit-exact "did the stored capacity change at all" dirty check; no arithmetic feeds either side
        if self.net.link_cap(l) == cap_kbps {
            return false;
        }
        self.net.set_link_cap(l, cap_kbps);
        self.touch(l);
        true
    }

    /// Drop every flow; links, capacities and scratch allocations survive.
    /// Every link's usage returns to zero, so a caller caching anything
    /// derived from [`IncrementalFluid::link_usage`] refreshes all of it.
    pub fn clear_flows(&mut self) {
        self.net.clear_flows();
        self.slots.clear();
        self.free.clear();
        self.slot_of.clear();
        self.keys.clear();
        self.rates.clear();
        self.starved.clear();
        self.flows_starved = 0;
        self.touched.fill(false);
        self.touched_links.clear();
        self.used.fill(0.0);
        self.over.fill(false);
        self.links_over = 0;
        self.label.fill(NO_COMPONENT);
        self.components = 0;
        self.changed_links.clear();
        self.resolved_keys.clear();
    }

    /// Last solved rate of the flow behind stable id `id`.
    pub fn rate_of(&self, id: u32) -> f64 {
        self.rates[self.slots[id as usize] as usize]
    }

    /// Last solved rates in dense order (aligned with
    /// `self.fluid().flows()`).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Canonical `(tenant, sequence)` keys in dense order (aligned with
    /// [`IncrementalFluid::rates`]): which flow belongs to whom, for tests
    /// that rebuild the component structure from scratch.
    pub fn keys(&self) -> &[(u64, u32)] {
        &self.keys
    }

    /// Per-link usage as of the last solve: Σ rate of the link's flows,
    /// summed in canonical key order (so a churned solver and a fresh one
    /// agree bit for bit), 0.0 for a link no flow crosses.
    pub fn link_usage(&self) -> &[f64] {
        &self.used
    }

    /// Links whose usage or capacity the last solve may have changed: the
    /// links of every component it re-solved plus the touched links it
    /// found without flows (emptied, or re-capped while idle). No order,
    /// no duplicates.
    pub fn changed_links(&self) -> &[u32] {
        &self.changed_links
    }

    /// The ascending, de-duplicated first key component (the tenant id, in
    /// the traffic engine) of every flow the last solve re-solved. A flow
    /// whose key is absent kept its rate verbatim.
    pub fn resolved_keys(&self) -> &[u64] {
        &self.resolved_keys
    }

    /// Whether the last solved allocation is work-conserving
    /// ([`Fluid::is_work_conserving`] semantics): no link over capacity,
    /// and no flow below its demand without a saturated link on its path.
    /// Both are cached counts (see the [module docs](self)).
    pub fn is_work_conserving(&self) -> bool {
        self.links_over == 0 && self.flows_starved == 0
    }

    /// Re-solve every dirty component, keep every clean component's rates
    /// verbatim, and return what was done. See the [module docs](self).
    pub fn solve(&mut self) -> SolveStats {
        let nl = self.net.num_links();
        let s = &mut self.scratch;
        s.link_seen.resize(nl, 0);
        if s.flow_seen.len() < self.net.num_flows() {
            s.flow_seen.resize(self.net.num_flows(), 0);
        }
        s.stamp += 1;
        let stamp = s.stamp;
        s.dirty_flows.clear();
        s.comps.clear();
        self.changed_links.clear();
        self.resolved_keys.clear();

        // Walk the dirty region. Every link of an old component that
        // changed is either walked or was touched and left flowless, so
        // the old components lost are counted by their lowest links.
        let mut old_components = 0usize;
        for ti in 0..self.touched_links.len() {
            let l = self.touched_links[ti] as usize;
            self.touched[l] = false;
            if self.net.link_flows(l).is_empty() {
                old_components += usize::from(self.label[l] == l as u32);
                self.label[l] = NO_COMPONENT;
                self.used[l] = 0.0;
                set_flag(&mut self.over[l], &mut self.links_over, false);
                self.changed_links.push(l as u32);
                continue;
            }
            if s.link_seen[l] == stamp {
                continue;
            }
            let (l0, f0) = (self.changed_links.len(), s.dirty_flows.len());
            s.link_seen[l] = stamp;
            self.changed_links.push(l as u32);
            let mut head = l0;
            while head < self.changed_links.len() {
                let cur = self.changed_links[head] as usize;
                head += 1;
                old_components += usize::from(self.label[cur] == cur as u32);
                for &fi in self.net.link_flows(cur) {
                    if s.flow_seen[fi as usize] == stamp {
                        continue;
                    }
                    s.flow_seen[fi as usize] = stamp;
                    s.dirty_flows.push(fi);
                    for &pl in &self.net.flows()[fi as usize].path {
                        if s.link_seen[pl] != stamp {
                            s.link_seen[pl] = stamp;
                            self.changed_links.push(pl as u32);
                        }
                    }
                }
            }
            // Ascending links within the component, components ascending
            // by lowest link: the canonical order, whatever the history.
            self.changed_links[l0..].sort_unstable();
            s.comps.push(Comp {
                lowest: self.changed_links[l0],
                links: (l0 as u32, self.changed_links.len() as u32),
                flows: (f0 as u32, s.dirty_flows.len() as u32),
            });
        }
        self.touched_links.clear();
        s.comps.sort_unstable_by_key(|c| c.lowest);
        let n_dirty = s.comps.len();
        self.components = self.components - old_components + n_dirty;

        for k in 0..n_dirty {
            let comp = self.scratch.comps[k];
            self.solve_component(comp);
        }
        // Each component contributed its keys ascending; merge them.
        if n_dirty > 1 {
            self.resolved_keys.sort_unstable();
            self.resolved_keys.dedup();
        }
        SolveStats {
            components_dirty: n_dirty,
            components_total: self.components,
        }
    }

    /// Solve one dirty component: order its flows canonically, run the
    /// max-min kernel over them and the component's (ascending) links,
    /// then write back the rates and everything cached from them (usage,
    /// flags, label).
    fn solve_component(&mut self, comp: Comp) {
        let Self {
            net,
            scratch: s,
            keys,
            rates,
            starved,
            flows_starved,
            used,
            over,
            links_over,
            label,
            changed_links,
            resolved_keys,
            ..
        } = self;
        let net: &Fluid = net;
        // Sort by the canonical key so the local order is independent of
        // the churn history that built the link lists.
        s.comp_flows.clear();
        s.comp_flows
            .extend_from_slice(&s.dirty_flows[comp.flows.0 as usize..comp.flows.1 as usize]);
        s.comp_flows.sort_unstable_by_key(|&fi| keys[fi as usize]);
        for &fi in &s.comp_flows {
            let group = keys[fi as usize].0;
            if resolved_keys.last() != Some(&group) {
                resolved_keys.push(group);
            }
        }
        let links = &changed_links[comp.links.0 as usize..comp.links.1 as usize];
        net.fill(&s.comp_flows, links, &mut s.fill);

        // Write back the rates, then recompute whole everything cached
        // from them: per-link usage (canonical order), saturation, the
        // over-capacity flag and the label; per-flow starvation.
        // Predicates and tolerances are `Fluid::is_work_conserving`'s.
        let k = &s.fill;
        for (i, &fi) in s.comp_flows.iter().enumerate() {
            rates[fi as usize] = k.rate[i];
        }
        s.lsat.clear();
        for (li, &gl) in links.iter().enumerate() {
            let mut u = 0.0f64;
            for &i in &k.lflows[li] {
                u += k.rate[i as usize];
            }
            let (gl, cap) = (gl as usize, k.lcaps[li]);
            s.lsat.push(u >= cap - tol(cap));
            used[gl] = u;
            set_flag(&mut over[gl], links_over, u > cap + tol(cap));
            label[gl] = comp.lowest;
        }
        for (i, &fi) in s.comp_flows.iter().enumerate() {
            let f = &net.flows()[fi as usize];
            let met = k.rate[i] + tol(f.demand.min(1e12)) >= f.demand;
            let hungry = !met && !f.path.iter().any(|&l| s.lsat[k.link_local[l] as usize]);
            set_flag(&mut starved[fi as usize], flows_starved, hungry);
        }
    }

    /// Re-derive every cache from the current flows, rates and capacities
    /// and assert bit-equality with the cached state: usage in canonical
    /// order, both flag sets and their counters, and the component labels
    /// and count (from a throw-away union-find over every flow's path).
    /// O(network); debug builds run it after every engine solve.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_caches_exact(&self) {
        let nl = self.net.num_links();
        let caps = |l: usize| self.net.link_cap(l);
        let mut over = 0usize;
        let mut order: Vec<u32> = Vec::new();
        for l in 0..nl {
            order.clear();
            order.extend_from_slice(self.net.link_flows(l));
            order.sort_unstable_by_key(|&fi| self.keys[fi as usize]);
            let u = order
                .iter()
                .fold(0.0f64, |u, &fi| u + self.rates[fi as usize]);
            assert_eq!(u.to_bits(), self.used[l].to_bits(), "usage of link {l}");
            assert_eq!(
                self.over[l],
                u > caps(l) + tol(caps(l)),
                "over flag of link {l}"
            );
            over += usize::from(self.over[l]);
        }
        assert_eq!(over, self.links_over, "links over capacity");
        let sat = |l: usize| self.used[l] >= caps(l) - tol(caps(l));
        let mut hungry = 0usize;
        for (fi, f) in self.net.flows().iter().enumerate() {
            let fed = f.path.is_empty()
                || self.rates[fi] + tol(f.demand.min(1e12)) >= f.demand
                || f.path.iter().any(|&l| sat(l));
            assert_eq!(self.starved[fi], !fed, "starved flag of flow {fi}");
            hungry += usize::from(!fed);
        }
        assert_eq!(hungry, self.flows_starved, "flows starved");

        // Attach the larger root under the smaller: a root is then the
        // lowest link of its set, i.e. the label.
        let mut parent: Vec<u32> = (0..nl as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for f in self.net.flows() {
            for &l in f.path.iter().skip(1) {
                let (a, b) = (
                    find(&mut parent, f.path[0] as u32),
                    find(&mut parent, l as u32),
                );
                parent[a.max(b) as usize] = a.min(b);
            }
        }
        let mut components = 0usize;
        for l in 0..nl {
            let want = if self.net.link_flows(l).is_empty() {
                NO_COMPONENT
            } else {
                find(&mut parent, l as u32)
            };
            assert_eq!(self.label[l], want, "component label of link {l}");
            components += usize::from(want == l as u32);
        }
        assert_eq!(components, self.components, "component count");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build an incremental network over `caps`, returning it plus a
    /// plain `Fluid` sharing the link layout for reference solves.
    fn nets(caps: &[f64]) -> (IncrementalFluid, Fluid) {
        let mut a = Fluid::new();
        let mut b = Fluid::new();
        for &c in caps {
            a.link(c);
            b.link(c);
        }
        (IncrementalFluid::new(a), b)
    }

    fn close(x: f64, y: f64) -> bool {
        (x - y).abs() < 1e-6 * (1.0 + y.abs())
    }

    #[test]
    fn single_component_matches_global_solve() {
        let (mut inc, mut reference) = nets(&[900.0]);
        for k in 0..3 {
            inc.add_flow(FlowSpec::greedy(vec![0]), (1, k));
            reference.flow(FlowSpec::greedy(vec![0]));
        }
        let stats = inc.solve();
        assert_eq!(stats.components_total, 1);
        assert_eq!(stats.components_dirty, 1);
        let want = reference.rates();
        for (got, want) in inc.rates().iter().zip(&want) {
            assert!(close(*got, *want), "{got} vs {want}");
        }
        assert!(inc.is_work_conserving());
    }

    #[test]
    fn disjoint_components_skip_clean_ones() {
        let (mut inc, _) = nets(&[500.0, 500.0]);
        let a = inc.add_flow(FlowSpec::greedy(vec![0]), (1, 0));
        let _b = inc.add_flow(FlowSpec::greedy(vec![1]), (2, 0));
        let s1 = inc.solve();
        assert_eq!(s1.components_total, 2);
        assert_eq!(s1.components_dirty, 2);
        let rate_b_bits = inc.rates()[1].to_bits();
        // Churn only component 0: component 1 is skipped and its rate is
        // reused verbatim.
        inc.remove_flow(a);
        inc.add_flow(FlowSpec::greedy(vec![0]).with_guarantee(100.0), (1, 1));
        let s2 = inc.solve();
        assert_eq!(s2.components_total, 2);
        assert_eq!(s2.components_dirty, 1);
        let b_dense = 0; // b became dense 0 after a's swap-removal
        assert_eq!(inc.rates()[b_dense].to_bits(), rate_b_bits);
        // A no-op solve is all-clean.
        let s3 = inc.solve();
        assert_eq!(s3.components_dirty, 0);
        assert_eq!(s3.components_total, 2);
    }

    #[test]
    fn components_merge_and_split_under_churn() {
        let (mut inc, _) = nets(&[500.0, 500.0, 500.0]);
        inc.add_flow(FlowSpec::greedy(vec![0]), (1, 0));
        inc.add_flow(FlowSpec::greedy(vec![2]), (2, 0));
        assert_eq!(inc.solve().components_total, 2);
        // A spanning flow merges everything into one component.
        let bridge = inc.add_flow(FlowSpec::greedy(vec![0, 1, 2]), (3, 0));
        let s = inc.solve();
        assert_eq!(s.components_total, 1);
        assert_eq!(s.components_dirty, 1);
        // Removing it splits the partition again (lazy rebuild).
        inc.remove_flow(bridge);
        let s = inc.solve();
        assert_eq!(s.components_total, 2);
        assert_eq!(s.components_dirty, 2);
        assert!(inc.is_work_conserving());
    }

    #[test]
    fn clear_flows_resets_everything() {
        let (mut inc, _) = nets(&[400.0, 400.0]);
        inc.add_flow(FlowSpec::greedy(vec![0, 1]), (1, 0));
        inc.solve();
        inc.clear_flows();
        assert_eq!(inc.num_flows(), 0);
        let s = inc.solve();
        assert_eq!(s.components_total, 0);
        let id = inc.add_flow(FlowSpec::greedy(vec![0]), (2, 0));
        inc.solve();
        assert!(close(inc.rate_of(id), 400.0));
    }

    /// A solver under churn beside the list of flows it should hold, so
    /// every step can be compared with a from-scratch solver.
    struct Churned {
        caps: Vec<f64>,
        inc: IncrementalFluid,
        live: Vec<(u32, FlowSpec, (u64, u32))>,
    }

    impl Churned {
        fn new(caps: &[f64]) -> Self {
            let (inc, _) = nets(caps);
            Churned {
                caps: caps.to_vec(),
                inc,
                live: Vec::new(),
            }
        }

        fn add(&mut self, path: &[usize], floor: f64, key: (u64, u32)) -> u32 {
            let spec = FlowSpec::greedy(path.to_vec()).with_guarantee(floor);
            let id = self.inc.add_flow(spec.clone(), key);
            self.live.push((id, spec, key));
            id
        }

        fn remove(&mut self, id: u32) {
            self.inc.remove_flow(id);
            self.live.retain(|f| f.0 != id);
        }

        fn set_cap(&mut self, l: usize, cap: f64) {
            self.caps[l] = cap;
            self.inc.set_link_cap(l, cap);
        }

        /// Solve, then demand that everything cached — component count,
        /// work-conservation verdict, per-link usage, rates — equals, bit
        /// for bit, a from-scratch solver fed the surviving flows.
        fn solve_and_check(&mut self) -> SolveStats {
            let stats = self.inc.solve();
            #[cfg(debug_assertions)]
            self.inc.assert_caches_exact();
            let (mut fresh, _) = nets(&self.caps);
            let ids: Vec<u32> = self
                .live
                .iter()
                .map(|(_, spec, key)| fresh.add_flow(spec.clone(), *key))
                .collect();
            let want = fresh.solve();
            assert_eq!(stats.components_total, want.components_total);
            assert_eq!(want.components_dirty, want.components_total);
            assert_eq!(self.inc.is_work_conserving(), fresh.is_work_conserving());
            for (l, (got, want)) in self
                .inc
                .link_usage()
                .iter()
                .zip(fresh.link_usage())
                .enumerate()
            {
                assert_eq!(got.to_bits(), want.to_bits(), "usage of link {l}");
            }
            for ((id, _, _), fid) in self.live.iter().zip(ids) {
                assert_eq!(
                    self.inc.rate_of(*id).to_bits(),
                    fresh.rate_of(fid).to_bits()
                );
            }
            stats
        }
    }

    #[test]
    fn caches_survive_a_split() {
        let mut c = Churned::new(&[900.0, 600.0, 500.0, 800.0]);
        c.add(&[0, 1], 100.0, (1, 0));
        let bridge = c.add(&[1, 2], 50.0, (2, 0));
        c.add(&[2, 3], 0.0, (3, 0));
        assert_eq!(c.solve_and_check().components_total, 1);
        // The bridge's links stay occupied on both sides: two remnants,
        // each holding a touched link, both re-solved.
        c.remove(bridge);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (2, 2));
        assert_eq!(c.inc.resolved_keys(), [1, 3]);
        let mut changed = c.inc.changed_links().to_vec();
        changed.sort_unstable();
        assert_eq!(changed, [0, 1, 2, 3]);
    }

    #[test]
    fn caches_survive_a_merge() {
        let mut c = Churned::new(&[900.0, 600.0, 500.0, 800.0, 700.0]);
        c.add(&[0], 100.0, (1, 0));
        c.add(&[2], 0.0, (2, 0));
        c.add(&[4], 30.0, (9, 0));
        assert_eq!(c.solve_and_check().components_total, 3);
        // Link 1 carried nothing before: it joins without an old label.
        c.add(&[0, 1, 2], 200.0, (3, 0));
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (1, 2));
        assert_eq!(c.inc.resolved_keys(), [1, 2, 3]);
    }

    #[test]
    fn caches_survive_the_last_flow_leaving() {
        let mut c = Churned::new(&[900.0, 600.0, 500.0]);
        let only = c.add(&[0, 1], 100.0, (1, 0));
        c.add(&[2], 0.0, (2, 0));
        assert_eq!(c.solve_and_check().components_total, 2);
        c.remove(only);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (0, 1));
        assert_eq!(c.inc.link_usage()[..2], [0.0, 0.0]);
        assert!(c.inc.resolved_keys().is_empty());
        let mut changed = c.inc.changed_links().to_vec();
        changed.sort_unstable();
        assert_eq!(changed, [0, 1], "emptied links are reported once");
        // Nothing left at all.
        let last = c.live[0].0;
        c.remove(last);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (0, 0));
        assert!(c.inc.is_work_conserving());
    }

    #[test]
    fn caches_survive_a_cap_change_alone() {
        let mut c = Churned::new(&[900.0, 600.0, 500.0, 400.0]);
        c.add(&[0, 1], 300.0, (1, 0));
        c.add(&[1], 300.0, (1, 1));
        c.add(&[2], 0.0, (2, 0));
        assert_eq!(c.solve_and_check().components_total, 2);
        // Halving link 1 oversubscribes its floors: only its component
        // re-solves, and usage follows the new capacity.
        c.set_cap(1, 300.0);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (1, 2));
        assert!(c.inc.link_usage()[1] <= 300.0 + tol(300.0));
        assert_eq!(c.inc.resolved_keys(), [1]);
        // An idle link's capacity belongs to no component: nothing
        // re-solves, but the link is reported so cached aggregates of it
        // can follow.
        c.set_cap(3, 100.0);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (0, 2));
        assert_eq!(c.inc.changed_links(), [3]);
        // Restoring brings the first allocation back bit for bit.
        c.set_cap(1, 600.0);
        assert_eq!(c.solve_and_check().components_dirty, 1);
    }
}
