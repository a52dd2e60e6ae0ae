//! Per-tenant reservation engine.
//!
//! The engine tracks, for one tenant, (a) which servers hold how many VMs of
//! each tier and (b) how much bandwidth is reserved on every uplink for the
//! tenant. Reservations follow **recompute-from-set** semantics: the amount
//! a tenant needs on a link is *defined* as its model's cut price
//! ([`crate::cut::CutModel::cut_kbps`]) of the VM multiset currently below
//! that link, and [`TenantState::sync_uplink`] applies the delta between
//! that definition and what is currently reserved.
//!
//! This matters because the cut formulas are non-additive: placing the
//! second half of a hose tier under a subtree *reduces* the requirement on
//! its uplink (Eq. 2). Delta-based bookkeeping of individual placements
//! would drift; recompute semantics are exact by construction and make
//! deallocation trivially correct.
//!
//! The engine deliberately knows nothing about placement policy; it is
//! shared by the CloudMirror placer and every baseline in `cm-baselines`.
//! Placers do not mutate it directly: all staged changes go through
//! [`crate::txn::ReservationTxn`], which layers savepoints and exact
//! commit/rollback on top of the primitives here.

#![expect(
    clippy::disallowed_methods,
    reason = "the reservation layer `ReservationTxn` delegates to; every call is undo-logged"
)]

use crate::cut::CutModel;
use crate::fasthash::FastMap;
use cm_topology::{Kbps, NodeId, Topology, TopologyError};
use std::sync::Arc;

/// One entry of a placement map: `count` VMs of `tier` on `server`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementEntry {
    /// The server the VMs were placed on.
    pub server: NodeId,
    /// Tier index within the tenant's model.
    pub tier: usize,
    /// Number of VMs placed.
    pub count: u32,
}

/// All placement and reservation state of a single deployed (or
/// in-deployment) tenant.
///
/// Dropping a `TenantState` without calling [`TenantState::clear`] leaks the
/// tenant's slots and bandwidth in the topology, so deployed tenants must be
/// kept (e.g. by the simulator's registry) until released.
#[derive(Debug, Clone)]
pub struct TenantState<M: CutModel> {
    /// Shared, immutable model: clones of the state (and the transaction
    /// undo log's model snapshots) are pointer copies, so the placement hot
    /// path never deep-clones a tenant's network description.
    model: Arc<M>,
    /// Per touched node: VM count per tier inside that node's subtree.
    counts: FastMap<NodeId, Vec<u32>>,
    /// Per touched uplink (keyed by the lower node): reserved (out, in).
    reserved: FastMap<NodeId, (Kbps, Kbps)>,
}

impl<M: CutModel> TenantState<M> {
    /// Start tracking a tenant with the given network model.
    pub fn new(model: M) -> Self {
        Self::new_shared(Arc::new(model))
    }

    /// Start tracking a tenant with an already-shared network model
    /// (no deep clone).
    pub fn new_shared(model: Arc<M>) -> Self {
        TenantState {
            model,
            counts: FastMap::default(),
            reserved: FastMap::default(),
        }
    }

    /// The tenant's network model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The tenant's network model as a shared handle (cheap to clone).
    pub fn model_arc(&self) -> Arc<M> {
        Arc::clone(&self.model)
    }

    /// VMs of `tier` inside `node`'s subtree.
    pub fn count_of(&self, node: NodeId, tier: usize) -> u32 {
        self.counts.get(&node).map_or(0, |v| v[tier])
    }

    /// The stored per-tier counts inside `node`'s subtree, if the tenant
    /// has touched it (`None` means all zeros).
    #[inline]
    pub fn inside_counts_ref(&self, node: NodeId) -> Option<&[u32]> {
        self.counts.get(&node).map(|v| v.as_slice())
    }

    /// Whether this tenant has no VM inside `node`'s subtree.
    pub fn is_untouched(&self, node: NodeId) -> bool {
        self.counts
            .get(&node)
            .is_none_or(|v| v.iter().all(|&c| c == 0))
    }

    /// Fill `out` (cleared first) with the VM counts per tier inside
    /// `node`'s subtree (all zeros if untouched), into a reusable buffer.
    pub fn fill_inside_counts(&self, node: NodeId, out: &mut Vec<u32>) {
        out.clear();
        match self.counts.get(&node) {
            Some(v) => out.extend_from_slice(v),
            None => out.resize(self.model.num_tiers(), 0),
        }
    }

    /// Total VMs placed so far.
    pub fn total_placed(&self, topo: &Topology) -> u64 {
        self.counts
            .get(&topo.root())
            .map_or(0, |v| v.iter().map(|&c| c as u64).sum())
    }

    /// The final placement: per server, VM count per tier. Sorted by server
    /// id for determinism. Servers the tenant has fully vacated (rolled
    /// back during placement, or emptied by a scale-in) are omitted — the
    /// ledger keeps their zeroed entries internally, but they are not part
    /// of the placement.
    pub fn placement(&self, topo: &Topology) -> Vec<(NodeId, Vec<u32>)> {
        let mut v: Vec<(NodeId, Vec<u32>)> = self
            .counts
            .iter()
            .filter(|(&n, c)| topo.is_server(n) && c.iter().any(|&x| x > 0))
            .map(|(&n, c)| (n, c.clone()))
            .collect();
        v.sort_by_key(|(n, _)| *n);
        v
    }

    /// Place `count` VMs of `tier` on `server`: allocates slots and updates
    /// the per-subtree counts along the path to the root. Does **not**
    /// reserve bandwidth — call [`TenantState::sync_uplink`] for the links
    /// whose reservations should reflect the new counts.
    pub fn place(
        &mut self,
        topo: &mut Topology,
        server: NodeId,
        tier: usize,
        count: u32,
    ) -> Result<(), TopologyError> {
        if count == 0 {
            return Ok(());
        }
        topo.alloc_slots(server, count)?;
        let t = self.model.num_tiers();
        for node in topo.path_to_root(server) {
            let c = self.counts.entry(node).or_insert_with(|| vec![0; t]);
            c[tier] += count;
        }
        Ok(())
    }

    /// Batched [`TenantState::place`]: stage several tiers onto one server
    /// with a single slot allocation and one path walk. All-or-nothing:
    /// fails (without side effects) when the server lacks slots for the
    /// total.
    pub fn place_many(
        &mut self,
        topo: &mut Topology,
        server: NodeId,
        chunks: &[(usize, u32)],
    ) -> Result<(), TopologyError> {
        let total: u32 = chunks.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return Ok(());
        }
        topo.alloc_slots(server, total)?;
        let t = self.model.num_tiers();
        for node in topo.path_to_root(server) {
            let c = self.counts.entry(node).or_insert_with(|| vec![0; t]);
            for &(tier, count) in chunks {
                c[tier] += count;
            }
        }
        Ok(())
    }

    /// Reverse of [`TenantState::place`]. Panics on accounting bugs
    /// (unplacing more than was placed), since that can only arise from a
    /// caller error and continuing would corrupt the ledger.
    pub fn unplace(&mut self, topo: &mut Topology, server: NodeId, tier: usize, count: u32) {
        if count == 0 {
            return;
        }
        topo.release_slots(server, count)
            .expect("unplace: slot release underflow");
        for node in topo.path_to_root(server) {
            let c = self
                .counts
                .get_mut(&node)
                .expect("unplace: node has no counts");
            assert!(c[tier] >= count, "unplace: tier count underflow");
            c[tier] -= count;
        }
    }

    /// The bandwidth this tenant requires on `node`'s uplink, per the model's
    /// cut price of the VMs currently below it.
    pub fn required_cut(&self, node: NodeId) -> (Kbps, Kbps) {
        match self.counts.get(&node) {
            Some(c) => self.model.cut_kbps(c),
            None => (0, 0),
        }
    }

    /// Currently reserved bandwidth on `node`'s uplink for this tenant.
    pub fn reserved_on(&self, node: NodeId) -> (Kbps, Kbps) {
        self.reserved.get(&node).copied().unwrap_or((0, 0))
    }

    /// Bring the reservation on `node`'s uplink in line with
    /// [`TenantState::required_cut`] (the pseudocode's `ReserveBW` for a
    /// single link). No-op on the root. Fails without side effects when the
    /// uplink lacks capacity for an increase.
    pub fn sync_uplink(&mut self, topo: &mut Topology, node: NodeId) -> Result<(), TopologyError> {
        if node == topo.root() {
            return Ok(());
        }
        let (want_out, want_in) = self.required_cut(node);
        let (have_out, have_in) = self.reserved_on(node);
        let d_out = want_out as i64 - have_out as i64;
        let d_in = want_in as i64 - have_in as i64;
        if d_out == 0 && d_in == 0 {
            return Ok(());
        }
        topo.adjust_uplink(node, d_out, d_in)?;
        if want_out == 0 && want_in == 0 {
            self.reserved.remove(&node);
        } else {
            self.reserved.insert(node, (want_out, want_in));
        }
        Ok(())
    }

    /// [`TenantState::sync_uplink`] when the caller has already computed
    /// the required cut in closed form: applies the delta to `want`
    /// without re-evaluating the model. `want` **must** equal what
    /// [`TenantState::required_cut`] would return — debug builds assert
    /// it; the SecondNet placer uses this because the pipe cut's
    /// additivity makes the per-server delta O(peers) instead of
    /// O(placed × degree).
    pub fn sync_uplink_exact(
        &mut self,
        topo: &mut Topology,
        node: NodeId,
        want: (Kbps, Kbps),
    ) -> Result<(), TopologyError> {
        if node == topo.root() {
            return Ok(());
        }
        debug_assert_eq!(
            want,
            self.required_cut(node),
            "closed-form cut disagrees with the model at {node}"
        );
        let (want_out, want_in) = want;
        let (have_out, have_in) = self.reserved_on(node);
        let d_out = want_out as i64 - have_out as i64;
        let d_in = want_in as i64 - have_in as i64;
        if d_out == 0 && d_in == 0 {
            return Ok(());
        }
        topo.adjust_uplink(node, d_out, d_in)?;
        if want_out == 0 && want_in == 0 {
            self.reserved.remove(&node);
        } else {
            self.reserved.insert(node, (want_out, want_in));
        }
        Ok(())
    }

    /// Set the reservation on a link to an exact prior value (rollback
    /// helper for [`crate::txn::ReservationTxn`]; decreases or restores
    /// always succeed). Uses the topology's force path so that restoring a
    /// reservation held before a link was degraded cannot fail.
    pub(crate) fn force_reserve(&mut self, topo: &mut Topology, node: NodeId, want: (Kbps, Kbps)) {
        let (have_out, have_in) = self.reserved_on(node);
        let d_out = want.0 as i64 - have_out as i64;
        let d_in = want.1 as i64 - have_in as i64;
        if d_out == 0 && d_in == 0 {
            return;
        }
        topo.force_adjust_uplink(node, d_out, d_in)
            .expect("rollback to previous reservation must succeed");
        if want == (0, 0) {
            self.reserved.remove(&node);
        } else {
            self.reserved.insert(node, want);
        }
    }

    /// Release everything this tenant holds: all bandwidth reservations and
    /// all VM slots. The state is empty (reusable) afterwards.
    ///
    /// Releases drain the ledgers directly — reservations and per-server
    /// slot totals are returned wholesale instead of unwinding entry by
    /// entry along every root path, and nothing is allocated.
    pub fn clear(&mut self, topo: &mut Topology) {
        for (n, (out, inc)) in self.reserved.drain() {
            topo.adjust_uplink(n, -(out as i64), -(inc as i64))
                .expect("releasing a held reservation cannot fail");
        }
        for (n, c) in self.counts.drain() {
            if topo.is_server(n) {
                let held: u32 = c.iter().sum();
                if held > 0 {
                    topo.release_slots(n, held)
                        .expect("releasing held slots cannot fail");
                }
            }
        }
    }

    /// Re-apply this ledger's slots and reservations to a topology they
    /// were just released from — the inverse of [`TenantState::clear`] for
    /// a snapshot taken before the release. Because every resource being
    /// re-acquired was freed by that release (and nothing else ran in
    /// between), none of the acquisitions can fail; the all-or-nothing
    /// lifecycle operations (`migrate`, the generic re-place fallback of
    /// `Placer::place_incremental`) rely on this to restore a tenant
    /// exactly after a failed re-placement.
    pub(crate) fn reapply(&self, topo: &mut Topology) {
        for (&n, c) in &self.counts {
            if topo.is_server(n) {
                let held: u32 = c.iter().sum();
                if held > 0 {
                    topo.alloc_slots(n, held)
                        .expect("snapshot slots were just released");
                }
            }
        }
        for (&n, &(out, inc)) in &self.reserved {
            topo.force_adjust_uplink(n, out as i64, inc as i64)
                .expect("snapshot reservations were just released");
        }
    }

    /// Total bandwidth reserved by this tenant across all links (out + in).
    pub fn total_reserved_kbps(&self) -> Kbps {
        self.reserved.values().map(|&(o, i)| o + i).sum()
    }

    /// Every uplink reservation held by this tenant, sorted by node id for
    /// determinism, so two ledgers compare entry for entry.
    pub fn reservations(&self) -> Vec<(NodeId, (Kbps, Kbps))> {
        let mut v: Vec<(NodeId, (Kbps, Kbps))> =
            self.reserved.iter().map(|(&n, &r)| (n, r)).collect();
        v.sort_by_key(|&(n, _)| n);
        v
    }

    /// Every node with a count entry (including entries rolled back to
    /// all-zero), unsorted. Used to enumerate a tenant's touched switches
    /// without materializing the placement map.
    pub fn touched_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.counts.keys().copied()
    }

    /// Swap the tenant's model and re-sync every touched link to the new
    /// model's cut prices (the §6 auto-scaling primitive: a resized TAG has
    /// different `min()` caps, so reservations must be repriced even where
    /// no VM moved). On failure (a link cannot fit a higher new price) the
    /// old model and all old reservations are restored exactly.
    ///
    /// The new model must have the same tier layout (`num_tiers`) and sizes
    /// no smaller than the currently placed counts.
    pub fn replace_model(
        &mut self,
        topo: &mut Topology,
        new_model: Arc<M>,
    ) -> Result<(), TopologyError> {
        assert_eq!(
            new_model.num_tiers(),
            self.model.num_tiers(),
            "replace_model cannot change the tier layout"
        );
        if let Some(root_counts) = self.counts.get(&topo.root()) {
            for (t, &c) in root_counts.iter().enumerate() {
                assert!(
                    c <= new_model.tier_size(t),
                    "tier {t} holds {c} VMs but the new model allows {}",
                    new_model.tier_size(t)
                );
            }
        }
        let old_model = std::mem::replace(&mut self.model, new_model);
        let old_reserved = self.reserved.clone();
        let mut links: Vec<NodeId> = self.counts.keys().copied().collect();
        links.sort_by_key(|&n| (topo.level(n), n));
        for (i, &n) in links.iter().enumerate() {
            if n == topo.root() {
                continue;
            }
            if let Err(e) = self.sync_uplink(topo, n) {
                // Restore: already-synced links back to old values, model
                // back to the old one.
                for &m in &links[..i] {
                    if m == topo.root() {
                        continue;
                    }
                    let prev = old_reserved.get(&m).copied().unwrap_or((0, 0));
                    self.force_reserve(topo, m, prev);
                }
                self.model = old_model;
                return Err(e);
            }
        }
        Ok(())
    }

    /// [`TenantState::replace_model`] for restore paths that must not
    /// fail: swaps the model and force-syncs every touched link to the new
    /// prices, bypassing capacity ceilings. Only for returning to a state
    /// the ledgers already held (transaction undo of a model swap on a
    /// possibly-degraded topology).
    pub(crate) fn force_replace_model(&mut self, topo: &mut Topology, new_model: Arc<M>) {
        assert_eq!(
            new_model.num_tiers(),
            self.model.num_tiers(),
            "force_replace_model cannot change the tier layout"
        );
        self.model = new_model;
        let mut links: Vec<NodeId> = self.counts.keys().copied().collect();
        links.sort_by_key(|&n| (topo.level(n), n));
        for n in links {
            if n == topo.root() {
                continue;
            }
            let want = self.required_cut(n);
            self.force_reserve(topo, n, want);
        }
    }

    /// Worst-case survivability per tier at `level` (§4.5): the smallest
    /// fraction of a tier's VMs that survive the failure of any single
    /// subtree at that level, `1 − max_A N^t_A / N^t`. Returns one entry per
    /// tier with at least one VM (`None` for empty/external tiers). A
    /// level at or above the root measures the root, the one domain Eq. 7
    /// sees there.
    pub fn wcs_at_level(&self, topo: &Topology, level: u8) -> Vec<Option<f64>> {
        let level = level.min(topo.level(topo.root()));
        let t = self.model.num_tiers();
        let mut max_in_domain = vec![0u32; t];
        for (&node, c) in &self.counts {
            if topo.level(node) == level {
                for (i, &x) in c.iter().enumerate() {
                    max_in_domain[i] = max_in_domain[i].max(x);
                }
            }
        }
        (0..t)
            .map(|i| {
                let n = self.model.tier_size(i);
                if n == 0 {
                    None
                } else {
                    Some(1.0 - max_in_domain[i] as f64 / n as f64)
                }
            })
            .collect()
    }

    /// Check the tenant's ledger against a from-scratch recomputation:
    /// every touched link's reservation must equal the model's cut price of
    /// the counts below it, and counts must be consistent bottom-up.
    /// Intended for tests.
    pub fn check_consistency(&self, topo: &Topology) -> Result<(), String> {
        for (&node, c) in &self.counts {
            if node != topo.root() {
                let want = self.model.cut_kbps(c);
                let have = self.reserved_on(node);
                // A zero-requirement node may simply be absent from
                // `reserved`; otherwise they must match.
                if want != have {
                    return Err(format!(
                        "link {node}: reserved {have:?} != required {want:?}"
                    ));
                }
            }
            if !topo.is_server(node) {
                let mut sum = vec![0u32; c.len()];
                for ch in topo.children(node) {
                    if let Some(cc) = self.counts.get(&ch) {
                        for (i, &x) in cc.iter().enumerate() {
                            sum[i] += x;
                        }
                    }
                }
                if &sum != c {
                    return Err(format!("node {node}: child counts do not sum"));
                }
            }
        }
        for &n in self.reserved.keys() {
            if !self.counts.contains_key(&n) {
                return Err(format!("link {n} reserved without counts"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Tag, TagBuilder};
    use cm_topology::{mbps, TreeSpec};

    fn small_topo() -> Topology {
        // 2 pods × 2 racks × 2 servers, 4 slots, 1 Gbps everywhere.
        Topology::build(&TreeSpec::small(
            2,
            2,
            2,
            4,
            [mbps(1000.0), mbps(1000.0), mbps(1000.0)],
        ))
    }

    fn hose_tag(n: u32, sr: Kbps) -> Tag {
        let mut b = TagBuilder::new("hose");
        let t = b.tier("t", n);
        b.self_loop(t, sr).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn place_updates_counts_along_path() {
        let mut topo = small_topo();
        let mut st = TenantState::new(hose_tag(4, 100));
        let s = topo.servers()[0];
        st.place(&mut topo, s, 0, 2).unwrap();
        assert_eq!(st.count_of(s, 0), 2);
        let tor = topo.parent(s).unwrap();
        assert_eq!(st.count_of(tor, 0), 2);
        assert_eq!(st.count_of(topo.root(), 0), 2);
        assert_eq!(topo.slots_free(s), 2);
        assert_eq!(st.total_placed(&topo), 2);
    }

    #[test]
    fn sync_reserves_cut_price() {
        let mut topo = small_topo();
        let mut st = TenantState::new(hose_tag(4, 100));
        let s = topo.servers()[0];
        st.place(&mut topo, s, 0, 2).unwrap();
        st.sync_uplink(&mut topo, s).unwrap();
        // Hose: min(2, 2)*100 = 200 both ways.
        assert_eq!(topo.uplink_used(s), Some((200, 200)));
        assert_eq!(st.reserved_on(s), (200, 200));
        // After syncing the full path the ledger is globally consistent.
        for n in topo.path_to_root(s).collect::<Vec<_>>() {
            st.sync_uplink(&mut topo, n).unwrap();
        }
        st.check_consistency(&topo).unwrap();
    }

    #[test]
    fn sync_shrinks_when_second_half_arrives() {
        let mut topo = small_topo();
        let mut st = TenantState::new(hose_tag(4, 100));
        let s = topo.servers()[0];
        st.place(&mut topo, s, 0, 2).unwrap();
        st.sync_uplink(&mut topo, s).unwrap();
        assert_eq!(topo.uplink_used(s), Some((200, 200)));
        // Second half lands on the same server: requirement drops to zero.
        st.place(&mut topo, s, 0, 2).unwrap();
        st.sync_uplink(&mut topo, s).unwrap();
        assert_eq!(topo.uplink_used(s), Some((0, 0)));
        st.check_consistency(&topo).unwrap();
    }

    #[test]
    fn clear_releases_all_resources() {
        let mut topo = small_topo();
        let mut st = TenantState::new(hose_tag(6, 100));
        let servers: Vec<NodeId> = topo.servers().to_vec();
        st.place(&mut topo, servers[0], 0, 2).unwrap();
        st.place(&mut topo, servers[3], 0, 2).unwrap();
        st.place(&mut topo, servers[5], 0, 2).unwrap();
        for &s in &servers[..6] {
            let path: Vec<NodeId> = topo.path_to_root(s).collect();
            for n in path {
                st.sync_uplink(&mut topo, n).unwrap();
            }
        }
        assert!(st.total_reserved_kbps() > 0);
        st.clear(&mut topo);
        assert_eq!(st.total_reserved_kbps(), 0);
        for l in 0..topo.num_levels() {
            assert_eq!(topo.reserved_at_level(l), (0, 0));
        }
        assert_eq!(topo.subtree_slots_free(topo.root()), 8 * 4);
        topo.check_invariants().unwrap();
    }

    #[test]
    fn wcs_reflects_worst_single_failure() {
        let mut topo = small_topo();
        let mut st = TenantState::new(hose_tag(4, 100));
        let s0 = topo.servers()[0];
        let s1 = topo.servers()[1];
        st.place(&mut topo, s0, 0, 3).unwrap();
        st.place(&mut topo, s1, 0, 1).unwrap();
        let wcs = st.wcs_at_level(&topo, 0);
        // Losing s0 kills 3/4 of the tier: WCS = 0.25.
        assert_eq!(wcs[0], Some(0.25));
        // At ToR level both servers share a ToR: WCS = 0.
        let wcs_tor = st.wcs_at_level(&topo, 1);
        assert_eq!(wcs_tor[0], Some(0.0));
        // A level above the root measures the root.
        let root_level = topo.level(topo.root());
        assert_eq!(
            st.wcs_at_level(&topo, 9),
            st.wcs_at_level(&topo, root_level)
        );
        assert_eq!(st.wcs_at_level(&topo, 9)[0], Some(0.0));
    }

    #[test]
    fn sync_failure_leaves_no_partial_state() {
        let mut topo = Topology::build(&TreeSpec::small(
            1,
            1,
            2,
            8,
            [mbps(100.0), mbps(1000.0), mbps(1000.0)],
        ));
        let mut st = TenantState::new(hose_tag(8, mbps(100.0)));
        let s = topo.servers()[0];
        st.place(&mut topo, s, 0, 4).unwrap();
        // Requirement: min(4,4)*100 = 400 Mbps > 100 Mbps NIC.
        assert!(st.sync_uplink(&mut topo, s).is_err());
        assert_eq!(topo.uplink_used(s), Some((0, 0)));
        assert_eq!(st.reserved_on(s), (0, 0));
    }
}
