//! SecondNet-style pipe-model placement (§2.2, §5.1).
//!
//! SecondNet (Guo et al., CoNEXT 2010) allocates virtual datacenters
//! specified as VM-to-VM pipes, matching VMs to servers cluster by cluster
//! with a min-cost bipartite matching (O(N³)). We reproduce its essential
//! behaviour with a sequential greedy: VMs are placed in decreasing demand
//! order; each VM descends the tree from the chosen subtree, at every level
//! entering the child that holds the most bandwidth towards its
//! already-placed peers (weighted locality — the matching's objective),
//! breaking ties towards free capacity. Reservations use the exact pipe cut
//! through the shared engine.
//!
//! As in the paper, pipe placement is *fundamentally* more
//! bandwidth-efficient than TAG (idealized pipes reserve less on every cut)
//! but dramatically slower and less flexible — the runtime benches
//! regenerate that comparison.
//!
//! ## Performance notes (decision-identical to the original greedy)
//!
//! The matching search used to dominate the p99 admission latency
//! (tens of ms for the biggest tenants). Three observations fix that
//! without changing a single placement decision:
//!
//! * **Affinity by DFS range.** "Peer under this child" is containment of
//!   the peer server's DFS index in the child's contiguous server range —
//!   O(1) instead of an ancestor path walk per peer per child — and peers
//!   outside the chosen child can never contribute affinity deeper down,
//!   so the peer list shrinks as the descent narrows.
//! * **Memoized exact feasibility.** The pipe cut is additive over pipes,
//!   so the reservation delta of putting a VM on server `s` is known in
//!   closed form from its total demand and its directional affinity to the
//!   VMs already on `s`. The old stage → sync → rollback probe per
//!   candidate server becomes an arithmetic check against the cached
//!   uplink availability — same verdict, no transaction traffic.
//! * **Pruned candidate walk.** Banning a server only ever affects the
//!   final server-level choice (higher-level descent reads nothing the ban
//!   changes), so the retry loop collapses into one descent plus a ranked
//!   walk over the final rack's servers, preserving the original
//!   8-attempt cap and tie-breaks exactly.

use cm_core::cut::CutModel;
use cm_core::fasthash::FastMap;
use cm_core::model::{PipeModel, Tag};
use cm_core::placement::{search_and_place, Deployed, Placer, RejectReason};
use cm_core::reserve::TenantState;
use cm_core::txn::{ReservationTxn, UndoLog};
use cm_topology::{NodeId, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// A VM's already-placed communication peer: the peer server's DFS index
/// plus the pipe bandwidth in each direction (`out` = placed VM → peer,
/// `in` = peer → placed VM).
#[derive(Debug, Clone, Copy)]
struct Peer {
    dfs: u32,
    out: u64,
    inc: u64,
}

/// Greedy pipe-model placer in the spirit of SecondNet.
#[derive(Debug, Clone, Default)]
pub struct SecondNetPlacer {
    /// TAG → idealized-pipe conversions, keyed by the shared tag's address
    /// (as an integer, never dereferenced). Simulation pools replay the
    /// same handful of tenants for thousands of arrivals, and the dense
    /// conversion (tens of thousands of pipes) used to dominate the p99
    /// admission latency. Each entry holds the keying `Arc<Tag>` itself,
    /// so an address can never be reused for a different tag while its
    /// entry lives; the conversion is deterministic, so cached and fresh
    /// models are identical.
    model_cache: HashMap<usize, (Arc<Tag>, Arc<PipeModel>)>,
}

/// The original greedy's cap on placement attempts per VM.
const MAX_ATTEMPTS: u32 = 8;

/// Entry cap on the conversion cache (well above any pool size; a sweep
/// over many pools in one placer just re-converts).
const MODEL_CACHE_CAP: usize = 1024;

impl SecondNetPlacer {
    /// Create a SecondNet-style placer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deploy a TAG tenant as idealized pipes
    /// ([`PipeModel::from_tag_idealized`]).
    pub fn place_tag(
        &mut self,
        topo: &mut Topology,
        tag: &Tag,
    ) -> Result<TenantState<PipeModel>, RejectReason> {
        self.place_pipes(topo, PipeModel::from_tag_idealized(tag))
    }

    /// Deploy a pipe-model tenant.
    pub fn place_pipes(
        &mut self,
        topo: &mut Topology,
        model: PipeModel,
    ) -> Result<TenantState<PipeModel>, RejectReason> {
        self.place_pipes_shared(topo, Arc::new(model))
    }

    /// The idealized-pipe model of `tag`, converted once per shared tag
    /// (see the `model_cache` field docs).
    fn cached_model(&mut self, tag: &Arc<Tag>) -> Arc<PipeModel> {
        if self.model_cache.len() >= MODEL_CACHE_CAP {
            self.model_cache.clear();
        }
        self.model_cache
            .entry(Arc::as_ptr(tag) as usize)
            .or_insert_with(|| {
                (
                    Arc::clone(tag),
                    Arc::new(PipeModel::from_tag_idealized(tag)),
                )
            })
            .1
            .clone()
    }

    /// [`SecondNetPlacer::place_pipes`] for an already-shared model.
    fn place_pipes_shared(
        &mut self,
        topo: &mut Topology,
        model: Arc<PipeModel>,
    ) -> Result<TenantState<PipeModel>, RejectReason> {
        let n = model.num_vms();
        let total_vms = n as u64;
        let ext = model.external_demand_kbps();

        // Decreasing total-demand order: heavy VMs get first pick.
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by_key(|&v| {
            let (s, r) = model.vm_demand(v);
            std::cmp::Reverse(s + r)
        });

        let mut state = TenantState::new_shared(model);
        let mut log = UndoLog::default();
        search_and_place(topo, &mut state, &mut log, total_vms, ext, 0, |txn, st| {
            self.try_place_under(txn, &order, st)
        })?;
        Ok(state)
    }

    /// Assign every VM under `st`; returns false when some VM cannot be
    /// placed (slots or server-uplink bandwidth). Switch-level uplinks are
    /// synced once at the end (deferred, see module docs): their cuts are
    /// accumulated incrementally from the same closed-form deltas the
    /// descent computes anyway, so the final sync never re-evaluates the
    /// pipe model.
    fn try_place_under(
        &self,
        txn: &mut ReservationTxn<'_, PipeModel>,
        order: &[u32],
        st: NodeId,
    ) -> bool {
        let n = txn.state().model().num_vms() as usize;
        // Per VM: the chosen server's DFS index (node id is recoverable via
        // the topology's server list, but the hot path only needs ranges).
        let mut vm_dfs: Vec<Option<u32>> = vec![None; n];
        let mut peers: Vec<Peer> = Vec::new();
        // Per touched switch: the running pipe cut of the placements so far
        // (telescoped exact deltas; equals `required_cut` at every point).
        let mut pending: FastMap<NodeId, (i64, i64)> = FastMap::default();
        for &vm in order {
            // Gather already-placed peers with directional pipe weights.
            peers.clear();
            let (total_out, total_in) = {
                let model = txn.state().model();
                for &(dst, bw) in model.pipes_from(vm) {
                    if let Some(dfs) = vm_dfs[dst as usize] {
                        peers.push(Peer {
                            dfs,
                            out: bw,
                            inc: 0,
                        });
                    }
                }
                for &(src, bw) in model.pipes_to(vm) {
                    if let Some(dfs) = vm_dfs[src as usize] {
                        peers.push(Peer {
                            dfs,
                            out: 0,
                            inc: bw,
                        });
                    }
                }
                model.vm_demand(vm)
            };
            match self.place_vm(txn, vm, st, &mut peers, (total_out, total_in), &mut pending) {
                Some(server) => vm_dfs[vm as usize] = Some(txn.topo().server_dfs_index(server)),
                None => return false,
            }
        }
        // Deferred switch-level reservations within the subtree, bottom-up
        // in (level, id) order exactly as the original per-server path walk
        // produced them.
        let mut switches: Vec<(u8, NodeId)> =
            pending.keys().map(|&x| (txn.topo().level(x), x)).collect();
        switches.sort_unstable();
        for (_, x) in switches {
            let (o, i) = pending[&x];
            debug_assert!(o >= 0 && i >= 0, "pipe cut cannot be negative");
            if txn.sync_uplink_to(x, (o as u64, i as u64)).is_err() {
                return false;
            }
        }
        true
    }

    /// Place one VM under `st`: descend by affinity to the final rack, then
    /// walk its servers in the greedy's preference order under the original
    /// attempt cap. Returns the server, or `None` when the VM cannot be
    /// placed (which fails the whole subtree attempt, as before).
    fn place_vm(
        &self,
        txn: &mut ReservationTxn<'_, PipeModel>,
        vm: u32,
        st: NodeId,
        peers: &mut Vec<Peer>,
        totals: (u64, u64),
        pending: &mut FastMap<NodeId, (i64, i64)>,
    ) -> Option<NodeId> {
        let mut node = st;
        let mut aff: Vec<(u64, u64)> = Vec::new();
        // The chosen switch path with this VM's directional peer bandwidth
        // under each node — the basis of the exact per-ancestor cut deltas
        // accumulated into `pending` on success.
        let mut path: Vec<(NodeId, u64, u64)> = Vec::new();
        if !txn.topo().is_server(st) {
            let (so, si) = peers
                .iter()
                .fold((0u64, 0u64), |(o, i), p| (o + p.out, i + p.inc));
            path.push((st, so, si));
        }
        // Greedy descent over switch levels: most peer bandwidth below,
        // ties towards free capacity, then first (lowest id) child — the
        // original comparator. Per-child affinities come from one bucketing
        // pass over the peers (children partition the node's DFS server
        // range uniformly), and peers outside the chosen child are dropped:
        // they cannot contribute affinity further down.
        while !txn.topo().is_server(node) && txn.topo().level(node) > 1 {
            bucket_affinities(txn.topo(), node, peers, &mut aff);
            let mut best: Option<(u64, u64, usize, NodeId)> = None;
            for (k, child) in txn.topo().children(node).enumerate() {
                let free = txn.topo().subtree_slots_free(child);
                if free == 0 {
                    continue;
                }
                let affinity = aff[k].0 + aff[k].1;
                let better = match best {
                    None => true,
                    Some((ba, bf, _, _)) => affinity > ba || (affinity == ba && free > bf),
                };
                if better {
                    best = Some((affinity, free, k, child));
                }
            }
            let (_, _, k, child) = best?;
            path.push((child, aff[k].0, aff[k].1));
            let range = txn.topo().server_range(child);
            peers.retain(|p| range.contains(&p.dfs));
            node = child;
        }
        // `node` is now the final rack (or a server, when `st` was one):
        // walk candidate servers in preference order, up to the original
        // cap of placement attempts. Rack children are single servers, so
        // the affinity buckets double as the exact on-server pipe sums the
        // feasibility check needs.
        if txn.topo().is_server(node) {
            let dfs = txn.topo().server_dfs_index(node);
            let mut on = (0u64, 0u64);
            for p in peers.iter().filter(|p| p.dfs == dfs) {
                on.0 += p.out;
                on.1 += p.inc;
            }
            if txn.topo().slots_free(node) == 0 {
                return None;
            }
            let server = self.try_server(txn, vm, node, on, totals)?;
            accumulate_pending(pending, &path, totals);
            return Some(server);
        }
        bucket_affinities(txn.topo(), node, peers, &mut aff);
        let children: Vec<NodeId> = txn.topo().children(node).collect();
        let mut banned = vec![false; children.len()];
        let mut attempts = 0u32;
        while attempts < MAX_ATTEMPTS {
            let mut best: Option<(u64, u64, usize)> = None;
            for (k, &child) in children.iter().enumerate() {
                if banned[k] {
                    continue;
                }
                let free = txn.topo().subtree_slots_free(child);
                if free == 0 {
                    continue;
                }
                let affinity = aff[k].0 + aff[k].1;
                let better = match best {
                    None => true,
                    Some((ba, bf, _)) => affinity > ba || (affinity == ba && free > bf),
                };
                if better {
                    best = Some((affinity, free, k));
                }
            }
            let (_, _, k) = best?;
            attempts += 1;
            if let Some(server) = self.try_server(txn, vm, children[k], aff[k], totals) {
                accumulate_pending(pending, &path, totals);
                return Some(server);
            }
            banned[k] = true;
        }
        None
    }

    /// One placement attempt on a concrete server with known on-server pipe
    /// sums: closed-form feasibility, then stage + exact reservation.
    fn try_server(
        &self,
        txn: &mut ReservationTxn<'_, PipeModel>,
        vm: u32,
        server: NodeId,
        on: (u64, u64),
        totals: (u64, u64),
    ) -> Option<NodeId> {
        let want = self.nic_feasible(txn, server, on, totals)?;
        let sp = txn.savepoint();
        txn.place(server, vm as usize, 1)
            .expect("candidate servers have a free slot");
        if txn.sync_uplink_to(server, want).is_ok() {
            return Some(server);
        }
        // The closed-form check and the staged sync disagree — defensive
        // fallback to the original ban-and-retry, which keeps decisions
        // identical even then.
        debug_assert!(false, "nic_feasible disagreed with sync_uplink_to");
        txn.rollback_to(sp);
        None
    }

    /// Exact closed-form equivalent of the old stage-and-sync probe: would
    /// reserving the pipe cut of (VMs on `server` + this VM) fit the
    /// server's uplink? The pipe cut is additive over pipes, so the delta
    /// is the VM's total demand minus its pipes to VMs already on `server`
    /// (those become internal), minus the reverse-direction pipes that stop
    /// crossing. Returns the post-placement reservation target when it
    /// fits (fed straight to [`ReservationTxn::sync_uplink_to`], skipping
    /// the O(placed × degree) cut recomputation), `None` otherwise.
    fn nic_feasible(
        &self,
        txn: &ReservationTxn<'_, PipeModel>,
        server: NodeId,
        // (this VM → VMs on `server`, VMs on `server` → this VM)
        (on_out, on_in): (u64, u64),
        (total_out, total_in): (u64, u64),
    ) -> Option<(u64, u64)> {
        let (au, ad) = txn
            .topo()
            .uplink_avail(server)
            .expect("servers have an uplink");
        let delta_out = (total_out - on_out) as i64 - on_in as i64;
        let delta_in = (total_in - on_in) as i64 - on_out as i64;
        if delta_out > au as i64 || delta_in > ad as i64 {
            return None;
        }
        let (have_out, have_in) = txn.state().reserved_on(server);
        Some((
            (have_out as i64 + delta_out) as u64,
            (have_in as i64 + delta_in) as u64,
        ))
    }
}

/// Fold one placed VM's exact per-ancestor cut deltas into the pending
/// switch reservations: at each chosen switch, the cut gains the VM's
/// pipes to everything outside that subtree (`total − under`) and loses
/// the reverse-direction pipes that became internal.
fn accumulate_pending(
    pending: &mut FastMap<NodeId, (i64, i64)>,
    path: &[(NodeId, u64, u64)],
    (total_out, total_in): (u64, u64),
) {
    for &(node, under_out, under_in) in path {
        let e = pending.entry(node).or_insert((0, 0));
        e.0 += (total_out - under_out) as i64 - under_in as i64;
        e.1 += (total_in - under_in) as i64 - under_out as i64;
    }
}

/// Per-child `(out, in)` peer-bandwidth sums under `node`, in child order,
/// from one pass over the peers: the children partition the node's DFS
/// server range into equal consecutive blocks (spec-built trees are
/// uniform), so a peer's child index is a subtraction and a division. Falls
/// back to a per-child scan if the partition were ever non-uniform.
fn bucket_affinities(topo: &Topology, node: NodeId, peers: &[Peer], out: &mut Vec<(u64, u64)>) {
    let range = topo.server_range(node);
    let n_children = topo.children(node).len();
    out.clear();
    out.resize(n_children, (0, 0));
    let total = (range.end - range.start) as usize;
    let width = total / n_children;
    // Exact uniformity check: every child's range must start precisely at
    // its stride (divisibility alone would accept e.g. sizes [2, 4]).
    let uniform = width > 0
        && width * n_children == total
        && topo
            .children(node)
            .enumerate()
            .all(|(k, c)| topo.server_range(c).start == range.start + (k * width) as u32);
    if uniform {
        for p in peers {
            if range.contains(&p.dfs) {
                let k = ((p.dfs - range.start) as usize) / width;
                out[k].0 += p.out;
                out[k].1 += p.inc;
            }
        }
    } else {
        for (k, child) in topo.children(node).enumerate() {
            let r = topo.server_range(child);
            for p in peers.iter().filter(|p| r.contains(&p.dfs)) {
                out[k].0 += p.out;
                out[k].1 += p.inc;
            }
        }
    }
}

impl Placer for SecondNetPlacer {
    fn name(&self) -> &'static str {
        "SecondNet"
    }

    fn place(&mut self, topo: &mut Topology, tag: &Tag) -> Result<Deployed, RejectReason> {
        self.place_tag(topo, tag).map(Deployed::from)
    }

    fn place_shared(
        &mut self,
        topo: &mut Topology,
        tag: &Arc<Tag>,
    ) -> Result<Deployed, RejectReason> {
        let model = self.cached_model(tag);
        self.place_pipes_shared(topo, model).map(Deployed::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::model::TagBuilder;
    use cm_topology::{mbps, TreeSpec};

    fn topo_small() -> Topology {
        Topology::build(&TreeSpec::small(
            2,
            2,
            4,
            4,
            [mbps(1000.0), mbps(2000.0), mbps(4000.0)],
        ))
    }

    fn pair_tag(nu: u32, nv: u32, bw: u64) -> Tag {
        let mut b = TagBuilder::new("pair");
        let u = b.tier("u", nu);
        let v = b.tier("v", nv);
        b.sym_edge(u, v, bw).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn places_pipes_and_releases() {
        let mut topo = topo_small();
        let mut placer = SecondNetPlacer::new();
        let tag = pair_tag(4, 4, mbps(50.0));
        let mut state = placer.place_tag(&mut topo, &tag).expect("fits");
        assert_eq!(state.total_placed(&topo), 8);
        state.check_consistency(&topo).unwrap();
        state.clear(&mut topo);
        for l in 0..topo.num_levels() {
            assert_eq!(topo.reserved_at_level(l), (0, 0));
        }
    }

    #[test]
    fn locality_pulls_communicating_vms_together() {
        // 2+2 VMs with strong mutual pipes should all land under one rack
        // (likely one/two servers), leaving ToR uplinks clean.
        let mut topo = topo_small();
        let mut placer = SecondNetPlacer::new();
        let tag = pair_tag(2, 2, mbps(100.0));
        let state = placer.place_tag(&mut topo, &tag).unwrap();
        let (tor_up, tor_dn) = topo.reserved_at_level(1);
        let _ = state;
        assert_eq!(
            (tor_up, tor_dn),
            (0, 0),
            "pipes should be rack-local under affinity descent"
        );
    }

    #[test]
    fn pipe_reservation_not_above_tag_price() {
        // Idealized pipes are at most as expensive as TAG on every cut;
        // verify at the deployment level.
        let mut topo = topo_small();
        let mut placer = SecondNetPlacer::new();
        let tag = pair_tag(6, 6, mbps(30.0));
        let state = placer.place_tag(&mut topo, &tag).unwrap();
        state.check_consistency(&topo).unwrap();
        // Recompute what TAG would reserve for the same server counts.
        // Pipe tiers are single VMs; we must aggregate them back to TAG
        // tiers: VMs 0..6 are tier u, 6..12 tier v (from_tag ordering).
        let mut tag_total = 0u64;
        let mut pipe_total = 0u64;
        for (server, counts) in state.placement(&topo) {
            let mut tag_counts = vec![0u32; 2];
            for (vm, &c) in counts.iter().enumerate() {
                if c > 0 {
                    tag_counts[if vm < 6 { 0 } else { 1 }] += c;
                }
            }
            let (to, ti) = CutModel::cut_kbps(&tag, &tag_counts);
            tag_total += to + ti;
            let (po, pi) = state.required_cut(server);
            pipe_total += po + pi;
        }
        assert!(pipe_total <= tag_total);
    }

    #[test]
    fn rejects_oversized() {
        let mut topo = topo_small();
        let mut placer = SecondNetPlacer::new();
        let tag = pair_tag(40, 40, 1);
        assert_eq!(
            placer.place_tag(&mut topo, &tag).err(),
            Some(RejectReason::InsufficientSlots)
        );
        topo.check_invariants().unwrap();
    }

    #[test]
    fn rejects_on_bandwidth_without_leaks() {
        let mut topo = topo_small();
        let mut placer = SecondNetPlacer::new();
        // Per-VM pipe demand beyond NIC capacity in aggregate and forced
        // spread (tiers much larger than a server).
        let tag = pair_tag(20, 20, mbps(800.0));
        assert_eq!(
            placer.place_tag(&mut topo, &tag).err(),
            Some(RejectReason::InsufficientBandwidth)
        );
        for l in 0..topo.num_levels() {
            assert_eq!(topo.reserved_at_level(l), (0, 0));
        }
        assert_eq!(topo.subtree_slots_free(topo.root()), 64);
    }

    #[test]
    fn closed_form_feasibility_matches_staged_sync() {
        // Exhaustively compare nic_feasible against the transactional
        // probe it replaces, across a load spectrum that exercises both
        // verdicts.
        let mut topo = Topology::build(&TreeSpec::small(
            1,
            1,
            2,
            8,
            [mbps(10.0), mbps(1000.0), mbps(1000.0)],
        ));
        for bw in [mbps(1.0), mbps(3.0), mbps(6.0), mbps(9.0)] {
            let tag = pair_tag(2, 2, bw);
            let model = PipeModel::from_tag_idealized(&tag);
            let mut state = TenantState::new(model);
            let servers: Vec<NodeId> = topo.servers().to_vec();
            let mut txn = ReservationTxn::begin(&mut topo, &mut state);
            // Place VM 0 on server 0, then check every (vm, server) pair.
            txn.place(servers[0], 0, 1).unwrap();
            txn.sync_uplink(servers[0]).unwrap();
            let placer = SecondNetPlacer::new();
            for vm in [1u32, 2, 3] {
                for &s in &servers {
                    // On-server sums for placing `vm` on `s` (only VM 0 is
                    // placed, on servers[0]).
                    let (mut on_out, mut on_in) = (0u64, 0u64);
                    let (total_out, total_in) = {
                        let model = txn.state().model();
                        if s == servers[0] {
                            for &(dst, bwp) in model.pipes_from(vm) {
                                if dst == 0 {
                                    on_out += bwp;
                                }
                            }
                            for &(src, bwp) in model.pipes_to(vm) {
                                if src == 0 {
                                    on_in += bwp;
                                }
                            }
                        }
                        model.vm_demand(vm)
                    };
                    let predicted =
                        placer.nic_feasible(&txn, s, (on_out, on_in), (total_out, total_in));
                    let sp = txn.savepoint();
                    txn.place(s, vm as usize, 1).unwrap();
                    let actual = txn.sync_uplink(s).is_ok();
                    let actual_want = txn.state().reserved_on(s);
                    txn.rollback_to(sp);
                    assert_eq!(predicted.is_some(), actual, "vm {vm} on {s} at bw {bw}");
                    if let Some(want) = predicted {
                        assert_eq!(want, actual_want, "vm {vm} on {s} at bw {bw}");
                    }
                }
            }
            drop(txn);
            state.clear(&mut topo);
        }
    }
}
