//! The CloudMirror placement algorithm (Algorithm 1 + §4.5 extensions).

use crate::cut::CutModel;
use crate::fasthash::FastMap;
use crate::model::{Tag, TierId};
use crate::placement::engine::uplinks_above;
use crate::placement::{
    need_is_zero, need_total, per_slot_avail_kbps, place_incremental_replace, restore_need,
    search_and_place, wcs_cap, CmConfig, DemandPredictor, Deployed, HaPolicy, Placer, RejectReason,
};
use crate::reserve::{PlacementEntry, TenantState};
use crate::txn::{ReservationTxn, UndoLog};
use cm_topology::{NodeId, Topology};
use std::cmp::Reverse;
use std::sync::Arc;

/// Reusable working state of the placement hot path, so steady-state
/// admission keeps nothing on the heap but the deployment it returns
/// (`crates/core/tests/admission_allocations.rs` pins it). Within the call
/// only the deployment's own maps allocate, as they grow.
///
/// * buffer pools — every temporary the recursive `Alloc`/`Colocate`/
///   `Balance` machinery needs (child orderings, `need` vectors, subset-sum
///   shortlists, incident-edge scratch) is drawn from and returned to these
///   free lists;
/// * the undo log every attempt's [`ReservationTxn`] logs into, lent to
///   [`search_and_place`] and handed back empty;
/// * the side sums of `FindTiersToColoc`'s probes ([`SideSums`]);
/// * the failure memo of the current search ([`FailMemo`]);
/// * the work counters ([`SearchCounters`]).
///
/// Three shortcuts skip work whose outcome is already decided, each
/// exactly:
///
/// * *Side sums* ([`SideSums`]). A colocation probe's `after` price is a
///   per-tier sum over the tier's incident edges, memoized for the child's
///   counts; a trunk-edge pair re-prices only the edge and its twin. While
///   the child holds none of the tenant's VMs the sums depend on the TAG
///   alone, so one table serves the whole search. Every sum is an exact
///   `u64`, so each probe prices what the incident walk priced.
///
/// * *Uplink pre-check.* Before `Colocate` stages a group on a server,
///   [`server_uplink_fits`] decides the server's uplink sync in closed
///   form: `cut(inside + group) − reserved` against the uplink's
///   availability is the very test `sync_uplink` applies, so a group that
///   would be staged, fail its own sync and roll back is excluded without
///   touching the transaction.
/// * *Failure memo* ([`FailMemo`]). Within one search, an `Alloc(need)` on
///   a subtree the tenant has not touched that placed nothing returns 0 on
///   repeat. A failed `Alloc` rolls back, and nothing but this tenant's
///   own staging changes a subtree mid-search, so an untouched subtree is
///   in the same state as when it failed.
///
/// Under Eq. 7 (Guaranteed) HA `Alloc` also reads fault-domain counts that
/// can sit above the subtree, so the memo is off there. Side sums read
/// only the TAG and the child's counts, so they hold under every policy.
/// Debug builds check the side sums, the pre-check and the memo against
/// the work they skip.
#[derive(Debug, Clone, Default)]
struct Scratch {
    u32s: Vec<Vec<u32>>,
    u64s: Vec<Vec<u64>>,
    nodes: Vec<Vec<NodeId>>,
    idxs: Vec<Vec<usize>>,
    pairs: Vec<Vec<(usize, u32)>>,
    log: UndoLog<Tag>,
    sides: SideSums,
    failed: FailMemo,
    counters: SearchCounters,
}

macro_rules! pool {
    ($get:ident, $put:ident, $field:ident, $t:ty) => {
        fn $get(&mut self) -> Vec<$t> {
            self.$field.pop().unwrap_or_default()
        }
        fn $put(&mut self, mut v: Vec<$t>) {
            v.clear();
            self.$field.push(v);
        }
    };
}

impl Scratch {
    pool!(u32s, put_u32s, u32s, u32);
    pool!(u64s, put_u64s, u64s, u64);
    pool!(nodes, put_nodes, nodes, NodeId);
    pool!(idxs, put_idxs, idxs, usize);
    pool!(pairs, put_pairs, pairs, (usize, u32));
}

/// Work one tree level saw, summed over searches. Every level a search
/// visits ends in exactly one of `placed`, `slots` or `bandwidth`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelCounters {
    /// Attempts: `Alloc` ran on a subtree of this level for the whole
    /// tenant.
    pub attempts: u64,
    /// The attempt placed the tenant and reserved the path above.
    pub placed: u64,
    /// No subtree of this level had enough free slots, so the search
    /// skipped the level without an attempt.
    pub slots: u64,
    /// Bandwidth stopped the level: no subtree with enough free slots had
    /// the root-path bandwidth for the tenant's external demand (skipped
    /// without an attempt), or the attempt's `Alloc` or its reservation
    /// above failed. An attempt never fails on slots: descend only offers
    /// subtrees with room for every VM. Under Eq. 7 HA this count also
    /// holds attempts the caps stopped.
    pub bandwidth: u64,
    /// `Alloc` calls that ran on a node of this level, at any depth of any
    /// attempt (failure-memo hits excluded).
    pub allocs: u64,
}

/// Deterministic work counters of a [`CmPlacer`], summed over every
/// search since the placer was created (admissions and scale-outs; shrinks
/// do not search). Plain counts with no switch: they cost an add each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Per tree level, servers first.
    pub levels: Vec<LevelCounters>,
    /// `greedy_fill`s `Balance` ran.
    pub fills_run: u64,
    /// `build_group` calls of `FindTiersToColoc`.
    pub groups_built: u64,
    /// `Colocate` groups on a server the uplink pre-check refused, so they
    /// were never staged.
    pub uplink_prechecked: u64,
    /// `Colocate` groups on a server that were staged and then rolled back
    /// by that server's own uplink sync. The pre-check leaves none.
    pub coloc_server_rollbacks: u64,
    /// `Alloc` calls answered by the failure memo.
    pub memo_hits: u64,
    /// Eq. 1 edge crossings `FindTiersToColoc`'s probes priced: each side
    /// sum priced by its incident walk, and the shared-edge corrections of
    /// each pair probe. Side sums read from a memo or from the search's
    /// empty-subtree table price nothing.
    pub edges_priced: u64,
}

impl SearchCounters {
    /// Count the levels in `skipped`, which the search passed over because
    /// descend found no subtree there: for slots when no subtree of the
    /// level has `total_vms` free slots, else for path bandwidth. `topo`
    /// must be the tree descend saw.
    fn skip(&mut self, topo: &Topology, skipped: std::ops::Range<usize>, total_vms: u64) {
        for l in skipped {
            if topo.max_subtree_free_at(topo.root(), l) < total_vms {
                self.levels[l].slots += 1;
            } else {
                self.levels[l].bandwidth += 1;
            }
        }
    }
}

/// The failure memo of one search: `(subtree, need)` pairs whose `Alloc`
/// placed nothing while the tenant had not touched the subtree. Needs are
/// keyed by a hash and compared in full, so a collision only costs a miss.
#[derive(Debug, Clone, Default)]
struct FailMemo {
    /// `(subtree, hash of need)` → offset of the need in `needs`.
    index: FastMap<(NodeId, u64), usize>,
    needs: Vec<u32>,
}

impl FailMemo {
    fn clear(&mut self) {
        self.index.clear();
        self.needs.clear();
    }

    fn key(st: NodeId, need: &[u32]) -> (NodeId, u64) {
        let h = need.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &c| {
            (h ^ c as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (st, h)
    }

    fn contains(&self, st: NodeId, need: &[u32]) -> bool {
        self.index
            .get(&Self::key(st, need))
            .is_some_and(|&at| &self.needs[at..at + need.len()] == need)
    }

    fn insert(&mut self, st: NodeId, need: &[u32]) {
        self.index.insert(Self::key(st, need), self.needs.len());
        self.needs.extend_from_slice(need);
    }
}

/// `side(t, k)` for every tier of one TAG, priced on demand: tier `t`'s
/// entries `k = 0..=size(t)` sit at `start[t]..`.
#[derive(Debug, Clone, Default)]
struct SideTable {
    start: Vec<usize>,
    sums: Vec<Option<u64>>,
}

impl SideTable {
    /// Forget every entry and lay the table out for `tag`.
    fn reset(&mut self, tag: &Tag) {
        self.start.clear();
        self.sums.clear();
        for t in 0..tag.num_tiers() {
            self.start.push(self.sums.len());
            let entries = self.sums.len() + CutModel::tier_size(tag, t) as usize + 1;
            self.sums.resize(entries, None);
        }
        self.start.push(self.sums.len());
    }

    /// The slot of `side(t, k)`; `None` past the tier's size.
    fn slot(&mut self, t: usize, k: u32) -> Option<&mut Option<u64>> {
        let at = self.start[t] + k as usize;
        (at < self.start[t + 1]).then(|| &mut self.sums[at])
    }

    fn forget(&mut self, t: usize) {
        self.sums[self.start[t]..self.start[t + 1]].fill(None);
    }
}

/// `side(t, k)` by the full incident walk: the summed Eq. 1 crossings of
/// `incident(t)` with `k` more VMs of tier `t` inside (restores `cur`).
fn price_side(tag: &Tag, cur: &mut [u32], t: usize, k: u32) -> u64 {
    cur[t] += k;
    let sum = (tag.incident_edges(TierId(t as u16)).iter())
        .map(|&ei| tag.edge_crossing_idx(ei as usize, cur))
        .sum();
    cur[t] -= k;
    sum
}

/// The exact side sums behind `build_group`'s probes. A probe adding `k`
/// VMs of tier `t` to the child's counts `cur` changes only the crossings
/// of `incident(t)`, so its `after` price is `side(t, k)`; a pair probe's
/// is `side(u, ku) + side(v, kv)` with the edges both tiers list — the
/// probed edge and its [`Tag::twin`] — re-priced with both tiers grown.
/// Sides are memoized for the current `cur`; while `cur` is empty they
/// depend on the TAG alone and come from a table kept for the whole
/// search. Every value is an exact `u64` sum, so the probes price exactly
/// what the incident walks priced; debug builds re-walk every read.
#[derive(Debug, Clone, Default)]
struct SideSums {
    /// Sides at an empty subtree, for the current search's TAG.
    empty: SideTable,
    /// Sides at the current call's `cur`, when it is not empty.
    memo: SideTable,
    /// Whether `cur` is empty, so that `empty` is the table to read.
    cur_empty: bool,
    /// Edge crossings priced (see [`SearchCounters::edges_priced`]).
    priced: u64,
}

impl SideSums {
    /// Forget the empty-subtree table: a search may price another TAG.
    fn start_search(&mut self, tag: &Tag) {
        self.empty.reset(tag);
    }

    /// Start pricing against a child whose counts are `cur`.
    fn start_call(&mut self, tag: &Tag, cur: &[u32]) {
        self.cur_empty = cur.iter().all(|&c| c == 0);
        if !self.cur_empty {
            self.memo.reset(tag);
        }
    }

    /// Add `k` VMs of tier `t` to `cur` for good, forgetting the sides it
    /// changes: those of `t` and of every tier sharing an edge with it.
    fn grow(&mut self, tag: &Tag, cur: &mut [u32], t: usize, k: u32) {
        cur[t] += k;
        if self.cur_empty {
            self.cur_empty = false;
            self.memo.reset(tag);
            return;
        }
        self.memo.forget(t);
        for &ei in tag.incident_edges(TierId(t as u16)) {
            let e = &tag.edges()[ei as usize];
            self.memo.forget(e.from.index());
            self.memo.forget(e.to.index());
        }
    }

    /// `side(t, k)` at `cur`.
    fn side(&mut self, tag: &Tag, cur: &mut [u32], t: usize, k: u32) -> u64 {
        let table = if self.cur_empty {
            &mut self.empty
        } else {
            &mut self.memo
        };
        let sum = match table.slot(t, k) {
            Some(&mut Some(sum)) => sum,
            slot => {
                let sum = price_side(tag, cur, t, k);
                self.priced += tag.incident_edges(TierId(t as u16)).len() as u64;
                if let Some(slot) = slot {
                    *slot = Some(sum);
                }
                sum
            }
        };
        debug_assert_eq!(sum, price_side(tag, cur, t, k), "side({t}, {k}) at {cur:?}");
        sum
    }

    /// The `after` price of the pair probe that adds `ku` VMs of edge
    /// `ei`'s sender tier and `kv` of its receiver tier to `cur`: the
    /// crossings of `incident(u) ∪ incident(v)` with both tiers grown.
    fn pair(&mut self, tag: &Tag, cur: &mut [u32], ei: usize, ku: u32, kv: u32) -> u64 {
        let e = &tag.edges()[ei];
        let (u, v) = (e.from.index(), e.to.index());
        debug_assert_ne!(u, v);
        let sides = self.side(tag, cur, u, ku) + self.side(tag, cur, v, kv);
        // Each side priced the shared edges with only its own tier grown.
        let (mut alone, mut both) = (0u64, 0u64);
        for s in std::iter::once(ei).chain(tag.twin(ei)) {
            cur[u] += ku;
            alone += tag.edge_crossing_idx(s, cur);
            cur[v] += kv;
            both += tag.edge_crossing_idx(s, cur);
            cur[u] -= ku;
            alone += tag.edge_crossing_idx(s, cur);
            cur[v] -= kv;
            self.priced += 3;
        }
        let after = sides - alone + both;
        #[cfg(debug_assertions)]
        assert_eq!(
            after,
            pair_by_walk(tag, cur, u, ku, v, kv),
            "pair probe {ei} at {cur:?}"
        );
        after
    }
}

/// Debug builds: a pair probe's `after` price by walking `incident(u)`
/// and then `incident(v)` minus the edges it shares with `u`.
#[cfg(debug_assertions)]
fn pair_by_walk(tag: &Tag, cur: &mut [u32], u: usize, ku: u32, v: usize, kv: u32) -> u64 {
    cur[u] += ku;
    cur[v] += kv;
    let mut after = 0u64;
    for &ei in tag.incident_edges(TierId(u as u16)) {
        after += tag.edge_crossing_idx(ei as usize, cur);
    }
    for &ei in tag.incident_edges(TierId(v as u16)) {
        let e = &tag.edges()[ei as usize];
        if e.from.index() != u && e.to.index() != u {
            after += tag.edge_crossing_idx(ei as usize, cur);
        }
    }
    cur[u] -= ku;
    cur[v] -= kv;
    after
}

/// Whether staging `group` on `server` would pass the server's uplink
/// sync, decided without staging: the tenant's cut with the group inside
/// (Eq. 1), minus what it reserves there now, must fit the uplink's
/// availability in each direction. That is exactly the capacity test
/// `ReservationTxn::sync_uplink` applies (only increases are checked, and
/// availability saturates at zero on a link degraded below its
/// reservations, so no increase fits there).
fn server_uplink_fits(
    topo: &Topology,
    state: &TenantState<Tag>,
    server: NodeId,
    group: &[u32],
    scratch: &mut Scratch,
) -> bool {
    let Some((avail_up, avail_dn)) = topo.uplink_avail(server) else {
        return true; // a single-server tree: no uplink to sync
    };
    let mut cur = scratch.u32s();
    state.fill_inside_counts(server, &mut cur);
    for (c, &g) in cur.iter_mut().zip(group) {
        *c += g;
    }
    let (want_up, want_dn) = state.model().cut_kbps(&cur);
    scratch.put_u32s(cur);
    let (have_up, have_dn) = state.reserved_on(server);
    want_up.saturating_sub(have_up) <= avail_up && want_dn.saturating_sub(have_dn) <= avail_dn
}

/// `Colocate`'s candidate children of one subtree: those still holding
/// free slots that neither failed to take a group nor yielded none, in
/// (most free slots, id) order (keys are unique, so unstable sorts need no
/// buffer), with the integer sums behind [`per_slot_avail_kbps`] over
/// them. Built once per `Colocate` call;
/// after that only the child `FindTiersToColoc` returns changes, so it is
/// taken out while `Alloc` runs and re-inserted under its new key if it
/// took VMs.
struct ColocCands {
    nodes: Vec<NodeId>,
    /// Σ ⌊(avail up + avail down) / 2⌋ over `nodes`.
    bw: u128,
    /// Σ free slots over `nodes`.
    slots: u64,
    /// Children left out for good (debug builds rebuild the list from it).
    #[cfg(debug_assertions)]
    dropped: Vec<NodeId>,
    #[cfg(debug_assertions)]
    st: NodeId,
}

fn half_avail(topo: &Topology, n: NodeId) -> u128 {
    topo.uplink_avail(n)
        .map_or(0, |(u, d)| (u as u128 + d as u128) / 2)
}

fn by_free_slots(topo: &Topology, n: NodeId) -> (Reverse<u64>, NodeId) {
    (Reverse(topo.subtree_slots_free(n)), n)
}

fn by_uplink_avail(topo: &Topology, n: NodeId) -> (Reverse<u64>, NodeId) {
    let (u, d) = topo.uplink_avail(n).unwrap_or((0, 0));
    (Reverse(u.min(d)), n)
}

/// Insert `n` into `v`, which is sorted by `key`, at its sorted position.
fn insert_sorted<K: Ord>(v: &mut Vec<NodeId>, n: NodeId, key: impl Fn(NodeId) -> K) {
    let k = key(n);
    let at = v.partition_point(|&m| key(m) < k);
    v.insert(at, n);
}

/// Remove `n` from `v`, if present.
fn remove_node(v: &mut Vec<NodeId>, n: NodeId) {
    if let Some(at) = v.iter().position(|&m| m == n) {
        v.remove(at);
    }
}

impl ColocCands {
    fn build(topo: &Topology, st: NodeId, scratch: &mut Scratch) -> ColocCands {
        let mut nodes = scratch.nodes();
        nodes.extend(
            topo.children(st)
                .filter(|&n| topo.subtree_slots_free(n) > 0),
        );
        nodes.sort_unstable_by_key(|&n| by_free_slots(topo, n));
        ColocCands {
            bw: nodes.iter().map(|&n| half_avail(topo, n)).sum(),
            slots: nodes.iter().map(|&n| topo.subtree_slots_free(n)).sum(),
            nodes,
            #[cfg(debug_assertions)]
            dropped: scratch.nodes(),
            #[cfg(debug_assertions)]
            st,
        }
    }

    fn release(self, scratch: &mut Scratch) {
        scratch.put_nodes(self.nodes);
        #[cfg(debug_assertions)]
        scratch.put_nodes(self.dropped);
    }

    /// Add `n` under its current key, unless it has no free slot left.
    fn insert(&mut self, topo: &Topology, n: NodeId) {
        let free = topo.subtree_slots_free(n);
        if free == 0 {
            return;
        }
        insert_sorted(&mut self.nodes, n, |m| by_free_slots(topo, m));
        self.bw += half_avail(topo, n);
        self.slots += free;
    }

    /// Take out the first `k` children, each under its current key.
    fn remove_first(&mut self, topo: &Topology, k: usize) {
        for n in self.nodes.drain(..k) {
            self.bw -= half_avail(topo, n);
            self.slots -= topo.subtree_slots_free(n);
        }
    }

    /// Debug builds: the list and sums equal the filter and sort they
    /// replace, rebuilt from the subtree.
    #[cfg(debug_assertions)]
    fn check(&self, topo: &Topology) {
        let mut rebuilt: Vec<NodeId> = topo
            .children(self.st)
            .filter(|c| !self.dropped.contains(c) && topo.subtree_slots_free(*c) > 0)
            .collect();
        rebuilt.sort_by_key(|&c| by_free_slots(topo, c));
        debug_assert_eq!(self.nodes, rebuilt, "Colocate candidates drifted");
        let bw: u128 = rebuilt.iter().map(|&c| half_avail(topo, c)).sum();
        let slots: u64 = rebuilt.iter().map(|&c| topo.subtree_slots_free(c)).sum();
        debug_assert_eq!((self.bw, self.slots), (bw, slots), "Colocate sums drifted");
    }
}

/// `Balance`'s candidate children of one subtree: those with free slots
/// whose `Alloc` has not come back empty, in id order and in both
/// shortlist orders (most free slots; most available uplink bandwidth,
/// the smaller direction). Built once per `Balance` call and maintained
/// like [`ColocCands`].
struct BalanceCands {
    ids: Vec<NodeId>,
    by_slots: Vec<NodeId>,
    by_bw: Vec<NodeId>,
    #[cfg(debug_assertions)]
    dropped: Vec<NodeId>,
    #[cfg(debug_assertions)]
    st: NodeId,
}

impl BalanceCands {
    fn build(topo: &Topology, st: NodeId, scratch: &mut Scratch) -> BalanceCands {
        let mut c = BalanceCands {
            ids: scratch.nodes(),
            by_slots: scratch.nodes(),
            by_bw: scratch.nodes(),
            #[cfg(debug_assertions)]
            dropped: scratch.nodes(),
            #[cfg(debug_assertions)]
            st,
        };
        c.ids.extend(
            topo.children(st)
                .filter(|&n| topo.subtree_slots_free(n) > 0),
        );
        c.by_slots.extend_from_slice(&c.ids);
        c.by_slots.sort_unstable_by_key(|&n| by_free_slots(topo, n));
        c.by_bw.extend_from_slice(&c.ids);
        c.by_bw.sort_unstable_by_key(|&n| by_uplink_avail(topo, n));
        c
    }

    fn release(self, scratch: &mut Scratch) {
        scratch.put_nodes(self.ids);
        scratch.put_nodes(self.by_slots);
        scratch.put_nodes(self.by_bw);
        #[cfg(debug_assertions)]
        scratch.put_nodes(self.dropped);
    }

    /// Take `n` out of both orders (its keys are about to change).
    fn take(&mut self, n: NodeId) {
        remove_node(&mut self.by_slots, n);
        remove_node(&mut self.by_bw, n);
    }

    /// Put `n`, taken out before its `Alloc`, back under its new keys; or
    /// leave it out for good when the `Alloc` placed nothing or it has no
    /// free slot left.
    fn put_back(&mut self, topo: &Topology, n: NodeId, placed: bool) {
        if placed && topo.subtree_slots_free(n) > 0 {
            insert_sorted(&mut self.by_slots, n, |m| by_free_slots(topo, m));
            insert_sorted(&mut self.by_bw, n, |m| by_uplink_avail(topo, m));
        } else {
            remove_node(&mut self.ids, n);
            #[cfg(debug_assertions)]
            self.dropped.push(n);
        }
    }

    /// Debug builds: the id list equals the filter it replaces, and both
    /// orders equal a fresh sort of it.
    #[cfg(debug_assertions)]
    fn check(&self, topo: &Topology) {
        let rebuilt: Vec<NodeId> = topo
            .children(self.st)
            .filter(|c| !self.dropped.contains(c) && topo.subtree_slots_free(*c) > 0)
            .collect();
        debug_assert_eq!(self.ids, rebuilt, "Balance candidates drifted");
        let mut s = rebuilt.clone();
        s.sort_by_key(|&c| by_free_slots(topo, c));
        debug_assert_eq!(self.by_slots, s, "Balance slot order drifted");
        s.sort_by_key(|&c| by_uplink_avail(topo, c));
        debug_assert_eq!(self.by_bw, s, "Balance bandwidth order drifted");
    }
}

/// Collect the 4 smallest nodes of `nodes` under `key` into `out`, in key
/// order — equivalent to `sort_by_key(key).take(4)` for total-order keys.
/// Debug builds check `Balance`'s maintained shortlist against it.
#[cfg(debug_assertions)]
fn top4_by<K: Ord + Copy>(nodes: &[NodeId], out: &mut Vec<NodeId>, key: impl Fn(NodeId) -> K) {
    let mut best: [Option<(K, NodeId)>; 4] = [None; 4];
    for &c in nodes {
        let k = key(c);
        let mut pos = 4;
        for (i, b) in best.iter().enumerate() {
            match b {
                None => {
                    pos = i;
                    break;
                }
                Some((bk, _)) if k < *bk => {
                    pos = i;
                    break;
                }
                _ => {}
            }
        }
        if pos < 4 {
            for j in (pos + 1..4).rev() {
                best[j] = best[j - 1];
            }
            best[pos] = Some((k, c));
        }
    }
    out.extend(best.iter().flatten().map(|&(_, c)| c));
}

/// The Eq. 7 fault domain holding `node` (at or below `laa_level`): its
/// ancestor at `laa_level`, or the root when `laa_level` is at or above
/// the root, which makes the whole tree one domain.
fn fault_domain(topo: &Topology, node: NodeId, laa_level: u8) -> NodeId {
    topo.path_to_root(node)
        .find(|&a| topo.level(a) >= laa_level)
        .unwrap_or(topo.root())
}

/// The CloudMirror VM scheduler.
///
/// A placer is stateful only through its [`DemandPredictor`] (used by
/// opportunistic HA), its reusable scratch pools and its work counters
/// ([`CmPlacer::counters`]); placements themselves live in the returned
/// [`TenantState`]s. See the
/// [module docs](crate::placement) for the algorithm.
#[derive(Debug, Clone)]
pub struct CmPlacer {
    cfg: CmConfig,
    label: &'static str,
    predictor: DemandPredictor,
    scratch: Scratch,
}

impl Default for CmPlacer {
    fn default() -> Self {
        CmPlacer::new(CmConfig::cm())
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "Algorithm 1's steps take the search state (transaction, need, subtree, demand mix, spread, scratch) as explicit arguments"
)]
impl CmPlacer {
    /// Create a placer with the given configuration, labeled with the
    /// configuration's canonical name ([`CmConfig::label`]).
    pub fn new(cfg: CmConfig) -> Self {
        Self::named(cfg, cfg.label())
    }

    /// Create a placer with an explicit display name (used for the HA and
    /// ablation variants in result tables).
    pub fn named(cfg: CmConfig, label: &'static str) -> Self {
        CmPlacer {
            cfg,
            label,
            predictor: DemandPredictor::default(),
            scratch: Scratch::default(),
        }
    }

    /// Deploy a TAG tenant (`AllocTenant` in Algorithm 1).
    ///
    /// On success the returned [`TenantState`] holds the placement and all
    /// reservations; release it with [`TenantState::clear`]. On rejection
    /// the topology is left exactly as before the call. A TAG whose
    /// guarantees overflow Eq. 1 is [`RejectReason::GuaranteesOverflow`].
    /// (The [`Placer`] trait wraps this into a model-erased [`Deployed`].)
    pub fn place_tag(
        &mut self,
        topo: &mut Topology,
        tag: &Tag,
    ) -> Result<TenantState<Tag>, RejectReason> {
        self.place_tag_shared(topo, &Arc::new(tag.clone()))
    }

    /// [`CmPlacer::place_tag`] for an already-shared model: the tenant's
    /// TAG is never deep-cloned, the state just keeps a handle.
    pub fn place_tag_shared(
        &mut self,
        topo: &mut Topology,
        tag: &Arc<Tag>,
    ) -> Result<TenantState<Tag>, RejectReason> {
        tag.cut_bound_kbps()
            .ok_or(RejectReason::GuaranteesOverflow)?;
        let demand_mix = self.predictor.observe(tag.avg_per_vm_demand_kbps());
        let shared = Arc::clone(tag);
        let tag: &Tag = tag;
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut total_need = scratch.u32s();
        total_need.extend((0..tag.num_tiers()).map(|t| CutModel::tier_size(tag, t)));
        let ext_demand = tag.cut_kbps(&total_need);
        let spread = self.spread_unit_prices(tag, &mut scratch);
        let start = self.start_level(topo, tag, demand_mix) as usize;

        let mut state = TenantState::new_shared(shared);
        let res = self.search(
            topo,
            &mut state,
            tag,
            &total_need,
            ext_demand,
            start,
            demand_mix,
            &spread,
            &mut scratch,
        );
        scratch.put_u32s(total_need);
        scratch.put_u64s(spread);
        self.scratch = scratch;
        res?;
        Ok(state)
    }

    /// The work counters of every search so far (see [`SearchCounters`]).
    pub fn counters(&self) -> &SearchCounters {
        &self.scratch.counters
    }

    /// Algorithm 1's search for `template` (VMs to place per tier) through
    /// [`search_and_place`], with the per-level outcome counted: each
    /// level the search visits ends placed, or stopped by slots or by
    /// bandwidth (see [`LevelCounters`]). Starts a fresh failure memo.
    fn search(
        &self,
        topo: &mut Topology,
        state: &mut TenantState<Tag>,
        tag: &Tag,
        template: &[u32],
        ext_demand: (u64, u64),
        start: usize,
        demand_mix: f64,
        spread: &[u64],
        scratch: &mut Scratch,
    ) -> Result<(), RejectReason> {
        let total_vms = need_total(template);
        let levels = topo.num_levels();
        if scratch.counters.levels.len() < levels {
            scratch
                .counters
                .levels
                .resize(levels, LevelCounters::default());
        }
        scratch.failed.clear();
        scratch.sides.start_search(tag);
        let mut log = std::mem::take(&mut scratch.log);
        // The next level descend visits, and the level of an attempt whose
        // `Alloc` placed everything but whose path reservation is pending.
        let mut next = start.min(levels - 1);
        let mut pending: Option<usize> = None;
        let res = search_and_place(
            topo,
            state,
            &mut log,
            total_vms,
            ext_demand,
            start,
            |txn, st| {
                let level = txn.topo().level(st) as usize;
                let c = &mut scratch.counters;
                if let Some(p) = pending.take() {
                    c.levels[p].bandwidth += 1; // its path reservation failed
                }
                c.skip(txn.topo(), next..level, total_vms);
                next = level + 1;
                c.levels[level].attempts += 1;
                let mut need = scratch.u32s();
                need.extend_from_slice(template);
                self.alloc(txn, tag, &mut need, st, demand_mix, spread, scratch);
                let done = need_is_zero(&need);
                scratch.put_u32s(need);
                if done {
                    pending = Some(level);
                } else {
                    scratch.counters.levels[level].bandwidth += 1;
                }
                done
            },
        );
        scratch.log = log;
        let c = &mut scratch.counters;
        match (&res, pending) {
            (Ok(()), Some(p)) => c.levels[p].placed += 1,
            (Err(_), Some(p)) => c.levels[p].bandwidth += 1,
            _ => {}
        }
        if res.is_err() {
            // Rolled back: `topo` is the tree the last descends saw.
            c.skip(topo, next..levels, total_vms);
        }
        res
    }

    /// The spread price of one VM of each tier (the cut it costs alone in
    /// its own subtree) — the baseline every colocation saving is measured
    /// against. Depends only on the model, so it is computed once per
    /// deployment and threaded through the recursion.
    fn spread_unit_prices(&self, tag: &Tag, scratch: &mut Scratch) -> Vec<u64> {
        let n = tag.num_tiers();
        let mut spread = scratch.u64s();
        let mut unit = scratch.u32s();
        unit.resize(n, 0);
        for t in 0..n {
            unit[t] = 1;
            let s: u64 = tag
                .incident_edges(TierId(t as u16))
                .iter()
                .map(|&ei| tag.edge_crossing_idx(ei as usize, &unit))
                .sum();
            spread.push(s);
            unit[t] = 0;
        }
        scratch.put_u32s(unit);
        spread
    }

    /// Resize one tier of a *live* deployment to `new_size` VMs — the
    /// auto-scaling operation the paper's §6 plans for ("large-scale
    /// variations in load will trigger tenants to scale up or down ...
    /// which is flexibly handled by the TAG model").
    ///
    /// Per-VM guarantees stay fixed; only the tier's size changes. Growing
    /// reprices every existing reservation under the enlarged model (the
    /// `min()` caps of Eq. 1 widen) and then places the new VMs with the
    /// normal `Alloc` machinery; shrinking removes VMs from the
    /// least-populated servers first and reprices afterwards. On any
    /// failure the deployment is left exactly as before and an error is
    /// returned; a resize whose TAG overflows Eq. 1 is
    /// [`RejectReason::GuaranteesOverflow`].
    pub fn scale_tier(
        &mut self,
        topo: &mut Topology,
        state: &mut TenantState<Tag>,
        tier: TierId,
        new_size: u32,
    ) -> Result<(), RejectReason> {
        let old_tag = state.model_arc();
        if new_size == old_tag.tier(tier).size {
            return Ok(());
        }
        self.scale_tier_shared(
            topo,
            state,
            tier,
            &Arc::new(old_tag.resized(tier, new_size)),
        )
    }

    /// [`CmPlacer::scale_tier`] with the resized TAG supplied by the caller
    /// (the lifecycle controller already holds it): identical behaviour,
    /// no second `resized` copy. `new_tag` must equal the current model
    /// with exactly `tier` resized.
    pub fn scale_tier_shared(
        &mut self,
        topo: &mut Topology,
        state: &mut TenantState<Tag>,
        tier: TierId,
        new_tag: &Arc<Tag>,
    ) -> Result<(), RejectReason> {
        new_tag
            .cut_bound_kbps()
            .ok_or(RejectReason::GuaranteesOverflow)?;
        let old_tag = state.model_arc();
        let old_size = old_tag.tier(tier).size;
        let new_size = new_tag.tier(tier).size;
        if new_size == old_size {
            return Ok(());
        }
        let new_tag = Arc::clone(new_tag);
        let demand_mix = self.predictor.observe(new_tag.avg_per_vm_demand_kbps());
        let mut scratch = std::mem::take(&mut self.scratch);
        let res = if new_size > old_size {
            self.grow_tier(
                topo,
                state,
                tier,
                &old_tag,
                &new_tag,
                demand_mix,
                &mut scratch,
            )
        } else {
            self.shrink_tier(topo, state, tier, &new_tag)
        };
        self.scratch = scratch;
        res
    }

    fn grow_tier(
        &self,
        topo: &mut Topology,
        state: &mut TenantState<Tag>,
        tier: TierId,
        old_tag: &Arc<Tag>,
        new_tag: &Arc<Tag>,
        demand_mix: f64,
        scratch: &mut Scratch,
    ) -> Result<(), RejectReason> {
        let delta = new_tag.tier(tier).size - old_tag.tier(tier).size;
        // Reprice existing reservations under the grown model first: with a
        // larger receiver/sender population, Eq. 1's caps rise on links that
        // hold part of the tier's peers.
        if state.replace_model(topo, Arc::clone(new_tag)).is_err() {
            return Err(RejectReason::InsufficientBandwidth);
        }
        let grown: &Tag = new_tag;
        let spread = self.spread_unit_prices(grown, scratch);
        let mut template = scratch.u32s();
        template.resize(grown.num_tiers(), 0);
        template[tier.index()] = delta;
        let res = self.search(
            topo,
            state,
            grown,
            &template,
            (0, 0),
            0,
            demand_mix,
            &spread,
            scratch,
        );
        scratch.put_u32s(template);
        scratch.put_u64s(spread);
        if res.is_err() {
            // Could not place the delta anywhere: restore the old model
            // (its prices are the ones currently reserved, so this cannot
            // fail).
            #[expect(
                clippy::expect_used,
                reason = "rollback to the exact reserved prices cannot exceed capacity"
            )]
            state
                .replace_model(topo, Arc::clone(old_tag))
                .expect("restoring the pre-growth model frees capacity");
        }
        res
    }

    fn shrink_tier(
        &self,
        topo: &mut Topology,
        state: &mut TenantState<Tag>,
        tier: TierId,
        new_tag: &Arc<Tag>,
    ) -> Result<(), RejectReason> {
        let new_size = new_tag.tier(tier).size;
        let delta = state.model().tier(tier).size - new_size;
        let mut placement: Vec<(NodeId, u32)> = state
            .placement(topo)
            .into_iter()
            .filter_map(|(s, c)| {
                let k = c[tier.index()];
                (k > 0).then_some((s, k))
            })
            .collect();
        let removal = match self.cfg.ha {
            // Guaranteed HA: the shrink must leave the tier within the
            // Eq. 7 cap of its NEW size in every fault domain, so vacate
            // the fullest domains first (water-draining minimizes the
            // final max). A shrink that cannot reach the cap without
            // moving VMs is rejected; the caller can migrate instead.
            HaPolicy::Guaranteed { rwcs, laa_level } => Self::shrink_removal_capped(
                topo,
                &placement,
                tier,
                delta,
                wcs_cap(new_size, rwcs),
                laa_level,
            )?,
            // No HA guarantee: remove from the least-populated servers
            // first, so large colocated blocks (the bandwidth savers)
            // survive.
            HaPolicy::None | HaPolicy::Opportunistic => {
                placement.sort_by_key(|&(s, k)| (k, s));
                let mut removal: Vec<PlacementEntry> = Vec::new();
                let mut left = delta;
                for (server, k) in placement {
                    if left == 0 {
                        break;
                    }
                    let take = k.min(left);
                    removal.push(PlacementEntry {
                        server,
                        tier: tier.index(),
                        count: take,
                    });
                    left -= take;
                }
                assert_eq!(left, 0, "deployment holds fewer VMs than its model");
                removal
            }
        };
        let affected = uplinks_above(topo, removal.iter().map(|e| e.server));
        let mut txn = ReservationTxn::begin(topo, state);
        for e in &removal {
            txn.unplace(e.server, e.tier, e.count);
        }
        // Re-sync the affected links bottom-up — still under the OLD model
        // (counts changed; note that removing VMs can RAISE a hose price
        // when the inside count drops below N/2, so this can fail). Any
        // failure drops the uncommitted transaction, restoring the VMs and
        // reservations exactly.
        for n in affected {
            if txn.sync_uplink(n).is_err() {
                return Err(RejectReason::InsufficientBandwidth);
            }
        }
        if txn.replace_model(Arc::clone(new_tag)).is_err() {
            return Err(RejectReason::InsufficientBandwidth);
        }
        txn.commit();
        Ok(())
    }

    /// Water-drain removal plan for a Guaranteed-HA shrink: remove `delta`
    /// VMs of `tier` one at a time from whichever `laa_level` fault domain
    /// currently holds the most (ties to the smaller domain id; inside a
    /// domain, the least-populated server goes first so colocated blocks
    /// survive). Draining the fullest domains minimizes the final
    /// per-domain maximum, so if the result still exceeds `cap` no
    /// removal-only shrink can satisfy Eq. 7 and the operation is rejected
    /// (a `migrate` can redistribute instead).
    fn shrink_removal_capped(
        topo: &Topology,
        placement: &[(NodeId, u32)],
        tier: TierId,
        delta: u32,
        cap: u32,
        laa_level: u8,
    ) -> Result<Vec<PlacementEntry>, RejectReason> {
        // (domain, server, remaining, removed), servers sorted by
        // (count, id) for the within-domain order.
        let mut rows: Vec<(NodeId, NodeId, u32, u32)> = placement
            .iter()
            .map(|&(s, k)| (fault_domain(topo, s, laa_level), s, k, 0u32))
            .collect();
        rows.sort_by_key(|&(d, s, k, _)| (d, k, s));
        // Per-domain totals, maintained incrementally as VMs drain.
        let mut totals: std::collections::BTreeMap<NodeId, u32> = Default::default();
        for &(d, _, k, _) in &rows {
            *totals.entry(d).or_insert(0) += k;
        }
        for _ in 0..delta {
            #[expect(
                clippy::expect_used,
                reason = "delta <= placed VM count is checked by the caller"
            )]
            let (&max_domain, _) = totals
                .iter()
                .max_by_key(|&(&d, &t)| (t, std::cmp::Reverse(d)))
                .expect("deployment holds fewer VMs than its model");
            #[expect(
                clippy::expect_used,
                reason = "totals only tracks domains with rows, and max total > 0"
            )]
            let row = rows
                .iter_mut()
                .find(|r| r.0 == max_domain && r.2 > 0)
                .expect("the fullest domain has a populated server");
            row.2 -= 1;
            row.3 += 1;
            #[expect(clippy::expect_used, reason = "key came from iterating this map")]
            let total = totals.get_mut(&max_domain).expect("domain tracked");
            *total -= 1;
        }
        if totals.values().any(|&t| t > cap) {
            return Err(RejectReason::InsufficientBandwidth);
        }
        Ok(rows
            .into_iter()
            .filter(|&(_, _, _, removed)| removed > 0)
            .map(|(_, server, _, removed)| PlacementEntry {
                server,
                tier: tier.index(),
                count: removed,
            })
            .collect())
    }

    /// `Alloc(g, st)`: place as much of `need` as possible under `st`,
    /// staged through the transaction; `need` is decremented for every
    /// placed VM. The reservation on `st`'s own uplink is synced before
    /// returning; if that fails, everything this call staged is rolled back
    /// (with `need` restored) and 0 is returned. Otherwise returns the
    /// number of VMs this call placed.
    ///
    /// A call that places nothing stages nothing. On a subtree the tenant
    /// has not touched, such a failure is remembered for the rest of the
    /// search and answered from the failure memo on repeat (see
    /// [`Scratch`]); debug builds still run the call and check it places
    /// nothing.
    fn alloc(
        &self,
        txn: &mut ReservationTxn<'_, Tag>,
        tag: &Tag,
        need: &mut [u32],
        st: NodeId,
        demand_mix: f64,
        spread: &[u64],
        scratch: &mut Scratch,
    ) -> u64 {
        let memo = self.memos_allowed() && txn.state().is_untouched(st);
        if memo && scratch.failed.contains(st, need) {
            scratch.counters.memo_hits += 1;
            #[cfg(debug_assertions)]
            self.assert_places_nothing(txn, tag, need, st, demand_mix, spread, scratch);
            return 0;
        }
        let placed = self.alloc_uncached(txn, tag, need, st, demand_mix, spread, scratch);
        if placed == 0 && memo {
            scratch.failed.insert(st, need);
        }
        placed
    }

    /// [`CmPlacer::alloc`] without the failure memo.
    fn alloc_uncached(
        &self,
        txn: &mut ReservationTxn<'_, Tag>,
        tag: &Tag,
        need: &mut [u32],
        st: NodeId,
        demand_mix: f64,
        spread: &[u64],
        scratch: &mut Scratch,
    ) -> u64 {
        scratch.counters.levels[txn.topo().level(st) as usize].allocs += 1;
        let sp = txn.savepoint();
        let before = need_total(need);
        if txn.topo().is_server(st) {
            self.alloc_on_server(txn, tag, need, st, scratch);
        } else {
            if self.cfg.colocate
                && self.coloc_feasible(txn.topo(), txn.state(), tag, need, st, demand_mix, scratch)
            {
                self.colocate(txn, tag, need, st, demand_mix, spread, scratch);
            }
            if !need_is_zero(need) {
                if self.cfg.balance {
                    self.balance(txn, tag, need, st, demand_mix, spread, scratch);
                } else {
                    self.first_fit(txn, tag, need, st, demand_mix, spread, scratch);
                }
            }
        }
        let placed = before - need_total(need);
        if placed > 0 && txn.sync_uplink(st).is_err() {
            restore_need(txn.rollback_to(sp), need);
            return 0;
        }
        placed
    }

    /// Debug builds: run `Alloc(need)` on `st`, which a shortcut decided
    /// places nothing, and check that it does. The work counters, the
    /// failure memo and the side-sum tables are left as they were, so debug
    /// and release builds count alike.
    #[cfg(debug_assertions)]
    fn assert_places_nothing(
        &self,
        txn: &mut ReservationTxn<'_, Tag>,
        tag: &Tag,
        need: &[u32],
        st: NodeId,
        demand_mix: f64,
        spread: &[u64],
        scratch: &mut Scratch,
    ) {
        let counters = scratch.counters.clone();
        let failed = scratch.failed.clone();
        let sides = scratch.sides.clone();
        let mut probe = scratch.u32s();
        probe.extend_from_slice(need);
        let placed = self.alloc_uncached(txn, tag, &mut probe, st, demand_mix, spread, scratch);
        assert_eq!(
            placed, 0,
            "a shortcut skipped an Alloc on {st} that places VMs"
        );
        scratch.put_u32s(probe);
        scratch.counters = counters;
        scratch.failed = failed;
        scratch.sides = sides;
    }

    /// Whether the failure memo may run: not under Eq. 7 HA, whose caps
    /// read fault-domain counts outside the subtree.
    fn memos_allowed(&self) -> bool {
        !matches!(self.cfg.ha, HaPolicy::Guaranteed { .. })
    }

    /// Server-level allocation: fill free slots with the highest-demand
    /// tiers first (subject to HA headroom).
    fn alloc_on_server(
        &self,
        txn: &mut ReservationTxn<'_, Tag>,
        tag: &Tag,
        need: &mut [u32],
        server: NodeId,
        scratch: &mut Scratch,
    ) {
        let mut left = txn.topo().slots_free(server);
        if left == 0 {
            return;
        }
        let mut order = scratch.idxs();
        order.extend((0..need.len()).filter(|&t| need[t] > 0));
        order.sort_by_key(|&t| std::cmp::Reverse(tag.per_vm_demand(TierId(t as u16))));
        // Chunks are batched into a single staged placement: one slot
        // allocation, one subtree-count path walk (the per-tier Eq. 7
        // headroom is unaffected, each tier appears at most once).
        let mut chunks = scratch.pairs();
        for &t in &order {
            if left == 0 {
                break;
            }
            let head = self.ha_headroom(txn.topo(), txn.state(), tag, server, t);
            let k = need[t].min(left).min(head);
            if k == 0 {
                continue;
            }
            chunks.push((t, k));
            need[t] -= k;
            left -= k;
        }
        #[expect(
            clippy::expect_used,
            reason = "chunks sum to at most the free slots counted above"
        )]
        txn.place_many(server, &chunks)
            .expect("slot count was checked");
        scratch.put_pairs(chunks);
        scratch.put_idxs(order);
    }

    // ------------------------------------------------------------------
    // Colocate
    // ------------------------------------------------------------------

    /// Cheap feasibility gate for `Colocate` (Algorithm 1 line 16): the
    /// Eq. 2/6 size conditions can only hold if more than half of some
    /// hose tier or trunk endpoint can land under a single child, within
    /// HA headroom; under opportunistic HA, colocation must additionally be
    /// *desirable* (§4.5).
    fn coloc_feasible(
        &self,
        topo: &Topology,
        state: &TenantState<Tag>,
        tag: &Tag,
        need: &[u32],
        st: NodeId,
        demand_mix: f64,
        scratch: &mut Scratch,
    ) -> bool {
        if matches!(self.cfg.ha, HaPolicy::Opportunistic)
            && !self.saving_desirable(topo, st, demand_mix)
        {
            return false;
        }
        // The Eq. 2/6 gate asks: does some tier with an internal edge get
        // more than half its VMs under a single child? The per-tier
        // potential is a max over children, and the condition is monotone
        // in it — so scan children and return on the first tier that
        // clears its threshold (same boolean as materializing the full
        // per-tier max first).
        let mut trigger = scratch.u64s();
        trigger.extend(need.iter().map(|_| u64::MAX));
        for e in tag.edges() {
            let fi = e.from.index();
            let ti = e.to.index();
            if e.is_self_loop() {
                trigger[fi] = tag.tier(e.from).size as u64;
            } else if !tag.tier(e.from).external && !tag.tier(e.to).external {
                trigger[fi] = trigger[fi].min(tag.tier(e.from).size as u64);
                trigger[ti] = trigger[ti].min(tag.tier(e.to).size as u64);
            }
        }
        let ha_capped = matches!(self.cfg.ha, HaPolicy::Guaranteed { .. });
        let mut feasible = false;
        'scan: for child in topo.children(st) {
            let slots = topo.subtree_slots_free(child);
            let inside = state.inside_counts_ref(child);
            for (t, &n) in need.iter().enumerate() {
                if n == 0 || trigger[t] == u64::MAX {
                    continue;
                }
                let head = if ha_capped {
                    self.ha_headroom(topo, state, tag, child, t) as u64
                } else {
                    u64::MAX
                };
                let existing = inside.map_or(0, |c| c[t]) as u64;
                let pot = existing + (n as u64).min(slots).min(head);
                if 2 * pot > trigger[t] {
                    feasible = true;
                    break 'scan;
                }
            }
        }
        scratch.put_u64s(trigger);
        feasible
    }

    /// `Colocate(g, st)`: repeatedly pick a verified bandwidth-saving group
    /// of tiers and recurse into the chosen child.
    ///
    /// A child leaves the candidates once it yields no group for the
    /// remainder, or its `Alloc` places nothing (a group on a server is
    /// refused by the uplink pre-check before it is staged, see
    /// [`server_uplink_fits`]).
    fn colocate(
        &self,
        txn: &mut ReservationTxn<'_, Tag>,
        tag: &Tag,
        need: &mut [u32],
        st: NodeId,
        demand_mix: f64,
        spread: &[u64],
        scratch: &mut Scratch,
    ) {
        let mut cands = ColocCands::build(txn.topo(), st, scratch);
        loop {
            let found = self.find_tiers_to_coloc(
                txn.topo(),
                txn.state(),
                tag,
                need,
                &mut cands,
                spread,
                scratch,
            );
            let Some((gsub, child)) = found else { break };
            debug_assert!(gsub.iter().zip(need.iter()).all(|(&g, &n)| g <= n));
            // The child heads the list; its keys change if it takes VMs.
            cands.remove_first(txn.topo(), 1);
            let on_server = txn.topo().is_server(child);
            let placed = if on_server
                && !server_uplink_fits(txn.topo(), txn.state(), child, &gsub, scratch)
            {
                scratch.counters.uplink_prechecked += 1;
                #[cfg(debug_assertions)]
                self.assert_places_nothing(txn, tag, &gsub, child, demand_mix, spread, scratch);
                scratch.put_u32s(gsub);
                0
            } else {
                for (t, &g) in gsub.iter().enumerate() {
                    need[t] -= g;
                }
                let mut sub = gsub;
                let placed = self.alloc(txn, tag, &mut sub, child, demand_mix, spread, scratch);
                for (t, &s) in sub.iter().enumerate() {
                    need[t] += s; // return the unplaced remainder
                }
                scratch.put_u32s(sub);
                if on_server && placed == 0 {
                    scratch.counters.coloc_server_rollbacks += 1;
                }
                placed
            };
            if placed > 0 {
                cands.insert(txn.topo(), child);
            } else {
                #[cfg(debug_assertions)]
                cands.dropped.push(child);
            }
            // With nothing left to place, the next find would only come
            // back empty (`hi` is empty once every `need` entry is zero).
            if need_is_zero(need) {
                break;
            }
        }
        cands.release(scratch);
    }

    /// `FindTiersToColoc`: build the best verified-saving colocation group
    /// for some candidate child of `st`, visiting `cands` in order.
    /// Children that yield no group for the current remainder leave
    /// `cands`; the returned child is left at its head.
    ///
    /// Low-bandwidth tiers (per-VM demand at or below the candidates'
    /// available bandwidth per free slot) are excluded — they are left for
    /// `Balance` to pair with high-bandwidth VMs (§4.4, Fig. 6). Groups are
    /// seeded by the single tier or trunk-edge pair with the largest exact
    /// saving and grown greedily while the marginal saving stays positive.
    fn find_tiers_to_coloc(
        &self,
        topo: &Topology,
        state: &TenantState<Tag>,
        tag: &Tag,
        need: &[u32],
        cands: &mut ColocCands,
        spread: &[u64],
        scratch: &mut Scratch,
    ) -> Option<(Vec<u32>, NodeId)> {
        #[cfg(debug_assertions)]
        cands.check(topo);
        if cands.nodes.is_empty() {
            return None;
        }

        // Low-bandwidth exclusion threshold (computed over all candidates,
        // not only the ones visited, to keep the classification stable) —
        // `per_slot_avail_kbps` from the maintained sums.
        let thr = cands.bw as f64 / cands.slots as f64;
        let mut hi = scratch.idxs();
        hi.extend(
            (0..need.len())
                .filter(|&t| need[t] > 0 && tag.per_vm_demand(TierId(t as u16)) as f64 > thr),
        );
        if hi.is_empty() {
            scratch.put_idxs(hi);
            return None;
        }

        let mut found: Option<(Vec<u32>, NodeId)> = None;
        let mut no_group = 0;
        for &child in &cands.nodes {
            scratch.counters.groups_built += 1;
            if let Some(group) =
                self.build_group(topo, state, tag, need, child, &hi, spread, scratch)
            {
                found = Some((group, child));
                break;
            }
            no_group += 1;
        }
        // Every child visited before the found one yielded no group.
        #[cfg(debug_assertions)]
        cands.dropped.extend_from_slice(&cands.nodes[..no_group]);
        cands.remove_first(topo, no_group);
        scratch.put_idxs(hi);
        found
    }

    /// Grow a colocation group for one child; `None` unless the exact
    /// cut-difference saving is positive.
    ///
    /// Savings are evaluated *incrementally*: adding VMs of tier `t` only
    /// changes the Eq. 1 contribution of edges incident to `t`, so each
    /// candidate's `after` price is a side sum ([`SideSums`]): memoized per
    /// tier for the child's counts, read from the search's table when the
    /// child holds none of the tenant's VMs, and for a trunk-edge pair the
    /// two tiers' sides corrected on the edges they share (the edge and its
    /// twin). The total equals the full cut-difference
    /// [`CutModel::coloc_saving_kbps`] exactly (telescoping over the
    /// incident-edge deltas).
    ///
    /// Note: the exact cut-difference saving can be positive even when
    /// every per-edge Eq. 2/Eq. 4 closed form reports zero — for unbalanced
    /// trunk edges (`N_u·S ≠ N_v·R`), aggregating senders under one uplink
    /// lets the receiver-side cap of Eq. 1's `min()` bind. The closed forms
    /// assume the paper's balanced case; the cut difference is
    /// authoritative.
    fn build_group(
        &self,
        topo: &Topology,
        state: &TenantState<Tag>,
        tag: &Tag,
        need: &[u32],
        child: NodeId,
        hi: &[usize],
        spread_unit: &[u64],
        scratch: &mut Scratch,
    ) -> Option<Vec<u32>> {
        let slots = topo.subtree_slots_free(child).min(u32::MAX as u64) as u32;
        let mut headroom = scratch.u32s();
        headroom.extend((0..need.len()).map(|t| self.ha_headroom(topo, state, tag, child, t)));

        // `cur` = existing + group, mutated in place for candidate probes.
        let mut cur = scratch.u32s();
        state.fill_inside_counts(child, &mut cur);
        let mut group = scratch.u32s();
        group.resize(need.len(), 0);
        let mut used = 0u32;
        let cap = |group: &[u32], headroom: &[u32], t: usize, used: u32| -> u32 {
            (need[t] - group[t])
                .min(slots - used)
                .min(headroom[t].saturating_sub(group[t]))
        };
        let all_edges = tag.edges();
        let mut sides = std::mem::take(&mut scratch.sides);
        sides.start_call(tag, &cur);

        // Every candidate's saving is `k·spread + before − after` over the
        // edges incident to the touched tiers. `cache[e]` holds each edge's
        // crossing at the *current* `cur`, and `isum[t]` the sum over
        // `incident(t)` — so the `before` side of every probe is a lookup,
        // only the `after` side is priced, and `k·spread + before` is a
        // free exact upper bound (crossings are non-negative) that skips
        // provably non-winning candidates outright. All pruning is against
        // the incumbent with the original strict comparisons, so the chosen
        // seed and growth steps are bit-identical to the exhaustive probes.
        let mut cache = scratch.u64s();
        let mut isum = scratch.u64s();
        if sides.cur_empty {
            // Every crossing of an empty subtree is zero (Eq. 1 with no VM
            // inside) — no need to price them.
            cache.resize(all_edges.len(), 0);
            isum.resize(need.len(), 0);
        } else {
            cache.extend((0..all_edges.len()).map(|ei| tag.edge_crossing_idx(ei, &cur)));
            isum.extend((0..need.len()).map(|t| {
                tag.incident_edges(TierId(t as u16))
                    .iter()
                    .map(|&ei| cache[ei as usize])
                    .sum::<u64>()
            }));
        }
        // Exact saving of adding k VMs of tier t.
        let probe_one = |sides: &mut SideSums, cur: &mut [u32], isum: &[u64], t: usize, k: u32| {
            (k as u64 * spread_unit[t] + isum[t]) as i64 - sides.side(tag, cur, t, k) as i64
        };
        // Re-price the edges incident to `t` after `cur` changed for good.
        fn refresh_tier(tag: &Tag, cur: &[u32], cache: &mut [u64], isum: &mut [u64], t: usize) {
            let all_edges = tag.edges();
            for &ei in tag.incident_edges(TierId(t as u16)) {
                let e = &all_edges[ei as usize];
                let new = tag.edge_crossing_idx(ei as usize, cur);
                let old = cache[ei as usize];
                if new != old {
                    cache[ei as usize] = new;
                    let (fi, ti) = (e.from.index(), e.to.index());
                    isum[fi] = isum[fi] - old + new;
                    if ti != fi {
                        isum[ti] = isum[ti] - old + new;
                    }
                }
            }
        }

        // Seed: best single tier or trunk-edge pair by exact saving.
        let mut best_seed: Option<([(usize, u32); 2], i64)> = None;
        for &t in hi {
            let k = cap(&group, &headroom, t, used);
            if k == 0 {
                continue;
            }
            let ub = (k as u64 * spread_unit[t] + isum[t]) as i64;
            if ub <= 0 || best_seed.as_ref().is_some_and(|&(_, bs)| ub <= bs) {
                continue;
            }
            let s = probe_one(&mut sides, &mut cur, &isum, t, k);
            if s > 0 && best_seed.as_ref().is_none_or(|&(_, bs)| s > bs) {
                best_seed = Some(([(t, k), (t, 0)], s));
            }
        }
        let hi_mask: u64 = if need.len() <= 64 {
            hi.iter().fold(0u64, |m, &t| m | 1 << t)
        } else {
            0
        };
        let in_hi = |t: usize| -> bool {
            if need.len() <= 64 {
                hi_mask >> t & 1 == 1
            } else {
                hi.contains(&t)
            }
        };
        for (ei, e) in all_edges.iter().enumerate() {
            if e.is_self_loop() {
                continue;
            }
            let (u, v) = (e.from.index(), e.to.index());
            if !in_hi(u) || !in_hi(v) {
                continue;
            }
            let ku = cap(&group, &headroom, u, used).min(slots / 2 + slots % 2);
            let kv = cap(&group, &headroom, v, ku);
            let ku = cap(&group, &headroom, u, kv); // leftover room back to u
            if ku + kv == 0 {
                continue;
            }
            let spread = ku as u64 * spread_unit[u] + kv as u64 * spread_unit[v];
            let ub = (spread + isum[u] + isum[v]) as i64;
            if ub <= 0 || best_seed.as_ref().is_some_and(|&(_, bs)| ub <= bs) {
                continue;
            }
            // `before` counts the shared edges (this one and its twin) once.
            let shared = cache[ei] + tag.twin(ei).map_or(0, |tw| cache[tw]);
            let before = isum[u] + isum[v] - shared;
            let after = sides.pair(tag, &mut cur, ei, ku, kv);
            let s = spread as i64 + before as i64 - after as i64;
            if s > 0 && best_seed.as_ref().is_none_or(|&(_, bs)| s > bs) {
                best_seed = Some(([(u, ku), (v, kv)], s));
            }
        }
        let Some((seed, _)) = best_seed else {
            scratch.counters.edges_priced += std::mem::take(&mut sides.priced);
            scratch.sides = sides;
            scratch.put_u32s(headroom);
            scratch.put_u32s(cur);
            scratch.put_u32s(group);
            scratch.put_u64s(cache);
            scratch.put_u64s(isum);
            return None;
        };
        for (t, k) in seed {
            if k == 0 {
                continue;
            }
            group[t] += k;
            used += k;
            sides.grow(tag, &mut cur, t, k);
            refresh_tier(tag, &cur, &mut cache, &mut isum, t);
        }

        // Greedy growth while some tier's marginal saving stays positive.
        loop {
            let mut best: Option<(usize, u32, i64)> = None;
            for &t in hi {
                let k = cap(&group, &headroom, t, used);
                if k == 0 {
                    continue;
                }
                let ub = (k as u64 * spread_unit[t] + isum[t]) as i64;
                if ub <= 0 || best.is_some_and(|(_, _, bs)| ub <= bs) {
                    continue;
                }
                let s = probe_one(&mut sides, &mut cur, &isum, t, k);
                if s > 0 && best.is_none_or(|(_, _, bs)| s > bs) {
                    best = Some((t, k, s));
                }
            }
            match best {
                Some((t, k, _)) => {
                    group[t] += k;
                    used += k;
                    sides.grow(tag, &mut cur, t, k);
                    refresh_tier(tag, &cur, &mut cache, &mut isum, t);
                }
                None => break,
            }
        }
        scratch.counters.edges_priced += std::mem::take(&mut sides.priced);
        scratch.sides = sides;
        scratch.put_u32s(headroom);
        scratch.put_u32s(cur);
        scratch.put_u64s(cache);
        scratch.put_u64s(isum);
        Some(group)
    }

    // ------------------------------------------------------------------
    // Balance
    // ------------------------------------------------------------------

    /// `Balance(g, st)`: place the remaining (non-saving) VMs so that each
    /// child's slot and bandwidth utilizations approach 100% together.
    fn balance(
        &self,
        txn: &mut ReservationTxn<'_, Tag>,
        tag: &Tag,
        need: &mut [u32],
        st: NodeId,
        demand_mix: f64,
        spread: &[u64],
        scratch: &mut Scratch,
    ) {
        let mut cands = BalanceCands::build(txn.topo(), st, scratch);
        loop {
            let found = self.md_subset_sum(
                txn.topo(),
                txn.state(),
                tag,
                need,
                st,
                &cands,
                demand_mix,
                scratch,
            );
            let Some((gsub, child)) = found else { break };
            cands.take(child);
            for (t, &g) in gsub.iter().enumerate() {
                need[t] -= g;
            }
            let mut sub = gsub;
            let placed = self.alloc(txn, tag, &mut sub, child, demand_mix, spread, scratch);
            for (t, &s) in sub.iter().enumerate() {
                need[t] += s;
            }
            scratch.put_u32s(sub);
            cands.put_back(txn.topo(), child, placed > 0);
            // A zero `need` makes every further fill empty; the subset-sum
            // scan would return `None` after pricing the whole shortlist.
            if need_is_zero(need) {
                break;
            }
        }
        cands.release(scratch);
    }

    /// `MdSubsetSum`: pick the best child and VM set. Normal mode greedily
    /// fills one child in three dimensions (slots, out-bw, in-bw); under
    /// opportunistic HA with saving undesirable, it returns a single VM for
    /// the child that stays most balanced (§4.5, third modification).
    fn md_subset_sum(
        &self,
        topo: &Topology,
        state: &TenantState<Tag>,
        tag: &Tag,
        need: &[u32],
        st: NodeId,
        cands: &BalanceCands,
        demand_mix: f64,
        scratch: &mut Scratch,
    ) -> Option<(Vec<u32>, NodeId)> {
        #[cfg(debug_assertions)]
        cands.check(topo);
        if cands.ids.is_empty() {
            return None;
        }
        let spread = matches!(self.cfg.ha, HaPolicy::Opportunistic)
            && !self.saving_desirable(topo, st, demand_mix);
        if spread {
            return self.single_vm_pick(topo, state, tag, need, &cands.ids, scratch);
        }

        // Evaluating the greedy fill for every child per Balance iteration
        // is the dominant cost on wide trees; a shortlist of the best
        // candidates by free slots and by available uplink bandwidth keeps
        // the subset-sum quality while bounding the work.
        let mut shortlist = scratch.nodes();
        if cands.ids.len() > 6 {
            shortlist.extend_from_slice(&cands.by_slots[..4]);
            for &c in &cands.by_bw[..4] {
                if !shortlist.contains(&c) {
                    shortlist.push(c);
                }
            }
            #[cfg(debug_assertions)]
            {
                let mut scan = Vec::new();
                top4_by(&cands.ids, &mut scan, |c| by_free_slots(topo, c));
                let mut by_bw = Vec::new();
                top4_by(&cands.ids, &mut by_bw, |c| by_uplink_avail(topo, c));
                for c in by_bw {
                    if !scan.contains(&c) {
                        scan.push(c);
                    }
                }
                debug_assert_eq!(shortlist, scan, "Balance shortlist drifted");
            }
        } else {
            shortlist.extend_from_slice(&cands.ids);
        }

        let mut best: Option<(f64, u64, NodeId, Vec<u32>)> = None;
        for &child in &shortlist {
            let mut sel = scratch.u32s();
            scratch.counters.fills_run += 1;
            let score = self.greedy_fill(topo, state, tag, need, child, &mut sel);
            let placed = need_total(&sel);
            if placed == 0 {
                scratch.put_u32s(sel);
                continue;
            }
            let better = match &best {
                None => true,
                Some((bs, bp, _, _)) => score > *bs || (score == *bs && placed > *bp),
            };
            if better {
                if let Some((_, _, _, old)) = best.take() {
                    scratch.put_u32s(old);
                }
                best = Some((score, placed, child, sel));
            } else {
                scratch.put_u32s(sel);
            }
        }
        scratch.put_nodes(shortlist);
        best.map(|(_, _, c, sel)| (sel, c))
    }

    /// Opportunistic spread: one VM of the heaviest remaining tier, on the
    /// child whose utilization stays lowest after the addition.
    fn single_vm_pick(
        &self,
        topo: &Topology,
        state: &TenantState<Tag>,
        tag: &Tag,
        need: &[u32],
        children: &[NodeId],
        scratch: &mut Scratch,
    ) -> Option<(Vec<u32>, NodeId)> {
        let t = (0..need.len())
            .filter(|&t| need[t] > 0)
            .max_by_key(|&t| tag.per_vm_demand(TierId(t as u16)))?;
        let tid = TierId(t as u16);
        let (snd, rcv) = (tag.per_vm_snd(tid), tag.per_vm_rcv(tid));
        let mut best: Option<(f64, NodeId)> = None;
        for &child in children {
            if self.ha_headroom(topo, state, tag, child, t) == 0 {
                continue;
            }
            let free = topo.subtree_slots_free(child);
            if free == 0 {
                continue;
            }
            let (au, ad) = topo.uplink_avail(child).unwrap_or((u64::MAX, u64::MAX));
            if au < snd || ad < rcv {
                continue;
            }
            let (cu, cd) = topo.uplink_capacity(child).unwrap_or((u64::MAX, u64::MAX));
            let total = topo.subtree_slots_total(child);
            let u_slot = 1.0 - (free - 1) as f64 / total.max(1) as f64;
            let u_up = 1.0 - (au - snd) as f64 / cu.max(1) as f64;
            let u_dn = 1.0 - (ad - rcv) as f64 / cd.max(1) as f64;
            let worst = u_slot.max(u_up).max(u_dn);
            if best.is_none_or(|(b, _)| worst < b) {
                best = Some((worst, child));
            }
        }
        let (_, child) = best?;
        let mut sel = scratch.u32s();
        sel.resize(need.len(), 0);
        sel[t] = 1;
        Some((sel, child))
    }

    /// Greedy 3-D subset-sum fill of one child. Iterates over tiers (not
    /// VMs), at each step adding the chunk that keeps the three utilization
    /// ratios (slots, out-bw, in-bw) most balanced. Writes the selection
    /// into `sel` and returns the child's score `min(u_slot, (u_up+u_dn)/2)` after the fill —
    /// "lead both slot and uplink utilization of child to approach 100%".
    fn greedy_fill(
        &self,
        topo: &Topology,
        state: &TenantState<Tag>,
        tag: &Tag,
        need: &[u32],
        child: NodeId,
        sel: &mut Vec<u32>,
    ) -> f64 {
        let total_slots = topo.subtree_slots_total(child).max(1);
        let mut rem_slots = topo.subtree_slots_free(child);
        let (cap_up, cap_dn) = topo.uplink_capacity(child).unwrap_or((u64::MAX, u64::MAX));
        let (mut rem_up, mut rem_dn) = topo.uplink_avail(child).unwrap_or((u64::MAX, u64::MAX));
        sel.clear();
        sel.resize(need.len(), 0);

        let inv_slots = 1.0 / total_slots as f64;
        let inv_up = 1.0 / cap_up.max(1) as f64;
        let inv_dn = 1.0 / cap_dn.max(1) as f64;
        let util = |rem_slots: u64, rem_up: u64, rem_dn: u64| -> (f64, f64, f64) {
            (
                1.0 - rem_slots as f64 * inv_slots,
                1.0 - rem_up as f64 * inv_up,
                1.0 - rem_dn as f64 * inv_dn,
            )
        };

        loop {
            let mut best: Option<(f64, f64, usize, u32)> = None; // (imbalance, -min_util, tier, k)
            for t in 0..need.len() {
                let avail = need[t] - sel[t];
                if avail == 0 || rem_slots == 0 {
                    continue;
                }
                let tid = TierId(t as u16);
                let (snd, rcv) = (tag.per_vm_snd(tid), tag.per_vm_rcv(tid));
                let head = self
                    .ha_headroom(topo, state, tag, child, t)
                    .saturating_sub(sel[t]);
                let mut k = avail.min(rem_slots.min(u32::MAX as u64) as u32).min(head);
                if let Some(q) = rem_up.checked_div(snd) {
                    k = k.min(q.min(u32::MAX as u64) as u32);
                }
                if let Some(q) = rem_dn.checked_div(rcv) {
                    k = k.min(q.min(u32::MAX as u64) as u32);
                }
                if k == 0 {
                    continue;
                }
                let (us, uu, ud) = util(
                    rem_slots - k as u64,
                    rem_up - k as u64 * snd,
                    rem_dn - k as u64 * rcv,
                );
                let imbalance = us.max(uu).max(ud) - us.min(uu).min(ud);
                let min_util = us.min(uu).min(ud);
                let cand = (imbalance, -min_util, t, k);
                if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                    best = Some(cand);
                }
            }
            match best {
                Some((_, _, t, k)) => {
                    let tid = TierId(t as u16);
                    sel[t] += k;
                    rem_slots -= k as u64;
                    rem_up -= k as u64 * tag.per_vm_snd(tid);
                    rem_dn -= k as u64 * tag.per_vm_rcv(tid);
                }
                None => break,
            }
        }
        let (us, uu, ud) = util(rem_slots, rem_up, rem_dn);
        us.min((uu + ud) / 2.0)
    }

    /// Plain slot-first-fit used when `Balance` is disabled (Fig. 10's
    /// Coloc-only ablation).
    fn first_fit(
        &self,
        txn: &mut ReservationTxn<'_, Tag>,
        tag: &Tag,
        need: &mut [u32],
        st: NodeId,
        demand_mix: f64,
        spread: &[u64],
        scratch: &mut Scratch,
    ) {
        let mut children = scratch.nodes();
        children.extend(txn.topo().children(st));
        children.sort_by_key(|&c| (std::cmp::Reverse(txn.topo().subtree_slots_free(c)), c));
        for &child in &children {
            if need_is_zero(need) {
                break;
            }
            let slots = txn.topo().subtree_slots_free(child).min(u32::MAX as u64) as u32;
            if slots == 0 {
                continue;
            }
            let mut gsub = scratch.u32s();
            gsub.resize(need.len(), 0);
            let mut used = 0;
            for t in 0..need.len() {
                let head = self.ha_headroom(txn.topo(), txn.state(), tag, child, t);
                let k = need[t].min(slots - used).min(head);
                gsub[t] = k;
                used += k;
                if used == slots {
                    break;
                }
            }
            if used == 0 {
                scratch.put_u32s(gsub);
                continue;
            }
            for (t, &g) in gsub.iter().enumerate() {
                need[t] -= g;
            }
            let mut sub = gsub;
            self.alloc(txn, tag, &mut sub, child, demand_mix, spread, scratch);
            for (t, &s) in sub.iter().enumerate() {
                need[t] += s;
            }
            scratch.put_u32s(sub);
        }
        scratch.put_nodes(children);
    }

    // ------------------------------------------------------------------
    // HA helpers
    // ------------------------------------------------------------------

    /// Eq. 7 headroom: how many more VMs of `tier` may be placed under
    /// `node` without violating the guaranteed-WCS cap of the fault domain
    /// ([`fault_domain`]) containing it. Unbounded when no guarantee
    /// applies.
    fn ha_headroom(
        &self,
        topo: &Topology,
        state: &TenantState<Tag>,
        tag: &Tag,
        node: NodeId,
        tier: usize,
    ) -> u32 {
        let HaPolicy::Guaranteed { rwcs, laa_level } = self.cfg.ha else {
            return u32::MAX;
        };
        if topo.level(node) > laa_level {
            return u32::MAX;
        }
        let n = tag.tiers()[tier].size;
        if tag.tiers()[tier].external {
            return u32::MAX;
        }
        let domain = fault_domain(topo, node, laa_level);
        wcs_cap(n, rwcs).saturating_sub(state.count_of(domain, tier))
    }

    /// §4.5 desirability: saving on `st`'s children uplinks is worthwhile
    /// iff their available bandwidth per unallocated slot is below the
    /// (EWMA-blended) per-VM demand.
    fn saving_desirable(&self, topo: &Topology, st: NodeId, demand_mix: f64) -> bool {
        match per_slot_avail_kbps(topo, topo.children(st)) {
            Some(per_slot) => per_slot < demand_mix,
            None => true, // no free slots below: moot, let recursion fail
        }
    }

    /// Starting level for `FindLowestSubtree`:
    /// * guaranteed HA forces `laa_level + 1` whenever some tier's Eq. 7 cap
    ///   is below its size (placing the whole tenant inside one fault domain
    ///   would violate it);
    /// * opportunistic HA starts at the lowest level where bandwidth saving
    ///   is desirable (§4.5, second modification) — evaluated O(1) per level
    ///   from the topology's per-level availability caches;
    /// * otherwise the server level.
    fn start_level(&self, topo: &Topology, tag: &Tag, demand_mix: f64) -> u8 {
        match self.cfg.ha {
            HaPolicy::None => 0,
            HaPolicy::Guaranteed { rwcs, laa_level } => {
                let needs_spread = tag
                    .internal_tiers()
                    .any(|t| wcs_cap(tag.tier(t).size, rwcs) < tag.tier(t).size);
                if needs_spread {
                    laa_level
                        .saturating_add(1)
                        .min((topo.num_levels() - 1) as u8)
                } else {
                    0
                }
            }
            HaPolicy::Opportunistic => {
                let top = (topo.num_levels() - 1) as u8;
                // Every level partitions the servers, so the level's free
                // slots are the root's; the bandwidth numerator is the
                // incrementally-maintained per-level half-sum (bit-identical
                // to the per-node scan it replaces).
                let slots = topo.subtree_slots_free(topo.root());
                for l in 0..top {
                    if slots == 0 {
                        break;
                    }
                    let per_slot = topo.avail_half_sum_at_level(l as usize) as f64 / slots as f64;
                    if per_slot < demand_mix {
                        return l;
                    }
                }
                top
            }
        }
    }
}

impl Placer for CmPlacer {
    fn name(&self) -> &'static str {
        self.label
    }

    fn place(&mut self, topo: &mut Topology, tag: &Tag) -> Result<Deployed, RejectReason> {
        self.place_tag(topo, tag).map(Deployed::from)
    }

    fn place_shared(
        &mut self,
        topo: &mut Topology,
        tag: &Arc<Tag>,
    ) -> Result<Deployed, RejectReason> {
        self.place_tag_shared(topo, tag).map(Deployed::from)
    }

    fn place_incremental(
        &mut self,
        topo: &mut Topology,
        deployed: &mut Deployed,
        new_tag: &Arc<Tag>,
        tier: TierId,
        new_size: u32,
    ) -> Result<(), RejectReason> {
        // Exact incremental scaling: CloudMirror prices deployments on the
        // TAG itself, so only the delta VMs move — existing placement stays
        // put and every touched link is repriced under the resized model
        // (see [`CmPlacer::scale_tier`]). Non-TAG handles (impossible for
        // deployments this placer produced) fall back to the generic
        // re-place path.
        let _ = new_size;
        match deployed.tag_state_mut() {
            Some(state) => self.scale_tier_shared(topo, state, tier, new_tag),
            None => place_incremental_replace(self, topo, deployed, new_tag),
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TagBuilder;
    use cm_topology::{mbps, TreeSpec};
    use proptest::prelude::*;

    fn topo_small() -> Topology {
        // 2 pods × 2 racks × 4 servers, 4 slots each; 1 G NICs, 2 G ToR,
        // 4 G agg.
        Topology::build(&TreeSpec::small(
            2,
            2,
            4,
            4,
            [mbps(1000.0), mbps(2000.0), mbps(4000.0)],
        ))
    }

    fn hose(n: u32, sr: u64) -> Tag {
        let mut b = TagBuilder::new("hose");
        let t = b.tier("t", n);
        b.self_loop(t, sr).unwrap();
        b.build().unwrap()
    }

    fn three_tier(n: u32, b1: u64, b2: u64, b3: u64) -> Tag {
        let mut b = TagBuilder::new("web3");
        let web = b.tier("web", n);
        let logic = b.tier("logic", n);
        let db = b.tier("db", n);
        b.sym_edge(web, logic, b1).unwrap();
        b.sym_edge(logic, db, b2).unwrap();
        b.self_loop(db, b3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn places_simple_hose_tenant() {
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm());
        let tag = hose(4, mbps(100.0));
        let state = placer.place_tag(&mut topo, &tag).expect("should fit");
        assert_eq!(state.total_placed(&topo), 4);
        state.check_consistency(&topo).unwrap();
        topo.check_invariants().unwrap();
    }

    #[test]
    fn hose_tenant_colocates_onto_one_server() {
        // 4 VMs fit one server; colocation saves the whole hose bandwidth,
        // so nothing is reserved anywhere.
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm());
        let tag = hose(4, mbps(100.0));
        let state = placer.place_tag(&mut topo, &tag).unwrap();
        let placement = state.placement(&topo);
        assert_eq!(placement.len(), 1, "all VMs on one server");
        for l in 0..topo.num_levels() {
            assert_eq!(topo.reserved_at_level(l), (0, 0));
        }
    }

    #[test]
    fn release_restores_everything() {
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm());
        let tag = three_tier(3, mbps(100.0), mbps(50.0), mbps(20.0));
        let mut state = placer.place_tag(&mut topo, &tag).unwrap();
        assert_eq!(state.total_placed(&topo), 9);
        state.clear(&mut topo);
        assert_eq!(topo.subtree_slots_free(topo.root()), 16 * 4);
        for l in 0..topo.num_levels() {
            assert_eq!(topo.reserved_at_level(l), (0, 0));
        }
        topo.check_invariants().unwrap();
    }

    #[test]
    fn rejects_when_no_slots() {
        let mut topo = topo_small(); // 64 slots
        let mut placer = CmPlacer::new(CmConfig::cm());
        let tag = hose(65, 1);
        assert_eq!(
            placer.place_tag(&mut topo, &tag).err(),
            Some(RejectReason::InsufficientSlots)
        );
        topo.check_invariants().unwrap();
        assert_eq!(topo.subtree_slots_free(topo.root()), 64);
    }

    #[test]
    fn rejects_on_bandwidth_and_leaves_no_trace() {
        // A 2-tier trunk demanding more than the NIC can carry per VM
        // cannot be placed (each tier is far bigger than a server, so
        // cross-server traffic is unavoidable).
        let mut topo = topo_small();
        let baseline = topo.subtree_slots_free(topo.root());
        let mut placer = CmPlacer::new(CmConfig::cm());
        let mut b = TagBuilder::new("heavy");
        let u = b.tier("u", 20);
        let v = b.tier("v", 20);
        b.sym_edge(u, v, mbps(800.0)).unwrap(); // per-VM 1.6 G > 1 G NIC
        let tag = b.build().unwrap();
        assert_eq!(
            placer.place_tag(&mut topo, &tag).err(),
            Some(RejectReason::InsufficientBandwidth)
        );
        assert_eq!(topo.subtree_slots_free(topo.root()), baseline);
        for l in 0..topo.num_levels() {
            assert_eq!(topo.reserved_at_level(l), (0, 0));
        }
    }

    #[test]
    fn a_tag_that_overflows_eq1_is_refused_untouched() {
        // One trunk with S = R = 2^61 + 1 kbps: with 8 VMs on a side,
        // 8 · (2^61 + 1) wraps a u64, so Eq. 1 cannot price the TAG.
        let spec = TreeSpec::small(2, 2, 2, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]);
        let mut topo = Topology::build(&spec);
        let mut b = TagBuilder::new("wide");
        let a = b.tier("a", 1);
        let c = b.tier("c", 1);
        b.edge(a, c, (1 << 61) + 1, (1 << 61) + 1).unwrap();
        let fits = Arc::new(b.build().unwrap());
        let hostile = Arc::new(fits.resized(a, 8).resized(c, 8));
        assert_eq!(hostile.cut_bound_kbps(), None);
        let overflow = Some(RejectReason::GuaranteesOverflow);
        let mut placer = CmPlacer::new(CmConfig::cm());
        assert_eq!(placer.place(&mut topo, &hostile).err(), overflow);
        assert_eq!(placer.place_shared(&mut topo, &hostile).err(), overflow);
        assert_eq!(topo.slots_in_use(), 0);
        // Both VMs of the TAG that fits share a server; growing a side to
        // 8 VMs overflows.
        let mut deployed = placer.place_shared(&mut topo, &fits).unwrap();
        let placed = deployed.placement(&topo);
        let grown = Arc::new(fits.resized(a, 8));
        assert_eq!(grown.cut_bound_kbps(), None);
        let res = placer.place_incremental(&mut topo, &mut deployed, &grown, a, 8);
        assert_eq!(res.err(), overflow);
        assert_eq!(deployed.placement(&topo), placed);
        assert_eq!(topo.slots_in_use(), 2);
        for l in 0..topo.num_levels() {
            assert_eq!(topo.reserved_at_level(l), (0, 0));
        }
        topo.check_invariants().unwrap();
    }

    #[test]
    fn trunk_pair_colocated_to_save_bandwidth() {
        // web(2) <-> logic(2) with heavy traffic: CM should put all 4 VMs
        // under one server (slots 4), zeroing reservations.
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm());
        let mut b = TagBuilder::new("pair");
        let u = b.tier("u", 2);
        let v = b.tier("v", 2);
        b.sym_edge(u, v, mbps(300.0)).unwrap();
        let tag = b.build().unwrap();
        let state = placer.place_tag(&mut topo, &tag).unwrap();
        assert_eq!(state.placement(&topo).len(), 1);
        assert_eq!(topo.reserved_at_level(0), (0, 0));
    }

    #[test]
    fn guaranteed_ha_respects_eq7_cap() {
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm_ha(0.5));
        let tag = hose(8, mbps(10.0));
        let state = placer.place_tag(&mut topo, &tag).unwrap();
        // No server may hold more than max(1, ⌊8·0.5⌋) = 4 VMs.
        for (_, counts) in state.placement(&topo) {
            assert!(counts[0] <= 4);
        }
        let wcs = state.wcs_at_level(&topo, 0);
        assert!(wcs[0].unwrap() >= 0.5);
    }

    #[test]
    fn guaranteed_ha_rwcs75_spreads_wider() {
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm_ha(0.75));
        let tag = hose(8, mbps(10.0));
        let state = placer.place_tag(&mut topo, &tag).unwrap();
        for (_, counts) in state.placement(&topo) {
            assert!(counts[0] <= 2);
        }
        assert!(state.wcs_at_level(&topo, 0)[0].unwrap() >= 0.75);
    }

    #[test]
    fn opportunistic_ha_spreads_when_bandwidth_plentiful() {
        // Tiny demand vs 1 G NICs: saving is undesirable, VMs spread out.
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm_opp_ha());
        let tag = hose(8, mbps(1.0));
        let state = placer.place_tag(&mut topo, &tag).unwrap();
        let placement = state.placement(&topo);
        assert!(
            placement.len() >= 4,
            "expected spread, got {} servers",
            placement.len()
        );
        // All guarantees still hold (consistency implies reservations match
        // the cut prices).
        state.check_consistency(&topo).unwrap();
    }

    #[test]
    fn singleton_tiers_always_placeable_under_ha() {
        // Eq. 7's max(1, ·) lets single-VM tiers through even at RWCS 75%.
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm_ha(0.75));
        let mut b = TagBuilder::new("tiny");
        let u = b.tier("u", 1);
        let v = b.tier("v", 1);
        b.sym_edge(u, v, mbps(5.0)).unwrap();
        let tag = b.build().unwrap();
        placer.place_tag(&mut topo, &tag).unwrap();
    }

    #[test]
    fn fig6_balance_beats_blind_colocation() {
        // Paper Fig. 6: rack of 4 servers × 2 slots, 10 Mbps NICs. Request:
        // A (2 VMs, hose 4), B (2 VMs, hose 4), C (4 VMs, hose 6) — total
        // 8 VMs, 40 Mbps demand. Blindly colocating A and B (Fig. 6(c))
        // strands C with 12 Mbps on two NICs; the balanced placement of
        // Fig. 6(d) pairs one C VM with one low-bandwidth VM per server,
        // hitting exactly 10 Mbps per NIC.
        let mut topo = Topology::build(&TreeSpec::fig6_rack());
        let mut placer = CmPlacer::new(CmConfig::cm());
        let mut b = TagBuilder::new("fig6");
        let a = b.tier("A", 2);
        let bb = b.tier("B", 2);
        let c = b.tier("C", 4);
        b.self_loop(a, mbps(4.0)).unwrap();
        b.self_loop(bb, mbps(4.0)).unwrap();
        b.self_loop(c, mbps(6.0)).unwrap();
        let tag = b.build().unwrap();
        let state = placer
            .place_tag(&mut topo, &tag)
            .expect("balanced placement must fit (Fig. 6(d))");
        state.check_consistency(&topo).unwrap();
        // Two C VMs on one server would need min(2,2)·6 = 12 Mbps through a
        // 10 Mbps NIC — the capacity check forbids it, so each server holds
        // at most one C VM.
        for (_, counts) in state.placement(&topo) {
            assert!(counts[2] <= 1);
        }
        topo.check_invariants().unwrap();
    }

    #[test]
    fn fig6_colocation_only_variant_rejects() {
        // With Balance disabled (Coloc + first-fit), the Fig. 6 request
        // degenerates: A and B colocate per-server (saving their hoses) and
        // C's four VMs are forced to double up — 12 Mbps > 10 Mbps NIC —
        // so the request bounces, exactly the failure mode of Fig. 6(c).
        let mut topo = Topology::build(&TreeSpec::fig6_rack());
        let mut placer = CmPlacer::new(CmConfig::coloc_only());
        let mut b = TagBuilder::new("fig6");
        let a = b.tier("A", 2);
        let bb = b.tier("B", 2);
        let c = b.tier("C", 4);
        b.self_loop(a, mbps(4.0)).unwrap();
        b.self_loop(bb, mbps(4.0)).unwrap();
        b.self_loop(c, mbps(6.0)).unwrap();
        let tag = b.build().unwrap();
        let result = placer.place_tag(&mut topo, &tag);
        assert_eq!(result.err(), Some(RejectReason::InsufficientBandwidth));
        topo.check_invariants().unwrap();
    }

    #[test]
    fn big_tenant_spans_levels() {
        // 40 VMs > one rack (16 slots): needs a pod or more.
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm());
        let tag = hose(40, mbps(5.0));
        let state = placer.place_tag(&mut topo, &tag).unwrap();
        assert_eq!(state.total_placed(&topo), 40);
        state.check_consistency(&topo).unwrap();
        topo.check_invariants().unwrap();
    }

    #[test]
    fn ablation_variants_still_place() {
        for cfg in [CmConfig::coloc_only(), CmConfig::balance_only()] {
            let mut topo = topo_small();
            let mut placer = CmPlacer::new(cfg);
            let tag = three_tier(4, mbps(50.0), mbps(25.0), mbps(10.0));
            let state = placer.place_tag(&mut topo, &tag).unwrap();
            assert_eq!(state.total_placed(&topo), 12);
            state.check_consistency(&topo).unwrap();
        }
    }

    #[test]
    fn scale_tier_grows_a_live_deployment() {
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm());
        let tag = three_tier(3, mbps(50.0), mbps(20.0), mbps(10.0));
        let mut state = placer.place_tag(&mut topo, &tag).unwrap();
        placer
            .scale_tier(&mut topo, &mut state, TierId(0), 8)
            .unwrap();
        assert_eq!(state.total_placed(&topo), 8 + 3 + 3);
        assert_eq!(state.model().tier(TierId(0)).size, 8);
        state.check_consistency(&topo).unwrap();
        topo.check_invariants().unwrap();
        // Per-VM guarantees unchanged by scaling (§3).
        assert_eq!(state.model().edges(), tag.edges());
        state.clear(&mut topo);
        assert_eq!(topo.subtree_slots_free(topo.root()), 64);
    }

    #[test]
    fn scale_tier_shrinks_and_releases_resources() {
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm());
        let tag = hose(12, mbps(20.0));
        let mut state = placer.place_tag(&mut topo, &tag).unwrap();
        let before = topo.subtree_slots_free(topo.root());
        placer
            .scale_tier(&mut topo, &mut state, TierId(0), 5)
            .unwrap();
        assert_eq!(state.total_placed(&topo), 5);
        assert_eq!(topo.subtree_slots_free(topo.root()), before + 7);
        state.check_consistency(&topo).unwrap();
        state.clear(&mut topo);
        topo.check_invariants().unwrap();
    }

    #[test]
    fn scale_tier_failure_leaves_deployment_untouched() {
        let mut topo = topo_small(); // 64 slots
        let mut placer = CmPlacer::new(CmConfig::cm());
        let tag = hose(10, mbps(20.0));
        let mut state = placer.place_tag(&mut topo, &tag).unwrap();
        let snapshot_reserved = state.total_reserved_kbps();
        let snapshot_slots = topo.subtree_slots_free(topo.root());
        // Growing past the datacenter's slot capacity must fail cleanly.
        assert_eq!(
            placer
                .scale_tier(&mut topo, &mut state, TierId(0), 200)
                .err(),
            Some(RejectReason::InsufficientSlots)
        );
        assert_eq!(state.total_placed(&topo), 10);
        assert_eq!(state.model().tier(TierId(0)).size, 10);
        assert_eq!(state.total_reserved_kbps(), snapshot_reserved);
        assert_eq!(topo.subtree_slots_free(topo.root()), snapshot_slots);
        state.check_consistency(&topo).unwrap();
    }

    #[test]
    fn scale_tier_noop_and_repeated_cycles() {
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm());
        let tag = three_tier(2, mbps(30.0), mbps(10.0), mbps(5.0));
        let mut state = placer.place_tag(&mut topo, &tag).unwrap();
        placer
            .scale_tier(&mut topo, &mut state, TierId(1), 2)
            .unwrap(); // no-op
        for _ in 0..3 {
            placer
                .scale_tier(&mut topo, &mut state, TierId(1), 6)
                .unwrap();
            placer
                .scale_tier(&mut topo, &mut state, TierId(1), 2)
                .unwrap();
            state.check_consistency(&topo).unwrap();
        }
        state.clear(&mut topo);
        for l in 0..topo.num_levels() {
            assert_eq!(topo.reserved_at_level(l), (0, 0));
        }
    }

    #[test]
    fn sequential_tenants_share_the_datacenter() {
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm());
        let mut states = Vec::new();
        for i in 0..8 {
            let tag = hose(6, mbps(20.0 + i as f64));
            states.push(placer.place_tag(&mut topo, &tag).unwrap());
        }
        assert_eq!(topo.subtree_slots_free(topo.root()), 64 - 48);
        for s in &states {
            s.check_consistency(&topo).unwrap();
        }
        // Release every other tenant and verify the ledger stays exact.
        for (i, s) in states.iter_mut().enumerate() {
            if i % 2 == 0 {
                s.clear(&mut topo);
            }
        }
        assert_eq!(topo.subtree_slots_free(topo.root()), 64 - 24);
        topo.check_invariants().unwrap();
    }

    #[test]
    fn counters_account_for_every_level_every_search_visits() {
        // Every search starts at the server level and ends placed at some
        // level, or rejected at the root; each level it visits ends in
        // exactly one of placed / slots / bandwidth.
        let mut topo = topo_small();
        let mut placer = CmPlacer::new(CmConfig::cm());
        let (mut admitted, mut rejected) = (0u64, 0u64);
        for i in 0..40u32 {
            let tag = if i % 3 == 0 {
                three_tier(1 + i % 5, mbps(150.0), mbps(90.0), mbps(40.0))
            } else {
                hose(1 + i % 13, mbps(30.0 + 10.0 * (i % 7) as f64))
            };
            match placer.place_tag(&mut topo, &tag) {
                Ok(_) => admitted += 1,
                Err(_) => rejected += 1,
            }
        }
        assert!(
            admitted > 0 && rejected > 0,
            "{admitted} admitted, {rejected} rejected"
        );
        let c = placer.counters();
        let levels = topo.num_levels() as u64;
        let placed: u64 = c.levels.iter().map(|l| l.placed).sum();
        let ended: u64 = c
            .levels
            .iter()
            .map(|l| l.placed + l.slots + l.bandwidth)
            .sum();
        let visited: u64 = rejected * levels
            + (c.levels.iter().enumerate())
                .map(|(l, lc)| lc.placed * (l as u64 + 1))
                .sum::<u64>();
        assert_eq!(placed, admitted);
        assert_eq!(ended, visited);
        for l in &c.levels {
            assert!(l.placed <= l.attempts && l.attempts <= l.placed + l.bandwidth);
            assert!(l.attempts <= l.allocs);
        }
        assert_eq!(c.coloc_server_rollbacks, 0);
    }

    /// SplitMix64, for deriving one random scenario from a proptest seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A random two-tier TAG: hose tiers of 2–8 VMs joined by a trunk,
    /// 20–420 Mbps per VM and edge.
    fn random_tag(rng: &mut Rng) -> Tag {
        let mut b = TagBuilder::new("t");
        let u = b.tier("u", 2 + rng.below(7) as u32);
        let v = b.tier("v", 2 + rng.below(7) as u32);
        if rng.below(2) == 0 {
            b.self_loop(u, mbps(20.0 + rng.below(400) as f64)).unwrap();
        }
        if rng.below(2) == 0 {
            b.self_loop(v, mbps(20.0 + rng.below(400) as f64)).unwrap();
        }
        let (snd, rcv) = (rng.below(400) as f64, rng.below(400) as f64);
        b.edge(u, v, mbps(20.0 + snd), mbps(20.0 + rcv)).unwrap();
        b.build().unwrap()
    }

    /// Stage random VM counts of `state`'s tiers on random servers, each
    /// server with its path reserved, and commit what fits.
    fn load(topo: &mut Topology, state: &mut TenantState<Tag>, rng: &mut Rng, servers: u64) {
        for _ in 0..1 + rng.below(4) {
            let server = topo.servers()[rng.below(servers) as usize];
            let tier = rng.below(2) as usize;
            let free = topo.slots_free(server) as u64;
            let room =
                state.model().tier_size(tier) as u64 - state.count_of(topo.root(), tier) as u64;
            let k = rng.below(free.min(room) + 1) as u32;
            let mut txn = ReservationTxn::begin(topo, state);
            txn.place(server, tier, k).unwrap();
            if txn.sync_path_to_root(server).is_ok() {
                txn.commit();
            }
        }
    }

    /// A random TAG of 2–6 internal tiers of 1–9 VMs plus up to two
    /// external ones (sized or unbounded): every ordered pair of distinct
    /// tiers gets an edge with probability 2/5 (so one- and two-way
    /// trunks), every internal tier a self-loop with probability 1/2.
    fn random_wide_tag(rng: &mut Rng) -> Tag {
        let mut b = TagBuilder::new("wide");
        let mut tiers = Vec::new();
        for i in 0..2 + rng.below(5) {
            tiers.push(b.tier(format!("t{i}"), 1 + rng.below(9) as u32));
        }
        for i in 0..rng.below(3) {
            tiers.push(match rng.below(2) {
                0 => b.external(format!("x{i}")),
                _ => b.external_sized(format!("x{i}"), 1 + rng.below(6) as u32),
            });
        }
        let rate = |rng: &mut Rng| mbps(rng.below(300) as f64);
        for &u in &tiers {
            for &v in &tiers {
                if u != v && rng.below(5) < 2 {
                    b.edge(u, v, rate(rng), rate(rng)).unwrap();
                }
            }
            if rng.below(2) == 0 {
                let _ = b.self_loop(u, rate(rng)); // refused on external tiers
            }
        }
        b.build().unwrap()
    }

    /// Eq. 1 crossings at `inside` of every edge with an endpoint in
    /// `tiers`, each edge once — read off the edge list, not the incident
    /// lists or twins the placer uses.
    fn crossings_touching(tag: &Tag, inside: &[u32], tiers: &[usize]) -> u64 {
        (tag.edges().iter())
            .filter(|e| tiers.contains(&e.from.index()) || tiers.contains(&e.to.index()))
            .map(|e| tag.edge_crossing_kbps(e, inside))
            .sum()
    }

    /// `inside` with `k` more VMs of tier `t`.
    fn plus(inside: &[u32], t: usize, k: u32) -> Vec<u32> {
        let mut v = inside.to_vec();
        v[t] += k;
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Side sums price exactly what the full incident walks price: on
        /// random TAGs, every pair probe of a trunk edge equals the
        /// crossings of both tiers' edges with both grown, and every side
        /// equals its tier's crossings with the tier grown — for empty
        /// children (the search's table) and partly filled ones (the
        /// per-call memo), across growth steps — and every entry the
        /// empty-subtree table kept equals a fresh pricing.
        #[test]
        fn side_sums_equal_the_incident_walks(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let tag = random_wide_tag(&mut rng);
            let n = tag.num_tiers();
            let size = |t: usize| CutModel::tier_size(&tag, t);
            let trunks: Vec<usize> = (0..tag.edges().len())
                .filter(|&ei| !tag.edges()[ei].is_self_loop())
                .collect();
            let mut sides = SideSums::default();
            sides.start_search(&tag);
            for _ in 0..6 {
                let mut cur: Vec<u32> = (0..n)
                    .map(|t| match rng.below(2) {
                        0 => 0,
                        _ => rng.below(size(t) as u64 + 1) as u32,
                    })
                    .collect();
                sides.start_call(&tag, &cur);
                for _ in 0..3 {
                    let room = |cur: &[u32], t: usize| size(t) - cur[t];
                    for _ in 0..12 {
                        let t = rng.below(n as u64) as usize;
                        let k = rng.below(room(&cur, t) as u64 + 1) as u32;
                        let want = crossings_touching(&tag, &plus(&cur, t, k), &[t]);
                        prop_assert_eq!(sides.side(&tag, &mut cur, t, k), want);
                        if trunks.is_empty() {
                            continue;
                        }
                        let ei = trunks[rng.below(trunks.len() as u64) as usize];
                        let (u, v) = (tag.edges()[ei].from.index(), tag.edges()[ei].to.index());
                        let ku = rng.below(room(&cur, u) as u64 + 1) as u32;
                        let kv = rng.below(room(&cur, v) as u64 + 1) as u32;
                        let both = plus(&plus(&cur, u, ku), v, kv);
                        let want = crossings_touching(&tag, &both, &[u, v]);
                        let got = sides.pair(&tag, &mut cur, ei, ku, kv);
                        prop_assert_eq!(got, want, "edge {} ku {} kv {} at {:?}", ei, ku, kv, cur);
                    }
                    let t = rng.below(n as u64) as usize;
                    let k = rng.below(room(&cur, t) as u64 + 1) as u32;
                    sides.grow(&tag, &mut cur, t, k);
                }
            }
            let empty = vec![0; n];
            for t in 0..n {
                for k in 0..=size(t) {
                    if let Some(&mut Some(sum)) = sides.empty.slot(t, k) {
                        let want = crossings_touching(&tag, &plus(&empty, t, k), &[t]);
                        prop_assert_eq!(sum, want, "table entry side({}, {})", t, k);
                    }
                }
            }
        }

        /// The Colocate uplink pre-check decides a server's sync exactly:
        /// `server_uplink_fits` equals staging the group in a transaction,
        /// syncing the server's uplink and rolling back — on randomly
        /// loaded trees where the tenant may already hold VMs on the
        /// server and a server uplink is degraded below its reservations.
        #[test]
        fn uplink_precheck_equals_staged_sync(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let mut topo = Topology::build(&TreeSpec::small(
                1,
                2,
                4,
                6,
                [mbps(1000.0), mbps(2000.0), mbps(4000.0)],
            ));
            let servers = topo.servers().len() as u64;
            let mut others: Vec<TenantState<Tag>> = Vec::new();
            for _ in 0..rng.below(5) {
                let mut st = TenantState::new(random_tag(&mut rng));
                load(&mut topo, &mut st, &mut rng, servers);
                others.push(st);
            }
            let mut state = TenantState::new(random_tag(&mut rng));
            load(&mut topo, &mut state, &mut rng, servers);
            let degraded = topo.servers()[rng.below(servers) as usize];
            #[expect(
                clippy::disallowed_methods,
                reason = "the degraded uplink is the case under test, not a fault scenario"
            )]
            topo.degrade_link(degraded, rng.below(60) as f64 / 100.0).unwrap();
            let mut scratch = Scratch::default();
            for i in 0..servers as usize {
                let server = topo.servers()[i];
                let free = topo.slots_free(server) as u64;
                for _ in 0..4 {
                    let gu = rng.below(free + 1) as u32;
                    let gv = rng.below(free - gu as u64 + 1) as u32;
                    let group = [gu, gv];
                    let fits = server_uplink_fits(&topo, &state, server, &group, &mut scratch);
                    let staged = {
                        let mut txn = ReservationTxn::begin(&mut topo, &mut state);
                        txn.place_many(server, &[(0, gu), (1, gv)]).unwrap();
                        txn.sync_uplink(server).is_ok()
                    };
                    prop_assert_eq!(fits, staged, "server {} group {:?}", server, group);
                }
            }
            topo.check_invariants().unwrap();
        }
    }
}
