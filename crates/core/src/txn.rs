//! Transactional staging of placement and reservation changes.
//!
//! Every placement algorithm mutates the same two ledgers — VM slots on the
//! [`Topology`](cm_topology::Topology) and per-uplink bandwidth in a [`TenantState`](crate::reserve::TenantState) — and every
//! algorithm needs the same guarantee: *a failed attempt leaves both
//! exactly as they were*. The seed implementations each hand-rolled that
//! (placement maps, `rollback_map`, "re-sync affected links" loops);
//! [`ReservationTxn`] replaces all of them with one undo log.
//!
//! A transaction borrows the topology and the tenant state for its whole
//! lifetime, so every mutation inside the attempt is forced through it:
//!
//! * [`ReservationTxn::place`] / [`ReservationTxn::unplace`] stage slot and
//!   subtree-count deltas;
//! * [`ReservationTxn::sync_uplink`] / [`ReservationTxn::sync_path_to_root`]
//!   stage bandwidth deltas (recording the exact prior reservation);
//! * [`ReservationTxn::replace_model`] stages a model swap with repricing.
//!
//! [`ReservationTxn::commit`] keeps everything; dropping the transaction
//! without committing — or [`ReservationTxn::rollback_to`] a
//! [`Savepoint`] — replays the log in reverse, restoring both ledgers
//! bit-for-bit. Reverse replay can never fail: each inverse step returns
//! the system to a state it already occupied, so every capacity check that
//! could reject it has already passed once.
//!
//! Savepoints make the recursive placers cheap to express: `Alloc` takes a
//! savepoint per subtree, and a failed child unwinds only its own staging
//! while siblings keep theirs.
//!
//! The log's buffer can outlive the transaction:
//! [`search_and_place`](crate::placement::search_and_place) takes an
//! [`UndoLog`] from its caller and hands it back empty after every
//! attempt, so a placer that keeps one stages no heap blocks per attempt.

use crate::cut::CutModel;
use crate::reserve::{PlacementEntry, TenantState};
use cm_topology::{Kbps, NodeId, Topology, TopologyError};
use std::sync::Arc;

/// A position in a transaction's undo log; see
/// [`ReservationTxn::savepoint`].
#[must_use]
pub struct Savepoint(usize);

/// An open transaction over one tenant's placement and reservations.
pub struct ReservationTxn<'a, M: CutModel> {
    topo: &'a mut Topology,
    state: &'a mut TenantState<M>,
    log: Vec<TxnOp<M>>,
    committed: bool,
}

/// The buffer of a transaction's undo log, empty between transactions
/// (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct UndoLog<M>(Vec<TxnOp<M>>);

impl<M> Default for UndoLog<M> {
    fn default() -> Self {
        UndoLog(Vec::new())
    }
}

#[derive(Debug, Clone)]
enum TxnOp<M> {
    /// Inverse: unplace the entry.
    Place(PlacementEntry),
    /// Inverse: re-place the entry.
    Unplace(PlacementEntry),
    /// Inverse: restore `prev` on `node`'s uplink.
    Reserve { node: NodeId, prev: (Kbps, Kbps) },
    /// Inverse: restore the previous model (with repricing). The snapshot
    /// is a shared handle, so logging it never deep-clones the model.
    Model(Arc<M>),
}

impl<'a, M: CutModel> ReservationTxn<'a, M> {
    /// Open a transaction. Until [`ReservationTxn::commit`], dropping it
    /// rolls back every staged change.
    pub fn begin(topo: &'a mut Topology, state: &'a mut TenantState<M>) -> Self {
        Self::begin_with(topo, state, UndoLog::default())
    }

    /// [`ReservationTxn::begin`] logging into `log`'s buffer, which
    /// [`ReservationTxn::commit`] or [`ReservationTxn::abort`] returns.
    pub(crate) fn begin_with(
        topo: &'a mut Topology,
        state: &'a mut TenantState<M>,
        log: UndoLog<M>,
    ) -> Self {
        debug_assert!(log.0.is_empty(), "an undo log outlived its transaction");
        ReservationTxn {
            topo,
            state,
            log: log.0,
            committed: false,
        }
    }

    /// Read access to the topology for placement decisions.
    pub fn topo(&self) -> &Topology {
        self.topo
    }

    /// Read access to the tenant state for placement decisions.
    pub fn state(&self) -> &TenantState<M> {
        self.state
    }

    /// Mark the current log position; a later
    /// [`ReservationTxn::rollback_to`] unwinds to exactly here.
    pub fn savepoint(&self) -> Savepoint {
        Savepoint(self.log.len())
    }

    /// Stage `count` VMs of `tier` onto `server` (slots plus subtree
    /// counts; no bandwidth). Fails without side effects when the server
    /// lacks free slots.
    pub fn place(&mut self, server: NodeId, tier: usize, count: u32) -> Result<(), TopologyError> {
        if count == 0 {
            return Ok(());
        }
        self.state.place(self.topo, server, tier, count)?;
        self.log.push(TxnOp::Place(PlacementEntry {
            server,
            tier,
            count,
        }));
        Ok(())
    }

    /// Stage several tiers onto one server at once (one slot allocation,
    /// one path walk; see [`TenantState::place_many`]). The undo log keeps
    /// one entry per chunk, so savepoints and rollbacks behave exactly as
    /// with chunk-wise [`ReservationTxn::place`] calls.
    pub fn place_many(
        &mut self,
        server: NodeId,
        chunks: &[(usize, u32)],
    ) -> Result<(), TopologyError> {
        self.state.place_many(self.topo, server, chunks)?;
        for &(tier, count) in chunks {
            if count > 0 {
                self.log.push(TxnOp::Place(PlacementEntry {
                    server,
                    tier,
                    count,
                }));
            }
        }
        Ok(())
    }

    /// Stage the removal of `count` VMs of `tier` from `server`. Panics on
    /// accounting bugs, like [`TenantState::unplace`].
    pub fn unplace(&mut self, server: NodeId, tier: usize, count: u32) {
        if count == 0 {
            return;
        }
        self.state.unplace(self.topo, server, tier, count);
        self.log.push(TxnOp::Unplace(PlacementEntry {
            server,
            tier,
            count,
        }));
    }

    /// Stage a reservation sync of `node`'s uplink to the model's cut price
    /// of the staged counts (the pseudocode's `ReserveBW` for one link).
    /// Fails without side effects when the uplink lacks capacity.
    pub fn sync_uplink(&mut self, node: NodeId) -> Result<(), TopologyError> {
        let prev = self.state.reserved_on(node);
        self.state.sync_uplink(self.topo, node)?;
        if self.state.reserved_on(node) != prev {
            self.log.push(TxnOp::Reserve { node, prev });
        }
        Ok(())
    }

    /// [`ReservationTxn::sync_uplink`] with a caller-computed target
    /// reservation (see [`TenantState::sync_uplink_exact`]): identical
    /// staging and undo-log behaviour, minus the model's cut evaluation.
    pub fn sync_uplink_to(
        &mut self,
        node: NodeId,
        want: (Kbps, Kbps),
    ) -> Result<(), TopologyError> {
        let prev = self.state.reserved_on(node);
        self.state.sync_uplink_exact(self.topo, node, want)?;
        if self.state.reserved_on(node) != prev {
            self.log.push(TxnOp::Reserve { node, prev });
        }
        Ok(())
    }

    /// Stage reservation syncs for every uplink from `node` (inclusive) to
    /// the root. On failure the links already synced *by this call* are
    /// unwound, leaving the transaction where it was.
    pub fn sync_path_to_root(&mut self, node: NodeId) -> Result<(), TopologyError> {
        let sp = self.savepoint();
        // Walked parent by parent: collecting the path first would put a
        // heap allocation on every admission.
        let mut next = Some(node);
        while let Some(n) = next {
            if let Err(e) = self.sync_uplink(n) {
                self.rollback_to(sp);
                return Err(e);
            }
            next = self.topo.parent(n);
        }
        Ok(())
    }

    /// Stage a model swap, repricing every touched link under the new
    /// model (see [`TenantState::replace_model`]). Fails without side
    /// effects when some link cannot fit its new price.
    pub fn replace_model(&mut self, new_model: Arc<M>) -> Result<(), TopologyError> {
        let old = self.state.model_arc();
        self.state.replace_model(self.topo, new_model)?;
        self.log.push(TxnOp::Model(old));
        Ok(())
    }

    /// Unwind every change staged after `sp`, restoring both ledgers to
    /// their state at the savepoint. The returned iterator yields the
    /// placements undone, newest first (removals staged with
    /// [`ReservationTxn::unplace`] are reverted too, but not reported), so
    /// callers can restore demand counters; dropping it finishes the
    /// unwind, so `txn.rollback_to(sp);` alone rolls everything back.
    pub fn rollback_to(&mut self, sp: Savepoint) -> Undone<'_, 'a, M> {
        Undone {
            txn: self,
            to: sp.0,
        }
    }

    /// Keep every staged change; returns the log's buffer, empty.
    pub fn commit(mut self) -> UndoLog<M> {
        self.committed = true;
        let mut log = std::mem::take(&mut self.log);
        log.clear();
        UndoLog(log)
    }

    /// Roll back every staged change, like dropping the transaction, and
    /// return the log's buffer, empty.
    pub(crate) fn abort(mut self) -> UndoLog<M> {
        self.rollback_to(Savepoint(0));
        UndoLog(std::mem::take(&mut self.log))
    }

    /// Apply the inverse of one op. Returns the entry when the op was a
    /// placement (for demand-counter restoration).
    fn undo(
        topo: &mut Topology,
        state: &mut TenantState<M>,
        op: TxnOp<M>,
    ) -> Option<PlacementEntry> {
        match op {
            TxnOp::Place(e) => {
                state.unplace(topo, e.server, e.tier, e.count);
                Some(e)
            }
            TxnOp::Unplace(e) => {
                state
                    .place(topo, e.server, e.tier, e.count)
                    .expect("slots staged free by the forward op");
                None
            }
            TxnOp::Reserve { node, prev } => {
                state.force_reserve(topo, node, prev);
                None
            }
            TxnOp::Model(old) => {
                // The previous model's prices were feasible when the swap
                // was staged, but a link degraded since admission may sit
                // below them — force-sync restores the exact prior ledger.
                state.force_replace_model(topo, old);
                None
            }
        }
    }
}

/// The unwind of [`ReservationTxn::rollback_to`]: each step undoes one
/// logged op, yielding the placements; dropping it undoes the rest.
pub struct Undone<'t, 'a, M: CutModel> {
    txn: &'t mut ReservationTxn<'a, M>,
    to: usize,
}

impl<M: CutModel> Iterator for Undone<'_, '_, M> {
    type Item = PlacementEntry;

    fn next(&mut self) -> Option<PlacementEntry> {
        let txn = &mut *self.txn;
        while txn.log.len() > self.to {
            let op = txn.log.pop()?;
            if let Some(e) = ReservationTxn::undo(txn.topo, txn.state, op) {
                return Some(e);
            }
        }
        None
    }
}

impl<M: CutModel> Drop for Undone<'_, '_, M> {
    fn drop(&mut self) {
        while self.next().is_some() {}
    }
}

impl<M: CutModel> Drop for ReservationTxn<'_, M> {
    fn drop(&mut self) {
        if self.committed {
            return;
        }
        while let Some(op) = self.log.pop() {
            Self::undo(self.topo, self.state, op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Tag, TagBuilder};
    use cm_topology::{mbps, TreeSpec};

    fn small_topo() -> Topology {
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

    fn level_snapshot(topo: &Topology) -> Vec<(Kbps, Kbps)> {
        (0..topo.num_levels())
            .map(|l| topo.reserved_at_level(l))
            .collect()
    }

    #[test]
    fn commit_keeps_staged_changes() {
        let mut topo = small_topo();
        let mut st = TenantState::new(hose_tag(4, 100));
        let s = topo.servers()[0];
        {
            let mut txn = ReservationTxn::begin(&mut topo, &mut st);
            txn.place(s, 0, 2).unwrap();
            txn.sync_uplink(s).unwrap();
            txn.commit();
        }
        assert_eq!(topo.uplink_used(s), Some((200, 200)));
        assert_eq!(st.total_placed(&topo), 2);
    }

    #[test]
    fn drop_without_commit_rolls_back_everything() {
        let mut topo = small_topo();
        let snapshot = level_snapshot(&topo);
        let mut st = TenantState::new(hose_tag(4, 100));
        let s0 = topo.servers()[0];
        let s1 = topo.servers()[1];
        {
            let mut txn = ReservationTxn::begin(&mut topo, &mut st);
            txn.place(s0, 0, 2).unwrap();
            txn.place(s1, 0, 1).unwrap();
            txn.sync_uplink(s0).unwrap();
            txn.sync_uplink(s1).unwrap();
            let tor = txn.topo().parent(s0).unwrap();
            txn.sync_uplink(tor).unwrap();
            // No commit: the drop must unwind all five ops.
        }
        assert_eq!(level_snapshot(&topo), snapshot);
        assert_eq!(st.total_placed(&topo), 0);
        assert_eq!(topo.slots_free(s0), 4);
        assert_eq!(topo.slots_free(s1), 4);
        topo.check_invariants().unwrap();
    }

    #[test]
    fn savepoint_rollback_is_partial_and_reports_placements() {
        let mut topo = small_topo();
        let mut st = TenantState::new(hose_tag(6, 100));
        let s0 = topo.servers()[0];
        let s1 = topo.servers()[1];
        let mut txn = ReservationTxn::begin(&mut topo, &mut st);
        txn.place(s0, 0, 2).unwrap();
        txn.sync_uplink(s0).unwrap();
        let sp = txn.savepoint();
        txn.place(s1, 0, 1).unwrap();
        txn.sync_uplink(s1).unwrap();
        let undone: Vec<_> = txn.rollback_to(sp).collect();
        assert_eq!(
            undone,
            vec![PlacementEntry {
                server: s1,
                tier: 0,
                count: 1
            }]
        );
        // s0's staging survives, s1's is gone.
        assert_eq!(txn.state().count_of(s0, 0), 2);
        assert_eq!(txn.state().count_of(s1, 0), 0);
        assert_eq!(txn.topo().uplink_used(s1), Some((0, 0)));
        txn.commit();
        assert_eq!(st.total_placed(&topo), 2);
        st.clear(&mut topo);
    }

    #[test]
    fn sync_path_failure_leaves_txn_where_it_was() {
        // ToR uplink too small: the path sync must fail and unwind only its
        // own partial syncs.
        let mut topo = Topology::build(&TreeSpec::small(
            1,
            2,
            2,
            4,
            [mbps(1000.0), mbps(50.0), mbps(1000.0)],
        ));
        let mut st = TenantState::new(hose_tag(4, mbps(100.0)));
        let s = topo.servers()[0];
        let mut txn = ReservationTxn::begin(&mut topo, &mut st);
        txn.place(s, 0, 2).unwrap();
        assert!(txn.sync_path_to_root(s).is_err());
        // The placement is still staged; no reservation survived.
        assert_eq!(txn.state().count_of(s, 0), 2);
        assert_eq!(txn.topo().uplink_used(s), Some((0, 0)));
        drop(txn);
        assert_eq!(st.total_placed(&topo), 0);
        topo.check_invariants().unwrap();
    }

    #[test]
    fn unplace_is_reverted_on_rollback() {
        let mut topo = small_topo();
        let mut st = TenantState::new(hose_tag(4, 100));
        let s = topo.servers()[0];
        {
            let mut txn = ReservationTxn::begin(&mut topo, &mut st);
            txn.place(s, 0, 4).unwrap();
            txn.sync_uplink(s).unwrap();
            txn.commit();
        }
        {
            let mut txn = ReservationTxn::begin(&mut topo, &mut st);
            txn.unplace(s, 0, 2);
            txn.sync_uplink(s).unwrap();
            // Dropped uncommitted: the two VMs come back.
        }
        assert_eq!(st.total_placed(&topo), 4);
        assert_eq!(topo.slots_free(s), 0);
        st.check_consistency(&topo).unwrap();
        st.clear(&mut topo);
    }

    #[test]
    fn replace_model_is_reverted_on_rollback() {
        let mut topo = small_topo();
        let mut st = TenantState::new(hose_tag(4, 100));
        let s = topo.servers()[0];
        {
            let mut txn = ReservationTxn::begin(&mut topo, &mut st);
            txn.place(s, 0, 2).unwrap();
            txn.sync_uplink(s).unwrap();
            txn.commit();
        }
        assert_eq!(topo.uplink_used(s), Some((200, 200)));
        {
            let mut txn = ReservationTxn::begin(&mut topo, &mut st);
            txn.replace_model(Arc::new(hose_tag(4, 300))).unwrap();
            assert_eq!(txn.topo().uplink_used(s), Some((600, 600)));
            // Dropped uncommitted: prices return to the old model's.
        }
        assert_eq!(topo.uplink_used(s), Some((200, 200)));
        assert_eq!(st.model().self_loop_of(crate::model::TierId(0)), Some(100));
        st.clear(&mut topo);
    }

    #[test]
    fn interleaved_ops_restore_exactly() {
        // A dense interleaving of places, syncs and a savepoint rollback,
        // then a full drop: the topology must be bit-identical to the
        // start.
        let mut topo = small_topo();
        let before: Vec<_> = topo
            .servers()
            .iter()
            .map(|&s| (topo.slots_free(s), topo.uplink_used(s)))
            .collect();
        let mut st = TenantState::new(hose_tag(8, 77));
        {
            let mut txn = ReservationTxn::begin(&mut topo, &mut st);
            let servers: Vec<NodeId> = txn.topo().servers().to_vec();
            for (i, &s) in servers.iter().take(4).enumerate() {
                txn.place(s, 0, 1 + (i as u32 % 2)).unwrap();
                txn.sync_path_to_root(s).unwrap();
            }
            let sp = txn.savepoint();
            txn.place(servers[5], 0, 2).unwrap();
            txn.sync_path_to_root(servers[5]).unwrap();
            txn.rollback_to(sp);
        }
        let after: Vec<_> = topo
            .servers()
            .iter()
            .map(|&s| (topo.slots_free(s), topo.uplink_used(s)))
            .collect();
        assert_eq!(before, after);
        topo.check_invariants().unwrap();
    }
}
