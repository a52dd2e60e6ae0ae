//! The unified placement engine: one trait, one deployed-tenant handle,
//! and one outer search loop shared by every algorithm.
//!
//! The paper's evaluation is entirely comparative — CloudMirror against
//! Oktopus VC/VOC and SecondNet on the same tree datacenter — so the
//! engine makes "a placement algorithm" a first-class object:
//!
//! * [`Placer`] is the interface every algorithm implements: deploy a TAG
//!   tenant onto a topology, yielding a [`Deployed`] handle or a
//!   [`RejectReason`], with the topology untouched on rejection.
//! * [`Deployed`] is the single concrete handle over a live tenant,
//!   whichever network model priced it (TAG, generalized VOC, or pipes) —
//!   simulators and experiment drivers hold these without any
//!   per-algorithm boxing.
//! * [`search_and_place`] is the level-climbing outer loop of Algorithm 1
//!   that the seed duplicated in every placer: find the lowest plausible
//!   subtree, attempt a full placement inside a [`ReservationTxn`],
//!   reserve the external path above it, and on any failure roll back and
//!   retry one level higher until the root rejects.
//!
//! Adding a new placement strategy is now one trait impl: write the
//! per-subtree `attempt` policy, and the simulator and the figure
//! registry pick it up unchanged.

use crate::cut::CutModel;
use crate::model::{PipeModel, Tag, TierId, VocModel};
use crate::placement::RejectReason;
use crate::reserve::{PlacementEntry, TenantState};
use crate::txn::{ReservationTxn, UndoLog};
use cm_topology::{Kbps, NodeId, Topology};

/// A placement algorithm that can deploy TAG tenants.
///
/// Implementations are free to translate the TAG into their own pricing
/// model first (the baselines do); the returned handle erases that
/// difference.
pub trait Placer {
    /// Display name used in result tables ("CM", "OVOC", ...).
    fn name(&self) -> &'static str;

    /// Deploy the tenant. `Err` leaves the topology exactly as it was.
    fn place(&mut self, topo: &mut Topology, tag: &Tag) -> Result<Deployed, RejectReason>;

    /// Deploy an already-shared tenant model. Placers that keep the TAG
    /// (rather than translating it) override this to adopt the handle
    /// without deep-cloning; the default forwards to [`Placer::place`].
    fn place_shared(
        &mut self,
        topo: &mut Topology,
        tag: &std::sync::Arc<Tag>,
    ) -> Result<Deployed, RejectReason> {
        self.place(topo, tag)
    }

    /// Resize one tier of a **live** deployment to `new_size` VMs — the
    /// tenant-lifecycle `scale` operation (§3/§6 auto-scaling). `new_tag`
    /// is the already-resized TAG (`tag.resized(tier, new_size)`); per-VM
    /// guarantees are unchanged, only the tier count moves. All-or-nothing:
    /// on `Err` the deployment and topology are exactly as before.
    ///
    /// The default is the generic **re-place fallback**: snapshot the
    /// tenant's ledger, release it, deploy the resized TAG from scratch
    /// through [`Placer::place_shared`], and on failure restore the
    /// snapshot bit-for-bit. Placers that keep the TAG as their pricing
    /// model can do better — [`crate::placement::CmPlacer`] overrides this
    /// with an exact incremental path that places only the delta VMs
    /// (growing) or vacates the least-populated servers (shrinking),
    /// repricing every touched link under the resized model.
    fn place_incremental(
        &mut self,
        topo: &mut Topology,
        deployed: &mut Deployed,
        new_tag: &std::sync::Arc<Tag>,
        _tier: TierId,
        _new_size: u32,
    ) -> Result<(), RejectReason> {
        place_incremental_replace(self, topo, deployed, new_tag)
    }
}

/// The generic re-place fallback behind [`Placer::place_incremental`]:
/// snapshot → release → deploy the resized TAG wholesale → restore the
/// snapshot on failure. Exposed so overrides that only specialize their own
/// handle type can delegate foreign handles here.
pub fn place_incremental_replace<P: Placer + ?Sized>(
    placer: &mut P,
    topo: &mut Topology,
    deployed: &mut Deployed,
    new_tag: &std::sync::Arc<Tag>,
) -> Result<(), RejectReason> {
    let snapshot = deployed.snapshot();
    deployed.clear_in_place(topo);
    match placer.place_shared(topo, new_tag) {
        Ok(d) => {
            *deployed = d;
            Ok(())
        }
        Err(r) => {
            snapshot.reapply(topo);
            *deployed = snapshot;
            Err(r)
        }
    }
}

/// Mutable references to placers are placers (lets a lifecycle controller
/// borrow a placer instead of owning it).
impl<P: Placer + ?Sized> Placer for &mut P {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn place(&mut self, topo: &mut Topology, tag: &Tag) -> Result<Deployed, RejectReason> {
        (**self).place(topo, tag)
    }

    fn place_shared(
        &mut self,
        topo: &mut Topology,
        tag: &std::sync::Arc<Tag>,
    ) -> Result<Deployed, RejectReason> {
        (**self).place_shared(topo, tag)
    }

    fn place_incremental(
        &mut self,
        topo: &mut Topology,
        deployed: &mut Deployed,
        new_tag: &std::sync::Arc<Tag>,
        tier: TierId,
        new_size: u32,
    ) -> Result<(), RejectReason> {
        (**self).place_incremental(topo, deployed, new_tag, tier, new_size)
    }
}

/// Boxed placers are placers (lets heterogeneous placer sets drive one
/// generic lifecycle controller through `Box<dyn Placer>`).
impl<P: Placer + ?Sized> Placer for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn place(&mut self, topo: &mut Topology, tag: &Tag) -> Result<Deployed, RejectReason> {
        (**self).place(topo, tag)
    }

    fn place_shared(
        &mut self,
        topo: &mut Topology,
        tag: &std::sync::Arc<Tag>,
    ) -> Result<Deployed, RejectReason> {
        (**self).place_shared(topo, tag)
    }

    fn place_incremental(
        &mut self,
        topo: &mut Topology,
        deployed: &mut Deployed,
        new_tag: &std::sync::Arc<Tag>,
        tier: TierId,
        new_size: u32,
    ) -> Result<(), RejectReason> {
        (**self).place_incremental(topo, deployed, new_tag, tier, new_size)
    }
}

/// A deployed tenant, whichever placer and pricing model produced it.
/// Release it with [`Deployed::release`] when the tenant departs; dropping
/// it without releasing leaks its slots and bandwidth in the topology.
pub struct Deployed(DeployedState);

enum DeployedState {
    Tag(TenantState<Tag>),
    Voc(TenantState<VocModel>),
    Pipe(TenantState<PipeModel>),
}

/// Dispatch one expression over the three model-typed tenant states.
macro_rules! with_state {
    ($self:expr, $s:ident => $e:expr) => {
        match &$self.0 {
            DeployedState::Tag($s) => $e,
            DeployedState::Voc($s) => $e,
            DeployedState::Pipe($s) => $e,
        }
    };
}

impl Deployed {
    /// Release all slots and bandwidth held by the tenant.
    pub fn release(self, topo: &mut Topology) {
        match self.0 {
            DeployedState::Tag(mut s) => s.clear(topo),
            DeployedState::Voc(mut s) => s.clear(topo),
            DeployedState::Pipe(mut s) => s.clear(topo),
        }
    }

    /// [`Deployed::release`] through a mutable reference: the handle stays
    /// usable (and empty) afterwards. Lifecycle operations that may need to
    /// restore the tenant on failure use this together with
    /// [`Deployed::snapshot`].
    pub fn clear_in_place(&mut self, topo: &mut Topology) {
        match &mut self.0 {
            DeployedState::Tag(s) => s.clear(topo),
            DeployedState::Voc(s) => s.clear(topo),
            DeployedState::Pipe(s) => s.clear(topo),
        }
    }

    /// A deep copy of the tenant's ledger (the model itself is shared, not
    /// cloned). Together with [`Deployed::reapply`] this gives lifecycle
    /// operations savepoint semantics across a release: snapshot, release,
    /// attempt a re-placement, and on failure restore the snapshot exactly.
    pub fn snapshot(&self) -> Deployed {
        match &self.0 {
            DeployedState::Tag(s) => Deployed(DeployedState::Tag(s.clone())),
            DeployedState::Voc(s) => Deployed(DeployedState::Voc(s.clone())),
            DeployedState::Pipe(s) => Deployed(DeployedState::Pipe(s.clone())),
        }
    }

    /// Re-acquire every slot and reservation of a snapshot whose resources
    /// were just released (see [`Deployed::snapshot`]). Panics if the
    /// topology cannot hold them — impossible when nothing else touched the
    /// topology since the release.
    pub fn reapply(&self, topo: &mut Topology) {
        with_state!(self, s => s.reapply(topo))
    }

    /// The underlying TAG-priced tenant state, if this deployment was
    /// priced directly on the TAG (CloudMirror and its variants). Baseline
    /// deployments translate the TAG into VOC/pipe models and return
    /// `None`.
    pub fn tag_state(&self) -> Option<&TenantState<Tag>> {
        match &self.0 {
            DeployedState::Tag(s) => Some(s),
            _ => None,
        }
    }

    /// Mutable access to the TAG-priced tenant state (see
    /// [`Deployed::tag_state`]); `CmPlacer::place_incremental` scales live
    /// deployments through this.
    pub fn tag_state_mut(&mut self) -> Option<&mut TenantState<Tag>> {
        match &mut self.0 {
            DeployedState::Tag(s) => Some(s),
            _ => None,
        }
    }

    /// Worst-case survivability per tier at the given level (`None` for
    /// tiers without placeable VMs). See [`TenantState::wcs_at_level`].
    pub fn wcs_at_level(&self, topo: &Topology, level: u8) -> Vec<Option<f64>> {
        with_state!(self, s => s.wcs_at_level(topo, level))
    }

    /// Per-server VM counts of the placement.
    pub fn placement(&self, topo: &Topology) -> Vec<(NodeId, Vec<u32>)> {
        with_state!(self, s => s.placement(topo))
    }

    /// Sizes of the tenant's tiers, aligned with the placement's count
    /// vectors.
    pub fn tier_sizes(&self) -> Vec<u32> {
        with_state!(self, s => (0..s.model().num_tiers())
            .map(|t| s.model().tier_size(t))
            .collect())
    }

    /// Total VMs placed.
    pub fn total_placed(&self, topo: &Topology) -> u64 {
        with_state!(self, s => s.total_placed(topo))
    }

    /// Total bandwidth reserved across all links (out + in).
    pub fn total_reserved_kbps(&self) -> Kbps {
        with_state!(self, s => s.total_reserved_kbps())
    }

    /// Every uplink reservation of the tenant, sorted by node id (see
    /// [`TenantState::reservations`]).
    pub fn reservations(&self) -> Vec<(NodeId, (Kbps, Kbps))> {
        with_state!(self, s => s.reservations())
    }

    /// Check the tenant's ledger against a from-scratch recomputation
    /// (see [`TenantState::check_consistency`]).
    pub fn check_consistency(&self, topo: &Topology) -> Result<(), String> {
        with_state!(self, s => s.check_consistency(topo))
    }

    /// Remove every VM the tenant holds on a failed server and reclaim the
    /// stranded reservations, leaving the surviving fragment internally
    /// consistent. Returns `None` when the tenant holds nothing on failed
    /// hardware.
    ///
    /// TAG-priced deployments are additionally shrunk to the surviving
    /// tier sizes (`Tag::resized` per tier), so the fragment remains a
    /// fully-consistent smaller deployment that a later repair can grow
    /// back through the exact incremental scaling path. Because the tier
    /// sizes shrink together with the inside counts, every per-edge cut
    /// price `min(S·inside_src, R·outside_dst)` is monotone non-increasing
    /// under the combined unplace+reprice, so the repricing cannot run out
    /// of capacity. Baseline (VOC/pipe) deployments keep their model and
    /// re-sync the affected links; a hose price under an unchanged model
    /// can *rise* when the inside count drops below N/2, and if that rise
    /// no longer fits the link, the tenant is evicted wholesale
    /// (`evicted = true`) — its admitted reservation cannot be sustained
    /// after the fault.
    pub fn evacuate_failed(&mut self, topo: &mut Topology) -> Option<Evacuation> {
        let num_tiers = self.tier_sizes().len();
        let mut lost_entries: Vec<PlacementEntry> = Vec::new();
        let mut lost = vec![0u32; num_tiers];
        for (server, counts) in self.placement(topo) {
            if !topo.is_failed(server) {
                continue;
            }
            for (tier, &count) in counts.iter().enumerate() {
                if count > 0 {
                    lost_entries.push(PlacementEntry {
                        server,
                        tier,
                        count,
                    });
                    lost[tier] += count;
                }
            }
        }
        if lost_entries.is_empty() {
            return None;
        }
        let reserved_before = self.total_reserved_kbps();
        let evicted = match &mut self.0 {
            DeployedState::Tag(s) => evacuate_tag(topo, s, &lost_entries, &lost),
            DeployedState::Voc(s) => evacuate_generic(topo, s, &lost_entries),
            DeployedState::Pipe(s) => evacuate_generic(topo, s, &lost_entries),
        };
        let lost_vms = lost.iter().map(|&c| c as u64).sum();
        Some(Evacuation {
            lost,
            lost_vms,
            // A baseline fragment can end up reserving *more* than before
            // (the hose rise above); that is a net reclaim of zero.
            reclaimed_kbps: reserved_before.saturating_sub(self.total_reserved_kbps()),
            evicted,
        })
    }
}

/// Outcome of [`Deployed::evacuate_failed`] for one tenant.
#[derive(Debug, Clone)]
pub struct Evacuation {
    /// VMs lost per tier, aligned with the model's tier indices.
    pub lost: Vec<u32>,
    /// Total VMs lost across all tiers.
    pub lost_vms: u64,
    /// Reserved bandwidth reclaimed by the evacuation (out + in, summed
    /// over links). Zero when a baseline fragment's hose repricing grew
    /// its reservation instead of shrinking it.
    pub reclaimed_kbps: Kbps,
    /// True when the surviving fragment could not be kept consistent and
    /// the whole deployment was released instead.
    pub evicted: bool,
}

/// TAG evacuation: unplace the casualties, then swap in the tag shrunk to
/// the surviving tier sizes (repricing every touched link downward).
/// Returns whether the tenant had to be evicted.
fn evacuate_tag(
    topo: &mut Topology,
    s: &mut TenantState<Tag>,
    entries: &[PlacementEntry],
    lost: &[u32],
) -> bool {
    let model = s.model_arc();
    let mut shrunk: Option<Tag> = None;
    for (t, &l) in lost.iter().enumerate() {
        if l == 0 {
            continue;
        }
        let tid = TierId(t as u16);
        let cur = shrunk
            .as_ref()
            .map_or(model.tier(tid).size, |m| m.tier(tid).size);
        if cur <= l {
            // The tier lost every VM; a zero-size tier is not expressible,
            // so the tenant cannot survive as a fragment.
            s.clear(topo);
            return true;
        }
        let next = shrunk
            .as_ref()
            .map_or_else(|| model.resized(tid, cur - l), |m| m.resized(tid, cur - l));
        shrunk = Some(next);
    }
    #[expect(
        clippy::expect_used,
        reason = "callers only evacuate entries with lost > 0, so the loop ran"
    )]
    let shrunk = shrunk.expect("evacuation with no lost VMs");
    for e in entries {
        s.unplace(topo, e.server, e.tier, e.count);
    }
    if s.replace_model(topo, std::sync::Arc::new(shrunk)).is_err() {
        // Cannot happen for monotone TAG cuts (see caller doc), but if a
        // model ever breaks monotonicity, degrade to eviction rather than
        // leaving an inconsistent ledger.
        s.clear(topo);
        return true;
    }
    false
}

/// Every uplink on the root paths of `servers`, each once, bottom-up in
/// `(level, id)` order: the links to re-sync after VMs leave those
/// servers.
pub(crate) fn uplinks_above(topo: &Topology, servers: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
    let mut links: Vec<NodeId> = servers
        .flat_map(|s| topo.path_to_root(s))
        .filter(|&n| n != topo.root())
        .collect();
    links.sort_by_key(|&n| (topo.level(n), n));
    links.dedup();
    links
}

/// Model-preserving evacuation for the baselines: unplace the casualties
/// and re-sync every link on a casualty's root path under the unchanged
/// model. Returns whether the tenant had to be evicted.
fn evacuate_generic<M: CutModel>(
    topo: &mut Topology,
    s: &mut TenantState<M>,
    entries: &[PlacementEntry],
) -> bool {
    for e in entries {
        s.unplace(topo, e.server, e.tier, e.count);
    }
    for n in uplinks_above(topo, entries.iter().map(|e| e.server)) {
        if s.sync_uplink(topo, n).is_err() {
            s.clear(topo);
            return true;
        }
    }
    false
}

impl From<TenantState<Tag>> for Deployed {
    fn from(s: TenantState<Tag>) -> Deployed {
        Deployed(DeployedState::Tag(s))
    }
}

impl From<TenantState<VocModel>> for Deployed {
    fn from(s: TenantState<VocModel>) -> Deployed {
        Deployed(DeployedState::Voc(s))
    }
}

impl From<TenantState<PipeModel>> for Deployed {
    fn from(s: TenantState<PipeModel>) -> Deployed {
        Deployed(DeployedState::Pipe(s))
    }
}

/// Classify a final failure: slots when the datacenter plainly lacks room
/// for `total_vms`, bandwidth otherwise. Shared by every placer.
pub fn reject_reason(topo: &Topology, total_vms: u64) -> RejectReason {
    if topo.subtree_slots_free(topo.root()) < total_vms {
        RejectReason::InsufficientSlots
    } else {
        RejectReason::InsufficientBandwidth
    }
}

/// The shared outer loop of Algorithm 1 (and of both baselines): starting
/// at `start_level`, find the lowest subtree that can plausibly host the
/// whole tenant (`FindLowestSubtree`, [`Topology::descend_to_level`]),
/// run `attempt` inside a fresh [`ReservationTxn`], and on success reserve
/// the tenant's external demand on the path above the subtree. Any failure
/// rolls the attempt back atomically and retries one level higher; a
/// failure at the root rejects.
///
/// `attempt` must stage the *entire* tenant under the given subtree through
/// the transaction and return whether it managed to; partial placements it
/// leaves staged are unwound by the engine. Every attempt logs into `log`'s
/// buffer, which is left empty.
pub fn search_and_place<M, F>(
    topo: &mut Topology,
    state: &mut TenantState<M>,
    log: &mut UndoLog<M>,
    total_vms: u64,
    ext_demand: (Kbps, Kbps),
    start_level: usize,
    mut attempt: F,
) -> Result<(), RejectReason>
where
    M: CutModel,
    F: FnMut(&mut ReservationTxn<'_, M>, NodeId) -> bool,
{
    let root_level = topo.num_levels() - 1;
    let mut level = start_level.min(root_level);
    loop {
        let st = match topo.descend_to_level(level, total_vms, ext_demand) {
            Some(st) => st,
            None => {
                if level >= root_level {
                    return Err(reject_reason(topo, total_vms));
                }
                level += 1;
                continue;
            }
        };
        let mut txn = ReservationTxn::begin_with(topo, state, std::mem::take(log));
        if attempt(&mut txn, st) {
            // Reserve the tenant's external traffic above st
            // (`ReserveBW(map, root)`).
            let ok = match txn.topo().parent(st) {
                Some(p) => txn.sync_path_to_root(p).is_ok(),
                None => true,
            };
            if ok {
                *log = txn.commit();
                return Ok(());
            }
        }
        *log = txn.abort(); // roll back the failed attempt
        if st == topo.root() {
            return Err(reject_reason(topo, total_vms));
        }
        level = topo.level(st) as usize + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TagBuilder;
    use cm_topology::{mbps, TreeSpec};

    fn hose(n: u32, sr: Kbps) -> Tag {
        let mut b = TagBuilder::new("hose");
        let t = b.tier("t", n);
        b.self_loop(t, sr).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn deployed_erases_the_model_without_boxing_per_algorithm() {
        let mut topo = Topology::build(&TreeSpec::small(
            1,
            2,
            2,
            4,
            [mbps(1000.0), mbps(1000.0), mbps(1000.0)],
        ));
        let tag = hose(4, 100);
        let mut st = TenantState::new(tag.clone());
        let s = topo.servers()[0];
        st.place(&mut topo, s, 0, 4).unwrap();
        st.sync_uplink(&mut topo, s).unwrap();
        let d = Deployed::from(st);
        assert_eq!(d.total_placed(&topo), 4);
        assert_eq!(d.tier_sizes(), vec![4]);
        d.check_consistency(&topo).unwrap();
        d.release(&mut topo);
        assert_eq!(topo.subtree_slots_free(topo.root()), 4 * 4);
        for l in 0..topo.num_levels() {
            assert_eq!(topo.reserved_at_level(l), (0, 0));
        }
    }

    #[test]
    fn search_climbs_levels_and_rejects_at_root() {
        let mut topo = Topology::build(&TreeSpec::small(
            2,
            2,
            2,
            4,
            [mbps(1000.0), mbps(1000.0), mbps(1000.0)],
        ));
        let tag = hose(40, 1); // more VMs than the 32 slots
        let mut st = TenantState::new(tag.clone());
        let err = search_and_place(
            &mut topo,
            &mut st,
            &mut UndoLog::default(),
            40,
            (0, 0),
            0,
            |_txn, _st| panic!("no subtree can host 40 VMs; attempt must never run"),
        )
        .unwrap_err();
        assert_eq!(err, RejectReason::InsufficientSlots);
        topo.check_invariants().unwrap();
    }

    #[test]
    fn failed_attempts_leave_no_trace() {
        let mut topo = Topology::build(&TreeSpec::small(
            2,
            2,
            2,
            4,
            [mbps(1000.0), mbps(1000.0), mbps(1000.0)],
        ));
        let tag = hose(4, mbps(900.0)); // cut price far beyond any uplink
        let mut st = TenantState::new(tag.clone());
        let mut attempts = 0;
        let err = search_and_place(
            &mut topo,
            &mut st,
            &mut UndoLog::default(),
            4,
            (0, 0),
            0,
            |txn, node| {
                attempts += 1;
                // Stage a partial placement, then report failure: the engine
                // must unwind it before climbing.
                let server = txn.topo().servers_under(node)[0];
                txn.place(server, 0, 1).unwrap();
                false
            },
        )
        .unwrap_err();
        assert_eq!(err, RejectReason::InsufficientBandwidth);
        assert!(attempts > 1, "the search must climb levels");
        assert_eq!(st.total_placed(&topo), 0);
        assert_eq!(topo.subtree_slots_free(topo.root()), 32);
        topo.check_invariants().unwrap();
    }
}
