//! # cm-cluster
//!
//! The unified tenant-lifecycle controller: one typed front door for the
//! whole closed loop the paper describes — TAGs are **admitted** onto a
//! datacenter by a placement algorithm, **enforced** at runtime, and
//! **evolve** (scale out under load, scale back in, migrate, depart) until
//! they leave.
//!
//! [`Cluster`] owns a [`Topology`] and any [`Placer`] and keys every live
//! tenant by a [`TenantId`]:
//!
//! * [`Cluster::admit`] deploys a [`TagSpec`] and returns a
//!   [`TenantHandle`];
//! * [`Cluster::scale_tier`] / [`Cluster::resize_tier`] resize one tier of
//!   a *live* deployment by ±n VMs through
//!   [`Placer::place_incremental`] — exact incremental for CloudMirror
//!   (only the delta VMs move, every touched link repriced under the
//!   resized TAG), a snapshot-guarded wholesale re-place for baselines;
//! * [`Cluster::migrate`] re-places a tenant from scratch (defragmentation
//!   after churn), all-or-nothing: the old placement is restored exactly if
//!   the re-admission fails;
//! * [`Cluster::depart`] releases everything the tenant holds;
//! * [`Cluster::inject_fault`] / [`Cluster::repair`] make survivability a
//!   measured quantity: kill a server, a whole fault domain, or degrade a
//!   link ([`Fault`]); lost VMs are evacuated from their tenants' ledgers
//!   (stranded reservations reclaimed exactly, [`FaultReport`]) and
//!   [`Cluster::repair_tenant`] later re-places only what was lost;
//! * queries: [`Cluster::utilization`], [`Cluster::placement_of`], and
//!   [`Cluster::guarantee_report`], which wires the placement into the
//!   enforcement layer's guarantee partitioning (`cm-enforce`) — per
//!   VM-pair guarantees under the TAG patch (or the plain-hose model, for
//!   the §2.2 comparison), classified by whether they cross the network;
//! * traffic: [`Cluster::traffic_report`] (detailed) and
//!   [`Cluster::traffic_step`] (summary-only, the hot churn path) solve
//!   every live tenant's flows over the physical tree through an embedded
//!   persistent [`TrafficEngine`] that re-expands only tenants whose
//!   placement changed, on the tree placement reserves on (one fluid link
//!   per uplink direction); [`Cluster::traffic_report_active`] runs
//!   explicit per-tenant communication patterns on a fresh engine of its
//!   own.
//!
//! Every operation is transactional: on `Err` the topology and the tenant
//! are exactly as before. The error surface is one type, [`CmError`]
//! (`std::error::Error`; [`RejectReason`] and
//! [`cm_topology::TopologyError`] fold in), so callers can `?` across
//! crate boundaries.
//!
//! ## Example
//!
//! ```
//! use cm_cluster::{Cluster, CmError, TenantId};
//! use cm_core::model::TagBuilder;
//! use cm_core::placement::{CmConfig, CmPlacer};
//! use cm_core::TierId;
//! use cm_topology::{mbps, TreeSpec};
//!
//! fn main() -> Result<(), CmError> {
//!     // A small datacenter run by the CloudMirror placer.
//!     let spec = TreeSpec::small(2, 2, 4, 4, [mbps(1000.0), mbps(2000.0), mbps(4000.0)]);
//!     let mut cluster = Cluster::new(&spec, CmPlacer::new(CmConfig::cm()));
//!
//!     // Admit a two-tier application.
//!     let mut b = TagBuilder::new("shop");
//!     let web = b.tier("web", 4);
//!     let db = b.tier("db", 2);
//!     b.sym_edge(web, db, mbps(100.0)).unwrap();
//!     let tenant = cluster.admit(b.build().unwrap())?;
//!
//!     // Scale the web tier out by 2 VMs, then back in by 1.
//!     assert_eq!(cluster.scale_tier(tenant.id(), web, 2)?, 6);
//!     assert_eq!(cluster.scale_tier(tenant.id(), web, -1)?, 5);
//!
//!     // Inspect what the tenant holds and what it is guaranteed.
//!     assert_eq!(cluster.utilization().slots_in_use, 7);
//!     let report = cluster.guarantee_report(tenant.id())?;
//!     assert!(report.total_kbps() > 0.0);
//!
//!     // Defragment, then depart: the datacenter ends pristine.
//!     cluster.migrate(tenant.id())?;
//!     cluster.depart(tenant.id())?;
//!     assert_eq!(cluster.utilization().slots_in_use, 0);
//!     let ghost = TenantId::from_raw(99);
//!     assert_eq!(cluster.scale_tier(ghost, TierId(0), 1).unwrap_err(),
//!                CmError::UnknownTenant(ghost));
//!     Ok(())
//! }
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]

use cm_core::model::{Tag, TagError, TierId};
use cm_core::placement::{place_incremental_replace, Deployed, Placer};
use cm_topology::{Kbps, NodeId, Topology, TreeSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

// Re-exported so downstream callers need only this crate for lifecycle
// work (`CmError` folds `RejectReason` in; `GuaranteeModel` selects the
// report's hose classification; the traffic-report types come back from
// [`Cluster::traffic_report`]).
pub use cm_core::placement::RejectReason;
pub use cm_enforce::datacenter::{LevelUtilization, PairFlow, TenantSummary, TrafficReport};
pub use cm_enforce::GuaranteeModel;

use cm_enforce::TrafficEngine;
use std::cell::{Cell, RefCell, RefMut};

mod error;
mod report;

pub use error::CmError;
pub use report::{GuaranteeReport, PairReport, Utilization};

/// Opaque identifier of a tenant inside one [`Cluster`]. Ids are assigned
/// monotonically at admission and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(u64);

impl TenantId {
    /// Construct an id from its raw value (tests, external registries).
    pub fn from_raw(raw: u64) -> TenantId {
        TenantId(raw)
    }

    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// An inert ECMP setting: the traffic engine routes every flow over one
/// fluid link per uplink direction, the tree placement reserves on, so
/// there is nothing left to configure. [`Cluster::set_traffic_ecmp`]
/// ignores it. Kept for `benchmark/`; the benchmark-only follow-up deletes
/// it.
#[derive(Debug, Clone, Copy)]
pub struct EcmpConfig;

impl EcmpConfig {
    /// The tree's single-path layout.
    pub fn none() -> Self {
        EcmpConfig
    }

    /// Same as [`EcmpConfig::none`]: `ways` is ignored.
    pub fn hashed(_ways: u32) -> Self {
        EcmpConfig
    }
}

/// A tenant specification handed to [`Cluster::admit`]: the TAG, shared.
/// Converts from `Tag`, `Arc<Tag>`, and `&Arc<Tag>`, so both one-off
/// callers and pools of pre-built `Arc<Tag>`s (the simulator's hot path)
/// admit without a deep clone beyond the unavoidable first wrap.
#[derive(Debug, Clone)]
pub struct TagSpec(Arc<Tag>);

impl TagSpec {
    /// The shared TAG inside the spec.
    pub fn tag(&self) -> &Arc<Tag> {
        &self.0
    }
}

impl From<Tag> for TagSpec {
    fn from(tag: Tag) -> TagSpec {
        TagSpec(Arc::new(tag))
    }
}

impl From<Arc<Tag>> for TagSpec {
    fn from(tag: Arc<Tag>) -> TagSpec {
        TagSpec(tag)
    }
}

impl From<&Arc<Tag>> for TagSpec {
    fn from(tag: &Arc<Tag>) -> TagSpec {
        TagSpec(Arc::clone(tag))
    }
}

/// What [`Cluster::admit`] returns: the assigned id plus the admitted TAG.
/// A handle is plain data — cloning or dropping it does not affect the
/// deployment; the cluster keeps the authoritative registry.
#[derive(Debug, Clone)]
pub struct TenantHandle {
    id: TenantId,
    tag: Arc<Tag>,
}

impl TenantHandle {
    /// The tenant's id (the key for every lifecycle call).
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The tenant's TAG **at admission**. After a
    /// [`Cluster::scale_tier`] the authoritative (resized) model is
    /// [`Cluster::tag_of`].
    pub fn tag(&self) -> &Arc<Tag> {
        &self.tag
    }
}

/// A failure (or, symmetrically, a repair target) injected into the
/// running datacenter by [`Cluster::inject_fault`] / [`Cluster::repair`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// One server dies: its free slots leave every placement aggregate and
    /// the VMs on it are lost (evacuated from their tenants' ledgers).
    Server(NodeId),
    /// A whole fault domain dies — the paper's §4.5 failure unit: the
    /// subtree root's uplink drops to zero capacity and every server below
    /// it fails.
    Domain(NodeId),
    /// A soft failure: `node`'s uplink degrades to `fraction` of nominal
    /// capacity in both directions. Placements survive (reservations made
    /// before the fault are honoured in the ledger), but headroom for new
    /// work shrinks and the traffic layer routes against the reduced caps.
    DegradeLink {
        /// The node whose uplink degrades.
        node: NodeId,
        /// Remaining capacity as a fraction of nominal, in `[0, 1]`.
        fraction: f64,
    },
}

/// Per-tenant damage from one [`Cluster::inject_fault`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantDamage {
    /// The damaged tenant.
    pub tenant: TenantId,
    /// Tier sizes immediately before this fault's evacuation.
    pub pre_sizes: Vec<u32>,
    /// VMs lost per tier (indexed like the TAG's tiers).
    pub lost: Vec<u32>,
    /// Total VMs lost.
    pub lost_vms: u64,
    /// Stranded bandwidth reclaimed by the evacuation, kbps (summed over
    /// both directions of every touched link).
    pub reclaimed_kbps: Kbps,
    /// Whether the whole deployment was evicted rather than kept as a
    /// surviving fragment (a tier lost all its VMs, or — for the
    /// fixed-hose baselines — the shrunken placement no longer satisfied
    /// the unshrunken model).
    pub evicted: bool,
}

/// What one [`Cluster::inject_fault`] did to the datacenter: the substrate
/// change plus the per-tenant evacuation ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// The fault injected.
    pub fault: Fault,
    /// Servers newly failed by this fault (empty for a pure link degrade).
    pub failed_servers: Vec<NodeId>,
    /// Total VMs lost across all tenants.
    pub lost_vms: u64,
    /// Total stranded bandwidth reclaimed, kbps.
    pub reclaimed_kbps: Kbps,
    /// Per-tenant damage, ascending tenant id.
    pub tenants: Vec<TenantDamage>,
}

/// What one [`Cluster::repair`] did: the substrate restoration plus the
/// outcome of re-placing every damaged tenant's lost VMs.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// The fault repaired.
    pub fault: Fault,
    /// Servers brought back by this repair.
    pub restored_servers: Vec<NodeId>,
    /// Tenants whose lost VMs were fully re-placed (ascending id).
    pub repaired: Vec<TenantId>,
    /// Tenants still damaged after this repair (capacity still gone —
    /// typically another fault is active), with the error each hit.
    pub degraded: Vec<(TenantId, CmError)>,
}

/// Repair bookkeeping for one damaged tenant: what to grow back to.
struct FaultRecord {
    /// The authoritative TAG the moment the *first* fault hit the tenant —
    /// the repair target. Overlapping faults keep the original.
    pre_fault_tag: Arc<Tag>,
    /// Whether the deployment was evicted wholesale (repair re-admits from
    /// scratch instead of regrowing a fragment).
    evicted: bool,
}

struct TenantEntry {
    tag: Arc<Tag>,
    deployed: Deployed,
    /// Placement version, bumped on every successful placement-changing
    /// operation (scale, resize, migrate, evacuation, repair). The
    /// embedded traffic engine re-expands a queued tenant only if its
    /// cached expansion is at another version.
    version: u64,
    /// Whether the tenant's id is in the engine's dirty list
    /// ([`TrafficSync::dirty`]), so the list holds it once.
    queued: Cell<bool>,
}

/// The embedded traffic engine plus what the registry and the substrate
/// did since it last synced.
struct TrafficSync {
    engine: TrafficEngine,
    /// Ids of the tenants a registry mutation touched since the last sync
    /// (admitted, departed, scaled, resized, migrated, evacuated or
    /// repaired), each once, in touch order.
    dirty: Vec<u64>,
    /// Nodes whose uplink capacity a fault or repair may have moved since
    /// the last sync.
    faulted: Vec<NodeId>,
    /// The cluster's `fault_epoch` the engine last synced at.
    fault_epoch: u64,
}

impl TrafficSync {
    /// Queue `id` for the next sync unless it is queued already.
    fn touch(&mut self, id: TenantId, queued: &Cell<bool>) {
        if !queued.replace(true) {
            self.dirty.push(id.raw());
        }
    }
}

/// The unified tenant-lifecycle controller (see the [module docs](self)).
pub struct Cluster<P: Placer> {
    topo: Topology,
    placer: P,
    tenants: BTreeMap<TenantId, TenantEntry>,
    next_id: u64,
    /// Damage ledger: every tenant that lost VMs to a fault and has not
    /// been fully repaired (or departed) since.
    faults: BTreeMap<TenantId, FaultRecord>,
    /// Bumped by every [`Cluster::inject_fault`] / [`Cluster::repair`]
    /// that changed the substrate (a server failed or came back, or an
    /// uplink's capacity moved); when it moved, the embedded traffic
    /// engine re-reads the capacities of the uplinks queued since.
    fault_epoch: u64,
    guarantee_model: GuaranteeModel,
    /// Persistent incremental traffic engine, built lazily on the first
    /// traffic query. While it exists, every registry mutation queues the
    /// tenants it touched and every fault the uplink it moved, and the
    /// next query syncs exactly those. `RefCell` keeps the traffic
    /// queries `&self` (they are logically reads; the engine mutation is
    /// cache maintenance) — the `Cluster` is a single-threaded
    /// controller, so losing `Sync` costs nothing.
    traffic: RefCell<Option<TrafficSync>>,
}

impl<P: Placer> Cluster<P> {
    /// Build a fresh datacenter from `spec` and run it with `placer`.
    pub fn new(spec: &TreeSpec, placer: P) -> Self {
        Self::adopt(Topology::build(spec), placer)
    }

    /// Take control of an existing topology (which may already carry
    /// deployments made outside the cluster; those are simply not in the
    /// registry and never touched).
    pub fn adopt(topo: Topology, placer: P) -> Self {
        Cluster {
            topo,
            placer,
            tenants: BTreeMap::new(),
            next_id: 0,
            faults: BTreeMap::new(),
            fault_epoch: 0,
            guarantee_model: GuaranteeModel::Tag,
            traffic: RefCell::new(None),
        }
    }

    /// Select the guarantee model used by [`Cluster::guarantee_report`]
    /// (default: [`GuaranteeModel::Tag`], the paper's patch; `Hose`
    /// reproduces the §2.2 dilution for comparison).
    pub fn with_guarantee_model(mut self, model: GuaranteeModel) -> Self {
        self.guarantee_model = model;
        self
    }

    /// Switch the guarantee model of future [`Cluster::guarantee_report`]s
    /// and traffic reports in place.
    pub fn set_guarantee_model(&mut self, model: GuaranteeModel) {
        self.guarantee_model = model;
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Admit a tenant: deploy its TAG through the placer. On success the
    /// tenant is live (registered under the returned handle's id) until
    /// [`Cluster::depart`]; on rejection the datacenter is untouched. A TAG
    /// whose guarantees overflow Eq. 1 ([`Tag::cut_bound_kbps`]) is
    /// [`CmError::InvalidTag`].
    pub fn admit(&mut self, spec: impl Into<TagSpec>) -> Result<TenantHandle, CmError> {
        let TagSpec(tag) = spec.into();
        tag.cut_bound_kbps().ok_or(TagError::BandwidthOverflow)?;
        let deployed = self.placer.place_shared(&mut self.topo, &tag)?;
        let id = TenantId(self.next_id);
        self.next_id += 1;
        let entry = TenantEntry {
            tag: Arc::clone(&tag),
            deployed,
            version: 1,
            queued: Cell::new(false),
        };
        if let Some(sync) = self.traffic.get_mut() {
            sync.touch(id, &entry.queued);
        }
        self.tenants.insert(id, entry);
        Ok(TenantHandle { id, tag })
    }

    /// Release everything the tenant holds (slots and bandwidth). The id
    /// becomes invalid; it is never reused.
    pub fn depart(&mut self, id: TenantId) -> Result<(), CmError> {
        let entry = self.tenants.remove(&id).ok_or(CmError::UnknownTenant(id))?;
        if let Some(sync) = self.traffic.get_mut() {
            sync.touch(id, &entry.queued);
        }
        self.faults.remove(&id);
        entry.deployed.release(&mut self.topo);
        Ok(())
    }

    /// Resize `tier` of a live tenant by `delta` VMs (±n). Returns the new
    /// tier size. Guarantees per VM are unchanged — only the tier count
    /// moves (§3: "per-VM bandwidth guarantees Se and Re typically do not
    /// need to change when tier sizes are changed by scaling"). On `Err`
    /// the deployment is exactly as before; a target whose resized TAG
    /// overflows Eq. 1 ([`Tag::cut_bound_kbps`]) is
    /// [`CmError::InvalidScale`]. Tenants with unrepaired fault
    /// damage are rejected with [`CmError::Damaged`] — their deployment
    /// can disagree with the admitted model, so there is no consistent
    /// base to scale from.
    pub fn scale_tier(&mut self, id: TenantId, tier: TierId, delta: i64) -> Result<u32, CmError> {
        self.check_undamaged(id)?;
        let entry = self
            .tenants
            .get_mut(&id)
            .ok_or(CmError::UnknownTenant(id))?;
        check_tier(id, &entry.tag, tier)?;
        let current = entry.tag.tier(tier).size;
        let target = match (current as i64).checked_add(delta) {
            Some(t) if (1..=u32::MAX as i64).contains(&t) => t as u32,
            _ => {
                return Err(CmError::InvalidScale {
                    tenant: id,
                    tier,
                    current,
                    delta,
                })
            }
        };
        resize_entry(&mut self.topo, &mut self.placer, id, entry, tier, target)?;
        if let Some(sync) = self.traffic.get_mut() {
            sync.touch(id, &entry.queued);
        }
        Ok(target)
    }

    /// [`Cluster::scale_tier`] with an absolute target size.
    pub fn resize_tier(
        &mut self,
        id: TenantId,
        tier: TierId,
        new_size: u32,
    ) -> Result<(), CmError> {
        self.check_undamaged(id)?;
        let entry = self
            .tenants
            .get_mut(&id)
            .ok_or(CmError::UnknownTenant(id))?;
        check_tier(id, &entry.tag, tier)?;
        if new_size == 0 {
            return Err(CmError::InvalidScale {
                tenant: id,
                tier,
                current: entry.tag.tier(tier).size,
                delta: -(entry.tag.tier(tier).size as i64),
            });
        }
        resize_entry(&mut self.topo, &mut self.placer, id, entry, tier, new_size)?;
        if let Some(sync) = self.traffic.get_mut() {
            sync.touch(id, &entry.queued);
        }
        Ok(())
    }

    /// Re-place the tenant from scratch with the placer's current view of
    /// the datacenter (defragmentation after churn). All-or-nothing under a
    /// savepoint: if the fresh placement fails, the old one is restored
    /// bit-for-bit and the error is returned. Tenants with unrepaired
    /// fault damage are rejected with [`CmError::Damaged`]: migrating a
    /// damaged fragment at full model size would be a silent repair with
    /// none of [`Cluster::repair_tenant`]'s accounting.
    pub fn migrate(&mut self, id: TenantId) -> Result<(), CmError> {
        self.check_undamaged(id)?;
        let entry = self
            .tenants
            .get_mut(&id)
            .ok_or(CmError::UnknownTenant(id))?;
        // The engine's snapshot → release → re-place → restore-on-failure
        // sequence, shared with the generic scaling fallback so the two
        // all-or-nothing restore paths cannot diverge.
        cm_core::placement::place_incremental_replace(
            &mut self.placer,
            &mut self.topo,
            &mut entry.deployed,
            &entry.tag,
        )?;
        entry.version += 1;
        if let Some(sync) = self.traffic.get_mut() {
            sync.touch(id, &entry.queued);
        }
        Ok(())
    }

    /// Depart every live tenant (deterministic id order). The datacenter
    /// ends with nothing this cluster deployed still held.
    pub fn release_all(&mut self) {
        let tenants = std::mem::take(&mut self.tenants);
        self.faults.clear();
        let mut sync = self.traffic.get_mut().as_mut();
        for (id, entry) in tenants {
            if let Some(sync) = sync.as_deref_mut() {
                sync.touch(id, &entry.queued);
            }
            entry.deployed.release(&mut self.topo);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery
    // ------------------------------------------------------------------

    /// Inject a fault into the running datacenter: apply the substrate
    /// change, then evacuate every tenant that had VMs on newly failed
    /// servers — lost VMs leave their ledgers and stranded reservations
    /// are reclaimed exactly, so surviving placement and admission
    /// decisions never see dead capacity. Damage is recorded per tenant
    /// (the pre-fault TAG is the repair target) until
    /// [`Cluster::repair_tenant`] regrows it.
    ///
    /// CloudMirror deployments shrink their TAG to the surviving tier
    /// sizes (evacuation is then infallible — every cut price is monotone
    /// non-increasing); a tier losing *all* its VMs evicts the tenant
    /// wholesale. The fixed-hose baselines keep their admitted model, so
    /// an evacuation that no longer satisfies it also evicts.
    ///
    /// A node outside the tree or a [`Fault::DegradeLink`] `fraction`
    /// outside `[0, 1]` is [`CmError::Topology`], with nothing changed.
    pub fn inject_fault(&mut self, fault: Fault) -> Result<FaultReport, CmError> {
        let caps_before = self.faulted_uplink(fault);
        let failed_servers = match fault {
            #[expect(
                clippy::disallowed_methods,
                reason = "fault injection mutates the substrate, not a reservation"
            )]
            Fault::Server(s) => {
                if self.topo.fail_server(s)? {
                    vec![s]
                } else {
                    Vec::new()
                }
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "fault injection mutates the substrate, not a reservation"
            )]
            Fault::Domain(n) => self.topo.fail_domain(n)?,
            #[expect(
                clippy::disallowed_methods,
                reason = "fault injection mutates the substrate, not a reservation"
            )]
            Fault::DegradeLink { node, fraction } => {
                self.topo.degrade_link(node, fraction)?;
                Vec::new()
            }
        };
        self.bump_fault_epoch(!failed_servers.is_empty(), caps_before, fault);
        let mut sync = self.traffic.get_mut().as_mut();
        let mut tenants = Vec::new();
        if !failed_servers.is_empty() {
            for (&id, entry) in self.tenants.iter_mut() {
                let pre = Arc::clone(&entry.tag);
                let pre_sizes = entry.deployed.tier_sizes();
                let Some(ev) = entry.deployed.evacuate_failed(&mut self.topo) else {
                    continue;
                };
                // A CloudMirror deployment shrank its model during the
                // evacuation; the registry tag follows, so guarantee
                // reports and the traffic engine describe only the
                // surviving VMs.
                if let Some(s) = entry.deployed.tag_state() {
                    entry.tag = s.model_arc();
                }
                entry.version += 1;
                if let Some(sync) = sync.as_deref_mut() {
                    sync.touch(id, &entry.queued);
                }
                let record = self.faults.entry(id).or_insert(FaultRecord {
                    pre_fault_tag: pre,
                    evicted: false,
                });
                record.evicted |= ev.evicted;
                tenants.push(TenantDamage {
                    tenant: id,
                    pre_sizes,
                    lost: ev.lost,
                    lost_vms: ev.lost_vms,
                    reclaimed_kbps: ev.reclaimed_kbps,
                    evicted: ev.evicted,
                });
            }
        }
        Ok(FaultReport {
            fault,
            failed_servers,
            lost_vms: tenants.iter().map(|t| t.lost_vms).sum(),
            reclaimed_kbps: tenants.iter().map(|t| t.reclaimed_kbps).sum(),
            tenants,
        })
    }

    /// Undo a fault: restore the substrate (bit-exact — nominal capacities
    /// come back from the spec, a restored server re-publishes exactly its
    /// unused slots), then attempt [`Cluster::repair_tenant`] for *every*
    /// damaged tenant in ascending id order. Tenants whose capacity is
    /// still gone (another fault active, or the datacenter filled up while
    /// degraded) stay recorded and are returned as `degraded`.
    pub fn repair(&mut self, fault: Fault) -> Result<RepairReport, CmError> {
        let caps_before = self.faulted_uplink(fault);
        let restored_servers = match fault {
            #[expect(
                clippy::disallowed_methods,
                reason = "bit-exact substrate repair, not a reservation"
            )]
            Fault::Server(s) => {
                if self.topo.restore_server(s)? {
                    vec![s]
                } else {
                    Vec::new()
                }
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "bit-exact substrate repair, not a reservation"
            )]
            Fault::Domain(n) => self.topo.restore_domain(n)?,
            #[expect(
                clippy::disallowed_methods,
                reason = "bit-exact substrate repair, not a reservation"
            )]
            Fault::DegradeLink { node, .. } => {
                self.topo.restore_link(node)?;
                Vec::new()
            }
        };
        self.bump_fault_epoch(!restored_servers.is_empty(), caps_before, fault);
        let mut repaired = Vec::new();
        let mut degraded = Vec::new();
        for id in self.faults.keys().copied().collect::<Vec<_>>() {
            match self.repair_tenant(id) {
                Ok(()) => repaired.push(id),
                Err(e) => degraded.push((id, e)),
            }
        }
        Ok(RepairReport {
            fault,
            restored_servers,
            repaired,
            degraded,
        })
    }

    /// The `(up, down)` capacity of the uplink `fault` degrades or kills
    /// (none for a server fault, a node outside the tree, or the root).
    fn faulted_uplink(&self, fault: Fault) -> Option<(Kbps, Kbps)> {
        match fault {
            Fault::Server(_) => None,
            Fault::Domain(n) | Fault::DegradeLink { node: n, .. } => (n.index()
                < self.topo.num_nodes())
            .then(|| self.topo.uplink_capacity(n))
            .flatten(),
        }
    }

    /// Move `fault_epoch` if the substrate changed: a server failed or
    /// came back (`servers`), or the faulted uplink's capacity moved from
    /// `caps_before` — then the engine, if one exists, queues that uplink's
    /// node for its next capacity sync.
    fn bump_fault_epoch(&mut self, servers: bool, caps_before: Option<(Kbps, Kbps)>, fault: Fault) {
        let moved = self.faulted_uplink(fault) != caps_before;
        if servers || moved {
            self.fault_epoch += 1;
        }
        // Only a domain or link fault moves an uplink's capacity.
        if let (true, Some(sync), Fault::Domain(n) | Fault::DegradeLink { node: n, .. }) =
            (moved, self.traffic.get_mut(), fault)
        {
            sync.faulted.push(n);
        }
    }

    /// Re-place exactly the VMs a damaged tenant lost, growing it back to
    /// its recorded pre-fault TAG:
    ///
    /// * an evicted tenant is re-admitted from scratch under the pre-fault
    ///   TAG;
    /// * a surviving CloudMirror fragment regrows each shrunk tier through
    ///   [`Placer::place_incremental`] — only the lost VMs move, every
    ///   touched link is repriced under the regrown TAG;
    /// * a surviving baseline fragment is re-placed wholesale under a
    ///   snapshot guard (restored exactly on failure).
    ///
    /// On success the damage record is cleared. On
    /// [`CmError::RepairFailed`] the deployment is left in its consistent
    /// degraded state (for the tier-by-tier path, tiers regrown before the
    /// failing one stay regrown) and the record is kept, so the repair can
    /// be retried when capacity returns.
    pub fn repair_tenant(&mut self, id: TenantId) -> Result<(), CmError> {
        let record = self.faults.get(&id).ok_or(CmError::NothingToRepair(id))?;
        let pre = Arc::clone(&record.pre_fault_tag);
        let evicted = record.evicted;
        let entry = self
            .tenants
            .get_mut(&id)
            .ok_or(CmError::UnknownTenant(id))?;
        // Queued whatever the outcome: a failed tier-by-tier regrowth keeps
        // the tiers it regrew.
        if let Some(sync) = self.traffic.get_mut() {
            sync.touch(id, &entry.queued);
        }
        if evicted || entry.deployed.total_placed(&self.topo) == 0 {
            let deployed = self
                .placer
                .place_shared(&mut self.topo, &pre)
                .map_err(|reason| CmError::RepairFailed { tenant: id, reason })?;
            let old = std::mem::replace(&mut entry.deployed, deployed);
            old.release(&mut self.topo);
            entry.tag = entry
                .deployed
                .tag_state()
                .map(|s| s.model_arc())
                .unwrap_or(pre);
            entry.version += 1;
        } else if entry.deployed.tag_state().is_some() {
            for t in 0..pre.num_tiers() {
                let tier = TierId(t as u16);
                if pre.tier(tier).external {
                    continue;
                }
                let want = pre.tier(tier).size;
                if entry.tag.tier(tier).size >= want {
                    continue;
                }
                resize_entry(&mut self.topo, &mut self.placer, id, entry, tier, want).map_err(
                    |e| match e {
                        CmError::Rejected(reason) => CmError::RepairFailed { tenant: id, reason },
                        other => other,
                    },
                )?;
            }
        } else {
            place_incremental_replace(&mut self.placer, &mut self.topo, &mut entry.deployed, &pre)
                .map_err(|reason| CmError::RepairFailed { tenant: id, reason })?;
            entry.version += 1;
        }
        self.faults.remove(&id);
        Ok(())
    }

    /// Tenants currently carrying fault damage (lost VMs not yet
    /// re-placed), ascending.
    pub fn faulted_tenants(&self) -> impl Iterator<Item = TenantId> + '_ {
        self.faults.keys().copied()
    }

    /// Guard for incremental lifecycle ops: a damaged tenant's deployment
    /// can disagree with its admitted model, so scale/migrate refuse until
    /// [`Cluster::repair_tenant`] reconciles them.
    fn check_undamaged(&self, id: TenantId) -> Result<(), CmError> {
        if self.faults.contains_key(&id) {
            return Err(CmError::Damaged(id));
        }
        Ok(())
    }

    /// The recorded pre-fault TAG of a damaged tenant — what
    /// [`Cluster::repair_tenant`] will grow it back to.
    pub fn pre_fault_tag(&self, id: TenantId) -> Option<&Arc<Tag>> {
        self.faults.get(&id).map(|r| &r.pre_fault_tag)
    }

    /// Monotonic counter bumped by every [`Cluster::inject_fault`] and
    /// [`Cluster::repair`] that changed the substrate: a server newly
    /// failed or restored, or an uplink capacity changed. A fault that
    /// changes nothing (a second kill of a dead server, a repair of a
    /// healthy one) leaves it, so the traffic engine re-syncs nothing.
    pub fn fault_epoch(&self) -> u64 {
        self.fault_epoch
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The per-server placement of a live tenant: `(server, VMs per tier)`,
    /// sorted by server id.
    pub fn placement_of(&self, id: TenantId) -> Result<Vec<(NodeId, Vec<u32>)>, CmError> {
        let entry = self.tenants.get(&id).ok_or(CmError::UnknownTenant(id))?;
        Ok(entry.deployed.placement(&self.topo))
    }

    /// The authoritative (possibly rescaled) TAG of a live tenant.
    pub fn tag_of(&self, id: TenantId) -> Option<&Arc<Tag>> {
        self.tenants.get(&id).map(|e| &e.tag)
    }

    /// The deployment handle of a live tenant (placement, reservations,
    /// WCS queries).
    pub fn deployed(&self, id: TenantId) -> Option<&Deployed> {
        self.tenants.get(&id).map(|e| &e.deployed)
    }

    /// Datacenter-wide utilization: slots in use, tenants live, and
    /// reserved vs. capacity bandwidth per tree level.
    pub fn utilization(&self) -> Utilization {
        let levels = self.topo.num_levels();
        Utilization {
            tenants: self.tenants.len(),
            slots_total: self.topo.subtree_slots_total(self.topo.root()),
            slots_in_use: self.topo.slots_in_use(),
            reserved_by_level: (0..levels)
                .map(|l| self.topo.reserved_at_level(l))
                .collect(),
            capacity_by_level: (0..levels)
                .map(|l| self.topo.capacity_at_level(l))
                .collect(),
        }
    }

    /// Wire a live tenant's placement into the enforcement layer: expand
    /// the placement into per-VM tier/server assignments, partition the
    /// TAG's guarantees among all communicating VM pairs (every pair
    /// greedy — the converged worst case), and classify each pair by
    /// whether it crosses the network. See [`GuaranteeReport`].
    pub fn guarantee_report(&self, id: TenantId) -> Result<GuaranteeReport, CmError> {
        let entry = self.tenants.get(&id).ok_or(CmError::UnknownTenant(id))?;
        Ok(report::build_report(
            id,
            &entry.tag,
            &entry.deployed.placement(&self.topo),
            self.guarantee_model,
            None,
        ))
    }

    /// [`Cluster::guarantee_report`] for a known instantaneous
    /// communication pattern: only the given `(src VM, dst VM)` pairs are
    /// active (each greedy). Guarantee partitioning is demand-aware, so a
    /// concentrated pattern — Fig. 13's lone receiver — yields very
    /// different per-pair shares than the all-pairs default. VM indices
    /// follow the report's `vm_tier` / `vm_server` order; stale indices
    /// (after a scale-in, say) or self-pairs are an
    /// [`CmError::InvalidPair`].
    pub fn guarantee_report_active(
        &self,
        id: TenantId,
        active: &[(usize, usize)],
    ) -> Result<GuaranteeReport, CmError> {
        let entry = self.tenants.get(&id).ok_or(CmError::UnknownTenant(id))?;
        let placement = entry.deployed.placement(&self.topo);
        check_pattern(id, &placement, active)?;
        Ok(report::build_report(
            id,
            &entry.tag,
            &placement,
            self.guarantee_model,
            Some(active),
        ))
    }

    /// Run **every** live tenant's flows over the physical tree and solve
    /// one shared weighted max-min network: active TAG edges expand into
    /// VM-pair flows, each pair is routed over its real uplink/downlink
    /// path, floors come from the cluster's guarantee model, and achieved
    /// rates are scored against the TAG-intended guarantees. This is the
    /// paper's end-to-end claim — placement *plus* enforcement — as one
    /// queryable artifact. (Switch the model with
    /// [`Cluster::set_guarantee_model`] to run `Hose` against `Tag` on the
    /// same placements: the Fig. 13/14 dilution through the placement
    /// layer.)
    ///
    /// Served by the embedded incremental [`TrafficEngine`]: only tenants
    /// whose placement changed since the last traffic query are
    /// re-expanded and re-routed.
    pub fn traffic_report(&self) -> TrafficReport {
        self.sync_traffic_engine(self.guarantee_model)
            .solve_detailed(&self.topo)
    }

    /// The hot churn-step variant of [`Cluster::traffic_report`]:
    /// identical totals, violations, and level utilization, but the
    /// report's per-pair `flows` list is left empty — at datacenter scale
    /// that list dominates the step cost and observers polling every step
    /// rarely read it.
    pub fn traffic_step(&self) -> TrafficReport {
        self.traffic_step_as(self.guarantee_model)
    }

    /// [`Cluster::traffic_step`] under an explicit guarantee model.
    pub fn traffic_step_as(&self, model: GuaranteeModel) -> TrafficReport {
        self.sync_traffic_engine(model).solve(&self.topo)
    }

    /// Accepts and ignores an [`EcmpConfig`]: the traffic engine has one
    /// layout, the tree's. Kept for `benchmark/`; the benchmark-only
    /// follow-up deletes it.
    pub fn set_traffic_ecmp(&mut self, _ecmp: EcmpConfig) {}

    /// Run `f` against the embedded (synced) traffic engine — read-only
    /// access for differential tests that compare the engine's fluid
    /// network against a from-scratch solve.
    pub fn with_traffic_engine<R>(&self, f: impl FnOnce(&TrafficEngine) -> R) -> R {
        f(&self.sync_traffic_engine(self.guarantee_model))
    }

    /// Bring the embedded engine in sync with the live registry: create it
    /// on first use, switch its guarantee model, re-read the capacities of
    /// the uplinks a fault or repair moved since the last query, drop the
    /// queued tenants that departed and re-expand the queued tenants whose
    /// placement version moved — both in ascending id order, reading no
    /// registry entry that was not queued. An engine just built or just
    /// switched to another model holds no tenant and expands every live
    /// one. Debug builds check the queue against a full merge of the
    /// registry with the engine's cache.
    fn sync_traffic_engine(&self, model: GuaranteeModel) -> RefMut<'_, TrafficEngine> {
        RefMut::map(self.traffic.borrow_mut(), |slot| {
            let fresh = slot.is_none();
            let sync = slot.get_or_insert_with(|| TrafficSync {
                engine: TrafficEngine::new(&self.topo, model),
                dirty: Vec::new(),
                faulted: Vec::new(),
                fault_epoch: self.fault_epoch,
            });
            self.sync_traffic(sync, model, fresh);
            &mut sync.engine
        })
    }

    /// The body of [`Cluster::sync_traffic_engine`], on the engine and its
    /// queues (`fresh`: the engine was just built).
    fn sync_traffic(&self, sync: &mut TrafficSync, model: GuaranteeModel, fresh: bool) {
        let engine = &mut sync.engine;
        let rebuilt = fresh || engine.model() != model;
        engine.set_model(model);
        if sync.fault_epoch != self.fault_epoch {
            // Degraded/restored uplinks shrink/restore their fluid
            // sub-links in place, dirtying only the components they carry
            // (a freshly built engine read the current caps already).
            engine.sync_link_caps(&self.topo, &sync.faulted);
            sync.faulted.clear();
            sync.fault_epoch = self.fault_epoch;
        }
        // `queued` keeps each id in the list once: sorting suffices.
        let dirty = &mut sync.dirty;
        dirty.sort_unstable();
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "id queued twice");
        let entry_of = |id: u64| self.tenants.get(&TenantId(id));
        if rebuilt {
            for entry in dirty.iter().filter_map(|&id| entry_of(id)) {
                entry.queued.set(false);
            }
            for (&id, entry) in &self.tenants {
                let placement = entry.deployed.placement(&self.topo);
                engine.upsert_tenant(&self.topo, id.raw(), entry.version, &entry.tag, &placement);
            }
        } else {
            #[cfg(debug_assertions)]
            self.assert_dirty_list_complete(engine, dirty);
            for &id in dirty.iter().filter(|&&id| entry_of(id).is_none()) {
                engine.remove_tenant(id);
            }
            for &id in dirty.iter() {
                let Some(entry) = entry_of(id) else {
                    continue;
                };
                entry.queued.set(false);
                if engine.version_of(id) != Some(entry.version) {
                    let placement = entry.deployed.placement(&self.topo);
                    engine.upsert_tenant(&self.topo, id, entry.version, &entry.tag, &placement);
                }
            }
        }
        dirty.clear();
    }

    /// The departed and stale tenants a full merge of the registry with
    /// the engine's cache finds must be exactly those of the (sorted)
    /// dirty list: a registry mutation that changed a tenant without
    /// queueing it would leave the engine stale.
    #[cfg(debug_assertions)]
    fn assert_dirty_list_complete(&self, engine: &TrafficEngine, dirty: &[u64]) {
        let mut departed: Vec<u64> = Vec::new();
        let mut stale: Vec<u64> = Vec::new();
        let mut cached = engine.versions().peekable();
        for (&id, entry) in &self.tenants {
            while let Some(&(old, _)) = cached.peek().filter(|c| c.0 < id.raw()) {
                departed.push(old);
                cached.next();
            }
            if cached.next_if_eq(&(id.raw(), entry.version)).is_none() {
                cached.next_if(|c| c.0 == id.raw());
                stale.push(id.raw());
            }
        }
        departed.extend(cached.map(|c| c.0));
        let queued_departed: Vec<u64> = dirty
            .iter()
            .copied()
            .filter(|&id| {
                !self.tenants.contains_key(&TenantId(id)) && engine.version_of(id).is_some()
            })
            .collect();
        let queued_stale: Vec<u64> = dirty
            .iter()
            .copied()
            .filter(|&id| {
                self.tenants
                    .get(&TenantId(id))
                    .is_some_and(|e| engine.version_of(id) != Some(e.version))
            })
            .collect();
        assert_eq!(queued_departed, departed, "departed tenants not queued");
        assert_eq!(queued_stale, stale, "stale tenants not queued");
    }

    /// [`Cluster::traffic_report`] with explicit instantaneous
    /// communication patterns: tenants named in `active` send on exactly
    /// those `(src VM, dst VM)` pairs (each greedy); every other live
    /// tenant defaults to all edge-connected pairs. VM indices follow the
    /// reports' server-major order; stale indices or self-pairs are a
    /// [`CmError::InvalidPair`], unknown tenants a
    /// [`CmError::UnknownTenant`] (the first offending entry is reported).
    /// A tenant named twice sends on the last pattern given; an empty
    /// pattern silences it.
    ///
    /// The report comes from a fresh [`TrafficEngine`] built over the live
    /// registry for this call — O(live tenants), like any from-scratch
    /// solve — so the embedded engine behind [`Cluster::traffic_step`] is
    /// never touched, whether the call succeeds or fails.
    pub fn traffic_report_active(
        &self,
        active: &[(TenantId, Vec<(usize, usize)>)],
    ) -> Result<TrafficReport, CmError> {
        let mut patterns = BTreeMap::new();
        for (id, pairs) in active {
            let entry = self.tenants.get(id).ok_or(CmError::UnknownTenant(*id))?;
            let placement = entry.deployed.placement(&self.topo);
            check_pattern(*id, &placement, pairs)?;
            patterns.insert(*id, (placement, pairs));
        }
        let mut engine = TrafficEngine::new(&self.topo, self.guarantee_model);
        for (&id, entry) in &self.tenants {
            let (raw, version, tag) = (id.raw(), entry.version, &entry.tag);
            match patterns.remove(&id) {
                Some((placement, pairs)) => {
                    engine.upsert_tenant_pairs(&self.topo, raw, version, tag, &placement, pairs);
                }
                None => {
                    let placement = entry.deployed.placement(&self.topo);
                    engine.upsert_tenant(&self.topo, raw, version, tag, &placement);
                }
            }
        }
        Ok(engine.solve_detailed(&self.topo))
    }

    /// Number of live tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenant is live.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Ids of all live tenants, ascending.
    pub fn tenant_ids(&self) -> impl Iterator<Item = TenantId> + '_ {
        self.tenants.keys().copied()
    }

    /// The datacenter substrate.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The placement algorithm.
    pub fn placer(&self) -> &P {
        &self.placer
    }

    /// Exhaustive self-check, for tests: topology invariants plus every
    /// live tenant's ledger against a from-scratch recomputation.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.topo.check_invariants()?;
        for (id, entry) in &self.tenants {
            entry
                .deployed
                .check_consistency(&self.topo)
                .map_err(|e| format!("{id}: {e}"))?;
        }
        for id in self.faults.keys() {
            if !self.tenants.contains_key(id) {
                return Err(format!("fault record for non-live {id}"));
            }
        }
        Ok(())
    }
}

/// An explicit pattern must name VMs of the placement, never one VM twice
/// in a pair.
fn check_pattern(
    id: TenantId,
    placement: &[(NodeId, Vec<u32>)],
    pairs: &[(usize, usize)],
) -> Result<(), CmError> {
    let vms = placement
        .iter()
        .map(|(_, c)| c.iter().sum::<u32>() as usize)
        .sum::<usize>();
    match pairs.iter().find(|&&(s, d)| s >= vms || d >= vms || s == d) {
        Some(&(src, dst)) => Err(CmError::InvalidPair {
            tenant: id,
            src,
            dst,
            vms,
        }),
        None => Ok(()),
    }
}

/// Scaling targets must name an existing, internal (placeable) tier.
fn check_tier(id: TenantId, tag: &Tag, tier: TierId) -> Result<(), CmError> {
    if tier.index() >= tag.num_tiers() || tag.tier(tier).external {
        return Err(CmError::UnknownTier { tenant: id, tier });
    }
    Ok(())
}

/// The one resize path behind [`Cluster::scale_tier`] and
/// [`Cluster::resize_tier`] (entry fetched and tier validated by the
/// caller; `new_size >= 1`).
fn resize_entry<P: Placer>(
    topo: &mut Topology,
    placer: &mut P,
    id: TenantId,
    entry: &mut TenantEntry,
    tier: TierId,
    new_size: u32,
) -> Result<(), CmError> {
    let current = entry.tag.tier(tier).size;
    if new_size == current {
        return Ok(());
    }
    let new_tag = Arc::new(entry.tag.resized(tier, new_size));
    if new_tag.cut_bound_kbps().is_none() {
        return Err(CmError::InvalidScale {
            tenant: id,
            tier,
            current,
            delta: new_size as i64 - current as i64,
        });
    }
    placer.place_incremental(topo, &mut entry.deployed, &new_tag, tier, new_size)?;
    // The deployment's own model is authoritative where it keeps the TAG
    // (CloudMirror); for translated models the resized TAG is.
    entry.tag = entry
        .deployed
        .tag_state()
        .map(|s| s.model_arc())
        .unwrap_or(new_tag);
    entry.version += 1;
    Ok(())
}

impl<P: Placer> std::fmt::Debug for Cluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("placer", &self.placer.name())
            .field("tenants", &self.tenants.len())
            .field("slots_in_use", &self.topo.slots_in_use())
            .finish()
    }
}

#[cfg(test)]
mod tests;
