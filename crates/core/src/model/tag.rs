//! The Tenant Application Graph (TAG) abstraction (§3 of the paper).
//!
//! A TAG is a directed graph whose vertices are application *components*
//! (tiers — sets of VMs performing the same function) and whose edges carry
//! per-VM bandwidth guarantees:
//!
//! * a directed edge `(u, v)` labelled `<S, R>` guarantees every VM in `u`
//!   bandwidth `S` for sending to `v`, and every VM in `v` bandwidth `R` for
//!   receiving from `u`;
//! * a self-loop `(u, u)` labelled `SR` is a conventional hose among the VMs
//!   of `u` (each VM gets a send hose and a receive hose of rate `SR`).
//!
//! Special *external* components model endpoints outside the tenant (the
//! Internet, a storage service, another tenant); their size is optional.
//!
//! The hose and pipe models are special cases: a TAG with one component and
//! a self-loop is the hose model; a TAG with one VM per component and no
//! self-loops is the pipe model (§3).

use crate::cut::CutModel;
use crate::fasthash::FastMap;
use cm_topology::Kbps;
use std::fmt;

/// Identifier of a tier (component) within one [`Tag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TierId(pub u16);

impl TierId {
    /// The raw index of the tier in its TAG.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One application component (tier) of a TAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tier {
    /// Human-readable name ("web", "logic", "db", ...).
    pub name: String,
    /// Number of VMs (`N_u`). For external components `0` means
    /// "unknown/unbounded" (the paper makes size optional for them).
    pub size: u32,
    /// Whether this is a special external component (Internet, storage
    /// service, another tenant). External components hold no placeable VMs.
    pub external: bool,
}

/// A directed guarantee edge of a TAG.
///
/// For a self-loop (`from == to`) the TAG model prescribes a single value
/// `SR`; the constructor enforces `snd_kbps == rcv_kbps` in that case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagEdge {
    /// Sending tier.
    pub from: TierId,
    /// Receiving tier.
    pub to: TierId,
    /// Per-VM sending guarantee `S_e` for VMs of `from` (kbps).
    pub snd_kbps: Kbps,
    /// Per-VM receiving guarantee `R_e` for VMs of `to` (kbps).
    pub rcv_kbps: Kbps,
}

impl TagEdge {
    /// Whether this edge is a self-loop (an intra-tier hose).
    #[inline]
    pub fn is_self_loop(&self) -> bool {
        self.from == self.to
    }
}

/// Errors from TAG construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagError {
    /// A non-external tier was declared with zero VMs.
    EmptyTier(String),
    /// An edge referenced a tier id that does not exist.
    UnknownTier(TierId),
    /// Two edges with identical (from, to) were added.
    DuplicateEdge(TierId, TierId),
    /// A self-loop was requested through `edge()`; use `self_loop()`.
    SelfLoopViaEdge(TierId),
    /// A self-loop was placed on an external component.
    ExternalSelfLoop(TierId),
    /// A TAG must contain at least one non-external tier.
    NoInternalTiers,
    /// The guarantees overflow: `Σ_e (N_from·S_e + N_to·R_e)` (see
    /// [`Tag::cut_bound_kbps`]), or a tier's per-VM sum, passes `u64::MAX`
    /// kbps, so Eq. 1 cannot price the TAG.
    BandwidthOverflow,
}

impl fmt::Display for TagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagError::EmptyTier(n) => write!(f, "tier '{n}' has zero VMs"),
            TagError::UnknownTier(t) => write!(f, "unknown tier {t}"),
            TagError::DuplicateEdge(u, v) => write!(f, "duplicate edge {u}->{v}"),
            TagError::SelfLoopViaEdge(t) => {
                write!(f, "self-loop on {t} must be added with self_loop()")
            }
            TagError::ExternalSelfLoop(t) => {
                write!(f, "external component {t} cannot carry a self-loop")
            }
            TagError::NoInternalTiers => write!(f, "TAG has no internal tiers"),
            TagError::BandwidthOverflow => {
                write!(
                    f,
                    "TAG guarantees overflow u64 kbps when summed over its VMs"
                )
            }
        }
    }
}

impl std::error::Error for TagError {}

/// Builder for [`Tag`] instances.
///
/// ```
/// use cm_core::model::TagBuilder;
/// use cm_topology::mbps;
///
/// // The three-tier web application of the paper's Fig. 2(a).
/// let mut b = TagBuilder::new("three-tier");
/// let web = b.tier("web", 10);
/// let logic = b.tier("logic", 10);
/// let db = b.tier("db", 10);
/// b.sym_edge(web, logic, mbps(500.0)).unwrap();   // B1
/// b.sym_edge(logic, db, mbps(100.0)).unwrap();    // B2
/// b.self_loop(db, mbps(50.0)).unwrap();           // B3
/// let tag = b.build().unwrap();
/// assert_eq!(tag.total_vms(), 30);
/// ```
#[derive(Debug, Clone)]
pub struct TagBuilder {
    name: String,
    tiers: Vec<Tier>,
    edges: Vec<TagEdge>,
}

impl TagBuilder {
    /// Start a new TAG with the given tenant/application name.
    pub fn new(name: impl Into<String>) -> Self {
        TagBuilder {
            name: name.into(),
            tiers: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add an internal tier with `size` VMs; returns its id.
    pub fn tier(&mut self, name: impl Into<String>, size: u32) -> TierId {
        let id = TierId(self.tiers.len() as u16);
        self.tiers.push(Tier {
            name: name.into(),
            size,
            external: false,
        });
        id
    }

    /// Add an external component of unknown size; returns its id.
    pub fn external(&mut self, name: impl Into<String>) -> TierId {
        let id = TierId(self.tiers.len() as u16);
        self.tiers.push(Tier {
            name: name.into(),
            size: 0,
            external: true,
        });
        id
    }

    /// Add an external component with a known size (number of endpoints).
    pub fn external_sized(&mut self, name: impl Into<String>, size: u32) -> TierId {
        let id = TierId(self.tiers.len() as u16);
        self.tiers.push(Tier {
            name: name.into(),
            size,
            external: true,
        });
        id
    }

    /// Add a directed edge `from -> to` with per-VM guarantees `<snd, rcv>`.
    pub fn edge(
        &mut self,
        from: TierId,
        to: TierId,
        snd_kbps: Kbps,
        rcv_kbps: Kbps,
    ) -> Result<&mut Self, TagError> {
        if from == to {
            return Err(TagError::SelfLoopViaEdge(from));
        }
        self.check_tier(from)?;
        self.check_tier(to)?;
        if self.edges.iter().any(|e| e.from == from && e.to == to) {
            return Err(TagError::DuplicateEdge(from, to));
        }
        self.edges.push(TagEdge {
            from,
            to,
            snd_kbps,
            rcv_kbps,
        });
        Ok(self)
    }

    /// Add a symmetric pair of edges between `u` and `v` where every VM on
    /// both sides gets the same `bw` in both roles (`S(u,v) = R(u,v) =
    /// S(v,u) = R(v,u) = bw`). This is the paper's footnote-6 shorthand for
    /// an undirected edge.
    pub fn sym_edge(&mut self, u: TierId, v: TierId, bw: Kbps) -> Result<&mut Self, TagError> {
        self.edge(u, v, bw, bw)?;
        self.edge(v, u, bw, bw)?;
        Ok(self)
    }

    /// Add a self-loop (intra-tier hose) with per-VM guarantee `SR`.
    pub fn self_loop(&mut self, t: TierId, sr_kbps: Kbps) -> Result<&mut Self, TagError> {
        self.check_tier(t)?;
        if self.tiers[t.index()].external {
            return Err(TagError::ExternalSelfLoop(t));
        }
        if self.edges.iter().any(|e| e.from == t && e.to == t) {
            return Err(TagError::DuplicateEdge(t, t));
        }
        self.edges.push(TagEdge {
            from: t,
            to: t,
            snd_kbps: sr_kbps,
            rcv_kbps: sr_kbps,
        });
        Ok(self)
    }

    fn check_tier(&self, t: TierId) -> Result<(), TagError> {
        if t.index() >= self.tiers.len() {
            return Err(TagError::UnknownTier(t));
        }
        Ok(())
    }

    /// Validate and build the TAG.
    pub fn build(self) -> Result<Tag, TagError> {
        if !self.tiers.iter().any(|t| !t.external) {
            return Err(TagError::NoInternalTiers);
        }
        for t in &self.tiers {
            if !t.external && t.size == 0 {
                return Err(TagError::EmptyTier(t.name.clone()));
            }
        }
        let mut per_vm_snd = vec![0u64; self.tiers.len()];
        let mut per_vm_rcv = vec![0u64; self.tiers.len()];
        let mut incident = vec![Vec::new(); self.tiers.len()];
        let mut by_ends = FastMap::default();
        for (i, e) in self.edges.iter().enumerate() {
            let (snd, rcv) = (
                &mut per_vm_snd[e.from.index()],
                &mut per_vm_rcv[e.to.index()],
            );
            *snd = snd
                .checked_add(e.snd_kbps)
                .ok_or(TagError::BandwidthOverflow)?;
            *rcv = rcv
                .checked_add(e.rcv_kbps)
                .ok_or(TagError::BandwidthOverflow)?;
            incident[e.from.index()].push(i as u16);
            if !e.is_self_loop() {
                incident[e.to.index()].push(i as u16);
                by_ends.insert((e.from, e.to), i as u16);
            }
        }
        // `edge()` rejects duplicates, so each ordered pair names one edge.
        let twin = (self.edges.iter())
            .map(|e| by_ends.get(&(e.to, e.from)).copied())
            .collect();
        let mut tag = Tag {
            name: self.name,
            tiers: self.tiers,
            edges: self.edges,
            per_vm_snd,
            per_vm_rcv,
            incident,
            twin,
            hot: Vec::new(),
        };
        tag.cut_bound_kbps().ok_or(TagError::BandwidthOverflow)?;
        tag.rebuild_hot();
        Ok(tag)
    }
}

/// Precomputed per-edge parameters for the crossing arithmetic: everything
/// Eq. 1 needs about an edge in one flat record, so the placement inner
/// loops do not chase tier references per evaluation. Derived from
/// `tiers`/`edges` by [`Tag::rebuild_hot`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct HotEdge {
    fi: u32,
    ti: u32,
    snd: Kbps,
    rcv: Kbps,
    n_from: u32,
    n_to: u32,
    /// External with unknown size: imposes no cap on the opposite side.
    from_unbounded: bool,
    to_unbounded: bool,
    self_loop: bool,
}

/// An immutable, validated Tenant Application Graph.
///
/// See the module documentation for the semantics. `Tag` implements
/// [`CutModel`], providing the paper's Eq. 1 bandwidth requirement on any
/// subtree cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tag {
    name: String,
    tiers: Vec<Tier>,
    edges: Vec<TagEdge>,
    /// Per-VM aggregate sending guarantee per tier (Σ S_e + SR).
    per_vm_snd: Vec<Kbps>,
    /// Per-VM aggregate receiving guarantee per tier (Σ R_e + SR).
    per_vm_rcv: Vec<Kbps>,
    /// Edge indices incident to each tier (self-loops listed once).
    incident: Vec<Vec<u16>>,
    /// Per edge, the index of its reverse edge (`None` for self-loops and
    /// one-way trunks). Sizes and rates never change it.
    twin: Vec<Option<u16>>,
    /// Flat per-edge parameters for the hot crossing path.
    hot: Vec<HotEdge>,
}

impl Tag {
    /// The tenant/application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Return a copy with a different tenant name (useful when stamping
    /// generated tenants with unique pool identifiers).
    pub fn with_name(mut self, name: impl Into<String>) -> Tag {
        self.name = name.into();
        self
    }

    /// Return a copy with tier `t` resized to `new_size` VMs — the §3/§6
    /// auto-scaling operation. Per-VM guarantees are untouched ("per-VM
    /// bandwidth guarantees S_e and R_e typically do not need to change
    /// when tier sizes are changed by scaling"); only the tier count moves.
    ///
    /// # Panics
    /// Panics when `t` is external or `new_size` is zero.
    pub fn resized(&self, t: TierId, new_size: u32) -> Tag {
        assert!(
            !self.tier(t).external,
            "cannot resize an external component"
        );
        assert!(new_size > 0, "use release instead of scaling to zero");
        let mut tag = self.clone();
        tag.tiers[t.index()].size = new_size;
        tag.rebuild_hot();
        tag
    }

    /// `Σ_e (N_from·S_e + N_to·R_e)` over every edge, a tier of unknown size
    /// (an unbounded external component) counting 0; `None` when the sum
    /// passes `u64::MAX`. Every Eq. 1 cut, every edge crossing and every
    /// product they form is at most this, so a TAG whose bound fits prices
    /// without overflow. [`TagBuilder::build`] rejects a TAG without one;
    /// [`Tag::resized`] and [`Tag::scaled`] can make one.
    pub fn cut_bound_kbps(&self) -> Option<Kbps> {
        let size = |t: TierId| self.tiers[t.index()].size as u64;
        self.edges.iter().try_fold(0u64, |sum, e| {
            sum.checked_add(size(e.from).checked_mul(e.snd_kbps)?)?
                .checked_add(size(e.to).checked_mul(e.rcv_kbps)?)
        })
    }

    /// Recompute the flat per-edge parameter cache after tier sizes or
    /// edge rates changed.
    fn rebuild_hot(&mut self) {
        self.hot.clear();
        self.hot.extend(self.edges.iter().map(|e| {
            let from = &self.tiers[e.from.index()];
            let to = &self.tiers[e.to.index()];
            HotEdge {
                fi: e.from.0 as u32,
                ti: e.to.0 as u32,
                snd: e.snd_kbps,
                rcv: e.rcv_kbps,
                n_from: from.size,
                n_to: to.size,
                from_unbounded: from.external && from.size == 0,
                to_unbounded: to.external && to.size == 0,
                self_loop: e.is_self_loop(),
            }
        }));
    }

    /// [`Tag::edge_crossing_kbps`] by edge index over the flat parameter
    /// cache — the placement inner-loop form (no tier lookups).
    #[inline]
    pub fn edge_crossing_idx(&self, ei: usize, inside: &[u32]) -> Kbps {
        let h = &self.hot[ei];
        if h.self_loop {
            let n = h.n_from;
            let i = inside[h.fi as usize].min(n);
            2 * (i.min(n - i)) as u64 * h.snd
        } else {
            let snd_inside = inside[h.fi as usize] as u64 * h.snd;
            let rcv_outside = if h.to_unbounded {
                u64::MAX
            } else {
                (h.n_to.saturating_sub(inside[h.ti as usize])) as u64 * h.rcv
            };
            let snd_outside = if h.from_unbounded {
                u64::MAX
            } else {
                (h.n_from.saturating_sub(inside[h.fi as usize])) as u64 * h.snd
            };
            let rcv_inside = inside[h.ti as usize] as u64 * h.rcv;
            snd_inside.min(rcv_outside) + snd_outside.min(rcv_inside)
        }
    }

    /// All tiers (internal and external), indexable by [`TierId`].
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// A tier by id.
    pub fn tier(&self, t: TierId) -> &Tier {
        &self.tiers[t.index()]
    }

    /// All guarantee edges.
    pub fn edges(&self) -> &[TagEdge] {
        &self.edges
    }

    /// Tier ids of the internal (placeable) tiers.
    pub fn internal_tiers(&self) -> impl Iterator<Item = TierId> + '_ {
        self.tiers
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.external)
            .map(|(i, _)| TierId(i as u16))
    }

    /// Number of tiers, including external components.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Total number of placeable VMs (external components excluded).
    pub fn total_vms(&self) -> u64 {
        self.tiers
            .iter()
            .filter(|t| !t.external)
            .map(|t| t.size as u64)
            .sum()
    }

    /// The per-tier VM counts to be placed (0 for external tiers).
    pub fn placeable_counts(&self) -> Vec<u32> {
        self.tiers
            .iter()
            .map(|t| if t.external { 0 } else { t.size })
            .collect()
    }

    /// Per-VM aggregate sending guarantee of a tier: `Σ_e S_e + SR` over all
    /// outgoing edges and the self-loop.
    pub fn per_vm_snd(&self, t: TierId) -> Kbps {
        self.per_vm_snd[t.index()]
    }

    /// Per-VM aggregate receiving guarantee of a tier: `Σ_e R_e + SR`.
    pub fn per_vm_rcv(&self, t: TierId) -> Kbps {
        self.per_vm_rcv[t.index()]
    }

    /// Per-VM demand of a tier used for sizing decisions:
    /// `max(per_vm_snd, per_vm_rcv)`.
    pub fn per_vm_demand(&self, t: TierId) -> Kbps {
        self.per_vm_snd(t).max(self.per_vm_rcv(t))
    }

    /// Mean per-VM demand over all placeable VMs (`B_vm` in §5.1). Used to
    /// scale workload bandwidth so the largest tenant's `B_vm` hits `B_max`.
    pub fn avg_per_vm_demand_kbps(&self) -> f64 {
        let n = self.total_vms();
        if n == 0 {
            return 0.0;
        }
        let sum: u128 = self
            .internal_tiers()
            .map(|t| self.tier(t).size as u128 * self.per_vm_demand(t) as u128)
            .sum();
        sum as f64 / n as f64
    }

    /// Aggregate guaranteed application bandwidth, used for rejection
    /// accounting in §5.1 ("aggregate bandwidth" of a tenant):
    /// `Σ_trunk min(S_e·N_u, R_e·N_v) + Σ_self N_u·SR/2`
    /// (each intra-tier flow counted once). Edges to unbounded external
    /// components contribute their internal side's capacity.
    pub fn total_bandwidth_kbps(&self) -> Kbps {
        let mut total: u64 = 0;
        for e in &self.edges {
            if e.is_self_loop() {
                let n = self.tier(e.from).size as u64;
                total += n * e.snd_kbps / 2;
            } else {
                total += self.trunk_total(e);
            }
        }
        total
    }

    /// The total trunk bandwidth of a non-self-loop edge:
    /// `B_{u→v} = min(S_e·N_u, R_e·N_v)` (§3), treating an unbounded
    /// external side as infinite.
    pub fn trunk_total(&self, e: &TagEdge) -> Kbps {
        debug_assert!(!e.is_self_loop());
        let from = self.tier(e.from);
        let to = self.tier(e.to);
        let snd_cap = if from.external && from.size == 0 {
            u64::MAX
        } else {
            from.size as u64 * e.snd_kbps
        };
        let rcv_cap = if to.external && to.size == 0 {
            u64::MAX
        } else {
            to.size as u64 * e.rcv_kbps
        };
        let v = snd_cap.min(rcv_cap);
        if v == u64::MAX {
            0 // external-to-external edge: carries no internal guarantee
        } else {
            v
        }
    }

    /// The tenant's demand for communication with external components:
    /// `(out, in)` kbps that must cross every cut above the whole tenant.
    /// This is what `FindLowestSubtree` validates against the available
    /// bandwidth from a subtree to the root.
    pub fn external_demand_kbps(&self) -> (Kbps, Kbps) {
        let full = self.placeable_counts();
        self.cut_kbps(&full)
    }

    /// Return a copy with every bandwidth value scaled by `factor`
    /// (used for the `B_max` sweeps of §5.1). Values round to nearest kbps.
    pub fn scaled(&self, factor: f64) -> Tag {
        assert!(factor >= 0.0);
        let mut t = self.clone();
        for e in &mut t.edges {
            e.snd_kbps = (e.snd_kbps as f64 * factor).round() as Kbps;
            e.rcv_kbps = (e.rcv_kbps as f64 * factor).round() as Kbps;
        }
        for v in t.per_vm_snd.iter_mut().chain(t.per_vm_rcv.iter_mut()) {
            *v = (*v as f64 * factor).round() as Kbps;
        }
        t.rebuild_hot();
        t
    }

    /// Whether any edge touches an external component.
    pub fn has_external_edges(&self) -> bool {
        self.edges
            .iter()
            .any(|e| self.tier(e.from).external || self.tier(e.to).external)
    }

    /// The self-loop guarantee `SR` of a tier, if present.
    pub fn self_loop_of(&self, t: TierId) -> Option<Kbps> {
        self.edges
            .iter()
            .find(|e| e.from == t && e.to == t)
            .map(|e| e.snd_kbps)
    }

    /// Indices (into [`Tag::edges`]) of the edges incident to `t`
    /// (self-loops listed once).
    pub fn incident_edges(&self, t: TierId) -> &[u16] {
        &self.incident[t.index()]
    }

    /// The index of edge `ei`'s reverse edge (`to -> from`), if the TAG has
    /// one; `None` for a self-loop. Besides `ei` itself, the twin is the
    /// only edge the two endpoint tiers' incident lists share.
    pub(crate) fn twin(&self, ei: usize) -> Option<usize> {
        self.twin[ei].map(usize::from)
    }

    /// The `(out + in)` crossing contribution of a single edge to the cut
    /// of a subtree holding `inside` VMs per tier — one term of Eq. 1.
    /// Summing over all edges reproduces `cut_kbps.0 + cut_kbps.1` exactly;
    /// the placement algorithm uses it to evaluate colocation savings in
    /// O(degree) instead of O(edges).
    pub fn edge_crossing_kbps(&self, e: &TagEdge, inside: &[u32]) -> Kbps {
        let fi = e.from.index();
        let ti = e.to.index();
        if e.is_self_loop() {
            let n = self.tiers[fi].size;
            let i = inside[fi].min(n);
            2 * (i.min(n - i)) as u64 * e.snd_kbps
        } else {
            let from = &self.tiers[fi];
            let to = &self.tiers[ti];
            let snd_inside = inside[fi] as u64 * e.snd_kbps;
            let rcv_outside = if to.external && to.size == 0 {
                u64::MAX
            } else {
                (to.size.saturating_sub(inside[ti])) as u64 * e.rcv_kbps
            };
            let snd_outside = if from.external && from.size == 0 {
                u64::MAX
            } else {
                (from.size.saturating_sub(inside[fi])) as u64 * e.snd_kbps
            };
            let rcv_inside = inside[ti] as u64 * e.rcv_kbps;
            snd_inside.min(rcv_outside) + snd_outside.min(rcv_inside)
        }
    }
}

impl CutModel for Tag {
    fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    fn tier_size(&self, t: usize) -> u32 {
        if self.tiers[t].external {
            0
        } else {
            self.tiers[t].size
        }
    }

    /// The paper's Eq. 1: the bandwidth that must be allocated on the uplink
    /// of a subtree containing `inside[t]` VMs of each tier, per direction.
    ///
    /// * trunk term (t ≠ t'): `min(N^t_X·S_e, (N^{t'}−N^{t'}_X)·R_e)` for
    ///   outgoing, and symmetrically for incoming;
    /// * hose term (self-loops): `min(N^t_X, N^t−N^t_X)·SR` in each
    ///   direction.
    ///
    /// External components always sit outside the subtree; an unbounded
    /// external side imposes no receive/send cap (the `min` collapses to the
    /// internal side's term).
    fn cut_kbps(&self, inside: &[u32]) -> (Kbps, Kbps) {
        debug_assert_eq!(inside.len(), self.tiers.len());
        let mut out: u64 = 0;
        let mut inc: u64 = 0;
        for h in &self.hot {
            let fi = h.fi as usize;
            let ti = h.ti as usize;
            if h.self_loop {
                let n = h.n_from;
                let i = inside[fi].min(n);
                let x = (i.min(n - i)) as u64 * h.snd;
                out += x;
                inc += x;
            } else {
                // Outgoing: senders inside `from`, receivers outside `to`.
                let snd_inside = inside[fi] as u64 * h.snd;
                let rcv_outside = if h.to_unbounded {
                    u64::MAX
                } else {
                    (h.n_to.saturating_sub(inside[ti])) as u64 * h.rcv
                };
                out += snd_inside.min(rcv_outside);
                // Incoming: senders outside `from`, receivers inside `to`.
                let snd_outside = if h.from_unbounded {
                    u64::MAX
                } else {
                    (h.n_from.saturating_sub(inside[fi])) as u64 * h.snd
                };
                let rcv_inside = inside[ti] as u64 * h.rcv;
                inc += snd_outside.min(rcv_inside);
            }
        }
        (out, inc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_topology::mbps;

    /// The paper's Fig. 5(a): two tiers C1, C2; edge C1->C2 <B1,B2>; C2 has
    /// a self-loop B2_in.
    fn fig5(n1: u32, n2: u32, b1: Kbps, b2: Kbps, b2in: Kbps) -> Tag {
        let mut b = TagBuilder::new("fig5");
        let c1 = b.tier("C1", n1);
        let c2 = b.tier("C2", n2);
        b.edge(c1, c2, b1, b2).unwrap();
        b.self_loop(c2, b2in).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_validates() {
        let mut b = TagBuilder::new("bad");
        let t = b.tier("a", 0);
        b.self_loop(t, 100).unwrap();
        assert_eq!(b.build().unwrap_err(), TagError::EmptyTier("a".into()));

        let mut b = TagBuilder::new("dup");
        let u = b.tier("u", 1);
        let v = b.tier("v", 1);
        b.edge(u, v, 1, 1).unwrap();
        assert_eq!(
            b.edge(u, v, 2, 2).unwrap_err(),
            TagError::DuplicateEdge(u, v)
        );

        let mut b = TagBuilder::new("self-via-edge");
        let u = b.tier("u", 1);
        assert_eq!(
            b.edge(u, u, 1, 1).unwrap_err(),
            TagError::SelfLoopViaEdge(u)
        );

        let mut b = TagBuilder::new("ext-loop");
        let _u = b.tier("u", 1);
        let x = b.external("net");
        assert_eq!(
            b.self_loop(x, 1).unwrap_err(),
            TagError::ExternalSelfLoop(x)
        );

        let mut b = TagBuilder::new("only-ext");
        b.external("net");
        assert_eq!(b.build().unwrap_err(), TagError::NoInternalTiers);

        let mut b = TagBuilder::new("unknown");
        let u = b.tier("u", 1);
        assert_eq!(
            b.edge(u, TierId(9), 1, 1).unwrap_err(),
            TagError::UnknownTier(TierId(9))
        );
    }

    #[test]
    fn trunk_total_is_min_of_sides() {
        // B_{u→v} = min(S·N_u, R·N_v): 4 senders at 100 vs 2 receivers at 150.
        let tag = fig5(4, 2, 100, 150, 0);
        let e = &tag.edges()[0];
        assert_eq!(tag.trunk_total(e), 300); // min(400, 300)
    }

    #[test]
    fn cut_empty_and_full_subtree_need_only_external() {
        let tag = fig5(4, 4, 100, 100, 50);
        let zero = vec![0, 0];
        assert_eq!(tag.cut_kbps(&zero), (0, 0));
        let full = vec![4, 4];
        // Whole tenant inside: nothing crosses (no external components).
        assert_eq!(tag.cut_kbps(&full), (0, 0));
    }

    #[test]
    fn cut_matches_eq1_by_hand() {
        // Fig. 5: C1 (4 VMs, S=100 to C2), C2 (4 VMs, R=100, self 50).
        let tag = fig5(4, 4, 100, 100, 50);
        // Subtree holds 2 VMs of C1 and 1 VM of C2.
        let inside = vec![2, 1];
        // out: trunk min(2*100, (4-1)*100)=200 ; hose min(1, 3)*50 = 50.
        // in : trunk min((4-2)*100, 1*100)=100 ; hose 50.
        assert_eq!(tag.cut_kbps(&inside), (250, 150));
    }

    #[test]
    fn hose_term_peaks_at_half() {
        let mut b = TagBuilder::new("hose");
        let t = b.tier("t", 10);
        b.self_loop(t, 100).unwrap();
        let tag = b.build().unwrap();
        let cut = |i: u32| tag.cut_kbps(&[i]).0;
        assert_eq!(cut(0), 0);
        assert_eq!(cut(3), 300);
        assert_eq!(cut(5), 500); // peak at N/2
        assert_eq!(cut(7), 300);
        assert_eq!(cut(10), 0);
    }

    #[test]
    fn external_edges_cross_every_cut() {
        let mut b = TagBuilder::new("ext");
        let web = b.tier("web", 8);
        let net = b.external("internet");
        b.edge(web, net, mbps(10.0), mbps(10.0)).unwrap();
        b.edge(net, web, mbps(5.0), mbps(20.0)).unwrap();
        let tag = b.build().unwrap();
        let full = tag.placeable_counts();
        // All 8 web VMs inside: out = 8*10M (no external receive cap),
        // in = 8*20M (no external send cap).
        assert_eq!(tag.cut_kbps(&full), (mbps(80.0), mbps(160.0)));
        assert_eq!(tag.external_demand_kbps(), (mbps(80.0), mbps(160.0)));
        assert!(tag.has_external_edges());
    }

    #[test]
    fn external_with_known_size_caps_the_min() {
        let mut b = TagBuilder::new("ext-sized");
        let web = b.tier("web", 8);
        let store = b.external_sized("storage", 2);
        b.edge(web, store, mbps(10.0), mbps(15.0)).unwrap();
        let tag = b.build().unwrap();
        let full = tag.placeable_counts();
        // out = min(8*10M, 2*15M) = 30M.
        assert_eq!(tag.cut_kbps(&full).0, mbps(30.0));
    }

    #[test]
    fn per_vm_aggregates() {
        let tag = fig5(4, 4, 100, 150, 50);
        assert_eq!(tag.per_vm_snd(TierId(0)), 100);
        assert_eq!(tag.per_vm_rcv(TierId(0)), 0);
        assert_eq!(tag.per_vm_snd(TierId(1)), 50);
        assert_eq!(tag.per_vm_rcv(TierId(1)), 200);
        assert_eq!(tag.per_vm_demand(TierId(1)), 200);
        // avg over 8 VMs: (4*100 + 4*200)/8 = 150.
        assert!((tag.avg_per_vm_demand_kbps() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn total_bandwidth_counts_trunks_and_half_self() {
        let tag = fig5(4, 4, 100, 100, 50);
        // trunk min(400,400)=400 ; self 4*50/2 = 100.
        assert_eq!(tag.total_bandwidth_kbps(), 500);
    }

    #[test]
    fn scaled_multiplies_everything() {
        let tag = fig5(4, 4, 100, 100, 50).scaled(2.5);
        assert_eq!(tag.edges()[0].snd_kbps, 250);
        assert_eq!(tag.self_loop_of(TierId(1)), Some(125));
        assert_eq!(tag.per_vm_rcv(TierId(1)), 375);
    }

    #[test]
    fn edge_crossing_idx_matches_reference_form() {
        // The flat hot-edge cache must price exactly like the
        // reference implementation, including after resize/scale (which
        // rebuild it).
        let tags = [
            fig5(4, 4, 100, 100, 50),
            fig5(3, 7, 120, 40, 0).scaled(1.7),
            fig5(5, 2, 10, 90, 30).resized(TierId(0), 9),
        ];
        for tag in &tags {
            let n = tag.num_tiers();
            let mut inside = vec![0u32; n];
            for step in 0..40u32 {
                for (t, c) in inside.iter_mut().enumerate() {
                    *c = (step.wrapping_mul(7 + t as u32)) % (tag.tier_size(t) + 1);
                }
                for (ei, e) in tag.edges().iter().enumerate() {
                    assert_eq!(
                        tag.edge_crossing_idx(ei, &inside),
                        tag.edge_crossing_kbps(e, &inside),
                        "edge {ei}, inside {inside:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn twin_is_the_reverse_edge_and_survives_resizing_and_scaling() {
        let mut b = TagBuilder::new("twins");
        let a = b.tier("a", 4);
        let c = b.tier("c", 3);
        let d = b.tier("d", 5);
        let ext = b.external("internet");
        b.sym_edge(a, c, 100).unwrap();
        b.edge(c, d, 30, 20).unwrap(); // one way
        b.self_loop(d, 40).unwrap();
        b.edge(d, a, 10, 15).unwrap();
        b.edge(a, d, 25, 5).unwrap();
        b.edge(ext, a, 7, 9).unwrap(); // one way, from outside
        b.edge(d, ext, 3, 0).unwrap();
        b.edge(ext, d, 2, 6).unwrap();
        let tag = b.build().unwrap();
        let check = |tag: &Tag| {
            let edges = tag.edges();
            for (ei, e) in edges.iter().enumerate() {
                let reverse = edges
                    .iter()
                    .position(|r| !e.is_self_loop() && r.from == e.to && r.to == e.from);
                assert_eq!(tag.twin(ei), reverse, "edge {ei} {}->{}", e.from, e.to);
                if let Some(r) = reverse {
                    assert_eq!(tag.twin(r), Some(ei));
                }
            }
        };
        check(&tag);
        assert_eq!(tag.twin(2), None); // c -> d
        assert_eq!(tag.twin(3), None); // d's self-loop
        let (resized, scaled) = (tag.resized(a, 9), tag.scaled(2.5));
        for t in [&resized, &scaled] {
            check(t);
            assert!((0..tag.edges().len()).all(|ei| t.twin(ei) == tag.twin(ei)));
        }
    }

    #[test]
    fn guarantees_that_overflow_u64_are_rejected() {
        // Two edges out of one tier: each fits, their sum does not.
        let mut b = TagBuilder::new("two");
        let a = b.tier("a", 1);
        let x = b.tier("x", 1);
        let y = b.tier("y", 1);
        b.edge(a, x, 1 << 63, 1).unwrap();
        b.edge(a, y, 1 << 63, 1).unwrap();
        assert_eq!(b.build(), Err(TagError::BandwidthOverflow));
        // One edge whose N·S wraps: 8 × (2^61 + 1) passes u64::MAX.
        let hostile = |n: u32| {
            let mut b = TagBuilder::new("wide");
            let a = b.tier("a", n);
            let c = b.tier("c", n);
            b.edge(a, c, (1 << 61) + 1, (1 << 61) + 1).unwrap();
            b.build()
        };
        assert_eq!(hostile(8).unwrap_err(), TagError::BandwidthOverflow);
        // At 1 VM a side it fits, and only resizing breaks the bound.
        let tag = hostile(1).unwrap();
        assert_eq!(tag.cut_bound_kbps(), Some((1 << 62) + 2));
        assert_eq!(tag.resized(TierId(0), 8).cut_bound_kbps(), None);
        assert_eq!(tag.scaled(4.0).cut_bound_kbps(), None);
    }

    #[test]
    fn sym_edge_adds_both_directions() {
        let mut b = TagBuilder::new("sym");
        let u = b.tier("u", 2);
        let v = b.tier("v", 3);
        b.sym_edge(u, v, 100).unwrap();
        let tag = b.build().unwrap();
        assert_eq!(tag.edges().len(), 2);
        assert_eq!(tag.cut_kbps(&[2, 0]), (200, 200));
    }
}
