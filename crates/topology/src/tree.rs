//! The instantiated datacenter tree with resource accounting.

use crate::spec::TreeSpec;
use crate::units::Kbps;
use std::fmt;

/// Index of a node (server or switch) in a [`Topology`].
///
/// `NodeId`s are dense indices assigned in depth-first order at build time;
/// they are only meaningful for the topology that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors returned by resource mutations on a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// A slot allocation asked for more free slots than the server has.
    InsufficientSlots {
        /// The server whose slots were requested.
        server: NodeId,
        /// Slots requested.
        requested: u32,
        /// Slots actually free.
        free: u32,
    },
    /// A bandwidth reservation exceeded the uplink capacity in one direction.
    InsufficientBandwidth {
        /// The node whose uplink was targeted.
        node: NodeId,
    },
    /// A release underflowed (released more than was reserved/allocated) —
    /// this always indicates a caller bug, but is surfaced as an error so the
    /// ledger can never silently corrupt.
    ReleaseUnderflow {
        /// The node whose resources were targeted.
        node: NodeId,
    },
    /// The node kind was wrong for the operation (e.g. slot ops on a switch).
    NotAServer {
        /// The offending node.
        node: NodeId,
    },
    /// The target node is marked failed, so it cannot accept new resources.
    NodeFailed {
        /// The failed node.
        node: NodeId,
    },
    /// A failure or repair named a node outside the tree or the root's
    /// uplink (it has none), or a link fraction outside `[0, 1]` (NaN
    /// included). Nothing was changed.
    InvalidFault {
        /// The node the call named.
        node: NodeId,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InsufficientSlots {
                server,
                requested,
                free,
            } => write!(
                f,
                "server {server}: requested {requested} slots but only {free} free"
            ),
            TopologyError::InsufficientBandwidth { node } => {
                write!(f, "uplink of {node}: insufficient bandwidth")
            }
            TopologyError::ReleaseUnderflow { node } => {
                write!(f, "{node}: released more resources than were held")
            }
            TopologyError::NotAServer { node } => {
                write!(f, "{node} is not a server")
            }
            TopologyError::NodeFailed { node } => {
                write!(f, "{node} is failed")
            }
            TopologyError::InvalidFault { node } => {
                write!(
                    f,
                    "{node}: no such node or uplink, or link fraction outside [0, 1]"
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Directional state of one uplink. `avail_*` are caches of `cap − used`,
/// kept in sync by [`Topology::adjust_uplink`] so the placement hot path
/// reads availability without re-deriving it.
#[derive(Debug, Clone, Copy)]
struct Uplink {
    cap_up: Kbps,
    cap_dn: Kbps,
    used_up: Kbps,
    used_dn: Kbps,
    avail_up: Kbps,
    avail_dn: Kbps,
}

#[derive(Debug, Clone)]
struct Node {
    level: u8,
    parent: Option<NodeId>,
    /// Children are contiguous: `children_start..children_start+children_len`.
    children_start: u32,
    children_len: u32,
    /// Range into the DFS-ordered server list covered by this subtree.
    servers_start: u32,
    servers_len: u32,
    /// Per-server slot accounting (zero for switches).
    slots_total: u32,
    slots_used: u32,
    /// Aggregate free slots in the whole subtree (equals the server's own
    /// free slots for servers).
    sub_slots_free: u64,
    sub_slots_total: u64,
    /// Uplink to the parent; `None` for the root.
    up: Option<Uplink>,
    /// Failure mask (servers only): a failed server contributes zero free
    /// slots to every subtree aggregate and rejects allocations.
    failed: bool,
    /// Health of the uplink as a fraction of its nominal (spec) capacity:
    /// 1.0 is healthy, 0.0 is dead. The uplink's `cap_*` always equal
    /// `round(nominal × link_fraction)`.
    link_fraction: f64,
}

/// A single-rooted datacenter tree with slot and bandwidth accounting.
///
/// The topology owns *physical* state only: how many VM slots each server has
/// free and how much bandwidth is reserved on each uplink in each direction.
/// What a reservation *means* (which tenant, which model) is tracked by the
/// placement layer in `cm-core`; the topology guarantees that capacities are
/// never exceeded and that releases never underflow.
///
/// All mutating operations are atomic: they either fully apply or leave the
/// topology untouched and return an error.
#[derive(Debug, Clone)]
pub struct Topology {
    spec: TreeSpec,
    nodes: Vec<Node>,
    /// Node ids grouped by level; `levels[0]` are the servers.
    levels: Vec<Vec<NodeId>>,
    /// All servers in depth-first order (so every subtree's servers form a
    /// contiguous slice of this vector).
    servers: Vec<NodeId>,
    root: NodeId,
    /// Per-subtree max-free-slots aggregate, flattened as
    /// `max_free[node_index * num_levels + target_level]`: the largest
    /// `sub_slots_free` of any descendant subtree rooted at `target_level`
    /// (the node's own `sub_slots_free` at its own level; 0 above it).
    /// Recomputed along the parent path of every server whose free slots
    /// change, and used by [`Topology::descend_to_level`] to prune the
    /// candidate search.
    max_free: Vec<u64>,
    /// Per-level sum of reserved uplink bandwidth `(up, down)`, maintained
    /// by `adjust_uplink` so [`Topology::reserved_at_level`] is O(1).
    level_used: Vec<(Kbps, Kbps)>,
    /// Per-level sum of single-direction uplink capacity (fixed at build).
    level_cap: Vec<Kbps>,
    /// Per-level sum of `⌊(avail_up + avail_dn) / 2⌋` over the level's
    /// uplinks, maintained by `adjust_uplink`. Exactly the numerator of the
    /// §4.5 per-slot-availability pre-scan over a whole level, without the
    /// O(width) walk (per-node halving is preserved bit-for-bit).
    level_avail_half: Vec<u128>,
}

impl Topology {
    /// Instantiate a topology from a validated [`TreeSpec`].
    ///
    /// # Panics
    /// Panics if the spec fails [`TreeSpec::validate`].
    pub fn build(spec: &TreeSpec) -> Topology {
        spec.validate().expect("invalid TreeSpec");
        let num_levels = spec.num_levels();
        let mut topo = Topology {
            spec: spec.clone(),
            nodes: Vec::new(),
            levels: vec![Vec::new(); num_levels],
            servers: Vec::new(),
            root: NodeId(0),
            max_free: Vec::new(),
            level_used: vec![(0, 0); num_levels],
            level_cap: vec![0; num_levels],
            level_avail_half: vec![0; num_levels],
        };
        let root_level = (num_levels - 1) as u8;
        let root = topo.push_node(root_level, None);
        topo.root = root;
        topo.build_children(root);
        // Finalize subtree aggregates bottom-up (nodes were pushed parent
        // before children, so a reverse scan visits children first).
        for i in (0..topo.nodes.len()).rev() {
            let n = &topo.nodes[i];
            if n.level == 0 {
                let free = (n.slots_total - n.slots_used) as u64;
                let total = n.slots_total as u64;
                let node = &mut topo.nodes[i];
                node.sub_slots_free = free;
                node.sub_slots_total = total;
                node.servers_start = 0; // fixed below
                node.servers_len = 1;
            } else {
                let (cs, cl) = (n.children_start as usize, n.children_len as usize);
                let mut free = 0u64;
                let mut total = 0u64;
                for c in cs..cs + cl {
                    free += topo.nodes[c].sub_slots_free;
                    total += topo.nodes[c].sub_slots_total;
                }
                let node = &mut topo.nodes[i];
                node.sub_slots_free = free;
                node.sub_slots_total = total;
            }
        }
        // Assign server ranges with a DFS so that subtree servers are
        // contiguous in `servers`.
        topo.assign_server_ranges();
        // Finalize the max-free aggregates bottom-up and the per-level
        // capacity/availability caches.
        topo.max_free = vec![0; topo.nodes.len() * num_levels];
        for i in (0..topo.nodes.len()).rev() {
            topo.refresh_max_free_row(i);
        }
        for node in &topo.nodes {
            if let Some(u) = node.up {
                let l = node.level as usize;
                topo.level_cap[l] += u.cap_up;
                topo.level_avail_half[l] += (u.avail_up as u128 + u.avail_dn as u128) / 2;
            }
        }
        topo
    }

    fn push_node(&mut self, level: u8, parent: Option<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let slots = if level == 0 {
            self.spec.slots_per_server
        } else {
            0
        };
        let up = parent.map(|_| {
            let cap = self.spec.uplink_kbps[level as usize];
            Uplink {
                cap_up: cap,
                cap_dn: cap,
                used_up: 0,
                used_dn: 0,
                avail_up: cap,
                avail_dn: cap,
            }
        });
        self.nodes.push(Node {
            level,
            parent,
            children_start: 0,
            children_len: 0,
            servers_start: 0,
            servers_len: 0,
            slots_total: slots,
            slots_used: 0,
            sub_slots_free: 0,
            sub_slots_total: 0,
            up,
            failed: false,
            link_fraction: 1.0,
        });
        self.levels[level as usize].push(id);
        id
    }

    fn build_children(&mut self, parent: NodeId) {
        let level = self.nodes[parent.index()].level;
        if level == 0 {
            return;
        }
        let child_level = level - 1;
        // fanout_top_down[0] is the root's fanout; the root is at the highest
        // level, so index by distance from the top.
        let depth_from_top = (self.spec.num_levels() - 1) as u8 - level;
        let fanout = self.spec.fanout_top_down[depth_from_top as usize];
        let start = self.nodes.len() as u32;
        for _ in 0..fanout {
            self.push_node(child_level, Some(parent));
        }
        self.nodes[parent.index()].children_start = start;
        self.nodes[parent.index()].children_len = fanout;
        for i in 0..fanout {
            self.build_children(NodeId(start + i));
        }
    }

    fn assign_server_ranges(&mut self) {
        // Iterative DFS assigning contiguous server ranges.
        fn dfs(topo: &mut Topology, node: NodeId) -> (u32, u32) {
            if topo.nodes[node.index()].level == 0 {
                let start = topo.servers.len() as u32;
                topo.servers.push(node);
                let n = &mut topo.nodes[node.index()];
                n.servers_start = start;
                n.servers_len = 1;
                return (start, 1);
            }
            let (cs, cl) = {
                let n = &topo.nodes[node.index()];
                (n.children_start, n.children_len)
            };
            let mut start = u32::MAX;
            let mut len = 0;
            for c in cs..cs + cl {
                let (s, l) = dfs(topo, NodeId(c));
                if start == u32::MAX {
                    start = s;
                }
                len += l;
            }
            let n = &mut topo.nodes[node.index()];
            n.servers_start = start;
            n.servers_len = len;
            (start, len)
        }
        dfs(self, self.root);
    }

    // ------------------------------------------------------------------
    // Structure queries
    // ------------------------------------------------------------------

    /// The spec this topology was built from.
    pub fn spec(&self) -> &TreeSpec {
        &self.spec
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes (servers and switches).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of levels (servers are level 0, root is `num_levels()-1`).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The level of a node (0 = server).
    #[inline]
    pub fn level(&self, n: NodeId) -> u8 {
        self.nodes[n.index()].level
    }

    /// Whether the node is a server (a leaf holding VM slots).
    #[inline]
    pub fn is_server(&self, n: NodeId) -> bool {
        self.nodes[n.index()].level == 0
    }

    /// All node ids at a given level.
    #[inline]
    pub fn nodes_at_level(&self, level: usize) -> &[NodeId] {
        &self.levels[level]
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].parent
    }

    /// Children of a node, as a contiguous id range (empty for servers).
    #[inline]
    pub fn children(&self, n: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        let node = &self.nodes[n.index()];
        (node.children_start..node.children_start + node.children_len).map(NodeId)
    }

    /// All servers, in DFS order.
    #[inline]
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// The servers under a subtree, as a contiguous slice (DFS order).
    #[inline]
    pub fn servers_under(&self, n: NodeId) -> &[NodeId] {
        let node = &self.nodes[n.index()];
        let s = node.servers_start as usize;
        &self.servers[s..s + node.servers_len as usize]
    }

    /// The DFS-index range into [`Topology::servers`] covered by `n`'s
    /// subtree. Containment of a server's [`Topology::server_dfs_index`] in
    /// this range is an O(1) ancestor test, which the placement hot paths
    /// use instead of walking parent pointers.
    #[inline]
    pub fn server_range(&self, n: NodeId) -> std::ops::Range<u32> {
        let node = &self.nodes[n.index()];
        node.servers_start..node.servers_start + node.servers_len
    }

    /// The DFS index of a server within [`Topology::servers`].
    ///
    /// # Panics
    /// Debug-asserts that `server` is a server.
    #[inline]
    pub fn server_dfs_index(&self, server: NodeId) -> u32 {
        debug_assert_eq!(self.nodes[server.index()].level, 0);
        self.nodes[server.index()].servers_start
    }

    /// Iterator over `n`'s ancestors starting at `n` itself and ending at the
    /// root (inclusive).
    #[inline]
    pub fn path_to_root(&self, n: NodeId) -> PathToRoot<'_> {
        PathToRoot {
            topo: self,
            next: Some(n),
        }
    }

    /// Lowest common ancestor of two nodes: the deepest node whose subtree
    /// contains both (a node is its own ancestor, so `lca(n, n) == n`).
    /// O(depth); the single-rooted tree guarantees the walk meets at the
    /// root at the latest. The traffic engine routes server pairs through
    /// this node: the route is the up-chain of `a` to the LCA joined with
    /// the reversed down-chain of `b`.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        while self.level(a) < self.level(b) {
            a = self.parent(a).expect("below the root, parent exists");
        }
        while self.level(b) < self.level(a) {
            b = self.parent(b).expect("below the root, parent exists");
        }
        while a != b {
            a = self.parent(a).expect("distinct nodes at the root level");
            b = self.parent(b).expect("distinct nodes at the root level");
        }
        a
    }

    // ------------------------------------------------------------------
    // Slot accounting
    // ------------------------------------------------------------------

    /// Total slots of a server.
    #[inline]
    pub fn slots_total(&self, server: NodeId) -> u32 {
        self.nodes[server.index()].slots_total
    }

    /// Free slots on a server (zero while the server is failed: failed
    /// capacity is invisible to every placer).
    #[inline]
    pub fn slots_free(&self, server: NodeId) -> u32 {
        let n = &self.nodes[server.index()];
        if n.failed {
            return 0;
        }
        n.slots_total - n.slots_used
    }

    /// Aggregate free slots in the subtree rooted at `n`.
    #[inline]
    pub fn subtree_slots_free(&self, n: NodeId) -> u64 {
        self.nodes[n.index()].sub_slots_free
    }

    /// Aggregate total slots in the subtree rooted at `n`.
    #[inline]
    pub fn subtree_slots_total(&self, n: NodeId) -> u64 {
        self.nodes[n.index()].sub_slots_total
    }

    /// VM slots currently allocated across the whole datacenter
    /// (total − free at the root); the slot half of a cluster-utilization
    /// report.
    #[inline]
    pub fn slots_in_use(&self) -> u64 {
        let r = self.root();
        self.subtree_slots_total(r) - self.subtree_slots_free(r)
    }

    /// Allocate `count` VM slots on a server.
    pub fn alloc_slots(&mut self, server: NodeId, count: u32) -> Result<(), TopologyError> {
        let node = &self.nodes[server.index()];
        if node.level != 0 {
            return Err(TopologyError::NotAServer { node: server });
        }
        if node.failed {
            return Err(TopologyError::NodeFailed { node: server });
        }
        let free = node.slots_total - node.slots_used;
        if count > free {
            return Err(TopologyError::InsufficientSlots {
                server,
                requested: count,
                free,
            });
        }
        self.nodes[server.index()].slots_used += count;
        let mut cur = Some(server);
        while let Some(c) = cur {
            self.nodes[c.index()].sub_slots_free -= count as u64;
            cur = self.nodes[c.index()].parent;
        }
        self.refresh_max_free(server);
        Ok(())
    }

    /// Re-derive the `max_free` aggregate along `server`'s parent path after
    /// its free-slot count changed: every node on the path recomputes its
    /// row from its children's, O(depth² × fanout).
    fn refresh_max_free(&mut self, server: NodeId) {
        let mut cur = Some(server);
        while let Some(n) = cur {
            self.refresh_max_free_row(n.index());
            cur = self.nodes[n.index()].parent;
        }
    }

    /// Recompute node `i`'s `max_free` row: its own free slots at its own
    /// level, the largest child entry at every level below.
    fn refresh_max_free_row(&mut self, i: usize) {
        let nl = self.levels.len();
        let node = &self.nodes[i];
        let (level, children) = (
            node.level as usize,
            node.children_start as usize..(node.children_start + node.children_len) as usize,
        );
        self.max_free[i * nl + level] = node.sub_slots_free;
        for tl in 0..level {
            let m = children.clone().map(|c| self.max_free[c * nl + tl]).max();
            self.max_free[i * nl + tl] = m.unwrap_or(0);
        }
    }

    /// The largest `sub_slots_free` of any subtree rooted at `target_level`
    /// inside `n`'s subtree (0 when `target_level` is above `n`).
    #[inline]
    pub fn max_subtree_free_at(&self, n: NodeId, target_level: usize) -> u64 {
        if target_level >= self.levels.len() {
            return 0;
        }
        self.max_free[n.index() * self.levels.len() + target_level]
    }

    /// Release `count` previously-allocated VM slots on a server.
    pub fn release_slots(&mut self, server: NodeId, count: u32) -> Result<(), TopologyError> {
        let node = &self.nodes[server.index()];
        if node.level != 0 {
            return Err(TopologyError::NotAServer { node: server });
        }
        if count > node.slots_used {
            return Err(TopologyError::ReleaseUnderflow { node: server });
        }
        self.nodes[server.index()].slots_used -= count;
        // A failed server's effective contribution to the subtree
        // aggregates is zero and stays zero: releases (evacuating a dead
        // machine) only shrink its private `slots_used` ledger, and
        // `restore_server` re-publishes whatever is free at repair time.
        if !self.nodes[server.index()].failed {
            let mut cur = Some(server);
            while let Some(c) = cur {
                self.nodes[c.index()].sub_slots_free += count as u64;
                cur = self.nodes[c.index()].parent;
            }
            self.refresh_max_free(server);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bandwidth accounting
    // ------------------------------------------------------------------

    /// Uplink capacity of `n` in (up, down) direction; `None` for the root.
    #[inline]
    pub fn uplink_capacity(&self, n: NodeId) -> Option<(Kbps, Kbps)> {
        self.nodes[n.index()].up.map(|u| (u.cap_up, u.cap_dn))
    }

    /// Reserved bandwidth on `n`'s uplink in (up, down) direction.
    #[inline]
    pub fn uplink_used(&self, n: NodeId) -> Option<(Kbps, Kbps)> {
        self.nodes[n.index()].up.map(|u| (u.used_up, u.used_dn))
    }

    /// Available (unreserved) bandwidth on `n`'s uplink in (up, down)
    /// direction; `None` for the root.
    #[inline]
    pub fn uplink_avail(&self, n: NodeId) -> Option<(Kbps, Kbps)> {
        self.nodes[n.index()].up.map(|u| (u.avail_up, u.avail_dn))
    }

    /// Minimum available bandwidth along every uplink from `n` (inclusive)
    /// to the root, per direction. Returns `(Kbps::MAX, Kbps::MAX)` when `n`
    /// is the root (no links to cross).
    pub fn avail_to_root(&self, n: NodeId) -> (Kbps, Kbps) {
        let mut min_up = Kbps::MAX;
        let mut min_dn = Kbps::MAX;
        for a in self.path_to_root(n) {
            if let Some((au, ad)) = self.uplink_avail(a) {
                min_up = min_up.min(au);
                min_dn = min_dn.min(ad);
            }
        }
        (min_up, min_dn)
    }

    /// `FindLowestSubtree` by descent from the root: the subtree at exactly
    /// `level` with the most free slots (≥ `total_vms`) whose root path has
    /// at least `ext_demand` available bandwidth in both directions; ties
    /// break towards the smallest [`NodeId`].
    ///
    /// Equivalent to the linear scan over `nodes_at_level(level)` with
    /// `avail_to_root` per candidate (the oracle in
    /// `tests/search_equivalence.rs`), but a branch-and-bound walk from the
    /// root that visits children in id order, threads the running path
    /// minimum of available bandwidth, and skips every child whose
    /// `max_free` bound cannot beat the incumbent. `max_free` is a sharp
    /// upper bound on any candidate's free slots below a child, and id
    /// order agrees with left-to-right subtree order, so a later candidate
    /// must have strictly more free slots to win and the pruning is exact.
    pub fn descend_to_level(
        &self,
        level: usize,
        total_vms: u64,
        ext_demand: (Kbps, Kbps),
    ) -> Option<NodeId> {
        // The root's own row bounds every candidate at `level`; at the
        // root's level it is the root's free slots.
        if level >= self.levels.len() || self.max_subtree_free_at(self.root, level) < total_vms {
            return None;
        }
        let mut best: Option<(u64, NodeId)> = None;
        self.descend_rec(
            self.root,
            level,
            total_vms,
            ext_demand,
            (Kbps::MAX, Kbps::MAX),
            &mut best,
        );
        best.map(|(_, n)| n)
    }

    /// Only called on nodes whose bound passed the checks below (or on the
    /// root, checked by the caller), so a node at `level` is the new best.
    fn descend_rec(
        &self,
        node: NodeId,
        level: usize,
        total_vms: u64,
        ext_demand: (Kbps, Kbps),
        path_min: (Kbps, Kbps),
        best: &mut Option<(u64, NodeId)>,
    ) {
        let n = &self.nodes[node.index()];
        if n.level as usize == level {
            *best = Some((n.sub_slots_free, node));
            return;
        }
        let nl = self.levels.len();
        for c in n.children_start..n.children_start + n.children_len {
            let bound = self.max_free[c as usize * nl + level];
            // Every candidate below `c` comes after the incumbent in id
            // order, so it must strictly beat the incumbent's free slots.
            if bound < total_vms || best.is_some_and(|(bf, _)| bound <= bf) {
                continue;
            }
            let child = NodeId(c);
            let (au, ad) = self.uplink_avail(child).expect("non-root child");
            let pm = (path_min.0.min(au), path_min.1.min(ad));
            if pm.0 < ext_demand.0 || pm.1 < ext_demand.1 {
                continue; // every candidate below shares this bottleneck
            }
            self.descend_rec(child, level, total_vms, ext_demand, pm, best);
        }
    }

    /// Atomically apply signed deltas to the reservation on `n`'s uplink.
    ///
    /// Fails (leaving state untouched) when a positive delta exceeds the
    /// remaining capacity in either direction, when a negative delta
    /// underflows the reservation, or when `n` is the root.
    pub fn adjust_uplink(
        &mut self,
        n: NodeId,
        delta_up: i64,
        delta_dn: i64,
    ) -> Result<(), TopologyError> {
        self.adjust_uplink_inner(n, delta_up, delta_dn, true)
    }

    /// [`Topology::adjust_uplink`] without the capacity ceiling (underflow
    /// is still checked). Only for restoring a reservation that was
    /// previously held: a fault can degrade a link's capacity below
    /// already-accepted reservations, and rollback/re-apply paths must
    /// still be able to return to that (previously legal) state. Placement
    /// paths must never reserve through this.
    pub fn force_adjust_uplink(
        &mut self,
        n: NodeId,
        delta_up: i64,
        delta_dn: i64,
    ) -> Result<(), TopologyError> {
        self.adjust_uplink_inner(n, delta_up, delta_dn, false)
    }

    fn adjust_uplink_inner(
        &mut self,
        n: NodeId,
        delta_up: i64,
        delta_dn: i64,
        enforce_cap: bool,
    ) -> Result<(), TopologyError> {
        let level = self.nodes[n.index()].level as usize;
        let node = &mut self.nodes[n.index()];
        let up = node
            .up
            .as_mut()
            .ok_or(TopologyError::InsufficientBandwidth { node: n })?;
        let cap_up = if enforce_cap { up.cap_up } else { Kbps::MAX };
        let cap_dn = if enforce_cap { up.cap_dn } else { Kbps::MAX };
        let new_up = apply_delta(up.used_up, delta_up, cap_up, n)?;
        let new_dn = apply_delta(up.used_dn, delta_dn, cap_dn, n)?;
        let old_half = (up.avail_up as u128 + up.avail_dn as u128) / 2;
        up.used_up = new_up;
        up.used_dn = new_dn;
        // A degraded link's cap can sit below reservations accepted before
        // the fault, so availability saturates at zero instead of asserting
        // `used ≤ cap`.
        up.avail_up = up.cap_up.saturating_sub(new_up);
        up.avail_dn = up.cap_dn.saturating_sub(new_dn);
        let new_half = (up.avail_up as u128 + up.avail_dn as u128) / 2;
        let lu = &mut self.level_used[level];
        lu.0 = (lu.0 as i64 + delta_up) as Kbps;
        lu.1 = (lu.1 as i64 + delta_dn) as Kbps;
        self.level_avail_half[level] = self.level_avail_half[level] - old_half + new_half;
        Ok(())
    }

    /// Sum of reserved uplink bandwidth over all nodes of a level, per
    /// direction. This is the paper's Table 1 metric ("aggregate bandwidth
    /// reserved on uplinks from the server, ToR, and agg switch levels").
    #[inline]
    pub fn reserved_at_level(&self, level: usize) -> (Kbps, Kbps) {
        self.level_used[level]
    }

    /// Total uplink capacity over all nodes of a level (single direction).
    #[inline]
    pub fn capacity_at_level(&self, level: usize) -> Kbps {
        self.level_cap[level]
    }

    /// Sum of `⌊(avail_up + avail_dn) / 2⌋` over every uplink of a level —
    /// the numerator of the §4.5 per-slot-availability test applied to a
    /// whole level, maintained incrementally (bit-identical to summing
    /// per-node halves).
    #[inline]
    pub fn avail_half_sum_at_level(&self, level: usize) -> u128 {
        self.level_avail_half[level]
    }

    // ------------------------------------------------------------------
    // Failure injection
    // ------------------------------------------------------------------

    /// Whether `n` is a failed server (always `false` for switches).
    #[inline]
    pub fn is_failed(&self, n: NodeId) -> bool {
        self.nodes[n.index()].failed
    }

    /// [`TopologyError::InvalidFault`] unless `n` is a node of this tree.
    fn check_node(&self, n: NodeId) -> Result<(), TopologyError> {
        if n.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(TopologyError::InvalidFault { node: n })
        }
    }

    /// Mark a server failed: its free slots leave every subtree aggregate
    /// (so `descend_to_level` and the placers can no longer see them) and
    /// new allocations are rejected. Slots already allocated stay in the
    /// `slots_used` ledger so tenants can still release (evacuate) them.
    /// Returns `false` when the server was already failed (no-op).
    pub fn fail_server(&mut self, server: NodeId) -> Result<bool, TopologyError> {
        self.check_node(server)?;
        let node = &self.nodes[server.index()];
        if node.level != 0 {
            return Err(TopologyError::NotAServer { node: server });
        }
        if node.failed {
            return Ok(false);
        }
        let free = (node.slots_total - node.slots_used) as u64;
        self.nodes[server.index()].failed = true;
        if free > 0 {
            let mut cur = Some(server);
            while let Some(c) = cur {
                self.nodes[c.index()].sub_slots_free -= free;
                cur = self.nodes[c.index()].parent;
            }
            self.refresh_max_free(server);
        }
        Ok(true)
    }

    /// Undo [`Topology::fail_server`]: whatever is free on the server at
    /// repair time re-enters the subtree aggregates. Returns `false` when
    /// the server was not failed (no-op).
    pub fn restore_server(&mut self, server: NodeId) -> Result<bool, TopologyError> {
        self.check_node(server)?;
        let node = &self.nodes[server.index()];
        if node.level != 0 {
            return Err(TopologyError::NotAServer { node: server });
        }
        if !node.failed {
            return Ok(false);
        }
        let free = (node.slots_total - node.slots_used) as u64;
        self.nodes[server.index()].failed = false;
        if free > 0 {
            let mut cur = Some(server);
            while let Some(c) = cur {
                self.nodes[c.index()].sub_slots_free += free;
                cur = self.nodes[c.index()].parent;
            }
            self.refresh_max_free(server);
        }
        Ok(true)
    }

    /// Set `n`'s uplink capacity to `round(nominal × fraction)` in both
    /// directions (0.0 kills the link, 1.0 restores it exactly).
    /// Reservations accepted before the fault are kept even when they now
    /// exceed the degraded cap — availability saturates at zero, so no
    /// *new* reservation can cross the link, and the per-level caches
    /// follow the degraded capacity. The root, or a `fraction` outside
    /// `[0, 1]`, is [`TopologyError::InvalidFault`].
    pub fn degrade_link(&mut self, n: NodeId, fraction: f64) -> Result<(), TopologyError> {
        self.check_node(n)?;
        if !(0.0..=1.0).contains(&fraction) {
            return Err(TopologyError::InvalidFault { node: n });
        }
        let node = &mut self.nodes[n.index()];
        // The root has no uplink to degrade.
        let up = node
            .up
            .as_mut()
            .ok_or(TopologyError::InvalidFault { node: n })?;
        let level = node.level as usize;
        let nominal = self.spec.uplink_kbps[level];
        let new_cap = (nominal as f64 * fraction).round() as Kbps;
        let old_cap = up.cap_up;
        let old_half = (up.avail_up as u128 + up.avail_dn as u128) / 2;
        up.cap_up = new_cap;
        up.cap_dn = new_cap;
        up.avail_up = new_cap.saturating_sub(up.used_up);
        up.avail_dn = new_cap.saturating_sub(up.used_dn);
        let new_half = (up.avail_up as u128 + up.avail_dn as u128) / 2;
        node.link_fraction = fraction;
        self.level_cap[level] = self.level_cap[level] - old_cap + new_cap;
        self.level_avail_half[level] = self.level_avail_half[level] - old_half + new_half;
        Ok(())
    }

    /// Restore `n`'s uplink to its nominal capacity (bit-exact: the cap
    /// comes back from the spec, not from un-scaling the degraded value).
    pub fn restore_link(&mut self, n: NodeId) -> Result<(), TopologyError> {
        self.degrade_link(n, 1.0)
    }

    /// Fail a whole fault domain: kill `n`'s uplink (capacity 0) and fail
    /// every server in its subtree. Returns the servers that were newly
    /// failed by this call (already-failed ones are skipped), which is what
    /// a recovery layer needs to find the tenants that just lost VMs.
    pub fn fail_domain(&mut self, n: NodeId) -> Result<Vec<NodeId>, TopologyError> {
        self.degrade_link(n, 0.0)?;
        let servers: Vec<NodeId> = self.servers_under(n).to_vec();
        let mut newly = Vec::new();
        for s in servers {
            if self.fail_server(s)? {
                newly.push(s);
            }
        }
        Ok(newly)
    }

    /// Undo [`Topology::fail_domain`]: restore the uplink to nominal and
    /// restore every failed server in the subtree (including any that were
    /// failed individually before the domain kill). Returns the servers
    /// that came back.
    pub fn restore_domain(&mut self, n: NodeId) -> Result<Vec<NodeId>, TopologyError> {
        self.restore_link(n)?;
        let servers: Vec<NodeId> = self.servers_under(n).to_vec();
        let mut restored = Vec::new();
        for s in servers {
            if self.restore_server(s)? {
                restored.push(s);
            }
        }
        Ok(restored)
    }

    /// Check internal invariants; returns a description of the first
    /// violation. Intended for tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            if node.failed && node.level != 0 {
                return Err(format!("{id}: failure mask set on a switch"));
            }
            if node.link_fraction != 1.0 && node.up.is_none() {
                return Err(format!("{id}: link fraction set on the root"));
            }
            if node.slots_used > node.slots_total {
                return Err(format!("{id}: slots_used > slots_total"));
            }
            if let Some(u) = node.up {
                // The cap must re-derive from the spec nominal and the
                // failure mask; `used` may exceed a degraded cap (old
                // reservations are kept) but never the nominal.
                let nominal = self.spec.uplink_kbps[node.level as usize];
                let expect_cap = (nominal as f64 * node.link_fraction).round() as Kbps;
                if u.cap_up != expect_cap || u.cap_dn != expect_cap {
                    return Err(format!(
                        "{id}: uplink cap {:?} != nominal × fraction {expect_cap}",
                        (u.cap_up, u.cap_dn)
                    ));
                }
                if u.used_up > nominal || u.used_dn > nominal {
                    return Err(format!("{id}: uplink over nominal capacity"));
                }
                if node.link_fraction == 1.0 && (u.used_up > u.cap_up || u.used_dn > u.cap_dn) {
                    return Err(format!("{id}: healthy uplink over capacity"));
                }
            }
            let expect_free: u64 = if node.level == 0 {
                if node.failed {
                    0
                } else {
                    (node.slots_total - node.slots_used) as u64
                }
            } else {
                self.children(id).map(|c| self.subtree_slots_free(c)).sum()
            };
            if node.sub_slots_free != expect_free {
                return Err(format!(
                    "{id}: sub_slots_free {} != recomputed {expect_free}",
                    node.sub_slots_free
                ));
            }
            if let Some(u) = node.up {
                if u.avail_up != u.cap_up.saturating_sub(u.used_up)
                    || u.avail_dn != u.cap_dn.saturating_sub(u.used_dn)
                {
                    return Err(format!("{id}: cached uplink avail out of sync"));
                }
            }
            // The max-free aggregate at every target level, against a
            // brute-force recomputation from the children.
            let num_levels = self.levels.len();
            for tl in 0..num_levels {
                let expect: u64 = if tl == node.level as usize {
                    node.sub_slots_free
                } else if tl < node.level as usize {
                    self.children(id)
                        .map(|c| self.max_free[c.index() * num_levels + tl])
                        .max()
                        .unwrap_or(0)
                } else {
                    0
                };
                let got = self.max_free[i * num_levels + tl];
                if got != expect {
                    return Err(format!(
                        "{id}: max_free[level {tl}] {got} != recomputed {expect}"
                    ));
                }
            }
        }
        // Per-level caches against brute-force sums over the level's nodes.
        for level in 0..self.levels.len() {
            let mut used = (0u64, 0u64);
            let mut cap = 0u64;
            let mut half = 0u128;
            for &n in &self.levels[level] {
                if let Some(u) = self.nodes[n.index()].up {
                    used.0 += u.used_up;
                    used.1 += u.used_dn;
                    cap += u.cap_up;
                    half += (u.avail_up as u128 + u.avail_dn as u128) / 2;
                }
            }
            if self.level_used[level] != used {
                return Err(format!(
                    "level {level}: cached reserved {:?} != recomputed {used:?}",
                    self.level_used[level]
                ));
            }
            if self.level_cap[level] != cap {
                return Err(format!("level {level}: cached capacity out of sync"));
            }
            if self.level_avail_half[level] != half {
                return Err(format!("level {level}: cached avail-half sum out of sync"));
            }
        }
        Ok(())
    }
}

fn apply_delta(used: Kbps, delta: i64, cap: Kbps, node: NodeId) -> Result<Kbps, TopologyError> {
    if delta > 0 {
        let new = used
            .checked_add(delta as u64)
            .ok_or(TopologyError::InsufficientBandwidth { node })?;
        if new > cap {
            return Err(TopologyError::InsufficientBandwidth { node });
        }
        Ok(new)
    } else {
        // Only increases are cap-checked: a degraded link can hold
        // reservations above its current cap, and releasing (or leaving)
        // one direction while adjusting the other must still succeed.
        used.checked_sub(delta.unsigned_abs())
            .ok_or(TopologyError::ReleaseUnderflow { node })
    }
}

/// Iterator over a node's ancestors (see [`Topology::path_to_root`]).
pub struct PathToRoot<'a> {
    topo: &'a Topology,
    next: Option<NodeId>,
}

impl Iterator for PathToRoot<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.topo.parent(cur);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{gbps, mbps};

    fn paper() -> Topology {
        Topology::build(&TreeSpec::paper_datacenter())
    }

    #[test]
    fn paper_topology_shape() {
        let t = paper();
        assert_eq!(t.num_levels(), 4);
        assert_eq!(t.nodes_at_level(0).len(), 2048);
        assert_eq!(t.nodes_at_level(1).len(), 64);
        assert_eq!(t.nodes_at_level(2).len(), 8);
        assert_eq!(t.nodes_at_level(3).len(), 1);
        assert_eq!(t.servers().len(), 2048);
        assert_eq!(t.subtree_slots_free(t.root()), 2048 * 25);
        t.check_invariants().unwrap();
    }

    #[test]
    fn servers_under_is_contiguous_and_complete() {
        let t = paper();
        let tor = t.nodes_at_level(1)[0];
        assert_eq!(t.servers_under(tor).len(), 32);
        let agg = t.nodes_at_level(2)[3];
        assert_eq!(t.servers_under(agg).len(), 256);
        assert_eq!(t.servers_under(t.root()).len(), 2048);
        // Every server under the ToR has that ToR as an ancestor.
        for &s in t.servers_under(tor) {
            assert!(t.path_to_root(s).any(|a| a == tor));
        }
    }

    #[test]
    fn path_to_root_levels_ascend() {
        let t = paper();
        let s = t.servers()[100];
        let path: Vec<_> = t.path_to_root(s).collect();
        assert_eq!(path.len(), 4);
        assert_eq!(t.level(path[0]), 0);
        assert_eq!(t.level(path[3]), 3);
        assert_eq!(path[3], t.root());
    }

    #[test]
    fn lca_matches_ancestor_structure() {
        let t = paper();
        let s0 = t.servers()[0];
        let s1 = t.servers()[1]; // same rack
        let s40 = t.servers()[40]; // same pod, different rack
        let s300 = t.servers()[300]; // different pod
        assert_eq!(t.lca(s0, s0), s0);
        assert_eq!(t.lca(s0, s1), t.parent(s0).unwrap());
        assert_eq!(t.lca(s0, s40), t.parent(t.parent(s0).unwrap()).unwrap());
        assert_eq!(t.lca(s0, s300), t.root());
        assert_eq!(t.lca(s0, s300), t.lca(s300, s0), "symmetric");
        // Mixed levels: a server against its own ToR and a foreign ToR.
        let tor = t.parent(s0).unwrap();
        assert_eq!(t.lca(s0, tor), tor);
        let other_tor = t.parent(s300).unwrap();
        assert_eq!(t.lca(s0, other_tor), t.root());
        // The LCA is an ancestor of both and the deepest such node: every
        // cross-check against the brute-force path intersection agrees.
        for &(x, y) in &[(s0, s1), (s0, s40), (s0, s300), (s1, s40)] {
            let px: Vec<_> = t.path_to_root(x).collect();
            let brute = t
                .path_to_root(y)
                .find(|n| px.contains(n))
                .expect("root is common");
            assert_eq!(t.lca(x, y), brute);
        }
    }

    #[test]
    fn slot_alloc_and_release() {
        let mut t = paper();
        let s = t.servers()[0];
        let tor = t.parent(s).unwrap();
        assert_eq!(t.slots_free(s), 25);
        t.alloc_slots(s, 10).unwrap();
        assert_eq!(t.slots_free(s), 15);
        assert_eq!(t.subtree_slots_free(tor), 32 * 25 - 10);
        assert_eq!(t.subtree_slots_free(t.root()), 2048 * 25 - 10);
        t.release_slots(s, 10).unwrap();
        assert_eq!(t.subtree_slots_free(t.root()), 2048 * 25);
        t.check_invariants().unwrap();
    }

    #[test]
    fn slot_overflow_and_underflow_rejected() {
        let mut t = paper();
        let s = t.servers()[0];
        assert!(matches!(
            t.alloc_slots(s, 26),
            Err(TopologyError::InsufficientSlots { .. })
        ));
        assert!(matches!(
            t.release_slots(s, 1),
            Err(TopologyError::ReleaseUnderflow { .. })
        ));
        // Failed ops leave state untouched.
        assert_eq!(t.slots_free(s), 25);
        t.check_invariants().unwrap();
    }

    #[test]
    fn slot_ops_on_switch_rejected() {
        let mut t = paper();
        let tor = t.nodes_at_level(1)[0];
        assert!(matches!(
            t.alloc_slots(tor, 1),
            Err(TopologyError::NotAServer { .. })
        ));
    }

    #[test]
    fn uplink_reserve_and_release() {
        let mut t = paper();
        let s = t.servers()[0];
        assert_eq!(t.uplink_capacity(s), Some((gbps(10.0), gbps(10.0))));
        t.adjust_uplink(s, mbps(500.0) as i64, mbps(300.0) as i64)
            .unwrap();
        assert_eq!(t.uplink_used(s), Some((mbps(500.0), mbps(300.0))));
        assert_eq!(
            t.uplink_avail(s),
            Some((gbps(10.0) - mbps(500.0), gbps(10.0) - mbps(300.0)))
        );
        t.adjust_uplink(s, -(mbps(500.0) as i64), -(mbps(300.0) as i64))
            .unwrap();
        assert_eq!(t.uplink_used(s), Some((0, 0)));
    }

    #[test]
    fn uplink_capacity_enforced_atomically() {
        let mut t = paper();
        let s = t.servers()[0];
        // Up fits, down does not => nothing applied.
        let r = t.adjust_uplink(s, 1, gbps(10.0) as i64 + 1);
        assert!(matches!(
            r,
            Err(TopologyError::InsufficientBandwidth { .. })
        ));
        assert_eq!(t.uplink_used(s), Some((0, 0)));
        // Underflow rejected.
        assert!(matches!(
            t.adjust_uplink(s, -1, 0),
            Err(TopologyError::ReleaseUnderflow { .. })
        ));
    }

    #[test]
    fn root_has_no_uplink() {
        let mut t = paper();
        let root = t.root();
        assert_eq!(t.uplink_capacity(root), None);
        assert!(t.adjust_uplink(root, 1, 1).is_err());
        assert_eq!(t.avail_to_root(root), (Kbps::MAX, Kbps::MAX));
    }

    #[test]
    fn avail_to_root_takes_path_minimum() {
        let mut t = paper();
        let s = t.servers()[0];
        let tor = t.parent(s).unwrap();
        let agg = t.parent(tor).unwrap();
        t.adjust_uplink(agg, gbps(79.0) as i64, 0).unwrap();
        let (up, dn) = t.avail_to_root(s);
        assert_eq!(up, gbps(1.0)); // agg uplink is now the bottleneck
        assert_eq!(dn, gbps(10.0)); // server NIC is the down bottleneck
    }

    #[test]
    fn reserved_at_level_sums() {
        let mut t = paper();
        let s0 = t.servers()[0];
        let s1 = t.servers()[1];
        t.adjust_uplink(s0, 1000, 500).unwrap();
        t.adjust_uplink(s1, 2000, 700).unwrap();
        assert_eq!(t.reserved_at_level(0), (3000, 1200));
        assert_eq!(t.reserved_at_level(1), (0, 0));
        assert_eq!(t.capacity_at_level(0), 2048 * gbps(10.0));
    }

    #[test]
    fn fig6_rack_topology() {
        let t = Topology::build(&TreeSpec::fig6_rack());
        assert_eq!(t.num_levels(), 2);
        assert_eq!(t.servers().len(), 4);
        assert_eq!(t.slots_total(t.servers()[0]), 2);
        assert_eq!(
            t.uplink_capacity(t.servers()[0]),
            Some((mbps(10.0), mbps(10.0)))
        );
    }

    #[test]
    fn max_subtree_free_tracks_alloc_release() {
        let mut t = paper();
        let tor = t.nodes_at_level(1)[0];
        assert_eq!(t.max_subtree_free_at(t.root(), 0), 25);
        assert_eq!(t.max_subtree_free_at(tor, 0), 25);
        assert_eq!(t.max_subtree_free_at(tor, 1), 32 * 25);
        assert_eq!(t.max_subtree_free_at(tor, 2), 0, "level above the node");
        // Drain one whole rack; its ToR aggregate drops, the root's doesn't.
        for &s in t.servers_under(tor).to_vec().iter() {
            t.alloc_slots(s, 25).unwrap();
        }
        assert_eq!(t.max_subtree_free_at(tor, 0), 0);
        assert_eq!(t.max_subtree_free_at(t.root(), 0), 25);
        assert_eq!(t.max_subtree_free_at(t.root(), 1), 32 * 25);
        t.check_invariants().unwrap();
    }

    #[test]
    fn level_caches_match_brute_force() {
        let mut t = paper();
        let s0 = t.servers()[0];
        let tor = t.parent(s0).unwrap();
        t.adjust_uplink(s0, 1001, 500).unwrap();
        t.adjust_uplink(tor, 777, 333).unwrap();
        // check_invariants recomputes all three caches brute-force.
        t.check_invariants().unwrap();
        assert_eq!(t.reserved_at_level(0), (1001, 500));
        assert_eq!(t.reserved_at_level(1), (777, 333));
        assert_eq!(t.capacity_at_level(1), 64 * gbps(80.0));
        let expect_half: u128 = t
            .nodes_at_level(0)
            .iter()
            .filter_map(|&n| t.uplink_avail(n))
            .map(|(u, d)| (u as u128 + d as u128) / 2)
            .sum();
        assert_eq!(t.avail_half_sum_at_level(0), expect_half);
    }

    #[test]
    fn fail_and_restore_server_round_trips_exactly() {
        let mut t = paper();
        let s = t.servers()[0];
        let tor = t.parent(s).unwrap();
        t.alloc_slots(s, 10).unwrap();
        assert!(t.fail_server(s).unwrap());
        assert!(!t.fail_server(s).unwrap(), "second fail is a no-op");
        assert!(t.is_failed(s));
        // Free capacity vanished from every aggregate and new allocations
        // are rejected; the 10 allocated slots stay on the books.
        assert_eq!(t.slots_free(s), 0);
        assert_eq!(t.subtree_slots_free(tor), 31 * 25);
        assert_eq!(t.max_subtree_free_at(tor, 0), 25);
        assert!(matches!(
            t.alloc_slots(s, 1),
            Err(TopologyError::NodeFailed { .. })
        ));
        t.check_invariants().unwrap();
        // Evacuating the dead server releases privately (aggregates see
        // nothing until repair).
        t.release_slots(s, 10).unwrap();
        assert_eq!(t.subtree_slots_free(tor), 31 * 25);
        t.check_invariants().unwrap();
        assert!(t.restore_server(s).unwrap());
        assert!(!t.restore_server(s).unwrap());
        assert_eq!(t.slots_free(s), 25);
        assert_eq!(t.subtree_slots_free(t.root()), 2048 * 25);
        assert!(!t.is_failed(s));
        t.check_invariants().unwrap();
    }

    #[test]
    fn degrade_link_keeps_old_reservations_but_blocks_new_ones() {
        let mut t = paper();
        let s = t.servers()[0];
        t.adjust_uplink(s, gbps(5.0) as i64, gbps(5.0) as i64)
            .unwrap();
        t.degrade_link(s, 0.25).unwrap();
        assert_eq!(t.uplink_capacity(s), Some((gbps(2.5), gbps(2.5))));
        assert_eq!(t.uplink_used(s), Some((gbps(5.0), gbps(5.0))));
        assert_eq!(t.uplink_avail(s), Some((0, 0)));
        t.check_invariants().unwrap();
        // New reservations bounce; releases still work.
        assert!(t.adjust_uplink(s, 1, 0).is_err());
        t.adjust_uplink(s, -(gbps(5.0) as i64), -(gbps(5.0) as i64))
            .unwrap();
        // Restoring a previously-held reservation is allowed through the
        // force path even though it exceeds the degraded cap.
        assert!(t.adjust_uplink(s, gbps(5.0) as i64, 0).is_err());
        t.force_adjust_uplink(s, gbps(5.0) as i64, 0).unwrap();
        t.check_invariants().unwrap();
        t.restore_link(s).unwrap();
        assert_eq!(t.uplink_capacity(s), Some((gbps(10.0), gbps(10.0))));
        assert_eq!(t.uplink_avail(s), Some((gbps(5.0), gbps(10.0))));
        t.check_invariants().unwrap();
    }

    #[test]
    fn failed_domain_is_invisible_to_descend() {
        let mut t = paper();
        let tor = t.nodes_at_level(1)[0];
        let newly = t.fail_domain(tor).unwrap();
        assert_eq!(newly.len(), 32);
        let failed: Vec<NodeId> = t
            .servers()
            .iter()
            .copied()
            .filter(|&s| t.is_failed(s))
            .collect();
        assert_eq!(failed, newly);
        assert_eq!(t.subtree_slots_free(tor), 0);
        assert_eq!(t.subtree_slots_free(t.root()), (2048 - 32) * 25);
        assert_eq!(t.uplink_capacity(tor), Some((0, 0)));
        t.check_invariants().unwrap();
        // Placement search never lands inside the dead domain: the first
        // healthy rack wins every tie up to the racks, the first intact pod
        // above them.
        let rack = t.nodes_at_level(1)[1];
        let expect = [
            t.servers_under(rack)[0],
            rack,
            t.nodes_at_level(2)[1],
            t.root(),
        ];
        for (level, want) in expect.into_iter().enumerate() {
            assert_eq!(t.descend_to_level(level, 25, (0, 0)), Some(want));
        }
        let restored = t.restore_domain(tor).unwrap();
        assert_eq!(restored.len(), 32);
        assert_eq!(t.subtree_slots_free(t.root()), 2048 * 25);
        assert!(t.servers().iter().all(|&s| !t.is_failed(s)));
        assert_eq!(t.uplink_capacity(tor), Some((gbps(80.0), gbps(80.0))));
        t.check_invariants().unwrap();
    }

    #[test]
    fn children_iteration_matches_levels() {
        let t = paper();
        let mut all: Vec<NodeId> = Vec::new();
        let mut stack = vec![t.root()];
        while let Some(n) = stack.pop() {
            all.push(n);
            stack.extend(t.children(n));
        }
        assert_eq!(all.len(), 1 + 8 + 64 + 2048);
    }
}
