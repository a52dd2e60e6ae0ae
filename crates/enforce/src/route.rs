//! LCA-keyed server-pair route cache with ECMP fat-tree multipath.
//!
//! Routing a VM pair over the physical tree is pure topology: the packet
//! climbs from the source server to the pair's lowest common ancestor
//! ([`cm_topology::Topology::lca`]) and descends to the destination. The
//! batch solver recomputed that walk for every VM pair on every step;
//! at datacenter scale the *distinct* server pairs are a tiny fraction of
//! the VM pairs (many tenants, many VMs per server), so [`RouteCache`]
//! memoizes the walk once per `(src server, dst server)` and every flow —
//! of any tenant — reuses it.
//!
//! ## Logical hops vs. fluid links
//!
//! The memo stores **logical hops**, not fluid link ids: each hop is one
//! directional traversal of a node's uplink, encoded as
//! `node_index << 1 | is_up`. Materializing a hop list into concrete
//! [`crate::fluid::Fluid`] link indices is a separate, O(hops) step
//! ([`RouteCache::path_hashed`]) because under ECMP one logical hop maps
//! to one of several parallel sub-links.
//!
//! ## ECMP multipath
//!
//! A real fat-tree core is a bundle of equal-cost parallel links, not one
//! fat pipe; modeling it as one pipe lets a single elephant flow borrow the
//! whole bundle and hides incast hot-spotting. [`EcmpConfig`] splits every
//! uplink from the ToR level up (server NICs are physically one cable)
//! into `ways` parallel fluid sub-links of `cap / ways` each, per
//! direction. Each flow bundle picks **one** sub-link per hop by a
//! deterministic hash of `(tenant, src server, dst server, node)`, the
//! fluid analogue of per-flow ECMP hashing: collisions and the resulting
//! hot sub-links are modeled faithfully — including two bundles whose
//! floors fit the uplink landing on one `cap / ways` lane that cannot
//! carry both (placement reserves on the aggregate uplink, not per lane).
//!
//! `ways = 1` (the default) reproduces the single-pipe layout of the batch
//! solver exactly — same link order, same capacities, same link count.

use crate::fluid::Fluid;
use cm_core::fasthash::{FastHasher, FastMap};
use cm_topology::{NodeId, Topology};
use std::hash::Hasher;

/// Lowest tree level whose uplinks are split: ToR uplinks and above.
const SPLIT_FROM_LEVEL: u8 = 1;

/// ECMP configuration for the fat-tree core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcmpConfig {
    /// Parallel sub-links per direction of every split uplink (≥ 1).
    pub ways: u32,
}

impl EcmpConfig {
    /// Single-pipe routing: no link is split (the batch solver's layout).
    pub fn none() -> Self {
        EcmpConfig { ways: 1 }
    }

    /// Hash-based ECMP with `ways` sub-links from the ToR level up.
    pub fn hashed(ways: u32) -> Self {
        EcmpConfig { ways }
    }
}

impl Default for EcmpConfig {
    fn default() -> Self {
        EcmpConfig::none()
    }
}

/// Server-pair route memo + fluid link layout for one topology (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct RouteCache {
    cfg: EcmpConfig,
    /// First fluid link id of node `n`'s **up** sub-links (`u32::MAX` for
    /// the root, which has no uplink).
    up_base: Vec<u32>,
    /// First fluid link id of node `n`'s **down** sub-links.
    dn_base: Vec<u32>,
    /// Parallel sub-links per direction of node `n`'s uplink.
    ways_of: Vec<u32>,
    /// Tree level of the node owning each fluid link.
    link_level: Vec<u8>,
    /// Whether each fluid link is one of `ways > 1` parallel ECMP
    /// sub-links (the "core sub-links" the imbalance report measures).
    link_split: Vec<bool>,
    /// `(src server << 32 | dst server)` → logical hop list
    /// (`node_index << 1 | is_up` per hop, path order).
    hops: FastMap<u64, Vec<u32>>,
}

impl RouteCache {
    /// Lay out the fluid links for `topo` under `cfg` into the (empty)
    /// network `net` and return the cache. Every uplink of the tree
    /// becomes `ways_of(node)` parallel sub-links per direction, each of
    /// `cap / ways` — up sub-links first, then down, in node order.
    pub fn build(topo: &Topology, cfg: EcmpConfig, net: &mut Fluid) -> Self {
        assert!(cfg.ways >= 1, "ECMP needs at least one sub-link");
        assert_eq!(net.num_links(), 0, "route cache owns the link layout");
        let n = topo.num_nodes();
        let mut up_base = vec![u32::MAX; n];
        let mut dn_base = vec![u32::MAX; n];
        let mut ways_of = vec![1u32; n];
        let mut link_level = Vec::new();
        let mut link_split = Vec::new();
        for idx in 0..n {
            let node = NodeId(idx as u32);
            let Some((cap_up, cap_dn)) = topo.uplink_capacity(node) else {
                continue; // the root has no uplink
            };
            let level = topo.level(node);
            let w = if level >= SPLIT_FROM_LEVEL {
                cfg.ways
            } else {
                1
            };
            ways_of[idx] = w;
            up_base[idx] = net.num_links() as u32;
            for _ in 0..w {
                net.link(cap_up as f64 / w as f64);
            }
            dn_base[idx] = net.num_links() as u32;
            for _ in 0..w {
                net.link(cap_dn as f64 / w as f64);
            }
            link_level.extend(std::iter::repeat_n(level, 2 * w as usize));
            link_split.extend(std::iter::repeat_n(w > 1, 2 * w as usize));
        }
        RouteCache {
            cfg,
            up_base,
            dn_base,
            ways_of,
            link_level,
            link_split,
            hops: FastMap::default(),
        }
    }

    /// The ECMP configuration the layout was built with.
    pub fn config(&self) -> EcmpConfig {
        self.cfg
    }

    /// Tree level of the node owning fluid link `l`.
    pub fn link_level(&self, l: usize) -> u8 {
        self.link_level[l]
    }

    /// Whether fluid link `l` is an ECMP sub-link (one of `ways > 1`
    /// parallel lanes of a split uplink). The traffic report aggregates
    /// max/mean utilization over exactly these links, so hash-collision
    /// imbalance is measurable (a perfectly even spread has max = mean).
    pub fn link_is_split(&self, l: usize) -> bool {
        self.link_split[l]
    }

    /// Fluid links laid out (2 × ways per split uplink).
    pub fn num_links(&self) -> usize {
        self.link_level.len()
    }

    /// The fluid sub-links of node `n`'s uplink as `(up, down)` id ranges
    /// (each `ways_of(n)` long, contiguous), or `None` for the root. This
    /// is the layout inverse a capacity re-sync walks: each sub-link
    /// carries `uplink cap / ways`.
    #[allow(clippy::type_complexity)]
    pub fn links_of(&self, n: NodeId) -> Option<(std::ops::Range<usize>, std::ops::Range<usize>)> {
        let idx = n.index();
        let up = self.up_base[idx];
        if up == u32::MAX {
            return None;
        }
        let w = self.ways_of[idx] as usize;
        let dn = self.dn_base[idx] as usize;
        let up = up as usize;
        Some((up..up + w, dn..dn + w))
    }

    /// Distinct server pairs memoized so far.
    pub fn cached_pairs(&self) -> usize {
        self.hops.len()
    }

    /// The logical hop list of the route `src → dst` (both servers,
    /// distinct), memoized by the pair. Hops ascend from `src` to the LCA
    /// (up hops owned by the ascending nodes) then descend to `dst` (down
    /// hops owned by the destination-side nodes, in path order).
    pub fn hops(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> &[u32] {
        debug_assert!(topo.is_server(src) && topo.is_server(dst) && src != dst);
        let key = (src.0 as u64) << 32 | dst.0 as u64;
        self.hops.entry(key).or_insert_with(|| {
            let meet = topo.lca(src, dst);
            let mut hops = Vec::new();
            let mut a = src;
            while a != meet {
                hops.push(a.0 << 1 | 1);
                a = topo.parent(a).expect("LCA is above src"); // cm-analyze: allow(no-unwrap-in-hot-path) -- lca() returns an ancestor of src, so the walk stops before the root
            }
            let mark = hops.len();
            let mut b = dst;
            while b != meet {
                hops.push(b.0 << 1);
                b = topo.parent(b).expect("LCA is above dst"); // cm-analyze: allow(no-unwrap-in-hot-path) -- lca() returns an ancestor of dst, so the walk stops before the root
            }
            hops[mark..].reverse();
            hops
        })
    }

    /// Materialize `hops` into fluid link ids, choosing one hashed
    /// sub-link per split hop. `seed` should identify the bundle (see
    /// [`flow_seed`]); the same seed always picks the same sub-links.
    pub fn path_hashed(&self, hops: &[u32], seed: u64, out: &mut Vec<usize>) {
        out.reserve(hops.len());
        for &h in hops {
            let node = (h >> 1) as usize;
            let base = if h & 1 == 1 {
                self.up_base[node]
            } else {
                self.dn_base[node]
            };
            let w = self.ways_of[node];
            let sub = if w > 1 { hop_hash(seed, h) % w } else { 0 };
            out.push((base + sub) as usize);
        }
    }
}

/// Deterministic bundle seed: identifies the flow bundle the way a switch's
/// ECMP hash identifies a 5-tuple.
pub fn flow_seed(tenant: u64, src: NodeId, dst: NodeId) -> u64 {
    let mut h = FastHasher::default();
    h.write_u64(tenant);
    h.write_u32(src.0);
    h.write_u32(dst.0);
    h.finish()
}

/// Per-hop sub-link choice: independent across hops for one seed.
#[inline]
fn hop_hash(seed: u64, hop: u32) -> u32 {
    let mut h = FastHasher::default();
    h.write_u64(seed);
    h.write_u32(hop);
    (h.finish() >> 32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_topology::{mbps, TreeSpec};

    fn topo() -> Topology {
        Topology::build(&TreeSpec::small(
            2,
            2,
            4,
            1,
            [mbps(1000.0), mbps(4000.0), mbps(8000.0)],
        ))
    }

    #[test]
    fn single_pipe_layout_matches_batch_solver_convention() {
        let topo = topo();
        let mut net = Fluid::new();
        let rc = RouteCache::build(&topo, EcmpConfig::none(), &mut net);
        // 2 directional links per non-root node, in node order, full caps.
        assert_eq!(net.num_links(), 2 * (topo.num_nodes() - 1));
        assert_eq!(rc.num_links(), net.num_links());
        let mut expect = 0usize;
        for idx in 0..topo.num_nodes() {
            let n = NodeId(idx as u32);
            if let Some((up, dn)) = topo.uplink_capacity(n) {
                assert_eq!(net.link_cap(expect), up as f64);
                assert_eq!(net.link_cap(expect + 1), dn as f64);
                assert_eq!(rc.link_level(expect), topo.level(n));
                expect += 2;
            }
        }
    }

    #[test]
    fn hops_follow_the_lca_route_and_are_memoized() {
        let topo = topo();
        let mut net = Fluid::new();
        let mut rc = RouteCache::build(&topo, EcmpConfig::none(), &mut net);
        let s = topo.servers();
        // Same rack: 1 up + 1 down at the NIC level.
        let h = rc.hops(&topo, s[0], s[1]).to_vec();
        assert_eq!(h, vec![s[0].0 << 1 | 1, s[1].0 << 1]);
        // Cross-pod: 3 up + 3 down, ascending then descending levels.
        let far = *s.last().unwrap();
        let h = rc.hops(&topo, s[0], far).to_vec();
        assert_eq!(h.len(), 6);
        let levels: Vec<u8> = h.iter().map(|&x| topo.level(NodeId(x >> 1))).collect();
        assert_eq!(levels, vec![0, 1, 2, 2, 1, 0]);
        assert!(h[..3].iter().all(|&x| x & 1 == 1), "first half ascends");
        assert!(h[3..].iter().all(|&x| x & 1 == 0), "second half descends");
        // Memoized: two queries, two entries (directional keys).
        rc.hops(&topo, s[0], s[1]);
        rc.hops(&topo, s[0], far);
        assert_eq!(rc.cached_pairs(), 2);
    }

    #[test]
    fn ecmp_splits_core_links_and_preserves_aggregate_capacity() {
        let topo = topo();
        let mut net = Fluid::new();
        let mut rc = RouteCache::build(&topo, EcmpConfig::hashed(4), &mut net);
        // Splitting never changes the aggregate: Σ sub-link caps = Σ uplink
        // caps, both directions.
        let total_cap: f64 = (0..net.num_links()).map(|l| net.link_cap(l)).sum();
        let mut expect_cap = 0.0;
        for idx in 0..topo.num_nodes() {
            if let Some((up, dn)) = topo.uplink_capacity(NodeId(idx as u32)) {
                expect_cap += up as f64 + dn as f64;
            }
        }
        assert!((total_cap - expect_cap).abs() < 1e-6, "capacity preserved");
        let s = topo.servers();
        let far = *s.last().unwrap();
        let tor = topo.parent(s[0]).unwrap();
        let (tor_up, _) = topo.uplink_capacity(tor).unwrap();
        let (nic_up, _) = topo.uplink_capacity(s[0]).unwrap();
        let hops = rc.hops(&topo, s[0], far).to_vec();
        let mut path = Vec::new();
        rc.path_hashed(&hops, flow_seed(9, s[0], far), &mut path);
        assert_eq!(path.len(), 6);
        // NIC hop (level 0, never split) stays full capacity; the ToR
        // hop is one of 4 sub-links at a quarter capacity each.
        assert!((net.link_cap(path[0]) - nic_up as f64).abs() < 1e-6);
        assert!((net.link_cap(path[1]) - tor_up as f64 / 4.0).abs() < 1e-6);
        // Determinism: same seed → same sub-links.
        let mut again = Vec::new();
        rc.path_hashed(&hops, flow_seed(9, s[0], far), &mut again);
        assert_eq!(path, again);
    }
}
