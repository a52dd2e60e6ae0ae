//! The tree's fluid link layout and its LCA routes between servers.
//!
//! Routing a VM pair over the physical tree is pure topology: the packet
//! climbs from the source server to the pair's lowest common ancestor
//! ([`cm_topology::Topology::lca`]) and descends to the destination.
//! [`RouteCache::path`] walks that route as the fluid link ids it crosses,
//! at most 2 × depth hops. The traffic engine asks for a path only when it
//! (re-)expands a tenant, once per bundle of VM pairs that share a server
//! pair, so the walk is not memoized.
//!
//! ## One fluid link per uplink direction
//!
//! [`RouteCache::build`] lays out one fluid link per direction of every
//! uplink of the tree, at that uplink's full capacity: up then down, in
//! node order. This is the tree placement reserves on. A multi-rooted core
//! is modelled as placement sees it, as aggregate uplinks, so floors that
//! admission fitted on an uplink fit on its fluid link too. The
//! incremental engine and the batch solver both lay out their networks
//! here, so the two are identical by construction.

use crate::fluid::Fluid;
use cm_topology::{NodeId, Topology};

/// Fluid link layout and server-pair routes for one topology (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct RouteCache {
    /// Fluid link id of node `n`'s **up** direction (`u32::MAX` for the
    /// root, which has no uplink); its **down** direction is the next id.
    up: Vec<u32>,
    /// Tree level of the node owning each fluid link.
    link_level: Vec<u8>,
}

impl RouteCache {
    /// Lay out the fluid links for `topo` into the (empty) network `net`
    /// and return the cache: one link per direction of every uplink, at
    /// the uplink's capacity — up first, then down, in node order.
    pub fn build(topo: &Topology, net: &mut Fluid) -> Self {
        assert_eq!(net.num_links(), 0, "route cache owns the link layout");
        let n = topo.num_nodes();
        let mut up = vec![u32::MAX; n];
        let mut link_level = Vec::with_capacity(2 * n);
        for (idx, up) in up.iter_mut().enumerate() {
            let node = NodeId(idx as u32);
            let Some((cap_up, cap_dn)) = topo.uplink_capacity(node) else {
                continue; // the root has no uplink
            };
            *up = net.link(cap_up as f64) as u32;
            net.link(cap_dn as f64);
            link_level.extend([topo.level(node); 2]);
        }
        RouteCache { up, link_level }
    }

    /// Tree level of the node owning fluid link `l`.
    pub fn link_level(&self, l: usize) -> u8 {
        self.link_level[l]
    }

    /// Fluid links laid out (2 per uplink).
    pub fn num_links(&self) -> usize {
        self.link_level.len()
    }

    /// The `(up, down)` fluid link ids of node `n`'s uplink, or `None` for
    /// the root — the layout inverse a capacity re-sync walks.
    pub fn links_of(&self, n: NodeId) -> Option<(usize, usize)> {
        let up = self.up[n.index()];
        (up != u32::MAX).then(|| (up as usize, up as usize + 1))
    }

    /// The fluid link ids of the route `src → dst` (both servers,
    /// distinct): the up links of the ascending nodes from `src` to the
    /// LCA, then the down links of the destination-side nodes, in path
    /// order — returned as the path a [`crate::fluid::FlowSpec`] takes.
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Vec<usize> {
        debug_assert!(topo.is_server(src) && topo.is_server(dst) && src != dst);
        let meet = topo.lca(src, dst);
        let mut path = Vec::new();
        let mut a = src;
        while a != meet {
            path.push(self.up[a.index()] as usize);
            #[expect(
                clippy::expect_used,
                reason = "lca() returns an ancestor of src, so the walk stops before the root"
            )]
            let up_a = topo.parent(a).expect("LCA is above src");
            a = up_a;
        }
        let mark = path.len();
        let mut b = dst;
        while b != meet {
            path.push(self.up[b.index()] as usize + 1);
            #[expect(
                clippy::expect_used,
                reason = "lca() returns an ancestor of dst, so the walk stops before the root"
            )]
            let up_b = topo.parent(b).expect("LCA is above dst");
            b = up_b;
        }
        path[mark..].reverse();
        path
    }
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
        let rc = RouteCache::build(&topo, &mut net);
        // 2 directional links per non-root node, in node order, full caps.
        assert_eq!(net.num_links(), 2 * (topo.num_nodes() - 1));
        assert_eq!(rc.num_links(), net.num_links());
        let mut expect = 0usize;
        for idx in 0..topo.num_nodes() {
            let n = NodeId(idx as u32);
            if let Some((up, dn)) = topo.uplink_capacity(n) {
                assert_eq!(rc.links_of(n), Some((expect, expect + 1)));
                assert_eq!(net.link_cap(expect), up as f64);
                assert_eq!(net.link_cap(expect + 1), dn as f64);
                assert_eq!(rc.link_level(expect), topo.level(n));
                expect += 2;
            } else {
                assert_eq!(rc.links_of(n), None);
            }
        }
    }

    #[test]
    fn hops_follow_the_lca_route() {
        let topo = topo();
        let mut net = Fluid::new();
        let rc = RouteCache::build(&topo, &mut net);
        let s = topo.servers();
        let far = *s.last().unwrap();
        let (up0, _) = rc.links_of(s[0]).unwrap();
        let (_, dn1) = rc.links_of(s[1]).unwrap();
        let (_, dn_far) = rc.links_of(far).unwrap();
        // Same rack: src NIC up, dst NIC down.
        assert_eq!(rc.path(&topo, s[0], s[1]), vec![up0, dn1]);
        // Cross-pod: 3 up + 3 down, ascending then descending levels.
        let p = rc.path(&topo, s[0], far);
        assert_eq!(p.len(), 6);
        let levels: Vec<u8> = p.iter().map(|&l| rc.link_level(l)).collect();
        assert_eq!(levels, vec![0, 1, 2, 2, 1, 0]);
        assert!(p[..3].iter().all(|&l| l % 2 == 0), "first half ascends");
        assert!(p[3..].iter().all(|&l| l % 2 == 1), "second half descends");
        assert_eq!((p[0], p[5]), (up0, dn_far));
    }
}
