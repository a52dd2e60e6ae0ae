//! Declarative topology descriptions.

use crate::units::{gbps, Kbps, UNLIMITED_KBPS};

/// Declarative description of a single-rooted tree datacenter.
///
/// The tree has `fanout_top_down.len() + 1` levels. Level 0 (bottom) holds
/// the servers; the root sits at the top. `fanout_top_down[0]` is the number
/// of children of the root, `fanout_top_down.last()` is the number of servers
/// per bottom switch.
///
/// `uplink_kbps[l]` is the capacity, in each direction independently, of the
/// uplink of every node at level `l` (so `uplink_kbps[0]` is the server NIC
/// uplink). The root has no uplink, hence `uplink_kbps.len() ==
/// fanout_top_down.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeSpec {
    /// Children per node at each level, from the root downwards.
    pub fanout_top_down: Vec<u32>,
    /// Uplink capacity per level, bottom-up (index 0 = server uplink).
    pub uplink_kbps: Vec<Kbps>,
    /// VM slots per server.
    pub slots_per_server: u32,
}

impl TreeSpec {
    /// The paper's evaluation datacenter (§5 "Simulation Setup"):
    ///
    /// * 3-level tree "inspired by a real cloud datacenter" with 2048 servers
    ///   (8 aggregation pods × 8 racks × 32 servers),
    /// * 25 VM slots per server (51,200 slots total),
    /// * 10 Gbps server uplinks,
    /// * ToR and aggregation uplinks oversubscribed "by a 32:8:1 ratio,
    ///   mimicking real datacenters": 80 Gbps ToR uplinks (4:1 at the ToR)
    ///   and 80 Gbps aggregation uplinks (8:1 at the aggregation), for a
    ///   32:1 end-to-end oversubscription.
    pub fn paper_datacenter() -> Self {
        TreeSpec {
            fanout_top_down: vec![8, 8, 32],
            uplink_kbps: vec![gbps(10.0), gbps(80.0), gbps(80.0)],
            slots_per_server: 25,
        }
    }

    /// The paper datacenter reshaped to a given *total* oversubscription
    /// ratio (Fig. 9 sweeps 16× to 128×).
    ///
    /// The 1:2 split between the two stages of the default topology is
    /// preserved: the ToR stage is oversubscribed `sqrt(total/2)`:1 and the
    /// aggregation stage `2·sqrt(total/2)`:1, so their product is `total`.
    /// `total = 32` reproduces [`TreeSpec::paper_datacenter`] exactly.
    pub fn paper_datacenter_with_oversubscription(total: f64) -> Self {
        assert!(total >= 1.0, "oversubscription ratio must be >= 1");
        let o_tor = (total / 2.0).sqrt();
        let o_agg = 2.0 * o_tor;
        let server_up = gbps(10.0);
        let tor_down = 32.0 * server_up as f64;
        let tor_up = (tor_down / o_tor).round() as Kbps;
        let agg_down = 8.0 * tor_up as f64;
        let agg_up = (agg_down / o_agg).round() as Kbps;
        TreeSpec {
            fanout_top_down: vec![8, 8, 32],
            uplink_kbps: vec![server_up, tor_up, agg_up],
            slots_per_server: 25,
        }
    }

    /// A small three-level tree for tests and examples.
    ///
    /// `pods × racks × servers` with the given slots per server and uplink
    /// capacities (bottom-up: server, ToR, aggregation).
    pub fn small(
        pods: u32,
        racks: u32,
        servers: u32,
        slots_per_server: u32,
        uplink_kbps: [Kbps; 3],
    ) -> Self {
        TreeSpec {
            fanout_top_down: vec![pods, racks, servers],
            uplink_kbps: uplink_kbps.to_vec(),
            slots_per_server,
        }
    }

    /// The single-rack example of the paper's Fig. 6: one ToR, 4 servers,
    /// 2 slots each, 10 Mbps server NICs (ToR uplink unconstrained).
    pub fn fig6_rack() -> Self {
        TreeSpec {
            fanout_top_down: vec![4],
            uplink_kbps: vec![crate::units::mbps(10.0)],
            slots_per_server: 2,
        }
    }

    /// Replace every uplink capacity with a practically-infinite one
    /// (Table 1 runs on "an ideal network topology with unlimited network
    /// capacity" so that all algorithms deploy the identical tenant set).
    pub fn unlimited_bandwidth(mut self) -> Self {
        for c in &mut self.uplink_kbps {
            *c = UNLIMITED_KBPS;
        }
        self
    }

    /// Number of levels in the tree (servers at level 0, root on top).
    pub fn num_levels(&self) -> usize {
        self.fanout_top_down.len() + 1
    }

    /// Total number of servers described by the spec.
    pub fn num_servers(&self) -> u64 {
        self.fanout_top_down.iter().map(|&f| f as u64).product()
    }

    /// Total number of VM slots described by the spec.
    pub fn total_slots(&self) -> u64 {
        self.num_servers() * self.slots_per_server as u64
    }

    /// Validate internal consistency (fanouts ≥ 1, matching lengths).
    pub fn validate(&self) -> Result<(), String> {
        if self.fanout_top_down.is_empty() {
            return Err("tree must have at least one switch level".into());
        }
        if self.fanout_top_down.contains(&0) {
            return Err("all fanouts must be >= 1".into());
        }
        if self.uplink_kbps.len() != self.fanout_top_down.len() {
            return Err(format!(
                "uplink_kbps must have one entry per non-root level: \
                 got {}, expected {}",
                self.uplink_kbps.len(),
                self.fanout_top_down.len()
            ));
        }
        if self.slots_per_server == 0 {
            return Err("servers must have at least one slot".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_datacenter_matches_section_5() {
        let s = TreeSpec::paper_datacenter();
        assert_eq!(s.num_servers(), 2048);
        assert_eq!(s.total_slots(), 2048 * 25);
        assert_eq!(s.num_levels(), 4); // server, ToR, agg, root
        assert_eq!(s.uplink_kbps[0], gbps(10.0));
        s.validate().unwrap();
    }

    #[test]
    fn oversubscription_32_reproduces_default() {
        let s = TreeSpec::paper_datacenter_with_oversubscription(32.0);
        assert_eq!(s, TreeSpec::paper_datacenter());
    }

    #[test]
    fn oversubscription_total_is_respected() {
        for total in [16.0, 32.0, 64.0, 128.0] {
            let s = TreeSpec::paper_datacenter_with_oversubscription(total);
            // End-to-end oversubscription: aggregate server bw / (pods * agg uplink).
            let server_bw = 2048.0 * gbps(10.0) as f64;
            let core_bw = 8.0 * s.uplink_kbps[2] as f64;
            let achieved = server_bw / core_bw;
            assert!(
                (achieved - total).abs() / total < 0.01,
                "total {total}: achieved {achieved}"
            );
        }
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut s = TreeSpec::paper_datacenter();
        s.fanout_top_down[1] = 0;
        assert!(s.validate().is_err());

        let mut s = TreeSpec::paper_datacenter();
        s.uplink_kbps.pop();
        assert!(s.validate().is_err());

        let mut s = TreeSpec::paper_datacenter();
        s.slots_per_server = 0;
        assert!(s.validate().is_err());

        let s = TreeSpec {
            fanout_top_down: vec![],
            uplink_kbps: vec![],
            slots_per_server: 1,
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn unlimited_bandwidth_lifts_all_caps() {
        let s = TreeSpec::paper_datacenter().unlimited_bandwidth();
        assert!(s.uplink_kbps.iter().all(|&c| c == UNLIMITED_KBPS));
    }
}
