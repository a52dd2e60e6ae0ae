//! The four workloads: each is chosen so that one layer of the spine
//! dominates it and another idles (see README.md for measured shares).

use cloudmirror::{gbps, EcmpConfig, Kbps, TreeSpec};

/// §5.1's B_max, 800 Mbps: the pool is
/// `bing_like_pool(seed).scaled_to_bmax(BMAX_KBPS)`.
pub const BMAX_KBPS: Kbps = 800_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Pods × racks × servers, 25 VM slots per server.
    pub fanout: [u32; 3],
    /// Server, ToR and aggregation uplinks, Gbps.
    pub uplinks_gbps: [f64; 3],
    /// ECMP ways of the hashed core (1 = single-path routing).
    pub ecmp_ways: u32,
    /// Live tenants held by steady-state churn (and filled during set-up).
    pub target_live: usize,
    /// Arrivals of one rep when the run is bounded by count, not time.
    pub arrivals: usize,
    /// Whether every op is followed by a datacenter-wide traffic step.
    pub step: bool,
    /// Whether the rotating fault / repair schedule runs.
    pub faults: bool,
}

const PAPER_TREE: [u32; 3] = [8, 8, 32];
const PAPER_UPLINKS: [f64; 3] = [10.0, 80.0, 80.0];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "place_hi",
        why: "2,048 servers at ~95% of slots, no traffic steps: placement and subtree search are the whole op, enforcement idles",
        fanout: PAPER_TREE,
        uplinks_gbps: PAPER_UPLINKS,
        ecmp_ways: 1,
        target_live: 900,
        arrivals: 30_000,
        step: false,
        faults: false,
    },
    Workload {
        name: "spine_2k",
        why: "2,048 servers at ~76% of slots, a traffic step after every op: the max-min solve dominates, placement is under 5% of the op",
        fanout: PAPER_TREE,
        uplinks_gbps: PAPER_UPLINKS,
        ecmp_ways: 1,
        target_live: 700,
        arrivals: 170,
        step: true,
        faults: false,
    },
    Workload {
        name: "spine_131k",
        why: "131,072 servers, 8-way hashed ECMP, 2,000 tenants: many small components, so per-step scoring and sync outweigh the solve, and set-up and memory show",
        fanout: [32, 64, 64],
        uplinks_gbps: [10.0, 80.0, 320.0],
        ecmp_ways: 8,
        target_live: 2_000,
        arrivals: 170,
        step: true,
        faults: false,
    },
    Workload {
        name: "fault_repair",
        why: "2,048 servers at ~44% of slots with a rotating domain/server/link fault every 8th arrival: failure masks, evacuation and repair beside steady churn",
        fanout: PAPER_TREE,
        uplinks_gbps: PAPER_UPLINKS,
        ecmp_ways: 1,
        target_live: 400,
        arrivals: 900,
        step: true,
        faults: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn tree(&self) -> TreeSpec {
        TreeSpec {
            fanout_top_down: self.fanout.to_vec(),
            uplink_kbps: self.uplinks_gbps.iter().map(|&g| gbps(g)).collect(),
            slots_per_server: 25,
        }
    }

    pub fn ecmp(&self) -> EcmpConfig {
        if self.ecmp_ways > 1 {
            EcmpConfig::hashed(self.ecmp_ways)
        } else {
            EcmpConfig::none()
        }
    }
}
