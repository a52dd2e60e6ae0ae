//! Golden admission decisions of CM in the near-full regime.
//!
//! The other decision goldens pin aggregates, and the paper configuration
//! never rejects. Here CM runs where its search does the most work: the
//! 8×8×32 paper tree (25 slots per server, 10/80/80 Gbps uplinks) held at
//! about 900 live tenants of the bing-like pool scaled to B_max = 800 Mbps,
//! under depart / admit / scale churn. A rejected admit fails at every
//! level it reaches up to the root, so every pruning in `Alloc`,
//! `Colocate` and `Balance` is exercised by failing attempts as well as
//! successful ones.
//!
//! The digest folds in every admit's placement (server ids × per-tier
//! counts), every scale outcome and the placement after every scale-out;
//! the reject counts are pinned beside it, and so are the placer's work
//! counters, so a search that does more work for the same decisions fails
//! here too. Debug builds check a short prefix of the stream, release
//! builds the whole stream as well.

use cloudmirror::core::placement::{LevelCounters, SearchCounters};
use cloudmirror::workloads::bing_like_pool;
use cloudmirror::{gbps, mbps, Cluster, CmPlacer, TenantId, TierId, TreeSpec};
use std::collections::VecDeque;
use std::sync::Arc;

/// A tiny deterministic generator (splitmix64), so the stream does not
/// depend on any RNG crate's algorithm.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn mix(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[derive(Debug, PartialEq)]
struct Mark {
    arrivals: usize,
    digest: u64,
    admits: u64,
    admit_rejects: u64,
    scales: u64,
    scale_rejects: u64,
    live: usize,
    slots_in_use: u64,
    counters: SearchCounters,
}

const TARGET_LIVE: usize = 900;

/// Fill the datacenter to `TARGET_LIVE` tenants, then run `arrivals`
/// churn arrivals: depart the oldest tenant while `TARGET_LIVE` are live,
/// admit one, and scale a random live tenant out and back in.
/// Returns the marks taken after the fill and at each of `marks`.
fn run(arrivals: usize, marks: &[usize]) -> Vec<Mark> {
    let spec = TreeSpec {
        fanout_top_down: vec![8, 8, 32],
        uplink_kbps: vec![gbps(10.0), gbps(80.0), gbps(80.0)],
        slots_per_server: 25,
    };
    let pool = bing_like_pool(4).scaled_to_bmax(mbps(800.0));
    let tenants = pool.tenants();
    let mut cluster = Cluster::new(&spec, CmPlacer::default());
    let mut rng = Mix(4);
    let mut live: VecDeque<TenantId> = VecDeque::new();
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let mut m = Mark {
        arrivals: 0,
        digest: 0,
        admits: 0,
        admit_rejects: 0,
        scales: 0,
        scale_rejects: 0,
        live: 0,
        slots_in_use: 0,
        counters: SearchCounters::default(),
    };
    let mut out = Vec::new();

    let admit = |cluster: &mut Cluster<CmPlacer>,
                 live: &mut VecDeque<TenantId>,
                 d: &mut Digest,
                 m: &mut Mark,
                 rng: &mut Mix| {
        let tag = Arc::clone(&tenants[rng.below(tenants.len())]);
        m.admits += 1;
        match cluster.admit(&tag) {
            Ok(h) => {
                d.mix(h.id().raw());
                for (server, counts) in cluster.placement_of(h.id()).expect("just admitted") {
                    d.mix(u64::from(server.0));
                    for c in counts {
                        d.mix(u64::from(c));
                    }
                }
                live.push_back(h.id());
            }
            Err(_) => {
                m.admit_rejects += 1;
                d.mix(u64::MAX);
            }
        }
    };

    while live.len() < TARGET_LIVE {
        admit(&mut cluster, &mut live, &mut d, &mut m, &mut rng);
    }
    m.digest = d.0;
    m.live = live.len();
    m.slots_in_use = cluster.utilization().slots_in_use;
    out.push(Mark {
        counters: cluster.placer().counters().clone(),
        ..m
    });

    for arrival in 1..=arrivals {
        if live.len() >= TARGET_LIVE {
            let id = live.pop_front().expect("the datacenter holds tenants");
            cluster.depart(id).expect("live tenant departs");
        }
        admit(&mut cluster, &mut live, &mut d, &mut m, &mut rng);
        let id = live[rng.below(live.len())];
        let tiers: Vec<TierId> = cluster
            .tag_of(id)
            .map(|t| t.internal_tiers().collect())
            .unwrap_or_default();
        if !tiers.is_empty() {
            let tier = tiers[rng.below(tiers.len())];
            let delta = 1 + rng.below(4) as i64;
            m.scales += 1;
            match cluster.scale_tier(id, tier, delta) {
                Ok(size) => {
                    d.mix(u64::from(size));
                    for (server, counts) in cluster.placement_of(id).expect("live tenant") {
                        d.mix(u64::from(server.0));
                        for c in counts {
                            d.mix(u64::from(c));
                        }
                    }
                    // Scaling in can be refused too: a hose price rises
                    // when a subtree's share of its tier drops below half.
                    m.scales += 1;
                    match cluster.scale_tier(id, tier, -delta) {
                        Ok(size) => d.mix(u64::from(size)),
                        Err(_) => {
                            m.scale_rejects += 1;
                            d.mix(u64::MAX - 2);
                        }
                    }
                }
                Err(_) => {
                    m.scale_rejects += 1;
                    d.mix(u64::MAX - 1);
                }
            }
        }
        if marks.contains(&arrival) {
            m.arrivals = arrival;
            m.digest = d.0;
            m.live = live.len();
            m.slots_in_use = cluster.utilization().slots_in_use;
            out.push(Mark {
                counters: cluster.placer().counters().clone(),
                ..m
            });
        }
    }
    cluster
        .check_invariants()
        .expect("books balance after churn");
    out
}

/// `SearchCounters` from per-level `[attempts, placed, slots, bandwidth,
/// allocs]` (servers first) and `[fills_run, fills_reused, groups_built,
/// uplink_prechecked, coloc_server_rollbacks, memo_hits]`.
fn counters(levels: [[u64; 5]; 4], rest: [u64; 6]) -> SearchCounters {
    let [fills_run, fills_reused, groups_built, uplink_prechecked, coloc_server_rollbacks, memo_hits] =
        rest;
    SearchCounters {
        levels: levels
            .iter()
            .map(
                |&[attempts, placed, slots, bandwidth, allocs]| LevelCounters {
                    attempts,
                    placed,
                    slots,
                    bandwidth,
                    allocs,
                },
            )
            .collect(),
        fills_run,
        fills_reused,
        groups_built,
        uplink_prechecked,
        coloc_server_rollbacks,
        memo_hits,
    }
}

#[test]
fn near_full_cm_decisions_are_pinned() {
    let short = 60;
    let full = 3_000;
    let marks = if cfg!(debug_assertions) {
        run(short, &[short])
    } else {
        run(full, &[short, full])
    };
    let want = [
        Mark {
            arrivals: 0,
            digest: 704317397920815748,
            admits: 900,
            admit_rejects: 0,
            scales: 0,
            scale_rejects: 0,
            live: TARGET_LIVE,
            slots_in_use: 47441,
            counters: counters(
                [
                    [431, 431, 469, 0, 5886],
                    [455, 405, 14, 50, 2100],
                    [64, 32, 0, 32, 206],
                    [32, 32, 0, 0, 32],
                ],
                [21985, 21224, 13269, 8983, 0, 235],
            ),
        },
        Mark {
            arrivals: short,
            digest: 16949344030551716398,
            admits: 960,
            admit_rejects: 4,
            scales: 102,
            scale_rejects: 18,
            live: TARGET_LIVE,
            slots_in_use: 47412,
            counters: counters(
                [
                    [493, 480, 509, 13, 8030],
                    [504, 412, 18, 92, 4705],
                    [109, 36, 1, 73, 532],
                    [74, 70, 0, 4, 74],
                ],
                [42883, 36218, 27495, 18717, 0, 528],
            ),
        },
        Mark {
            arrivals: full,
            digest: 10230911915946696898,
            admits: 3900,
            admit_rejects: 81,
            scales: 4519,
            scale_rejects: 1501,
            live: TARGET_LIVE,
            slots_in_use: 47020,
            counters: counters(
                [
                    [3325, 2910, 2094, 415, 66414],
                    [2343, 1515, 166, 828, 24805],
                    [985, 586, 9, 399, 3321],
                    [408, 327, 0, 81, 408],
                ],
                [319214, 238838, 107297, 64793, 0, 2144],
            ),
        },
    ];
    assert_eq!(marks, want[..marks.len()]);
}
