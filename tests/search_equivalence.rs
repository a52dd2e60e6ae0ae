//! Equivalence of the descend-from-root subtree search with a linear scan,
//! plus exactness of the topology's incremental aggregates under arbitrary
//! op interleavings.
//!
//! [`Topology::descend_to_level`] is the only production
//! `FindLowestSubtree`: an id-order branch-and-bound walk over the
//! per-subtree `max_free` aggregates. [`linear_find`], the O(level-width ×
//! depth) scan it replaced, lives on here as the oracle:
//!
//! * fixed queries on fresh and loaded trees, in the paper's shape,
//!   `spine_131k`'s fanout 64 and fanouts above 128;
//! * a property test interleaving random slot allocations/releases,
//!   uplink adjustments and transaction rollbacks, re-checking every
//!   incremental aggregate against brute force (`check_invariants`) and
//!   the chosen subtree against the oracle;
//! * the 32 × 64 × 64 tree filled to 92 % by CM placements, checked at every
//!   level along the way (a reduced tree in debug builds);
//! * full simulations on the paper's 2048-server datacenter for seeds 1–6,
//!   pinned to decision goldens recorded while the linear scan was still a
//!   selectable search.

#![expect(
    clippy::disallowed_methods,
    reason = "the load and property tests drive the topology's mutators directly to shape and fuzz its aggregates"
)]

use cloudmirror::core::placement::{CmConfig, CmPlacer, Placer};
use cloudmirror::core::txn::ReservationTxn;
use cloudmirror::core::TenantState;
use cloudmirror::sim::{run_sim, SimConfig};
use cloudmirror::topology::NodeId;
use cloudmirror::workloads::bing_like_pool;
use cloudmirror::{gbps, mbps, Kbps, TagBuilder, Topology, TreeSpec};
use proptest::prelude::*;

/// The oracle: every node of the level, a full `avail_to_root` walk per
/// candidate, most free slots wins and ties go to the smallest id.
fn linear_find(t: &Topology, level: usize, vms: u64, ext: (Kbps, Kbps)) -> Option<NodeId> {
    if level >= t.num_levels() {
        return None;
    }
    let mut best: Option<(u64, NodeId)> = None;
    for &n in t.nodes_at_level(level) {
        let free = t.subtree_slots_free(n);
        if free < vms {
            continue;
        }
        let (up, dn) = t.avail_to_root(n);
        if up < ext.0 || dn < ext.1 {
            continue;
        }
        if best.is_none_or(|(bf, _)| free > bf) {
            best = Some((free, n));
        }
    }
    best.map(|(_, n)| n)
}

/// The paper datacenter, `spine_131k`'s fanout 64 (two pods of it), and
/// fanouts above 128 at the root and at the rack.
fn shapes() -> Vec<TreeSpec> {
    let uplinks = [gbps(10.0), gbps(80.0), gbps(320.0)];
    vec![
        TreeSpec::paper_datacenter(),
        TreeSpec::small(2, 64, 64, 25, uplinks),
        TreeSpec::small(130, 2, 2, 8, uplinks),
        TreeSpec::small(2, 2, 200, 8, uplinks),
    ]
}

#[test]
fn descend_matches_linear_scan_on_fresh_tree() {
    for spec in shapes() {
        let t = Topology::build(&spec);
        let all = spec.total_slots();
        for level in 0..t.num_levels() {
            for vms in [0, 1, 25, 800, all, all + 1] {
                assert_eq!(
                    t.descend_to_level(level, vms, (0, 0)),
                    linear_find(&t, level, vms, (0, 0)),
                    "{:?}: level {level}, vms {vms}",
                    spec.fanout_top_down
                );
            }
        }
        assert_eq!(t.descend_to_level(t.num_levels(), 1, (0, 0)), None);
    }
}

#[test]
fn descend_matches_linear_scan_under_load() {
    for spec in shapes() {
        let mut t = Topology::build(&spec);
        let nic = spec.uplink_kbps[0];
        let tor = spec.uplink_kbps[1];
        // Unbalance slots and bandwidth deterministically.
        for (i, &s) in t.servers().to_vec().iter().enumerate() {
            t.alloc_slots(s, i as u32 % (spec.slots_per_server + 1))
                .unwrap();
            if i % 3 == 0 {
                t.adjust_uplink(s, (nic / 10 * 9) as i64, (nic / 5) as i64)
                    .unwrap();
            }
        }
        for (i, &n) in t.nodes_at_level(1).to_vec().iter().enumerate() {
            if i % 2 == 0 {
                t.adjust_uplink(n, (tor / 8 * 7) as i64, (tor / 8) as i64)
                    .unwrap();
            }
        }
        t.check_invariants().unwrap();
        for level in 0..t.num_levels() {
            for vms in [1, 10, 25, 200, 1000] {
                for ext in [(0, 0), (nic / 5, nic / 10), (nic / 2 * 3, 0)] {
                    assert_eq!(
                        t.descend_to_level(level, vms, ext),
                        linear_find(&t, level, vms, ext),
                        "{:?}: level {level}, vms {vms}, ext {ext:?}",
                        spec.fanout_top_down
                    );
                }
            }
        }
    }
}

/// `spine_131k`'s tree (32 pods × 64 racks × 64 servers, 25 slots each)
/// filled to 92 % of its slots by CM placements of the bing-like pool;
/// descend must equal the oracle at every level, for a grid of sizes and
/// external demands, every few thousand admits and once filled. Debug
/// builds (tier-1) fill a 32 × 8 × 8 tree; release (CI) the full one.
#[test]
fn fat_tree_131k_fill_descend_matches_linear_scan_at_every_level() {
    let (fanout, every) = if cfg!(debug_assertions) {
        (8, 200)
    } else {
        (64, 5_000)
    };
    let spec = TreeSpec {
        fanout_top_down: vec![32, fanout, fanout],
        uplink_kbps: vec![gbps(10.0), gbps(80.0), gbps(320.0)],
        slots_per_server: 25,
    };
    let mut topo = Topology::build(&spec);
    let mut placer = CmPlacer::new(CmConfig::cm());
    let pool = bing_like_pool(42).scaled_to_bmax(800_000);
    let check = |topo: &Topology, admitted: usize| {
        for level in 0..topo.num_levels() {
            for vms in [1, 25, 60, 500, 4_000] {
                for ext in [(0, 0), (gbps(1.0), gbps(0.5)), (gbps(12.0), 0)] {
                    assert_eq!(
                        topo.descend_to_level(level, vms, ext),
                        linear_find(topo, level, vms, ext),
                        "after {admitted} admits: level {level}, vms {vms}, ext {ext:?}"
                    );
                }
            }
        }
    };
    let target = spec.total_slots() / 100 * 92;
    let (mut admitted, mut misses) = (0usize, 0usize);
    for tag in pool.tenants().iter().cycle() {
        if topo.slots_in_use() >= target || misses == pool.len() {
            break;
        }
        if placer.place_shared(&mut topo, tag).is_ok() {
            admitted += 1;
            misses = 0;
            if admitted % every == 0 {
                check(&topo, admitted);
            }
        } else {
            misses += 1;
        }
    }
    assert!(
        topo.slots_in_use() >= target,
        "a whole pass of the pool was rejected before the tree filled"
    );
    check(&topo, admitted);
}

fn hose(n: u32, sr: u64) -> cloudmirror::Tag {
    let mut b = TagBuilder::new("hose");
    let t = b.tier("t", n);
    b.self_loop(t, sr).unwrap();
    b.build().unwrap()
}

/// One encoded random operation; decoded against the current topology so
/// every op is always applicable.
type Op = (u8, u16, u16, bool);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..6, any::<u16>(), any::<u16>(), any::<bool>()), 20..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn aggregates_and_descend_survive_random_interleavings(
        ops in arb_ops(),
        spec_pick in 0usize..5,
        query_seed in 0u64..1000,
    ) {
        let spec = match spec_pick {
            0 => TreeSpec::small(2, 2, 4, 4, [mbps(100.0), mbps(200.0), mbps(400.0)]),
            1 => TreeSpec::small(3, 2, 5, 3, [mbps(50.0), mbps(150.0), mbps(300.0)]),
            2 => TreeSpec::small(1, 4, 8, 2, [mbps(80.0), mbps(120.0), mbps(240.0)]),
            3 => TreeSpec::small(2, 64, 2, 2, [mbps(60.0), mbps(100.0), mbps(200.0)]),
            _ => TreeSpec::small(1, 2, 130, 1, [mbps(70.0), mbps(200.0), mbps(300.0)]),
        };
        let mut topo = Topology::build(&spec);
        let mut state = TenantState::new(hose(10_000, 10));
        for (kind, a, b, flag) in ops {
            let servers = topo.servers().to_vec();
            let s = servers[a as usize % servers.len()];
            match kind {
                0 => {
                    // Slot allocation (ignored when full).
                    let k = b as u32 % (spec.slots_per_server + 1);
                    let _ = topo.alloc_slots(s, k);
                }
                1 => {
                    // Slot release, bounded by what is actually used.
                    let used = topo.slots_total(s) - topo.slots_free(s);
                    if used > 0 {
                        topo.release_slots(s, 1 + b as u32 % used).unwrap();
                    }
                }
                2 | 3 => {
                    // Uplink adjust on a random node of a random level
                    // (reserve for kind 2, release for kind 3).
                    let level = b as usize % topo.num_levels();
                    let nodes = topo.nodes_at_level(level);
                    let n = nodes[a as usize % nodes.len()];
                    if let Some((au, ad)) = topo.uplink_avail(n) {
                        if kind == 2 {
                            let du = (a as u64 * 37) % (au + 1);
                            let dd = (b as u64 * 53) % (ad + 1);
                            topo.adjust_uplink(n, du as i64, dd as i64).unwrap();
                        } else if let Some((uu, ud)) = topo.uplink_used(n) {
                            let du = if uu > 0 { (a as u64) % (uu + 1) } else { 0 };
                            let dd = if ud > 0 { (b as u64) % (ud + 1) } else { 0 };
                            topo.adjust_uplink(n, -(du as i64), -(dd as i64)).unwrap();
                        }
                    }
                }
                _ => {
                    // A transaction staging placements + syncs, then either
                    // rolled back to a savepoint and dropped, or committed.
                    let mut txn = ReservationTxn::begin(&mut topo, &mut state);
                    let sp = txn.savepoint();
                    for i in 0..(b % 4 + 1) {
                        let srv = servers[(a as usize + i as usize) % servers.len()];
                        let free = txn.topo().slots_free(srv);
                        if free > 0 && txn.place(srv, 0, 1 + a as u32 % free).is_ok() {
                            let _ = txn.sync_path_to_root(srv);
                        }
                    }
                    if flag {
                        txn.rollback_to(sp);
                        txn.commit();
                    }
                    // else: dropped uncommitted — full rollback.
                }
            }
            topo.check_invariants().expect("incremental aggregates exact");
        }
        // Descend vs oracle agreement over a grid of queries.
        let mut q = query_seed;
        for level in 0..topo.num_levels() {
            for _ in 0..6 {
                q = q.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let vms = q >> 33 & 0x3F;
                let ext_up = (q >> 20 & 0xFFF) * 100;
                let ext_dn = (q >> 8 & 0xFFF) * 100;
                prop_assert_eq!(
                    topo.descend_to_level(level, vms, (ext_up, ext_dn)),
                    linear_find(&topo, level, vms, (ext_up, ext_dn)),
                    "level {}, vms {}, ext ({}, {})", level, vms, ext_up, ext_dn
                );
            }
        }
    }
}

/// Paper-datacenter simulations, 400 arrivals each, for sim seeds 1–6
/// under plain CM and both HA flavours: rejection counts, WCS statistics
/// and peak tenants pinned to goldens recorded when the same sims still
/// ran under both the descend search and the linear scan, with identical
/// results. No tenant is rejected at this load, so the goldens pin where
/// tenants land (through WCS) rather than which are refused.
#[test]
fn paper_sim_decisions_match_goldens_seeds_1_to_6() {
    let expected = [
        ("CM", CmConfig::cm(), [
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=2022/0.09243796762357456/0.0/0.9551724137931035 peak=316",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=1821/0.07978881291783728/0.0/0.9551724137931035 peak=312",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=2158/0.10231097762928505/0.0/0.9551724137931035 peak=313",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=2055/0.08406237432314778/0.0/0.9551724137931035 peak=327",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=1922/0.08052558010257548/0.0/0.9551724137931035 peak=316",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=1821/0.09067403625632298/0.0/0.9551724137931035 peak=321",
        ]),
        ("CM+HA", CmConfig::cm_ha(0.5), [
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=2022/0.5456190503222883/0.5/0.9551724137931035 peak=316",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=1821/0.5452246140179364/0.5/0.9551724137931035 peak=312",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=2158/0.5447670412984568/0.5/0.9551724137931035 peak=313",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=2055/0.5442566882229943/0.5/0.9551724137931035 peak=327",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=1922/0.5462989748977511/0.5/0.9551724137931035 peak=316",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=1821/0.5424274069848052/0.5/0.9551724137931035 peak=321",
        ]),
        ("CM+oppHA", CmConfig::cm_opp_ha(), [
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=2022/0.26901080724962023/0.0/0.9661016949152542 peak=316",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=1821/0.3042181917303845/0.0/0.9565217391304348 peak=312",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=2158/0.33009695774403525/0.0/0.96875 peak=313",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=2055/0.3213906036844407/0.0/0.96875 peak=327",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=1922/0.2788107125367777/0.0/0.9565217391304348 peak=316",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs=1821/0.27073841893233525/0.0/0.9565217391304348 peak=321",
        ]),
    ];
    let pool = bing_like_pool(42);
    let mut cfg = SimConfig::paper_default();
    cfg.arrivals = 400;
    for (label, cm_cfg, goldens) in expected {
        for (seed, golden) in (1..=6).zip(goldens) {
            cfg.seed = seed;
            let r = run_sim(&cfg, &pool, CmPlacer::named(cm_cfg, label));
            let (rej, wcs) = (&r.rejections, &r.wcs);
            let got = format!(
                "rej={} slots={} bw={} vms={} bwk={} wcs={}/{:?}/{:?}/{:?} peak={}",
                rej.rejected_tenants,
                rej.rejected_for_slots,
                rej.rejected_for_bandwidth,
                rej.rejected_vms,
                rej.rejected_bw_kbps,
                wcs.components,
                wcs.mean,
                wcs.min,
                wcs.max,
                r.peak_tenants
            );
            assert_eq!(got, golden, "{label}, seed {seed}");
        }
    }
}
