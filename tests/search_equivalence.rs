//! Equivalence of the descend-from-root subtree search with the pre-change
//! linear scan, plus exactness of the topology's incremental aggregates
//! under arbitrary op interleavings.
//!
//! The descend search ([`Topology::descend_to_level`]) replaced the
//! O(level-width × depth) scan in `FindLowestSubtree`; these tests prove it
//! is a pure optimization:
//!
//! * a property test interleaves random slot allocations/releases, uplink
//!   adjustments and transaction rollbacks, re-checking every incremental
//!   aggregate against brute force (`check_invariants`) and the chosen
//!   subtree against the linear reference scan;
//! * full simulations on the paper's 2048-server datacenter for seeds 1–6
//!   must admit/reject the identical tenant sequence with identical WCS
//!   statistics under both search implementations (the linear scan lives on
//!   as [`SearchStrategy::LinearReference`], a test/benchmark-only mode).

#![expect(
    clippy::disallowed_methods,
    reason = "the property test drives the topology's mutators directly to fuzz its aggregates"
)]

use cloudmirror::core::placement::{
    find_lowest_subtree, find_lowest_subtree_linear, CmConfig, CmPlacer, SearchStrategy,
};
use cloudmirror::core::txn::ReservationTxn;
use cloudmirror::core::TenantState;
use cloudmirror::sim::{run_sim, SimConfig};
use cloudmirror::workloads::bing_like_pool;
use cloudmirror::{mbps, TagBuilder, Topology, TreeSpec};
use proptest::prelude::*;

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
        spec_pick in 0usize..3,
        query_seed in 0u64..1000,
    ) {
        let spec = match spec_pick {
            0 => TreeSpec::small(2, 2, 4, 4, [mbps(100.0), mbps(200.0), mbps(400.0)]),
            1 => TreeSpec::small(3, 2, 5, 3, [mbps(50.0), mbps(150.0), mbps(300.0)]),
            _ => TreeSpec::small(1, 4, 8, 2, [mbps(80.0), mbps(120.0), mbps(240.0)]),
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
        // Descend vs linear-scan agreement over a grid of queries.
        let mut q = query_seed;
        for level in 0..topo.num_levels() {
            for _ in 0..6 {
                q = q.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let vms = q >> 33 & 0x3F;
                let ext_up = (q >> 20 & 0xFFF) * 100;
                let ext_dn = (q >> 8 & 0xFFF) * 100;
                prop_assert_eq!(
                    find_lowest_subtree(&topo, level, vms, (ext_up, ext_dn)),
                    find_lowest_subtree_linear(&topo, level, vms, (ext_up, ext_dn)),
                    "level {}, vms {}, ext ({}, {})", level, vms, ext_up, ext_dn
                );
            }
        }
    }
}

/// The before/after guarantee on the paper datacenter: for sim seeds 1–6,
/// the descend search admits and rejects the *identical* tenant sequence —
/// same rejection counts, same WCS statistics — as the pre-change linear
/// scan, for plain CM and both HA flavours.
#[test]
fn paper_sim_decisions_identical_under_both_searches_seeds_1_to_6() {
    let pool = bing_like_pool(42);
    let mut cfg = SimConfig::paper_default();
    cfg.arrivals = 400; // enough churn to exercise climbs and rejections
    for (cm_cfg, label) in [
        (CmConfig::cm(), "CM"),
        (CmConfig::cm_ha(0.5), "CM+HA"),
        (CmConfig::cm_opp_ha(), "CM+oppHA"),
    ] {
        for seed in 1..=6 {
            cfg.seed = seed;
            let descend = CmPlacer::named(cm_cfg, label);
            let linear = CmPlacer::named(cm_cfg, label)
                .with_search_strategy(SearchStrategy::LinearReference);
            let a = run_sim(&cfg, &pool, descend);
            let b = run_sim(&cfg, &pool, linear);
            assert_eq!(
                a.rejections, b.rejections,
                "{label}, seed {seed}: admission decisions diverged"
            );
            assert_eq!(a.wcs, b.wcs, "{label}, seed {seed}: WCS stats diverged");
            assert_eq!(a.peak_tenants, b.peak_tenants, "{label}, seed {seed}");
        }
    }
}
