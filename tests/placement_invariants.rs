//! Cross-crate safety invariants: whatever any placement algorithm does,
//! the physical ledger stays sound — no link over capacity, no slot
//! oversubscription, and a full release returns the datacenter to its
//! pristine state. Driven by proptest over random tenant batches.

use cloudmirror::baselines::{OktopusVcPlacer, OvocPlacer, SecondNetPlacer};
use cloudmirror::core::placement::Placer;
use cloudmirror::workloads::{apps, mixed_pool};
use cloudmirror::{mbps, CmConfig, CmPlacer, Topology, TreeSpec};
use proptest::prelude::*;

fn small_spec() -> TreeSpec {
    TreeSpec::small(2, 2, 4, 4, [mbps(1_000.0), mbps(2_000.0), mbps(4_000.0)])
}

/// Exact resource snapshot of the whole tree: free slots per subtree and
/// the used bandwidth of every uplink.
fn full_snapshot(topo: &Topology) -> Vec<(u64, Option<(u64, u64)>)> {
    let mut snap = Vec::new();
    for level in 0..topo.num_levels() {
        for &n in topo.nodes_at_level(level) {
            snap.push((topo.subtree_slots_free(n), topo.uplink_used(n)));
        }
    }
    snap
}

/// Strategy: a batch of (pool index, release order hint) actions.
fn arb_batch() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0usize..60, any::<bool>()), 1..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cm_ledger_is_always_sound(batch in arb_batch(), seed in 0u64..4) {
        let pool = mixed_pool(seed);
        let spec = small_spec();
        let mut topo = Topology::build(&spec);
        let mut placer = CmPlacer::new(CmConfig::cm());
        let mut live = Vec::new();
        for (idx, release_one) in batch {
            let tag = &pool.tenants()[idx];
            if let Ok(state) = placer.place_tag(&mut topo, tag) {
                state.check_consistency(&topo).expect("tenant ledger consistent");
                live.push(state);
            }
            topo.check_invariants().expect("topology invariants");
            if release_one && !live.is_empty() {
                let mut s = live.swap_remove(0);
                s.clear(&mut topo);
                topo.check_invariants().expect("after release");
            }
        }
        for mut s in live {
            s.clear(&mut topo);
        }
        prop_assert_eq!(topo.subtree_slots_free(topo.root()), spec.total_slots());
        for l in 0..topo.num_levels() {
            prop_assert_eq!(topo.reserved_at_level(l), (0, 0));
        }
    }

    #[test]
    fn all_ha_variants_are_sound(batch in arb_batch(), rwcs in prop::sample::select(vec![0.25f64, 0.5, 0.75])) {
        let pool = mixed_pool(1);
        let spec = small_spec();
        let mut topo = Topology::build(&spec);
        let mut placer = CmPlacer::new(CmConfig::cm_ha(rwcs));
        let mut live = Vec::new();
        for (idx, _) in batch {
            let tag = &pool.tenants()[idx];
            if let Ok(state) = placer.place_tag(&mut topo, tag) {
                // Eq. 7: no fault domain holds more than the cap.
                for (server, counts) in state.placement(&topo) {
                    let _ = server;
                    for (t, &c) in counts.iter().enumerate() {
                        let n = tag.tiers()[t].size;
                        let cap = ((n as f64 * (1.0 - rwcs)).floor() as u32).max(1);
                        prop_assert!(c <= cap, "tier {t}: {c} > cap {cap} (n={n})");
                    }
                }
                live.push(state);
            }
            topo.check_invariants().expect("topology invariants");
        }
        for mut s in live {
            s.clear(&mut topo);
        }
        prop_assert_eq!(topo.subtree_slots_free(topo.root()), spec.total_slots());
    }
}

#[test]
fn baseline_placers_release_cleanly() {
    let spec = small_spec();
    let tag = apps::three_tier(4, 4, 2, mbps(40.0), mbps(10.0), mbps(5.0));
    // OVOC.
    {
        let mut topo = Topology::build(&spec);
        let mut p = OvocPlacer::new();
        let mut s = p.place_tag(&mut topo, &tag).unwrap();
        s.check_consistency(&topo).unwrap();
        s.clear(&mut topo);
        assert_eq!(topo.subtree_slots_free(topo.root()), spec.total_slots());
        topo.check_invariants().unwrap();
    }
    // VC.
    {
        let mut topo = Topology::build(&spec);
        let mut p = OktopusVcPlacer::new();
        let mut s = p.place_tag(&mut topo, &tag).unwrap();
        s.clear(&mut topo);
        assert_eq!(topo.subtree_slots_free(topo.root()), spec.total_slots());
    }
    // SecondNet.
    {
        let mut topo = Topology::build(&spec);
        let mut p = SecondNetPlacer::new();
        let mut s = p.place_tag(&mut topo, &tag).unwrap();
        s.check_consistency(&topo).unwrap();
        s.clear(&mut topo);
        assert_eq!(topo.subtree_slots_free(topo.root()), spec.total_slots());
    }
}

/// The cross-placer conservation invariant: for **every** `Placer` impl,
/// place-then-release on a shared topology — with a live background tenant
/// making the prior state nontrivial — restores all link reservations and
/// slot counters exactly. One test catches commit/rollback bugs of the
/// shared transaction engine for all algorithms at once.
#[test]
fn place_then_release_conserves_resources_for_every_placer() {
    let spec = small_spec();
    let mut topo = Topology::build(&spec);
    let mut background = CmPlacer::new(CmConfig::cm());
    let mut bg = background
        .place_tag(
            &mut topo,
            &apps::three_tier(2, 2, 2, mbps(60.0), mbps(25.0), mbps(10.0)),
        )
        .expect("background tenant fits");
    let before = full_snapshot(&topo);

    let mut placers: Vec<Box<dyn Placer>> = vec![
        Box::new(CmPlacer::new(CmConfig::cm())),
        Box::new(CmPlacer::new(CmConfig::coloc_only())),
        Box::new(CmPlacer::new(CmConfig::balance_only())),
        Box::new(CmPlacer::new(CmConfig::cm_ha(0.5))),
        Box::new(CmPlacer::new(CmConfig::cm_opp_ha())),
        Box::new(OvocPlacer::new()),
        Box::new(OktopusVcPlacer::new()),
        Box::new(SecondNetPlacer::new()),
    ];
    let tags = [
        apps::three_tier(3, 3, 2, mbps(50.0), mbps(20.0), mbps(10.0)),
        apps::mapreduce(9, mbps(15.0)),
        // Over-demanding: must bounce, also without leaving a trace.
        apps::three_tier(6, 6, 6, mbps(900.0), mbps(1.0), 0),
    ];
    for p in placers.iter_mut() {
        for tag in &tags {
            if let Ok(d) = p.place(&mut topo, tag) {
                d.check_consistency(&topo)
                    .unwrap_or_else(|e| panic!("{}: inconsistent ledger: {e}", p.name()));
                d.release(&mut topo);
            }
            assert_eq!(
                full_snapshot(&topo),
                before,
                "{} leaked slots or bandwidth",
                p.name()
            );
            topo.check_invariants().expect("topology invariants");
        }
    }

    bg.clear(&mut topo);
    assert_eq!(topo.subtree_slots_free(topo.root()), spec.total_slots());
    for l in 0..topo.num_levels() {
        assert_eq!(topo.reserved_at_level(l), (0, 0));
    }
}

/// The model-erased handle behind `Box<dyn Placer>`: every placer admits a
/// trivially fitting tenant on an empty tree, reports its name and — through
/// `Deployed` — tier sizes, placement and WCS, and releases to a zero ledger.
#[test]
fn boxed_placers_place_report_and_release_to_a_zero_ledger() {
    let spec = small_spec();
    let tag = apps::three_tier(3, 3, 2, mbps(50.0), mbps(20.0), mbps(10.0));
    let placers: Vec<(Box<dyn Placer>, &str)> = vec![
        (Box::new(CmPlacer::default()), "CM"),
        (Box::new(CmPlacer::new(CmConfig::cm_ha(0.5))), "CM+HA"),
        (Box::new(OvocPlacer::new()), "OVOC"),
        (Box::new(OktopusVcPlacer::new()), "VC"),
        (Box::new(SecondNetPlacer::new()), "SecondNet"),
    ];
    for (mut p, name) in placers {
        assert_eq!(p.name(), name);
        let mut topo = Topology::build(&spec);
        let d = p
            .place(&mut topo, &tag)
            .unwrap_or_else(|e| panic!("{name} rejected a trivially-fitting tenant: {e}"));
        // The handle speaks the placer's own model (SecondNet: one tier per VM).
        let sizes = d.tier_sizes();
        assert_eq!(sizes.iter().sum::<u32>(), 8, "{name}");
        let placed: u32 = d.placement(&topo).iter().flat_map(|(_, c)| c).sum();
        assert_eq!(placed, 8, "{name}");
        let wcs = d.wcs_at_level(&topo, 0);
        assert_eq!(wcs.len(), sizes.len(), "{name}");
        if name == "CM+HA" {
            // Eq. 7 at rwcs = 0.5 caps every tier at one VM per server.
            assert_eq!(sizes, vec![3, 3, 2]);
            assert!(wcs.iter().all(|w| w.unwrap() >= 0.5), "{wcs:?}");
        }
        d.release(&mut topo);
        topo.check_invariants().unwrap();
        for l in 0..topo.num_levels() {
            assert_eq!(topo.reserved_at_level(l), (0, 0), "{name}");
        }
    }
}

#[test]
fn rejection_leaves_zero_trace_under_pressure() {
    // Fill the datacenter almost completely, then bounce oversized and
    // over-demanding tenants off it; every rejection must be side-effect
    // free.
    let spec = small_spec();
    let mut topo = Topology::build(&spec);
    let mut placer = CmPlacer::new(CmConfig::cm());
    let filler = apps::mapreduce(48, mbps(20.0));
    let _live = placer.place_tag(&mut topo, &filler).unwrap();
    let before_slots = topo.subtree_slots_free(topo.root());
    let before: Vec<_> = (0..topo.num_levels())
        .map(|l| topo.reserved_at_level(l))
        .collect();
    for tag in [
        apps::mapreduce(17, mbps(10.0)),                      // slots
        apps::three_tier(6, 6, 6, mbps(900.0), mbps(1.0), 0), // bandwidth
    ] {
        assert!(placer.place_tag(&mut topo, &tag).is_err());
        assert_eq!(topo.subtree_slots_free(topo.root()), before_slots);
        let after: Vec<_> = (0..topo.num_levels())
            .map(|l| topo.reserved_at_level(l))
            .collect();
        assert_eq!(before, after);
    }
}
