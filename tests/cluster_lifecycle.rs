//! Cross-crate lifecycle-controller tests: every placer in the workspace
//! drives through `Cluster`, and CloudMirror's `scale_tier` is proven
//! **exact-incremental** — the reservations after an in-place scale are
//! bit-identical to pricing the final placement of the expanded TAG from
//! scratch on a fresh topology.

use cloudmirror::baselines::{OktopusVcPlacer, OvocPlacer, SecondNetPlacer};
use cloudmirror::cluster::GuaranteeModel;
use cloudmirror::core::model::TagError;
use cloudmirror::core::reserve::TenantState;
use cloudmirror::workloads::{apps, bing_like_pool};
use cloudmirror::{
    mbps, Cluster, CmConfig, CmError, CmPlacer, Placer, Tag, TagBuilder, TenantId, TierId,
    Topology, TreeSpec,
};
use std::sync::Arc;

fn spec() -> TreeSpec {
    TreeSpec::small(2, 4, 8, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)])
}

/// Admit → scale out → scale in → migrate → depart for one placer; the
/// datacenter must end pristine and every intermediate state consistent.
fn drive_lifecycle<P: Placer>(placer: P) {
    let mut cluster = Cluster::new(&spec(), placer);
    let name = cluster.placer().name();
    let pool = bing_like_pool(42).scaled_to_bmax(mbps(100.0));
    let mut handles = Vec::new();
    for tag in pool.tenants().iter().take(12) {
        if let Ok(h) = cluster.admit(tag) {
            handles.push(h);
        }
        cluster
            .check_invariants()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    assert!(!handles.is_empty(), "{name} admitted nothing");
    // Scale the first tier of every live tenant out and back in.
    for h in &handles {
        let tier = cluster
            .tag_of(h.id())
            .unwrap()
            .internal_tiers()
            .next()
            .expect("tenants have internal tiers");
        if cluster.scale_tier(h.id(), tier, 2).is_ok() {
            cluster
                .scale_tier(h.id(), tier, -2)
                .unwrap_or_else(|e| panic!("{name}: shrink back failed: {e}"));
        }
        cluster
            .check_invariants()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    // Migrate one tenant, then drain everything.
    let _ = cluster.migrate(handles[0].id());
    cluster
        .check_invariants()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    for h in &handles {
        cluster.depart(h.id()).unwrap();
    }
    assert_eq!(cluster.topology().slots_in_use(), 0, "{name} leaked slots");
    for l in 0..cluster.topology().num_levels() {
        assert_eq!(
            cluster.topology().reserved_at_level(l),
            (0, 0),
            "{name} leaked bandwidth at level {l}"
        );
    }
}

#[test]
fn all_six_placers_drive_through_the_cluster() {
    drive_lifecycle(CmPlacer::new(CmConfig::cm()));
    drive_lifecycle(CmPlacer::named(CmConfig::cm_ha(0.5), "CM+HA"));
    drive_lifecycle(CmPlacer::named(CmConfig::cm_opp_ha(), "CM+oppHA"));
    drive_lifecycle(OvocPlacer::new());
    drive_lifecycle(OktopusVcPlacer::new());
    drive_lifecycle(SecondNetPlacer::new());
}

#[test]
fn heterogeneous_placers_drive_as_boxed_trait_objects() {
    // `Placer` is object-safe and implemented for `Box<dyn Placer>`, so a
    // mixed fleet runs through the same generic controller.
    let placers: Vec<Box<dyn Placer>> = vec![
        Box::new(CmPlacer::new(CmConfig::cm())),
        Box::new(OvocPlacer::new()),
        Box::new(OktopusVcPlacer::new()),
    ];
    for placer in placers {
        let mut cluster: Cluster<Box<dyn Placer>> = Cluster::new(&spec(), placer);
        let h = cluster
            .admit(apps::three_tier(
                3,
                3,
                2,
                mbps(50.0),
                mbps(20.0),
                mbps(10.0),
            ))
            .unwrap();
        cluster.scale_tier(h.id(), TierId(0), 1).unwrap();
        cluster.depart(h.id()).unwrap();
        assert_eq!(cluster.topology().slots_in_use(), 0);
    }
}

/// Price `placement` of `tag` from scratch on a fresh copy of `spec`:
/// replay the per-server placement into a new `TenantState` and sync every
/// touched link. Under recompute-from-set semantics the resulting
/// reservations are the *definitional* prices of that placement.
fn price_from_scratch(
    spec: &TreeSpec,
    tag: &Arc<Tag>,
    placement: &[(cloudmirror::topology::NodeId, Vec<u32>)],
) -> Vec<(cloudmirror::topology::NodeId, (u64, u64))> {
    let mut topo = Topology::build(spec);
    let mut state = TenantState::new_shared(Arc::clone(tag));
    for (server, counts) in placement {
        for (t, &c) in counts.iter().enumerate() {
            if c > 0 {
                state.place(&mut topo, *server, t, c).expect("replay fits");
            }
        }
    }
    let mut touched: Vec<_> = state.touched_nodes().collect();
    touched.sort_by_key(|&n| (topo.level(n), n));
    for n in touched {
        state
            .sync_uplink(&mut topo, n)
            .expect("fresh topology holds the definitional prices");
    }
    state.check_consistency(&topo).expect("replay consistent");
    state.reservations()
}

#[test]
fn cm_scale_is_exact_incremental_vs_full_readmit() {
    // Grow a live CloudMirror deployment tier by tier; after every scale
    // the incremental repricing must equal a full re-admit of the expanded
    // TAG *with the same placement* on a fresh topology — no drift, ever.
    let spec = spec();
    let mut cluster = Cluster::new(&spec, CmPlacer::new(CmConfig::cm()));
    let tag = apps::three_tier(4, 6, 4, mbps(80.0), mbps(30.0), mbps(15.0));
    let h = cluster.admit(tag).unwrap();
    for (tier, delta) in [(0u16, 3i64), (1, 5), (2, 2), (0, -2), (1, -4), (2, 6)] {
        cluster
            .scale_tier(h.id(), TierId(tier), delta)
            .unwrap_or_else(|e| panic!("scale tier {tier} by {delta}: {e}"));
        let scaled_tag = Arc::clone(cluster.tag_of(h.id()).unwrap());
        let placement = cluster.placement_of(h.id()).unwrap();
        let incremental = cluster.deployed(h.id()).unwrap().reservations();
        let from_scratch = price_from_scratch(&spec, &scaled_tag, &placement);
        assert_eq!(
            incremental, from_scratch,
            "tier {tier} {delta:+}: incremental reservations drifted from the definitional prices"
        );
        // And the ledger itself agrees with a recomputation in place.
        cluster.check_invariants().unwrap();
    }
    cluster.depart(h.id()).unwrap();
    assert_eq!(cluster.topology().slots_in_use(), 0);
}

#[test]
fn cm_scale_places_only_the_delta() {
    // Exact-incremental also means *incremental*: growing a tier must not
    // move any existing VM (the generic fallback would re-place wholesale).
    let mut cluster = Cluster::new(&spec(), CmPlacer::new(CmConfig::cm()));
    let h = cluster
        .admit(apps::three_tier(
            4,
            6,
            4,
            mbps(80.0),
            mbps(30.0),
            mbps(15.0),
        ))
        .unwrap();
    let before = cluster.placement_of(h.id()).unwrap();
    cluster.scale_tier(h.id(), TierId(1), 4).unwrap();
    let after = cluster.placement_of(h.id()).unwrap();
    for (server, counts) in &before {
        let now = after
            .iter()
            .find(|(s, _)| s == server)
            .map(|(_, c)| c.clone())
            .unwrap_or_else(|| vec![0; counts.len()]);
        for (t, &c) in counts.iter().enumerate() {
            assert!(
                now[t] >= c,
                "server {server}: tier {t} lost VMs ({} -> {}) during a grow",
                c,
                now[t]
            );
        }
    }
    cluster.depart(h.id()).unwrap();
}

#[test]
fn ha_scale_in_preserves_the_survivability_guarantee() {
    // The admission-time promise (Eq. 7: no fault domain holds more than
    // max(1, ⌊N·(1−rwcs)⌋) of a tier) must survive scale-ins. An 8-VM
    // hose under rwcs=0.5 places 4+4; shrinking to 4 must drain both
    // servers to 2+2 (WCS stays 0.5), not vacate one whole block.
    let mut cluster = Cluster::new(&spec(), CmPlacer::new(CmConfig::cm_ha(0.5)));
    let h = cluster.admit(apps::mapreduce(8, mbps(20.0))).unwrap();
    let wcs0 = cluster
        .deployed(h.id())
        .unwrap()
        .wcs_at_level(cluster.topology(), 0)[0]
        .unwrap();
    assert!(wcs0 >= 0.5);
    cluster.scale_tier(h.id(), TierId(0), -4).unwrap();
    let wcs1 = cluster
        .deployed(h.id())
        .unwrap()
        .wcs_at_level(cluster.topology(), 0)[0]
        .unwrap();
    assert!(
        wcs1 >= 0.5,
        "scale-in broke the rwcs=0.5 guarantee: wcs {wcs0} -> {wcs1}"
    );
    // A shrink that cannot meet the cap without moving VMs is rejected
    // (4 VMs at 2+2; size 3 caps each server at 1 — needs redistribution).
    let err = cluster.scale_tier(h.id(), TierId(0), -1).unwrap_err();
    assert!(matches!(err, cloudmirror::CmError::Rejected(_)));
    let wcs2 = cluster
        .deployed(h.id())
        .unwrap()
        .wcs_at_level(cluster.topology(), 0)[0]
        .unwrap();
    assert!(wcs2 >= 0.5, "rejected shrink must change nothing");
    cluster.depart(h.id()).unwrap();
    assert_eq!(cluster.topology().slots_in_use(), 0);
}

#[test]
fn scale_in_reports_no_phantom_servers() {
    // After a shrink fully vacates a server, placement_of must not list it.
    let mut cluster = Cluster::new(&spec(), CmPlacer::new(CmConfig::cm()));
    let h = cluster.admit(apps::mapreduce(16, mbps(20.0))).unwrap();
    cluster.scale_tier(h.id(), TierId(0), -12).unwrap();
    let placement = cluster.placement_of(h.id()).unwrap();
    let total: u32 = placement.iter().map(|(_, c)| c.iter().sum::<u32>()).sum();
    assert_eq!(total, 4);
    for (server, counts) in &placement {
        assert!(
            counts.iter().any(|&c| c > 0),
            "placement lists vacated server {server}"
        );
    }
    cluster.depart(h.id()).unwrap();
}

#[test]
fn guarantee_report_reflects_the_placer_not_the_model_alone() {
    // The same tenant admitted by CM (which colocates) and by SecondNet
    // yields different cross-network guarantee exposure — the report wires
    // actual placement, not just the TAG.
    let tag = apps::mapreduce(8, mbps(20.0));
    let mut cm = Cluster::new(&spec(), CmPlacer::new(CmConfig::cm()));
    let hc = cm.admit(tag.clone()).unwrap();
    let cm_report = cm.guarantee_report(hc.id()).unwrap();
    assert_eq!(cm_report.model, GuaranteeModel::Tag);
    // CloudMirror colocates the whole hose onto one server: nothing needs
    // the network.
    assert_eq!(cm_report.cross_network_kbps(), 0.0);
    assert!(cm_report.total_kbps() > 0.0);

    let mut ha = Cluster::new(&spec(), CmPlacer::new(CmConfig::cm_ha(0.75)));
    let hh = ha.admit(tag).unwrap();
    let ha_report = ha.guarantee_report(hh.id()).unwrap();
    // Anti-affinity spreads the tier, pushing guarantees onto the network.
    assert!(
        ha_report.cross_network_kbps() > 0.0,
        "HA placement must expose cross-server pairs"
    );
}

#[test]
fn unknown_ids_error_uniformly_across_queries() {
    let cluster = Cluster::new(&spec(), CmPlacer::new(CmConfig::cm()));
    let ghost = TenantId::from_raw(42);
    assert!(cluster.placement_of(ghost).is_err());
    assert!(cluster.guarantee_report(ghost).is_err());
    assert!(cluster.tag_of(ghost).is_none());
    assert!(cluster.deployed(ghost).is_none());
}

/// One trunk `a → c` with `S = R = 2^61 + 1` kbps between two 1-VM tiers:
/// its Eq. 1 bound `Σ_e (N_from·S_e + N_to·R_e)` fits a `u64`, and passes
/// `u64::MAX` once a side holds 8 VMs.
fn wide_trunk() -> Tag {
    let mut b = TagBuilder::new("wide");
    let a = b.tier("a", 1);
    let c = b.tier("c", 1);
    b.edge(a, c, (1 << 61) + 1, (1 << 61) + 1).unwrap();
    b.build().unwrap()
}

fn two_by_two() -> Cluster<CmPlacer> {
    let spec = TreeSpec::small(2, 2, 2, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]);
    Cluster::new(&spec, CmPlacer::new(CmConfig::cm()))
}

/// The cluster holds no VM and reserves nothing on any uplink.
fn assert_empty(cluster: &Cluster<CmPlacer>) {
    assert_eq!(cluster.tenant_ids().count(), 0);
    let topo = cluster.topology();
    assert_eq!(topo.slots_in_use(), 0);
    for level in 0..topo.num_levels() - 1 {
        assert_eq!(topo.reserved_at_level(level), (0, 0), "level {level}");
    }
    cluster.check_invariants().unwrap();
}

#[test]
fn a_tag_that_overflows_eq1_is_refused_with_nothing_held() {
    // 8 × (2^61 + 1) wraps to 8: priced unchecked, a release build placed
    // `[8, 0]` and `[0, 8]` on two servers and reserved 8 kbps an uplink.
    let hostile = wide_trunk().resized(TierId(0), 8).resized(TierId(1), 8);
    assert_eq!(hostile.cut_bound_kbps(), None);
    let mut cluster = two_by_two();
    let err = cluster.admit(hostile).unwrap_err();
    assert_eq!(err, CmError::InvalidTag(TagError::BandwidthOverflow));
    assert_empty(&cluster);
}

#[test]
fn a_scale_that_overflows_eq1_is_invalid_and_changes_nothing() {
    let mut cluster = two_by_two();
    let id = cluster
        .admit(wide_trunk())
        .expect("both VMs share a server")
        .id();
    let placement = cluster.placement_of(id).unwrap();
    let slots = cluster.topology().slots_in_use();
    // 8 × (2^61 + 1) + 1 × (2^61 + 1) passes u64::MAX.
    let err = cluster.scale_tier(id, TierId(0), 7).unwrap_err();
    assert!(
        matches!(
            err,
            CmError::InvalidScale {
                current: 1,
                delta: 7,
                ..
            }
        ),
        "{err}"
    );
    let err = cluster.resize_tier(id, TierId(1), 8).unwrap_err();
    assert!(
        matches!(
            err,
            CmError::InvalidScale {
                current: 1,
                delta: 7,
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(cluster.placement_of(id).unwrap(), placement);
    assert_eq!(cluster.tag_of(id).unwrap().placeable_counts(), vec![1, 1]);
    assert_eq!(cluster.topology().slots_in_use(), slots);
    cluster.check_invariants().unwrap();
    cluster.depart(id).unwrap();
    assert_empty(&cluster);
}
