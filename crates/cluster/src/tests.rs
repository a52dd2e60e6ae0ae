use crate::{Cluster, CmError, TenantId};
use cm_baselines::{OktopusVcPlacer, OvocPlacer, SecondNetPlacer};
use cm_core::model::{Tag, TagBuilder};
use cm_core::placement::{CmConfig, CmPlacer};
use cm_core::TierId;
use cm_enforce::GuaranteeModel;
use cm_topology::{mbps, TreeSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn small_spec() -> TreeSpec {
    TreeSpec::small(2, 2, 4, 4, [mbps(1000.0), mbps(2000.0), mbps(4000.0)])
}

fn web_db(web: u32, db: u32) -> Tag {
    let mut b = TagBuilder::new("webdb");
    let w = b.tier("web", web);
    let d = b.tier("db", db);
    b.sym_edge(w, d, mbps(50.0)).unwrap();
    b.self_loop(d, mbps(10.0)).unwrap();
    b.build().unwrap()
}

fn assert_pristine<P: cm_core::placement::Placer>(cluster: &Cluster<P>) {
    let topo = cluster.topology();
    assert_eq!(topo.slots_in_use(), 0);
    for l in 0..topo.num_levels() {
        assert_eq!(topo.reserved_at_level(l), (0, 0));
    }
    topo.check_invariants().unwrap();
}

#[test]
fn admit_scale_migrate_depart_roundtrip() {
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    let h = cluster.admit(web_db(4, 2)).unwrap();
    assert_eq!(cluster.tenant_count(), 1);
    assert_eq!(cluster.utilization().slots_in_use, 6);

    let web = TierId(0);
    assert_eq!(cluster.scale_tier(h.id(), web, 3).unwrap(), 7);
    assert_eq!(cluster.utilization().slots_in_use, 9);
    assert_eq!(cluster.tag_of(h.id()).unwrap().tier(web).size, 7);
    cluster.check_invariants().unwrap();

    assert_eq!(cluster.scale_tier(h.id(), web, -5).unwrap(), 2);
    assert_eq!(cluster.utilization().slots_in_use, 4);
    cluster.check_invariants().unwrap();

    cluster.migrate(h.id()).unwrap();
    cluster.check_invariants().unwrap();
    assert_eq!(cluster.utilization().slots_in_use, 4);

    cluster.depart(h.id()).unwrap();
    assert!(cluster.is_empty());
    assert_pristine(&cluster);
}

#[test]
fn lifecycle_errors_are_typed() {
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    let ghost = TenantId::from_raw(7);
    assert_eq!(
        cluster.depart(ghost).unwrap_err(),
        CmError::UnknownTenant(ghost)
    );
    let h = cluster.admit(web_db(2, 2)).unwrap();
    // Unknown tier.
    assert!(matches!(
        cluster.scale_tier(h.id(), TierId(9), 1).unwrap_err(),
        CmError::UnknownTier { .. }
    ));
    // Scaling to zero is a depart, not a scale.
    assert!(matches!(
        cluster.scale_tier(h.id(), TierId(0), -2).unwrap_err(),
        CmError::InvalidScale { .. }
    ));
    // Ids are not reused after depart.
    cluster.depart(h.id()).unwrap();
    assert_eq!(
        cluster.depart(h.id()).unwrap_err(),
        CmError::UnknownTenant(h.id())
    );
    let h2 = cluster.admit(web_db(2, 2)).unwrap();
    assert_ne!(h2.id(), h.id());
}

#[test]
fn stale_active_pairs_and_overflow_deltas_are_typed_errors() {
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    let h = cluster.admit(web_db(4, 2)).unwrap();
    // 6 VMs placed: index 6 and self-pairs are invalid, not panics.
    assert!(matches!(
        cluster
            .guarantee_report_active(h.id(), &[(0, 6)])
            .unwrap_err(),
        CmError::InvalidPair { vms: 6, .. }
    ));
    assert!(matches!(
        cluster
            .guarantee_report_active(h.id(), &[(2, 2)])
            .unwrap_err(),
        CmError::InvalidPair { .. }
    ));
    assert!(cluster.guarantee_report_active(h.id(), &[(0, 5)]).is_ok());
    // Extreme deltas overflow to InvalidScale, in every build profile.
    assert!(matches!(
        cluster.scale_tier(h.id(), TierId(0), i64::MAX).unwrap_err(),
        CmError::InvalidScale { .. }
    ));
    assert!(matches!(
        cluster.scale_tier(h.id(), TierId(0), i64::MIN).unwrap_err(),
        CmError::InvalidScale { .. }
    ));
}

#[test]
fn rejection_keeps_cluster_untouched() {
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    // 2×2×4 servers × 4 slots = 64 slots; 65 VMs cannot fit.
    let err = cluster.admit(web_db(63, 2)).unwrap_err();
    assert_eq!(
        err.reject_reason(),
        Some(cm_core::placement::RejectReason::InsufficientSlots)
    );
    assert!(cluster.is_empty());
    assert_pristine(&cluster);
}

#[test]
fn scale_failure_is_all_or_nothing() {
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    let h = cluster.admit(web_db(4, 2)).unwrap();
    let before = cluster.placement_of(h.id()).unwrap();
    let before_res = cluster.deployed(h.id()).unwrap().reservations();
    // Growing the web tier past the datacenter's 64 slots must fail…
    let err = cluster.scale_tier(h.id(), TierId(0), 200).unwrap_err();
    assert!(matches!(err, CmError::Rejected(_)));
    // …and leave the deployment (and its pricing) exactly as it was.
    assert_eq!(cluster.placement_of(h.id()).unwrap(), before);
    assert_eq!(cluster.deployed(h.id()).unwrap().reservations(), before_res);
    assert_eq!(cluster.tag_of(h.id()).unwrap().tier(TierId(0)).size, 4);
    cluster.check_invariants().unwrap();
    cluster.depart(h.id()).unwrap();
    assert_pristine(&cluster);
}

#[test]
fn migrate_failure_restores_the_old_placement() {
    // Fill the datacenter so a migration cannot find room while the
    // tenant's own resources are the only spare ones — the re-place may
    // succeed into exactly the released space or fail; force failure by
    // occupying everything else with an un-departable neighbour and asking
    // for a placer that cannot colocate.
    let spec = TreeSpec::small(1, 1, 2, 4, [mbps(100.0), mbps(100.0), mbps(100.0)]);
    let mut cluster = Cluster::new(&spec, SecondNetPlacer::new());
    let h = cluster.admit(web_db(4, 2)).unwrap();
    let before = cluster.placement_of(h.id()).unwrap();
    let before_res = cluster.deployed(h.id()).unwrap().reservations();
    // SecondNet re-places the same tenant into the space it just released
    // (or fails); either way the books must balance.
    match cluster.migrate(h.id()) {
        Ok(()) => {}
        Err(_) => {
            assert_eq!(cluster.placement_of(h.id()).unwrap(), before);
            assert_eq!(cluster.deployed(h.id()).unwrap().reservations(), before_res);
        }
    }
    cluster.check_invariants().unwrap();
    cluster.depart(h.id()).unwrap();
    assert_pristine(&cluster);
}

#[test]
fn baselines_scale_via_the_replace_fallback() {
    // OVOC, VC and SecondNet have no incremental path; scaling goes
    // through the generic snapshot → re-place → restore fallback and must
    // conserve resources in both directions.
    let specs = small_spec();
    fn drive<P: cm_core::placement::Placer>(placer: P, spec: &TreeSpec) {
        let mut cluster = Cluster::new(spec, placer);
        let name = cluster.placer().name();
        let h = cluster.admit(web_db(4, 2)).unwrap();
        cluster
            .scale_tier(h.id(), TierId(0), 2)
            .unwrap_or_else(|e| panic!("{name}: grow failed: {e}"));
        assert_eq!(cluster.utilization().slots_in_use, 8, "{name}");
        assert_eq!(cluster.tag_of(h.id()).unwrap().tier(TierId(0)).size, 6);
        cluster
            .scale_tier(h.id(), TierId(0), -3)
            .unwrap_or_else(|e| panic!("{name}: shrink failed: {e}"));
        assert_eq!(cluster.utilization().slots_in_use, 5, "{name}");
        cluster.check_invariants().unwrap();
        cluster.depart(h.id()).unwrap();
        assert_pristine(&cluster);
    }
    drive(OvocPlacer::new(), &specs);
    drive(OktopusVcPlacer::new(), &specs);
    drive(SecondNetPlacer::new(), &specs);
}

#[test]
fn guarantee_report_classifies_colocation() {
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    let h = cluster.admit(web_db(4, 2)).unwrap();
    let report = cluster.guarantee_report(h.id()).unwrap();
    assert_eq!(report.model, GuaranteeModel::Tag);
    assert_eq!(report.vm_tier.len(), 6);
    assert_eq!(report.vm_server.len(), 6);
    // web↔db trunk both ways (4×2×2 pairs) + db self-loop (2×1 ordered).
    assert_eq!(report.pairs.len(), 4 * 2 * 2 + 2);
    // The trunk guarantee is fully partitioned: each direction sums to
    // min(senders' aggregate, receivers' aggregate) = 4·50 and 2·50… the
    // edge totals are bounded by the smaller side.
    assert!(report.total_kbps() > 0.0);
    assert_eq!(
        report.total_kbps(),
        report.cross_network_kbps() + report.colocated_kbps()
    );
    // The placement-wired view: pairs on one server are classified as
    // colocated exactly when the placer put both ends together.
    for p in &report.pairs {
        assert_eq!(
            p.crosses_network,
            report.vm_server[p.src] != report.vm_server[p.dst]
        );
    }
    // The hose model reports the same pairs, differently partitioned.
    cluster.set_guarantee_model(GuaranteeModel::Hose);
    let hose = cluster.guarantee_report(h.id()).unwrap();
    assert_eq!(hose.model, GuaranteeModel::Hose);
    assert_eq!(hose.pairs.len(), report.pairs.len());
}

#[test]
fn traffic_report_solves_all_live_tenants() {
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    let a = cluster.admit(web_db(4, 2)).unwrap();
    let b = cluster.admit(web_db(2, 2)).unwrap();
    let r = cluster.traffic_report();
    assert_eq!(r.tenants.len(), 2);
    assert_eq!(r.tenants[0].id, a.id().raw());
    assert_eq!(r.tenants[1].id, b.id().raw());
    // web↔db both ways + db self-loop pairs, per tenant.
    assert_eq!(r.tenants[0].pairs, 4 * 2 * 2 + 2);
    assert_eq!(r.tenants[1].pairs, 2 * 2 * 2 + 2);
    assert_eq!(r.flows.len(), r.cross_flows + r.colocated_flows);
    // TAG floors are sized by admission, so the Tag model meets every
    // intent on the placed topology.
    assert_eq!(r.violations, 0);
    assert!(r.work_conserving);
    // Cross-network pairs must at least achieve their floors.
    for f in &r.flows {
        if !f.colocated {
            assert!(
                f.rate_kbps + 1e-3 >= f.floor_kbps,
                "pair {}→{} got {} < floor {}",
                f.src,
                f.dst,
                f.rate_kbps,
                f.floor_kbps
            );
        }
    }
    // The same placements under hose enforcement re-partition the floors
    // but keep the identical pair population.
    cluster.set_guarantee_model(GuaranteeModel::Hose);
    let hose = cluster.traffic_report();
    cluster.set_guarantee_model(GuaranteeModel::Tag);
    assert_eq!(hose.flows.len(), r.flows.len());
    assert_eq!(hose.cross_flows, r.cross_flows);

    // Active-pattern validation is typed, like the guarantee reports.
    assert!(matches!(
        cluster
            .traffic_report_active(&[(a.id(), vec![(0, 99)])])
            .unwrap_err(),
        CmError::InvalidPair { .. }
    ));
    let ghost = TenantId::from_raw(99);
    assert!(matches!(
        cluster
            .traffic_report_active(&[(ghost, vec![(0, 1)])])
            .unwrap_err(),
        CmError::UnknownTenant(_)
    ));
    // A concrete pattern restricts the named tenant only.
    let focused = cluster
        .traffic_report_active(&[(a.id(), vec![(0, 5)])])
        .unwrap();
    assert_eq!(focused.tenants[0].pairs, 1);
    assert_eq!(focused.tenants[1].pairs, 2 * 2 * 2 + 2);
}

#[test]
fn traffic_vm_indexing_matches_guarantee_reports() {
    // The traffic and guarantee reports index VMs the same way, so one
    // pattern names the same pairs in both: equal `(src, dst)` sets,
    // colocation read the same way, and — both partitioning the same pair
    // list with `Enforcer::partition` — bit-equal floors.
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    let h = cluster.admit(web_db(5, 3)).unwrap();
    cluster.admit(web_db(2, 2)).unwrap();
    // Every VM sends to the next two: trunk, self-loop and edgeless pairs,
    // colocated and cross-server.
    let pattern: Vec<(usize, usize)> = (0..8)
        .flat_map(|s| [(s, (s + 1) % 8), (s, (s + 3) % 8)])
        .collect();
    for model in [GuaranteeModel::Tag, GuaranteeModel::Hose] {
        cluster.set_guarantee_model(model);
        let guarantees = cluster.guarantee_report_active(h.id(), &pattern).unwrap();
        let traffic = cluster
            .traffic_report_active(&[(h.id(), pattern.clone())])
            .unwrap();
        let flows: Vec<_> = traffic
            .flows
            .iter()
            .filter(|f| f.tenant == h.id().raw())
            .collect();
        assert_eq!(flows.len(), guarantees.pairs.len());
        let mut want: Vec<_> = guarantees.pairs.iter().map(|p| (p.src, p.dst)).collect();
        let mut got: Vec<_> = flows.iter().map(|f| (f.src, f.dst)).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
        for p in &guarantees.pairs {
            let f = traffic.pair(h.id().raw(), p.src, p.dst).unwrap();
            assert_eq!(f.colocated, !p.crosses_network, "{p:?}");
            assert_eq!(f.floor_kbps.to_bits(), p.kbps.to_bits(), "{p:?}");
        }
        assert!(flows.iter().any(|f| f.colocated) && flows.iter().any(|f| !f.colocated));
    }
}

/// The embedded engine's current rate bits.
fn engine_rates(cluster: &Cluster<CmPlacer>) -> Vec<u64> {
    cluster.with_traffic_engine(|e| e.network().rates().iter().map(|r| r.to_bits()).collect())
}

/// What `traffic_report_active` must answer for `active`: the first
/// unknown tenant or out-of-range or self pair, in input order.
fn expected_pattern_error(
    cluster: &Cluster<CmPlacer>,
    active: &[(TenantId, Vec<(usize, usize)>)],
) -> Option<CmError> {
    for (id, pairs) in active {
        let Ok(placement) = cluster.placement_of(*id) else {
            return Some(CmError::UnknownTenant(*id));
        };
        let vms: usize = placement
            .iter()
            .map(|(_, c)| c.iter().sum::<u32>() as usize)
            .sum();
        if let Some(&(src, dst)) = pairs.iter().find(|&&(s, d)| s >= vms || d >= vms || s == d) {
            return Some(CmError::InvalidPair {
                tenant: *id,
                src,
                dst,
                vms,
            });
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Hostile patterns — unknown tenants, out-of-range and self pairs,
    /// a tenant named twice, empty patterns — never panic: each call is
    /// `Ok` or the typed error of its first bad entry, and either way the
    /// embedded engine is untouched (the next step re-solves nothing and
    /// keeps every rate bit). A tenant named twice sends on its last
    /// pattern, and the same input with only the valid entries is `Ok`.
    #[test]
    fn hostile_traffic_patterns_are_typed_and_leave_the_engine_alone(
        entries in prop::collection::vec(
            (0usize..4, prop::collection::vec((0usize..64, 0usize..64), 0..5), 0usize..12),
            0..5,
        )
    ) {
        let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
        let ids: Vec<TenantId> = [web_db(4, 2), web_db(2, 2), web_db(3, 1)]
            .into_iter()
            .map(|tag| cluster.admit(tag).unwrap().id())
            .collect();
        let ghost = TenantId::from_raw(99);
        // Entry `k` names live tenant `k`, or an unknown one for `k == 3`.
        // Its raw pairs fold into valid pairs of the tenant's VMs; one
        // entry in four then gains a pair past the VMs or a self-pair.
        let active: Vec<(TenantId, Vec<(usize, usize)>)> = entries
            .into_iter()
            .map(|(k, raw, hostile)| {
                let id = ids.get(k).copied().unwrap_or(ghost);
                let vms = cluster.guarantee_report(id).map_or(6, |r| r.vm_tier.len());
                let mut pairs: Vec<(usize, usize)> = raw
                    .into_iter()
                    .map(|(a, b)| (a % vms, (a % vms + 1 + b % (vms - 1)) % vms))
                    .collect();
                match hostile {
                    0 => pairs.push((vms, 0)),
                    1 => pairs.push((0, vms + 3)),
                    2 => pairs.push((1, 1)),
                    _ => {}
                }
                (id, pairs)
            })
            .collect();
        let valid: Vec<(TenantId, Vec<(usize, usize)>)> = active
            .iter()
            .filter(|entry| expected_pattern_error(&cluster, std::slice::from_ref(entry)).is_none())
            .cloned()
            .collect();
        let first = cluster.traffic_step();
        let rates = engine_rates(&cluster);

        let got = cluster.traffic_report_active(&active);
        match expected_pattern_error(&cluster, &active) {
            Some(err) => prop_assert_eq!(got.unwrap_err(), err),
            None => {
                let got = got.unwrap();
                // Last pattern wins: the report equals the deduplicated
                // input's, and each named tenant sends on its last pattern.
                let last: BTreeMap<TenantId, Vec<(usize, usize)>> =
                    active.iter().cloned().collect();
                for (id, pairs) in &last {
                    let t = got.tenants.iter().find(|t| t.id == id.raw()).unwrap();
                    prop_assert_eq!(t.pairs, pairs.len());
                }
                let dedup: Vec<_> = last.into_iter().collect();
                let want = cluster.traffic_report_active(&dedup).unwrap();
                prop_assert_eq!(got.flows, want.flows);
            }
        }
        let valid_report = cluster.traffic_report_active(&valid);
        prop_assert!(valid_report.is_ok());

        let next = cluster.traffic_step();
        prop_assert_eq!(next.components_dirty, 0);
        prop_assert_eq!(next.components_total, first.components_total);
        prop_assert_eq!(engine_rates(&cluster), rates);
    }
}

#[test]
fn utilization_tracks_levels() {
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    let u0 = cluster.utilization();
    assert_eq!(u0.slots_total, 64);
    assert_eq!(u0.slot_fraction(), 0.0);
    let h = cluster.admit(web_db(8, 4)).unwrap();
    let u1 = cluster.utilization();
    assert_eq!(u1.slots_in_use, 12);
    assert_eq!(u1.tenants, 1);
    assert!(u1.slot_fraction() > 0.0);
    assert_eq!(u1.reserved_by_level.len(), cluster.topology().num_levels());
    cluster.depart(h.id()).unwrap();
    assert_eq!(cluster.utilization().slot_fraction(), 0.0);
}

#[test]
fn server_fault_evacuates_and_repair_regrows() {
    // CM+HA spreads each tier over multiple servers (Eq. 7), so killing
    // one server always leaves a surviving fragment — the repair rides
    // the exact per-tier incremental regrow path.
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm_ha(0.5)));
    let h = cluster.admit(web_db(4, 2)).unwrap();
    let victim = cluster.placement_of(h.id()).unwrap()[0].0;
    let report = cluster.inject_fault(crate::Fault::Server(victim)).unwrap();
    assert_eq!(report.failed_servers, vec![victim]);
    assert!(report.lost_vms > 0);
    assert!(report.reclaimed_kbps > 0);
    assert_eq!(report.tenants.len(), 1);
    assert_eq!(report.tenants[0].tenant, h.id());
    assert!(!report.tenants[0].evicted);
    cluster.check_invariants().unwrap();
    // The damage is recorded; the registry tag shrank to the survivors.
    assert_eq!(cluster.faulted_tenants().collect::<Vec<_>>(), vec![h.id()]);
    assert_eq!(
        cluster.pre_fault_tag(h.id()).unwrap().tier(TierId(0)).size,
        4
    );
    let surviving = 6 - report.lost_vms;
    let placed = cluster
        .deployed(h.id())
        .unwrap()
        .total_placed(cluster.topology());
    assert_eq!(placed, surviving);
    let shrunk = cluster.tag_of(h.id()).unwrap();
    assert_eq!(
        (shrunk.tier(TierId(0)).size + shrunk.tier(TierId(1)).size) as u64,
        surviving
    );
    // The failed server's whole capacity reads as in-use until restored;
    // the survivors account for the rest.
    assert_eq!(cluster.utilization().slots_in_use, surviving + 4);
    // Re-injecting the same fault is a no-op.
    let again = cluster.inject_fault(crate::Fault::Server(victim)).unwrap();
    assert!(again.failed_servers.is_empty() && again.tenants.is_empty());

    let fixed = cluster.repair(crate::Fault::Server(victim)).unwrap();
    assert_eq!(fixed.restored_servers, vec![victim]);
    assert_eq!(fixed.repaired, vec![h.id()]);
    assert!(fixed.degraded.is_empty());
    assert_eq!(cluster.faulted_tenants().count(), 0);
    assert_eq!(cluster.tag_of(h.id()).unwrap().tier(TierId(0)).size, 4);
    assert_eq!(cluster.tag_of(h.id()).unwrap().tier(TierId(1)).size, 2);
    assert_eq!(cluster.utilization().slots_in_use, 6);
    cluster.check_invariants().unwrap();
    cluster.depart(h.id()).unwrap();
    assert_pristine(&cluster);
}

#[test]
fn domain_kill_evicts_and_repair_readmits() {
    // One rack: killing its ToR domain takes every VM of a rack-local
    // tenant, so the evacuation is a wholesale eviction and the repair a
    // fresh re-admission of the recorded pre-fault TAG.
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    let h = cluster.admit(web_db(4, 2)).unwrap();
    let server = cluster.placement_of(h.id()).unwrap()[0].0;
    let tor = cluster.topology().parent(server).unwrap();
    let report = cluster.inject_fault(crate::Fault::Domain(tor)).unwrap();
    assert_eq!(report.failed_servers.len(), 4);
    cluster.check_invariants().unwrap();
    if report.lost_vms == 6 {
        // The whole deployment died with the rack; the dead rack's 16
        // slots read as in-use until the domain is restored.
        assert!(report.tenants[0].evicted);
        assert_eq!(cluster.utilization().slots_in_use, 16);
        assert_eq!(
            cluster
                .deployed(h.id())
                .unwrap()
                .total_placed(cluster.topology()),
            0
        );
    }
    // Guarantee queries stay well-typed on the damaged tenant.
    let _ = cluster.guarantee_report(h.id()).unwrap();
    let fixed = cluster.repair(crate::Fault::Domain(tor)).unwrap();
    assert_eq!(fixed.repaired, vec![h.id()]);
    assert_eq!(cluster.utilization().slots_in_use, 6);
    assert_eq!(cluster.tag_of(h.id()).unwrap().tier(TierId(0)).size, 4);
    cluster.check_invariants().unwrap();
    cluster.depart(h.id()).unwrap();
    assert_pristine(&cluster);
}

#[test]
fn repair_without_capacity_is_a_typed_failure_and_retryable() {
    // A full 2-server rack: failing one server strands more VMs than the
    // survivor can absorb, so repairing before the server returns is a
    // RepairFailed that leaves the fragment intact and retryable.
    let spec = TreeSpec::small(1, 1, 2, 6, [mbps(1000.0), mbps(2000.0), mbps(4000.0)]);
    let mut cluster = Cluster::new(&spec, CmPlacer::new(CmConfig::cm()));
    let h = cluster.admit(web_db(6, 6)).unwrap();
    assert_eq!(cluster.utilization().slots_in_use, 12);
    let victim = cluster.placement_of(h.id()).unwrap()[0].0;
    let report = cluster.inject_fault(crate::Fault::Server(victim)).unwrap();
    assert_eq!(report.lost_vms, 6);
    let err = cluster.repair_tenant(h.id()).unwrap_err();
    assert!(matches!(err, CmError::RepairFailed { tenant, .. } if tenant == h.id()));
    assert!(err.reject_reason().is_some());
    cluster.check_invariants().unwrap();
    // Still recorded; a repair after capacity returns succeeds.
    assert_eq!(cluster.faulted_tenants().count(), 1);
    let fixed = cluster.repair(crate::Fault::Server(victim)).unwrap();
    assert_eq!(fixed.repaired, vec![h.id()]);
    assert_eq!(cluster.utilization().slots_in_use, 12);
    cluster.check_invariants().unwrap();
    // Repairing a healthy tenant is typed too.
    assert_eq!(
        cluster.repair_tenant(h.id()).unwrap_err(),
        CmError::NothingToRepair(h.id())
    );
    cluster.depart(h.id()).unwrap();
    assert_pristine(&cluster);
}

#[test]
fn degraded_link_blocks_admission_until_restored() {
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    let h = cluster.admit(web_db(4, 2)).unwrap();
    // Soft-fail every rack uplink: existing reservations survive, no VMs
    // are lost, but a bandwidth-hungry newcomer no longer fits.
    let tors: Vec<_> = cluster.topology().nodes_at_level(1).to_vec();
    for &tor in &tors {
        let report = cluster
            .inject_fault(crate::Fault::DegradeLink {
                node: tor,
                fraction: 0.0,
            })
            .unwrap();
        assert_eq!(report.lost_vms, 0);
        assert!(report.tenants.is_empty());
    }
    cluster.check_invariants().unwrap();
    assert_eq!(cluster.faulted_tenants().count(), 0);
    let mut b = TagBuilder::new("hungry");
    let t = b.tier("t", 16);
    b.self_loop(t, mbps(400.0)).unwrap();
    let hungry = b.build().unwrap();
    let err = cluster.admit(hungry.clone()).unwrap_err();
    assert!(matches!(err, CmError::Rejected(_)));
    for &tor in &tors {
        cluster
            .repair(crate::Fault::DegradeLink {
                node: tor,
                fraction: 0.0,
            })
            .unwrap();
    }
    cluster.check_invariants().unwrap();
    let h2 = cluster.admit(hungry).unwrap();
    cluster.depart(h2.id()).unwrap();
    cluster.depart(h.id()).unwrap();
    assert_pristine(&cluster);
}

#[test]
fn baseline_fragments_repair_via_replace() {
    for (name, run) in [("ovoc", 0usize), ("vc", 1), ("secondnet", 2)] {
        fn drive<P: cm_core::placement::Placer>(placer: P, name: &str) {
            let mut cluster = Cluster::new(&small_spec(), placer);
            let h = cluster.admit(web_db(4, 2)).unwrap();
            let victim = cluster.placement_of(h.id()).unwrap()[0].0;
            let report = cluster.inject_fault(crate::Fault::Server(victim)).unwrap();
            assert!(report.lost_vms > 0, "{name}");
            cluster.check_invariants().unwrap();
            let fixed = cluster.repair(crate::Fault::Server(victim)).unwrap();
            assert_eq!(fixed.repaired, vec![h.id()], "{name}: {:?}", fixed.degraded);
            assert_eq!(cluster.utilization().slots_in_use, 6, "{name}");
            // The pre-fault model is authoritative again.
            assert_eq!(cluster.tag_of(h.id()).unwrap().tier(TierId(0)).size, 4);
            cluster.check_invariants().unwrap();
            cluster.depart(h.id()).unwrap();
            assert_pristine(&cluster);
        }
        match run {
            0 => drive(OvocPlacer::new(), name),
            1 => drive(OktopusVcPlacer::new(), name),
            _ => drive(SecondNetPlacer::new(), name),
        }
    }
}

/// Degrading links mid-flight must flow into the traffic engine via the
/// fault-epoch guard: the next report measures the dead links (violations),
/// and repair restores the healthy verdicts without rebuilding the engine.
#[test]
fn traffic_report_measures_degraded_links_and_recovers() {
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    // 20 slots > one 16-slot rack, so some web<->db pairs cross a ToR uplink.
    let h = cluster.admit(web_db(12, 8)).unwrap();
    let healthy = cluster.traffic_report();
    assert_eq!(
        healthy.violations, 0,
        "admitted guarantees hold when healthy"
    );
    assert!(healthy.total_rate_kbps > 0.0);

    // Kill every ToR uplink: all cross-rack traffic is stranded.
    let tors: Vec<_> = cluster.topology().nodes_at_level(1).to_vec();
    for &t in &tors {
        let report = cluster
            .inject_fault(crate::Fault::DegradeLink {
                node: t,
                fraction: 0.0,
            })
            .unwrap();
        assert_eq!(report.lost_vms, 0, "degrade loses no VMs");
        assert!(report.failed_servers.is_empty());
    }
    let degraded = cluster.traffic_report();
    assert!(
        degraded.violations > 0,
        "stranded cross-rack floors violate"
    );
    assert!(degraded.total_rate_kbps < healthy.total_rate_kbps);

    // Repair restores the caps and the verdicts; no placement was damaged.
    for &t in &tors {
        let report = cluster
            .repair(crate::Fault::DegradeLink {
                node: t,
                fraction: 0.0,
            })
            .unwrap();
        assert!(report.repaired.is_empty() && report.degraded.is_empty());
    }
    let restored = cluster.traffic_report();
    assert_eq!(restored.violations, 0);
    assert!((restored.total_rate_kbps - healthy.total_rate_kbps).abs() < 1.0);
    cluster.check_invariants().unwrap();
    cluster.depart(h.id()).unwrap();
    assert_pristine(&cluster);
}

#[test]
fn departing_a_damaged_tenant_clears_its_record() {
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    let h = cluster.admit(web_db(4, 2)).unwrap();
    let victim = cluster.placement_of(h.id()).unwrap()[0].0;
    cluster.inject_fault(crate::Fault::Server(victim)).unwrap();
    assert_eq!(cluster.faulted_tenants().count(), 1);
    // A damaged deployment can disagree with its model: incremental
    // lifecycle ops are refused until repair reconciles them.
    assert_eq!(
        cluster.scale_tier(h.id(), TierId(0), 1).unwrap_err(),
        CmError::Damaged(h.id())
    );
    assert_eq!(
        cluster.migrate(h.id()).unwrap_err(),
        CmError::Damaged(h.id())
    );
    cluster.depart(h.id()).unwrap();
    assert_eq!(cluster.faulted_tenants().count(), 0);
    cluster.repair(crate::Fault::Server(victim)).unwrap();
    assert_pristine(&cluster);
}

#[test]
fn release_all_empties_the_cluster() {
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    for _ in 0..4 {
        cluster.admit(web_db(2, 1)).unwrap();
    }
    assert_eq!(cluster.tenant_count(), 4);
    cluster.release_all();
    assert!(cluster.is_empty());
    assert_pristine(&cluster);
}

/// Everything an `Err` must leave as it was: the substrate (failure state
/// included), the fault epoch, the damage ledger and every placement.
fn snapshot<P: cm_core::placement::Placer>(cluster: &Cluster<P>) -> String {
    let placements: Vec<_> = cluster
        .tenant_ids()
        .map(|id| cluster.placement_of(id))
        .collect();
    format!(
        "{:?}\n{}\n{:?}\n{placements:?}",
        cluster.topology(),
        cluster.fault_epoch(),
        cluster.faulted_tenants().collect::<Vec<_>>(),
    )
}

#[test]
fn hostile_faults_are_typed_errors_and_change_nothing() {
    use crate::Fault;
    use cm_topology::{NodeId, TopologyError};
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    cluster.admit(web_db(4, 2)).unwrap();
    let tor = cluster.topology().nodes_at_level(1)[0];
    let root = cluster.topology().root();
    let ghost = NodeId(99_999);
    let before = snapshot(&cluster);
    let hostile = [
        Fault::DegradeLink {
            node: tor,
            fraction: 1.5,
        },
        Fault::DegradeLink {
            node: tor,
            fraction: f64::NAN,
        },
        Fault::DegradeLink {
            node: tor,
            fraction: -0.5,
        },
        Fault::DegradeLink {
            node: ghost,
            fraction: 0.5,
        },
        Fault::Server(ghost),
        Fault::Domain(ghost),
        // The root has no uplink, so it is no fault domain either.
        Fault::DegradeLink {
            node: root,
            fraction: 0.5,
        },
        Fault::Domain(root),
    ];
    for fault in hostile {
        let node = match fault {
            Fault::Server(n) | Fault::Domain(n) | Fault::DegradeLink { node: n, .. } => n,
        };
        assert_eq!(
            cluster.inject_fault(fault).unwrap_err(),
            CmError::Topology(TopologyError::InvalidFault { node }),
            "{fault:?}"
        );
        cluster.check_invariants().unwrap();
        assert_eq!(snapshot(&cluster), before, "{fault:?}");
    }
    // Repairs of nodes outside the tree, or of the root, are refused the
    // same way.
    for (fault, node) in [
        (Fault::Server(ghost), ghost),
        (Fault::Domain(ghost), ghost),
        (Fault::Domain(root), root),
    ] {
        assert_eq!(
            cluster.repair(fault).unwrap_err(),
            CmError::Topology(TopologyError::InvalidFault { node }),
        );
        assert_eq!(snapshot(&cluster), before, "{fault:?}");
    }
}

#[test]
fn laa_level_above_the_root_makes_the_tree_one_fault_domain() {
    use cm_core::placement::HaPolicy;
    // Server, ToR and root: three levels, so level 9 is far above the top.
    let spec = TreeSpec {
        fanout_top_down: vec![2, 4],
        uplink_kbps: vec![mbps(1000.0), mbps(4000.0)],
        slots_per_server: 4,
    };
    let cfg = CmConfig {
        ha: HaPolicy::Guaranteed {
            rwcs: 0.5,
            laa_level: 9,
        },
        ..CmConfig::default()
    };
    let mut cluster = Cluster::new(&spec, CmPlacer::new(cfg));
    let before = snapshot(&cluster);
    // Eq. 7 caps a 4-VM tier at 2 VMs per domain, and the one domain is
    // the whole tree.
    let mut b = TagBuilder::new("four");
    let t = b.tier("t", 4);
    b.self_loop(t, mbps(10.0)).unwrap();
    let err = cluster.admit(b.build().unwrap()).unwrap_err();
    assert!(matches!(err, CmError::Rejected(_)), "{err:?}");
    cluster.check_invariants().unwrap();
    assert_eq!(snapshot(&cluster), before);
    // max(1, ·) admits a single VM anywhere.
    let mut b = TagBuilder::new("one");
    let t = b.tier("t", 1);
    b.self_loop(t, mbps(10.0)).unwrap();
    let h = cluster.admit(b.build().unwrap()).unwrap();
    assert_eq!(cluster.utilization().slots_in_use, 1);
    cluster.depart(h.id()).unwrap();
    assert_pristine(&cluster);
}

/// The fault epoch moves exactly when the substrate changed: a second
/// kill of a dead server, a repair of a healthy one, a degrade to the
/// current capacity and the repair of a link at nominal each return `Ok`
/// and leave it, so the next traffic step re-syncs nothing.
#[test]
fn fault_epoch_moves_only_when_the_substrate_changes() {
    use crate::Fault;
    let mut cluster = Cluster::new(&small_spec(), CmPlacer::new(CmConfig::cm()));
    cluster.admit(web_db(4, 2)).unwrap();
    let server = cluster.topology().nodes_at_level(0)[0];
    let tor = cluster.topology().nodes_at_level(1)[0];
    let mut epoch = cluster.fault_epoch();
    let mut expect = |cluster: &Cluster<CmPlacer>, moved: bool, what: &str| {
        let now = cluster.fault_epoch();
        assert_eq!(now != epoch, moved, "{what}: epoch {epoch} -> {now}");
        epoch = now;
    };

    cluster.inject_fault(Fault::Server(server)).unwrap();
    expect(&cluster, true, "first kill");
    let again = cluster.inject_fault(Fault::Server(server)).unwrap();
    assert!(again.failed_servers.is_empty());
    expect(&cluster, false, "repeated kill");
    cluster.repair(Fault::Server(server)).unwrap();
    expect(&cluster, true, "repair of the dead server");
    let healthy = cluster.repair(Fault::Server(server)).unwrap();
    assert!(healthy.restored_servers.is_empty());
    expect(&cluster, false, "repair of a healthy server");

    let half = Fault::DegradeLink {
        node: tor,
        fraction: 0.5,
    };
    cluster.inject_fault(half).unwrap();
    expect(&cluster, true, "degrade");
    cluster.inject_fault(half).unwrap();
    expect(&cluster, false, "same degrade again");
    cluster.repair(half).unwrap();
    expect(&cluster, true, "link repair");
    cluster.repair(half).unwrap();
    expect(&cluster, false, "repair of a nominal link");

    cluster.inject_fault(Fault::Domain(tor)).unwrap();
    expect(&cluster, true, "domain kill");
    cluster.inject_fault(Fault::Domain(tor)).unwrap();
    expect(&cluster, false, "repeated domain kill");
    cluster.repair(Fault::Domain(tor)).unwrap();
    expect(&cluster, true, "domain repair");
    cluster.check_invariants().unwrap();
}
