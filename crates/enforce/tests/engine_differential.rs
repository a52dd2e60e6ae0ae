//! Differential tests of the traffic engine against the batch reference
//! solver of the dev-only `cm-testkit` ([`solve`]): one fluid flow per VM
//! pair, every tenant expanded from scratch, one global solve. The engine
//! bundles pairs, partitions all-pairs guarantees in closed form and
//! re-solves only dirty components, and for explicit patterns partitions
//! by `Enforcer::partition` itself; whichever expansion a tenant takes,
//! every pair's floor, intent and rate must match the reference within
//! float tolerance.

mod common;

use cm_core::model::TagBuilder;
use cm_enforce::{GuaranteeModel, TrafficEngine, TrafficReport};
use cm_testkit::datacenter::{solve, TenantTraffic};
use cm_topology::{mbps, NodeId};
use common::{assert_report_close, random_placement, random_tag, topo, Rng};
use std::sync::Arc;

/// Bundling exactness: the engine's per-pair rates, violations and
/// aggregates match the unbundled batch solver within float tolerance,
/// across random tenant mixes — including the oversubscribed-floor
/// regime where phase-1 scaling kicks in.
#[test]
fn bundled_solve_matches_batch_solver() {
    let topo = topo();
    let servers = topo.servers();
    let mut rng = Rng(0xBEEF);
    for round in 0..20 {
        let model = if round % 2 == 0 {
            GuaranteeModel::Tag
        } else {
            GuaranteeModel::Hose
        };
        let mut engine = TrafficEngine::new(&topo, model);
        let mut tenants = Vec::new();
        for id in 0..3u64 {
            let tag = random_tag(&mut rng);
            let placement = random_placement(&mut rng, &tag, servers);
            engine.upsert_tenant(&topo, id, 1, &tag, &placement);
            tenants.push(TenantTraffic::from_placement(id, tag, &placement, model));
        }
        let got = engine.solve_detailed(&topo);
        let want = solve(&topo, &tenants);
        assert_report_close(&got, &want, &format!("round {round}"));
    }
}

/// Oversubscribed floors (phase-1 scaling, the `R < F` recovery
/// regime): many high-guarantee pairs squeezed through one NIC.
#[test]
fn bundling_is_exact_under_oversubscribed_floors() {
    // 1-slot topology is too small; use the 4-slot default and pile
    // two fat tiers onto two servers so floors exceed the NIC.
    let topo = topo();
    let servers = topo.servers();
    let mut b = TagBuilder::new("fat");
    let a = b.tier("a", 4);
    let z = b.tier("z", 4);
    // 4×4 pairs × 500 Mbps floors ≫ the 1 Gbps NIC.
    b.sym_edge(a, z, mbps(2000.0)).unwrap();
    let tag = Arc::new(b.build().unwrap());
    let placement = vec![(servers[0], vec![4, 0]), (servers[7], vec![0, 4])];
    let mut engine = TrafficEngine::new(&topo, GuaranteeModel::Tag);
    engine.upsert_tenant(&topo, 5, 1, &tag, &placement);
    let got = engine.solve_detailed(&topo);
    let want = solve(
        &topo,
        &[TenantTraffic::from_placement(
            5,
            Arc::clone(&tag),
            &placement,
            GuaranteeModel::Tag,
        )],
    );
    // Floors oversubscribe: phase-1 scaling must have engaged.
    let f = want.pair(5, 0, 4).unwrap();
    assert!(f.rate_kbps < f.floor_kbps, "scaling regime not reached");
    assert_report_close(&got, &want, "oversubscribed");
    // And the whole thing collapsed to 2 aggregate fluid flows
    // (one per direction) from 32 VM pairs.
    assert_eq!(got.cross_flows, 32);
    assert_eq!(got.fluid_flows, 2);
}

/// Model switching drops cached tenants so floors re-derive.
#[test]
fn set_model_invalidates_cached_tenants() {
    let topo = topo();
    let servers = topo.servers();
    let mut rng = Rng(99);
    let tag = random_tag(&mut rng);
    let placement = random_placement(&mut rng, &tag, servers);
    let mut engine = TrafficEngine::new(&topo, GuaranteeModel::Tag);
    engine.upsert_tenant(&topo, 1, 1, &tag, &placement);
    assert_eq!(engine.version_of(1), Some(1));
    engine.set_model(GuaranteeModel::Hose);
    assert_eq!(engine.version_of(1), None);
    engine.upsert_tenant(&topo, 1, 1, &tag, &placement);
    let hose = engine.solve_detailed(&topo);
    let want = solve(
        &topo,
        &[TenantTraffic::from_placement(
            1,
            Arc::clone(&tag),
            &placement,
            GuaranteeModel::Hose,
        )],
    );
    assert_report_close(&hose, &want, "post-switch");
}

/// A random explicit pattern over a tenant's VMs: 0 to 2 × VMs pairs,
/// with colocated pairs (a receiver on the sender's server where one
/// exists) and repeated pairs mixed in. Returns the pattern and whether
/// it repeats a pair.
fn random_pattern(rng: &mut Rng, vm_server: &[NodeId]) -> (Vec<(usize, usize)>, bool) {
    let n = vm_server.len();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut repeats = false;
    if n < 2 {
        return (pairs, repeats);
    }
    for _ in 0..rng.next(2 * n as u64 + 1) {
        if !pairs.is_empty() && rng.next(5) == 0 {
            let again = pairs[rng.next(pairs.len() as u64) as usize];
            pairs.push(again);
            repeats = true;
            continue;
        }
        let s = rng.next(n as u64) as usize;
        let mates: Vec<usize> = (0..n)
            .filter(|&d| d != s && vm_server[d] == vm_server[s])
            .collect();
        let d = if !mates.is_empty() && rng.next(3) == 0 {
            mates[rng.next(mates.len() as u64) as usize]
        } else {
            (s + 1 + rng.next(n as u64 - 1) as usize) % n
        };
        pairs.push((s, d));
    }
    (pairs, repeats)
}

/// Explicit patterns: mixes of pattern tenants and all-pairs tenants,
/// under both models, with colocated, repeated and empty patterns, match
/// the batch reference pair for pair — and so does a pattern whose floors
/// oversubscribe the NIC (phase-1 scaling).
#[test]
fn explicit_patterns_match_batch_solver() {
    let topo = topo();
    let servers = topo.servers();
    let mut rng = Rng(0x9A77);
    let (mut colocated, mut repeated, mut empty, mut mixed) = (0, 0, 0, 0);
    for round in 0..200 {
        let model = if round % 2 == 0 {
            GuaranteeModel::Tag
        } else {
            GuaranteeModel::Hose
        };
        let mut engine = TrafficEngine::new(&topo, model);
        let mut tenants = Vec::new();
        for id in 0..3u64 {
            let tag = random_tag(&mut rng);
            let placement = random_placement(&mut rng, &tag, servers);
            let mut t = TenantTraffic::from_placement(id, Arc::clone(&tag), &placement, model);
            if rng.next(3) == 0 {
                engine.upsert_tenant(&topo, id, 1, &tag, &placement);
            } else {
                let (pairs, repeats) = random_pattern(&mut rng, &t.vm_server);
                engine.upsert_tenant_pairs(&topo, id, 1, &tag, &placement, &pairs);
                repeated += usize::from(repeats);
                empty += usize::from(pairs.is_empty());
                t.active = Some(pairs);
            }
            tenants.push(t);
        }
        let got = engine.solve_detailed(&topo);
        let want = solve(&topo, &tenants);
        assert_report_close(&got, &want, &format!("round {round}"));
        colocated += want.colocated_flows;
        let patterned = tenants.iter().filter(|t| t.active.is_some()).count();
        mixed += usize::from(patterned > 0 && patterned < tenants.len());
    }
    assert!(colocated > 0 && repeated > 0 && empty > 0 && mixed > 0);

    // 16 pairs × 500 Mbps floors (plus a repeat) through one 1 Gbps NIC.
    let mut b = TagBuilder::new("fat");
    let a = b.tier("a", 4);
    let z = b.tier("z", 4);
    b.sym_edge(a, z, mbps(2000.0)).unwrap();
    let tag = Arc::new(b.build().unwrap());
    let placement = vec![(servers[0], vec![4, 0]), (servers[7], vec![0, 4])];
    let mut pairs: Vec<(usize, usize)> = (0..4).flat_map(|s| (4..8).map(move |d| (s, d))).collect();
    pairs.push((0, 4));
    for model in [GuaranteeModel::Tag, GuaranteeModel::Hose] {
        let mut engine = TrafficEngine::new(&topo, model);
        engine.upsert_tenant_pairs(&topo, 5, 1, &tag, &placement, &pairs);
        let mut t = TenantTraffic::from_placement(5, Arc::clone(&tag), &placement, model);
        t.active = Some(pairs.clone());
        let want = solve(&topo, &[t]);
        let f = want.pair(5, 1, 4).unwrap();
        assert!(f.rate_kbps < f.floor_kbps, "scaling regime not reached");
        assert_report_close(
            &engine.solve_detailed(&topo),
            &want,
            "oversubscribed pattern",
        );
    }
}
