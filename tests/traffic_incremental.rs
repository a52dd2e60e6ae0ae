//! Differential correctness of the incremental traffic engine: a cluster
//! churned through hundreds of randomized lifecycle operations must agree
//! with a from-scratch [`TrafficEngine`] built off the same placements.
//! The agreement is **bit-identical** (the component-scoped solver orders
//! flows canonically, so no churn history may leak into the arithmetic).
//! Every solve is additionally checked against a global from-scratch
//! [`Fluid::rates`] over the engine's own flow set and — whenever the
//! floors fit their links — against the max-min definition itself
//! ([`verify_max_min`]), and against the batch [`datacenter::solve`]
//! reference periodically (both from the dev-only `cm-testkit`).

use cloudmirror::enforce::{Fluid, TrafficEngine};
use cloudmirror::topology::NodeId;
use cloudmirror::workloads::bing_like_pool;
use cloudmirror::{
    gbps, mbps, Cluster, CmConfig, CmPlacer, Fault, GuaranteeModel, Tag, TagBuilder, TenantId,
    TierId, TrafficReport, TreeSpec,
};
use cm_testkit::datacenter::{self, TenantTraffic};
use cm_testkit::fluid::verify_max_min;
use std::sync::Arc;

/// Deterministic xorshift64* stream driving the churn decisions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Small TAG shapes exercising trunks, self-loops, and fan-in.
fn pool() -> Vec<Arc<Tag>> {
    let mut tags = Vec::new();
    let mut b = TagBuilder::new("web-db");
    let w = b.tier("web", 3);
    let d = b.tier("db", 2);
    b.sym_edge(w, d, mbps(40.0)).unwrap();
    tags.push(Arc::new(b.build().unwrap()));

    let mut b = TagBuilder::new("three-tier");
    let fe = b.tier("fe", 2);
    let mid = b.tier("mid", 3);
    let back = b.tier("back", 2);
    b.sym_edge(fe, mid, mbps(30.0)).unwrap();
    b.edge(mid, back, mbps(20.0), mbps(20.0)).unwrap();
    b.self_loop(mid, mbps(25.0)).unwrap();
    tags.push(Arc::new(b.build().unwrap()));

    let mut b = TagBuilder::new("workers");
    let wk = b.tier("wk", 4);
    b.self_loop(wk, mbps(30.0)).unwrap();
    tags.push(Arc::new(b.build().unwrap()));

    let mut b = TagBuilder::new("hub");
    let src = b.tier("src", 1);
    let sink = b.tier("sink", 4);
    b.edge(src, sink, mbps(50.0), mbps(50.0)).unwrap();
    tags.push(Arc::new(b.build().unwrap()));
    tags
}

/// A from-scratch engine over the cluster's current placements (every
/// tenant expanded fresh — no churn history).
fn from_scratch_report(cluster: &Cluster<CmPlacer>, model: GuaranteeModel) -> TrafficReport {
    let topo = cluster.topology();
    let mut engine = TrafficEngine::new(topo, model);
    for id in cluster.tenant_ids() {
        let placement = cluster.placement_of(id).unwrap();
        let tag = cluster.tag_of(id).unwrap().clone();
        engine.upsert_tenant(topo, id.raw(), 1, &tag, &placement);
    }
    engine.solve_detailed(topo)
}

/// The batch reference solve over the same placements.
fn batch_report(cluster: &Cluster<CmPlacer>, model: GuaranteeModel) -> TrafficReport {
    let tenants: Vec<TenantTraffic> = cluster
        .tenant_ids()
        .map(|id| {
            TenantTraffic::from_placement(
                id.raw(),
                cluster.tag_of(id).unwrap().clone(),
                &cluster.placement_of(id).unwrap(),
                model,
            )
        })
        .collect();
    datacenter::solve(cluster.topology(), &tenants)
}

fn assert_bits(x: f64, y: f64, what: &str, step: usize) {
    assert!(
        x.to_bits() == y.to_bits(),
        "step {step}: {what} not bit-equal ({x} vs {y})"
    );
}

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() < 1e-6 * (1.0 + y.abs())
}

/// Churned-engine output vs a fresh engine: every count and verdict equal,
/// every float — solver-derived or placement state — bit-equal.
fn assert_equivalent(got: &TrafficReport, fresh: &TrafficReport, step: usize) {
    assert_eq!(got.flows.len(), fresh.flows.len(), "step {step}");
    for (a, b) in got.flows.iter().zip(&fresh.flows) {
        assert_eq!(
            (a.tenant, a.src, a.dst, a.colocated),
            (b.tenant, b.src, b.dst, b.colocated),
            "step {step}: flow identity"
        );
        assert_bits(a.rate_kbps, b.rate_kbps, "rate", step);
        assert_bits(a.floor_kbps, b.floor_kbps, "floor", step);
        assert_bits(a.intent_kbps, b.intent_kbps, "intent", step);
    }
    assert_summary_equivalent(got, fresh, step);
}

/// [`assert_equivalent`] minus the per-pair list, which a summary-only
/// step leaves empty: every total, verdict, tenant summary and level
/// field.
fn assert_summary_equivalent(got: &TrafficReport, fresh: &TrafficReport, step: usize) {
    assert_eq!(got.cross_flows, fresh.cross_flows, "step {step}");
    assert_eq!(got.colocated_flows, fresh.colocated_flows, "step {step}");
    assert_eq!(got.fluid_flows, fresh.fluid_flows, "step {step}");
    assert_eq!(got.violations, fresh.violations, "step {step}");
    assert_eq!(got.work_conserving, fresh.work_conserving, "step {step}");
    assert_bits(got.total_rate_kbps, fresh.total_rate_kbps, "total", step);
    assert_eq!(got.tenants.len(), fresh.tenants.len(), "step {step}");
    for (a, b) in got.tenants.iter().zip(fresh.tenants.iter()) {
        assert_eq!(
            (a.id, a.vms, a.pairs, a.cross_pairs, a.violations),
            (b.id, b.vms, b.pairs, b.cross_pairs, b.violations),
            "step {step}: tenant summary"
        );
        assert_bits(a.intent_kbps, b.intent_kbps, "tenant intent", step);
        assert_bits(a.achieved_kbps, b.achieved_kbps, "tenant achieved", step);
        assert_bits(
            a.worst_shortfall_kbps,
            b.worst_shortfall_kbps,
            "tenant worst shortfall",
            step,
        );
    }
    assert_eq!(got.levels.len(), fresh.levels.len(), "step {step}");
    for (a, b) in got.levels.iter().zip(&fresh.levels) {
        assert_eq!(
            (a.level, a.links, a.saturated),
            (b.level, b.links, b.saturated),
            "step {step}: level"
        );
        assert_bits(a.mean_utilization, b.mean_utilization, "level mean", step);
        assert_bits(a.max_utilization, b.max_utilization, "level max", step);
    }
}

/// Engine vs batch: identical pair populations and violation verdicts,
/// tolerance-equal rates (bundled vs per-pair summation order differs).
fn assert_matches_batch(eng: &TrafficReport, batch: &TrafficReport, step: usize) {
    assert_eq!(eng.cross_flows, batch.cross_flows, "step {step}");
    assert_eq!(eng.colocated_flows, batch.colocated_flows, "step {step}");
    assert_eq!(eng.violations, batch.violations, "step {step}");
    assert_eq!(eng.work_conserving, batch.work_conserving, "step {step}");
    assert!(
        close(eng.total_rate_kbps, batch.total_rate_kbps),
        "step {step}: totals {} vs {}",
        eng.total_rate_kbps,
        batch.total_rate_kbps
    );
    assert_eq!(eng.flows.len(), batch.flows.len(), "step {step}");
    for f in &eng.flows {
        let r = batch
            .flows
            .iter()
            .find(|b| (b.tenant, b.src, b.dst) == (f.tenant, f.src, f.dst))
            .unwrap_or_else(|| panic!("step {step}: batch misses pair {f:?}"));
        assert_eq!(f.colocated, r.colocated, "step {step}");
        assert!(
            close(f.rate_kbps, r.rate_kbps)
                && close(f.floor_kbps, r.floor_kbps)
                && close(f.intent_kbps, r.intent_kbps),
            "step {step}: pair {}/{}->{} engine ({}, {}, {}) vs batch ({}, {}, {})",
            f.tenant,
            f.src,
            f.dst,
            f.rate_kbps,
            f.floor_kbps,
            f.intent_kbps,
            r.rate_kbps,
            r.floor_kbps,
            r.intent_kbps
        );
    }
}

/// The engine's own per-flow rates vs a global from-scratch
/// [`Fluid::rates`] over the identical flow set (the comparison is on the
/// engine's already-routed fluid network), and vs
/// the max-min definition whenever the floors are admissible (the strict
/// verifier assumes per-link floor sums fit).
fn assert_matches_global_fluid(engine: &TrafficEngine, step: usize) {
    let net: &Fluid = engine.network().fluid();
    let want = net.rates();
    let got = engine.network().rates();
    assert_eq!(got.len(), want.len(), "step {step}");
    for (i, (&x, &y)) in got.iter().zip(&want).enumerate() {
        assert!(
            close(x, y),
            "step {step}: fluid flow {i} rate {x} vs global from-scratch {y}"
        );
    }
    let mut floor_used = vec![0.0f64; net.num_links()];
    for f in net.flows() {
        for &l in &f.path {
            floor_used[l] += f.floor.min(f.demand);
        }
    }
    if (0..net.num_links()).all(|l| floor_used[l] <= net.link_cap(l)) {
        verify_max_min(net, got)
            .unwrap_or_else(|e| panic!("step {step}: engine rates are not max-min: {e}"));
    }
}

/// Drive ≥200 randomized lifecycle steps (admit / scale ± / migrate /
/// depart), checking the cluster's embedded engine against a from-scratch
/// engine after **every** step, against a global from-scratch
/// [`Fluid::rates`] over its own flow set, and against the batch solver
/// periodically. Under the Tag model every step must also meet every
/// intent: admission reserved each floor on the links the engine solves
/// on, so admitted ⇒ floors hold.
fn churn_differential(model: GuaranteeModel, seed: u64) {
    const STEPS: usize = 220;
    let spec = TreeSpec::small(2, 3, 4, 4, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]);
    let mut cluster =
        Cluster::new(&spec, CmPlacer::new(CmConfig::cm())).with_guarantee_model(model);
    let pool = pool();
    let mut rng = Rng(seed);
    let mut live: Vec<TenantId> = Vec::new();
    for step in 0..STEPS {
        let op = if live.len() >= 10 { 90 } else { rng.below(100) };
        match op {
            0..=44 => {
                let tag = &pool[rng.below(pool.len() as u64) as usize];
                if let Ok(h) = cluster.admit(tag) {
                    live.push(h.id());
                }
            }
            45..=69 if !live.is_empty() => {
                let id = live[rng.below(live.len() as u64) as usize];
                let tiers: Vec<TierId> = cluster.tag_of(id).unwrap().internal_tiers().collect();
                let tier = tiers[rng.below(tiers.len() as u64) as usize];
                let delta = 1 + rng.below(3) as i64;
                let delta = if rng.below(2) == 0 { delta } else { -delta };
                let _ = cluster.scale_tier(id, tier, delta);
            }
            70..=84 if !live.is_empty() => {
                let id = live[rng.below(live.len() as u64) as usize];
                let _ = cluster.migrate(id);
            }
            _ if !live.is_empty() => {
                let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                cluster.depart(id).unwrap();
            }
            _ => {}
        }

        let got = cluster.traffic_report();
        if model == GuaranteeModel::Tag {
            assert_eq!(got.violations, 0, "step {step}: admitted floors hold");
        }
        let fresh = from_scratch_report(&cluster, model);
        assert_equivalent(&got, &fresh, step);
        cluster.with_traffic_engine(|engine| assert_matches_global_fluid(engine, step));
        if step % 5 == 0 {
            assert_matches_batch(&got, &batch_report(&cluster, model), step);
        }
    }
    assert!(!live.is_empty(), "churn kept a live population");
    cluster.check_invariants().unwrap();
}

#[test]
fn incremental_engine_matches_from_scratch_tag() {
    churn_differential(GuaranteeModel::Tag, 7);
}

#[test]
fn incremental_engine_matches_from_scratch_hose() {
    churn_differential(GuaranteeModel::Hose, 11);
}

/// Without churn between solves, no component is dirty: the engine must
/// skip every solve and return the previous rates verbatim.
#[test]
fn quiescent_steps_resolve_zero_components() {
    let spec = TreeSpec::small(2, 3, 4, 4, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]);
    let mut cluster = Cluster::new(&spec, CmPlacer::new(CmConfig::cm()))
        .with_guarantee_model(GuaranteeModel::Tag);
    for tag in pool() {
        cluster.admit(&tag).unwrap();
    }
    let first = cluster.traffic_report();
    assert!(first.components_dirty > 0);
    assert!(first.components_total > 0);
    let second = cluster.traffic_report();
    assert_eq!(second.components_dirty, 0, "no churn → nothing dirty");
    assert_eq!(second.components_total, first.components_total);
    assert_equivalent(&second, &first, 1);
}

/// Drift over a long life: the benchmark pushes thousands of ops through
/// one engine, far more than the differentials above, and every cache the
/// engine keeps (usage, flags, labels, summaries, utilisation blocks) must
/// still be the pure function of the surviving flows it was on step one.
/// 3,000 mixed steps — admit / scale / migrate / depart, a rotating
/// server / rack / degraded-uplink fault repaired a few steps later, one
/// guarantee-model flip half way — compared bit for bit with a
/// from-scratch engine every 50th step, around every fault
/// and at the end. (Debug builds also cross-check every cache after every
/// one of the 3,000 solves.)
#[test]
fn long_churn_does_not_drift_single_path() {
    const STEPS: usize = 3_000;
    let spec = TreeSpec::small(2, 3, 4, 4, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]);
    let mut cluster = Cluster::new(&spec, CmPlacer::new(CmConfig::cm()));
    let servers: Vec<NodeId> = cluster.topology().servers().to_vec();
    let at_level = |level: u8| -> Vec<NodeId> {
        let topo = cluster.topology();
        (0..topo.num_nodes() as u32)
            .map(NodeId)
            .filter(|&n| topo.level(n) == level)
            .collect()
    };
    let (racks, pods) = (at_level(1), at_level(2));
    let pool = pool();
    let mut rng = Rng(17);
    let mut model = GuaranteeModel::Tag;
    let mut outstanding: Option<(Fault, usize)> = None;
    let mut faults = 0usize;
    for step in 0..STEPS {
        let mut check = step % 50 == 0 || step + 1 == STEPS;
        if step == STEPS / 2 {
            model = GuaranteeModel::Hose;
            cluster.set_guarantee_model(model);
            check = true;
        }
        if let Some((fault, since)) = outstanding {
            if step >= since + 7 && cluster.repair(fault).is_ok() {
                outstanding = None;
                check = true;
            }
        } else if step % 40 == 20 {
            let pick = |of: &[NodeId], rng: &mut Rng| of[rng.below(of.len() as u64) as usize];
            let fault = match faults % 4 {
                0 => Fault::Server(pick(&servers, &mut rng)),
                1 => Fault::DegradeLink {
                    node: pick(&pods, &mut rng),
                    fraction: 0.5,
                },
                2 => Fault::Domain(pick(&racks, &mut rng)),
                _ => Fault::DegradeLink {
                    node: pick(&racks, &mut rng),
                    fraction: 0.0,
                },
            };
            if cluster.inject_fault(fault).is_ok() {
                outstanding = Some((fault, step));
                faults += 1;
                check = true;
            }
        }
        // Faults evict and repairs re-admit: the registry is the truth.
        let live: Vec<TenantId> = cluster.tenant_ids().collect();
        let any = |rng: &mut Rng| live[rng.below(live.len() as u64) as usize];
        let op = if live.len() >= 10 { 90 } else { rng.below(100) };
        match op {
            0..=39 => {
                let _ = cluster.admit(&pool[rng.below(pool.len() as u64) as usize]);
            }
            40..=69 if !live.is_empty() => {
                let id = any(&mut rng);
                let tiers: Vec<TierId> = cluster.tag_of(id).unwrap().internal_tiers().collect();
                let tier = tiers[rng.below(tiers.len() as u64) as usize];
                let delta = 1 + rng.below(3) as i64;
                let delta = if rng.below(2) == 0 { delta } else { -delta };
                let _ = cluster.scale_tier(id, tier, delta);
            }
            70..=84 if !live.is_empty() => {
                let _ = cluster.migrate(any(&mut rng));
            }
            _ if !live.is_empty() => {
                let _ = cluster.depart(any(&mut rng));
            }
            _ => {}
        }

        let got = cluster.traffic_report();
        if check {
            let fresh = from_scratch_report(&cluster, model);
            assert_equivalent(&got, &fresh, step);
            assert_eq!(got.components_total, fresh.components_total, "step {step}");
            for (a, b) in got.levels.iter().zip(&fresh.levels) {
                assert_eq!(
                    (a.links, a.saturated),
                    (b.links, b.saturated),
                    "step {step}"
                );
            }
        }
    }
    assert!(faults >= 40, "only {faults} faults landed");
    assert!(cluster.tenant_count() > 0, "churn kept a live population");
    if let Some((fault, _)) = outstanding {
        cluster.repair(fault).unwrap();
    }
    cluster.check_invariants().unwrap();
}

/// Ops of the batched differential, counted when they change the
/// cluster.
#[derive(Debug, Clone, Copy)]
enum Op {
    Admit,
    Depart,
    AdmitDepart,
    Scale,
    Resize,
    Migrate,
    FaultServer,
    FaultDomain,
    FaultDegrade,
    Repair,
    RepairTenant,
    FlipModel,
    ReleaseAll,
}

/// Changes pile up between steps: 1–4 random ops run before each traffic
/// step — admit, depart, an admit departed before any step saw it, scale,
/// resize, migrate, a server, domain or degraded-uplink fault, a repair,
/// a single tenant's repair, a guarantee-model flip, and `release_all`
/// followed by fresh admits — so one sync absorbs a tenant touched
/// several times, or touched and gone. After every step (summary-only,
/// a detailed report every fourth) the embedded engine must equal a
/// from-scratch engine over the same placements bit for bit: every
/// summary, total, level field and work-conservation verdict. Each op
/// kind must have changed the cluster at least once.
#[test]
fn batched_ops_between_steps_match_from_scratch() {
    const STEPS: usize = 500;
    let spec = TreeSpec::small(2, 3, 4, 4, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]);
    let mut cluster = Cluster::new(&spec, CmPlacer::new(CmConfig::cm()));
    let servers: Vec<NodeId> = cluster.topology().servers().to_vec();
    let at_level = |level: u8| -> Vec<NodeId> {
        let topo = cluster.topology();
        (0..topo.num_nodes() as u32)
            .map(NodeId)
            .filter(|&n| topo.level(n) == level)
            .collect()
    };
    let (racks, pods) = (at_level(1), at_level(2));
    let pool = pool();
    let mut rng = Rng(0xBA7C);
    let mut model = GuaranteeModel::Tag;
    let mut faults: Vec<Fault> = Vec::new();
    let mut done = [0usize; Op::ReleaseAll as usize + 1];
    let pick = |of: &[NodeId], rng: &mut Rng| of[rng.below(of.len() as u64) as usize];
    for step in 0..STEPS {
        for _ in 0..1 + rng.below(4) {
            let live: Vec<TenantId> = cluster.tenant_ids().collect();
            let any = |rng: &mut Rng| live[rng.below(live.len() as u64) as usize];
            let tag = &pool[rng.below(pool.len() as u64) as usize];
            let damaged = cluster.faulted_tenants().next();
            let roll = rng.below(100);
            let (op, ok) = match roll {
                _ if live.is_empty() => (Op::Admit, cluster.admit(tag).is_ok()),
                0..=25 if live.len() < 12 => (Op::Admit, cluster.admit(tag).is_ok()),
                0..=35 => (Op::Depart, cluster.depart(any(&mut rng)).is_ok()),
                36..=40 => match cluster.admit(tag) {
                    Ok(h) => (Op::AdmitDepart, cluster.depart(h.id()).is_ok()),
                    Err(_) => (Op::AdmitDepart, false),
                },
                41..=58 => {
                    let id = any(&mut rng);
                    let tiers: Vec<TierId> = cluster.tag_of(id).unwrap().internal_tiers().collect();
                    let tier = tiers[rng.below(tiers.len() as u64) as usize];
                    if roll <= 52 {
                        let delta = 1 + rng.below(2) as i64;
                        let delta = if rng.below(2) == 0 { delta } else { -delta };
                        (Op::Scale, cluster.scale_tier(id, tier, delta).is_ok())
                    } else {
                        let size = 1 + rng.below(4) as u32;
                        let ok = cluster.tag_of(id).unwrap().tier(tier).size != size
                            && cluster.resize_tier(id, tier, size).is_ok();
                        (Op::Resize, ok)
                    }
                }
                59..=64 => (Op::Migrate, cluster.migrate(any(&mut rng)).is_ok()),
                65..=72 if faults.len() < 2 => {
                    let (op, fault) = match rng.below(3) {
                        0 => (Op::FaultServer, Fault::Server(pick(&servers, &mut rng))),
                        1 => (Op::FaultDomain, Fault::Domain(pick(&racks, &mut rng))),
                        _ => (
                            Op::FaultDegrade,
                            Fault::DegradeLink {
                                node: pick(&pods, &mut rng),
                                fraction: 0.25,
                            },
                        ),
                    };
                    let before = cluster.fault_epoch();
                    cluster.inject_fault(fault).unwrap();
                    faults.push(fault);
                    (op, cluster.fault_epoch() != before)
                }
                73..=80 if !faults.is_empty() => {
                    let fault = faults.remove(0);
                    let report = cluster.repair(fault).unwrap();
                    (Op::Repair, !report.repaired.is_empty())
                }
                81..=88 => match damaged {
                    Some(id) => (Op::RepairTenant, cluster.repair_tenant(id).is_ok()),
                    None => (Op::Admit, cluster.admit(tag).is_ok()),
                },
                89..=93 => {
                    model = match model {
                        GuaranteeModel::Tag => GuaranteeModel::Hose,
                        GuaranteeModel::Hose => GuaranteeModel::Tag,
                    };
                    cluster.set_guarantee_model(model);
                    (Op::FlipModel, true)
                }
                94 => {
                    cluster.release_all();
                    for _ in 0..1 + rng.below(3) {
                        let _ = cluster.admit(&pool[rng.below(pool.len() as u64) as usize]);
                    }
                    (Op::ReleaseAll, true)
                }
                _ => (Op::Admit, cluster.admit(tag).is_ok()),
            };
            done[op as usize] += usize::from(ok);
        }

        let fresh = from_scratch_report(&cluster, model);
        if step % 4 == 0 {
            assert_equivalent(&cluster.traffic_report(), &fresh, step);
        } else {
            assert_summary_equivalent(&cluster.traffic_step(), &fresh, step);
        }
    }
    assert!(
        done.iter().all(|&n| n > 0),
        "an op kind never landed: {done:?}"
    );
    for fault in faults {
        cluster.repair(fault).unwrap();
    }
    cluster.check_invariants().unwrap();
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

/// Fold one traffic step into `d`: every fluid flow's key and rate bits
/// in canonical key order, every link's usage bits, the violation count
/// and the work-conservation verdict.
fn digest_step(cluster: &Cluster<CmPlacer>, report: &TrafficReport, d: &mut Digest) {
    cluster.with_traffic_engine(|engine| {
        let net = engine.network();
        let mut order: Vec<usize> = (0..net.num_flows()).collect();
        order.sort_unstable_by_key(|&i| net.key(i));
        for i in order {
            let (tenant, seq) = net.key(i);
            d.mix(tenant);
            d.mix(u64::from(seq));
            d.mix(net.rates()[i].to_bits());
        }
        for u in net.link_usage() {
            d.mix(u.to_bits());
        }
    });
    d.mix(report.violations as u64);
    d.mix(u64::from(report.work_conserving));
}

/// Every rate of the max-min kernel, pinned bit for bit where it works
/// hardest: the 8×8×32 paper tree (25 slots per server, 10/80/80 Gbps
/// uplinks) held at 740 live tenants of the bing-like pool at B_max =
/// 800 Mbps (about 78 % of slots), so most bundled flows share one giant
/// component. After the fill, every op of a depart-oldest / admit / scale
/// out-and-in churn is followed by a traffic step, and the digest folds
/// in each step's rates, link usage, violations and verdict. The value
/// was recorded before the kernel's live-link rounds and flat scratch
/// landed; any reordering of a float sum shows here. A second digest pins
/// the engine's work: each step's dirty components, re-scored tenants and
/// links, and fluid flows, so a step that re-solves or re-scores more than
/// churn touched fails here even when its rates are equal. It was
/// re-recorded when a re-solve of a giant component (or of the largest
/// piece of a split one) began to resume its fill log and re-score only
/// the tenants and links of the flows frozen from the resumed round on;
/// the rate digest did not move. The rate digest was re-recorded when
/// the kernel began to read a link from the residual it was last
/// anchored at instead of replaying every fill step it missed: in the
/// short prefix 23 % of the rates moved, by at most 1.6e-14 relative,
/// and the cost digest did not move. Debug builds check a short prefix
/// of the stream, release builds the whole stream.
#[test]
fn spine_churn_rates_are_pinned() {
    const TARGET_LIVE: usize = 740;
    let spec = TreeSpec {
        fanout_top_down: vec![8, 8, 32],
        uplink_kbps: vec![gbps(10.0), gbps(80.0), gbps(80.0)],
        slots_per_server: 25,
    };
    let pool = bing_like_pool(4).scaled_to_bmax(mbps(800.0));
    let tenants = pool.tenants();
    let mut cluster = Cluster::new(&spec, CmPlacer::new(CmConfig::cm()));
    let mut rng = Rng(23);
    let mut live: std::collections::VecDeque<TenantId> = Default::default();
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let mut cost = Digest(0xcbf2_9ce4_8422_2325);
    while live.len() < TARGET_LIVE {
        let tag = &tenants[rng.below(tenants.len() as u64) as usize];
        if let Ok(h) = cluster.admit(tag) {
            live.push_back(h.id());
        }
    }
    let util = cluster.utilization();
    let fill = util.slots_in_use as f64 / util.slots_total as f64;
    assert!((0.74..0.82).contains(&fill), "slot fill {fill}");

    let (short, full) = (6, 120);
    let arrivals = if cfg!(debug_assertions) { short } else { full };
    let step = |cluster: &Cluster<CmPlacer>, d: &mut Digest, cost: &mut Digest| {
        let report = cluster.traffic_step_as(GuaranteeModel::Tag);
        digest_step(cluster, &report, d);
        for work in [
            report.components_dirty,
            report.tenants_rescored,
            report.links_rescored,
            report.fluid_flows,
        ] {
            cost.mix(work as u64);
        }
    };
    step(&cluster, &mut d, &mut cost);
    let mut marks = Vec::new();
    for arrival in 1..=arrivals {
        if live.len() >= TARGET_LIVE {
            let id = live.pop_front().expect("the datacenter holds tenants");
            cluster.depart(id).expect("live tenant departs");
            step(&cluster, &mut d, &mut cost);
        }
        let tag = &tenants[rng.below(tenants.len() as u64) as usize];
        if let Ok(h) = cluster.admit(tag) {
            live.push_back(h.id());
        }
        step(&cluster, &mut d, &mut cost);
        let id = live[rng.below(live.len() as u64) as usize];
        let tiers: Vec<TierId> = cluster.tag_of(id).unwrap().internal_tiers().collect();
        if !tiers.is_empty() {
            let tier = tiers[rng.below(tiers.len() as u64) as usize];
            let delta = 1 + rng.below(4) as i64;
            for delta in [delta, -delta] {
                let ok = cluster.scale_tier(id, tier, delta).is_ok();
                step(&cluster, &mut d, &mut cost);
                if !ok {
                    break;
                }
            }
        }
        if arrival == short || arrival == full {
            marks.push((arrival, d.0, cost.0));
        }
    }
    let want: [(usize, u64, u64); 2] = [
        (short, 8673461055938628903, 18031796084908673235),
        (full, 2794029106685601690, 6677234195534498472),
    ];
    assert_eq!(marks, want[..marks.len()]);
}
