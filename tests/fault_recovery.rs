//! Golden fault-recovery claims: kill one ToR-level fault domain on
//! identical CM and CM+HA workloads and *measure* the paper's §4.5
//! survivability story end to end.
//!
//! * CM+HA (Eq. 7 enforced at the ToR level) retains at least its admitted
//!   `rwcs` fraction of every tier — and hence ≥ `rwcs²` of its VM pairs —
//!   with the surviving guarantees still met in the fluid traffic solve.
//! * Plain CM, judged against the same bound it never enforced, loses
//!   everything it colocated under the dead ToR.
//! * After repair, a quiesced cluster's guarantee verdicts are restored
//!   **bit-identically**: the placer is deterministic and the restored
//!   topology is exactly the pre-fault one. The evicted CM tenant is
//!   re-placed wholesale, so its full report (servers included) matches
//!   bit for bit; the surviving CM+HA fragment regrows through the placer,
//!   which returns the lost VMs to the same servers but may pick a
//!   different tier mix per server — its *verdicts* (model, tier sizes,
//!   server multiset, per-pair guarantees, zero violations) match bit for
//!   bit.

use cloudmirror::core::placement::wcs_cap;
use cloudmirror::topology::NodeId;
use cloudmirror::{
    mbps, Cluster, CmConfig, CmPlacer, Fault, HaPolicy, TagBuilder, Topology, TreeSpec,
};

const RWCS: f64 = 0.5;

fn spec() -> TreeSpec {
    TreeSpec::small(2, 2, 4, 4, [mbps(1_000.0), mbps(2_000.0), mbps(4_000.0)])
}

fn web_db() -> cloudmirror::Tag {
    let mut b = TagBuilder::new("webdb");
    let w = b.tier("web", 8);
    let d = b.tier("db", 4);
    b.sym_edge(w, d, mbps(20.0)).unwrap();
    b.self_loop(d, mbps(10.0)).unwrap();
    b.build().unwrap()
}

fn cm_ha() -> CmConfig {
    CmConfig {
        ha: HaPolicy::Guaranteed {
            rwcs: RWCS,
            laa_level: 1,
        },
        ..CmConfig::default()
    }
}

/// The ToR hosting the most of the tenant's VMs — the worst single domain
/// to lose.
fn worst_tor(cluster: &Cluster<CmPlacer>, id: cloudmirror::TenantId) -> NodeId {
    let topo = cluster.topology();
    let mut per_tor: std::collections::HashMap<NodeId, u32> = std::collections::HashMap::new();
    for (server, counts) in cluster.placement_of(id).unwrap() {
        let tor = topo
            .path_to_root(server)
            .find(|&n| topo.level(n) == 1)
            .unwrap();
        *per_tor.entry(tor).or_default() += counts.iter().sum::<u32>();
    }
    per_tor
        .into_iter()
        .max_by_key(|&(n, c)| (c, std::cmp::Reverse(n.0)))
        .unwrap()
        .0
}

#[test]
fn tor_kill_separates_cm_from_cm_ha_and_repair_is_bit_identical() {
    for (cfg, enforced) in [(CmConfig::cm(), false), (cm_ha(), true)] {
        let label = if enforced { "CM+HA" } else { "CM" };
        let mut cluster = Cluster::adopt(Topology::build(&spec()), CmPlacer::new(cfg));
        let h = cluster.admit(web_db()).unwrap();
        let pre_guarantees = cluster.guarantee_report(h.id()).unwrap();
        let pre_traffic = cluster.traffic_report();
        assert_eq!(pre_traffic.violations, 0, "{label}: healthy start");
        let pre_pairs = pre_guarantees.pairs.len();

        let tor = worst_tor(&cluster, h.id());
        let report = cluster.inject_fault(Fault::Domain(tor)).unwrap();
        assert_eq!(report.failed_servers.len(), 4, "{label}: whole rack dies");
        let damage = &report.tenants[0];

        // Measured per-tier survivability against the admitted Eq. 7 bound.
        let mut violated = false;
        for (t, &pre) in damage.pre_sizes.iter().enumerate() {
            if pre == 0 {
                continue;
            }
            let (lost, cap) = (damage.lost[t].min(pre), wcs_cap(pre, RWCS));
            if lost > cap {
                violated = true;
            }
            if enforced {
                assert!(
                    lost <= cap,
                    "{label} tier {t}: lost {lost} of {pre} > admitted Eq. 7 cap {cap}"
                );
                let surviving = (pre - lost) as f64 / pre as f64;
                assert!(surviving >= RWCS, "{label}: Eq. 7 keeps ≥ rwcs per tier");
            }
        }
        if enforced {
            // Eq. 7 guarantees each tier keeps ≥ `n − wcs_cap(n)` VMs, so
            // the intact-pair count is bounded below by pairing those
            // guaranteed survivors (self-loop pairs shrink as k·(k−1));
            // and the survivors' guarantees still hold in the fluid solve
            // over the degraded tree.
            let guaranteed = |n: u32| (n - wcs_cap(n, RWCS).min(n)) as f64;
            let mut bound_pairs = 0.0;
            for p in &pre_guarantees.pairs {
                let (ta, tb) = (pre_guarantees.vm_tier[p.src], pre_guarantees.vm_tier[p.dst]);
                let (na, nb) = (
                    damage.pre_sizes[ta.index()] as f64,
                    damage.pre_sizes[tb.index()] as f64,
                );
                let (ga, gb) = (guaranteed(na as u32), guaranteed(nb as u32));
                bound_pairs += if ta == tb {
                    (ga / na) * ((ga - 1.0).max(0.0) / (nb - 1.0).max(1.0))
                } else {
                    (ga / na) * (gb / nb)
                };
            }
            let surviving_pairs = cluster.guarantee_report(h.id()).unwrap().pairs.len();
            assert!(
                surviving_pairs as f64 + 1e-9 >= bound_pairs,
                "{label}: {surviving_pairs}/{pre_pairs} pairs intact, admitted bound {bound_pairs}"
            );
            let degraded = cluster.traffic_report();
            assert_eq!(degraded.violations, 0, "{label}: survivors stay whole");
        } else {
            assert!(
                violated,
                "{label}: colocation must break the unenforced bound"
            );
            assert!(damage.evicted, "{label}: the colocated tenant dies whole");
        }

        // Repair on the quiesced cluster: deterministic placer + exactly
        // restored topology ⇒ bit-identical guarantee verdicts.
        let repair = cluster.repair(Fault::Domain(tor)).unwrap();
        assert_eq!(repair.repaired, vec![h.id()], "{label}: repaired");
        assert!(repair.degraded.is_empty(), "{label}: no degraded repairs");
        let post_guarantees = cluster.guarantee_report(h.id()).unwrap();
        let post_traffic = cluster.traffic_report();
        assert_eq!(
            post_traffic.violations, 0,
            "{label}: repaired guarantees hold"
        );
        if enforced {
            // The fragment regrew through the placer: same servers, but the
            // tier mix per server may differ from the pre-fault layout, so
            // compare the placement-independent verdicts bit for bit.
            assert_eq!(post_guarantees.model, pre_guarantees.model);
            let sorted_servers = |g: &cloudmirror::GuaranteeReport| {
                let mut v = g.vm_server.clone();
                v.sort_by_key(|n| n.0);
                v
            };
            assert_eq!(
                sorted_servers(&post_guarantees),
                sorted_servers(&pre_guarantees),
                "{label}: repair returns the lost VMs to the same servers"
            );
            let tier_sizes = |g: &cloudmirror::GuaranteeReport| {
                let mut sizes = vec![0u32; damage.pre_sizes.len()];
                for t in &g.vm_tier {
                    sizes[t.index()] += 1;
                }
                sizes
            };
            assert_eq!(
                tier_sizes(&post_guarantees),
                tier_sizes(&pre_guarantees),
                "{label}: every tier regrows to its admitted size"
            );
            let sorted_kbps = |g: &cloudmirror::GuaranteeReport| {
                let mut v: Vec<f64> = g.pairs.iter().map(|p| p.kbps).collect();
                v.sort_by(f64::total_cmp);
                v
            };
            assert_eq!(
                sorted_kbps(&post_guarantees),
                sorted_kbps(&pre_guarantees),
                "{label}: per-pair guarantees restore bit-identically"
            );
        } else {
            assert_eq!(
                post_guarantees, pre_guarantees,
                "{label}: guarantee verdicts must restore bit-identically"
            );
            assert_eq!(
                post_traffic.total_rate_kbps, pre_traffic.total_rate_kbps,
                "{label}: measured throughput restores exactly"
            );
        }

        cluster.depart(h.id()).unwrap();
        assert_eq!(cluster.topology().slots_in_use(), 0);
        cluster.check_invariants().unwrap();
    }
}
