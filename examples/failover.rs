//! Fault injection & recovery (§4.5): kill the worst ToR under identical
//! CM and CM+HA tenants and *measure* what survives.
//!
//! CM+HA admits under the Eq. 7 cap — no fault domain at the availability
//! level may hold more than `max(1, ⌊n·(1−rwcs)⌋)` of a tier's `n` VMs —
//! so a single ToR kill provably leaves every tier at or above its
//! admitted surviving fraction, and the fluid traffic solve confirms the
//! survivors' guarantees still hold on the degraded tree. Plain CM packs
//! for bandwidth alone and loses whole tiers. Repairing the rack re-places
//! exactly the lost VMs and restores the guarantees.
//!
//! ```text
//! cargo run --release --example failover
//! ```

use cloudmirror::core::placement::{wcs_cap, wcs_floor};
use cloudmirror::topology::NodeId;
use cloudmirror::{
    mbps, Cluster, CmConfig, CmError, CmPlacer, Fault, HaPolicy, TagBuilder, TreeSpec,
};

const RWCS: f64 = 0.5;

/// The ToR holding the most of the tenant's VMs — the worst single rack
/// to lose.
fn worst_tor(cluster: &Cluster<CmPlacer>, id: cloudmirror::TenantId) -> NodeId {
    let topo = cluster.topology();
    let mut per_tor: std::collections::HashMap<NodeId, u32> = std::collections::HashMap::new();
    for (server, counts) in cluster.placement_of(id).expect("live") {
        let tor = topo
            .path_to_root(server)
            .find(|&n| topo.level(n) == 1)
            .expect("servers sit under a ToR");
        *per_tor.entry(tor).or_default() += counts.iter().sum::<u32>();
    }
    per_tor
        .into_iter()
        .max_by_key(|&(n, c)| (c, std::cmp::Reverse(n.0)))
        .expect("tenant has VMs")
        .0
}

fn main() -> Result<(), CmError> {
    let spec = TreeSpec::small(2, 2, 4, 4, [mbps(1_000.0), mbps(2_000.0), mbps(4_000.0)]);
    let ha = CmConfig {
        ha: HaPolicy::Guaranteed {
            rwcs: RWCS,
            laa_level: 1, // availability domains = ToRs
        },
        ..CmConfig::default()
    };

    println!("single ToR kill, identical web/db tenants, rwcs = {RWCS}:\n");
    for (cfg, label) in [(CmConfig::cm(), "CM"), (ha, "CM+HA")] {
        let mut cluster = Cluster::new(&spec, CmPlacer::new(cfg));
        let mut b = TagBuilder::new("webdb");
        let w = b.tier("web", 8);
        let d = b.tier("db", 4);
        b.sym_edge(w, d, mbps(20.0)).expect("valid edge");
        b.self_loop(d, mbps(10.0)).expect("valid edge");
        let tenant = cluster.admit(b.build().expect("valid TAG"))?;

        let healthy = cluster.traffic_report();
        let tor = worst_tor(&cluster, tenant.id());
        let report = cluster.inject_fault(Fault::Domain(tor))?;
        let damage = &report.tenants[0];

        println!("[{label}] killed {tor:?}: {} VMs lost", report.lost_vms);
        for (t, &pre) in damage.pre_sizes.iter().enumerate() {
            if pre == 0 {
                continue;
            }
            let lost = damage.lost[t].min(pre);
            println!(
                "  tier {t}: {}/{pre} survive ({:.0}%) vs admitted bound {:.0}%{}",
                pre - lost,
                100.0 * (pre - lost) as f64 / pre as f64,
                100.0 * wcs_floor(pre, RWCS),
                if lost > wcs_cap(pre, RWCS) {
                    "  <- VIOLATED"
                } else {
                    ""
                },
            );
        }
        let degraded = cluster.traffic_report();
        println!(
            "  traffic: {:.0} -> {:.0} Mbps, {} guarantee violations among survivors",
            healthy.total_rate_kbps / 1000.0,
            degraded.total_rate_kbps / 1000.0,
            degraded.violations,
        );

        let repair = cluster.repair(Fault::Domain(tor))?;
        let restored = cluster.traffic_report();
        println!(
            "  repaired: {} tenants re-placed, traffic back to {:.0} Mbps, {} violations\n",
            repair.repaired.len(),
            restored.total_rate_kbps / 1000.0,
            restored.violations,
        );

        cluster.depart(tenant.id())?;
        cluster.check_invariants().expect("ledger exact");
    }

    println!(
        "CM+HA pays the Eq. 7 spreading constraint at admission and keeps at\n\
         least its admitted rwcs fraction of every tier through the worst\n\
         single-rack loss; plain CM colocates for bandwidth and loses whole\n\
         tiers. Repair re-places exactly the lost VMs on the restored rack."
    );
    Ok(())
}
