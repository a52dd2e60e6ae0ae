//! Fault injection & recovery mid-churn: worst-case survivability as a
//! **measured** quantity instead of a placement-time promise.
//!
//! [`run_churn_faults`] watches the churn loop of [`crate::lifecycle`]:
//! before every `fault_every`-th arrival it fails a fault domain, kills a
//! single server, or degrades a link (targets drawn from the loop's own
//! RNG), and repairs it a few arrivals later.
//!
//! Every domain kill is scored against the paper's Eq. 7 bound: a
//! tier of `n` VMs placed under `rwcs` worst-case survivability may lose at
//! most `wcs_cap(n, rwcs) = max(1, ⌊n·(1−rwcs)⌋)` VMs to any single fault
//! domain, so its *measured* surviving fraction stays at or above
//! `wcs_floor(n, rwcs)`. CM+HA (with `laa_level` at the killed level)
//! enforces the cap at admission and must record **zero** violations; plain
//! CM never enforced it and is judged against the same number — the gap is
//! the survivability the paper's §4.5 buys.
//!
//! During each degraded window the datacenter-wide traffic solve keeps
//! running, accumulating **violation-seconds** (one arrival ≈ one second)
//! — the throughput side of the same story: evacuated reservations shrink
//! to what survived, so surviving guarantees stay enforceable even while
//! the dead links are measured at zero capacity.

use crate::lifecycle::{churn_loop, ChurnConfig, ChurnObserver, ChurnReport};
use cm_cluster::{Cluster, Fault, TenantId};
use cm_core::placement::{wcs_cap, Placer};
use cm_workloads::TenantPool;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;

/// Configuration of one fault-injection churn run.
#[derive(Debug, Clone)]
pub struct FaultChurnConfig {
    /// The underlying churn workload (spec, pool scaling, op mix).
    pub churn: ChurnConfig,
    /// Inject one fault every this many arrivals (0 = never).
    pub fault_every: usize,
    /// Repair an outstanding fault this many arrivals after injection.
    /// Keep it below `fault_every` so windows do not overlap.
    pub repair_after: usize,
    /// Tree level of the killed fault domains (1 = ToR).
    pub domain_level: u8,
    /// The survivability bound every damaged tenant is judged against.
    /// For CM+HA this is the admitted `rwcs`; plain CM is judged against
    /// the same number it never enforced.
    pub rwcs: f64,
}

impl FaultChurnConfig {
    /// A small deterministic scenario for benches and tests: ToR-level
    /// kills every 8 arrivals, repaired 3 arrivals later, judged at the
    /// paper's default `rwcs = 0.25`.
    pub fn quick(churn: ChurnConfig) -> Self {
        FaultChurnConfig {
            churn,
            fault_every: 8,
            repair_after: 3,
            domain_level: 1,
            rwcs: 0.25,
        }
    }
}

/// Everything one fault-injection churn run produces.
#[derive(Debug, Clone)]
pub struct FaultChurnReport {
    /// The underlying lifecycle-churn outcome (placer name, op counts).
    pub churn: ChurnReport,
    /// Fault domains killed.
    pub domain_kills: usize,
    /// Single-server kills.
    pub server_kills: usize,
    /// Link degradations (no VM loss).
    pub degrades: usize,
    /// VMs lost to failed servers across all faults.
    pub vms_lost: u64,
    /// Tenants that lost at least one VM.
    pub tenants_damaged: usize,
    /// Damaged tenants whose remainder had to be evicted wholesale.
    pub tenants_evicted: usize,
    /// Per-tier Eq. 7 judgments made on domain kills.
    pub survivability_checks: usize,
    /// Judgments where a tier of `n` VMs lost more than
    /// `wcs_cap(n, rwcs)` of them. Zero for CM+HA with `laa_level` at the
    /// killed level.
    pub survivability_violations: usize,
    /// Worst measured surviving fraction across all judged tiers (1.0
    /// when nothing was judged).
    pub worst_survival: f64,
    /// Repair rounds executed (one per fault).
    pub repairs: usize,
    /// Tenant repairs that failed (capacity gone) across all rounds.
    pub repair_failures: usize,
    /// Arrivals that ran inside a degraded window.
    pub degraded_arrivals: usize,
    /// Σ traffic-guarantee violations over degraded arrivals, at one
    /// arrival per second.
    pub violation_seconds: f64,
}

/// Judge one fault report's damage against Eq. 7 and fold it into the run
/// report. Only tenants that were healthy before this fault are judged —
/// overlapping damage has no single admitted bound to compare against.
fn judge_domain_kill(
    report: &cm_cluster::FaultReport,
    already_damaged: &BTreeSet<TenantId>,
    rwcs: f64,
    out: &mut FaultChurnReport,
) {
    for d in &report.tenants {
        if already_damaged.contains(&d.tenant) {
            continue;
        }
        for (t, &pre) in d.pre_sizes.iter().enumerate() {
            if pre == 0 || d.lost[t] == 0 {
                continue;
            }
            let lost = d.lost[t].min(pre);
            out.survivability_checks += 1;
            out.worst_survival = out.worst_survival.min((pre - lost) as f64 / pre as f64);
            if lost > wcs_cap(pre, rwcs) {
                out.survivability_violations += 1;
            }
        }
    }
}

/// The churn observer that weaves the fault schedule through the loop.
struct FaultInjector<'a> {
    cfg: &'a FaultChurnConfig,
    /// Faults not yet repaired, oldest first, with their injection arrival.
    outstanding: Vec<(Fault, usize)>,
    /// Everything but `churn`, which the loop returns.
    report: FaultChurnReport,
}

impl FaultInjector<'_> {
    fn repair<P: Placer>(&mut self, cluster: &mut Cluster<P>, fault: Fault) {
        let r = cluster.repair(fault).expect("repairing an injected fault");
        self.report.repairs += 1;
        self.report.repair_failures += r.degraded.len();
    }
}

impl<P: Placer> ChurnObserver<P> for FaultInjector<'_> {
    fn before_arrival(&mut self, arrival: usize, cluster: &mut Cluster<P>, rng: &mut StdRng) {
        // Repair every fault whose window has elapsed.
        while let Some(&(fault, at)) = self.outstanding.first() {
            if arrival < at + self.cfg.repair_after {
                break;
            }
            self.outstanding.remove(0);
            self.repair(cluster, fault);
        }
        // `fault_every == 0` divides no `arrival + 1 ≥ 1`: never.
        if !(arrival + 1).is_multiple_of(self.cfg.fault_every) {
            return;
        }

        // Inject the next scheduled fault: domain → server → link, in turn.
        let report = &mut self.report;
        let already: BTreeSet<TenantId> = cluster.faulted_tenants().collect();
        let topo = cluster.topology();
        let domains = topo.nodes_at_level(self.cfg.domain_level as usize);
        let fault = match (report.domain_kills + report.server_kills + report.degrades) % 3 {
            0 => Fault::Domain(domains[rng.random_range(0..domains.len())]),
            1 => {
                let servers = topo.servers();
                Fault::Server(servers[rng.random_range(0..servers.len())])
            }
            _ => Fault::DegradeLink {
                node: domains[rng.random_range(0..domains.len())],
                fraction: 0.5,
            },
        };
        let fr = cluster.inject_fault(fault).expect("valid fault target");
        match fault {
            Fault::Domain(_) => {
                report.domain_kills += 1;
                judge_domain_kill(&fr, &already, self.cfg.rwcs, report);
            }
            Fault::Server(_) => report.server_kills += 1,
            Fault::DegradeLink { .. } => report.degrades += 1,
        }
        report.vms_lost += fr.lost_vms;
        report.tenants_damaged += fr.tenants.iter().filter(|d| d.lost_vms > 0).count();
        report.tenants_evicted += fr.tenants.iter().filter(|d| d.evicted).count();
        self.outstanding.push((fault, arrival));
    }

    /// Degraded window: the traffic solve measures the dead links.
    fn after_arrival(&mut self, _arrival: usize, cluster: &Cluster<P>) {
        if !self.outstanding.is_empty() {
            self.report.degraded_arrivals += 1;
            self.report.violation_seconds += cluster.traffic_step().violations as f64;
        }
    }

    /// Repair everything still outstanding, so the drain ends pristine.
    fn before_drain(&mut self, cluster: &mut Cluster<P>) {
        for (fault, _) in std::mem::take(&mut self.outstanding) {
            self.repair(cluster, fault);
        }
    }
}

/// Run the churn workload with a deterministic fail → degrade → repair
/// schedule woven through it (see the module docs). Faults rotate
/// domain-kill → server-kill → link-degrade; every fault is repaired
/// `repair_after` arrivals later and all of them before the final drain,
/// so the datacenter ends pristine.
pub fn run_churn_faults<P: Placer>(
    cfg: &FaultChurnConfig,
    pool: &TenantPool,
    placer: P,
) -> FaultChurnReport {
    let mut injector = FaultInjector {
        cfg,
        outstanding: Vec::new(),
        report: FaultChurnReport {
            churn: ChurnReport::default(),
            domain_kills: 0,
            server_kills: 0,
            degrades: 0,
            vms_lost: 0,
            tenants_damaged: 0,
            tenants_evicted: 0,
            survivability_checks: 0,
            survivability_violations: 0,
            worst_survival: 1.0,
            repairs: 0,
            repair_failures: 0,
            degraded_arrivals: 0,
            violation_seconds: 0.0,
        },
    };
    let churn = churn_loop(&cfg.churn, pool, placer, &mut injector);
    FaultChurnReport {
        churn,
        ..injector.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::placement::{CmConfig, CmPlacer, HaPolicy};
    use cm_topology::{mbps, TreeSpec};
    use cm_workloads::mixed_pool;

    fn quick_cfg() -> FaultChurnConfig {
        FaultChurnConfig::quick(ChurnConfig {
            seed: 11,
            spec: TreeSpec::small(2, 4, 8, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]),
            bmax_kbps: mbps(100.0),
            tenants: 80,
            target_live: 12,
            scale_cycles: 1,
            migrate_every: 0,
        })
    }

    /// CM+HA with `laa_level` at the killed level never violates its
    /// admitted Eq. 7 bound under domain kills; plain CM — judged against
    /// the same `rwcs` it never enforced — does.
    #[test]
    fn domain_kills_separate_cm_from_cm_ha() {
        let pool = mixed_pool(3);
        let cfg = quick_cfg();
        let ha = CmConfig {
            ha: HaPolicy::Guaranteed {
                rwcs: cfg.rwcs,
                laa_level: cfg.domain_level,
            },
            ..CmConfig::default()
        };
        let r_ha = run_churn_faults(&cfg, &pool, CmPlacer::new(ha));
        let r_cm = run_churn_faults(&cfg, &pool, CmPlacer::new(CmConfig::cm()));

        assert!(r_ha.domain_kills > 0 && r_cm.domain_kills > 0);
        assert!(r_cm.survivability_checks > 0, "kills must hit tenants");
        assert_eq!(
            r_ha.survivability_violations, 0,
            "CM+HA must hold its admitted Eq. 7 bound (worst survival {})",
            r_ha.worst_survival
        );
        assert!(
            r_cm.survivability_violations > 0,
            "plain CM concentrates tiers and must break the same bound"
        );
        // Every fault was repaired; both runs drained pristine (checked by
        // the driver's debug asserts).
        assert_eq!(
            r_ha.repairs,
            r_ha.domain_kills + r_ha.server_kills + r_ha.degrades
        );
    }

    /// The schedule is deterministic: same seed, same faults, same damage.
    #[test]
    fn fault_schedule_is_deterministic() {
        let pool = mixed_pool(3);
        let cfg = quick_cfg();
        let a = run_churn_faults(&cfg, &pool, CmPlacer::new(CmConfig::cm()));
        let b = run_churn_faults(&cfg, &pool, CmPlacer::new(CmConfig::cm()));
        assert_eq!(a.churn.admitted, b.churn.admitted);
        assert_eq!(a.vms_lost, b.vms_lost);
        assert_eq!(a.survivability_checks, b.survivability_checks);
        assert_eq!(a.survivability_violations, b.survivability_violations);
        assert_eq!(a.violation_seconds, b.violation_seconds);
    }
}
