//! The autoscaling-churn workload: tenants **admit**, **scale out** under
//! load, **scale back in**, occasionally **migrate**, and **depart** — the
//! tenant-lifecycle workload class the paper's §6 sketches ("large-scale
//! variations in load will trigger tenants to scale up or down"), which no
//! pure-admission sweep exercises.
//!
//! There is one churn loop: per arrival it departs the oldest tenant once
//! the live target is hit, admits one TAG, runs the scale cycles and the
//! periodic migration; after the last arrival it drains every tenant and
//! sweeps the ledger. It is seeded and fully deterministic, and reports
//! per-operation-class latency percentiles plus outcome counts. The churn
//! drivers differ only in what watches that loop through the four
//! `ChurnObserver` hooks: [`run_churn`] watches nothing,
//! [`crate::traffic::run_churn_traffic`] steps the traffic engine after
//! arrivals, and [`crate::faults::run_churn_faults`] injects and repairs
//! faults before them. `bench_admission` records the three as the
//! `lifecycle_churn`, `traffic` and `fault_recovery` sections of
//! `BENCH_placement.json`.

use crate::events::scale_pool;
use crate::metrics::OpLatencies;
use cm_cluster::{Cluster, TenantId};
use cm_core::model::TierId;
use cm_core::placement::Placer;
use cm_topology::{Kbps, Topology, TreeSpec};
use cm_workloads::TenantPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Configuration of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// RNG seed (tenant choice, op mix, scale deltas).
    pub seed: u64,
    /// The datacenter.
    pub spec: TreeSpec,
    /// Pool scale target (kbps); `0` keeps relative units.
    pub bmax_kbps: Kbps,
    /// Total admissions attempted.
    pub tenants: usize,
    /// Live tenants above which the oldest departs before a new admission
    /// (steady-state churn instead of one-way fill).
    pub target_live: usize,
    /// Scale-out/scale-in cycles attempted after each admission.
    pub scale_cycles: usize,
    /// Migrate one random tenant every this many admissions (0 = never).
    pub migrate_every: usize,
}

impl ChurnConfig {
    /// The default scenario: paper datacenter, bing-like sizing, 90-ish
    /// live tenants with two scale cycles per arrival.
    pub fn paper_default() -> Self {
        ChurnConfig {
            seed: 1,
            spec: TreeSpec::paper_datacenter(),
            bmax_kbps: 800_000,
            tenants: 400,
            target_live: 90,
            scale_cycles: 2,
            migrate_every: 16,
        }
    }
}

/// Everything one churn run produces.
#[derive(Debug, Clone, Default)]
pub struct ChurnReport {
    /// Placer display name.
    pub placer: &'static str,
    /// Admissions attempted.
    pub admits_attempted: usize,
    /// Admissions accepted.
    pub admitted: usize,
    /// Scale operations attempted (out + in).
    pub scale_ops: usize,
    /// Scale operations the placer rejected (deployment left untouched).
    pub scale_rejected: usize,
    /// Migrations attempted.
    pub migrates: usize,
    /// Departures executed (steady-state plus final drain).
    pub departs: usize,
    /// Admission latencies.
    pub admit: OpLatencies,
    /// Scale-operation latencies.
    pub scale: OpLatencies,
    /// Departure latencies.
    pub depart: OpLatencies,
    /// Wall-clock seconds of the whole run.
    pub wall_secs: f64,
}

impl ChurnReport {
    /// Lifecycle operations per wall-clock second (admissions + scales +
    /// migrations + departures).
    pub fn ops_per_sec(&self) -> f64 {
        let ops = self.admits_attempted + self.scale_ops + self.migrates + self.departs;
        ops as f64 / self.wall_secs
    }
}

/// Internal (scalable) tiers of a tenant's current TAG.
fn scalable_tiers<P: Placer>(cluster: &Cluster<P>, id: TenantId) -> Vec<TierId> {
    cluster
        .tag_of(id)
        .map(|tag| tag.internal_tiers().collect())
        .unwrap_or_default()
}

/// What watches the churn loop; every hook defaults to a no-op. An
/// observer changes the decision stream only by mutating the cluster or
/// drawing from the loop's RNG.
pub(crate) trait ChurnObserver<P: Placer> {
    /// Once, on the freshly built (still empty) cluster.
    fn start(&mut self, _cluster: &mut Cluster<P>) {}
    /// Before arrival `arrival`'s lifecycle slice, with the loop's RNG.
    fn before_arrival(&mut self, _arrival: usize, _cluster: &mut Cluster<P>, _rng: &mut StdRng) {}
    /// After arrival `arrival`'s full lifecycle slice.
    fn after_arrival(&mut self, _arrival: usize, _cluster: &Cluster<P>) {}
    /// After the last arrival, before the final drain.
    fn before_drain(&mut self, _cluster: &mut Cluster<P>) {}
}

impl<P: Placer> ChurnObserver<P> for () {}

/// Run the churn scenario unobserved (see the module docs). Deterministic
/// for a given configuration and pool: every decision comes from the
/// seeded RNG and the cluster's typed API.
pub fn run_churn<P: Placer>(cfg: &ChurnConfig, pool: &TenantPool, placer: P) -> ChurnReport {
    churn_loop(cfg, pool, placer, &mut ())
}

/// The churn loop (see the module docs), watched by `observer`.
pub(crate) fn churn_loop<P: Placer>(
    cfg: &ChurnConfig,
    pool: &TenantPool,
    placer: P,
    observer: &mut impl ChurnObserver<P>,
) -> ChurnReport {
    let pool = scale_pool(pool, cfg.bmax_kbps);
    let mut cluster = Cluster::adopt(Topology::build(&cfg.spec), placer);
    observer.start(&mut cluster);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = ChurnReport {
        placer: cluster.placer().name(),
        ..ChurnReport::default()
    };
    let t_run = Instant::now();
    let mut live: Vec<TenantId> = Vec::new();

    for arrival in 0..cfg.tenants {
        observer.before_arrival(arrival, &mut cluster, &mut rng);

        // Steady state: the oldest tenant departs once the target is hit.
        if live.len() >= cfg.target_live.max(1) {
            let id = live.remove(0);
            let t0 = Instant::now();
            cluster.depart(id).expect("live tenant departs");
            report.depart.push(t0.elapsed().as_secs_f64());
            report.departs += 1;
        }

        // Admit.
        let tag = &pool.tenants()[rng.random_range(0..pool.len())];
        report.admits_attempted += 1;
        let t0 = Instant::now();
        let outcome = cluster.admit(tag);
        report.admit.push(t0.elapsed().as_secs_f64());
        if let Ok(handle) = outcome {
            report.admitted += 1;
            live.push(handle.id());
        }

        // Scale out under load, then back in: ±delta on a random internal
        // tier of a random live tenant, per cycle.
        for _ in 0..cfg.scale_cycles {
            if live.is_empty() {
                break;
            }
            let id = live[rng.random_range(0..live.len())];
            let tiers = scalable_tiers(&cluster, id);
            if tiers.is_empty() {
                continue;
            }
            let tier = tiers[rng.random_range(0..tiers.len())];
            let delta = rng.random_range(1..5u32) as i64;
            report.scale_ops += 1;
            let t0 = Instant::now();
            let grown = cluster.scale_tier(id, tier, delta).is_ok();
            report.scale.push(t0.elapsed().as_secs_f64());
            if !grown {
                report.scale_rejected += 1;
                continue;
            }
            report.scale_ops += 1;
            let t0 = Instant::now();
            let shrunk = cluster.scale_tier(id, tier, -delta).is_ok();
            report.scale.push(t0.elapsed().as_secs_f64());
            if !shrunk {
                report.scale_rejected += 1;
            }
        }

        // Periodic defragmentation.
        if cfg.migrate_every > 0 && (arrival + 1) % cfg.migrate_every == 0 && !live.is_empty() {
            let id = live[rng.random_range(0..live.len())];
            report.migrates += 1;
            let _ = cluster.migrate(id);
        }

        observer.after_arrival(arrival, &cluster);
    }

    // Final drain: every remaining tenant departs; the datacenter must end
    // pristine (debug-checked like the admission loop).
    observer.before_drain(&mut cluster);
    for id in live {
        let t0 = Instant::now();
        cluster.depart(id).expect("live tenant departs");
        report.depart.push(t0.elapsed().as_secs_f64());
        report.departs += 1;
    }
    crate::debug_invariant_sweep(|| {
        cluster.check_invariants()?;
        let in_use = cluster.topology().slots_in_use();
        if in_use != 0 {
            return Err(format!("drained datacenter still holds {in_use} slots"));
        }
        Ok(())
    });

    report.wall_secs = t_run.elapsed().as_secs_f64();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::placement::{CmConfig, CmPlacer};
    use cm_topology::mbps;
    use cm_workloads::mixed_pool;

    fn quick_cfg() -> ChurnConfig {
        ChurnConfig {
            seed: 5,
            spec: TreeSpec::small(2, 4, 8, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]),
            bmax_kbps: mbps(100.0),
            tenants: 60,
            target_live: 12,
            scale_cycles: 2,
            migrate_every: 10,
        }
    }

    #[test]
    fn churn_balances_the_books() {
        let pool = mixed_pool(3);
        let r = run_churn(&quick_cfg(), &pool, CmPlacer::new(CmConfig::cm()));
        assert_eq!(r.admits_attempted, 60);
        assert!(r.admitted > 0);
        assert!(r.scale_ops > 0);
        assert!(r.migrates > 0);
        // Every admitted tenant departed (steady-state or final drain).
        assert_eq!(r.departs, r.admitted);
        assert!(r.admit.quantile_us(0.99).unwrap() >= 0.0);
        // The run's debug asserts verified the topology drained pristine.
    }

    #[test]
    fn churn_is_deterministic_in_decisions() {
        let pool = mixed_pool(3);
        let a = run_churn(&quick_cfg(), &pool, CmPlacer::new(CmConfig::cm()));
        let b = run_churn(&quick_cfg(), &pool, CmPlacer::new(CmConfig::cm()));
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.scale_ops, b.scale_ops);
        assert_eq!(a.scale_rejected, b.scale_rejected);
        assert_eq!(a.departs, b.departs);
    }

    #[test]
    fn churn_drives_baselines_through_the_fallback() {
        let pool = mixed_pool(4);
        let mut cfg = quick_cfg();
        cfg.tenants = 25;
        cfg.scale_cycles = 1;
        let r = run_churn(&cfg, &pool, cm_baselines::OvocPlacer::new());
        assert_eq!(r.placer, "OVOC");
        assert_eq!(r.departs, r.admitted);
    }
}
