//! The Poisson arrival/departure event loop (§5 "Simulation Setup").
//!
//! [`run_sim`] takes any [`Placer`](cm_core::placement::Placer) and drives
//! it through a [`cm_cluster::Cluster`]: arrivals are [`Cluster::admit`],
//! departures are [`Cluster::depart`], and the cluster owns the topology
//! and the tenant registry. `tests/cluster_decisions.rs` pins the
//! decisions of every placer with golden fingerprints.

use crate::metrics::{RejectionCounts, WcsAccumulator, WcsStats};
use cm_cluster::{Cluster, TenantId};
use cm_core::placement::{Placer, RejectReason};
use cm_topology::{Kbps, Topology, TreeSpec};
use cm_workloads::TenantPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed (arrival times, tenant sampling and dwell times).
    pub seed: u64,
    /// Number of tenant arrivals (the paper uses 10,000).
    pub arrivals: usize,
    /// Target datacenter load in `[0, 1]`:
    /// `load = T_s · λ · T_d / total_slots`.
    pub load: f64,
    /// Mean tenant dwell time `T_d` (exponentially distributed, fixed mean).
    pub td_mean: f64,
    /// Target `B_max`: the pool is scaled so its peak mean per-VM demand
    /// equals this (kbps). `0` keeps the pool's relative units.
    pub bmax_kbps: Kbps,
    /// The datacenter.
    pub spec: TreeSpec,
}

impl SimConfig {
    /// The paper's §5.1 default setup: the 2048-server datacenter,
    /// `B_max = 800 Mbps`, 90 % load, and a reduced arrival count suitable
    /// for quick runs (pass `--full`-style overrides for 10,000).
    pub fn paper_default() -> Self {
        SimConfig {
            seed: 1,
            arrivals: 2_000,
            load: 0.9,
            td_mean: 1_000.0,
            bmax_kbps: 800_000,
            spec: TreeSpec::paper_datacenter(),
        }
    }

    /// The arrival rate λ solved from the configured load exactly as in
    /// the paper: `λ = load · total_slots / (T_s · T_d)`, with `T_s` the
    /// mean tenant size of `pool`.
    pub(crate) fn arrival_rate(&self, pool: &TenantPool) -> f64 {
        let lambda = self.load * self.spec.total_slots() as f64 / (pool.mean_size() * self.td_mean);
        assert!(lambda > 0.0, "load must be positive");
        lambda
    }
}

/// `pool` scaled so its peak mean per-VM demand is `bmax_kbps`; `0` keeps
/// the pool's relative units.
pub(crate) fn scale_pool(pool: &TenantPool, bmax_kbps: Kbps) -> TenantPool {
    if bmax_kbps > 0 {
        pool.scaled_to_bmax(bmax_kbps)
    } else {
        pool.clone()
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Algorithm display name.
    pub algo: &'static str,
    /// Rejection accounting.
    pub rejections: RejectionCounts,
    /// WCS across deployed components at the server level, measured at
    /// admission (Figs. 11–12).
    pub wcs: WcsStats,
    /// Peak number of concurrently deployed tenants.
    pub peak_tenants: usize,
}

#[derive(PartialEq)]
struct Departure {
    time: f64,
    id: u64,
}

impl Eq for Departure {}

impl Ord for Departure {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("event times are finite")
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Departure {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Run one simulation: `arrivals` Poisson arrivals sampled uniformly from
/// `pool` (scaled to `B_max`) at the load-derived rate, exponential dwell
/// times, against a fresh topology and the given placer. Heterogeneous
/// placer sets go through `Box<dyn Placer>`.
pub fn run_sim<P: Placer>(cfg: &SimConfig, pool: &TenantPool, placer: P) -> SimResult {
    let pool = scale_pool(pool, cfg.bmax_kbps);
    let lambda = cfg.arrival_rate(&pool);
    let algo = placer.name();
    let mut cluster = Cluster::adopt(Topology::build(&cfg.spec), placer);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut counts = RejectionCounts::default();
    let mut wcs_acc = WcsAccumulator::default();
    let mut departures: BinaryHeap<Reverse<Departure>> = BinaryHeap::new();
    let mut live: std::collections::HashMap<u64, TenantId> = std::collections::HashMap::new();
    let mut peak = 0usize;
    let mut now = 0.0f64;

    for id in 0..cfg.arrivals as u64 {
        now += exp_sample(&mut rng, lambda);
        // Process departures due before this arrival.
        while let Some(Reverse(d)) = departures.peek() {
            if d.time > now {
                break;
            }
            let d = departures.pop().expect("peeked").0;
            if let Some(tid) = live.remove(&d.id) {
                cluster.depart(tid).expect("live tenants depart cleanly");
            }
        }
        let tag = &pool.tenants()[rng.random_range(0..pool.len())];
        let vms = tag.total_vms();
        let bw = tag.total_bandwidth_kbps() as u128;
        counts.arrivals += 1;
        counts.total_vms += vms;
        counts.total_bw_kbps += bw;
        match cluster.admit(tag) {
            Ok(handle) => {
                let deployed = cluster.deployed(handle.id()).expect("just admitted");
                wcs_acc.record(
                    &deployed.wcs_at_level(cluster.topology(), 0),
                    &deployed.tier_sizes(),
                );
                let dwell = exp_sample(&mut rng, 1.0 / cfg.td_mean);
                departures.push(Reverse(Departure {
                    time: now + dwell,
                    id,
                }));
                live.insert(id, handle.id());
                peak = peak.max(cluster.tenant_count());
            }
            Err(e) => {
                let reason = e
                    .reject_reason()
                    .expect("admission can only fail with a placement rejection");
                counts.rejected_tenants += 1;
                counts.rejected_vms += vms;
                counts.rejected_bw_kbps += bw;
                match reason {
                    RejectReason::InsufficientSlots => counts.rejected_for_slots += 1,
                    RejectReason::InsufficientBandwidth => counts.rejected_for_bandwidth += 1,
                }
            }
        }
    }
    // Drain remaining tenants so the topology ends clean (a cheap global
    // leak check in debug builds).
    cluster.release_all();
    crate::debug_invariant_sweep(|| {
        cluster.check_invariants()?;
        for l in 0..cluster.topology().num_levels() {
            let r = cluster.topology().reserved_at_level(l);
            if r != (0, 0) {
                return Err(format!("drained level {l} still reserves {r:?} kbps"));
            }
        }
        Ok(())
    });

    SimResult {
        algo,
        rejections: counts,
        wcs: wcs_acc.finish(),
        peak_tenants: peak,
    }
}

/// Exponential sample with the given rate via inverse CDF.
pub(crate) fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.random_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_baselines::OvocPlacer;
    use cm_core::placement::CmPlacer;
    use cm_topology::mbps;
    use cm_workloads::mixed_pool;

    fn small_cfg() -> SimConfig {
        SimConfig {
            seed: 3,
            arrivals: 150,
            load: 0.7,
            td_mean: 100.0,
            bmax_kbps: mbps(100.0),
            spec: TreeSpec::small(2, 4, 8, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]),
        }
    }

    #[test]
    fn sim_runs_and_balances_books() {
        let pool = mixed_pool(1);
        let r = run_sim(&small_cfg(), &pool, CmPlacer::default());
        assert_eq!(r.rejections.arrivals, 150);
        assert!(r.peak_tenants > 0);
        assert!(r.rejections.tenant_rate() <= 1.0);
        // The debug asserts inside run_sim verify the ledger drained clean.
    }

    #[test]
    fn sim_is_deterministic() {
        let pool = mixed_pool(1);
        let a = run_sim(&small_cfg(), &pool, CmPlacer::default());
        let b = run_sim(&small_cfg(), &pool, CmPlacer::default());
        assert_eq!(a.rejections, b.rejections);
        assert_eq!(a.wcs, b.wcs);
    }

    #[test]
    fn zero_load_rejects_nothing_small() {
        let pool = mixed_pool(2);
        let mut cfg = small_cfg();
        cfg.load = 0.05;
        cfg.bmax_kbps = mbps(10.0);
        let r = run_sim(&cfg, &pool, CmPlacer::default());
        assert_eq!(
            r.rejections.rejected_tenants, 0,
            "negligible load must be fully admitted"
        );
    }

    #[test]
    fn cm_rejects_no_more_bandwidth_than_ovoc() {
        // The paper's headline: CM admits more demand than OVOC.
        let pool = mixed_pool(3);
        let mut cfg = small_cfg();
        cfg.arrivals = 250;
        cfg.load = 0.9;
        cfg.bmax_kbps = mbps(400.0);
        let cm = run_sim(&cfg, &pool, CmPlacer::default());
        let ovoc = run_sim(&cfg, &pool, OvocPlacer::new());
        assert!(
            cm.rejections.bw_rate() <= ovoc.rejections.bw_rate() + 1e-9,
            "CM {} vs OVOC {}",
            cm.rejections.bw_rate(),
            ovoc.rejections.bw_rate()
        );
    }
}
