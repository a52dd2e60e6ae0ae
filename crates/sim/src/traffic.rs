//! The time-stepped datacenter traffic workload: lifecycle churn with
//! periodic cluster-wide traffic solves.
//!
//! [`run_churn_traffic`] watches the churn loop of [`crate::lifecycle`]:
//! every `solve_every` arrivals it freezes time and steps the cluster's
//! **incremental traffic engine**
//! ([`cm_cluster::Cluster::traffic_step_as`]): tenants whose
//! placement changed since the previous step re-expand their active TAG
//! edges into bundled flows, each bundle is routed over its physical
//! uplink/downlink path (one fluid link per uplink direction, the tree
//! placement reserves on), and one shared weighted max-min network is
//! solved. Each step records its flow counts, its deterministic work
//! counts (components re-solved, tenants and links re-scored),
//! guarantee-compliance violations and link utilization; the engine's
//! phase times are left to the standalone `benchmark/` package.
//! `bench_admission` writes the result as the `traffic` section of
//! `BENCH_placement.json`, comparing the paper's TAG-patched enforcement
//! against the plain hose-model baseline on identical placements.

use crate::lifecycle::{churn_loop, ChurnConfig, ChurnObserver, ChurnReport};
use cm_cluster::{Cluster, GuaranteeModel};
use cm_core::placement::Placer;
use cm_workloads::TenantPool;

/// Configuration of one traffic-churn run.
#[derive(Debug, Clone)]
pub struct TrafficChurnConfig {
    /// The underlying lifecycle churn (datacenter, tenant count, scale
    /// cycles, migrations).
    pub churn: ChurnConfig,
    /// Solve the datacenter network after every this-many arrivals (the
    /// last arrival always solves, so every run has a final snapshot).
    pub solve_every: usize,
    /// Guarantee model enforcing the floors ([`GuaranteeModel::Tag`] = the
    /// paper's patched ElasticSwitch, `Hose` = the §2.2 baseline).
    pub model: GuaranteeModel,
}

impl TrafficChurnConfig {
    /// The default scenario: paper datacenter churn with a solve every 25
    /// arrivals under the given model.
    pub fn paper_default(model: GuaranteeModel) -> Self {
        TrafficChurnConfig {
            churn: ChurnConfig::paper_default(),
            solve_every: 25,
            model,
        }
    }
}

/// One traffic snapshot taken mid-churn.
#[derive(Debug, Clone)]
pub struct TrafficStep {
    /// Arrival index the snapshot was taken after.
    pub arrival: usize,
    /// Live tenants at the snapshot.
    pub live_tenants: usize,
    /// VM-pair flows that traversed the network.
    pub cross_flows: usize,
    /// VM-pair flows absorbed by colocation.
    pub colocated_flows: usize,
    /// Pairs whose achieved rate fell short of the TAG intent.
    pub violations: usize,
    /// Tenants with at least one violated pair.
    pub violating_tenants: usize,
    /// Whether the allocation was work-conserving.
    pub work_conserving: bool,
    /// Σ achieved cross-network rate (kbps).
    pub total_rate_kbps: f64,
    /// Largest directional-link utilization.
    pub max_link_utilization: f64,
    /// Connected components re-solved this step (churn-touched).
    pub components_dirty: usize,
    /// Connected components in the flow/link graph at this step.
    pub components_total: usize,
    /// Tenant summaries re-scored this step (deterministic work count).
    pub tenants_rescored: usize,
    /// Fluid links whose usage was recomputed this step (deterministic
    /// work count).
    pub links_rescored: usize,
}

/// Everything one traffic-churn run produces.
#[derive(Debug, Clone)]
pub struct TrafficChurnReport {
    /// Guarantee model the floors were enforced under.
    pub model: GuaranteeModel,
    /// The underlying lifecycle-churn outcome (placer name, op counts).
    pub churn: ChurnReport,
    /// One entry per traffic solve, in arrival order.
    pub steps: Vec<TrafficStep>,
}

impl TrafficChurnReport {
    /// Largest cross-network flow count any step solved.
    pub fn flows_max(&self) -> usize {
        self.steps.iter().map(|s| s.cross_flows).max().unwrap_or(0)
    }

    /// Mean cross-network flow count per step.
    pub fn flows_mean(&self) -> f64 {
        self.count_mean(|s| s.cross_flows)
    }

    /// Mean over the steps of a per-step count (0 for a run with no step).
    fn count_mean(&self, count: impl Fn(&TrafficStep) -> usize) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(count).sum::<usize>() as f64 / self.steps.len() as f64
    }

    /// Mean churn-dirty component count per solve step.
    pub fn components_dirty_mean(&self) -> f64 {
        self.count_mean(|s| s.components_dirty)
    }

    /// Mean tenant summaries re-scored per solve step.
    pub fn tenants_rescored_mean(&self) -> f64 {
        self.count_mean(|s| s.tenants_rescored)
    }

    /// Mean links whose usage was recomputed per solve step.
    pub fn links_rescored_mean(&self) -> f64 {
        self.count_mean(|s| s.links_rescored)
    }

    /// Component count of the final snapshot's flow/link graph.
    pub fn components_total_last(&self) -> usize {
        self.steps.last().map_or(0, |s| s.components_total)
    }

    /// Σ violations over all steps.
    pub fn violations_total(&self) -> usize {
        self.steps.iter().map(|s| s.violations).sum()
    }

    /// Steps whose allocation was work-conserving.
    pub fn work_conserving_steps(&self) -> usize {
        self.steps.iter().filter(|s| s.work_conserving).count()
    }
}

/// The churn observer that takes the snapshots.
struct TrafficStepper<'a> {
    cfg: &'a TrafficChurnConfig,
    steps: Vec<TrafficStep>,
}

impl<P: Placer> ChurnObserver<P> for TrafficStepper<'_> {
    fn after_arrival(&mut self, arrival: usize, cluster: &Cluster<P>) {
        let every = self.cfg.solve_every.max(1);
        let last = self.cfg.churn.tenants.saturating_sub(1);
        if !(arrival + 1).is_multiple_of(every) && arrival != last {
            return;
        }
        let r = cluster.traffic_step_as(self.cfg.model);
        self.steps.push(TrafficStep {
            arrival,
            live_tenants: cluster.tenant_count(),
            cross_flows: r.cross_flows,
            colocated_flows: r.colocated_flows,
            violations: r.violations,
            violating_tenants: r.violating_tenants(),
            work_conserving: r.work_conserving,
            total_rate_kbps: r.total_rate_kbps,
            max_link_utilization: r.max_link_utilization(),
            components_dirty: r.components_dirty,
            components_total: r.components_total,
            tenants_rescored: r.tenants_rescored,
            links_rescored: r.links_rescored,
        });
    }
}

/// Run lifecycle churn with periodic datacenter traffic solves (see the
/// module docs). The churn decision stream is bit-identical to
/// [`crate::lifecycle::run_churn`] with the same [`ChurnConfig`] — the
/// traffic engine only reads the cluster.
pub fn run_churn_traffic<P: Placer>(
    cfg: &TrafficChurnConfig,
    pool: &TenantPool,
    placer: P,
) -> TrafficChurnReport {
    let mut stepper = TrafficStepper {
        cfg,
        steps: Vec::new(),
    };
    let churn = churn_loop(&cfg.churn, pool, placer, &mut stepper);
    TrafficChurnReport {
        model: cfg.model,
        churn,
        steps: stepper.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::placement::{CmConfig, CmPlacer};
    use cm_topology::{mbps, TreeSpec};
    use cm_workloads::mixed_pool;

    fn quick_cfg(model: GuaranteeModel) -> TrafficChurnConfig {
        TrafficChurnConfig {
            churn: ChurnConfig {
                seed: 5,
                spec: TreeSpec::small(2, 4, 8, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]),
                bmax_kbps: mbps(100.0),
                tenants: 40,
                target_live: 10,
                scale_cycles: 1,
                migrate_every: 10,
            },
            solve_every: 10,
            model,
        }
    }

    #[test]
    fn traffic_steps_snapshot_the_churn() {
        let pool = mixed_pool(3);
        let r = run_churn_traffic(
            &quick_cfg(GuaranteeModel::Tag),
            &pool,
            CmPlacer::new(CmConfig::cm()),
        );
        // 40 arrivals, solve every 10 → steps at arrivals 9/19/29/39.
        assert_eq!(r.steps.len(), 4);
        assert_eq!(r.steps.last().unwrap().arrival, 39);
        assert!(r.steps.iter().all(|s| s.live_tenants > 0));
        assert!(r.flows_max() > 0);
        // Every step's allocation must be work-conserving, and Tag-model
        // floors sized by admission meet every intent.
        assert_eq!(r.work_conserving_steps(), r.steps.len());
        assert_eq!(r.violations_total(), 0);
        // The observer does not perturb the churn decisions.
        let plain = crate::lifecycle::run_churn(
            &quick_cfg(GuaranteeModel::Tag).churn,
            &pool,
            CmPlacer::new(CmConfig::cm()),
        );
        assert_eq!(plain.admitted, r.churn.admitted);
        assert_eq!(plain.scale_rejected, r.churn.scale_rejected);
        assert_eq!(plain.departs, r.churn.departs);
    }

    #[test]
    fn hose_model_reports_the_same_flows() {
        let pool = mixed_pool(3);
        let tag = run_churn_traffic(
            &quick_cfg(GuaranteeModel::Tag),
            &pool,
            CmPlacer::new(CmConfig::cm()),
        );
        let hose = run_churn_traffic(
            &quick_cfg(GuaranteeModel::Hose),
            &pool,
            CmPlacer::new(CmConfig::cm()),
        );
        // Identical churn → identical pair populations; only the floors
        // (and hence possibly the achieved split) differ.
        assert_eq!(tag.steps.len(), hose.steps.len());
        for (a, b) in tag.steps.iter().zip(&hose.steps) {
            assert_eq!(a.cross_flows, b.cross_flows);
            assert_eq!(a.colocated_flows, b.colocated_flows);
        }
    }
}
