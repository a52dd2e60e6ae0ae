//! Measurement machinery: rejection accounting, WCS statistics, and model
//! repricing of placements (Table 1).

use cm_core::cut::CutModel;
use cm_topology::{Kbps, NodeId, Topology};
use std::collections::HashMap;

/// Rejection accounting over a simulation run (§5.1: "the ratios of
/// rejected tenants' #VMs and aggregate bandwidth relative to those of the
/// total tenant arrivals").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RejectionCounts {
    /// Total tenant arrivals.
    pub arrivals: usize,
    /// Rejected tenant count.
    pub rejected_tenants: usize,
    /// Rejections attributed to slots / to bandwidth.
    pub rejected_for_slots: usize,
    /// Rejections attributed to bandwidth.
    pub rejected_for_bandwidth: usize,
    /// Sum of VM counts over all arrivals.
    pub total_vms: u64,
    /// Sum of VM counts over rejected arrivals.
    pub rejected_vms: u64,
    /// Sum of tenant aggregate bandwidth over all arrivals (kbps).
    pub total_bw_kbps: u128,
    /// Sum over rejected arrivals (kbps).
    pub rejected_bw_kbps: u128,
}

impl RejectionCounts {
    /// Fraction of tenant requests rejected.
    pub fn tenant_rate(&self) -> f64 {
        ratio(self.rejected_tenants as f64, self.arrivals as f64)
    }

    /// Fraction of arriving VMs belonging to rejected tenants.
    pub fn vm_rate(&self) -> f64 {
        ratio(self.rejected_vms as f64, self.total_vms as f64)
    }

    /// Fraction of arriving bandwidth belonging to rejected tenants.
    pub fn bw_rate(&self) -> f64 {
        ratio(self.rejected_bw_kbps as f64, self.total_bw_kbps as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Aggregated worst-case-survivability statistics across deployed
/// components (tiers of size ≥ 2; singleton tiers cannot survive any
/// failure and are excluded, as are external components).
#[derive(Debug, Clone, PartialEq)]
pub struct WcsStats {
    /// Number of components measured.
    pub components: usize,
    /// Mean WCS.
    pub mean: f64,
    /// Minimum observed WCS (lower error bar of Figs. 11–12).
    pub min: f64,
    /// Maximum observed WCS.
    pub max: f64,
}

impl Default for WcsStats {
    fn default() -> Self {
        WcsStats {
            components: 0,
            mean: 0.0,
            min: f64::NAN,
            max: f64::NAN,
        }
    }
}

/// Incremental accumulator for [`WcsStats`].
#[derive(Debug, Clone, Default)]
pub struct WcsAccumulator {
    sum: f64,
    count: usize,
    min: Option<f64>,
    max: Option<f64>,
}

impl WcsAccumulator {
    /// Record the WCS values of one deployed tenant, given the per-tier
    /// values and tier sizes (singletons and empty tiers skipped).
    pub fn record(&mut self, wcs: &[Option<f64>], sizes: &[u32]) {
        for (w, &n) in wcs.iter().zip(sizes) {
            if n < 2 {
                continue;
            }
            if let Some(v) = w {
                self.sum += v;
                self.count += 1;
                self.min = Some(self.min.map_or(*v, |m| m.min(*v)));
                self.max = Some(self.max.map_or(*v, |m| m.max(*v)));
            }
        }
    }

    /// Finish into summary statistics.
    pub fn finish(&self) -> WcsStats {
        WcsStats {
            components: self.count,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            },
            min: self.min.unwrap_or(f64::NAN),
            max: self.max.unwrap_or(f64::NAN),
        }
    }
}

/// Per-tier WCS of a placement at one fault-domain level, recomputed from
/// per-server counts: `1 − max_A N^t_A / N^t` over the domains `A` at
/// `level` (0 = server). Matches
/// [`Deployed::wcs_at_level`](cm_core::placement::Deployed::wcs_at_level)
/// and exists so metrics can be derived from a recorded placement long
/// after the live deployment is gone. `None` for empty/external tiers.
pub fn wcs_from_placement(
    topo: &Topology,
    placement: &[(NodeId, Vec<u32>)],
    tier_sizes: &[u32],
    level: u8,
) -> Vec<Option<f64>> {
    let mut per_domain: HashMap<NodeId, Vec<u32>> = HashMap::new();
    for (server, c) in placement {
        let domain = topo
            .path_to_root(*server)
            .find(|&a| topo.level(a) == level)
            .expect("every server has an ancestor at each level below the root");
        let e = per_domain
            .entry(domain)
            .or_insert_with(|| vec![0; tier_sizes.len()]);
        for (i, &x) in c.iter().enumerate() {
            e[i] += x;
        }
    }
    let mut max_in_domain = vec![0u32; tier_sizes.len()];
    for c in per_domain.values() {
        for (i, &x) in c.iter().enumerate() {
            max_in_domain[i] = max_in_domain[i].max(x);
        }
    }
    tier_sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            if n == 0 {
                None
            } else {
                Some(1.0 - max_in_domain[i] as f64 / n as f64)
            }
        })
        .collect()
}

/// Incremental accumulator for one [`WcsStats`] **per fault-domain level**
/// (0 = server, 1 = ToR, …, up to but excluding the root) — the Figs.
/// 11–12 measurement generalized so survivability is visible at every
/// level a fault can hit, not just the configured one.
#[derive(Debug, Clone)]
pub struct WcsByLevel {
    accs: Vec<WcsAccumulator>,
}

impl WcsByLevel {
    /// One accumulator per fault-domain level of `topo` (every level
    /// below the root; losing the root loses everything).
    pub fn new(topo: &Topology) -> Self {
        WcsByLevel {
            accs: vec![WcsAccumulator::default(); topo.num_levels() - 1],
        }
    }

    /// Record one placement's WCS at every level.
    pub fn record(&mut self, topo: &Topology, placement: &[(NodeId, Vec<u32>)], sizes: &[u32]) {
        for (level, acc) in self.accs.iter_mut().enumerate() {
            acc.record(
                &wcs_from_placement(topo, placement, sizes, level as u8),
                sizes,
            );
        }
    }

    /// Finish into per-level summary statistics, indexed by level.
    pub fn finish(&self) -> Vec<WcsStats> {
        self.accs.iter().map(WcsAccumulator::finish).collect()
    }
}

/// One tenant to re-price: its per-server tier counts plus the pricing
/// model to apply (see [`reprice_by_level`]).
pub type PricedPlacement<'a> = (&'a [(NodeId, Vec<u32>)], &'a dyn CutModel);

/// Re-price a set of placements under an arbitrary model and aggregate the
/// required uplink bandwidth per topology level (outgoing + incoming).
///
/// This implements Table 1's "CM+VOC" row: take the placement produced by
/// CM+TAG and report what it would cost if the tenants were *modeled* with
/// VOC.
pub fn reprice_by_level(topo: &Topology, deployments: &[PricedPlacement<'_>]) -> Vec<Kbps> {
    let mut per_level = vec![0u64; topo.num_levels()];
    for (placement, model) in deployments {
        // Accumulate per-node inside counts bottom-up.
        let mut counts: HashMap<NodeId, Vec<u32>> = HashMap::new();
        for (server, c) in placement.iter() {
            for node in topo.path_to_root(*server) {
                let e = counts
                    .entry(node)
                    .or_insert_with(|| vec![0; model.num_tiers()]);
                for (i, &x) in c.iter().enumerate() {
                    e[i] += x;
                }
            }
        }
        for (node, c) in &counts {
            if *node == topo.root() {
                continue;
            }
            let (out, inc) = model.cut_kbps(c);
            per_level[topo.level(*node) as usize] += out + inc;
        }
    }
    per_level
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::model::{TagBuilder, VocModel};
    use cm_topology::{mbps, TreeSpec};

    #[test]
    fn rejection_rates() {
        let c = RejectionCounts {
            arrivals: 10,
            rejected_tenants: 2,
            rejected_for_slots: 1,
            rejected_for_bandwidth: 1,
            total_vms: 100,
            rejected_vms: 40,
            total_bw_kbps: 1000,
            rejected_bw_kbps: 100,
        };
        assert_eq!(c.tenant_rate(), 0.2);
        assert_eq!(c.vm_rate(), 0.4);
        assert_eq!(c.bw_rate(), 0.1);
        assert_eq!(RejectionCounts::default().bw_rate(), 0.0);
    }

    #[test]
    fn wcs_accumulator_skips_singletons() {
        let mut acc = WcsAccumulator::default();
        acc.record(&[Some(0.5), Some(0.0), None], &[4, 1, 0]);
        acc.record(&[Some(0.75)], &[8]);
        let s = acc.finish();
        assert_eq!(s.components, 2);
        assert!((s.mean - 0.625).abs() < 1e-12);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 0.75);
    }

    #[test]
    fn wcs_from_placement_reports_every_level() {
        let topo = Topology::build(&TreeSpec::small(
            1,
            2,
            2,
            16,
            [mbps(1000.0), mbps(1000.0), mbps(1000.0)],
        ));
        let servers = topo.servers();
        let sizes = [4u32, 4, 0];
        let placement = vec![
            (servers[0], vec![3, 0, 0]),
            (servers[1], vec![1, 2, 0]),
            (servers[2], vec![0, 2, 0]),
        ];
        // Server level: worst domains hold 3/4 and 2/4.
        assert_eq!(
            wcs_from_placement(&topo, &placement, &sizes, 0),
            vec![Some(0.25), Some(0.5), None]
        );
        // Rack level: rack 0 holds all of tier 0 (WCS 0) and half of tier 1.
        assert_eq!(
            wcs_from_placement(&topo, &placement, &sizes, 1),
            vec![Some(0.0), Some(0.5), None]
        );
        // Pod level: the single pod holds everything.
        assert_eq!(
            wcs_from_placement(&topo, &placement, &sizes, 2),
            vec![Some(0.0), Some(0.0), None]
        );
        let mut by_level = WcsByLevel::new(&topo);
        by_level.record(&topo, &placement, &sizes);
        let stats = by_level.finish();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].components, 2);
        assert_eq!(stats[1].min, 0.0);
        assert_eq!(stats[1].max, 0.5);
    }

    #[test]
    fn reprice_tag_vs_voc_ordering() {
        // A Storm-like split placement must price TAG ≤ VOC at every level.
        let topo = Topology::build(&TreeSpec::small(
            1,
            2,
            2,
            16,
            [mbps(1000.0), mbps(1000.0), mbps(1000.0)],
        ));
        let mut b = TagBuilder::new("storm-ish");
        let s1 = b.tier("spout1", 4);
        let b1 = b.tier("bolt1", 4);
        let b2 = b.tier("bolt2", 4);
        let b3 = b.tier("bolt3", 4);
        b.edge(s1, b1, 100, 100).unwrap();
        b.edge(s1, b2, 100, 100).unwrap();
        b.edge(b2, b3, 100, 100).unwrap();
        let tag = b.build().unwrap();
        let voc = VocModel::from_tag(&tag);
        let servers = topo.servers();
        // spout1+bolt1 on rack 0, bolt2+bolt3 on rack 1 (Fig. 3(c)).
        let placement = vec![
            (servers[0], vec![4, 4, 0, 0]),
            (servers[2], vec![0, 0, 4, 4]),
        ];
        let tag_lv = reprice_by_level(&topo, &[(&placement, &tag)]);
        let voc_lv = reprice_by_level(&topo, &[(&placement, &voc)]);
        for (t, v) in tag_lv.iter().zip(&voc_lv) {
            assert!(t <= v);
        }
        // ToR level: only spout1→bolt2 crosses. TAG pays S·B out of rack 0
        // plus S·B into rack 1 = 800. VOC aggregates: rack 0 prices
        // min(4·2B, 4·B+4·B) = 800 out + 400 in, rack 1 symmetrically,
        // totalling 2400 — three times TAG on this split.
        assert_eq!(tag_lv[1], 800);
        assert_eq!(voc_lv[1], 2400);
    }
}
