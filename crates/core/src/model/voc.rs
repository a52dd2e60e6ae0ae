//! The (generalized) Virtual Oversubscribed Cluster model (§2.2, footnote 7).
//!
//! VOC (Ballani et al., Oktopus) organizes VMs into clusters, each an
//! internal hose of per-VM bandwidth `B_c`, with the clusters joined through
//! per-cluster oversubscribed trunks. Following the paper we use a
//! *generalized* VOC: every cluster may have its own size, hose bandwidth
//! and inter-cluster (core) per-VM send/receive guarantees.
//!
//! The defining shortcoming that the paper demonstrates — and that this
//! implementation preserves — is aggregation: VOC folds all of a VM's
//! inter-cluster requirements into a single core hose, so the model cannot
//! see which *specific* clusters communicate. Its cut price (footnote 7) is
//! therefore always ≥ the TAG cut price for the same placement.

use crate::cut::CutModel;
use crate::model::tag::Tag;
use cm_topology::Kbps;

/// One cluster of a (generalized) VOC model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VocCluster {
    /// Cluster name (mirrors the TAG tier it models, where applicable).
    pub name: String,
    /// Number of VMs `S_c`.
    pub size: u32,
    /// Intra-cluster hose guarantee per VM (`B_c`).
    pub hose_kbps: Kbps,
    /// Per-VM aggregate *inter-cluster* send guarantee (`s_c`).
    pub core_snd_kbps: Kbps,
    /// Per-VM aggregate *inter-cluster* receive guarantee (`r_c`).
    pub core_rcv_kbps: Kbps,
}

/// A generalized VOC tenant model.
///
/// Implements [`CutModel`] with the paper's footnote-7 formula:
///
/// ```text
/// C_out(X) = min( Σ_t N^t_X·s_t , Σ_t' (N^t'−N^t'_X)·r_t' + ext_rcv )
///          + Σ_t min(N^t_X, N^t−N^t_X)·B_t
/// ```
///
/// and symmetrically for the incoming direction. `ext_snd`/`ext_rcv` carry
/// the tenant's demand towards external components (always outside any
/// subtree); `u64::MAX` encodes an unbounded external side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VocModel {
    clusters: Vec<VocCluster>,
    /// Aggregate send capacity of external endpoints (they are always
    /// outside the cut, so they add to the *receive-from-outside* budget of
    /// the incoming direction).
    ext_snd_kbps: Kbps,
    /// Aggregate receive capacity of external endpoints.
    ext_rcv_kbps: Kbps,
}

impl VocModel {
    /// Build a VOC model directly from clusters (no external demand).
    pub fn new(clusters: Vec<VocCluster>) -> VocModel {
        VocModel {
            clusters,
            ext_snd_kbps: 0,
            ext_rcv_kbps: 0,
        }
    }

    /// Model a TAG tenant as a generalized VOC, the §5 evaluation mapping
    /// ("we consider each service as corresponding to a component/tier in
    /// the TAG model and to a cluster in the VOC model").
    ///
    /// Each tier becomes a cluster; its self-loop becomes the cluster hose;
    /// all its inter-tier guarantees are *aggregated* into the per-VM core
    /// send/receive values (this aggregation is precisely what loses the
    /// communication structure). Guarantees to external components join the
    /// core aggregates, with the external sides accumulated separately.
    pub fn from_tag(tag: &Tag) -> VocModel {
        let n = tag.num_tiers();
        let mut clusters = Vec::new();
        let mut ext_snd: u64 = 0;
        let mut ext_rcv: u64 = 0;
        let mut core_snd = vec![0u64; n];
        let mut core_rcv = vec![0u64; n];
        let mut hose = vec![0u64; n];
        for e in tag.edges() {
            if e.is_self_loop() {
                hose[e.from.index()] += e.snd_kbps;
            } else {
                core_snd[e.from.index()] += e.snd_kbps;
                core_rcv[e.to.index()] += e.rcv_kbps;
            }
        }
        for (i, tier) in tag.tiers().iter().enumerate() {
            if tier.external {
                // External endpoints' own capacities: unbounded size ⇒ MAX.
                if tier.size == 0 {
                    if core_snd[i] > 0 {
                        ext_snd = u64::MAX;
                    }
                    if core_rcv[i] > 0 {
                        ext_rcv = u64::MAX;
                    }
                } else {
                    ext_snd = ext_snd.saturating_add(tier.size as u64 * core_snd[i]);
                    ext_rcv = ext_rcv.saturating_add(tier.size as u64 * core_rcv[i]);
                }
            } else {
                clusters.push(VocCluster {
                    name: tier.name.clone(),
                    size: tier.size,
                    hose_kbps: hose[i],
                    core_snd_kbps: core_snd[i],
                    core_rcv_kbps: core_rcv[i],
                });
            }
        }
        VocModel {
            clusters,
            ext_snd_kbps: ext_snd,
            ext_rcv_kbps: ext_rcv,
        }
    }

    /// Model a TAG tenant as a generalized *hose* (the paper's VC baseline):
    /// a single virtual switch where each VM's hose aggregates *all* of its
    /// guarantees, intra- and inter-tier alike. This is `VOC` with all
    /// traffic pushed into the core and no intra-cluster hoses.
    pub fn vc_from_tag(tag: &Tag) -> VocModel {
        let mut voc = VocModel::from_tag(tag);
        for c in &mut voc.clusters {
            // Self-loop traffic also traverses the central virtual switch in
            // the hose model, so it joins the core aggregate.
            c.core_snd_kbps += c.hose_kbps;
            c.core_rcv_kbps += c.hose_kbps;
            c.hose_kbps = 0;
        }
        voc
    }

    /// The clusters of this model.
    pub fn clusters(&self) -> &[VocCluster] {
        &self.clusters
    }
}

impl CutModel for VocModel {
    fn num_tiers(&self) -> usize {
        self.clusters.len()
    }

    fn tier_size(&self, t: usize) -> u32 {
        self.clusters[t].size
    }

    fn cut_kbps(&self, inside: &[u32]) -> (Kbps, Kbps) {
        debug_assert_eq!(inside.len(), self.clusters.len());
        let mut snd_in: u64 = 0; // aggregate core send of inside VMs
        let mut rcv_in: u64 = 0;
        let mut snd_out: u64 = self.ext_snd_kbps;
        let mut rcv_out: u64 = self.ext_rcv_kbps;
        let mut hose: u64 = 0;
        for (c, &i) in self.clusters.iter().zip(inside.iter()) {
            let i = i.min(c.size);
            let o = c.size - i;
            snd_in += i as u64 * c.core_snd_kbps;
            rcv_in += i as u64 * c.core_rcv_kbps;
            snd_out = snd_out.saturating_add(o as u64 * c.core_snd_kbps);
            rcv_out = rcv_out.saturating_add(o as u64 * c.core_rcv_kbps);
            hose += (i.min(o)) as u64 * c.hose_kbps;
        }
        let out = snd_in.min(rcv_out) + hose;
        let inc = snd_out.min(rcv_in) + hose;
        (out, inc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TagBuilder;

    /// The Storm application of the paper's Fig. 3(a): Spout1 -> Bolt1,
    /// Spout1 -> Bolt2, Bolt2 -> Bolt3, each component `s` VMs, per-VM
    /// outgoing bandwidth `b` per communicating pair.
    pub fn storm(s: u32, b: Kbps) -> Tag {
        let mut t = TagBuilder::new("storm");
        let spout1 = t.tier("spout1", s);
        let bolt1 = t.tier("bolt1", s);
        let bolt2 = t.tier("bolt2", s);
        let bolt3 = t.tier("bolt3", s);
        t.edge(spout1, bolt1, b, b).unwrap();
        t.edge(spout1, bolt2, b, b).unwrap();
        t.edge(bolt2, bolt3, b, b).unwrap();
        t.build().unwrap()
    }

    #[test]
    fn from_tag_aggregates_per_vm_core() {
        let tag = storm(10, 100);
        let voc = VocModel::from_tag(&tag);
        assert_eq!(voc.clusters().len(), 4);
        // Spout1 sends to two components: s_c = 2B (Fig. 3(b)).
        assert_eq!(voc.clusters()[0].core_snd_kbps, 200);
        assert_eq!(voc.clusters()[0].core_rcv_kbps, 0);
        // Bolt2 receives from spout1 and sends to bolt3.
        assert_eq!(voc.clusters()[2].core_snd_kbps, 100);
        assert_eq!(voc.clusters()[2].core_rcv_kbps, 100);
        // No self-loops → no cluster hoses.
        assert!(voc.clusters().iter().all(|c| c.hose_kbps == 0));
    }

    #[test]
    fn fig3_voc_reserves_double_on_the_split() {
        // Fig. 3(c): {Spout1, Bolt1} in one branch, {Bolt2, Bolt3} in the
        // other. Only Spout1→Bolt2 crosses: TAG needs S·B; VOC needs
        // min(3S·B, 2S·B) = 2S·B — twice as much.
        let s = 10;
        let b = 100;
        let tag = storm(s, b);
        let voc = VocModel::from_tag(&tag);
        let inside = vec![s, s, 0, 0]; // spout1 + bolt1 in the subtree
        let (tag_out, _) = tag.cut_kbps(&inside);
        let (voc_out, _) = voc.cut_kbps(&inside);
        assert_eq!(tag_out, (s as u64) * b); // S·B
        assert_eq!(voc_out, 2 * (s as u64) * b); // 2S·B
    }

    #[test]
    fn voc_cut_dominates_tag_cut() {
        let tag = storm(7, 130);
        let voc = VocModel::from_tag(&tag);
        // Exhaustive small check (property test covers the general case).
        for a in 0..=7u32 {
            for b in 0..=7u32 {
                for c in 0..=7u32 {
                    let inside = vec![a, b, c, 3];
                    let (to, ti) = tag.cut_kbps(&inside);
                    let (vo, vi) = voc.cut_kbps(&inside);
                    assert!(to <= vo && ti <= vi, "TAG must never exceed VOC");
                }
            }
        }
    }

    #[test]
    fn homogeneous_voc_oversubscription() {
        // Oktopus's homogeneous VOC: three clusters of 10 VMs, per-VM hose
        // 1,000 and oversubscription 4, so each VM's core guarantee is 250.
        let cluster = |name: &str| VocCluster {
            name: name.into(),
            size: 10,
            hose_kbps: 1000,
            core_snd_kbps: 250,
            core_rcv_kbps: 250,
        };
        let voc = VocModel::new(vec![cluster("c0"), cluster("c1"), cluster("c2")]);
        // One full cluster inside: hose term is 0 (min(10,0)),
        // core out = min(10*250, 20*250) = 2500 = S·B/O.
        assert_eq!(voc.cut_kbps(&[10, 0, 0]).0, 2500);
        // Half a cluster inside: hose min(5,5)*1000 = 5000 + core 5*250.
        assert_eq!(voc.cut_kbps(&[5, 0, 0]).0, 5000 + 1250);
    }

    #[test]
    fn vc_folds_everything_into_one_hose() {
        let mut b = TagBuilder::new("t");
        let u = b.tier("u", 4);
        b.self_loop(u, 100).unwrap();
        let tag = b.build().unwrap();
        let vc = VocModel::vc_from_tag(&tag);
        // VC: per-VM hose 100 via the central switch; 2 VMs inside:
        // out = min(2*100, 2*100) = 200 (vs TAG hose min(2,2)*100 = 200 too
        // for a pure hose tenant — identical, as hose is a TAG special case).
        assert_eq!(vc.cut_kbps(&[2]), tag.cut_kbps(&[2]));
    }

    #[test]
    fn external_demand_joins_core() {
        let mut b = TagBuilder::new("t");
        let u = b.tier("u", 4);
        let x = b.external_sized("store", 2);
        b.edge(u, x, 100, 300).unwrap();
        let tag = b.build().unwrap();
        let voc = VocModel::from_tag(&tag);
        // 4 VMs inside: out = min(4*100, ext_rcv 2*300) = 400.
        assert_eq!(voc.cut_kbps(&[4]).0, 400);
        // Unbounded external: min collapses to the inside term.
        let mut b = TagBuilder::new("t2");
        let u = b.tier("u", 4);
        let x = b.external("inet");
        b.edge(u, x, 100, 300).unwrap();
        let voc = VocModel::from_tag(&b.build().unwrap());
        assert_eq!(voc.cut_kbps(&[4]).0, 400);
        assert_eq!(voc.cut_kbps(&[2]).0, 200);
    }
}
