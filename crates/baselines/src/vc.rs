//! Oktopus virtual-cluster (hose) baseline.
//!
//! The paper evaluated VC — the plain hose model — and found it "always
//! performed worse than VOC and TAG", so its results are omitted from the
//! tables; the implementation is kept for completeness and for the
//! model-comparison property tests.

use cm_core::model::{Tag, VocModel};
use cm_core::placement::{Deployed, Placer, RejectReason};
use cm_core::reserve::TenantState;
use cm_topology::Topology;

use crate::OvocPlacer;

/// Hose-model placement: the tenant is modeled as a generalized hose
/// ([`VocModel::vc_from_tag`]: every guarantee, intra- and inter-tier,
/// aggregated into one per-VM hose through a single virtual switch) and
/// placed with the Oktopus greedy.
#[derive(Debug, Clone, Default)]
pub struct OktopusVcPlacer {
    inner: OvocPlacer,
}

impl OktopusVcPlacer {
    /// Create a VC placer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deploy a TAG tenant priced as a generalized hose.
    pub fn place_tag(
        &mut self,
        topo: &mut Topology,
        tag: &Tag,
    ) -> Result<TenantState<VocModel>, RejectReason> {
        self.inner.place_voc(topo, VocModel::vc_from_tag(tag))
    }
}

impl Placer for OktopusVcPlacer {
    fn name(&self) -> &'static str {
        "VC"
    }

    fn place(&mut self, topo: &mut Topology, tag: &Tag) -> Result<Deployed, RejectReason> {
        self.place_tag(topo, tag).map(Deployed::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::model::TagBuilder;
    use cm_topology::{mbps, TreeSpec};

    #[test]
    fn vc_places_but_reserves_at_least_voc() {
        let mut topo = Topology::build(&TreeSpec::small(
            2,
            2,
            4,
            4,
            [mbps(1000.0), mbps(2000.0), mbps(4000.0)],
        ));
        let mut b = TagBuilder::new("app");
        let u = b.tier("u", 6);
        let v = b.tier("v", 6);
        b.sym_edge(u, v, mbps(20.0)).unwrap();
        b.self_loop(v, mbps(30.0)).unwrap();
        let tag = b.build().unwrap();

        let mut vc = OktopusVcPlacer::new();
        let s1 = vc.place_tag(&mut topo, &tag).expect("fits");
        let vc_reserved = s1.total_reserved_kbps();
        s1.check_consistency(&topo).unwrap();

        // Price the same placement under the VOC model: VC folds the hose
        // into the core, so VC's cut dominates VOC's on every link.
        let voc = VocModel::from_tag(&tag);
        let mut voc_price = 0u64;
        for (_, counts) in s1.placement(&topo) {
            let (o, i) = cm_core::CutModel::cut_kbps(&voc, &counts);
            voc_price += o + i;
        }
        assert!(vc_reserved >= voc_price);
    }

    #[test]
    fn vc_rejects_oversized() {
        let mut topo = Topology::build(&TreeSpec::small(
            1,
            1,
            2,
            2,
            [mbps(100.0), mbps(100.0), mbps(100.0)],
        ));
        let mut b = TagBuilder::new("big");
        let u = b.tier("u", 5);
        b.self_loop(u, 1).unwrap();
        let tag = b.build().unwrap();
        let mut vc = OktopusVcPlacer::new();
        assert_eq!(
            vc.place_tag(&mut topo, &tag).err(),
            Some(RejectReason::InsufficientSlots)
        );
    }
}
