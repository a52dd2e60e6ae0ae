//! The concrete example applications used throughout the paper's figures.

use cm_core::model::{Tag, TagBuilder};
use cm_topology::Kbps;

/// The three-tier web application of Fig. 2(a): `web -- B1 -- logic -- B2 --
/// db`, with `B3` of database-consistency traffic inside the db tier.
/// All inter-tier edges are symmetric (footnote 6 shorthand).
pub fn three_tier(n_web: u32, n_logic: u32, n_db: u32, b1: Kbps, b2: Kbps, b3: Kbps) -> Tag {
    let mut b = TagBuilder::new("three-tier");
    let web = b.tier("web", n_web);
    let logic = b.tier("logic", n_logic);
    let db = b.tier("db", n_db);
    b.sym_edge(web, logic, b1).expect("valid tiers");
    b.sym_edge(logic, db, b2).expect("valid tiers");
    if b3 > 0 {
        b.self_loop(db, b3).expect("valid tier");
    }
    b.build().expect("three-tier TAG is valid")
}

/// The Storm real-time analytics job of Fig. 3(a): `spout1 → bolt1`,
/// `spout1 → bolt2`, `bolt2 → bolt3`; every component has `s` VMs and each
/// communicating pair moves `b` per VM.
pub fn storm(s: u32, b: Kbps) -> Tag {
    let mut t = TagBuilder::new("storm");
    let spout1 = t.tier("spout1", s);
    let bolt1 = t.tier("bolt1", s);
    let bolt2 = t.tier("bolt2", s);
    let bolt3 = t.tier("bolt3", s);
    t.edge(spout1, bolt1, b, b).expect("valid");
    t.edge(spout1, bolt2, b, b).expect("valid");
    t.edge(bolt2, bolt3, b, b).expect("valid");
    t.build().expect("storm TAG is valid")
}

/// The Fig. 6 rack request: three hose components — A (2 VMs, 4 Mbps),
/// B (2 VMs, 4 Mbps), C (4 VMs, 6 Mbps) — totalling 8 VMs and 40 Mbps.
/// Bandwidths given in kbps for consistency with the rest of the API.
pub fn fig6_request() -> Tag {
    let mut b = TagBuilder::new("fig6");
    let a = b.tier("A", 2);
    let bb = b.tier("B", 2);
    let c = b.tier("C", 4);
    b.self_loop(a, 4_000).expect("valid");
    b.self_loop(bb, 4_000).expect("valid");
    b.self_loop(c, 6_000).expect("valid");
    b.build().expect("fig6 TAG is valid")
}

/// A MapReduce-style batch job: one component with all-to-all shuffle
/// traffic — a pure hose (the case prior models handle well, §2).
pub fn mapreduce(n: u32, shuffle: Kbps) -> Tag {
    let mut b = TagBuilder::new("mapreduce");
    let w = b.tier("workers", n);
    b.self_loop(w, shuffle).expect("valid");
    b.build().expect("mapreduce TAG is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::model::TierId;
    use cm_core::CutModel;

    #[test]
    fn three_tier_shape() {
        let t = three_tier(10, 10, 10, 500, 100, 50);
        assert_eq!(t.total_vms(), 30);
        assert_eq!(t.edges().len(), 5); // 2 sym pairs + 1 self-loop
        assert_eq!(t.self_loop_of(TierId(2)), Some(50));
    }

    #[test]
    fn three_tier_without_db_loop() {
        let t = three_tier(2, 2, 2, 500, 100, 0);
        assert_eq!(t.edges().len(), 4);
    }

    #[test]
    fn storm_fig3_cut() {
        // Fig. 3(c): {spout1, bolt1} vs {bolt2, bolt3} split needs S·B.
        let s = 10;
        let b = 100;
        let t = storm(s, b);
        let (out, _) = t.cut_kbps(&[s, s, 0, 0]);
        assert_eq!(out, s as u64 * b);
    }

    #[test]
    fn fig6_totals() {
        let t = fig6_request();
        assert_eq!(t.total_vms(), 8);
        // 2·4 + 2·4 + 4·6 = 40 Mbps total demand.
        let total: u64 = t
            .internal_tiers()
            .map(|tier| t.tier(tier).size as u64 * t.self_loop_of(tier).unwrap())
            .sum();
        assert_eq!(total, 40_000);
    }

    #[test]
    fn mapreduce_is_pure_hose() {
        let t = mapreduce(20, 1000);
        assert_eq!(t.edges().len(), 1);
        assert!(t.edges()[0].is_self_loop());
        assert_eq!(t.cut_kbps(&[10]), (10_000, 10_000));
    }
}
