//! Fixtures shared by the traffic engine's unit tests (`src/engine.rs`)
//! and its differential tests against the batch reference
//! (`engine_differential.rs`): a small tree, random TAGs and placements,
//! and the report comparison. The including module provides
//! `TrafficReport`.

use super::TrafficReport;
use cm_core::model::{Tag, TagBuilder, TierId};
use cm_topology::{mbps, NodeId, Topology, TreeSpec};
use std::sync::Arc;

/// 2 pods × 2 racks × 2 servers, 4 slots each; NICs 1 Gbps.
pub fn topo() -> Topology {
    Topology::build(&TreeSpec::small(
        2,
        2,
        2,
        4,
        [mbps(1000.0), mbps(4000.0), mbps(8000.0)],
    ))
}

/// Deterministic xorshift for test-local randomness.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self, m: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % m
    }
}

/// Random small TAG: 2–4 tiers, random trunks and self-loops.
pub fn random_tag(rng: &mut Rng) -> Arc<Tag> {
    loop {
        let mut b = TagBuilder::new("rand");
        let nt = 2 + rng.next(3) as usize;
        let tiers: Vec<TierId> = (0..nt)
            .map(|i| b.tier(format!("t{i}"), 1 + rng.next(4) as u32))
            .collect();
        let mut added = 0;
        for u in 0..nt {
            for v in 0..nt {
                if rng.next(3) != 0 {
                    continue;
                }
                let bw = 1000 * (1 + rng.next(50));
                let ok = if u == v {
                    b.self_loop(tiers[u], bw).is_ok()
                } else {
                    b.edge(tiers[u], tiers[v], bw, 1000 * (1 + rng.next(50)))
                        .is_ok()
                };
                if ok {
                    added += 1;
                }
            }
        }
        if added > 0 {
            if let Ok(tag) = b.build() {
                return Arc::new(tag);
            }
        }
    }
}

/// Scatter a TAG's VMs over servers: returns the canonical placement
/// shape (ascending server order, per-tier counts).
pub fn random_placement(rng: &mut Rng, tag: &Tag, servers: &[NodeId]) -> Vec<(NodeId, Vec<u32>)> {
    let nt = tag.num_tiers();
    let mut counts: std::collections::BTreeMap<NodeId, Vec<u32>> = Default::default();
    for t in tag.internal_tiers() {
        let size = tag.tier(t).size;
        for _ in 0..size {
            let s = servers[rng.next(servers.len() as u64) as usize];
            counts.entry(s).or_insert_with(|| vec![0; nt])[t.index()] += 1;
        }
    }
    counts.into_iter().collect()
}

/// Compare an engine report against a batch-solver report: same pair
/// set, tolerance-equal rates/floors/intents, equal violations and
/// work-conservation, tolerance-equal aggregates.
pub fn assert_report_close(got: &TrafficReport, want: &TrafficReport, ctx: &str) {
    assert_eq!(got.flows.len(), want.flows.len(), "{ctx}: pair count");
    assert_eq!(got.cross_flows, want.cross_flows, "{ctx}");
    assert_eq!(got.colocated_flows, want.colocated_flows, "{ctx}");
    for w in &want.flows {
        let g = got
            .pair(w.tenant, w.src, w.dst)
            .unwrap_or_else(|| panic!("{ctx}: missing pair {w:?}"));
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6 * (1.0 + b.abs());
        assert!(
            close(g.floor_kbps, w.floor_kbps),
            "{ctx}: floor {g:?} vs {w:?}"
        );
        assert!(
            close(g.intent_kbps, w.intent_kbps),
            "{ctx}: intent {g:?} vs {w:?}"
        );
        assert!(
            close(g.rate_kbps, w.rate_kbps),
            "{ctx}: rate {g:?} vs {w:?}"
        );
        assert_eq!(g.colocated, w.colocated, "{ctx}");
    }
    assert_eq!(got.violations, want.violations, "{ctx}");
    assert_eq!(got.work_conserving, want.work_conserving, "{ctx}");
    assert!(
        (got.total_rate_kbps - want.total_rate_kbps).abs() < 1e-6 * (1.0 + want.total_rate_kbps),
        "{ctx}: total {} vs {}",
        got.total_rate_kbps,
        want.total_rate_kbps
    );
    for (g, w) in got.levels.iter().zip(&want.levels) {
        assert_eq!(g.links, w.links, "{ctx}");
        assert!(
            (g.mean_utilization - w.mean_utilization).abs() < 1e-6,
            "{ctx}: level {} mean {} vs {}",
            g.level,
            g.mean_utilization,
            w.mean_utilization
        );
    }
}
