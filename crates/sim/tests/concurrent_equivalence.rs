//! Concurrency correctness of the one concurrent path admission has: the
//! experiment sweeps fan independent simulation cells across
//! [`par_map_indexed`] workers, and a placer running on a worker must
//! decide **exactly** as it does in a serial loop — same admitted set,
//! same placements, same reservations. That holds only while no placer
//! keeps state shared between instances (statics, thread-locals, global
//! caches), which is what these tests pin.
//!
//! Two layers:
//!
//! * a stress test on the paper datacenter (seeds 1–6, all five
//!   production placers): the six seeds as concurrent sweep cells on 3
//!   workers against the same seeds run one after another;
//! * proptests replaying random arrival/departure schedules on a small
//!   tree, several copies at once on a random number of workers: every
//!   commit, every rejected attempt's rollback and every departure leaves
//!   the same state as the serial replay, a rejection leaves the topology
//!   exactly as it found it, and draining the schedule leaves it pristine.

use cm_baselines::{OktopusVcPlacer, OvocPlacer, SecondNetPlacer};
use cm_cluster::{Cluster, TenantId};
use cm_core::{CmConfig, CmPlacer, Placer, Tag, TagBuilder};
use cm_sim::{par_map_indexed, run_sim, SimConfig, SimResult};
use cm_topology::{mbps, Kbps, NodeId, Topology, TreeSpec};
use cm_workloads::bing_like_pool;
use proptest::prelude::*;
use std::sync::Arc;

/// Everything a simulation decides, floats by their exact `Debug`
/// rendering (so an unmeasured WCS's NaN compares equal to itself); the
/// wall-clock `admit` latencies are left out.
fn decisions(r: &SimResult) -> String {
    format!(
        "{} {:?} {:?} {:?} {}",
        r.algo, r.rejections, r.wcs, r.wcs_by_level, r.peak_tenants
    )
}

/// The stress test proper: paper datacenter, seeds 1–6, one placer;
/// concurrent (3 workers) vs serial, full decisions compared.
fn stress_one<P, F>(make: F, arrivals: usize)
where
    P: Placer,
    F: Fn() -> P + Sync,
{
    let pool = bing_like_pool(42);
    let cfgs: Vec<SimConfig> = (1..=6u64)
        .map(|seed| {
            let mut cfg = SimConfig::paper_default();
            cfg.seed = seed;
            cfg.arrivals = arrivals;
            cfg
        })
        .collect();
    let serial: Vec<SimResult> = cfgs.iter().map(|cfg| run_sim(cfg, &pool, make())).collect();
    let concurrent = par_map_indexed(3, &cfgs, |_, cfg| run_sim(cfg, &pool, make()));
    for (i, (c, s)) in concurrent.iter().zip(&serial).enumerate() {
        assert_eq!(
            decisions(c),
            decisions(s),
            "{}: seed {} diverged",
            s.algo,
            cfgs[i].seed
        );
        // Sanity: the runs actually admit something.
        assert!(
            s.rejections.rejected_tenants < s.rejections.arrivals,
            "degenerate run"
        );
    }
}

#[test]
fn concurrent_matches_serial_cm_paper_seeds() {
    stress_one(|| CmPlacer::new(CmConfig::cm()), 220);
}

#[test]
fn concurrent_matches_serial_cm_ha_paper_seeds() {
    stress_one(|| CmPlacer::named(CmConfig::cm_ha(0.5), "CM+HA"), 180);
}

#[test]
fn concurrent_matches_serial_cm_opp_ha_paper_seeds() {
    // Opportunistic HA carries predictor state across arrivals — the
    // placer most likely to leak state between instances.
    stress_one(|| CmPlacer::named(CmConfig::cm_opp_ha(), "CM+oppHA"), 150);
}

#[test]
fn concurrent_matches_serial_ovoc_paper_seeds() {
    stress_one(OvocPlacer::new, 220);
}

#[test]
fn concurrent_matches_serial_vc_paper_seeds() {
    stress_one(OktopusVcPlacer::new, 220);
}

#[test]
fn concurrent_matches_serial_secondnet_paper_seeds() {
    stress_one(SecondNetPlacer::new, 120);
}

// ---------------------------------------------------------------------
// Proptests: random schedules, random worker counts, organic rollbacks.
// ---------------------------------------------------------------------

/// One schedule entry: an arrival, or the departure of an earlier arrival
/// (by arrival-event index; departing a rejected tenant is a no-op).
enum Op {
    Arrive(Arc<Tag>),
    Depart(usize),
}

/// What one event did, plus the topology's aggregate state after it.
#[derive(Debug, PartialEq)]
enum Step {
    Admitted(Vec<(NodeId, Vec<u32>)>),
    Rejected,
    Departed,
}

/// Free slots under the root and the reservation summed per level.
type Fingerprint = (u64, Vec<(Kbps, Kbps)>);

fn fingerprint(topo: &Topology) -> Fingerprint {
    (
        topo.subtree_slots_free(topo.root()),
        (0..topo.num_levels())
            .map(|l| topo.reserved_at_level(l))
            .collect(),
    )
}

/// 32 slots behind thin uplinks: longer schedules run out of slots and of
/// bandwidth, so rejected attempts (and their rollbacks) are routine.
fn small_tree() -> Topology {
    Topology::build(&TreeSpec::small(
        2,
        2,
        2,
        4,
        [mbps(120.0), mbps(200.0), mbps(300.0)],
    ))
}

/// Hose tenants of 1–7 VMs; every `depart_stride`-th arrival is followed
/// by the departure of the oldest arrival not yet departed.
fn small_schedule(tags: &[(u32, u64)], depart_stride: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut departed = Vec::new();
    for (i, &(n, sr)) in tags.iter().enumerate() {
        let mut b = TagBuilder::new("hose");
        let t = b.tier("t", 1 + n % 7);
        b.self_loop(t, 10 + sr % mbps(60.0)).unwrap();
        ops.push(Op::Arrive(Arc::new(b.build().unwrap())));
        if depart_stride > 0 && i % depart_stride == depart_stride - 1 {
            if let Some(a) = (0..ops.len())
                .filter(|&j| matches!(ops[j], Op::Arrive(_)))
                .find(|j| !departed.contains(j))
            {
                departed.push(a);
                ops.push(Op::Depart(a));
            }
        }
    }
    ops
}

/// Replay `ops` on a fresh small tree; check the invariants after every
/// event, that a rejection rolls back to the exact prior state, and that
/// departing every survivor leaves the tree pristine.
fn replay<P: Placer>(ops: &[Op], placer: P) -> Vec<(Step, Fingerprint)> {
    let fresh = small_tree();
    let pristine = fingerprint(&fresh);
    let mut cluster = Cluster::adopt(fresh, placer);
    let mut live: Vec<Option<TenantId>> = vec![None; ops.len()];
    let mut trace = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let before = fingerprint(cluster.topology());
        let step = match op {
            Op::Arrive(tag) => match cluster.admit(tag) {
                Ok(h) => {
                    live[i] = Some(h.id());
                    Step::Admitted(cluster.placement_of(h.id()).expect("admitted tenant"))
                }
                Err(_) => {
                    assert_eq!(
                        fingerprint(cluster.topology()),
                        before,
                        "rejected arrival {i} left a trace"
                    );
                    Step::Rejected
                }
            },
            Op::Depart(a) => {
                if let Some(id) = live[*a].take() {
                    cluster.depart(id).expect("live tenant departs");
                }
                Step::Departed
            }
        };
        cluster.check_invariants().expect("invariants after event");
        trace.push((step, fingerprint(cluster.topology())));
    }
    for id in live.into_iter().flatten() {
        cluster.depart(id).expect("final departure");
    }
    cluster.check_invariants().expect("final invariants");
    assert_eq!(fingerprint(cluster.topology()), pristine, "not drained");
    trace
}

/// The serial replay, then `threads` copies replayed at once on
/// `threads` workers; every copy must match the serial trace.
fn concurrent_traces_match<P, F>(ops: &[Op], make: F, threads: usize)
where
    P: Placer,
    F: Fn() -> P + Sync,
{
    let serial = replay(ops, make());
    let copies: Vec<usize> = (0..threads).collect();
    for trace in par_map_indexed(threads, &copies, |_, _| replay(ops, make())) {
        assert_eq!(trace, serial, "threads = {threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Commits interleaved with departures and rejected attempts' rollbacks
    /// reproduce the serial state event for event on any worker count.
    #[test]
    fn interleaved_commits_and_rollbacks_match_serial(
        tags in prop::collection::vec((0u32..8, 0u64..mbps(60.0)), 4..28),
        threads in 1usize..=4,
        depart_stride in 0usize..4,
    ) {
        let ops = small_schedule(&tags, depart_stride);
        concurrent_traces_match(&ops, || CmPlacer::new(CmConfig::cm()), threads);
    }

    /// Same interleaving property for a translating placer (OVOC), which
    /// prices through a model conversion.
    #[test]
    fn interleaved_ovoc_matches_serial(
        tags in prop::collection::vec((0u32..8, 0u64..mbps(60.0)), 4..20),
        threads in 2usize..=4,
        depart_stride in 0usize..3,
    ) {
        let ops = small_schedule(&tags, depart_stride);
        concurrent_traces_match(&ops, OvocPlacer::new, threads);
    }
}
