//! Differential property test for [`IncrementalFluid`]: random add/remove
//! churn and capacity changes with interleaved solves, checked three ways
//! every solve —
//!
//! 1. the churned solver against a fresh solver fed only the surviving
//!    flows: **bit-equal** rates, whatever the history,
//! 2. against a from-scratch global [`Fluid::rates`] over the same
//!    surviving flow set (tolerance-equal: the global solve advances one
//!    fill level across all components, so summation order differs),
//! 3. the invariants themselves: work conservation always, and the full
//!    max-min definition ([`verify_max_min`]) on the churned
//!    solver's own rates *and* the global ones whenever the floors are
//!    admissible (the verifier assumes per-link floor sums fit).
//!
//! A second property aims the churn at the end of a fill, where a solve
//! resumes from its component's fill log instead of running every round:
//! the same checks hold, and some solve must have resumed.
//!
//! Both streams re-expand key groups as the traffic engine re-expands a
//! dirty tenant: in one step every live flow of the group leaves and new
//! ones join under the keys `(group, 0..m)`, so a key is removed and
//! re-added, and a slot freed and taken again, within one solve.

use cm_enforce::{FlowSpec, Fluid, IncrementalFluid, SolveStats};
use cm_testkit::fluid::verify_max_min;
use proptest::prelude::*;

/// One churn op against the incremental solver.
#[derive(Debug, Clone)]
enum Op {
    /// Add a flow crossing this link bitmask, with this demand class and
    /// guarantee.
    Add {
        path_mask: u64,
        demand: Option<f64>,
        guarantee: f64,
    },
    /// Remove the k-th (mod live count) surviving flow.
    Remove(usize),
    /// Remove every surviving flow of key group `group`, then add one flow
    /// per entry `(path mask, demand, guarantee)` under keys
    /// `(group, 0..)`.
    Reexpand {
        group: u64,
        flows: Vec<(u64, Option<f64>, f64)>,
    },
    /// Set a link's capacity to this fraction of its starting capacity
    /// (0 kills it, 1 restores it).
    SetCap { link: usize, fraction: f64 },
    /// Solve and run the differential checks.
    Solve,
}

#[derive(Debug, Clone)]
struct ChurnRecipe {
    caps: Vec<f64>,
    ops: Vec<Op>,
}

/// A re-expansion adds fewer flows than this; a plain add's sequence
/// number starts above it, so no two live flows share a key.
const REEXPAND: usize = 6;

/// Capacity fractions a `SetCap` picks from.
const FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 1.0, 1.5];

/// A demand of class `kind` (greedy, finite, or met by the floor).
fn demand_of(kind: u8, demand: f64, guarantee: f64) -> Option<f64> {
    match kind {
        0 => None,
        1 => Some(demand),
        _ => Some(demand.min(guarantee * 0.5 + 1.0)),
    }
}

fn arb_op(links: usize) -> impl Strategy<Value = Op> {
    let flow = (
        1u64..(1 << links as u64),
        0u8..3,
        10.0f64..500.0,
        0.0f64..300.0,
    )
        .prop_map(|(mask, kind, demand, g)| (mask, demand_of(kind, demand, g), g));
    (
        0u8..11,
        1u64..(1 << links as u64),
        0u8..3,
        10.0f64..500.0,
        0.0f64..300.0,
        (
            (0usize..64, 0usize..FRACTIONS.len()),
            prop::collection::vec(flow, 0..REEXPAND),
        ),
    )
        .prop_map(
            move |(which, path_mask, kind, demand, guarantee, ((k, f), flows))| {
                match which {
                    // Of eleven ops, four add flows, two remove, two change a
                    // capacity, two solve-and-check and one re-expands a
                    // key group.
                    0..=3 => Op::Add {
                        path_mask,
                        demand: demand_of(kind, demand, guarantee),
                        guarantee,
                    },
                    4..=5 => Op::Remove(k),
                    6..=7 => Op::SetCap {
                        link: k % links,
                        fraction: FRACTIONS[f],
                    },
                    10 => Op::Reexpand {
                        group: (k % 7) as u64,
                        flows,
                    },
                    _ => Op::Solve,
                }
            },
        )
}

fn arb_churn() -> impl Strategy<Value = ChurnRecipe> {
    (2usize..7).prop_flat_map(|links| {
        (
            prop::collection::vec(50.0f64..2000.0, links..=links),
            prop::collection::vec(arb_op(links), 4..40),
        )
            .prop_map(|(caps, ops)| ChurnRecipe { caps, ops })
    })
}

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-6 * (1.0 + y.abs())
}

/// Solve the churned solver and run every differential check against the
/// surviving flow set (`live`: stable id, canonical key, spec) over the
/// current capacities: the fresh solver is built over `caps`, so a
/// component that only changed capacity must re-read them from its stored
/// layout to agree.
fn check_solve(
    churned: &mut IncrementalFluid,
    live: &[(u32, (u64, u32), FlowSpec)],
    caps: &[f64],
) -> SolveStats {
    let stats = churned.solve();
    // A fresh solver and a global from-scratch reference over the
    // surviving set.
    let mut global = Fluid::new();
    for &c in caps {
        global.link(c);
    }
    let mut fresh = IncrementalFluid::new(global.clone());
    let fresh_ids: Vec<u32> = live
        .iter()
        .map(|(_, key, spec)| fresh.add_flow(spec.clone(), *key))
        .collect();
    fresh.solve();
    for (_, _, spec) in live {
        global.flow(spec.clone());
    }
    let reference = global.rates();
    for (k, (id, _, _)) in live.iter().enumerate() {
        let (x, want) = (churned.rate_of(*id), fresh.rate_of(fresh_ids[k]));
        prop_assert_eq!(
            x.to_bits(),
            want.to_bits(),
            "churned {} vs fresh {}",
            x,
            want
        );
        prop_assert!(
            close(x, reference[k]),
            "churned {} vs global {}",
            x,
            reference[k]
        );
    }
    prop_assert!(churned.is_work_conserving());
    // The strict verifier assumes admissible floors; only run it when the
    // per-link floor sums actually fit.
    let mut floor_used = vec![0.0f64; caps.len()];
    for (_, _, f) in live {
        for &l in &f.path {
            floor_used[l] += f.floor.min(f.demand);
        }
    }
    if floor_used.iter().zip(caps).all(|(&u, &c)| u <= c) {
        verify_max_min(churned.fluid(), churned.rates())
            .unwrap_or_else(|e| panic!("churned verify: {e}"));
        verify_max_min(&global, &reference).unwrap_or_else(|e| panic!("global verify: {e}"));
    }
    stats
}

/// Run the churn, checking after every solve.
fn run(recipe: &ChurnRecipe) {
    let mut base = Fluid::new();
    for &c in &recipe.caps {
        base.link(c);
    }
    let mut churned = IncrementalFluid::new(base);
    churned.set_resume_from(1);
    let mut caps = recipe.caps.clone();
    let mut live: Vec<(u32, (u64, u32), FlowSpec)> = Vec::new();
    let mut seq = REEXPAND as u32;
    for op in &recipe.ops {
        match op {
            Op::Add {
                path_mask,
                demand,
                guarantee,
            } => {
                let path: Vec<usize> = (0..recipe.caps.len())
                    .filter(|l| path_mask & (1 << l) != 0)
                    .collect();
                let mut spec = FlowSpec::greedy(path).with_guarantee(*guarantee);
                if let Some(d) = demand {
                    spec.demand = *d;
                }
                seq += 1;
                let key = ((seq % 7) as u64, seq);
                live.push((churned.add_flow(spec.clone(), key), key, spec));
            }
            Op::Remove(k) => {
                if live.is_empty() {
                    continue;
                }
                let (id, _, _) = live.swap_remove(k % live.len());
                churned.remove_flow(id);
            }
            Op::Reexpand { group, flows } => {
                let specs = flows.iter().map(|&(mask, demand, guarantee)| {
                    let path = (0..recipe.caps.len())
                        .filter(|l| mask & (1 << l) != 0)
                        .collect();
                    let mut spec = FlowSpec::greedy(path).with_guarantee(guarantee);
                    if let Some(d) = demand {
                        spec.demand = d;
                    }
                    spec
                });
                reexpand(&mut churned, &mut live, *group, specs);
            }
            Op::SetCap { link, fraction } => {
                caps[*link] = recipe.caps[*link] * fraction;
                churned.set_link_cap(*link, caps[*link]);
            }
            Op::Solve => {
                check_solve(&mut churned, &live, &caps);
            }
        }
    }
    // Always end on a checked solve so trailing churn is covered.
    check_solve(&mut churned, &live, &caps);
}

/// Re-expand key group `group`: remove every live flow of it, then add
/// `specs` under keys `(group, 0..)`.
fn reexpand(
    churned: &mut IncrementalFluid,
    live: &mut Vec<(u32, (u64, u32), FlowSpec)>,
    group: u64,
    specs: impl Iterator<Item = FlowSpec>,
) {
    live.retain(|(id, key, _)| {
        let keep = key.0 != group;
        if !keep {
            churned.remove_flow(*id);
        }
        keep
    });
    for (k, spec) in specs.enumerate() {
        let key = (group, k as u32);
        live.push((churned.add_flow(spec.clone(), key), key, spec));
    }
}

/// Churn that lands late in a fill.
#[derive(Debug, Clone)]
enum LateOp {
    /// Add a flow on late server link `k` (mod the late ones) with this
    /// guarantee.
    Add(usize, f64),
    /// Remove the `k`-th (mod count) flow on a late server link.
    Remove(usize),
    /// Scale late server link `k`'s capacity.
    SetCap(usize, f64),
    /// Add a flow from the small component to late server link `k`,
    /// merging it into the large one.
    Bridge(usize),
    /// Re-expand key group `g`: its flows leave, and `m` flows join on
    /// late server links from `k` on, each with guarantee `f`.
    Reexpand(u64, usize, usize, f64),
}

/// Server links of the late-churn network; its last `LATE` saturate last.
const SERVERS: usize = 80;
const LATE: usize = 12;

fn arb_late_op() -> impl Strategy<Value = LateOp> {
    (0u8..5, 0usize..64, 0.0f64..30.0, 0.85f64..1.2).prop_map(|(which, k, g, f)| match which {
        0 => LateOp::Add(k, g),
        1 => LateOp::Remove(k),
        2 => LateOp::SetCap(k, f),
        3 => LateOp::Bridge(k),
        _ => LateOp::Reexpand((k % 5) as u64, k % REEXPAND, k, g),
    })
}

/// One large component that saturates its server links one a round, in
/// capacity order (a unit-weight flow per server link, under one of four
/// ToR uplinks and a shared core link, none of which saturates), beside a
/// small component of two links; then churn on the server links that
/// saturate last. Every solve is checked against a fresh solver, and the
/// first one must resume.
fn run_late(spread: f64, ops: &[LateOp]) {
    let (tor, core, small) = (SERVERS, SERVERS + 4, SERVERS + 5);
    let mut caps: Vec<f64> = (0..SERVERS).map(|i| 1000.0 + spread * i as f64).collect();
    caps.extend([1e9; 5]);
    caps.extend([1e9, 1e5]);
    let mut net = Fluid::new();
    for &c in &caps {
        net.link(c);
    }
    let mut churned = IncrementalFluid::new(net);
    churned.set_resume_from(1);
    let mut live: Vec<(u32, (u64, u32), FlowSpec)> = Vec::new();
    let mut seq = 0u32;
    let mut add = |churned: &mut IncrementalFluid, live: &mut Vec<_>, path: Vec<usize>, g: f64| {
        seq += 1;
        let mut spec = FlowSpec::greedy(path);
        spec.floor = g;
        let key = (u64::from(seq % 5), seq);
        live.push((churned.add_flow(spec.clone(), key), key, spec));
    };
    for i in 0..SERVERS {
        add(
            &mut churned,
            &mut live,
            vec![i, tor + i % 4, core],
            1.0 + (i % 7) as f64,
        );
    }
    add(&mut churned, &mut live, vec![small, small + 1], 5.0);
    add(&mut churned, &mut live, vec![small + 1], 3.0);
    check_solve(&mut churned, &live, &caps);
    let late = |k: usize| SERVERS - 1 - k % LATE;
    // Widening the link that saturates last moves only the last round: it
    // is always resumed. The ops after it may move any round.
    let mut reused = 0;
    for op in std::iter::once(&LateOp::SetCap(0, 1.1)).chain(ops) {
        match *op {
            LateOp::Add(k, g) => {
                let l = late(k);
                add(&mut churned, &mut live, vec![l, tor + l % 4, core], g);
            }
            LateOp::Remove(k) => {
                let on_late: Vec<usize> = (0..live.len())
                    .filter(|&j| live[j].2.path[0] >= SERVERS - LATE && live[j].2.path[0] < SERVERS)
                    .collect();
                if let Some(&j) = on_late.get(k % on_late.len().max(1)) {
                    churned.remove_flow(live.swap_remove(j).0);
                }
            }
            LateOp::SetCap(k, f) => {
                let l = late(k);
                caps[l] *= f;
                churned.set_link_cap(l, caps[l]);
            }
            LateOp::Bridge(k) => {
                let l = late(k);
                add(
                    &mut churned,
                    &mut live,
                    vec![small, l, tor + l % 4, core],
                    2.0,
                );
            }
            LateOp::Reexpand(group, m, k, g) => {
                let specs = (0..m).map(|j| {
                    let l = late(k + j);
                    let mut spec = FlowSpec::greedy(vec![l, tor + l % 4, core]);
                    spec.floor = g;
                    spec
                });
                reexpand(&mut churned, &mut live, group, specs);
            }
        }
        reused += check_solve(&mut churned, &live, &caps).rounds_reused;
    }
    assert!(reused > 0, "no solve resumed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Churn confined to the server links that saturate last — flows
    /// added and removed, new capacities, a small component merged in —
    /// resumes solves late in their fills, and every one stays bit-equal
    /// to a fresh solver.
    #[test]
    fn late_churn_resumes_bit_equal_to_fresh(
        spread in 3.0f64..40.0,
        ops in prop::collection::vec(arb_late_op(), 1..8),
    ) {
        run_late(spread, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A churned incremental solver is bit-equal to a fresh one and agrees
    /// with a from-scratch global solve across random churn.
    #[test]
    fn churned_matches_fresh_and_global(recipe in arb_churn()) {
        run(&recipe);
    }
}
