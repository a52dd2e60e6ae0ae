//! Differential property test for [`IncrementalFluid`]: random add/remove
//! churn sequences with interleaved solves, checked three ways every
//! solve —
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

use cm_enforce::{FlowSpec, Fluid, IncrementalFluid};
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
    /// Solve and run the differential checks.
    Solve,
}

#[derive(Debug, Clone)]
struct ChurnRecipe {
    caps: Vec<f64>,
    ops: Vec<Op>,
}

fn arb_op(links: usize) -> impl Strategy<Value = Op> {
    (
        0u8..8,
        1u64..(1 << links as u64),
        0u8..3,
        10.0f64..500.0,
        0.0f64..300.0,
        0usize..64,
    )
        .prop_map(|(which, path_mask, kind, demand, guarantee, k)| {
            match which {
                // Half the stream adds flows, a quarter removes, a
                // quarter solves-and-checks.
                0..=3 => Op::Add {
                    path_mask,
                    demand: match kind {
                        0 => None,
                        1 => Some(demand),
                        _ => Some(demand.min(guarantee * 0.5 + 1.0)),
                    },
                    guarantee,
                },
                4..=5 => Op::Remove(k),
                _ => Op::Solve,
            }
        })
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
/// surviving flow set (`live`: stable id, canonical key, spec).
fn check_solve(churned: &mut IncrementalFluid, live: &[(u32, (u64, u32), FlowSpec)], caps: &[f64]) {
    churned.solve();
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
}

/// Run the churn, checking after every solve.
fn run(recipe: &ChurnRecipe) {
    let mut base = Fluid::new();
    for &c in &recipe.caps {
        base.link(c);
    }
    let mut churned = IncrementalFluid::new(base);
    let mut live: Vec<(u32, (u64, u32), FlowSpec)> = Vec::new();
    let mut seq = 0u32;
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
            Op::Solve => check_solve(&mut churned, &live, &recipe.caps),
        }
    }
    // Always end on a checked solve so trailing churn is covered.
    check_solve(&mut churned, &live, &recipe.caps);
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
