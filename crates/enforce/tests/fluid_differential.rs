//! Differential property test: the rewritten indexed [`Fluid::rates`]
//! against the pre-rewrite implementation ([`rates_reference`], kept
//! verbatim in the dev-only `cm-testkit`), on random networks — and the
//! same two oracles on the hand-built networks of `fluid.rs`'s unit tests.
//!
//! Weighted max-min with floors has a *unique* solution, so the two
//! algorithms must agree wherever the reference is correct; on top of the
//! comparison, every allocation the new solver produces is checked against
//! the definition itself — floors respected, caps respected, work
//! conserving, and the weighted-fairness KKT condition (every flow below
//! demand holds the maximal fill level on some saturated link).

use cm_enforce::{FlowSpec, Fluid};
use cm_testkit::fluid::{rates_reference, verify_max_min};
use proptest::prelude::*;

/// Recipe for one random flow: which links it crosses (as a bitmask over
/// the network's links), its demand class and its guarantee.
#[derive(Debug, Clone)]
struct FlowRecipe {
    path_mask: u64,
    /// Demand in kbps; `None` = greedy.
    demand: Option<f64>,
    guarantee: f64,
}

#[derive(Debug, Clone)]
struct NetRecipe {
    caps: Vec<f64>,
    flows: Vec<FlowRecipe>,
}

fn arb_net() -> impl Strategy<Value = NetRecipe> {
    (2usize..7, 1usize..14).prop_flat_map(|(links, flows)| {
        (
            prop::collection::vec(50.0f64..2000.0, links..=links),
            prop::collection::vec(
                (
                    1u64..(1 << links as u64),
                    0u8..3,
                    10.0f64..500.0,
                    0.0f64..300.0,
                ),
                flows..=flows,
            ),
        )
            .prop_map(|(caps, raw)| NetRecipe {
                caps,
                flows: raw
                    .into_iter()
                    .map(|(path_mask, kind, demand, guarantee)| FlowRecipe {
                        path_mask,
                        // Mix of greedy flows (the common case), moderate
                        // finite demands, and demands below the guarantee.
                        demand: match kind {
                            0 => None,
                            1 => Some(demand),
                            _ => Some(demand.min(guarantee * 0.5 + 1.0)),
                        },
                        guarantee,
                    })
                    .collect(),
            })
    })
}

/// Instantiate the recipe. When `admissible` is set, guarantees are scaled
/// down so that per-link floor sums fit the capacities (the regime the
/// placement layer establishes); otherwise raw floors may oversubscribe
/// and exercise the defensive scaling path.
fn build(recipe: &NetRecipe, admissible: bool) -> Fluid {
    let mut scale = 1.0f64;
    if admissible {
        for (l, &cap) in recipe.caps.iter().enumerate() {
            let floor_sum: f64 = recipe
                .flows
                .iter()
                .filter(|f| f.path_mask & (1 << l) != 0)
                .map(|f| f.guarantee)
                .sum();
            if floor_sum > cap {
                scale = scale.min(0.95 * cap / floor_sum);
            }
        }
    }
    let mut net = Fluid::new();
    let links: Vec<usize> = recipe.caps.iter().map(|&c| net.link(c)).collect();
    for f in &recipe.flows {
        let path: Vec<usize> = links
            .iter()
            .enumerate()
            .filter(|&(l, _)| f.path_mask & (1 << l) != 0)
            .map(|(_, &id)| id)
            .collect();
        let mut spec = FlowSpec::greedy(path).with_guarantee(f.guarantee * scale);
        if let Some(d) = f.demand {
            spec.demand = d;
        }
        net.flow(spec);
    }
    net
}

fn assert_close(a: &[f64], b: &[f64], what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= 1e-6 * (1.0 + y.abs()),
            "{what}: flow {i}: indexed {x} vs reference {y}\n  indexed: {a:?}\n  reference: {b:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Admissible floors: the reference is exact here, so the indexed
    /// solver must match it AND satisfy the full max-min definition.
    #[test]
    fn indexed_matches_reference_and_is_max_min(recipe in arb_net()) {
        let net = build(&recipe, true);
        let rates = net.rates();
        let reference = rates_reference(&net);
        assert_close(&rates, &reference, "admissible floors");
        verify_max_min(&net, &rates).unwrap_or_else(|e| {
            panic!("verify failed: {e}\n  recipe: {recipe:?}\n  rates: {rates:?}")
        });
        prop_assert!(net.is_work_conserving(&rates));
    }

    /// Oversubscribed floors exercise the defensive proportional-scaling
    /// phase; the two implementations share it and must still agree, and
    /// capacities must never be exceeded.
    #[test]
    fn oversubscribed_floors_still_agree(recipe in arb_net()) {
        let net = build(&recipe, false);
        let rates = net.rates();
        let reference = rates_reference(&net);
        assert_close(&rates, &reference, "oversubscribed floors");
        // Caps hold even when floors had to be scaled down.
        let mut used = vec![0.0f64; net.num_links()];
        for (f, &r) in net.flows().iter().zip(&rates) {
            for &l in &f.path {
                used[l] += r;
            }
        }
        for (l, &u) in used.iter().enumerate() {
            prop_assert!(
                u <= net.link_cap(l) * (1.0 + 1e-6) + 1e-6,
                "link {l}: {u} > cap {}", net.link_cap(l)
            );
        }
        prop_assert!(net.is_work_conserving(&rates));
    }
}

/// A network of one link per capacity in `caps` carrying `flows`.
fn network(caps: &[f64], flows: impl IntoIterator<Item = FlowSpec>) -> Fluid {
    let mut net = Fluid::new();
    for &c in caps {
        net.link(c);
    }
    for f in flows {
        net.flow(f);
    }
    net
}

/// `fluid.rs`'s `floors_are_respected`, `sub_kbps_guarantees_share_proportionally`
/// and `multihop_bottleneck` networks satisfy the max-min definition.
#[test]
fn unit_test_networks_are_max_min() {
    let floors = network(
        &[1000.0],
        std::iter::once(FlowSpec::greedy(vec![0]).with_guarantee(450.0))
            .chain((0..5).map(|_| FlowSpec::greedy(vec![0]))),
    );
    let sub_kbps = network(
        &[0.9],
        [
            FlowSpec::greedy(vec![0]).with_guarantee(0.4),
            FlowSpec::greedy(vec![0]).with_guarantee(0.2),
        ],
    );
    let multihop = network(
        &[1000.0, 100.0],
        [FlowSpec::greedy(vec![0, 1]), FlowSpec::greedy(vec![0])],
    );
    for net in [floors, sub_kbps, multihop] {
        let r = net.rates();
        verify_max_min(&net, &r).unwrap();
    }
}

/// `fluid.rs`'s `termination_is_exact_on_a_long_freeze_cascade` network:
/// max-min, and equal to the reference allocation.
#[test]
fn long_freeze_cascade_matches_the_oracles() {
    let caps: Vec<f64> = (0..60).map(|i| 1000.0 + 10.0 * i as f64).collect();
    let net = network(
        &caps,
        (0..60)
            .map(|l| FlowSpec::greedy(vec![l]).with_guarantee(100.0 + l as f64))
            .chain(std::iter::once(FlowSpec::greedy((0..60).collect()))),
    );
    let r = net.rates();
    verify_max_min(&net, &r).unwrap();
    // And it matches the reference on this instance.
    let reference = rates_reference(&net);
    for (a, b) in r.iter().zip(&reference) {
        assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "{a} vs {b}");
    }
}

/// `fluid.rs`'s `kernel_on_one_component_matches_a_network_holding_only_it`
/// pins the kernel on component A bit for bit to `rates` on a network
/// holding only A; here that network's allocation meets the reference.
#[test]
fn kernel_subset_network_matches_the_reference() {
    let mut capped = FlowSpec::greedy(vec![0]).with_guarantee(50.0);
    capped.demand = 120.0;
    let a_specs = [
        FlowSpec::greedy(vec![0, 2]).with_guarantee(100.0),
        FlowSpec::greedy(vec![2, 3]).with_guarantee(300.0),
        capped,
        FlowSpec::greedy(vec![3]).with_guarantee(250.0),
        FlowSpec::greedy(vec![0, 3]),
    ];
    let only_a = network(
        &[900.0, 250.0, 700.0, 400.0, 650.0],
        a_specs.into_iter().rev(),
    );
    let got = only_a.rates();
    assert!(got[1] < 250.0, "phase-1 scaling engaged: {got:?}");
    for (got, reference) in got.iter().zip(rates_reference(&only_a)) {
        assert!(
            (got - reference).abs() < 1e-6 * (1.0 + reference.abs()),
            "{got} vs reference {reference}"
        );
    }
}
