//! §5.1 "Algorithm runtime": CM and Oktopus are comparable (sub-second for
//! hundreds of VMs); SecondNet-style pipe placement is orders of magnitude
//! slower. The paper reports CM (Python) under 200 ms for 100s of VMs and
//! seconds at 1000 VMs; SecondNet "tens of minutes" for large tenants.
//!
//! Every algorithm — CM and its ablations, OVOC, VC, SecondNet — runs
//! through the same harness via the unified `Placer` trait, so the numbers
//! are apples-to-apples by construction and a new placer is benchmarked by
//! adding one line to `placers()`.

use cm_baselines::{OktopusVcPlacer, OvocPlacer, SecondNetPlacer};
use cm_core::placement::{CmConfig, CmPlacer, Placer};
use cm_topology::{Topology, TreeSpec};
use cm_workloads::apps;
use criterion::{criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// A representative TAG of roughly `n` VMs: three tiers plus a DB-style
/// self-loop, sized n/3 each.
fn tenant(n: u32) -> cm_core::Tag {
    let per = (n / 3).max(1);
    apps::three_tier(per, per, n - 2 * per, 200_000, 50_000, 20_000)
}

/// Every placement algorithm under benchmark, behind the one trait, paired
/// with the largest tenant it is benched at (`None` = no cap).
fn placers() -> Vec<(Box<dyn Placer>, Option<u32>)> {
    vec![
        (Box::new(CmPlacer::new(CmConfig::cm())), None),
        (Box::new(CmPlacer::new(CmConfig::coloc_only())), None),
        (Box::new(CmPlacer::new(CmConfig::balance_only())), None),
        (Box::new(OvocPlacer::new()), None),
        (Box::new(OktopusVcPlacer::new()), None),
        // SecondNet at 732 VMs is the paper's "tens of minutes" data point;
        // bench the pipe placer only up to 200 VMs.
        (Box::new(SecondNetPlacer::new()), Some(200)),
    ]
}

fn bench_placement(c: &mut Criterion) {
    let spec = TreeSpec::paper_datacenter();
    let mut g = c.benchmark_group("placement_runtime");
    g.sample_size(10);
    for &n in &[57u32, 200, 732] {
        let tag = tenant(n);
        for (mut placer, max_vms) in placers() {
            if max_vms.is_some_and(|cap| n > cap) {
                continue;
            }
            g.bench_with_input(BenchmarkId::new(placer.name(), n), &tag, |b, tag| {
                b.iter_batched(
                    || Topology::build(&spec),
                    |mut topo| {
                        black_box(placer.place(&mut topo, tag)).ok();
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    g.finish();
}

/// Runs the placement-runtime benchmarks; `criterion_main!` calls it.
pub fn benches() {
    bench_placement(&mut Criterion::default().configure_from_args());
}

criterion_main!(benches);
