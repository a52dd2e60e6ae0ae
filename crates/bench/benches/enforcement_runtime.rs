//! Runtime of one enforcement cycle (GP + fluid RA) for the Fig. 13
//! scenario — what a real ElasticSwitch recomputes every ~100 ms.

use cm_enforce::{fig13_throughput, fig4_throughput, GuaranteeModel};
use criterion::{criterion_main, Criterion};
use std::hint::black_box;

fn bench_enforcement(c: &mut Criterion) {
    c.bench_function("enforce/fig13_5senders_tag", |b| {
        b.iter(|| black_box(fig13_throughput(black_box(5), GuaranteeModel::Tag)))
    });
    c.bench_function("enforce/fig4_tag", |b| {
        b.iter(|| {
            black_box(fig4_throughput(
                black_box(5),
                black_box(5),
                GuaranteeModel::Tag,
            ))
        })
    });
}

/// Runs the enforcement-runtime benchmarks; `criterion_main!` calls it.
pub fn benches() {
    bench_enforcement(&mut Criterion::default().configure_from_args());
}

criterion_main!(benches);
