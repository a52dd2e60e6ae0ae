//! Microbenchmarks of the Eq. 1 / footnote-7 cut pricing — the inner loop
//! of every reservation decision.

use cm_core::cut::CutModel;
use cm_core::model::{PipeModel, VocModel};
use cm_workloads::bing_like_pool;
use criterion::{criterion_main, Criterion};
use std::hint::black_box;

fn bench_cuts(c: &mut Criterion) {
    let pool = bing_like_pool(42);
    let tag = pool
        .tenants()
        .iter()
        .max_by_key(|t| t.total_vms())
        .unwrap()
        .clone();
    let voc = VocModel::from_tag(&tag);
    let pipe = PipeModel::from_tag_idealized(&tag);
    // A half-in placement of the 732-VM tenant.
    let tag_inside: Vec<u32> = tag.placeable_counts().iter().map(|&s| s / 2).collect();
    let pipe_inside: Vec<u32> = (0..pipe.num_vms()).map(|i| i % 2).collect();

    c.bench_function("cut/tag_eq1_732vm", |b| {
        b.iter(|| black_box(tag.cut_kbps(black_box(&tag_inside))))
    });
    c.bench_function("cut/voc_footnote7_732vm", |b| {
        b.iter(|| black_box(voc.cut_kbps(black_box(&tag_inside))))
    });
    c.bench_function("cut/pipe_732vm", |b| {
        b.iter(|| black_box(pipe.cut_kbps(black_box(&pipe_inside))))
    });
    c.bench_function("cut/tag_coloc_saving", |b| {
        b.iter(|| black_box(tag.coloc_saving_kbps(black_box(&tag_inside), black_box(&tag_inside))))
    });
}

/// Runs the cut-math benchmarks; `criterion_main!` calls it.
pub fn benches() {
    bench_cuts(&mut Criterion::default().configure_from_args());
}

criterion_main!(benches);
