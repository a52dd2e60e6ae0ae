//! Runtime of the §3 inference pipeline (features + Louvain + AMI) on a
//! 100-VM tenant trace.

use cm_inference::{
    adjusted_mutual_information, feature_similarity, louvain, synthesize_trace, SynthConfig,
};
use cm_workloads::apps;
use criterion::{criterion_main, Criterion};
use std::hint::black_box;

fn bench_inference(c: &mut Criterion) {
    let tag = apps::three_tier(40, 40, 20, 500, 100, 50);
    let (trace, truth) = synthesize_trace(&tag, &SynthConfig::default());

    c.bench_function("inference/similarity_100vm", |b| {
        b.iter(|| black_box(feature_similarity(black_box(&trace))))
    });
    let sim = feature_similarity(&trace);
    c.bench_function("inference/louvain_100vm", |b| {
        b.iter(|| black_box(louvain(trace.num_vms(), black_box(&sim))))
    });
    let labels = louvain(trace.num_vms(), &sim);
    c.bench_function("inference/ami_100vm", |b| {
        b.iter(|| black_box(adjusted_mutual_information(black_box(&labels), &truth)))
    });
}

/// Runs the inference-runtime benchmarks; `criterion_main!` calls it.
pub fn benches() {
    bench_inference(&mut Criterion::default().configure_from_args());
}

criterion_main!(benches);
