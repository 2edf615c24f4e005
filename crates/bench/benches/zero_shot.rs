//! T2 benches: zero-shot evaluation throughput — single inference, one
//! model over the whole collection, and the full twelve-model Table II.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chipvqa_bench::run_table2_on;
use chipvqa_core::ChipVqa;
use chipvqa_eval::harness::{evaluate, EvalOptions};
use chipvqa_eval::ParallelExecutor;
use chipvqa_models::{ModelZoo, VlmPipeline};

fn bench_zero_shot(c: &mut Criterion) {
    let bench = ChipVqa::standard();
    let gpt = VlmPipeline::new(ModelZoo::gpt4o());

    let mut group = c.benchmark_group("zero_shot");
    group.sample_size(10);

    let q = &bench.questions()[0];
    group.bench_function("single_inference", |b| {
        b.iter(|| black_box(gpt.infer(q, 1, 0)))
    });

    group.bench_function("gpt4o_full_142", |b| {
        b.iter(|| black_box(evaluate(&gpt, &bench, EvalOptions::default())))
    });

    let exec = ParallelExecutor::new(1);
    group.bench_function("table2_all_12_models", |b| {
        b.iter(|| black_box(run_table2_on(&exec, 1, true)))
    });

    group.finish();
}

criterion_group!(benches, bench_zero_shot);
criterion_main!(benches);
