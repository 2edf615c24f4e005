//! Hot-path benches for the compute side of the perf trajectory:
//! raster primitives, per-substrate render time, per-category
//! generation, patch-grid perception, cache-hit replay, executor
//! worker scaling, and scaled build-vs-stream — everything the
//! streamed `table2 --scale N` grid spends its time in.
//!
//! Run with `CRITERION_JSON=… cargo bench -p chipvqa-bench --bench
//! hotpath` to append machine-readable trend lines (the source of
//! `BENCH_hotpath.json`). Set `CHIPVQA_HOTPATH_SCALE=10,100` (any
//! comma-separated scale list) to additionally take one-shot macro
//! timings of the full streamed `table2` grid at those scales — these
//! are minutes-long whole-grid runs, so they are opt-in and measured
//! once rather than sampled.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use chipvqa_bench::run_table2_on;
use chipvqa_core::{ChipVqa, DatasetSpec, BASE_SIZE};
use chipvqa_eval::harness::EvalOptions;
use chipvqa_eval::{AnswerCache, ParallelExecutor};
use chipvqa_logic::builders::full_adder;
use chipvqa_logic::render::{
    render_kmap, render_schematic, render_state_table, render_truth_table, render_waveform,
};
use chipvqa_logic::{StateTable, TruthTable};
use chipvqa_models::encoder::perceive;
use chipvqa_models::{ModelZoo, VlmPipeline};
use chipvqa_physd::render::render_route_comparison;
use chipvqa_physd::steiner::{rsmt, star_tree};
use chipvqa_physd::Point;
use chipvqa_raster::Pixmap;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_pixmap_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_pixmap");
    group.sample_size(20);

    group.bench_function("fill_rect_300x200", |b| {
        let mut img = Pixmap::new(400, 300);
        b.iter(|| {
            img.fill_rect(40, 40, 300, 200, 96);
            black_box(img.pixels()[0])
        })
    });
    group.bench_function("draw_line_axis", |b| {
        let mut img = Pixmap::new(400, 300);
        b.iter(|| {
            img.draw_line(10, 150, 390, 150, 3, 0);
            img.draw_line(200, 10, 200, 290, 3, 0);
            black_box(img.pixels()[0])
        })
    });
    group.bench_function("draw_line_diagonal", |b| {
        let mut img = Pixmap::new(400, 300);
        b.iter(|| {
            img.draw_line(10, 10, 390, 290, 2, 0);
            black_box(img.pixels()[0])
        })
    });
    group.bench_function("fill_circle_r60", |b| {
        let mut img = Pixmap::new(400, 300);
        b.iter(|| {
            img.fill_circle(200, 150, 60, 32);
            black_box(img.pixels()[0])
        })
    });
    group.bench_function("draw_text_2x", |b| {
        let mut img = Pixmap::new(400, 300);
        b.iter(|| black_box(img.draw_text(8, 8, "VDD RAIL: 1.8V nominal swing", 2, 0)))
    });
    group.bench_function("downsample_4", |b| {
        let mut img = Pixmap::new(640, 480);
        img.fill_rect(100, 100, 400, 260, 64);
        img.draw_text(20, 20, "downsample substrate", 2, 0);
        b.iter(|| black_box(img.downsample(4)))
    });
    group.bench_function("ink_pixels_640x480", |b| {
        let mut img = Pixmap::new(640, 480);
        img.fill_rect(100, 100, 400, 260, 64);
        b.iter(|| black_box(img.ink_pixels()))
    });
    group.bench_function("to_ascii_cell8", |b| {
        let mut img = Pixmap::new(640, 480);
        img.fill_rect(100, 100, 400, 260, 64);
        img.draw_text(20, 20, "ascii substrate", 2, 0);
        b.iter(|| black_box(img.to_ascii(8)))
    });

    group.finish();
}

fn bench_mark_renderers(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_render");
    group.sample_size(20);

    let tt = TruthTable::new(
        vec!['a', 'b', 'c'],
        vec![false, true, true, false, true, false, false, true],
    );
    group.bench_function("truth_table", |b| {
        b.iter(|| black_box(render_truth_table(&tt, "F")))
    });
    group.bench_function("kmap", |b| b.iter(|| black_box(render_kmap(&tt))));
    let nl = full_adder();
    group.bench_function("schematic_full_adder", |b| {
        b.iter(|| black_box(render_schematic(&nl)))
    });
    let st = StateTable::paper_example();
    group.bench_function("state_table", |b| {
        b.iter(|| black_box(render_state_table(&st)))
    });
    let clk = [true, false].repeat(8);
    let data = [true, true, false, false].repeat(4);
    let signals: Vec<(&str, &[bool])> = vec![("clk", &clk), ("d", &data)];
    group.bench_function("waveform", |b| {
        b.iter(|| black_box(render_waveform(&signals)))
    });
    // the paper's "which routing topology has lower cost?" figure, as
    // the physical generator draws it: Steiner tree beside star
    let pins = [(1, 2), (12, 3), (7, 14), (15, 9), (4, 11)].map(|(x, y)| Point::new(x, y));
    let (smt, star) = (rsmt(&pins), star_tree(&pins));
    group.bench_function("route_comparison", |b| {
        b.iter(|| black_box(render_route_comparison(&smt, &star, &pins)))
    });

    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    use chipvqa_core::gen;
    let mut group = c.benchmark_group("hotpath_gen");
    group.sample_size(10);

    let seed = 0xC41Fu64;
    group.bench_function("digital_replica", |b| {
        b.iter(|| black_box(gen::digital::generate_replica(seed, 1)))
    });
    group.bench_function("analog_replica", |b| {
        b.iter(|| black_box(gen::analog::generate_replica(seed, 1)))
    });
    group.bench_function("architecture_replica", |b| {
        b.iter(|| black_box(gen::architecture::generate_replica(seed, 1)))
    });
    group.bench_function("manufacturing_replica", |b| {
        b.iter(|| black_box(gen::manufacturing::generate_replica(seed, 1)))
    });
    group.bench_function("physical_replica", |b| {
        b.iter(|| black_box(gen::physical::generate_replica(seed, 1)))
    });

    group.finish();
}

fn bench_encoder(c: &mut Criterion) {
    let bench = ChipVqa::standard();
    let mut group = c.benchmark_group("hotpath_encode");
    group.sample_size(10);

    for res in [336usize, 1024] {
        let mut profile = ModelZoo::gpt4o();
        profile.encoder_resolution = res;
        group.bench_with_input(
            BenchmarkId::new("perceive_142", res),
            &profile,
            |b, profile| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(7);
                    let mut seen = 0usize;
                    for q in bench.iter() {
                        seen += perceive(profile, q, 1, &mut rng).perceived.len();
                    }
                    black_box(seen)
                })
            },
        );
    }

    group.finish();
}

fn bench_executor_scaling(c: &mut Criterion) {
    let bench = ChipVqa::standard();
    let pipe = VlmPipeline::new(ModelZoo::gpt4o());
    let mut group = c.benchmark_group("hotpath_executor");
    group.sample_size(10);

    for workers in [1usize, 2, 4, 8] {
        let exec = ParallelExecutor::new(workers);
        group.bench_with_input(
            BenchmarkId::new("evaluate_142", workers),
            &exec,
            |b, exec| b.iter(|| black_box(exec.evaluate(&pipe, &bench, EvalOptions::default()))),
        );
    }

    // warm cache: populate once, then measure pure replay + judging
    let cache = Arc::new(AnswerCache::new());
    let exec = ParallelExecutor::new(4).with_cache(Arc::clone(&cache));
    exec.evaluate(&pipe, &bench, EvalOptions::default());
    group.bench_function("cache_hit_142", |b| {
        b.iter(|| black_box(exec.evaluate(&pipe, &bench, EvalOptions::default())))
    });

    group.finish();
}

fn bench_build_vs_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_stream");
    group.sample_size(10);

    let spec = DatasetSpec::scaled(4);
    group.bench_function("build_scale4", |b| b.iter(|| black_box(spec.build())));
    group.bench_function("stream_scale4", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for shard in spec.stream(BASE_SIZE) {
                n += black_box(shard).len();
            }
            black_box(n)
        })
    });

    group.finish();
}

/// One-shot macro timings of the full streamed `table2 --scale N` grid
/// (all twelve zoo models, standard and challenge columns). Opt-in via
/// `CHIPVQA_HOTPATH_SCALE` because each run takes minutes; the recorded
/// `hotpath_macro/streamed_table2/N` lines anchor the committed ≥2×
/// speedup ratio in `BENCH_hotpath.json`.
fn bench_streamed_table2_macro(_c: &mut Criterion) {
    let Ok(scales) = std::env::var("CHIPVQA_HOTPATH_SCALE") else {
        return;
    };
    if !std::env::args().any(|a| a == "--bench") {
        return; // smoke mode: never run minutes-long grids under cargo test
    }
    for scale in scales
        .split(',')
        .filter_map(|s| s.trim().parse::<usize>().ok())
    {
        let start = Instant::now();
        let table = run_table2_on(&ParallelExecutor::new(4), scale, true);
        let elapsed = start.elapsed();
        black_box(&table);
        criterion::export_measurement(&format!("hotpath_macro/streamed_table2/{scale}"), elapsed);
    }
}

criterion_group!(
    benches,
    bench_pixmap_primitives,
    bench_mark_renderers,
    bench_generators,
    bench_encoder,
    bench_executor_scaling,
    bench_build_vs_stream,
    bench_streamed_table2_macro,
);
criterion_main!(benches);
