//! Regenerates Table II: zero-shot pass@1 of all twelve models on the
//! standard (with-choice) and challenge (no-choice) collections.
//!
//! `--scale N` runs the same grid on an N×-scaled [`DatasetSpec`]
//! collection. Every run, scale 1 included, streams shard-by-shard
//! through the parallel executor (`--workers W`, default 4). The
//! paper-reference comparison applies only at scale 1, where the
//! collection is the paper's.
//!
//! `--store DIR` backs the executor's answer cache with a persistent
//! [`AnswerStore`] at DIR, at any scale: the
//! first run populates it, every later run warm-starts from it —
//! byte-identical table, no inference. Runs on one DIR may overlap, as
//! fleet workers do: each appends only to segments it created. `--trace
//! FILE` exports the run's telemetry (including `store.*` traffic) as
//! JSON lines to FILE.
//!
//! `--fleet DIR` joins (or starts) a crash-tolerant multi-process fleet
//! at DIR: any number of `table2 --scale N --fleet DIR` processes share
//! the streamed run's grid through lease files and one shared answer
//! store — one claim per 16-question spec shard, every model in both
//! columns, so no fleet process builds a collection — stealing the
//! leases of killed workers and healing their quarantined shards. When
//! every shard is committed, `table2 merge --fleet DIR --scale N` folds
//! the records into the canonical table — byte-identical to a
//! single-process run, generating nothing — refusing a mismatched spec
//! fingerprint or a directory of another fleet format (exit 4).
//! `--report-json FILE` writes the table (with the run-metadata
//! `cache_stats` nulled) as JSON for byte comparison, outcome by outcome
//! with no copy of the table, inside a `report.write` span. A `--trace`
//! file ends with one `telemetry.snapshot` event holding every counter
//! and gauge of the run.
//!
//! `--chaos RATE` (scaled runs) places the whole grid under a seeded
//! fault supervisor: every fault kind injected at RATE, seed taken from
//! `--chaos-seed` (default: `CHIPVQA_CHAOS_SEED`, then 20260806). Chaos
//! runs stream by default; `--batch` evaluates the same supervised grid
//! over fully materialized benches — the two produce byte-identical
//! `--report-json` files, which is exactly what the `stream-chaos` CI
//! job `cmp`s.
//!
//! Conflicting mode flags are refused up front with a structured
//! JSON error on stderr (`{"error":"flag_conflict",...}`) instead of
//! last-flag-wins or silent ignoring: `--store` with `--fleet` (the
//! fleet manages its own shared store), `--report-json` on a fleet
//! *worker* (only `merge` produces the table; workers would silently
//! drop the flag), `--chaos` with `--fleet` or `--store`
//! (supervised runs are a differential fixture, not a durability mode),
//! and `--batch` or `--chaos-seed` without `--chaos` (both only qualify
//! a chaos run: unsupervised runs already stream and inject no faults).
//!
//! Exit codes: 0 ok · 1 store/trace/report i/o failure · 2 usage ·
//! 3 table printed with a DEGRADED RUN footer · 4 fleet merge refused ·
//! 5 conflicting mode flags.

use std::sync::Arc;

use chipvqa_bench::{
    paper_reference, run_table2_fleet_merge, run_table2_fleet_worker, run_table2_on,
};
use chipvqa_core::DatasetSpec;
use chipvqa_eval::fleet::FleetConfig;
use chipvqa_eval::report::Table2;
use chipvqa_eval::{
    AnswerCache, AnswerStore, FaultPlan, ParallelExecutor, StoreConfig, Supervisor,
};
use chipvqa_telemetry::{JsonlSink, Telemetry};

/// Exit code for a run that ends with a DEGRADED RUN footer.
const EXIT_DEGRADED: i32 = 3;
/// Exit code for a refused fleet merge (mismatched identity, incomplete).
const EXIT_MERGE_REFUSED: i32 = 4;
/// Exit code for conflicting mode flags (refused before any work).
const EXIT_FLAG_CONFLICT: i32 = 5;

/// Refuses a run whose flags request contradictory modes: a structured
/// JSON error on stderr, exit code 5, nothing evaluated.
fn flag_conflict(detail: &str) -> ! {
    let body = serde_json::Value::Obj(vec![
        (
            "error".to_string(),
            serde_json::Value::Str("flag_conflict".to_string()),
        ),
        (
            "detail".to_string(),
            serde_json::Value::Str(detail.to_string()),
        ),
    ]);
    eprintln!(
        "{}",
        serde_json::to_string(&body).expect("value serializes")
    );
    std::process::exit(EXIT_FLAG_CONFLICT);
}

fn main() {
    let mut merge_mode = false;
    let mut scale = 1usize;
    let mut workers = 4usize;
    let mut store_dir: Option<std::path::PathBuf> = None;
    let mut fleet_dir: Option<std::path::PathBuf> = None;
    let mut trace_file: Option<std::path::PathBuf> = None;
    let mut report_json: Option<std::path::PathBuf> = None;
    let mut chaos_rate: Option<f64> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut batch_mode = false;
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("merge") {
        merge_mode = true;
        args.next();
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--scale takes a positive integer");
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--workers takes a positive integer");
            }
            "--store" => {
                store_dir = Some(args.next().expect("--store takes a directory").into());
            }
            "--fleet" => {
                fleet_dir = Some(args.next().expect("--fleet takes a directory").into());
            }
            "--trace" => {
                trace_file = Some(args.next().expect("--trace takes a file path").into());
            }
            "--report-json" => {
                report_json = Some(args.next().expect("--report-json takes a file path").into());
            }
            "--chaos" => {
                chaos_rate = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|r: &f64| (0.0..=0.16).contains(r))
                        .expect("--chaos takes a per-kind fault rate in [0, 0.16]"),
                );
            }
            "--chaos-seed" => {
                chaos_seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--chaos-seed takes an unsigned integer"),
                );
            }
            "--batch" => {
                batch_mode = true;
            }
            other => {
                eprintln!(
                    "unknown argument `{other}` \
                     (usage: table2 [merge] [--scale N] [--workers W] [--store DIR] \
                     [--fleet DIR] [--trace FILE] [--report-json FILE] \
                     [--chaos RATE] [--chaos-seed S] [--batch])"
                );
                std::process::exit(2);
            }
        }
    }
    if merge_mode && fleet_dir.is_none() {
        eprintln!("table2 merge requires --fleet DIR");
        std::process::exit(2);
    }
    if fleet_dir.is_some() && store_dir.is_some() {
        flag_conflict(
            "--store cannot be combined with --fleet: the fleet manages its own \
             shared answer store inside the fleet directory",
        );
    }
    if fleet_dir.is_some() && !merge_mode && report_json.is_some() {
        flag_conflict(
            "--report-json is a merge-side flag: fleet workers produce no table; \
             run `table2 merge --fleet DIR --report-json FILE` instead",
        );
    }
    if chaos_rate.is_some() && fleet_dir.is_some() {
        flag_conflict(
            "--chaos cannot be combined with --fleet: supervised chaos runs are a \
             single-process differential fixture; fleet durability has its own \
             chaos harness (tests/fleet_chaos.rs)",
        );
    }
    if chaos_rate.is_some() && store_dir.is_some() {
        flag_conflict(
            "--chaos cannot be combined with --store: faulted answers must never \
             be persisted, so supervised runs always take the uncached path",
        );
    }
    if (batch_mode || chaos_seed.is_some()) && chaos_rate.is_none() {
        flag_conflict(
            "--batch and --chaos-seed only qualify a --chaos run: unsupervised \
             runs already stream and inject no faults; add --chaos RATE",
        );
    }

    let sink = trace_file.as_ref().map(|_| Arc::new(JsonlSink::new()));
    let telemetry = match &sink {
        Some(sink) => Telemetry::builder().sink(Arc::clone(sink)).build(),
        None => Telemetry::disabled(),
    };

    if let (Some(dir), false) = (&fleet_dir, merge_mode) {
        let started = std::time::Instant::now();
        let config = FleetConfig::default();
        let outcome = run_table2_fleet_worker(dir, scale, workers, &config, telemetry.clone())
            .unwrap_or_else(|e| {
                eprintln!("fleet worker failed: {e}");
                std::process::exit(1);
            });
        println!(
            "fleet worker pid {} done in {:.3}s: {} shards evaluated ({} healed), \
             {} quarantined, {} leases stolen ({} lost), {} swept, {} duplicate commits",
            std::process::id(),
            started.elapsed().as_secs_f64(),
            outcome.shards_evaluated,
            outcome.shards_healed,
            outcome.shards_quarantined,
            outcome.leases_stolen,
            outcome.steals_lost,
            outcome.leases_swept,
            outcome.duplicate_commits,
        );
        println!(
            "merge with: table2 merge --fleet {} --scale {}",
            dir.display(),
            scale
        );
        write_trace(trace_file, sink, &telemetry);
        return;
    }

    let canonical = fleet_dir.is_none() && chaos_rate.is_none() && scale == 1;
    let table = match &fleet_dir {
        Some(dir) => {
            let table = run_table2_fleet_merge(dir, scale, &telemetry).unwrap_or_else(|e| {
                eprintln!("fleet merge refused: {e}");
                std::process::exit(EXIT_MERGE_REFUSED);
            });
            println!("fleet merge: {} · scale {}\n", dir.display(), scale);
            table
        }
        None => {
            let chaos = chaos_rate.map(|rate| {
                let seed = chaos_seed
                    .or_else(|| {
                        std::env::var("CHIPVQA_CHAOS_SEED")
                            .ok()
                            .and_then(|v| v.parse().ok())
                    })
                    .unwrap_or(20_260_806);
                (seed, rate)
            });
            run_grid(scale, workers, chaos, batch_mode, store_dir, &telemetry)
        }
    };
    println!("{table}");
    if canonical {
        println!("paper reference (all-column):");
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>10}",
            "Model", "repro w/", "paper w/", "repro w/o", "paper w/o"
        );
        for (name, std_ref, chal_ref) in paper_reference() {
            if let Some(row) = table.model(name) {
                println!(
                    "{:<16} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                    name,
                    row.standard.overall(),
                    std_ref,
                    row.challenge.overall(),
                    chal_ref
                );
            }
        }
        let gpt = table.model("GPT4o").expect("zoo includes GPT4o");
        println!(
            "\nGPT-4o lead over open-source mean: {:.2} (paper: ~0.20)",
            gpt.standard.overall() - table.open_source_mean("GPT4o")
        );
    }
    write_report(report_json, &table, &telemetry);
    write_trace(trace_file, sink, &telemetry);
    if table.is_degraded() {
        std::process::exit(EXIT_DEGRADED);
    }
}

/// Runs the Table II grid at `scale` on one executor configured from
/// the flags — supervised under `chaos` (seed, per-kind rate), backed
/// by the answer store at `store_dir` — printing the run header and the
/// store summary line.
fn run_grid(
    scale: usize,
    workers: usize,
    chaos: Option<(u64, f64)>,
    batch_mode: bool,
    store_dir: Option<std::path::PathBuf>,
    telemetry: &Telemetry,
) -> Table2 {
    let mut exec = ParallelExecutor::new(workers).with_telemetry(telemetry.clone());
    let shape = format!(
        "{} questions per column ({scale}x), {workers} workers",
        DatasetSpec::scaled(scale).total()
    );
    match chaos {
        Some((seed, rate)) => {
            let source = if batch_mode {
                "batch (reference)"
            } else {
                "streamed"
            };
            println!("chaos run: {shape}, seed {seed}, per-kind rate {rate}, {source}\n");
            chipvqa_eval::fault::install_quiet_panic_hook();
            exec = exec.with_supervisor(Supervisor::new(FaultPlan::uniform(seed, rate)));
        }
        None if scale > 1 => println!("scaled run: {shape}, streamed\n"),
        None => {}
    }
    let started = std::time::Instant::now();
    let Some(dir) = store_dir else {
        return run_table2_on(&exec, scale, !batch_mode);
    };
    let store_failed = |e: std::io::Error| -> ! {
        eprintln!("answer store at {} failed: {e}", dir.display());
        std::process::exit(1);
    };
    let store = AnswerStore::open_with_telemetry(&dir, StoreConfig::default(), telemetry.clone())
        .unwrap_or_else(|e| store_failed(e));
    let cache = Arc::new(AnswerCache::new().with_store(Arc::new(store)));
    let table = run_table2_on(&exec.with_cache(Arc::clone(&cache)), scale, !batch_mode);
    cache.flush_store().unwrap_or_else(|e| store_failed(e));
    let stats = cache.stats();
    println!(
        "store: {} · wall {:.3}s · warm hit-rate {:.3} ({} disk hits / {} lookups)",
        dir.display(),
        started.elapsed().as_secs_f64(),
        stats.warm_hit_rate(),
        stats.store_hits,
        stats.hits + stats.misses,
    );
    table
}

/// Writes the `--report-json` file, if one was requested
/// ([`Table2::write_report_json`]), inside a `report.write` span, so a
/// traced run shows what the writer costs on its own.
fn write_report(path: Option<std::path::PathBuf>, table: &Table2, telemetry: &Telemetry) {
    let Some(path) = path else { return };
    let written = {
        let _span = telemetry.span("report.write");
        std::fs::File::create(&path).and_then(|file| table.write_report_json(file))
    };
    if let Err(e) = written {
        eprintln!("failed to write report {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("report: {}", path.display());
}

/// Writes the captured telemetry trace (if any was requested) to disk,
/// ending it with the run's `telemetry.snapshot` event.
fn write_trace(
    path: Option<std::path::PathBuf>,
    sink: Option<Arc<JsonlSink>>,
    telemetry: &Telemetry,
) {
    if let (Some(path), Some(sink)) = (path, sink) {
        telemetry.emit_snapshot();
        if let Err(e) = sink.write_to(&path) {
            eprintln!("failed to write trace {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("trace: {} lines -> {}", sink.len(), path.display());
    }
}
