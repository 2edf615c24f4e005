//! Traced replays of the grid workloads and the sequential reference
//! grid.
//!
//! `table2 --scale N` passes no telemetry to `run_table2_scaled`, so a
//! traced run cannot be taken from the shipped binary: `trace_grid` makes
//! the same calls `table2` makes for each workload (one
//! `evaluate_spec_stream` per model and column, through an executor
//! configured the same way) with a recording `Telemetry` attached at every
//! public seam, and wraps each call into a layer in a span of its own
//! (`bench.*`).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use chipvqa_core::gen::memo;
use chipvqa_core::{DatasetSpec, BASE_SIZE};
use chipvqa_eval::harness::{evaluate, EvalOptions};
use chipvqa_eval::report::{ModelRow, Table2};
use chipvqa_eval::{
    AnswerCache, AnswerStore, FaultPlan, ParallelExecutor, StoreConfig, Supervisor,
};
use chipvqa_models::{ModelZoo, VlmPipeline};
use chipvqa_telemetry::{MetricsSnapshot, Telemetry};
use serde_json::Value;

use crate::{num, obj, to_json};

/// The grid size every grid workload runs (the frozen-hash size).
const SCALE: usize = 10;
/// Executor workers: the producer thread plus one worker fill two CPUs.
const WORKERS: usize = 1;
/// Per-kind fault rate of `grid_chaos`.
const CHAOS_RATE: f64 = 0.05;

/// The canonical report bytes `table2 --report-json` writes: the table
/// with the run-metadata `cache_stats` nulled.
fn canonical_json(mut table: Table2) -> String {
    for row in &mut table.rows {
        row.standard.cache_stats = None;
        row.challenge.cache_stats = None;
    }
    serde_json::to_string(&table).expect("table serializes")
}

/// Runs one grid workload traced and writes its report to
/// `report_json`. `workload` is `grid_cold`, `grid_chaos` (fault seed
/// `seed`), `grid_warm_populate` (fills the empty store at `store`) or
/// `grid_warm` (restarts from it). Returns the per-layer JSON.
pub fn trace_grid(
    workload: &str,
    seed: u64,
    store: Option<&Path>,
    report_json: &Path,
) -> Result<String, String> {
    let memo_before = (memo::hits(), memo::misses());
    let tele = Telemetry::recording();
    let mut exec = ParallelExecutor::new(WORKERS).with_telemetry(tele.clone());
    let mut cache = None;
    match workload {
        "grid_cold" => {}
        "grid_chaos" => {
            chipvqa_eval::fault::install_quiet_panic_hook();
            exec = exec.with_supervisor(Supervisor::new(FaultPlan::uniform(seed, CHAOS_RATE)));
        }
        "grid_warm" | "grid_warm_populate" => {
            let dir = store.ok_or("the warm workloads need --store")?;
            let opened = {
                let _span = tele.span("bench.store_open");
                AnswerStore::open_with_telemetry(dir, StoreConfig::default(), tele.clone())
            }
            .map_err(|e| format!("answer store at {}: {e}", dir.display()))?;
            let shared = Arc::new(AnswerCache::new().with_store(Arc::new(opened)));
            exec = exec.with_cache(Arc::clone(&shared));
            cache = Some(shared);
        }
        other => return Err(format!("unknown grid workload `{other}`")),
    }

    let standard = DatasetSpec::scaled(SCALE);
    let challenge = standard.clone().with_mc_sa_ratio(0.0);
    let mut peak_in_flight = 0usize;
    let rows = ModelZoo::all()
        .into_iter()
        .map(|profile| {
            let pipe = VlmPipeline::new(profile);
            let mut column = |spec: &DatasetSpec| {
                let _span = tele.span("bench.evaluate_spec_stream");
                let (report, stats) =
                    exec.evaluate_spec_stream(&pipe, spec, BASE_SIZE, EvalOptions::default());
                peak_in_flight = peak_in_flight.max(stats.peak_in_flight);
                report
            };
            ModelRow {
                standard: column(&standard),
                challenge: column(&challenge),
            }
        })
        .collect();
    if let Some(cache) = &cache {
        let _span = tele.span("bench.store_flush");
        cache
            .flush_store()
            .map_err(|e| format!("store flush: {e}"))?;
    }
    std::fs::write(report_json, canonical_json(Table2 { rows }))
        .map_err(|e| format!("writing {}: {e}", report_json.display()))?;

    let memo_hits = memo::hits() - memo_before.0;
    let memo_misses = memo::misses() - memo_before.1;
    let snap = tele.snapshot();
    let by_leaf = spans_by_leaf(&snap);
    let span = |name: &str| by_leaf.get(name).copied().unwrap_or_default();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let secs = |ns: u64| ns as f64 / 1e9;
    let stream = span("executor.stream");
    let (cache_hit_ratio, store_stats) = match &cache {
        Some(cache) => (
            cache.stats().hit_rate(),
            cache.store().map(|s| s.stats()).unwrap_or_default(),
        ),
        None => (0.0, Default::default()),
    };
    let layers = obj(vec![
        ("gen.busy_s", num(secs(span("stream.generate").total_ns))),
        ("gen.questions", num(counter("stream.questions"))),
        (
            "gen.memo_hit_ratio",
            num(ratio(memo_hits, memo_hits + memo_misses)),
        ),
        ("models.infer_calls", num(span("inference").count as f64)),
        ("models.infer_busy_s", num(secs(span("inference").total_ns))),
        ("judge.calls", num(span("judge").count as f64)),
        ("judge.busy_s", num(secs(span("judge").total_ns))),
        // the producer's own time inside the stream is what it spends
        // blocked on the bounded channel (and joining the workers)
        ("executor.producer_wait_s", num(secs(stream.self_ns))),
        (
            "executor.worker_idle_s",
            num(secs(
                (stream.total_ns * WORKERS as u64).saturating_sub(span("stream.shard").total_ns),
            )),
        ),
        ("executor.peak_in_flight", num(peak_in_flight as f64)),
        ("cache.hit_ratio", num(cache_hit_ratio)),
        ("store.open_s", num(secs(span("bench.store_open").total_ns))),
        ("store.hits", num(store_stats.hits as f64)),
        ("store.appends", num(store_stats.inserts as f64)),
        (
            "store.flush_s",
            num(secs(span("bench.store_flush").total_ns)),
        ),
        ("store.bytes", num(store_stats.bytes as f64)),
        ("supervisor.faults_injected", num(counter("fault.injected"))),
        ("supervisor.retries", num(counter("supervisor.retry"))),
        (
            "supervisor.breaker_shed",
            num(counter("stream.breaker.shed")),
        ),
        (
            "supervisor.panics_caught",
            num(counter("executor.panic_caught")),
        ),
        (
            "supervisor.breaker_s",
            num(secs(span("stream.breaker").total_ns)),
        ),
    ]);
    Ok(to_json(&obj(vec![
        ("layers", layers),
        ("spans", spans_json(&snap)),
    ])))
}

/// Span count, total and self time summed over every path that ends in
/// the same span name (a layer's spans nest under different parents on
/// the producer and worker threads).
#[derive(Clone, Copy, Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

fn spans_by_leaf(snap: &MetricsSnapshot) -> BTreeMap<&str, Agg> {
    let mut out: BTreeMap<&str, Agg> = BTreeMap::new();
    for (path, stat) in &snap.spans {
        let leaf = path.rsplit('/').next().unwrap_or(path);
        let agg = out.entry(leaf).or_default();
        agg.count += stat.count;
        agg.total_ns += stat.total_ns;
        agg.self_ns += stat.self_ns;
    }
    out
}

/// Every span path with its count, total and self seconds, plus the
/// counters: the in-memory trace, written once at the end of the run.
fn spans_json(snap: &MetricsSnapshot) -> Value {
    let spans = snap
        .spans
        .iter()
        .map(|(path, s)| {
            (
                path.clone(),
                obj(vec![
                    ("count", num(s.count as f64)),
                    ("total_s", num(s.total_ns as f64 / 1e9)),
                    ("self_s", num(s.self_ns as f64 / 1e9)),
                ]),
            )
        })
        .collect();
    let counters = snap
        .counters
        .iter()
        .map(|(name, &v)| (name.clone(), num(v as f64)))
        .collect();
    obj(vec![
        ("paths", Value::Obj(spans)),
        ("counters", Value::Obj(counters)),
    ])
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The scale-10 Table II from the sequential reference harness over
/// materialised collections — the path every differential test compares
/// against. Its canonical bytes hash to the frozen golden.
pub fn reference_grid() -> String {
    let standard = DatasetSpec::scaled(SCALE);
    let challenge = standard.clone().with_mc_sa_ratio(0.0);
    let (standard, challenge) = (standard.build(), challenge.build());
    let rows = ModelZoo::all()
        .into_iter()
        .map(|profile| {
            let pipe = VlmPipeline::new(profile);
            ModelRow {
                standard: evaluate(&pipe, &standard, EvalOptions::default()),
                challenge: evaluate(&pipe, &challenge, EvalOptions::default()),
            }
        })
        .collect();
    canonical_json(Table2 { rows })
}
