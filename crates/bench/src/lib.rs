//! Shared helpers for the ChipVQA benchmark harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;
use std::sync::Arc;

use chipvqa_core::DatasetSpec;
use chipvqa_eval::executor::{ShardSource, SHARD_SIZE};
use chipvqa_eval::fleet::{self, FleetConfig, FleetError, FleetJob, FleetOutcome};
use chipvqa_eval::harness::{evaluate, EvalOptions};
use chipvqa_eval::judge::RuleJudge;
use chipvqa_eval::report::Table2;
use chipvqa_eval::{AnswerCache, AnswerStore, ParallelExecutor, StoreConfig};
use chipvqa_models::{ModelZoo, VlmPipeline};
use chipvqa_telemetry::Telemetry;

/// Runs the Table-II evaluation on an N×-scaled collection through
/// `exec` as configured (cache, store, supervisor, telemetry): every zoo
/// model on [`DatasetSpec::scaled`]`(scale)` (with-choice column) and
/// the same spec at `mc_sa_ratio` 0 (no-choice column).
///
/// Streamed, the grid is one engine run
/// ([`ParallelExecutor::evaluate_table2`]): the spec is generated
/// shard-by-shard at [`SHARD_SIZE`] questions (overlapped with
/// inference, never materialised whole), each shard once, and its
/// no-choice twin is derived from it, so every model in both columns
/// shares the shard's legibility slots. At most `2·workers + 1` shards
/// are resident, three at one worker: fewer questions than one
/// 142-question shard, yet more than one replica block, the unit the
/// generator makes. With `streamed` false
/// (`--batch`), both collections are built whole with
/// [`DatasetSpec::build`] and each is one grid call cut at
/// [`SHARD_SIZE`]. Both produce
/// byte-identical tables, supervised or not — the contract the
/// `stream-chaos` CI job `cmp`s, which so also checks the derived twin —
/// and a warm store serves every answer from disk without changing a
/// byte.
pub fn run_table2_on(exec: &ParallelExecutor, scale: usize, streamed: bool) -> Table2 {
    let pipes = zoo();
    let (options, judge) = (EvalOptions::default(), RuleJudge::new());
    let standard = DatasetSpec::scaled(scale);
    if streamed {
        return exec
            .evaluate_table2(&pipes, &standard, SHARD_SIZE, options, &judge)
            .0;
    }
    let column = |spec: DatasetSpec| {
        let bench = spec.build();
        let source = ShardSource::Bench(&bench, spec.fingerprint());
        exec.evaluate_source(&pipes, source, options, &judge).0
    };
    let challenge = standard.clone().with_mc_sa_ratio(0.0);
    Table2::from_columns([column(standard), column(challenge)].concat())
}

/// The twelve zoo models, in paper order.
fn zoo() -> Vec<VlmPipeline> {
    ModelZoo::all().into_iter().map(VlmPipeline::new).collect()
}

/// Runs one fleet worker in `dir` over the Table-II grid at `--scale N`:
/// the grid [`run_table2_on`] streams, claimed one 16-question spec
/// shard (every model in both columns) at a time, with one answer store
/// at `DIR/store`, in which each worker appends only to segments it
/// created — every process that calls this on the same `dir` joins the
/// same run. Safe to invoke any
/// number of times, from any number of processes, in any kill order:
/// shards already committed are skipped, stale leases are stolen, a
/// claim heals its panicked rows. No process builds a collection.
pub fn run_table2_fleet_worker(
    dir: &Path,
    scale: usize,
    workers: usize,
    config: &FleetConfig,
    telemetry: Telemetry,
) -> Result<FleetOutcome, FleetError> {
    let (pipes, spec) = (zoo(), DatasetSpec::scaled(scale));
    let store = AnswerStore::open_with_telemetry(
        dir.join("store"),
        StoreConfig::default(),
        telemetry.clone(),
    )?;
    let cache = Arc::new(AnswerCache::new().with_store(Arc::new(store)));
    let exec = ParallelExecutor::new(workers)
        .with_cache(cache)
        .with_telemetry(telemetry);
    let job = FleetJob {
        pipes: &pipes,
        spec: &spec,
        options: EvalOptions::default(),
    };
    fleet::run_worker(dir, &exec, &job, &RuleJudge::new(), config)
}

/// Folds a completed fleet directory into the canonical Table II,
/// checking its manifest against the `--scale`-derived run identity, so
/// a merge against the wrong scale is a structured refusal
/// ([`FleetError::Mismatch`], naming the spec fingerprint) rather than a
/// silently wrong table. The merge reads only the committed records: it
/// generates nothing and never opens the shared answer store.
pub fn run_table2_fleet_merge(
    dir: &Path,
    scale: usize,
    telemetry: &Telemetry,
) -> Result<Table2, FleetError> {
    let (pipes, spec) = (zoo(), DatasetSpec::scaled(scale));
    let job = FleetJob {
        pipes: &pipes,
        spec: &spec,
        options: EvalOptions::default(),
    };
    fleet::merge(dir, &job, telemetry)
}

/// The batch-mode equivalent of an evaluation session: each model
/// evaluated sequentially by the plain harness over the materialized
/// spec, wrapped the way the resident service wraps its reports. The
/// serving acceptance contract — and the `chipvqa-load` generator —
/// byte-compare [`SessionReport::canonical_json`] of an admitted
/// session against this reference.
///
/// [`SessionReport::canonical_json`]: chipvqa_serve::SessionReport::canonical_json
pub fn batch_reference_report(
    models: &[chipvqa_models::ModelProfile],
    spec: &DatasetSpec,
    options: EvalOptions,
) -> chipvqa_serve::SessionReport {
    let bench = spec.build();
    chipvqa_serve::SessionReport::new(
        models
            .iter()
            .map(|profile| evaluate(&VlmPipeline::new(profile.clone()), &bench, options))
            .collect(),
    )
}

/// The paper's Table II reference numbers `(standard all, challenge all)`
/// per model, used for shape comparison in harness output.
pub fn paper_reference() -> Vec<(&'static str, f64, f64)> {
    vec![
        ("LLaVA-7b", 0.22, 0.04),
        ("LLaVA-13b", 0.18, 0.06),
        ("LLaVA-34b", 0.24, 0.09),
        ("LLaVA-LLaMa-3", 0.25, 0.06),
        ("NeVA-22b", 0.22, 0.08),
        ("fuyu-8b", 0.16, 0.03),
        ("paligemma", 0.08, 0.03),
        ("kosmos-2", 0.03, 0.03),
        ("phi3-vision", 0.20, 0.08),
        ("VILA-Yi-34B", 0.29, 0.09),
        ("LLaMA-3.2-90B", 0.31, 0.09),
        ("GPT4o", 0.44, 0.20),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_the_nulled_table_serialized_whole() {
        let cache = Arc::new(AnswerCache::new());
        let table = run_table2_on(&ParallelExecutor::new(2).with_cache(cache), 1, true);
        assert!(table.rows[0].standard.cache_stats.is_some());
        let mut canonical = table.clone();
        for row in &mut canonical.rows {
            row.standard.cache_stats = None;
            row.challenge.cache_stats = None;
        }
        let mut written = Vec::new();
        table
            .write_report_json(&mut written)
            .expect("report written");
        assert_eq!(
            String::from_utf8(written).expect("utf-8"),
            serde_json::to_string(&canonical).expect("table serializes")
        );
    }
}
