//! Shared helpers for the ChipVQA benchmark harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use chipvqa_core::{ChipVqa, DatasetSpec};
use chipvqa_eval::executor::{ShardSource, SHARD_SIZE};
use chipvqa_eval::fleet::{self, FleetConfig, FleetError, FleetJob, FleetOutcome};
use chipvqa_eval::harness::{evaluate, EvalOptions};
use chipvqa_eval::judge::RuleJudge;
use chipvqa_eval::report::{ModelRow, Table2};
use chipvqa_eval::{AnswerCache, AnswerStore, ParallelExecutor};
use chipvqa_models::{ModelZoo, VlmPipeline};
use chipvqa_telemetry::Telemetry;

/// Runs the full Table-II evaluation: every zoo model on the standard and
/// challenge collections.
pub fn run_table2(bench: &ChipVqa) -> Table2 {
    let challenge = bench.challenge();
    let rows = ModelZoo::all()
        .into_iter()
        .map(|profile| {
            let pipe = VlmPipeline::new(profile);
            ModelRow {
                standard: evaluate(&pipe, bench, EvalOptions::default()),
                challenge: evaluate(&pipe, &challenge, EvalOptions::default()),
            }
        })
        .collect();
    Table2 { rows }
}

/// Runs the Table-II evaluation on an N×-scaled collection with
/// unsupervised, uncached defaults: [`run_table2_on`] over a fresh
/// `workers`-thread executor, streamed.
pub fn run_table2_scaled(scale: usize, workers: usize) -> Table2 {
    run_table2_on(&ParallelExecutor::new(workers), scale, true)
}

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
    let pipes: Vec<VlmPipeline> = ModelZoo::all().into_iter().map(VlmPipeline::new).collect();
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
    let rows = column(standard)
        .into_iter()
        .zip(column(challenge))
        .map(|(standard, challenge)| ModelRow {
            standard,
            challenge,
        })
        .collect();
    Table2 { rows }
}

/// Writes `table` as `table2 --report-json` does: JSON with each
/// report's run-metadata `cache_stats` nulled, so two runs with
/// identical results (one warm, one cold; one fleet, one
/// single-process) produce byte-identical files. The bytes equal
/// `serde_json::to_string` of the nulled table, but rows are serialized
/// and written one at a time through a buffer, so neither the nulled
/// copy nor the document ever exists whole in memory.
pub fn write_report_json(table: &Table2, out: impl Write) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    out.write_all(b"{\"rows\":[")?;
    for (i, row) in table.rows.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        let mut row = row.clone();
        row.standard.cache_stats = None;
        row.challenge.cache_stats = None;
        let json = serde_json::to_string(&row).map_err(io::Error::other)?;
        out.write_all(json.as_bytes())?;
    }
    out.write_all(b"]}")?;
    out.flush()
}

/// The pieces every fleet participant (worker or merge) derives from
/// `--scale N`: the two materialised collections (the no-choice one
/// derived from the standard one, pixels shared), the model grid, and
/// the per-column [`FleetJob`] identities.
struct FleetPlan {
    standard: ChipVqa,
    challenge: ChipVqa,
    pipes: Vec<VlmPipeline>,
    standard_fp: u64,
    challenge_fp: u64,
}

impl FleetPlan {
    fn new(scale: usize) -> FleetPlan {
        let standard_spec = DatasetSpec::scaled(scale);
        let challenge_spec = standard_spec.clone().with_mc_sa_ratio(0.0);
        let standard = standard_spec.build();
        FleetPlan {
            challenge: standard.challenge(),
            standard,
            pipes: ModelZoo::all().into_iter().map(VlmPipeline::new).collect(),
            standard_fp: standard_spec.fingerprint(),
            challenge_fp: challenge_spec.fingerprint(),
        }
    }

    fn job<'a>(&'a self, bench: &'a ChipVqa, spec_fp: u64) -> FleetJob<'a> {
        FleetJob {
            pipes: &self.pipes,
            bench,
            options: EvalOptions::default(),
            spec_fingerprint: Some(spec_fp),
        }
    }
}

/// Runs one fleet worker over the Table-II grid at `--scale N`: the
/// standard column as a sub-fleet at `DIR/std`, the challenge column at
/// `DIR/chal`, both sharing one answer store at `DIR/store` opened in
/// cooperative shared mode — every process that calls this on the same
/// `dir` joins the same run. Returns the combined contribution of this
/// worker across both columns. Safe to invoke any number of times, from
/// any number of processes, in any kill order: shards already committed
/// are skipped, stale leases are stolen, quarantined shards are healed.
pub fn run_table2_fleet_worker(
    dir: &Path,
    scale: usize,
    workers: usize,
    config: &FleetConfig,
    telemetry: Telemetry,
) -> Result<FleetOutcome, FleetError> {
    let plan = FleetPlan::new(scale);
    let store = Arc::new(AnswerStore::open_shared(
        dir.join("store"),
        chipvqa_eval::StoreConfig::default(),
        telemetry.clone(),
    )?);
    let cache = Arc::new(AnswerCache::new().with_store(store));
    let exec = ParallelExecutor::new(workers)
        .with_cache(cache)
        .with_telemetry(telemetry);
    let judge = RuleJudge::new();
    let std_out = fleet::run_worker(
        &dir.join("std"),
        &exec,
        &plan.job(&plan.standard, plan.standard_fp),
        &judge,
        config,
    )?;
    let chal_out = fleet::run_worker(
        &dir.join("chal"),
        &exec,
        &plan.job(&plan.challenge, plan.challenge_fp),
        &judge,
        config,
    )?;
    Ok(FleetOutcome {
        shards_evaluated: std_out.shards_evaluated + chal_out.shards_evaluated,
        shards_healed: std_out.shards_healed + chal_out.shards_healed,
        shards_quarantined: std_out.shards_quarantined + chal_out.shards_quarantined,
        leases_stolen: std_out.leases_stolen + chal_out.leases_stolen,
        steals_lost: std_out.steals_lost + chal_out.steals_lost,
        leases_swept: std_out.leases_swept + chal_out.leases_swept,
        duplicate_commits: std_out.duplicate_commits + chal_out.duplicate_commits,
    })
}

/// Folds a completed fleet directory into the canonical Table II.
/// Checks both sub-fleet manifests against the `--scale`-derived run
/// identity, so a merge against the wrong scale is a structured refusal
/// ([`FleetError::Mismatch`], naming the spec fingerprint) rather than a
/// silently wrong table. The merge reads only the committed records and
/// never opens the shared answer store.
pub fn run_table2_fleet_merge(
    dir: &Path,
    scale: usize,
    telemetry: &Telemetry,
) -> Result<Table2, FleetError> {
    let plan = FleetPlan::new(scale);
    let std_reports = fleet::merge(
        &dir.join("std"),
        &plan.job(&plan.standard, plan.standard_fp),
        telemetry,
    )?;
    let chal_reports = fleet::merge(
        &dir.join("chal"),
        &plan.job(&plan.challenge, plan.challenge_fp),
        telemetry,
    )?;
    let rows = std_reports
        .into_iter()
        .zip(chal_reports)
        .map(|(standard, challenge)| ModelRow {
            standard,
            challenge,
        })
        .collect();
    Ok(Table2 { rows })
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
        write_report_json(&table, &mut written).expect("report written");
        assert_eq!(
            String::from_utf8(written).expect("utf-8"),
            serde_json::to_string(&canonical).expect("table serializes")
        );
    }
}
