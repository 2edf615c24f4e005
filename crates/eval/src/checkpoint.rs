//! Checkpoint/resume for long grid evaluations.
//!
//! A [`Checkpoint`] records the identity of a grid run — model
//! fingerprints, a benchmark content hash (or, for a streamed run, the
//! spec fingerprint), the evaluation options — plus every completed
//! shard's outcomes. A killed run can be resumed from the serialized
//! checkpoint: the [`ParallelExecutor`] runs exactly the shards the
//! checkpoint lacks, and the merged reports are identical to an
//! uninterrupted run (merging is positional, so it does not matter in
//! which order, or in which process, shards completed). A built bench
//! and a streamed spec are both just [`ShardSource`]s to the engine, so
//! either kind of run checkpoints and resumes the same way.
//!
//! Identity is checked on resume: a checkpoint taken with different
//! models, a different benchmark revision, or different options is
//! rejected with a [`CheckpointError`] instead of silently blending
//! incompatible partial results.
//!
//! Supervised (chaos) runs additionally record **quarantined shards** —
//! shards whose worker caught a panic. Their (degraded) outcomes still
//! enter the merged report, but the quarantine list survives in the
//! checkpoint so a driver can call
//! [`Checkpoint::requeue_quarantined`] after fixing the environment and
//! resume: only the poisoned shards re-run.
//!
//! The multi-process analogue lives in [`crate::fleet`]: a fleet
//! worker that panics inside a shard commits a *quarantine* record to
//! the lease directory, and any later worker heals it — re-claims the
//! shard and re-runs it unsupervised — with the same semantics as a
//! `requeue_quarantined` + resume cycle (`tests/fleet_chaos.rs`
//! proves the two paths produce identical reports).

use std::collections::HashSet;
use std::fmt;

use chipvqa_core::spec::DatasetSpec;
use chipvqa_core::ChipVqa;
use chipvqa_models::VlmPipeline;
use chipvqa_telemetry::{kv, Telemetry};
use serde::{Deserialize, Serialize};

use crate::cache::prompt_hash;
use crate::executor::{merge_reports, ParallelExecutor, ShardKey, ShardSource};
use crate::harness::{EvalOptions, EvalReport, QuestionOutcome};
use crate::judge::Judge;
use crate::supervisor::EvalError;

/// Outcomes of one completed shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardResult {
    /// Which shard.
    pub key: ShardKey,
    /// Its question outcomes, in question order.
    pub outcomes: Vec<QuestionOutcome>,
}

/// Resumable state of one grid evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Fingerprints of the grid's models, in grid order.
    pub model_fingerprints: Vec<u64>,
    /// Content hash of the benchmark (ids + prompts); 0 for a streamed
    /// run, whose content the spec fingerprint pins instead.
    pub bench_hash: u64,
    /// The evaluation options of the run.
    pub options: EvalOptions,
    /// Completed shards, in completion order.
    pub completed: Vec<ShardResult>,
    /// Shards whose worker caught a panic (their outcomes are recorded,
    /// degraded). Candidates for [`Checkpoint::requeue_quarantined`].
    pub quarantined: Vec<ShardKey>,
    /// Fingerprint of the [`DatasetSpec`] the bench was built from, when
    /// the run evaluates a scaled collection (see
    /// [`Checkpoint::for_spec`]). `None` for canonical collections — and
    /// for checkpoints serialized before the scale engine existed.
    #[serde(default)]
    pub spec_fingerprint: Option<u64>,
    /// Eviction generation of the persistent
    /// [`AnswerStore`](crate::store::AnswerStore) this run warms from
    /// (see [`Checkpoint::bind_store_generation`]). A checkpoint whose
    /// stamped generation predates an eviction belongs to a cache epoch
    /// whose answers may be gone — [`Checkpoint::validate_store`]
    /// rejects the pair instead of silently re-inferring part of a
    /// "resumed" run. `None` when the run had no store (or predates the
    /// store tier).
    #[serde(default)]
    pub store_generation: Option<u64>,
}

/// Why a checkpoint cannot drive a resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint's models differ from the grid being resumed.
    ModelMismatch,
    /// The benchmark content changed since the checkpoint was taken.
    BenchMismatch,
    /// The evaluation options changed.
    OptionsMismatch,
    /// A recorded shard is not part of the canonical plan (corruption).
    UnknownShard(ShardKey),
    /// The checkpoint was taken against a different [`DatasetSpec`] (or
    /// against none).
    SpecMismatch,
    /// The checkpoint's cache epoch predates the store's current
    /// eviction generation: answers it assumes cached may have been
    /// evicted since.
    StoreGenerationMismatch {
        /// The generation stamped on the checkpoint (`None`: the
        /// checkpoint was never bound to a store).
        stamped: Option<u64>,
        /// The store's current generation.
        current: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::ModelMismatch => {
                write!(f, "checkpoint was taken with a different model grid")
            }
            CheckpointError::BenchMismatch => {
                write!(
                    f,
                    "checkpoint was taken against a different benchmark revision"
                )
            }
            CheckpointError::OptionsMismatch => {
                write!(f, "checkpoint was taken with different evaluation options")
            }
            CheckpointError::UnknownShard(k) => write!(
                f,
                "checkpoint contains a shard outside the plan: model {} questions {}..{}",
                k.model_idx, k.q_start, k.q_end
            ),
            CheckpointError::SpecMismatch => {
                write!(f, "checkpoint was taken against a different dataset spec")
            }
            CheckpointError::StoreGenerationMismatch { stamped, current } => match stamped {
                Some(stamped) => write!(
                    f,
                    "checkpoint cache epoch (store generation {stamped}) predates the \
                     store's current generation {current}: cached answers it assumes \
                     present may have been evicted"
                ),
                None => write!(
                    f,
                    "checkpoint is not bound to an answer store but the resume uses one \
                     at generation {current}"
                ),
            },
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Content hash of a benchmark: question count, ids and full prompts.
pub fn bench_hash(bench: &ChipVqa) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(&(bench.len() as u64).to_le_bytes());
    for q in bench.iter() {
        eat(q.id.as_bytes());
        eat(&prompt_hash(q).to_le_bytes());
    }
    h
}

impl Checkpoint {
    /// A fresh checkpoint (no completed shards) for a grid run.
    pub fn new(pipes: &[VlmPipeline], bench: &ChipVqa, options: EvalOptions) -> Self {
        Checkpoint::for_source(pipes, ShardSource::Bench(bench, 0), options)
    }

    /// A fresh checkpoint for a grid run over a scaled collection,
    /// binding the checkpoint to the [`DatasetSpec`]'s fingerprint as
    /// well as the bench content. `bench` should be `spec.build()` (or
    /// an equivalent materialization).
    pub fn for_spec(
        pipes: &[VlmPipeline],
        bench: &ChipVqa,
        options: EvalOptions,
        spec: &DatasetSpec,
    ) -> Self {
        Checkpoint::for_source(
            pipes,
            ShardSource::Bench(bench, spec.fingerprint()),
            options,
        )
    }

    /// A fresh checkpoint for a grid run over `source`. A bench keyed
    /// with a non-zero fingerprint binds that spec fingerprint; a
    /// streamed spec binds its fingerprint and no bench hash, so the
    /// collection is never built.
    pub fn for_source(
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        options: EvalOptions,
    ) -> Self {
        let (bench_hash, spec_fingerprint) = match source {
            ShardSource::Bench(bench, fp) => (bench_hash(bench), (fp != 0).then_some(fp)),
            ShardSource::Spec(spec, _) => (0, Some(spec.fingerprint())),
        };
        Checkpoint {
            model_fingerprints: pipes.iter().map(VlmPipeline::fingerprint).collect(),
            bench_hash,
            options,
            completed: Vec::new(),
            quarantined: Vec::new(),
            spec_fingerprint,
            store_generation: None,
        }
    }

    /// Stamps the current eviction generation of `store` onto the
    /// checkpoint, binding it to the store's cache epoch. Call after
    /// taking (or updating) a checkpoint during a store-backed run; a
    /// later [`validate_store`](Checkpoint::validate_store) then
    /// detects eviction in between.
    pub fn bind_store_generation(&mut self, store: &crate::store::AnswerStore) {
        self.store_generation = Some(store.generation());
    }

    /// Whether this checkpoint's cache epoch is still current for
    /// `store`. Fails with
    /// [`StoreGenerationMismatch`](CheckpointError::StoreGenerationMismatch)
    /// when the store has evicted since the checkpoint was stamped (or
    /// the checkpoint was never stamped at all).
    pub fn validate_store(&self, store: &crate::store::AnswerStore) -> Result<(), CheckpointError> {
        let current = store.generation();
        if self.store_generation != Some(current) {
            return Err(CheckpointError::StoreGenerationMismatch {
                stamped: self.store_generation,
                current,
            });
        }
        Ok(())
    }

    /// [`validate`](Checkpoint::validate), additionally requiring the
    /// checkpoint to be bound to exactly `spec`.
    pub fn validate_for_spec(
        &self,
        pipes: &[VlmPipeline],
        bench: &ChipVqa,
        options: EvalOptions,
        spec: &DatasetSpec,
    ) -> Result<(), CheckpointError> {
        self.validate_source(
            pipes,
            ShardSource::Bench(bench, spec.fingerprint()),
            options,
        )
    }

    /// Whether this checkpoint belongs to exactly this run.
    pub fn validate(
        &self,
        pipes: &[VlmPipeline],
        bench: &ChipVqa,
        options: EvalOptions,
    ) -> Result<(), CheckpointError> {
        let source = ShardSource::Bench(bench, self.spec_fingerprint.unwrap_or(0));
        self.validate_source(pipes, source, options)
    }

    /// Whether this checkpoint belongs to a grid run over `source`: its
    /// fingerprint, the models, a bench source's content hash, the
    /// options, and every recorded shard inside the source's plan. A
    /// streamed spec is checked against its fingerprint, question count
    /// and shard length without building the bench.
    pub fn validate_source(
        &self,
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        options: EvalOptions,
    ) -> Result<(), CheckpointError> {
        if self.spec_fingerprint.unwrap_or(0) != source.fingerprint() {
            return Err(CheckpointError::SpecMismatch);
        }
        let fingerprints: Vec<u64> = pipes.iter().map(VlmPipeline::fingerprint).collect();
        if self.model_fingerprints != fingerprints {
            return Err(CheckpointError::ModelMismatch);
        }
        if let ShardSource::Bench(bench, _) = source {
            if self.bench_hash != bench_hash(bench) {
                return Err(CheckpointError::BenchMismatch);
            }
        }
        if self.options != options {
            return Err(CheckpointError::OptionsMismatch);
        }
        let plan: HashSet<ShardKey> = source.plan(pipes.len()).into_iter().collect();
        let recorded = self.completed.iter().map(|done| &done.key);
        match recorded
            .chain(&self.quarantined)
            .find(|key| !plan.contains(key))
        {
            Some(key) => Err(CheckpointError::UnknownShard(*key)),
            None => Ok(()),
        }
    }

    /// Drops every quarantined shard's recorded outcomes so the next
    /// resume re-executes them (after the driver fixed whatever crashed
    /// the workers). Returns how many shards were requeued.
    pub fn requeue_quarantined(&mut self) -> usize {
        self.requeue_quarantined_with(&Telemetry::disabled())
    }

    /// [`requeue_quarantined`](Checkpoint::requeue_quarantined),
    /// additionally emitting a `checkpoint.requeue` event carrying the
    /// requeued-shard count and bumping the `checkpoint.requeued`
    /// counter.
    pub fn requeue_quarantined_with(&mut self, tele: &Telemetry) -> usize {
        let quarantined = std::mem::take(&mut self.quarantined);
        let before = self.completed.len();
        self.completed.retain(|d| !quarantined.contains(&d.key));
        let requeued = before - self.completed.len();
        if tele.enabled() {
            tele.counter("checkpoint.requeued", requeued as u64);
            tele.event("checkpoint.requeue", vec![kv("shards", requeued)]);
        }
        requeued
    }

    /// Shards currently quarantined.
    pub fn quarantined_shards(&self) -> usize {
        self.quarantined.len()
    }

    /// Number of completed shards.
    pub fn completed_shards(&self) -> usize {
        self.completed.len()
    }

    /// Shards a resume still has to execute — what a driver (the
    /// resident service's progress reporting, a fleet coordinator)
    /// shows as remaining work.
    pub fn pending_shards(&self, bench: &ChipVqa) -> usize {
        self.total_shards(bench)
            .saturating_sub(self.completed.len())
    }

    /// Total shards a full run of this grid needs.
    pub fn total_shards(&self, bench: &ChipVqa) -> usize {
        let models = self.model_fingerprints.len();
        ShardSource::Bench(bench, 0).plan(models).len()
    }

    /// Serialises to JSON (what a driver would write to disk).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores from JSON.
    pub fn from_json(json: &str) -> Result<Checkpoint, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl ParallelExecutor {
    /// Runs (part of) a grid evaluation, recording progress in
    /// `checkpoint`.
    ///
    /// At most `max_shards` *new* shards are executed when the budget is
    /// given — the hook that lets a driver bound work per invocation (or
    /// a test kill a run mid-flight). Returns `Ok(Some(reports))` once
    /// every shard of the grid is in the checkpoint, `Ok(None)` when work
    /// remains, and an error when the checkpoint does not match the run.
    /// Answer-cache keys use the checkpoint's spec fingerprint (0 for a
    /// canonical collection).
    pub fn evaluate_grid_resumable(
        &self,
        pipes: &[VlmPipeline],
        bench: &ChipVqa,
        options: EvalOptions,
        judge: &dyn Judge,
        checkpoint: &mut Checkpoint,
        max_shards: Option<usize>,
    ) -> Result<Option<Vec<EvalReport>>, CheckpointError> {
        checkpoint.validate(pipes, bench, options)?;
        let source = ShardSource::Bench(bench, checkpoint.spec_fingerprint.unwrap_or(0));
        let mut budget = |dispatched: usize| max_shards.is_some_and(|max| dispatched >= max);
        Ok(self.evaluate_checkpointed(pipes, source, options, judge, checkpoint, &mut budget))
    }

    /// Runs the shards of the grid over `source` that `checkpoint` still
    /// lacks, recording each finished shard. A shard whose worker caught
    /// a panic is recorded (degraded) and quarantined for
    /// [`Checkpoint::requeue_quarantined`]. `stop` is polled before each
    /// dispatch with the number of shards dispatched so far; once it
    /// returns true no further shard starts, and the ones already
    /// dispatched finish and are recorded. Returns the merged reports
    /// once the checkpoint covers the whole grid, `None` while work
    /// remains. The caller validates the checkpoint against the run
    /// ([`Checkpoint::validate_source`]).
    pub fn evaluate_checkpointed(
        &self,
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        options: EvalOptions,
        judge: &dyn Judge,
        checkpoint: &mut Checkpoint,
        stop: &mut dyn FnMut(usize) -> bool,
    ) -> Option<Vec<EvalReport>> {
        let done: HashSet<ShardKey> = checkpoint.completed.iter().map(|d| d.key).collect();
        let run = self.run(pipes, source, options, judge, &|k| !done.contains(k), stop);
        for (key, outcomes) in run.outcomes {
            // a caught worker panic quarantines the shard: results are
            // recorded (degraded) but flagged for retry-on-resume
            if outcomes
                .iter()
                .any(|o| o.error == Some(EvalError::WorkerPanic))
                && !checkpoint.quarantined.contains(&key)
            {
                checkpoint.quarantined.push(key);
                let tele = self.telemetry();
                if tele.enabled() {
                    tele.counter("checkpoint.quarantined", 1);
                    tele.event(
                        "checkpoint.quarantine",
                        vec![
                            kv("model_idx", key.model_idx),
                            kv("q_start", key.q_start),
                            kv("q_end", key.q_end),
                        ],
                    );
                }
            }
            checkpoint.completed.push(ShardResult { key, outcomes });
        }
        if checkpoint.completed.len() < source.plan(pipes.len()).len() {
            return None;
        }
        let pairs: Vec<(ShardKey, Vec<QuestionOutcome>)> = checkpoint
            .completed
            .iter()
            .map(|d| (d.key, d.outcomes.clone()))
            .collect();
        Some(self.finalize(merge_reports(pipes, source.questions(), pairs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::evaluate;
    use crate::judge::RuleJudge;
    use chipvqa_models::ModelZoo;

    fn pipes() -> Vec<VlmPipeline> {
        [ModelZoo::gpt4o(), ModelZoo::llava_7b()]
            .into_iter()
            .map(VlmPipeline::new)
            .collect()
    }

    #[test]
    fn resume_after_kill_matches_uninterrupted() {
        let bench = ChipVqa::standard();
        let pipes = pipes();
        let exec = ParallelExecutor::new(4);
        let options = EvalOptions::default();

        // uninterrupted reference
        let full = exec
            .evaluate_grid_resumable(
                &pipes,
                &bench,
                options,
                &RuleJudge::new(),
                &mut Checkpoint::new(&pipes, &bench, options),
                None,
            )
            .expect("valid")
            .expect("complete");

        // "killed" run: 3 shards, then serialize, drop, restore, finish
        let mut ckpt = Checkpoint::new(&pipes, &bench, options);
        let first = exec
            .evaluate_grid_resumable(
                &pipes,
                &bench,
                options,
                &RuleJudge::new(),
                &mut ckpt,
                Some(3),
            )
            .expect("valid");
        assert!(first.is_none(), "run is incomplete after 3 shards");
        assert_eq!(ckpt.completed_shards(), 3);
        assert_eq!(ckpt.pending_shards(&bench), ckpt.total_shards(&bench) - 3);

        let json = ckpt.to_json().expect("serializes");
        let mut restored = Checkpoint::from_json(&json).expect("parses");
        assert_eq!(restored, ckpt);

        let resumed = exec
            .evaluate_grid_resumable(
                &pipes,
                &bench,
                options,
                &RuleJudge::new(),
                &mut restored,
                None,
            )
            .expect("valid")
            .expect("complete after resume");
        assert_eq!(resumed, full, "resumed run is bit-identical");

        // and both match plain sequential evaluation
        for (pipe, report) in pipes.iter().zip(&resumed) {
            assert_eq!(&evaluate(pipe, &bench, options), report);
        }
    }

    #[test]
    fn zero_budget_does_no_work() {
        let bench = ChipVqa::standard();
        let pipes = pipes();
        let exec = ParallelExecutor::new(2);
        let mut ckpt = Checkpoint::new(&pipes, &bench, EvalOptions::default());
        let out = exec
            .evaluate_grid_resumable(
                &pipes,
                &bench,
                EvalOptions::default(),
                &RuleJudge::new(),
                &mut ckpt,
                Some(0),
            )
            .expect("valid");
        assert!(out.is_none());
        assert_eq!(ckpt.completed_shards(), 0);
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let bench = ChipVqa::standard();
        let pipes = pipes();
        let exec = ParallelExecutor::new(2);
        let options = EvalOptions::default();
        let ckpt = Checkpoint::new(&pipes, &bench, options);

        // different models
        let other: Vec<VlmPipeline> = [ModelZoo::fuyu_8b(), ModelZoo::llava_7b()]
            .into_iter()
            .map(VlmPipeline::new)
            .collect();
        assert_eq!(
            ckpt.validate(&other, &bench, options),
            Err(CheckpointError::ModelMismatch)
        );

        // different benchmark content
        let other_bench = ChipVqa::with_seed(bench.seed() + 1);
        assert_eq!(
            ckpt.validate(&pipes, &other_bench, options),
            Err(CheckpointError::BenchMismatch)
        );

        // different options
        let other_options = EvalOptions {
            attempts: 3,
            ..options
        };
        assert_eq!(
            ckpt.validate(&pipes, &bench, other_options),
            Err(CheckpointError::OptionsMismatch)
        );

        // and the executor surfaces the error
        let mut bad = Checkpoint::new(&other, &bench, options);
        let err = exec
            .evaluate_grid_resumable(&pipes, &bench, options, &RuleJudge::new(), &mut bad, None)
            .unwrap_err();
        assert_eq!(err, CheckpointError::ModelMismatch);
    }

    #[test]
    fn spec_bound_checkpoints_reject_foreign_specs() {
        use chipvqa_core::spec::DatasetSpec;
        let spec = DatasetSpec::default();
        let bench = spec.build();
        let pipes = pipes();
        let options = EvalOptions::default();
        let ckpt = Checkpoint::for_spec(&pipes, &bench, options, &spec);
        assert_eq!(ckpt.spec_fingerprint, Some(spec.fingerprint()));
        assert_eq!(
            ckpt.validate_for_spec(&pipes, &bench, options, &spec),
            Ok(())
        );

        // a different spec is refused even though the bench bytes match
        let other = spec.clone().with_mc_sa_ratio(0.5);
        assert_eq!(
            ckpt.validate_for_spec(&pipes, &bench, options, &other),
            Err(CheckpointError::SpecMismatch)
        );
        // an unbound checkpoint is refused for spec-bound resumes
        let unbound = Checkpoint::new(&pipes, &bench, options);
        assert_eq!(
            unbound.validate_for_spec(&pipes, &bench, options, &spec),
            Err(CheckpointError::SpecMismatch)
        );
        // legacy JSON (no spec field) deserializes as unbound
        let legacy: Checkpoint = serde_json::from_str(
            &ckpt
                .to_json()
                .expect("serializes")
                .replace(&format!(",\"spec_fingerprint\":{}", spec.fingerprint()), ""),
        )
        .expect("legacy json parses");
        assert_eq!(legacy.spec_fingerprint, None);
        // plain validate still accepts either
        assert_eq!(ckpt.validate(&pipes, &bench, options), Ok(()));
    }

    #[test]
    fn stale_store_generation_is_rejected() {
        use crate::cache::{CacheKey, CachedAnswer};
        use crate::store::{AnswerStore, StoreConfig};
        use chipvqa_models::backbone::AnswerPath;

        let dir = std::env::temp_dir().join(format!(
            "chipvqa-ckpt-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let bench = ChipVqa::standard();
        let pipes = pipes();
        let options = EvalOptions::default();

        // tiny budget so inserts can force an eviction later
        let store = AnswerStore::open_with(
            &dir,
            StoreConfig {
                segment_max_bytes: 256,
                max_bytes: 768,
                ..StoreConfig::default()
            },
        )
        .expect("store opens");

        let mut ckpt = Checkpoint::new(&pipes, &bench, options);
        assert_eq!(
            ckpt.validate_store(&store),
            Err(CheckpointError::StoreGenerationMismatch {
                stamped: None,
                current: 0
            }),
            "an unbound checkpoint is refused for store-backed resumes"
        );
        ckpt.bind_store_generation(&store);
        assert_eq!(ckpt.validate_store(&store), Ok(()));

        // overflow the store so LRU eviction bumps the generation …
        for (i, q) in bench.iter().take(60).enumerate() {
            store.insert(
                CacheKey::new(7, q, 1, 0),
                CachedAnswer {
                    text: format!("a{i}"),
                    path: AnswerPath::Solved,
                    solve_probability: 0.5,
                },
            );
        }
        assert!(store.generation() > 0, "eviction must have happened");

        // … and the stamped checkpoint's cache epoch is now stale
        let err = ckpt.validate_store(&store).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::StoreGenerationMismatch {
                stamped: Some(0),
                ..
            }
        ));
        // re-binding heals it
        ckpt.bind_store_generation(&store);
        assert_eq!(ckpt.validate_store(&store), Ok(()));
        // the stamp survives serialization
        let restored = Checkpoint::from_json(&ckpt.to_json().expect("serializes")).expect("parses");
        assert_eq!(restored.store_generation, ckpt.store_generation);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_hash_tracks_content() {
        let a = ChipVqa::standard();
        let b = ChipVqa::standard();
        assert_eq!(bench_hash(&a), bench_hash(&b));
        assert_ne!(bench_hash(&a), bench_hash(&a.challenge()));
        assert_ne!(
            bench_hash(&a),
            bench_hash(&ChipVqa::with_seed(a.seed() + 1))
        );
    }
}
