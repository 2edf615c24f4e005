//! Checkpoint/resume for long grid evaluations.
//!
//! A [`Checkpoint`] is the one record of a partial grid run: the run's
//! [`RunIdentity`] plus every completed shard's outcomes. A killed run
//! resumes from the serialized checkpoint:
//! [`ParallelExecutor::evaluate_checkpointed`] runs exactly the shards
//! the checkpoint lacks, and the merged reports are identical to an
//! uninterrupted run (merging is positional, so it does not matter in
//! which order, or in which process, shards completed). A built bench
//! and a streamed spec are both just [`ShardSource`]s to the engine, so
//! either kind of run checkpoints, resumes and heals the same way.
//!
//! # Identity
//!
//! A [`RunIdentity`] names a grid run: its model fingerprints, the
//! content hash of a built bench or the fingerprint of the spec it comes
//! from, and the evaluation options. A checkpoint stamps it, and so does
//! a fleet's `manifest.json` ([`crate::fleet`]). A resume, a fleet
//! worker and a fleet merge all compare the stamped identity with their
//! own through [`RunIdentity::check`], which names the first field that
//! differs in a [`RunMismatch`] instead of silently blending
//! incompatible partial results. The answer store a run warms from is
//! no part of it: recorded outcomes are final, and the store only ever
//! serves the answer inference would return, so a resume may run with or
//! without a store.
//!
//! # Healing
//!
//! A shard whose worker caught a panic is **quarantined**: its
//! (degraded) outcomes are recorded like any other, and the
//! [`WorkerPanic`](crate::supervisor::EvalError::WorkerPanic) among them
//! says so. The one heal is [`Checkpoint::heal`]: it re-runs exactly the
//! quarantined shards calm, on [`ParallelExecutor::unsupervised`], and
//! puts each result in its shard's place. A single-process run heals
//! only when its caller asks. A fleet claim is a checkpoint of its
//! shard's rows, healed by the same call before it commits.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Mutex;

use chipvqa_core::ChipVqa;
use chipvqa_models::VlmPipeline;
use chipvqa_telemetry::kv;
use serde::{Deserialize, Serialize};

use crate::cache::prompt_hash;
use crate::executor::{quarantines, ParallelExecutor, Reports, ShardKey, ShardSource};
use crate::harness::{EvalOptions, EvalReport, QuestionOutcome};
use crate::judge::Judge;

/// Outcomes of one completed shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardResult {
    /// Which shard.
    pub key: ShardKey,
    /// Its question outcomes, in question order.
    pub outcomes: Vec<QuestionOutcome>,
}

/// The identity of a grid run: what a [`Checkpoint`] and a fleet
/// manifest stamp, and what every resume, fleet worker and fleet merge
/// checks before it touches recorded outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunIdentity {
    /// Fingerprints of the grid's models, in grid order.
    pub model_fingerprints: Vec<u64>,
    /// Content hash of a built bench ([`bench_hash`]); 0 for a streamed
    /// spec, whose content the spec fingerprint pins instead.
    pub bench_hash: u64,
    /// The evaluation options of the run.
    pub options: EvalOptions,
    /// Fingerprint of the [`DatasetSpec`](chipvqa_core::spec::DatasetSpec)
    /// the run's questions come from. `None` for canonical collections —
    /// and for checkpoints serialized before the scale engine existed.
    #[serde(default)]
    pub spec_fingerprint: Option<u64>,
}

impl RunIdentity {
    /// The identity of a grid run of `pipes` over `source`. A bench
    /// binds its content hash and, keyed with a non-zero fingerprint,
    /// that spec fingerprint too; a streamed spec binds its fingerprint
    /// and no bench hash, so the collection is never built.
    pub fn new(pipes: &[VlmPipeline], source: ShardSource<'_>, options: EvalOptions) -> Self {
        let (bench_hash, spec_fingerprint) = match source {
            ShardSource::Bench(bench, fp) => (bench_hash(bench), (fp != 0).then_some(fp)),
            ShardSource::Spec(spec, _) | ShardSource::Table2(spec, _) => {
                (0, Some(spec.fingerprint()))
            }
        };
        RunIdentity {
            model_fingerprints: pipes.iter().map(VlmPipeline::fingerprint).collect(),
            bench_hash,
            options,
            spec_fingerprint,
        }
    }

    /// The one identity comparison: `Ok` when this stamped identity is
    /// `expected`, otherwise the first field that differs with both
    /// values. The spec fingerprint goes first, so a run over the wrong
    /// `--scale` is reported as such rather than as the bench hash that
    /// follows from it.
    pub fn check(&self, expected: &RunIdentity) -> Result<(), RunMismatch> {
        let mismatch = if self.spec_fingerprint != expected.spec_fingerprint {
            RunMismatch::SpecFingerprint {
                stamped: self.spec_fingerprint,
                expected: expected.spec_fingerprint,
            }
        } else if self.model_fingerprints != expected.model_fingerprints {
            RunMismatch::Models {
                stamped: self.model_fingerprints.clone(),
                expected: expected.model_fingerprints.clone(),
            }
        } else if self.bench_hash != expected.bench_hash {
            RunMismatch::Bench {
                stamped: self.bench_hash,
                expected: expected.bench_hash,
            }
        } else if self.options != expected.options {
            RunMismatch::Options {
                stamped: self.options,
                expected: expected.options,
            }
        } else {
            return Ok(());
        };
        Err(mismatch)
    }
}

/// The first [`RunIdentity`] field on which a stamped record (checkpoint
/// or fleet manifest) and the run checking it disagree, with both values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunMismatch {
    /// The record was taken against a different dataset spec (or
    /// against none).
    SpecFingerprint {
        /// Fingerprint the record stamps.
        stamped: Option<u64>,
        /// Fingerprint of the checking run's spec.
        expected: Option<u64>,
    },
    /// The record was taken with a different model grid.
    Models {
        /// Model fingerprints the record stamps.
        stamped: Vec<u64>,
        /// Model fingerprints of the checking run.
        expected: Vec<u64>,
    },
    /// The benchmark content changed since the record was taken.
    Bench {
        /// Bench hash the record stamps.
        stamped: u64,
        /// Bench hash of the checking run.
        expected: u64,
    },
    /// The evaluation options changed.
    Options {
        /// Options the record stamps.
        stamped: EvalOptions,
        /// Options of the checking run.
        expected: EvalOptions,
    },
}

impl fmt::Display for RunMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunMismatch::SpecFingerprint { stamped, expected } => write!(
                f,
                "spec fingerprint {stamped:?} does not match this run's {expected:?}"
            ),
            RunMismatch::Models { stamped, expected } => write!(
                f,
                "model fingerprints {stamped:x?} do not match this run's {expected:x?}"
            ),
            RunMismatch::Bench { stamped, expected } => write!(
                f,
                "benchmark content hash {stamped:#x} does not match this run's {expected:#x}"
            ),
            RunMismatch::Options { stamped, expected } => write!(
                f,
                "evaluation options {stamped:?} do not match this run's {expected:?}"
            ),
        }
    }
}

/// Resumable state of one grid evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The run this checkpoint belongs to.
    pub identity: RunIdentity,
    /// Completed shards, in completion order; the quarantined ones hold
    /// a `WorkerPanic` outcome.
    pub completed: Vec<ShardResult>,
}

/// Why a checkpoint cannot drive a resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint belongs to a different run.
    Mismatch(RunMismatch),
    /// A recorded shard is not part of the canonical plan (corruption).
    UnknownShard(ShardKey),
    /// A recorded shard repeats an earlier one, or does not hold one
    /// outcome per question of its range (corruption).
    MalformedShard(ShardKey),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Mismatch(mismatch) => {
                write!(f, "checkpoint belongs to a different run: {mismatch}")
            }
            CheckpointError::UnknownShard(k) => write!(
                f,
                "checkpoint contains a shard outside the plan: model {} questions {}..{}",
                k.model_idx, k.q_start, k.q_end
            ),
            CheckpointError::MalformedShard(k) => write!(
                f,
                "checkpoint records shard model {} questions {}..{} twice or \
                 without one outcome per question",
                k.model_idx, k.q_start, k.q_end
            ),
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
    /// A fresh checkpoint (no completed shards) for a grid run over
    /// `source`.
    pub fn for_source(
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        options: EvalOptions,
    ) -> Self {
        Checkpoint {
            identity: RunIdentity::new(pipes, source, options),
            completed: Vec::new(),
        }
    }

    /// Whether this checkpoint belongs to a grid run over `source`: its
    /// [`RunIdentity`] equals the run's, and every recorded shard lies
    /// inside the source's plan, is recorded once and holds one outcome
    /// per question. A streamed spec is checked without building the
    /// bench.
    pub fn validate_source(
        &self,
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        options: EvalOptions,
    ) -> Result<(), CheckpointError> {
        let expected = RunIdentity::new(pipes, source, options);
        self.identity
            .check(&expected)
            .map_err(CheckpointError::Mismatch)?;
        let mut seen = HashSet::with_capacity(self.completed.len());
        for ShardResult { key, outcomes } in &self.completed {
            if !source.covers(pipes.len(), key) {
                return Err(CheckpointError::UnknownShard(*key));
            }
            if !seen.insert(key) || outcomes.len() != key.q_end - key.q_start {
                return Err(CheckpointError::MalformedShard(*key));
            }
        }
        Ok(())
    }

    /// Heals this checkpoint of a grid run over `source`. First checks
    /// it against the run ([`validate_source`](Self::validate_source)),
    /// then re-runs, on [`exec.unsupervised()`](ParallelExecutor::unsupervised),
    /// exactly the recorded shards that hold a
    /// [`WorkerPanic`](crate::supervisor::EvalError::WorkerPanic), and
    /// puts each result in its shard's place. Returns how many shards it
    /// re-ran: 0 for a checkpoint with none. An injected panic heals to
    /// the clean outcomes; a genuine one recurs calm and stays recorded.
    pub fn heal(
        &mut self,
        exec: &ParallelExecutor,
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        options: EvalOptions,
        judge: &dyn Judge,
    ) -> Result<usize, CheckpointError> {
        self.validate_source(pipes, source, options)?;
        let panicked: HashMap<ShardKey, usize> = (self.completed.iter().enumerate())
            .filter(|(_, done)| quarantines(&done.outcomes))
            .map(|(slot, done)| (done.key, slot))
            .collect();
        if panicked.is_empty() {
            return Ok(0);
        }
        let select = |key: &ShardKey| panicked.contains_key(key);
        let (stop, on_shard) = (&mut |_| false, &|_| {});
        let calm = exec.unsupervised();
        for healed in calm.collect_shards(pipes, source, options, judge, &select, stop, on_shard) {
            let slot = panicked[&healed.key];
            self.completed[slot] = healed;
        }
        Ok(panicked.len())
    }

    /// Number of completed shards.
    pub fn completed_shards(&self) -> usize {
        self.completed.len()
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
    /// Runs the shards of the grid over `source` that `checkpoint` still
    /// lacks, recording each finished shard. First checks the checkpoint
    /// against the run ([`Checkpoint::validate_source`]). A shard whose
    /// worker caught a panic is recorded (degraded), which quarantines it
    /// until a [`Checkpoint::heal`]. `stop` is polled before each
    /// dispatch — when an executor worker takes the next shard, on that
    /// worker — with the number of shards dispatched so far; once it
    /// returns true no further shard starts, and the ones already
    /// dispatched (at most one per worker) finish and are recorded.
    /// `on_shard` is called once with the key of every shard the call
    /// runs, on the worker that finished it, right after the shard is
    /// recorded. Returns the merged reports once the checkpoint covers
    /// the whole grid, `None` while work remains.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_checkpointed(
        &self,
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        options: EvalOptions,
        judge: &dyn Judge,
        checkpoint: &mut Checkpoint,
        stop: &mut (dyn FnMut(usize) -> bool + Send),
        on_shard: &(dyn Fn(ShardKey) + Sync),
    ) -> Result<Option<Vec<EvalReport>>, CheckpointError> {
        checkpoint.validate_source(pipes, source, options)?;
        let done: HashSet<ShardKey> = checkpoint.completed.iter().map(|d| d.key).collect();
        let select = |k: &ShardKey| !done.contains(k);
        let finished = self.collect_shards(pipes, source, options, judge, &select, stop, on_shard);
        let tele = self.telemetry();
        for done in finished {
            if tele.enabled() && quarantines(&done.outcomes) {
                tele.counter("checkpoint.quarantined", 1);
                tele.event(
                    "checkpoint.quarantine",
                    vec![
                        kv("model_idx", done.key.model_idx),
                        kv("q_start", done.key.q_start),
                        kv("q_end", done.key.q_end),
                    ],
                );
            }
            checkpoint.completed.push(done);
        }
        if checkpoint.completed.len() < source.plan(pipes.len()).len() {
            return Ok(None);
        }
        let reports = Reports::new(pipes, source);
        for done in &checkpoint.completed {
            reports.push(done.key, done.outcomes.clone());
        }
        Ok(Some(self.finalize(reports.finish())))
    }

    /// The one record path: runs the (row, shard) items of the grid over
    /// `source` that `select` picks, with `stop` and `on_shard` as
    /// [`evaluate_checkpointed`](Self::evaluate_checkpointed) polls and
    /// calls them, and returns the finished ones in row order. A
    /// checkpoint resume, its [`heal`](Checkpoint::heal) and a fleet
    /// claim all record through it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn collect_shards(
        &self,
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        options: EvalOptions,
        judge: &dyn Judge,
        select: &dyn Fn(&ShardKey) -> bool,
        stop: &mut (dyn FnMut(usize) -> bool + Send),
        on_shard: &(dyn Fn(ShardKey) + Sync),
    ) -> Vec<ShardResult> {
        let finished = Mutex::new(Vec::new());
        let sink = |key, outcomes| {
            let done = ShardResult { key, outcomes };
            finished.lock().expect("finished shards lock").push(done);
            on_shard(key);
        };
        self.run(pipes, source, options, judge, select, stop, &sink);
        let mut finished = finished.into_inner().expect("finished shards lock");
        finished.sort_by_key(|done| (done.key.model_idx, done.key.q_start));
        finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::evaluate;
    use crate::judge::RuleJudge;
    use chipvqa_core::spec::DatasetSpec;
    use chipvqa_models::ModelZoo;

    fn pipes() -> Vec<VlmPipeline> {
        [ModelZoo::gpt4o(), ModelZoo::llava_7b()]
            .into_iter()
            .map(VlmPipeline::new)
            .collect()
    }

    /// A resume over `source` that dispatches at most `max_shards` new
    /// shards when a budget is given.
    fn resume(
        exec: &ParallelExecutor,
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        checkpoint: &mut Checkpoint,
        max_shards: Option<usize>,
    ) -> Result<Option<Vec<EvalReport>>, CheckpointError> {
        let mut budget = |dispatched: usize| max_shards.is_some_and(|max| dispatched >= max);
        exec.evaluate_checkpointed(
            pipes,
            source,
            EvalOptions::default(),
            &RuleJudge::new(),
            checkpoint,
            &mut budget,
            &|_| {},
        )
    }

    #[test]
    fn resume_after_kill_matches_uninterrupted() {
        let bench = ChipVqa::standard();
        let source = ShardSource::Bench(&bench, 0);
        let pipes = pipes();
        let exec = ParallelExecutor::new(4);
        let options = EvalOptions::default();

        // uninterrupted reference
        let mut fresh = Checkpoint::for_source(&pipes, source, options);
        let full = resume(&exec, &pipes, source, &mut fresh, None)
            .expect("valid")
            .expect("complete");

        // "killed" run: 3 shards, then serialize, drop, restore, finish
        let mut ckpt = Checkpoint::for_source(&pipes, source, options);
        let first = resume(&exec, &pipes, source, &mut ckpt, Some(3)).expect("valid");
        assert!(first.is_none(), "run is incomplete after 3 shards");
        assert_eq!(ckpt.completed_shards(), 3);
        let pending = source.plan(pipes.len()).len() - ckpt.completed_shards();
        assert_eq!(pending, 2 * 9 - 3, "2 models x 9 shards, 3 done");

        let json = ckpt.to_json().expect("serializes");
        let mut restored = Checkpoint::from_json(&json).expect("parses");
        assert_eq!(restored, ckpt);

        let resumed = resume(&exec, &pipes, source, &mut restored, None)
            .expect("valid")
            .expect("complete after resume");
        assert_eq!(resumed, full, "resumed run is bit-identical");

        // and both match plain sequential evaluation
        for (pipe, report) in pipes.iter().zip(&resumed) {
            assert_eq!(&evaluate(pipe, &bench, options), report);
        }
    }

    /// Over a 2-model spec source, a call stopped by a dispatch budget
    /// hands the hook each shard it recorded once, and the resume hands
    /// it exactly the plan keys the first call lacked.
    #[test]
    fn the_shard_hook_reports_each_recorded_shard_exactly_once() {
        let spec = DatasetSpec::default();
        let source = ShardSource::Spec(&spec, 16);
        let pipes = pipes();
        let exec = ParallelExecutor::new(2);
        let options = EvalOptions::default();
        let sorted = |mut keys: Vec<ShardKey>| {
            keys.sort_by_key(|k| (k.model_idx, k.q_start));
            keys
        };
        let reported = Mutex::new(Vec::new());
        let hook = |key| reported.lock().expect("hook lock").push(key);
        let run = |checkpoint: &mut Checkpoint, max_shards: Option<usize>| {
            let mut budget = |dispatched: usize| max_shards.is_some_and(|max| dispatched >= max);
            let out = exec
                .evaluate_checkpointed(
                    &pipes,
                    source,
                    options,
                    &RuleJudge::new(),
                    checkpoint,
                    &mut budget,
                    &hook,
                )
                .expect("valid");
            (
                out,
                sorted(std::mem::take(&mut *reported.lock().expect("hook lock"))),
            )
        };

        let mut ckpt = Checkpoint::for_source(&pipes, source, options);
        let (out, first) = run(&mut ckpt, Some(5));
        assert!(out.is_none(), "run is incomplete after 5 shards");
        assert_eq!(first.len(), 5);
        let recorded = sorted(ckpt.completed.iter().map(|d| d.key).collect());
        assert_eq!(first, recorded, "each recorded shard is reported once");

        let (out, rest) = run(&mut ckpt, None);
        assert!(out.is_some(), "the resume completes the grid");
        let plan = sorted(source.plan(pipes.len()));
        let pending: Vec<ShardKey> = plan
            .iter()
            .copied()
            .filter(|k| !first.contains(k))
            .collect();
        assert_eq!(rest, pending, "the resume reports exactly the missing keys");
        assert_eq!(
            sorted([first, rest].concat()),
            plan,
            "no key is reported twice"
        );
    }

    /// A panic storm over both Table II columns is healed in place and
    /// folds to the sequential oracle: each model over the spec, then
    /// each over its no-choice collection.
    #[test]
    fn a_healed_table2_checkpoint_folds_to_the_sequential_oracle() {
        use crate::executor::SHARD_SIZE;
        use crate::fault::{install_quiet_panic_hook, FaultPlan};
        use crate::supervisor::Supervisor;
        install_quiet_panic_hook();
        let spec = DatasetSpec::scaled(2);
        let source = ShardSource::Table2(&spec, SHARD_SIZE);
        let pipes = pipes();
        let options = EvalOptions::default();
        let exec = ParallelExecutor::new(2).with_supervisor(Supervisor::new(FaultPlan {
            panic_rate: 0.05,
            ..FaultPlan::none()
        }));
        let mut ckpt = Checkpoint::for_source(&pipes, source, options);
        let stormy = resume(&exec, &pipes, source, &mut ckpt, None)
            .expect("valid")
            .expect("complete");
        assert!(stormy.iter().any(EvalReport::is_degraded), "DEGRADED");
        let heal =
            |ckpt: &mut Checkpoint| ckpt.heal(&exec, &pipes, source, options, &RuleJudge::new());
        assert!(heal(&mut ckpt).expect("valid") > 0, "panicked shards heal");
        assert_eq!(heal(&mut ckpt), Ok(0), "a healed checkpoint is clean");
        let healed = resume(&exec, &pipes, source, &mut ckpt, None)
            .expect("valid")
            .expect("complete");
        let columns = [spec.build(), spec.clone().with_mc_sa_ratio(0.0).build()];
        let oracle: Vec<EvalReport> = (columns.iter())
            .flat_map(|bench| pipes.iter().map(|pipe| evaluate(pipe, bench, options)))
            .collect();
        assert_eq!(healed, oracle);
    }

    #[test]
    fn zero_budget_does_no_work() {
        let bench = ChipVqa::standard();
        let source = ShardSource::Bench(&bench, 0);
        let pipes = pipes();
        let exec = ParallelExecutor::new(2);
        let mut ckpt = Checkpoint::for_source(&pipes, source, EvalOptions::default());
        let out = resume(&exec, &pipes, source, &mut ckpt, Some(0)).expect("valid");
        assert!(out.is_none());
        assert_eq!(ckpt.completed_shards(), 0);
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let bench = ChipVqa::standard();
        let source = ShardSource::Bench(&bench, 0);
        let pipes = pipes();
        let exec = ParallelExecutor::new(2);
        let options = EvalOptions::default();
        let ckpt = Checkpoint::for_source(&pipes, source, options);
        let mismatch = |pipes: &[VlmPipeline], source, options| match ckpt
            .validate_source(pipes, source, options)
        {
            Err(CheckpointError::Mismatch(mismatch)) => mismatch,
            other => panic!("expected a mismatch, got {other:?}"),
        };

        // different models
        let other: Vec<VlmPipeline> = [ModelZoo::fuyu_8b(), ModelZoo::llava_7b()]
            .into_iter()
            .map(VlmPipeline::new)
            .collect();
        assert!(matches!(
            mismatch(&other, source, options),
            RunMismatch::Models { .. }
        ));

        // different benchmark content
        let other_bench = ChipVqa::with_seed(bench.seed() + 1);
        assert_eq!(
            mismatch(&pipes, ShardSource::Bench(&other_bench, 0), options),
            RunMismatch::Bench {
                stamped: bench_hash(&bench),
                expected: bench_hash(&other_bench),
            }
        );

        // different options
        let other_options = EvalOptions {
            attempts: 3,
            ..options
        };
        assert_eq!(
            mismatch(&pipes, source, other_options),
            RunMismatch::Options {
                stamped: options,
                expected: other_options,
            }
        );

        // and the executor surfaces the error
        let mut bad = Checkpoint::for_source(&other, source, options);
        let err = resume(&exec, &pipes, source, &mut bad, None).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Mismatch(RunMismatch::Models { .. })
        ));
    }

    #[test]
    fn spec_bound_checkpoints_reject_foreign_specs() {
        let spec = DatasetSpec::default();
        let bench = spec.build();
        let source = ShardSource::Bench(&bench, spec.fingerprint());
        let pipes = pipes();
        let options = EvalOptions::default();
        let ckpt = Checkpoint::for_source(&pipes, source, options);
        assert_eq!(ckpt.identity.spec_fingerprint, Some(spec.fingerprint()));
        assert_eq!(ckpt.validate_source(&pipes, source, options), Ok(()));

        // a different spec is refused even though the bench bytes match
        let other = spec.clone().with_mc_sa_ratio(0.5);
        assert_eq!(
            ckpt.validate_source(
                &pipes,
                ShardSource::Bench(&bench, other.fingerprint()),
                options
            ),
            Err(CheckpointError::Mismatch(RunMismatch::SpecFingerprint {
                stamped: Some(spec.fingerprint()),
                expected: Some(other.fingerprint()),
            }))
        );
        // an unbound checkpoint is refused for spec-bound resumes
        let unbound = Checkpoint::for_source(&pipes, ShardSource::Bench(&bench, 0), options);
        assert_eq!(
            unbound.validate_source(&pipes, source, options),
            Err(CheckpointError::Mismatch(RunMismatch::SpecFingerprint {
                stamped: None,
                expected: Some(spec.fingerprint()),
            }))
        );
        // legacy JSON (no spec field) deserializes as unbound
        let legacy: Checkpoint = serde_json::from_str(
            &ckpt
                .to_json()
                .expect("serializes")
                .replace(&format!(",\"spec_fingerprint\":{}", spec.fingerprint()), ""),
        )
        .expect("legacy json parses");
        assert_eq!(legacy.identity.spec_fingerprint, None);
    }

    /// The store is no part of a run's identity: a checkpoint taken
    /// without a store resumes on an executor whose store rotates many
    /// small segments while the resume runs, to the uninterrupted bytes.
    #[test]
    fn resume_on_a_rotating_store_matches_uninterrupted() {
        use crate::cache::AnswerCache;
        use crate::store::{AnswerStore, StoreConfig};
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!(
            "chipvqa-ckpt-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let bench = ChipVqa::standard();
        let source = ShardSource::Bench(&bench, 0);
        let pipes = pipes();
        let options = EvalOptions::default();
        let storeless = ParallelExecutor::new(2);

        let mut fresh = Checkpoint::for_source(&pipes, source, options);
        let full = resume(&storeless, &pipes, source, &mut fresh, None)
            .expect("valid")
            .expect("complete");

        let mut ckpt = Checkpoint::for_source(&pipes, source, options);
        let first = resume(&storeless, &pipes, source, &mut ckpt, Some(3)).expect("valid");
        assert!(first.is_none(), "run is incomplete after 3 shards");
        assert_eq!(ckpt.completed_shards(), 3);
        // JSON written while identities still stamped a store epoch parses
        let legacy = ckpt
            .to_json()
            .expect("serializes")
            .replace("\"identity\":{", "\"identity\":{\"store_generation\":3,");
        let mut restored = Checkpoint::from_json(&legacy).expect("legacy json parses");
        assert_eq!(restored, ckpt);

        // tiny segments: nearly every insert rotates
        let store = Arc::new(
            AnswerStore::open_with(
                &dir,
                StoreConfig {
                    segment_max_bytes: 256,
                },
            )
            .expect("store opens"),
        );
        let stored = ParallelExecutor::new(2)
            .with_cache(Arc::new(AnswerCache::new().with_store(Arc::clone(&store))));
        let resumed = resume(&stored, &pipes, source, &mut restored, None)
            .expect("a store-backed resume accepts a storeless checkpoint")
            .expect("complete after resume");
        assert!(
            store.stats().segments > 1,
            "the store rotated during the resume"
        );
        assert_eq!(resumed, full, "resumed run is bit-identical");
        for (pipe, report) in pipes.iter().zip(&resumed) {
            assert_eq!(&evaluate(pipe, &bench, options), report);
        }
        drop((stored, store));
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
