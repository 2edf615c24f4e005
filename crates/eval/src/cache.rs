//! Granular answer cache for repeated evaluations.
//!
//! Large-scale runs (the full model×question grid, the resolution sweep,
//! pass@k) re-infer the same (model, question, resolution, attempt)
//! cells over and over. The cache memoises the *model answer* — never
//! the verdict, so a cached entry stays valid under any judge — keyed by
//! everything that determines the answer:
//!
//! * the model's behavioural [`fingerprint`](chipvqa_models::VlmPipeline::fingerprint)
//!   (any calibration change yields a new key),
//! * the question id **and** a hash of its full prompt (an id reused for
//!   an edited question misses rather than serving a stale answer),
//! * the downsampling factor of the resolution study,
//! * the pass@k attempt index.
//!
//! **Invariant: only clean answers enter the cache.** Supervised (chaos)
//! runs never insert a faulted response — a truncated, garbled or
//! otherwise failed call must not poison future runs with corrupted
//! answers. The supervisor's recovery loop only reaches insertion on a
//! fault-free draw, and [`AnswerCache::insert`] debug-asserts that the
//! text carries no corruption markers (see
//! [`fault::is_corrupted_text`](crate::fault::is_corrupted_text)).
//! The persistent tier re-checks the invariant in release builds — see
//! [`AnswerStore::insert`](crate::store::AnswerStore::insert).
//!
//! **Persistent tier.** [`AnswerCache::with_store`] attaches an
//! [`AnswerStore`](crate::store::AnswerStore) that then holds the one
//! copy of every answer: lookups read the store's index, and every
//! clean insert is appended to the store (write-behind), so the next
//! process warm-starts from the same answers. The cache keeps no map of
//! its own beside the store's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use chipvqa_core::question::Question;
use chipvqa_models::backbone::AnswerPath;
use chipvqa_models::ModelResponse;
use serde::{Deserialize, Serialize};

/// FNV-1a over the question's full prompt (prompt text plus rendered
/// choices), so any wording or option edit changes the key.
pub fn prompt_hash(question: &Question) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in question.full_prompt().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Everything that determines a model's answer to one inference call.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CacheKey {
    /// Behavioural fingerprint of the model.
    pub model_fingerprint: u64,
    /// Question id.
    pub question_id: String,
    /// Hash of the full prompt (see [`prompt_hash`]).
    pub prompt_hash: u64,
    /// Image downsampling factor.
    pub downsample: usize,
    /// pass@k attempt index.
    pub attempt: u64,
    /// Fingerprint of the [`DatasetSpec`](chipvqa_core::spec::DatasetSpec)
    /// the question came from (`0` for the canonical collections).
    /// Scaled replicas reuse id shapes across specs, so the spec
    /// fingerprint keeps their answers from ever crossing specs.
    #[serde(default)]
    pub dataset_fingerprint: u64,
}

impl CacheKey {
    /// Key for one inference call against a canonical (non-spec)
    /// collection.
    pub fn new(
        model_fingerprint: u64,
        question: &Question,
        downsample: usize,
        attempt: u64,
    ) -> Self {
        CacheKey::for_dataset(model_fingerprint, 0, question, downsample, attempt)
    }

    /// Key for one inference call against a spec-generated collection;
    /// `dataset_fingerprint` is
    /// [`DatasetSpec::fingerprint`](chipvqa_core::spec::DatasetSpec::fingerprint).
    pub fn for_dataset(
        model_fingerprint: u64,
        dataset_fingerprint: u64,
        question: &Question,
        downsample: usize,
        attempt: u64,
    ) -> Self {
        CacheKey {
            model_fingerprint,
            question_id: question.id.clone(),
            prompt_hash: prompt_hash(question),
            downsample,
            attempt,
            dataset_fingerprint,
        }
    }

    /// Canonical byte encoding of the key: every numeric component in
    /// little-endian order, then the question id raw, each field
    /// preceded by its byte length so no two distinct keys share an
    /// encoding. This is the store's content address — the golden test
    /// in `tests/cache_consistency.rs` freezes it, so any change here
    /// is a *format break*, not a refactor.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let id = self.question_id.as_bytes();
        let mut out = Vec::with_capacity(8 * 5 + 8 + id.len());
        out.extend_from_slice(&self.model_fingerprint.to_le_bytes());
        out.extend_from_slice(&self.prompt_hash.to_le_bytes());
        out.extend_from_slice(&(self.downsample as u64).to_le_bytes());
        out.extend_from_slice(&self.attempt.to_le_bytes());
        out.extend_from_slice(&self.dataset_fingerprint.to_le_bytes());
        out.extend_from_slice(&(id.len() as u64).to_le_bytes());
        out.extend_from_slice(id);
        out
    }

    /// FNV-1a 64 over [`canonical_bytes`](CacheKey::canonical_bytes) —
    /// the content hash stored in every persisted record's framing.
    pub fn content_hash(&self) -> u64 {
        crate::store::fnv1a64(&self.canonical_bytes())
    }
}

/// The memoised part of a [`ModelResponse`] — enough to rebuild a
/// question outcome and re-judge under any judge. The percept is
/// deliberately dropped: it is large and derivable by re-running.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedAnswer {
    /// The answer text.
    pub text: String,
    /// How the answer came about.
    pub path: AnswerPath,
    /// The rolled solve probability (kept for ablation tooling).
    pub solve_probability: f64,
}

impl From<&ModelResponse> for CachedAnswer {
    fn from(resp: &ModelResponse) -> Self {
        CachedAnswer {
            text: resp.text.clone(),
            path: resp.path,
            solve_probability: resp.solve_probability,
        }
    }
}

/// Point-in-time traffic counters of an [`AnswerCache`] — the public
/// face of the cache's accounting, surfaced on
/// [`EvalReport::cache_stats`](crate::harness::EvalReport::cache_stats)
/// by cache-attached executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries stored (overwrites count too).
    pub insertions: u64,
    /// Entries removed by invalidation or [`AnswerCache::clear`].
    pub evictions: u64,
    /// Lookups served from the persistent store this run (a warm
    /// start shows up here: disk answers instead of inference).
    #[serde(default)]
    pub store_hits: u64,
    /// Lookups the store could not serve.
    #[serde(default)]
    pub store_misses: u64,
    /// Run-spanning store hits, persisted across processes in the
    /// store's `meta.json` — the counter that used to reset between
    /// runs. 0 when no store is attached.
    #[serde(default)]
    pub lifetime_hits: u64,
    /// Run-spanning store misses; see
    /// [`lifetime_hits`](CacheStats::lifetime_hits).
    #[serde(default)]
    pub lifetime_misses: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups (0 when there were none). Counts a
    /// store-served lookup as a hit: it avoided inference, which is
    /// what the rate measures.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of this run's lookups served by the *persistent* tier —
    /// 1.0 on a perfectly warm restart, 0.0 without a store or on a cold
    /// run that looks each key up once (a repeated key is served by the
    /// store the second time).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.store_hits as f64 / total as f64
        }
    }
}

/// Thread-safe answer cache shared by executor workers.
///
/// Reads take a shared lock; hit/miss/insert/evict counters are
/// lock-free and surfaced via [`AnswerCache::stats`]. The cache is
/// *semantically transparent*: because the pipeline is deterministic
/// per key, a hit returns exactly what inference would have produced, so
/// cached and uncached evaluations yield identical reports.
#[derive(Debug, Default)]
pub struct AnswerCache {
    /// The answers of a memory-only cache; empty once a store is
    /// attached, whose index then holds them.
    entries: RwLock<HashMap<CacheKey, CachedAnswer>>,
    store: Option<Arc<crate::store::AnswerStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
}

impl AnswerCache {
    /// An empty cache.
    pub fn new() -> Self {
        AnswerCache::default()
    }

    /// Attaches a persistent [`AnswerStore`](crate::store::AnswerStore)
    /// as the one home of this cache's answers; answers already held in
    /// memory move into it.
    pub fn with_store(mut self, store: Arc<crate::store::AnswerStore>) -> Self {
        let entries = self.entries.get_mut().unwrap_or_else(|p| p.into_inner());
        for (key, answer) in entries.drain() {
            store.insert(key, answer);
        }
        self.store = Some(store);
        self
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Arc<crate::store::AnswerStore>> {
        self.store.as_ref()
    }

    /// Flushes the attached store's buffered appends and meta counters
    /// to disk; a no-op without a store. Executors call this when a run
    /// finalizes so a clean exit is always durable.
    pub fn flush_store(&self) -> std::io::Result<()> {
        match &self.store {
            Some(store) => store.flush(),
            None => Ok(()),
        }
    }

    /// Looks up an answer, counting a hit or miss. With a store
    /// attached every lookup reads the store, and a hit there counts as
    /// both a hit and a store hit — it avoided inference, which is what
    /// the counters measure.
    pub fn lookup(&self, key: &CacheKey) -> Option<CachedAnswer> {
        let found = match &self.store {
            Some(store) => {
                let found = store.lookup(key);
                let tier = if found.is_some() {
                    &self.store_hits
                } else {
                    &self.store_misses
                };
                tier.fetch_add(1, Ordering::Relaxed);
                found
            }
            None => read_lock(&self.entries).get(key).cloned(),
        };
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores an answer (last write wins; all writers compute identical
    /// values for a key, so races are benign). With a store attached,
    /// the answer goes to the store only (write-behind: durable after
    /// [`flush_store`](AnswerCache::flush_store)).
    ///
    /// Callers must only insert *clean* (non-faulted) answers — see the
    /// module-level invariant. Debug builds assert it here; the store
    /// refuses faulted text in release builds too.
    pub fn insert(&self, key: CacheKey, answer: CachedAnswer) {
        debug_assert!(
            !crate::fault::is_corrupted_text(&answer.text),
            "cache invariant violated: faulted answer for {key:?}: {:?}",
            answer.text
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
        match &self.store {
            Some(store) => {
                store.insert(key, answer);
            }
            None => {
                write_lock(&self.entries).insert(key, answer);
            }
        }
    }

    /// Removes one entry of a memory-only cache; returns whether it
    /// existed. A store-backed cache holds no entries of its own, so
    /// there is nothing to remove: the store is content-addressed and
    /// drops answers only by its own eviction.
    pub fn invalidate(&self, key: &CacheKey) -> bool {
        let removed = write_lock(&self.entries).remove(key).is_some();
        if removed {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Drops every entry of a memory-only cache for one model
    /// fingerprint (e.g. after a recalibration); returns how many were
    /// removed. A recalibrated model has a new fingerprint, so a store
    /// never serves it the old answers.
    pub fn invalidate_model(&self, model_fingerprint: u64) -> usize {
        let removed = {
            let mut map = write_lock(&self.entries);
            let before = map.len();
            map.retain(|k, _| k.model_fingerprint != model_fingerprint);
            before - map.len()
        };
        self.evictions.fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Drops every entry of a memory-only cache.
    pub fn clear(&self) {
        let removed = {
            let mut map = write_lock(&self.entries);
            let before = map.len();
            map.clear();
            before
        };
        self.evictions.fetch_add(removed as u64, Ordering::Relaxed);
    }

    /// Number of cached answers (the store's live entries, when one is
    /// attached).
    pub fn len(&self) -> usize {
        match &self.store {
            Some(store) => store.len(),
            None => read_lock(&self.entries).len(),
        }
    }

    /// Whether the cache holds no answers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// All traffic counters at once. The `lifetime_*` fields come from
    /// the attached store's persisted meta counters, so they span every
    /// process that ever used the store — this is the counter that used
    /// to reset between runs.
    pub fn stats(&self) -> CacheStats {
        let (lifetime_hits, lifetime_misses) = match &self.store {
            Some(store) => {
                let s = store.stats();
                (s.lifetime_hits, s.lifetime_misses)
            }
            None => (0, 0),
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            lifetime_hits,
            lifetime_misses,
        }
    }

    /// Serialisable snapshot of the current contents (the store's, when
    /// one is attached), in deterministic key order.
    pub fn snapshot(&self) -> CacheSnapshot {
        if let Some(store) = &self.store {
            return CacheSnapshot {
                entries: store.entries(),
            };
        }
        let map = read_lock(&self.entries);
        let mut entries: Vec<(CacheKey, CachedAnswer)> =
            map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        CacheSnapshot { entries }
    }

    /// Rebuilds a cache from a snapshot (counters start at zero).
    pub fn from_snapshot(snapshot: CacheSnapshot) -> Self {
        let cache = AnswerCache::new();
        {
            let mut map = write_lock(&cache.entries);
            for (k, v) in snapshot.entries {
                map.insert(k, v);
            }
        }
        cache
    }
}

/// Poison-tolerant read lock: a panic caught by the supervised
/// executor's `catch_unwind` must not cascade into every later cache
/// access. Entries are always internally consistent (each insert is a
/// single map operation), so recovering the guard is sound.
fn read_lock<K, V>(lock: &RwLock<HashMap<K, V>>) -> std::sync::RwLockReadGuard<'_, HashMap<K, V>> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Poison-tolerant write lock; see [`read_lock`].
fn write_lock<K, V>(
    lock: &RwLock<HashMap<K, V>>,
) -> std::sync::RwLockWriteGuard<'_, HashMap<K, V>> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Point-in-time, order-stable copy of a cache for persistence.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Cached (key, answer) pairs sorted by key.
    pub entries: Vec<(CacheKey, CachedAnswer)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipvqa_core::ChipVqa;
    use chipvqa_models::{ModelZoo, VlmPipeline};

    #[test]
    fn hit_miss_accounting_and_roundtrip() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let cache = AnswerCache::new();
        let q = &bench.questions()[0];
        let key = CacheKey::new(pipe.fingerprint(), q, 1, 0);

        assert!(cache.lookup(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let resp = pipe.infer(q, 1, 0);
        cache.insert(key.clone(), CachedAnswer::from(&resp));
        let hit = cache.lookup(&key).expect("inserted");
        assert_eq!(hit.text, resp.text);
        assert_eq!(hit.path, resp.path);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        let snap = cache.snapshot();
        let restored = AnswerCache::from_snapshot(snap.clone());
        assert_eq!(restored.len(), 1);
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn stats_count_insertions_and_evictions() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let cache = AnswerCache::new();
        for q in bench.iter().take(3) {
            let key = CacheKey::new(pipe.fingerprint(), q, 1, 0);
            cache.insert(key, CachedAnswer::from(&pipe.infer(q, 1, 0)));
        }
        let q0 = &bench.questions()[0];
        let key0 = CacheKey::new(pipe.fingerprint(), q0, 1, 0);
        assert!(cache.lookup(&key0).is_some());
        assert!(cache.invalidate(&key0));
        assert!(!cache.invalidate(&key0), "second invalidate finds nothing");
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.evictions, 3, "one invalidate + two cleared");
        assert_eq!((stats.hits, stats.misses), (1, 0));
        assert_eq!(stats.hit_rate(), 1.0);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn a_store_backed_cache_keeps_its_answers_in_the_store_only() {
        use crate::store::AnswerStore;
        let dir =
            std::env::temp_dir().join(format!("chipvqa-cache-one-copy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let store = Arc::new(AnswerStore::open(&dir).expect("store opens"));
        let cache = AnswerCache::new().with_store(Arc::clone(&store));
        for q in bench.iter().take(3) {
            let key = CacheKey::new(pipe.fingerprint(), q, 1, 0);
            cache.insert(key, CachedAnswer::from(&pipe.infer(q, 1, 0)));
        }
        assert_eq!(cache.len(), store.len());
        assert_eq!(cache.len(), 3);
        assert!(read_lock(&cache.entries).is_empty(), "no second copy");

        let key = CacheKey::new(pipe.fingerprint(), &bench.questions()[0], 1, 0);
        let first = cache.lookup(&key).expect("stored");
        assert_eq!(cache.lookup(&key), Some(first));
        assert_eq!(store.stats().hits, 2, "both lookups read the store");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.store_hits, stats.misses), (2, 2, 0));
        assert_eq!(cache.snapshot().entries, store.entries());
        drop((cache, store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prompt_edit_changes_key() {
        let bench = ChipVqa::standard();
        let q = &bench.questions()[5];
        let mut edited = q.clone();
        edited.prompt.push_str(" (rev 2)");
        assert_ne!(prompt_hash(q), prompt_hash(&edited));
        assert_ne!(CacheKey::new(7, q, 1, 0), CacheKey::new(7, &edited, 1, 0));
    }

    #[test]
    fn faulted_attempt_never_cached_recovered_success_is() {
        // A fault on recovery attempt 0 followed by success on attempt 1
        // must cache only the clean success — the invariant the
        // supervisor's recovery loop upholds.
        use crate::fault::FaultPlan;
        use crate::supervisor::{RecoveryPolicy, Supervisor};

        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let cache = AnswerCache::new();

        // find a question whose attempt-0 draw faults (recoverably) and
        // whose attempt-1 draw is clean under this plan
        let sup = Supervisor::new(FaultPlan {
            truncate_rate: 0.45,
            ..FaultPlan::none()
        })
        .with_recovery(RecoveryPolicy {
            max_retries: 1,
            ..RecoveryPolicy::default()
        });
        let fp = pipe.fingerprint();
        let recovered = bench
            .iter()
            .find(|q| {
                use crate::fault::{CallKey, CallSite};
                let draw = |recovery| {
                    crate::fault::FaultInjector::new(sup.plan().clone()).draw(CallKey {
                        fingerprint: fp,
                        question_id: &q.id,
                        site: CallSite::Inference,
                        attempt: 0,
                        recovery,
                    })
                };
                draw(0).is_some() && draw(1).is_none()
            })
            .expect("some question faults once then recovers");

        let answer = sup
            .infer(
                &pipe,
                recovered,
                1,
                0,
                Some(&cache),
                &chipvqa_telemetry::Telemetry::disabled(),
                0,
            )
            .expect("recovers on attempt 1");
        assert_eq!(cache.len(), 1, "only the clean success is cached");
        assert!(!crate::fault::is_corrupted_text(&answer.text));
        let hit = cache
            .lookup(&CacheKey::new(fp, recovered, 1, 0))
            .expect("cached under the call key");
        assert_eq!(hit.text, pipe.infer(recovered, 1, 0).text, "pristine text");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn corrupted_insert_trips_the_invariant_assertion() {
        let bench = ChipVqa::standard();
        let q = &bench.questions()[0];
        let cache = AnswerCache::new();
        let key = CacheKey::new(1, q, 1, 0);
        let corrupted = CachedAnswer {
            text: format!("unfinished ans{}", crate::fault::TRUNCATION_MARKER),
            path: chipvqa_models::backbone::AnswerPath::Failed,
            solve_probability: 0.0,
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.insert(key, corrupted)
        }));
        assert!(result.is_err(), "debug assertion must reject faulted text");
    }

    #[test]
    fn model_invalidation_is_selective() {
        let bench = ChipVqa::standard();
        let a = VlmPipeline::new(ModelZoo::gpt4o());
        let b = VlmPipeline::new(ModelZoo::llava_7b());
        let cache = AnswerCache::new();
        for q in bench.iter().take(4) {
            for pipe in [&a, &b] {
                let key = CacheKey::new(pipe.fingerprint(), q, 1, 0);
                cache.insert(key, CachedAnswer::from(&pipe.infer(q, 1, 0)));
            }
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.invalidate_model(a.fingerprint()), 4);
        assert_eq!(cache.len(), 4);
        let survivor = CacheKey::new(b.fingerprint(), &bench.questions()[0], 1, 0);
        assert!(cache.lookup(&survivor).is_some());
    }
}
