//! T1: property tests for the answer cache — under arbitrary
//! interleavings of insert / lookup, a lookup never returns
//! a stale answer: whatever comes back was inserted under *exactly* the
//! queried key (same model fingerprint, same prompt hash), and presence
//! always agrees with a reference model.
//!
//! Also home to the **golden fingerprint freeze**: the byte encoding of
//! [`CacheKey`] is the persistent store's content address, so its exact
//! bytes (and the FNV-1a constants beneath every fingerprint in the
//! workspace) are pinned against literal expected values. A failure
//! here is an on-disk **format break** — existing stores would silently
//! change meaning — not a refactor.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use chipvqa::core::{no_choice, ChipVqa, DatasetSpec};
use chipvqa::eval::cache::{prompt_hash, AnswerCache, CacheKey, CachedAnswer};
use chipvqa::eval::store::{
    decode_segment, encode_record, fnv1a64, AnswerStore, RECORD_HEADER_BYTES, RECORD_MAGIC,
};
use chipvqa::eval::ParallelExecutor;
use chipvqa::models::backbone::AnswerPath;
use chipvqa::models::{ModelZoo, VlmPipeline};
use proptest::prelude::*;

fn standard() -> &'static ChipVqa {
    static BENCH: OnceLock<ChipVqa> = OnceLock::new();
    BENCH.get_or_init(ChipVqa::standard)
}

/// The canonical answer for a key — injective in every key component,
/// so any cross-key leak shows up as a text mismatch.
fn canonical_answer(key: &CacheKey) -> CachedAnswer {
    CachedAnswer {
        text: format!(
            "{}|{}|{}|{}|{}",
            key.model_fingerprint, key.question_id, key.prompt_hash, key.downsample, key.attempt
        ),
        path: AnswerPath::Solved,
        solve_probability: 0.5,
    }
}

/// A small deterministic key universe: 3 fingerprints × 4 questions ×
/// 2 prompt revisions × 2 resolutions. Prompt revisions share the
/// question id but differ in prompt hash — the stale-answer hazard.
fn key_universe() -> Vec<CacheKey> {
    let bench = standard();
    let mut keys = Vec::new();
    for fp in [11u64, 22, 33] {
        for q in bench.questions().iter().take(4) {
            let mut edited = q.clone();
            edited.prompt.push_str(" (rev B)");
            for question in [q, &edited] {
                for downsample in [1usize, 4] {
                    keys.push(CacheKey::new(fp, question, downsample, 0));
                }
            }
        }
    }
    keys
}

/// The frozen cache-key encoding. These literals were computed once
/// from the shipped implementation and must never change: they are the
/// content addresses of every record in every existing on-disk store.
#[test]
fn golden_cache_key_fingerprint_bytes_are_frozen() {
    // the FNV-1a 64 constants every fingerprint in the workspace uses
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"chipvqa"), 0x651f_4f1c_3757_c02d);

    let key = CacheKey {
        model_fingerprint: 0x1122_3344_5566_7788,
        question_id: "digital-042".to_string(),
        prompt_hash: 0xCAFE_BABE_1234_5678,
        downsample: 3,
        attempt: 2,
        dataset_fingerprint: 0x0F0F_0F0F_0F0F_0F0F,
    };

    // canonical_bytes: five LE u64 fields, the id length, the raw id
    let expected_hex = "887766554433221178563412bebafeca0300000000000000\
                        02000000000000000f0f0f0f0f0f0f0f0b00000000000000\
                        6469676974616c2d303432";
    let expected: Vec<u8> = (0..expected_hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&expected_hex[i..i + 2], 16).expect("hex"))
        .collect();
    let bytes = key.canonical_bytes();
    assert_eq!(bytes.len(), 59);
    assert_eq!(bytes, expected, "CacheKey canonical byte layout moved");
    assert_eq!(
        key.content_hash(),
        0xbf32_1e1d_8886_b57a,
        "CacheKey content hash moved"
    );

    // prompt_hash is the same FNV over the full prompt — pinned by
    // relation so a divergence between the two hashers is caught, on
    // every question of a scaled spec and on its no-choice twins
    let scaled = DatasetSpec::scaled(2).build();
    let twins = no_choice(scaled.questions());
    assert!(twins.iter().any(|q| !q.is_multiple_choice()));
    for q in scaled.questions().iter().chain(&twins) {
        assert_eq!(
            prompt_hash(q),
            fnv1a64(q.full_prompt().as_bytes()),
            "{}",
            q.id
        );
    }

    // record framing: magic, payload length, key hash, payload hash
    let answer = CachedAnswer {
        text: "the mux selects d1 when sel is high".to_string(),
        path: AnswerPath::Solved,
        solve_probability: 0.25,
    };
    let record = encode_record(&key, &answer);
    assert_eq!(RECORD_HEADER_BYTES, 24);
    assert_eq!(&record[0..4], &RECORD_MAGIC.to_le_bytes());
    assert_eq!(RECORD_MAGIC, 0xC51A_D0C2, "record magic moved");
    let payload = &record[RECORD_HEADER_BYTES..];
    let len = u32::from_le_bytes(record[4..8].try_into().expect("4 bytes")) as usize;
    assert_eq!(len, payload.len());
    assert_eq!(
        &record[8..16],
        &key.content_hash().to_le_bytes(),
        "framing key hash must be the frozen content hash"
    );
    assert_eq!(&record[16..24], &fnv1a64(payload).to_le_bytes());
    // format v2's payload: the key's canonical bytes, then the answer
    // (path byte, probability bits, text length, text)
    assert_eq!(&payload[..bytes.len()], bytes.as_slice());
    assert_eq!(record.len(), 131);
    assert_eq!(
        fnv1a64(&record),
        0x69f5_a975_5834_4c38,
        "record bytes moved"
    );
}

/// The engine keys each answer from the prompt hash its shard holds
/// for the question's column: a cold streamed Table II grid stores
/// exactly the keys [`CacheKey::for_dataset`] gives every zoo model
/// over the built with-choice column and its [`no_choice`] twin, each
/// twin key under the twin spec's fingerprint and the hash of the
/// prompt without its choices.
#[test]
fn a_cold_streamed_grid_stores_the_keys_for_dataset_gives() {
    let dir = std::env::temp_dir().join(format!("chipvqa-grid-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(AnswerStore::open(&dir).expect("store opens"));
    let cache = Arc::new(AnswerCache::new().with_store(Arc::clone(&store)));
    chipvqa_bench::run_table2_on(&ParallelExecutor::new(2).with_cache(cache), 2, true);
    let stored: Vec<CacheKey> = store.entries().into_iter().map(|(key, _)| key).collect();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let spec = DatasetSpec::scaled(2);
    let twin_fp = spec.clone().with_mc_sa_ratio(0.0).fingerprint();
    let built = spec.build();
    let twin = no_choice(built.questions());
    let mut expected = Vec::new();
    for profile in ModelZoo::all() {
        let fp = VlmPipeline::new(profile).fingerprint();
        for (q, t) in built.questions().iter().zip(&twin) {
            expected.push(CacheKey::for_dataset(fp, spec.fingerprint(), q, 1, 0));
            expected.push(CacheKey::for_dataset(fp, twin_fp, t, 1, 0));
        }
    }
    expected.sort();
    assert_eq!(stored.len(), 12 * 2 * built.len());
    assert!(
        stored == expected,
        "the store's keys differ from for_dataset's"
    );
}

/// Strings for the round trip: empty, ASCII, multi-byte UTF-8 and the
/// characters JSON would have escaped.
fn any_text() -> impl Strategy<Value = String> {
    let chars = vec!['a', 'Z', '7', ' ', '"', '\\', '\n', 'é', 'µ', '中', '🙂'];
    proptest::collection::vec(proptest::sample::select(chars), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Solve probabilities compared by bits: ordinary values, any bit
/// pattern (NaN payloads included), and the edge cases by name.
fn any_probability() -> impl Strategy<Value = f64> {
    let named = vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 4.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    prop_oneof![
        any::<f64>(),
        any::<u64>().prop_map(f64::from_bits),
        proptest::sample::select(named),
    ]
}

fn any_record() -> impl Strategy<Value = (CacheKey, CachedAnswer)> {
    let key = (
        (any::<u64>(), any::<u64>(), any::<usize>()),
        (any::<u64>(), any::<u64>(), any_text()),
    )
        .prop_map(
            |((model, prompt, downsample), (attempt, dataset, id))| CacheKey {
                model_fingerprint: model,
                question_id: id,
                prompt_hash: prompt,
                downsample,
                attempt,
                dataset_fingerprint: dataset,
            },
        );
    let paths = vec![AnswerPath::Solved, AnswerPath::Guessed, AnswerPath::Failed];
    let answer = (
        any_text(),
        proptest::sample::select(paths),
        any_probability(),
    )
        .prop_map(|(text, path, solve_probability)| CachedAnswer {
            text,
            path,
            solve_probability,
        });
    (key, answer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interleavings_never_serve_stale_answers(
        ops in proptest::collection::vec((any::<bool>(), 0usize..48), 1..80)
    ) {
        let keys = key_universe();
        prop_assert_eq!(keys.len(), 48);
        let cache = AnswerCache::new();
        let mut reference: HashMap<CacheKey, CachedAnswer> = HashMap::new();

        for (insert, idx) in ops {
            let key = &keys[idx];
            if insert {
                // insert the canonical answer for this exact key
                cache.insert(key.clone(), canonical_answer(key));
                reference.insert(key.clone(), canonical_answer(key));
            } else {
                // lookup: must agree with the reference, and any hit
                // must be the canonical answer for *this* key
                let got = cache.lookup(key);
                let want = reference.get(key).cloned();
                prop_assert_eq!(got.clone(), want);
                if let Some(hit) = got {
                    prop_assert_eq!(hit, canonical_answer(key));
                }
            }
        }

        // final sweep: every key answers exactly per the reference
        for key in &keys {
            prop_assert_eq!(cache.lookup(key), reference.get(key).cloned());
        }
        prop_assert_eq!(cache.len(), reference.len());
    }

    /// A changed prompt (same question id) or changed fingerprint can
    /// never hit an entry cached under the old key.
    #[test]
    fn changed_prompt_or_model_always_misses(fp in 1u64..1000, qi in 0usize..20) {
        let bench = standard();
        let q = &bench.questions()[qi];
        let cache = AnswerCache::new();
        let key = CacheKey::new(fp, q, 1, 0);
        cache.insert(key.clone(), canonical_answer(&key));

        let mut edited = q.clone();
        edited.prompt.push('!');
        prop_assert_ne!(prompt_hash(q), prompt_hash(&edited));
        prop_assert!(cache.lookup(&CacheKey::new(fp, &edited, 1, 0)).is_none());
        prop_assert!(cache.lookup(&CacheKey::new(fp ^ 1, q, 1, 0)).is_none());
        prop_assert!(cache.lookup(&CacheKey::new(fp, q, 2, 0)).is_none());
        prop_assert!(cache.lookup(&CacheKey::new(fp, q, 1, 1)).is_none());
        prop_assert!(cache.lookup(&key).is_some());
    }

    /// Any key and answer survive `encode_record` → `decode_segment`
    /// bit for bit, and re-encode to the same bytes.
    #[test]
    fn records_round_trip_bit_for_bit(
        records in proptest::collection::vec(any_record(), 1..8)
    ) {
        let mut segment = Vec::new();
        for (key, answer) in &records {
            segment.extend_from_slice(&encode_record(key, answer));
        }
        let path = std::env::temp_dir().join(format!(
            "chipvqa-record-roundtrip-{}-{:016x}.log",
            std::process::id(),
            fnv1a64(&segment)
        ));
        std::fs::write(&path, &segment).expect("writes the segment");
        let decoded = decode_segment(&path);
        let _ = std::fs::remove_file(&path);
        let (decoded, scan) = decoded.expect("decodes");
        prop_assert_eq!(scan.dropped_bytes, 0);
        prop_assert_eq!(scan.good_bytes, segment.len() as u64);
        prop_assert_eq!(decoded.len(), records.len());
        for ((key, answer), record) in records.iter().zip(&decoded) {
            prop_assert_eq!(&record.key, key);
            prop_assert_eq!(&record.answer.text, &answer.text);
            prop_assert_eq!(record.answer.path, answer.path);
            prop_assert_eq!(
                record.answer.solve_probability.to_bits(),
                answer.solve_probability.to_bits()
            );
            prop_assert_eq!(
                encode_record(&record.key, &record.answer),
                encode_record(key, answer)
            );
        }
    }
}
