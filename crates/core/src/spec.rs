//! Scale-out dataset engine: arbitrary-N collections from the five
//! discipline generators.
//!
//! The paper's 142-question collection is the *unit* of generation; a
//! [`DatasetSpec`] scales that unit to arbitrary sizes (10² … 10⁵
//! questions) while preserving Table-I structure within rounding:
//!
//! * **category mix** — question counts per discipline follow
//!   `category_weights` by largest-remainder apportionment (the default
//!   weights are exactly Table I's 35/44/20/20/23, so the default mix is
//!   exact at every scale, not just "within rounding");
//! * **visual/token mix** — each category is produced in *replica
//!   blocks*: replica `r` re-runs the category's generator with a
//!   replica-mixed seed, so the per-block family sequence (and with it
//!   the visual-kind and token-length distributions) repeats at every
//!   scale, truncated only in the final partial block;
//! * **MC/SA mix** — `mc_sa_ratio` is the fraction of naturally
//!   multiple-choice questions *kept* as multiple choice. The default
//!   `1.0` preserves Table I's 99/43 split; `0.0` reproduces the
//!   challenge transform. Conversion follows an even-spread floor rule
//!   on the global MC ordinal, so it is exact within rounding **and**
//!   streamable (no global pass needed).
//!
//! **Identity contract:** replica 0 is the generator's output verbatim —
//! untruncated, unrenumbered, unconverted — so [`DatasetSpec::default`]
//! (scale 1) builds a collection id- and byte-identical to
//! [`ChipVqa::standard`]. Everything downstream (cache keys, checkpoint
//! hashes, report bytes) is anchored on that.
//!
//! [`ShardStream`] is the bounded-memory face of the same engine: it
//! yields the identical question sequence shard-by-shard, holding at
//! most one generator block (≤ [`RESIDENT_SLACK`] questions) plus the
//! shard under construction. [`ShardStream::peak_resident`] exposes the
//! high-water mark so the bound is *testable*, not just documented.
//!
//! Scaled collections must not be mixed with the extension set: the
//! extension continues each category's numbering from 100, which replica
//! renumbering reaches at scale ≥ 3 (e.g. `digital-100` is replica 2,
//! offset 30). Use one or the other.

use serde::{Deserialize, Serialize};

use crate::dataset::{ChipVqa, DEFAULT_SEED};
use crate::gen;
use crate::question::{Category, Question};

/// Size of the base (scale-1) collection — the paper's Table I total.
pub const BASE_SIZE: usize = 142;

/// Table I's category weights (Digital, Analog, Architecture,
/// Manufacture, Physical) — the [`DatasetSpec::default`] mix.
pub const TABLE1_WEIGHTS: [f64; 5] = [35.0, 44.0, 20.0, 20.0, 23.0];

/// Upper bound on questions a [`ShardStream`] holds *besides* the shard
/// under construction: one generator block (the largest block is
/// Analog's 44).
pub const RESIDENT_SLACK: usize = 44;

/// A recipe for an arbitrary-N ChipVQA collection.
///
/// `scale` multiplies the 142-question base; `category_weights` shifts
/// the discipline mix (largest-remainder apportionment of the total);
/// `mc_sa_ratio` dials the presentation mix from challenge-style all
/// short-answer (`0.0`) to Table I's natural split (`1.0`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Multiplier on the 142-question base collection (≥ 1).
    pub scale: usize,
    /// Generation seed; replica blocks derive their seeds from it.
    pub seed: u64,
    /// Relative category weights in [`Category::ALL`] order
    /// (non-negative, positive sum).
    pub category_weights: [f64; 5],
    /// Fraction of naturally-MC questions kept multiple-choice, in
    /// `[0, 1]`.
    pub mc_sa_ratio: f64,
}

impl Default for DatasetSpec {
    /// The paper's collection: scale 1, canonical seed, Table-I weights,
    /// natural MC/SA split. Builds byte-identical to
    /// [`ChipVqa::standard`].
    fn default() -> Self {
        DatasetSpec {
            scale: 1,
            seed: DEFAULT_SEED,
            category_weights: TABLE1_WEIGHTS,
            mc_sa_ratio: 1.0,
        }
    }
}

impl DatasetSpec {
    /// The default spec at `scale` (Table-I weights, canonical seed).
    pub fn scaled(scale: usize) -> Self {
        DatasetSpec {
            scale,
            ..DatasetSpec::default()
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the category weights.
    pub fn with_weights(mut self, weights: [f64; 5]) -> Self {
        self.category_weights = weights;
        self
    }

    /// Replaces the MC/SA ratio.
    pub fn with_mc_sa_ratio(mut self, ratio: f64) -> Self {
        self.mc_sa_ratio = ratio;
        self
    }

    /// Panics with a description of the first invalid field, if any.
    fn validate(&self) {
        assert!(self.scale >= 1, "DatasetSpec.scale must be >= 1");
        assert!(
            self.category_weights
                .iter()
                .all(|w| w.is_finite() && *w >= 0.0),
            "DatasetSpec.category_weights must be finite and non-negative: {:?}",
            self.category_weights
        );
        assert!(
            self.category_weights.iter().sum::<f64>() > 0.0,
            "DatasetSpec.category_weights must have a positive sum"
        );
        assert!(
            (0.0..=1.0).contains(&self.mc_sa_ratio) && self.mc_sa_ratio.is_finite(),
            "DatasetSpec.mc_sa_ratio must be in [0, 1], got {}",
            self.mc_sa_ratio
        );
    }

    /// Total question count: `scale × 142`.
    pub fn total(&self) -> usize {
        self.scale * BASE_SIZE
    }

    /// Per-category question counts by largest-remainder apportionment
    /// of [`total`](DatasetSpec::total) over the normalized weights
    /// (ties broken by category order). With the default Table-I weights
    /// the result is exactly `scale × [35, 44, 20, 20, 23]`.
    pub fn category_counts(&self) -> [usize; 5] {
        self.validate();
        let total = self.total();
        let wsum: f64 = self.category_weights.iter().sum();
        let quotas: Vec<f64> = self
            .category_weights
            .iter()
            .map(|w| w * total as f64 / wsum)
            .collect();
        let mut counts = [0usize; 5];
        for (c, q) in counts.iter_mut().zip(&quotas) {
            *c = q.floor() as usize;
        }
        let assigned: usize = counts.iter().sum();
        let mut order: Vec<usize> = (0..5).collect();
        // stable sort → ties fall to the earlier category
        order.sort_by(|&a, &b| {
            let fa = quotas[a] - quotas[a].floor();
            let fb = quotas[b] - quotas[b].floor();
            fb.partial_cmp(&fa).expect("finite quotas")
        });
        for &i in order.iter().take(total - assigned) {
            counts[i] += 1;
        }
        counts
    }

    /// A stable content fingerprint of the spec (FNV-1a over every
    /// field). Used to key answer caches and checkpoints so results from
    /// one spec can never be served to another.
    ///
    /// This value is also part of the *persistent* content address: the
    /// on-disk answer store embeds it in every record's `CacheKey`, so
    /// it must stay stable across releases for existing stores to keep
    /// their meaning (the encoding is frozen by the golden test in
    /// `tests/cache_consistency.rs`). Fleet execution pins it too: it
    /// enters the `FleetManifest` fingerprint stamped on every lease
    /// and shard record, so `table2 merge` refuses to fold shards
    /// evaluated against a different spec.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(&(self.scale as u64).to_le_bytes());
        eat(&self.seed.to_le_bytes());
        for w in &self.category_weights {
            eat(&w.to_bits().to_le_bytes());
        }
        eat(&self.mc_sa_ratio.to_bits().to_le_bytes());
        h
    }

    /// Materializes the whole collection in memory. The question
    /// sequence is byte-identical to flattening
    /// [`stream`](DatasetSpec::stream), at any shard size.
    pub fn build(&self) -> ChipVqa {
        let total = self.total();
        let mut questions = Vec::with_capacity(total);
        for shard in self.stream(total.max(1)) {
            questions.extend(shard);
        }
        ChipVqa::from_parts(questions, self.seed)
    }

    /// A bounded-memory iterator over the same question sequence as
    /// [`build`](DatasetSpec::build), in shards of `shard_len` questions
    /// (the final shard may be shorter).
    ///
    /// # Panics
    ///
    /// Panics when `shard_len` is zero or the spec is invalid.
    pub fn stream(&self, shard_len: usize) -> ShardStream {
        self.validate();
        assert!(shard_len > 0, "shard_len must be positive");
        ShardStream {
            spec: self.clone(),
            counts: self.category_counts(),
            shard_len,
            cat: 0,
            produced_in_cat: 0,
            replica: 0,
            block: Vec::new(),
            block_pos: 0,
            mc_ordinal: 0,
            peak_resident: 0,
        }
    }
}

/// Whether the question at global MC ordinal `j` stays multiple-choice
/// under `ratio`: the even-spread floor rule
/// `⌊(j+1)·ratio⌋ > ⌊j·ratio⌋`. Keeps exactly `⌊m·ratio⌋` of any `m`
/// consecutive ordinals (within rounding) and needs no lookahead, so
/// streaming and in-memory builds convert identically.
fn keep_mc(ordinal: u64, ratio: f64) -> bool {
    ((ordinal + 1) as f64 * ratio).floor() > (ordinal as f64 * ratio).floor()
}

/// Deterministic seed for replica `r` of a spec seed. Replica 0 is the
/// raw seed (the identity contract); later replicas go through a
/// splitmix64 finalizer so sibling replicas decorrelate.
pub(crate) fn replica_seed(seed: u64, replica: usize) -> u64 {
    if replica == 0 {
        return seed;
    }
    let mut z = seed ^ (replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shard-by-shard generator for a [`DatasetSpec`].
///
/// Memory bound: besides the shard being filled, at most one generator
/// block (≤ [`RESIDENT_SLACK`] questions) is resident at any time —
/// [`peak_resident`](ShardStream::peak_resident) records the observed
/// high-water mark of `buffered block + shard under construction`.
#[derive(Debug)]
pub struct ShardStream {
    spec: DatasetSpec,
    counts: [usize; 5],
    shard_len: usize,
    cat: usize,
    produced_in_cat: usize,
    replica: usize,
    block: Vec<Question>,
    block_pos: usize,
    mc_ordinal: u64,
    peak_resident: usize,
}

impl ShardStream {
    /// The spec this stream generates.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// The configured shard length.
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    /// High-water mark of resident questions (buffered generator block
    /// plus shard under construction) since the stream was created.
    /// Always ≤ `shard_len + RESIDENT_SLACK`.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// The next question of the global sequence, or `None` when every
    /// category has produced its share.
    fn next_question(&mut self) -> Option<Question> {
        loop {
            if self.cat >= Category::ALL.len() {
                return None;
            }
            if self.produced_in_cat == self.counts[self.cat] {
                self.cat += 1;
                self.produced_in_cat = 0;
                self.replica = 0;
                self.block.clear();
                self.block_pos = 0;
                continue;
            }
            if self.block_pos == self.block.len() {
                self.block = generate_block(self.cat, self.spec.seed, self.replica);
                self.block_pos = 0;
                self.replica += 1;
            }
            let mut q = self.block[self.block_pos].clone();
            // drop the handed-out slot so residency genuinely shrinks
            self.block[self.block_pos] = placeholder();
            self.block_pos += 1;
            self.produced_in_cat += 1;
            if q.is_multiple_choice() {
                if !keep_mc(self.mc_ordinal, self.spec.mc_sa_ratio) {
                    q = q.to_short_answer();
                }
                self.mc_ordinal += 1;
            }
            return Some(q);
        }
    }
}

/// One replica block of a category, ids renumbered past the block.
fn generate_block(cat: usize, seed: u64, replica: usize) -> Vec<Question> {
    match Category::ALL[cat] {
        Category::Digital => gen::digital::generate_replica(seed, replica),
        Category::Analog => gen::analog::generate_replica(seed, replica),
        Category::Architecture => gen::architecture::generate_replica(seed, replica),
        Category::Manufacture => gen::manufacturing::generate_replica(seed, replica),
        Category::Physical => gen::physical::generate_replica(seed, replica),
    }
}

/// A zero-cost stand-in for an already-emitted block slot (no rendered
/// visual, empty strings).
fn placeholder() -> Question {
    use crate::question::{AnswerSpec, Difficulty, QuestionKind, VisualKind};
    Question {
        id: String::new(),
        category: Category::Digital,
        visual_kind: VisualKind::Table,
        prompt: String::new(),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Text {
            canonical: String::new(),
            aliases: Vec::new(),
        },
        difficulty: Difficulty::new(0.0, 1, 0.0, false),
        visual: chipvqa_raster::Annotated::new(chipvqa_raster::Pixmap::new(1, 1)),
        key_marks: Vec::new(),
    }
}

impl Iterator for ShardStream {
    type Item = Vec<Question>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut shard = Vec::new();
        while shard.len() < self.shard_len {
            match self.next_question() {
                Some(q) => {
                    shard.push(q);
                    // live questions still buffered in the block + shard
                    let buffered = self.block.len() - self.block_pos;
                    self.peak_resident = self.peak_resident.max(buffered + shard.len());
                }
                None => break,
            }
        }
        if shard.is_empty() {
            None
        } else {
            Some(shard)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::QuestionKind;

    #[test]
    fn default_spec_is_identity_with_standard() {
        let built = DatasetSpec::default().build();
        let std = ChipVqa::standard();
        assert_eq!(built.len(), std.len());
        for (a, b) in built.iter().zip(std.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn default_counts_are_exact_multiples() {
        for scale in [1usize, 2, 10, 100] {
            let counts = DatasetSpec::scaled(scale).category_counts();
            assert_eq!(
                counts,
                [35 * scale, 44 * scale, 20 * scale, 20 * scale, 23 * scale]
            );
        }
    }

    #[test]
    fn apportionment_always_sums_to_total() {
        let weird = DatasetSpec::scaled(3).with_weights([1.0, 1.0, 1.0, 1.0, 1.0]);
        let counts = weird.category_counts();
        assert_eq!(counts.iter().sum::<usize>(), weird.total());
        // near-uniform apportionment: every category within one of total/5
        let per = weird.total() / 5;
        assert!(counts.iter().all(|&c| c == per || c == per + 1));
    }

    #[test]
    fn zero_weight_category_is_dropped() {
        let spec = DatasetSpec::scaled(1).with_weights([0.0, 1.0, 1.0, 1.0, 1.0]);
        let counts = spec.category_counts();
        assert_eq!(counts[0], 0);
        assert_eq!(counts.iter().sum::<usize>(), 142);
        let built = spec.build();
        assert_eq!(built.category(Category::Digital).count(), 0);
    }

    #[test]
    fn ratio_zero_matches_challenge_at_scale_one() {
        let converted = DatasetSpec::default().with_mc_sa_ratio(0.0).build();
        let challenge = ChipVqa::standard().challenge();
        assert_eq!(converted.len(), challenge.len());
        for (a, b) in converted.iter().zip(challenge.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mc_ratio_is_respected_within_rounding() {
        for ratio in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
            let spec = DatasetSpec::scaled(2).with_mc_sa_ratio(ratio);
            let built = spec.build();
            let natural_mc = 99 * 2; // per Table I, at scale 2
            let kept = built
                .iter()
                .filter(|q| matches!(q.kind, QuestionKind::MultipleChoice { .. }))
                .count();
            let expect = (natural_mc as f64 * ratio).floor() as usize;
            assert!(
                kept.abs_diff(expect) <= 1,
                "ratio {ratio}: kept {kept}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn replica_ids_are_renumbered_and_unique() {
        let built = DatasetSpec::scaled(3).build();
        let mut ids: Vec<&str> = built.iter().map(|q| q.id.as_str()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "scaled ids must stay unique");
        // replica 1 of digital starts right after the base block
        assert!(built.get("digital-035").is_some());
        assert!(built.get("analog-087").is_some());
    }

    #[test]
    fn stream_is_bounded_and_equals_build() {
        let spec = DatasetSpec::scaled(2);
        let built = spec.build();
        for shard_len in [1usize, 17, 142] {
            let mut stream = spec.stream(shard_len);
            let mut flat = Vec::new();
            let mut shards = 0;
            for shard in &mut stream {
                assert!(shard.len() <= shard_len);
                flat.extend(shard);
                shards += 1;
            }
            assert_eq!(flat.len(), built.len(), "shard_len {shard_len}");
            for (a, b) in flat.iter().zip(built.iter()) {
                assert_eq!(a, b, "shard_len {shard_len}");
            }
            assert!(
                stream.peak_resident() <= shard_len + RESIDENT_SLACK,
                "shard_len {shard_len}: peak {} over bound",
                stream.peak_resident()
            );
            assert_eq!(
                shards,
                built.len().div_ceil(shard_len),
                "shard_len {shard_len}"
            );
        }
    }

    #[test]
    fn shard_indices_are_stable_under_selective_regeneration() {
        let spec = DatasetSpec::scaled(2);
        let shard_len = 17;
        let all: Vec<(usize, Vec<Question>)> = spec.stream(shard_len).enumerate().collect();
        assert_eq!(all.first().map(|(i, _)| *i), Some(0));
        assert_eq!(all.last().map(|(i, _)| *i), Some(all.len() - 1));
        // regenerate, keeping only a scattered subset of indices: each
        // survivor is identical to the same index of the full pass
        let keep = [0usize, 3, all.len() - 1];
        let selected: Vec<(usize, Vec<Question>)> = spec
            .stream(shard_len)
            .enumerate()
            .filter(|(i, _)| keep.contains(i))
            .collect();
        assert_eq!(selected.len(), keep.len());
        for (idx, shard) in &selected {
            assert_eq!(
                shard, &all[*idx].1,
                "shard {idx} drifted under regeneration"
            );
        }
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let base = DatasetSpec::default();
        let fp = base.fingerprint();
        assert_eq!(fp, DatasetSpec::default().fingerprint(), "stable");
        assert_ne!(fp, DatasetSpec::scaled(2).fingerprint());
        assert_ne!(fp, base.clone().with_seed(1).fingerprint());
        assert_ne!(fp, base.clone().with_mc_sa_ratio(0.5).fingerprint());
        assert_ne!(
            fp,
            base.clone()
                .with_weights([35.0, 44.0, 20.0, 20.0, 24.0])
                .fingerprint()
        );
    }

    #[test]
    #[should_panic(expected = "shard_len must be positive")]
    fn zero_shard_len_rejected() {
        let _ = DatasetSpec::default().stream(0);
    }

    #[test]
    #[should_panic(expected = "scale must be >= 1")]
    fn zero_scale_rejected() {
        let _ = DatasetSpec::scaled(0).build();
    }
}
