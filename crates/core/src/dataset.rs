//! The assembled benchmark collections: standard (as published) and
//! challenge (all multiple-choice replaced by short answer, §IV-A).

use serde::{Deserialize, Serialize};

use crate::gen;
use crate::question::{Category, Question};

/// The default generation seed for the canonical collection.
pub const DEFAULT_SEED: u64 = 0xC41F;

/// A ChipVQA question collection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipVqa {
    questions: Vec<Question>,
    seed: u64,
}

impl ChipVqa {
    /// Builds the canonical 142-question standard collection
    /// (seed [`DEFAULT_SEED`]).
    pub fn standard() -> Self {
        ChipVqa::with_seed(DEFAULT_SEED)
    }

    /// Builds the standard collection from an arbitrary seed (same
    /// structure/statistics, different question parameters).
    pub fn with_seed(seed: u64) -> Self {
        let mut questions = Vec::with_capacity(142);
        questions.extend(gen::digital::generate(seed));
        questions.extend(gen::analog::generate(seed));
        questions.extend(gen::architecture::generate(seed));
        questions.extend(gen::manufacturing::generate(seed));
        questions.extend(gen::physical::generate(seed));
        ChipVqa { questions, seed }
    }

    /// The standard collection plus the extension set (the "future work"
    /// questions over out-of-order execution, floorplanning, buffer
    /// insertion, differential pairs/mirrors and BDD analysis). Ids of
    /// the extra questions continue each category's numbering from 100.
    pub fn extended_with_seed(seed: u64) -> Self {
        let mut base = ChipVqa::with_seed(seed);
        base.questions.extend(gen::extension::generate(seed));
        base
    }

    /// [`ChipVqa::extended_with_seed`] at the canonical seed.
    pub fn extended() -> Self {
        ChipVqa::extended_with_seed(DEFAULT_SEED)
    }

    /// Assembles a collection from pre-generated questions (the
    /// [`DatasetSpec`](crate::spec::DatasetSpec) engine's constructor).
    pub(crate) fn from_parts(questions: Vec<Question>, seed: u64) -> Self {
        ChipVqa { questions, seed }
    }

    /// The seed this collection was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of questions.
    pub fn len(&self) -> usize {
        self.questions.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.questions.is_empty()
    }

    /// Iterates over all questions.
    pub fn iter(&self) -> std::slice::Iter<'_, Question> {
        self.questions.iter()
    }

    /// All questions as a slice.
    pub fn questions(&self) -> &[Question] {
        &self.questions
    }

    /// Questions of one category.
    pub fn category(&self, cat: Category) -> impl Iterator<Item = &Question> {
        self.questions.iter().filter(move |q| q.category == cat)
    }

    /// Looks a question up by id.
    pub fn get(&self, id: &str) -> Option<&Question> {
        self.questions.iter().find(|q| q.id == id)
    }

    /// The challenge collection: every multiple-choice question replaced
    /// with its short-answer form, prompts unchanged (§IV-A).
    pub fn challenge(&self) -> ChipVqa {
        ChipVqa {
            questions: crate::spec::no_choice(&self.questions),
            seed: self.seed,
        }
    }

    /// Serialises the collection metadata (prompts, answers, statistics —
    /// not pixels) to JSON.
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` serialization errors.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Restores a collection from JSON and regenerates the visuals from
    /// the recorded seed (images are not stored in the export).
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` deserialization errors.
    pub fn from_json(json: &str) -> Result<ChipVqa, serde_json::Error> {
        let shell: ChipVqa = serde_json::from_str(json)?;
        // Regenerate to restore images; verify ids line up.
        let fresh = ChipVqa::with_seed(shell.seed);
        if fresh
            .questions
            .iter()
            .zip(&shell.questions)
            .all(|(a, b)| a.id == b.id && a.prompt == b.prompt)
        {
            Ok(fresh)
        } else {
            Ok(shell) // seed mismatch with stored data: keep metadata-only
        }
    }
}

impl<'a> IntoIterator for &'a ChipVqa {
    type Item = &'a Question;
    type IntoIter = std::slice::Iter<'a, Question>;
    fn into_iter(self) -> Self::IntoIter {
        self.questions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::QuestionKind;

    #[test]
    fn standard_has_table1_shape() {
        let b = ChipVqa::standard();
        assert_eq!(b.len(), 142);
        let mc = b.iter().filter(|q| q.is_multiple_choice()).count();
        assert_eq!(mc, 99);
        assert_eq!(b.category(Category::Digital).count(), 35);
        assert_eq!(b.category(Category::Analog).count(), 44);
        assert_eq!(b.category(Category::Architecture).count(), 20);
        assert_eq!(b.category(Category::Manufacture).count(), 20);
        assert_eq!(b.category(Category::Physical).count(), 23);
    }

    #[test]
    fn ids_unique() {
        let b = ChipVqa::standard();
        let mut ids: Vec<&str> = b.iter().map(|q| q.id.as_str()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 142);
    }

    #[test]
    fn challenge_is_all_short_answer() {
        let b = ChipVqa::standard();
        let c = b.challenge();
        assert_eq!(c.len(), 142);
        assert!(c.iter().all(|q| q.kind == QuestionKind::ShortAnswer));
        // prompts unchanged
        for (orig, chal) in b.iter().zip(c.iter()) {
            assert_eq!(orig.prompt, chal.prompt);
            assert_eq!(orig.answer, chal.answer);
        }
    }

    #[test]
    fn lookup_by_id() {
        let b = ChipVqa::standard();
        assert!(b.get("digital-000").is_some());
        assert!(b.get("nonexistent-999").is_none());
    }

    #[test]
    fn deterministic_build() {
        let a = ChipVqa::standard();
        let b = ChipVqa::standard();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn extended_collection_grows_consistently() {
        let ext = ChipVqa::extended();
        assert_eq!(ext.len(), 142 + crate::gen::extension::EXTENSION_SIZE);
        // standard prefix preserved verbatim
        let std = ChipVqa::standard();
        for (a, b) in std.iter().zip(ext.iter()) {
            assert_eq!(a, b);
        }
        // challenge transform still applies
        assert!(ext.challenge().iter().all(|q| !q.is_multiple_choice()));
    }

    #[test]
    fn json_roundtrip_restores_images() {
        let b = ChipVqa::standard();
        let json = b.to_json().expect("serializes");
        let back = ChipVqa::from_json(&json).expect("deserializes");
        assert_eq!(back.len(), 142);
        // visuals regenerated, not blank
        assert!(back.iter().all(|q| q.visual.image.ink_pixels() > 0));
    }
}
