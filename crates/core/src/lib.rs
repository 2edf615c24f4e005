//! The ChipVQA benchmark: a 142-question visual-question-answering suite
//! over five chip-design disciplines, reproduced procedurally.
//!
//! The original benchmark (Yang et al., DATE 2025) curates 142 VQA
//! triplets from copyrighted textbook and research material. Those images
//! and texts cannot be redistributed, so this reproduction *generates*
//! the dataset: every question is produced by a domain generator backed
//! by a real solver (boolean minimisation, MNA circuit analysis, pipeline
//! simulation, Steiner routing, process physics), renders its visual with
//! [`chipvqa_raster`], and carries a machine-checkable golden answer. The
//! default [`ChipVqa::standard`] collection reproduces the paper's
//! Table I statistics exactly: 142 questions, 99 multiple-choice / 43
//! short-answer, category split 35/44/20/20/23, twelve visual kinds and
//! a 5-to-370-token prompt-length spread.
//!
//! # Example
//!
//! ```
//! use chipvqa_core::dataset::ChipVqa;
//! use chipvqa_core::question::Category;
//!
//! let bench = ChipVqa::standard();
//! assert_eq!(bench.len(), 142);
//! assert_eq!(bench.category(Category::Analog).count(), 44);
//! let challenge = bench.challenge(); // all MC replaced with short answer
//! assert!(challenge.iter().all(|q| !q.is_multiple_choice()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod dataset;
pub mod gen;
pub mod question;
pub mod spec;
pub mod stats;
pub mod tokens;

pub use dataset::ChipVqa;
pub use question::{AnswerSpec, Category, Difficulty, Question, QuestionKind, VisualKind};
pub use spec::{no_choice, DatasetSpec, ShardStream, BASE_SIZE, RESIDENT_SLACK, TABLE1_WEIGHTS};
