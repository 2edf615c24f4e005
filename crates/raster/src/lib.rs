//! Raster image substrate for the ChipVQA reproduction.
//!
//! The original ChipVQA benchmark pairs every question with a bitmap image
//! (schematics, diagrams, layouts, Bode plots, …) captured from textbooks
//! and research material. Those images are not redistributable, so this
//! crate provides the substrate on which the reproduction *renders* every
//! visual procedurally: a grayscale [`Pixmap`], vector-ish drawing
//! primitives, a 5x7 bitmap [`font`], box-filter [`Pixmap::downsample`]-ing for the
//! paper's resolution study (§IV-B), and the [`metrics`] the simulated
//! visual encoders consume (ink coverage, legibility after downsampling).
//!
//! # Example
//!
//! ```
//! use chipvqa_raster::{Pixmap, Region};
//!
//! let mut img = Pixmap::new(256, 128);
//! img.draw_line(10, 10, 200, 10, 2, 0);
//! img.draw_text(10, 30, "VDD", 2, 0);
//! let small = img.downsample(8);
//! assert_eq!(small.width(), 32);
//! let region = Region::new(0, 0, 256, 128);
//! assert!(img.ink_fraction(region) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod font;
pub mod mark;
pub mod metrics;
pub mod pixmap;

pub use mark::{Annotated, Mark};
pub use metrics::{legibility_after_downsample, Region};
pub use pixmap::Pixmap;

/// Shade value for fully black ink.
pub const BLACK: u8 = 0;
/// Shade value for the white paper background.
pub const WHITE: u8 = 255;
/// Mid-gray shade used for de-emphasised annotations.
pub const GRAY: u8 = 128;

/// Pixels strictly darker than this count as "ink" for the legibility and
/// coverage metrics. The threshold is calibrated so that a 2-pixel stroke
/// survives 8x box-filter downsampling (2/8 coverage -> shade 191 < 208)
/// but not 16x (2/16 coverage -> shade 223 >= 208), which is exactly the
/// cliff the paper observes between its 8x and 16x resolution studies.
pub const INK_THRESHOLD: u8 = 208;
