//! Collection strategies (`proptest::collection::vec`).

use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Inclusive length bounds for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Strategy producing `Vec`s of `element` with a length in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Output of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.int_in(self.size.min as i128, self.size.max as i128) as usize;
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}
