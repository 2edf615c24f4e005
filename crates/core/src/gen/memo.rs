//! Generation memoizes nothing: the generators call their solvers
//! directly. `hits` and `misses` remain only because
//! `perfbench/harness/src/{grid,serve}.rs` import them for
//! `gen.memo_hit_ratio`; the benchmark's next change drops both.

/// Always 0.
pub fn hits() -> u64 {
    0
}

/// Always 0.
pub fn misses() -> u64 {
    0
}
