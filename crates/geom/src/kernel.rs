//! Chunked distance kernel over flat structure-of-arrays centre buffers.
//!
//! Every hot region-query loop in the workspace used to hand-roll the same
//! scan: walk a flat `f64` buffer of candidate coordinates (dim-strided),
//! compute `dist2` against one query point, and compare against `eps²`.
//! This module is the single shared implementation of that scan, shaped so
//! the autovectoriser can lift it into SIMD lanes:
//!
//! * candidates are processed in fixed-width chunks of [`LANES`] with one
//!   independent `f64` accumulator per lane — no loop-carried dependency
//!   across candidates, so the per-dimension inner loop vectorises;
//! * the threshold comparison produces a per-lane boolean mask that the
//!   caller consumes (count, sum, or early-exit) without branching inside
//!   the accumulation loop;
//! * nothing here allocates — callers bring slices and closures.
//!
//! # Bit-exactness contract
//!
//! For every candidate `k`, the accumulated value compared against `eps2`
//! is produced by the *identical* floating-point operation sequence as
//! [`crate::distance::dist2`]`(q, &centers[k*dim..(k+1)*dim])`: squared
//! per-dimension differences added in increasing dimension order. Each lane
//! owns exactly one candidate, so chunking changes *which* candidates are
//! in flight concurrently, never the order of additions *within* a
//! candidate. Every predicate evaluated here is therefore bit-identical to
//! the scalar loop it replaces, and integer reductions over the mask
//! (candidate counts, density sums) are order-insensitive. This is what
//! lets the planned-vs-oracle and serve equivalence suites pin results
//! bit-for-bit across kernel adoption.

use crate::distance::dist2;

/// Number of candidates accumulated concurrently per chunk.
///
/// Eight `f64` accumulators fill one AVX-512 register or two AVX2
/// registers; the tail shorter than a chunk falls back to the scalar
/// [`dist2`] path, which is bit-identical per candidate anyway.
pub const LANES: usize = 8;

/// Invokes `hit(k)` for every candidate `k` (in increasing order) whose
/// squared distance to `q` is `<= eps2`.
///
/// `centers` is a flat dim-strided buffer holding `centers.len() / dim`
/// candidates. `dim` must be non-zero and divide `centers.len()`, and
/// `q.len()` must equal `dim` (debug-asserted).
// lint:hot
#[inline]
pub fn for_each_within(
    q: &[f64],
    centers: &[f64],
    dim: usize,
    eps2: f64,
    mut hit: impl FnMut(usize),
) {
    for_each_mask(q, centers, dim, eps2, |base, mask| {
        for (l, &m) in mask.iter().enumerate() {
            if m {
                hit(base + l);
            }
        }
    });
}

/// Invokes `f(base, mask)` for consecutive runs of candidates, in
/// increasing order: `mask[l]` tells whether candidate `base + l` lies
/// within `eps2` of `q`. Full chunks pass [`LANES`] entries, the tail
/// fewer. Consumers that reduce the mask without branching (the weighted
/// sums) avoid a mispredicted branch per candidate near the ε boundary.
// lint:hot
#[inline]
fn for_each_mask(q: &[f64], centers: &[f64], dim: usize, eps2: f64, f: impl FnMut(usize, &[bool])) {
    debug_assert!(dim > 0, "zero-dimensional kernel scan");
    debug_assert_eq!(q.len(), dim, "query dimension mismatch in kernel scan");
    debug_assert_eq!(centers.len() % dim, 0, "ragged centre buffer");
    // One dispatch per scan: monomorphic bodies for the common low
    // dimensions give the autovectoriser fixed strides for both the
    // chunk loop and the sub-chunk tail. Identical per-candidate FP
    // order in every arm — see the bit-exactness contract above.
    match dim {
        2 => scan_fixed::<2>(q, centers, eps2, f),
        3 => scan_fixed::<3>(q, centers, eps2, f),
        4 => scan_fixed::<4>(q, centers, eps2, f),
        _ => scan_dyn(q, centers, dim, eps2, f),
    }
}

/// [`for_each_mask`] with the dimension known at compile time.
// lint:hot
#[inline]
fn scan_fixed<const DIM: usize>(
    q: &[f64],
    centers: &[f64],
    eps2: f64,
    mut f: impl FnMut(usize, &[bool]),
) {
    let n = centers.len() / DIM;
    let chunks = n / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        let mask = chunk_mask_fixed::<DIM>(q, &centers[base * DIM..(base + LANES) * DIM], eps2);
        f(base, &mask);
    }
    let base = chunks * LANES;
    let mut mask = [false; LANES];
    for (k, m) in (base..n).zip(mask.iter_mut()) {
        // Same squared-difference sum as `dist2`, increasing dimension
        // order, with a compile-time trip count.
        let mut acc = 0.0;
        for a in 0..DIM {
            let d = q[a] - centers[k * DIM + a];
            acc += d * d;
        }
        *m = acc <= eps2;
    }
    if base < n {
        f(base, &mask[..n - base]);
    }
}

// lint:hot
#[inline]
fn scan_dyn(q: &[f64], centers: &[f64], dim: usize, eps2: f64, mut f: impl FnMut(usize, &[bool])) {
    let n = centers.len() / dim;
    let chunks = n / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        let mask = chunk_mask(q, &centers[base * dim..(base + LANES) * dim], dim, eps2);
        f(base, &mask);
    }
    let base = chunks * LANES;
    let mut mask = [false; LANES];
    for (k, m) in (base..n).zip(mask.iter_mut()) {
        *m = dist2(q, &centers[k * dim..(k + 1) * dim]) <= eps2;
    }
    if base < n {
        f(base, &mask[..n - base]);
    }
}

/// Counts the candidates within `eps2` of `q` and sums their `u32`
/// weights, returning `(hits, weight_sum)`.
///
/// This is the region-query density reduction: `weights[k]` is the point
/// count of sub-cell `k`, and the sum is the `(ε,ρ)`-region density
/// contribution of the tested sub-cells. Integer sums are associative, so
/// the chunked evaluation order cannot change the result, and the mask is
/// folded in without a branch per candidate.
// lint:hot
#[inline]
pub fn sum_within_u32(
    q: &[f64],
    centers: &[f64],
    dim: usize,
    eps2: f64,
    weights: &[u32],
) -> (u32, u64) {
    debug_assert_eq!(
        centers.len(),
        weights.len() * dim,
        "weights/centres length mismatch"
    );
    let mut hits = 0u32;
    let mut sum = 0u64;
    for_each_mask(q, centers, dim, eps2, |base, mask| {
        for (&m, &w) in mask.iter().zip(&weights[base..]) {
            hits += m as u32;
            sum += w as u64 * m as u64;
        }
    });
    (hits, sum)
}

/// Returns `true` if any candidate lies within `eps2` of `q`.
///
/// Scans chunk-at-a-time and exits after the first chunk containing a hit;
/// existence is order-insensitive, so the early exit cannot change the
/// answer relative to a full scalar scan.
// lint:hot
#[inline]
pub fn any_within(q: &[f64], centers: &[f64], dim: usize, eps2: f64) -> bool {
    debug_assert!(dim > 0, "zero-dimensional kernel scan");
    debug_assert_eq!(q.len(), dim, "query dimension mismatch in kernel scan");
    debug_assert_eq!(centers.len() % dim, 0, "ragged centre buffer");
    match dim {
        2 => any_fixed::<2>(q, centers, eps2),
        3 => any_fixed::<3>(q, centers, eps2),
        4 => any_fixed::<4>(q, centers, eps2),
        _ => any_dyn(q, centers, dim, eps2),
    }
}

/// [`any_within`] with the dimension known at compile time.
// lint:hot
#[inline]
fn any_fixed<const DIM: usize>(q: &[f64], centers: &[f64], eps2: f64) -> bool {
    let n = centers.len() / DIM;
    let chunks = n / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        let mask = chunk_mask_fixed::<DIM>(q, &centers[base * DIM..(base + LANES) * DIM], eps2);
        if mask.iter().any(|&m| m) {
            return true;
        }
    }
    for k in chunks * LANES..n {
        let mut acc = 0.0;
        for a in 0..DIM {
            let d = q[a] - centers[k * DIM + a];
            acc += d * d;
        }
        if acc <= eps2 {
            return true;
        }
    }
    false
}

// lint:hot
#[inline]
fn any_dyn(q: &[f64], centers: &[f64], dim: usize, eps2: f64) -> bool {
    let n = centers.len() / dim;
    let chunks = n / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        let mask = chunk_mask(q, &centers[base * dim..(base + LANES) * dim], dim, eps2);
        if mask.iter().any(|&m| m) {
            return true;
        }
    }
    for k in chunks * LANES..n {
        if dist2(q, &centers[k * dim..(k + 1) * dim]) <= eps2 {
            return true;
        }
    }
    false
}

/// Accumulates one full chunk of `LANES` candidates and returns the
/// per-lane `dist2 <= eps2` mask.
///
/// `block` holds exactly `LANES * dim` coordinates. Dimensions advance in
/// the outer loop and lanes in the inner loop, so each lane adds its
/// squared differences in the same order as the scalar [`dist2`] — the
/// accumulated value per candidate is bit-identical.
// lint:hot
#[inline]
fn chunk_mask(q: &[f64], block: &[f64], dim: usize, eps2: f64) -> [bool; LANES] {
    let mut acc = [0.0f64; LANES];
    for (a, &qa) in q.iter().enumerate() {
        for (l, acc_l) in acc.iter_mut().enumerate() {
            let d = block[l * dim + a] - qa;
            *acc_l += d * d;
        }
    }
    finish_mask(acc, eps2)
}

/// [`chunk_mask`] with the dimension known at compile time: the loads
/// are fixed-stride, so the lane loop lifts into SIMD. Each lane still
/// adds its squared differences in increasing dimension order — the
/// accumulated value per candidate is unchanged down to the last bit.
// lint:hot
#[inline]
fn chunk_mask_fixed<const DIM: usize>(q: &[f64], block: &[f64], eps2: f64) -> [bool; LANES] {
    let mut acc = [0.0f64; LANES];
    for (a, &qa) in q.iter().enumerate().take(DIM) {
        for (l, acc_l) in acc.iter_mut().enumerate() {
            let d = block[l * DIM + a] - qa;
            *acc_l += d * d;
        }
    }
    finish_mask(acc, eps2)
}

// lint:hot
#[inline]
fn finish_mask(acc: [f64; LANES], eps2: f64) -> [bool; LANES] {
    let mut mask = [false; LANES];
    for (l, m) in mask.iter_mut().enumerate() {
        *m = acc[l] <= eps2;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random coordinates with awkward magnitudes so
    /// float rounding differences (if any existed) would surface.
    fn synth(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut out = Vec::with_capacity(n * dim);
        for _ in 0..n * dim {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Spread over [-8, 8) with plenty of mantissa noise.
            out.push((state as f64 / u64::MAX as f64) * 16.0 - 8.0);
        }
        out
    }

    fn scalar_hits(q: &[f64], centers: &[f64], dim: usize, eps2: f64) -> Vec<usize> {
        (0..centers.len() / dim)
            .filter(|&k| dist2(q, &centers[k * dim..(k + 1) * dim]) <= eps2)
            .collect()
    }

    #[test]
    fn kernel_matches_scalar_scan_bit_for_bit() {
        for dim in 1..=5 {
            // Lengths straddling chunk boundaries: empty, sub-chunk, exact
            // multiples, and ragged tails.
            for n in [0, 1, 7, 8, 9, 15, 16, 17, 64, 101] {
                let centers = synth(n, dim, (dim * 1000 + n) as u64);
                let q = synth(1, dim, 77);
                for eps2 in [0.0, 1.0, 25.0, 150.0, f64::INFINITY] {
                    let expect = scalar_hits(&q, &centers, dim, eps2);
                    let mut got = Vec::new();
                    for_each_within(&q, &centers, dim, eps2, |k| got.push(k));
                    assert_eq!(got, expect, "dim={dim} n={n} eps2={eps2}");
                    assert_eq!(
                        any_within(&q, &centers, dim, eps2),
                        !expect.is_empty(),
                        "any_within diverged: dim={dim} n={n} eps2={eps2}"
                    );
                    let w: Vec<u32> = (0..n as u32).map(|k| 3 * k + 1).collect();
                    let sum: u64 = expect.iter().map(|&k| w[k] as u64).sum();
                    assert_eq!(
                        sum_within_u32(&q, &centers, dim, eps2, &w),
                        (expect.len() as u32, sum),
                        "sum_within_u32 diverged: dim={dim} n={n} eps2={eps2}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_threshold_is_inclusive_like_dist2() {
        // A candidate at exactly eps must be reported — same inclusive
        // comparison as the scalar path.
        let centers = [3.0, 4.0, 100.0, 100.0];
        let mut got = Vec::new();
        for_each_within(&[0.0, 0.0], &centers, 2, 25.0, |k| got.push(k));
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn weighted_sums_match_scalar_reduction() {
        let dim = 3;
        let n = 43; // 5 full chunks + tail of 3
        let centers = synth(n, dim, 9);
        let q = synth(1, dim, 4);
        let w32: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
        let eps2 = 40.0;
        let hits = scalar_hits(&q, &centers, dim, eps2);
        let expect32: u64 = hits.iter().map(|&k| w32[k] as u64).sum();
        assert_eq!(
            sum_within_u32(&q, &centers, dim, eps2, &w32),
            (hits.len() as u32, expect32)
        );
    }

    #[test]
    fn empty_buffer_is_a_no_op() {
        assert!(!any_within(&[0.5], &[], 1, f64::INFINITY));
        assert_eq!(sum_within_u32(&[0.5], &[], 1, f64::INFINITY, &[]), (0, 0));
    }
}
