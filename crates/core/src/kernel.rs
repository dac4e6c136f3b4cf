//! The estimator dot-product kernel and its scalar reference.
//!
//! Every sketching hot loop in this crate ships as a pair of twins: a **scalar
//! reference** (the straightforward loop, kept as the readable spec) and a
//! **vectorized** kernel (hoisted hash states, 4-wide manual unrolling, branchless sign
//! selection).  The twins are bit-for-bit identical — property tests in
//! `tests/proptests.rs` lock this — so only the vectorized kernel runs:
//! [`Sketcher::sketch`](crate::traits::Sketcher::sketch) and the JL/CountSketch
//! estimators call it directly, and the scalar twins (`sketch_scalar` on each sketcher,
//! [`dot_scalar`] here) are reached only by the parity tests and the kernels bench,
//! which compare against them.

/// Which implementation of the sketching kernels runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// The hoisted-hash, 4-wide unrolled kernels (bit-identical to the scalar twins).
    Vectorized,
}

/// The kernel implementation every sketch and estimate runs: always
/// [`KernelMode::Vectorized`].  Kept so benchmark reports can record it.
#[must_use]
pub fn mode() -> KernelMode {
    KernelMode::Vectorized
}

/// Sequential dot product — the scalar reference for the linear-sketch estimators.
#[must_use]
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Dot product with the inner loop unrolled four-wide: the JL and CountSketch estimate
/// kernel.
///
/// The accumulation **order is preserved** (one accumulator, products added left to
/// right), so the result is bit-identical to [`dot_scalar`]; the unrolling removes the
/// per-element bounds checks and lets the four multiplies issue independently ahead of
/// the serial add chain.
#[must_use]
pub fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    // −0.0 is the true additive identity (−0.0 + x == x bit-for-bit for every x) and is
    // what `Sum<f64>` folds from, so empty inputs match the scalar twin exactly.
    let mut acc = -0.0;
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        acc += ca[0] * cb[0];
        acc += ca[1] * cb[1];
        acc += ca[2] * cb[2];
        acc += ca[3] * cb[3];
    }
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        acc += x * y;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_is_stable_across_calls() {
        assert_eq!(mode(), mode());
        assert_eq!(mode(), KernelMode::Vectorized);
    }

    #[test]
    fn dot_twins_are_bit_identical() {
        // Including lengths that are not multiples of four, empty, and single-element.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 63, 100] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 3.5 + 0.1).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64).cos() - 0.7).collect();
            assert_eq!(
                dot_scalar(&a, &b).to_bits(),
                dot_unrolled(&a, &b).to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn dot_handles_mismatched_lengths_like_zip() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [10.0, 20.0];
        assert_eq!(dot_scalar(&a, &b), 50.0);
        assert_eq!(dot_unrolled(&a, &b), 50.0);
    }
}
