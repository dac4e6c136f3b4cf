//! Johnson–Lindenstrauss / AMS random projection sketching (Fact 1 of the paper).
//!
//! The sketch of a vector `a` is `Πa` where `Π ∈ R^{m×n}` has i.i.d. `±1/√m` entries;
//! the inner product of two sketches is an unbiased estimate of `⟨a, b⟩` with standard
//! deviation roughly `‖a‖‖b‖/√m`.  The matrix is never materialized: entry `Π[r, j]`
//! is produced on demand by a seeded sign hash, so sketching costs `O(nnz · m)` time and
//! the sketcher itself is a few bytes.

use crate::error::{incompatible, SketchError};
use crate::kernel::dot_unrolled;
use crate::storage::linear_sketch_doubles;
use crate::traits::{MergeableSketcher, Sketch, Sketcher};
use ipsketch_hash::sign::SignHasher;
use ipsketch_vector::SparseVector;

/// The dense random-projection sketch `Πa` (a length-`m` real vector).
#[derive(Debug, Clone, PartialEq)]
pub struct JlSketch {
    pub(crate) seed: u64,
    pub(crate) rows: Vec<f64>,
}

impl JlSketch {
    /// The projected coordinates (`Πa`).
    #[must_use]
    pub fn rows(&self) -> &[f64] {
        &self.rows
    }

    /// The seed the sketch was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Sketch for JlSketch {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn storage_doubles(&self) -> f64 {
        linear_sketch_doubles(self.rows.len())
    }
}

/// The Johnson–Lindenstrauss (equivalently AMS "tug-of-war") sketcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JlSketcher {
    rows: usize,
    seed: u64,
    /// The sign family, constructed once here so streaming `update` calls don't
    /// re-derive it per call.
    signs: SignHasher,
}

impl JlSketcher {
    /// Creates a JL sketcher with `rows` output dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `rows == 0`.
    pub fn new(rows: usize, seed: u64) -> Result<Self, SketchError> {
        if rows == 0 {
            return Err(SketchError::InvalidParameter {
                name: "rows",
                allowed: ">= 1",
            });
        }
        Ok(Self {
            rows,
            seed,
            signs: SignHasher::from_seed(seed),
        })
    }

    /// The number of projection rows `m`.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sketches with the scalar reference kernel: one full sign-hash evaluation per
    /// `(entry, row)` pair.  This is the readable spec [`Sketcher::sketch`]'s
    /// vectorized kernel is property-tested against; it never runs outside tests and
    /// benches.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for signature parity with `sketch`.
    pub fn sketch_scalar(&self, vector: &SparseVector) -> Result<JlSketch, SketchError> {
        let mut rows = vec![0.0; self.rows];
        for (index, value) in vector.iter() {
            for (r, row) in rows.iter_mut().enumerate() {
                *row += self.signs.sign(r as u64, index) * value;
            }
        }
        Ok(self.scaled(rows))
    }

    /// Wraps accumulated rows `Σ sign · value` into the sketch `Πa` (the `1/√m` scale).
    fn scaled(&self, mut rows: Vec<f64>) -> JlSketch {
        let scale = 1.0 / (self.rows as f64).sqrt();
        for row in &mut rows {
            *row *= scale;
        }
        JlSketch {
            seed: self.seed,
            rows,
        }
    }

    /// The hoisted per-row halves of the sign mix (`m` words, computed once per sketch
    /// or streaming session).
    fn row_states(&self) -> Vec<u64> {
        (0..self.rows as u64)
            .map(|r| self.signs.row_state(r))
            .collect()
    }
}

/// Adds `sign(r, index) · value` to every row, four rows per unrolled step.
///
/// Per row the arithmetic is one `splitmix64`, a branchless ±1 lookup, and a
/// multiply-add; the four lanes are independent, so their mix chains pipeline.  The
/// accumulation order per row is identical to the scalar loop (each row has its own
/// accumulator), keeping the result bit-exact.
fn accumulate_signed_entry(rows: &mut [f64], row_states: &[u64], index: u64, value: f64) {
    let key_state = SignHasher::key_state(index);
    let mut row_chunks = rows.chunks_exact_mut(4);
    let mut state_chunks = row_states.chunks_exact(4);
    for (chunk, states) in (&mut row_chunks).zip(&mut state_chunks) {
        let signs = SignHasher::signs_x4(states, key_state);
        chunk[0] += signs[0] * value;
        chunk[1] += signs[1] * value;
        chunk[2] += signs[2] * value;
        chunk[3] += signs[3] * value;
    }
    for (row, &state) in row_chunks
        .into_remainder()
        .iter_mut()
        .zip(state_chunks.remainder())
    {
        *row += SignHasher::sign_from_states(state, key_state) * value;
    }
}

impl Sketcher for JlSketcher {
    type Output = JlSketch;

    /// The vectorized kernel: per-row sign-hash states are hoisted out of the entry
    /// loop, each entry pays one key mix, and rows accumulate in 4-wide unrolled
    /// chunks.  Bit-for-bit identical to [`JlSketcher::sketch_scalar`].
    fn sketch(&self, vector: &SparseVector) -> Result<JlSketch, SketchError> {
        let row_states = self.row_states();
        let mut rows = vec![0.0; self.rows];
        for (index, value) in vector.iter() {
            accumulate_signed_entry(&mut rows, &row_states, index, value);
        }
        Ok(self.scaled(rows))
    }

    fn estimate_inner_product(&self, a: &JlSketch, b: &JlSketch) -> Result<f64, SketchError> {
        if a.seed != self.seed || b.seed != self.seed {
            return Err(incompatible("JL sketches were built with a different seed"));
        }
        if a.rows.len() != self.rows || b.rows.len() != self.rows {
            return Err(incompatible(format!(
                "JL sketches have {} / {} rows, expected {}",
                a.rows.len(),
                b.rows.len(),
                self.rows
            )));
        }
        Ok(dot_unrolled(&a.rows, &b.rows))
    }

    fn name(&self) -> &'static str {
        "JL"
    }
}

impl MergeableSketcher for JlSketcher {
    fn empty_sketch(&self) -> JlSketch {
        JlSketch {
            seed: self.seed,
            rows: vec![0.0; self.rows],
        }
    }

    /// Turnstile update: `Π(a + δ·e_index) = Πa + δ·Π e_index`, so each row gains
    /// `sign(r, index) · δ / √m`.  Uses the sign family hoisted at construction, so a
    /// long stream of updates pays no per-update setup.
    fn update(&self, sketch: &mut JlSketch, index: u64, delta: f64) -> Result<(), SketchError> {
        if sketch.seed != self.seed || sketch.rows.len() != self.rows {
            return Err(incompatible(
                "JL sketch does not match this sketcher's seed/row count",
            ));
        }
        let scale = 1.0 / (self.rows as f64).sqrt();
        for (r, row) in sketch.rows.iter_mut().enumerate() {
            *row += self.signs.sign(r as u64, index) * delta * scale;
        }
        Ok(())
    }

    /// Addition-merge: the sketch is linear, so `Π(a + b) = Πa + Πb`.
    fn merge(&self, a: &JlSketch, b: &JlSketch) -> Result<JlSketch, SketchError> {
        for (label, sketch) in [("first", a), ("second", b)] {
            if sketch.seed != self.seed || sketch.rows.len() != self.rows {
                return Err(incompatible(format!(
                    "{label} JL sketch does not match this sketcher's seed/row count"
                )));
            }
        }
        Ok(JlSketch {
            seed: self.seed,
            rows: a.rows.iter().zip(&b.rows).map(|(x, y)| x + y).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsketch_vector::inner_product;

    #[test]
    fn constructor_validates() {
        assert!(JlSketcher::new(0, 1).is_err());
        let s = JlSketcher::new(64, 9).unwrap();
        assert_eq!(s.rows(), 64);
        assert_eq!(s.seed(), 9);
        assert_eq!(s.name(), "JL");
    }

    #[test]
    fn sketch_shape_and_storage() {
        let s = JlSketcher::new(50, 1).unwrap();
        let v = SparseVector::from_pairs([(0, 1.0), (10, -2.0)]).unwrap();
        let sk = s.sketch(&v).unwrap();
        assert_eq!(sk.len(), 50);
        assert_eq!(sk.rows().len(), 50);
        assert_eq!(sk.seed(), 1);
        assert!((sk.storage_doubles() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_and_vectorized_kernels_are_bit_identical() {
        // Row counts around the 4-wide unroll boundary, plus empty and single-entry
        // vectors; the full randomized sweep lives in tests/proptests.rs.
        let vectors = [
            SparseVector::new(),
            SparseVector::from_pairs([(42, -3.25)]).unwrap(),
            SparseVector::from_pairs((0..37u64).map(|i| (i * 7, (i as f64) - 11.5))).unwrap(),
        ];
        for rows in [1usize, 3, 4, 5, 8, 31, 64] {
            let s = JlSketcher::new(rows, 0xA11CE).unwrap();
            for v in &vectors {
                let scalar = s.sketch_scalar(v).unwrap();
                let vectorized = s.sketch(v).unwrap();
                for (x, y) in scalar.rows().iter().zip(vectorized.rows()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "rows = {rows}");
                }
            }
        }
    }

    #[test]
    fn empty_vector_sketches_to_zero() {
        let s = JlSketcher::new(8, 1).unwrap();
        let sk = s.sketch(&SparseVector::new()).unwrap();
        assert!(sk.rows().iter().all(|&r| r == 0.0));
    }

    #[test]
    fn sketching_is_linear() {
        // S(a + b) = S(a) + S(b) and S(c·a) = c·S(a): the defining property of a linear
        // sketch.
        let s = JlSketcher::new(32, 7).unwrap();
        let a = SparseVector::from_pairs([(0, 1.0), (5, 2.0), (9, -1.0)]).unwrap();
        let b = SparseVector::from_pairs([(5, 3.0), (7, 4.0)]).unwrap();
        let sum = SparseVector::from_pairs(a.iter().chain(b.iter())).unwrap();
        let sa = s.sketch(&a).unwrap();
        let sb = s.sketch(&b).unwrap();
        let ssum = s.sketch(&sum).unwrap();
        for i in 0..32 {
            assert!((sa.rows()[i] + sb.rows()[i] - ssum.rows()[i]).abs() < 1e-9);
        }
        let scaled = s.sketch(&a.scaled(2.5)).unwrap();
        for i in 0..32 {
            assert!((2.5 * sa.rows()[i] - scaled.rows()[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn norm_is_preserved_in_expectation() {
        // E[‖Πa‖²] = ‖a‖².
        let a = SparseVector::from_pairs((0..100u64).map(|i| (i, 1.0 + (i % 3) as f64))).unwrap();
        let exact = a.norm_squared();
        let trials = 40;
        let mut total = 0.0;
        for seed in 0..trials {
            let s = JlSketcher::new(64, seed).unwrap();
            let sk = s.sketch(&a).unwrap();
            total += sk.rows().iter().map(|x| x * x).sum::<f64>();
        }
        let mean = total / f64::from(trials as u32);
        assert!(
            (mean - exact).abs() < 0.1 * exact,
            "mean {mean}, exact {exact}"
        );
    }

    #[test]
    fn estimates_inner_product_unbiasedly() {
        let a = SparseVector::from_pairs((0..300u64).map(|i| (i, ((i % 5) as f64) - 2.0))).unwrap();
        let b =
            SparseVector::from_pairs((150..450u64).map(|i| (i, ((i % 3) as f64) - 1.0))).unwrap();
        let exact = inner_product(&a, &b);
        let scale = a.norm() * b.norm();
        let trials = 50;
        let mut total = 0.0;
        for seed in 0..trials {
            let s = JlSketcher::new(256, seed).unwrap();
            let sa = s.sketch(&a).unwrap();
            let sb = s.sketch(&b).unwrap();
            total += s.estimate_inner_product(&sa, &sb).unwrap();
        }
        let mean = total / f64::from(trials as u32);
        assert!(
            (mean - exact).abs() < 0.03 * scale,
            "mean {mean}, exact {exact}, scale {scale}"
        );
    }

    #[test]
    fn error_scales_with_norm_product() {
        // The Fact-1 guarantee: |est − exact| ≲ ‖a‖‖b‖/√m for a single trial (we allow a
        // generous constant).
        let a = SparseVector::from_pairs((0..500u64).map(|i| (i, 1.0))).unwrap();
        let b = SparseVector::from_pairs((490..990u64).map(|i| (i, 1.0))).unwrap();
        let exact = inner_product(&a, &b);
        let scale = a.norm() * b.norm();
        let m = 400;
        let s = JlSketcher::new(m, 33).unwrap();
        let sa = s.sketch(&a).unwrap();
        let sb = s.sketch(&b).unwrap();
        let err = (s.estimate_inner_product(&sa, &sb).unwrap() - exact).abs();
        assert!(
            err < 6.0 * scale / (m as f64).sqrt(),
            "error {err} too large relative to {scale}/sqrt({m})"
        );
    }

    #[test]
    fn incompatible_sketches_rejected() {
        let s1 = JlSketcher::new(16, 1).unwrap();
        let s2 = JlSketcher::new(16, 2).unwrap();
        let s3 = JlSketcher::new(8, 1).unwrap();
        let v = SparseVector::from_pairs([(0, 1.0)]).unwrap();
        let a = s1.sketch(&v).unwrap();
        let b = s2.sketch(&v).unwrap();
        let c = s3.sketch(&v).unwrap();
        assert!(s1.estimate_inner_product(&a, &b).is_err());
        assert!(s1.estimate_inner_product(&a, &c).is_err());
        assert!(s1.estimate_inner_product(&a, &a).is_ok());
    }

    #[test]
    fn empty_sketch_is_the_merge_identity() {
        let s = JlSketcher::new(16, 3).unwrap();
        let v = SparseVector::from_pairs([(0, 1.0), (9, -2.5)]).unwrap();
        let sk = s.sketch(&v).unwrap();
        let merged = s.merge(&sk, &s.empty_sketch()).unwrap();
        assert_eq!(merged, sk);
        assert!(s.empty_sketch().rows().iter().all(|&r| r == 0.0));
    }

    #[test]
    fn update_stream_matches_one_shot_sketch() {
        let s = JlSketcher::new(32, 5).unwrap();
        let v = SparseVector::from_pairs((0..40u64).map(|i| (i * 2, (i as f64) - 17.5))).unwrap();
        let mut streamed = s.empty_sketch();
        for (index, value) in v.iter() {
            s.update(&mut streamed, index, value).unwrap();
        }
        let one_shot = s.sketch(&v).unwrap();
        for (x, y) in streamed.rows().iter().zip(one_shot.rows()) {
            assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn turnstile_updates_cancel() {
        // Insert then delete the same coordinate: the sketch returns to zero.
        let s = JlSketcher::new(16, 7).unwrap();
        let mut sk = s.empty_sketch();
        s.update(&mut sk, 42, 3.0).unwrap();
        s.update(&mut sk, 42, -3.0).unwrap();
        assert!(sk.rows().iter().all(|&r| r.abs() < 1e-12));
    }

    #[test]
    fn merge_of_disjoint_chunks_matches_one_shot() {
        let s = JlSketcher::new(32, 11).unwrap();
        let a = SparseVector::from_pairs((0..30u64).map(|i| (i, 1.0 + (i % 3) as f64))).unwrap();
        let b = SparseVector::from_pairs((30..60u64).map(|i| (i, 2.0 - (i % 2) as f64))).unwrap();
        let whole = SparseVector::from_pairs(a.iter().chain(b.iter())).unwrap();
        let merged = s
            .merge(&s.sketch(&a).unwrap(), &s.sketch(&b).unwrap())
            .unwrap();
        let one_shot = s.sketch(&whole).unwrap();
        for (x, y) in merged.rows().iter().zip(one_shot.rows()) {
            assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn merge_and_update_reject_mismatched_sketches() {
        let s1 = JlSketcher::new(16, 1).unwrap();
        let s2 = JlSketcher::new(16, 2).unwrap();
        let s3 = JlSketcher::new(8, 1).unwrap();
        let mut wrong_seed = s2.empty_sketch();
        let mut wrong_rows = s3.empty_sketch();
        assert!(s1.update(&mut wrong_seed, 0, 1.0).is_err());
        assert!(s1.update(&mut wrong_rows, 0, 1.0).is_err());
        assert!(s1.merge(&s1.empty_sketch(), &s2.empty_sketch()).is_err());
        assert!(s1.merge(&s3.empty_sketch(), &s1.empty_sketch()).is_err());
    }
}
