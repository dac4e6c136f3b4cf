//! CountSketch inner-product estimation.
//!
//! CountSketch (Charikar, Chen & Farach-Colton) hashes each coordinate to one of `b`
//! buckets per repetition with a random sign; the bucket-wise inner product of two
//! sketches is an unbiased estimate of `⟨a, b⟩`, and taking the median across a small
//! number of repetitions controls the variance.  The paper's experiments follow Larsen
//! et al. and use 5 repetitions with the median estimator; we do the same (the number of
//! repetitions is configurable).

use crate::error::{incompatible, SketchError};
use crate::kernel::dot_unrolled;
use crate::storage::{linear_sketch_doubles, COUNTSKETCH_REPETITIONS};
use crate::traits::{MergeableSketcher, Sketch, Sketcher};
use ipsketch_hash::sign::{BucketHasher, SignHasher};
use ipsketch_vector::SparseVector;

/// The CountSketch of a vector: `repetitions × buckets` bucket sums.
#[derive(Debug, Clone, PartialEq)]
pub struct CountSketch {
    pub(crate) seed: u64,
    pub(crate) buckets: usize,
    /// Bucket sums, laid out repetition-major: `table[rep * buckets + bucket]`.
    pub(crate) table: Vec<f64>,
}

impl CountSketch {
    /// The seed the sketch was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The number of repetitions.
    #[must_use]
    pub fn repetitions(&self) -> usize {
        self.table.len().checked_div(self.buckets).unwrap_or(0)
    }

    /// The number of buckets per repetition.
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// The bucket sums of one repetition.
    #[must_use]
    pub fn repetition(&self, rep: usize) -> &[f64] {
        &self.table[rep * self.buckets..(rep + 1) * self.buckets]
    }
}

impl Sketch for CountSketch {
    fn len(&self) -> usize {
        self.table.len()
    }

    fn storage_doubles(&self) -> f64 {
        linear_sketch_doubles(self.table.len())
    }
}

/// The CountSketch sketcher (sparse linear projection, median-of-repetitions estimator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountSketcher {
    buckets: usize,
    repetitions: usize,
    seed: u64,
    /// Both hash families are constructed once here so streaming `update` calls don't
    /// re-derive (and re-validate) them per call.
    bucket_hash: BucketHasher,
    sign_hash: SignHasher,
}

impl CountSketcher {
    /// Creates a CountSketch sketcher with `buckets` buckets per repetition and the
    /// default number of repetitions (5, following the paper's experiments).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `buckets == 0`.
    pub fn new(buckets: usize, seed: u64) -> Result<Self, SketchError> {
        Self::with_repetitions(buckets, COUNTSKETCH_REPETITIONS, seed)
    }

    /// Creates a CountSketch sketcher with an explicit number of repetitions.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `buckets == 0` or
    /// `repetitions == 0`.
    pub fn with_repetitions(
        buckets: usize,
        repetitions: usize,
        seed: u64,
    ) -> Result<Self, SketchError> {
        if buckets == 0 {
            return Err(SketchError::InvalidParameter {
                name: "buckets",
                allowed: ">= 1",
            });
        }
        if repetitions == 0 {
            return Err(SketchError::InvalidParameter {
                name: "repetitions",
                allowed: ">= 1",
            });
        }
        Ok(Self {
            buckets,
            repetitions,
            seed,
            bucket_hash: BucketHasher::new(seed, buckets)?,
            sign_hash: SignHasher::from_seed(seed ^ 0xC0_57_51_6E),
        })
    }

    /// Buckets per repetition.
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Number of repetitions.
    #[must_use]
    pub fn repetitions(&self) -> usize {
        self.repetitions
    }

    /// The master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl CountSketcher {
    /// Sketches with the scalar reference kernel: one full bucket mix and one full sign
    /// mix per `(entry, repetition)` pair.  This is the parity baseline
    /// [`Sketcher::sketch`]'s vectorized kernel is property-tested against; it never
    /// runs outside tests and benches.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for signature parity with `sketch`.
    pub fn sketch_scalar(&self, vector: &SparseVector) -> Result<CountSketch, SketchError> {
        let mut sketch = self.empty_sketch();
        for (index, value) in vector.iter() {
            for rep in 0..self.repetitions {
                let bucket = self.bucket_hash.bucket(rep as u64, index);
                let sign = self.sign_hash.sign(rep as u64, index);
                sketch.table[rep * self.buckets + bucket] += sign * value;
            }
        }
        Ok(sketch)
    }

    /// The hoisted per-repetition halves of the bucket and sign mixes.
    fn rep_states(&self) -> (Vec<u64>, Vec<u64>) {
        let bucket_states = (0..self.repetitions as u64)
            .map(|rep| self.bucket_hash.rep_state(rep))
            .collect();
        let sign_states = (0..self.repetitions as u64)
            .map(|rep| self.sign_hash.row_state(rep))
            .collect();
        (bucket_states, sign_states)
    }

    /// Scatters one entry into every repetition's bucket, four repetitions per unrolled
    /// step.  Each repetition owns a disjoint stripe of the table and repetitions are
    /// visited in ascending order, so bucket sums accumulate in exactly the scalar
    /// kernel's order.
    fn scatter_entry(
        &self,
        table: &mut [f64],
        bucket_states: &[u64],
        sign_states: &[u64],
        index: u64,
        value: f64,
    ) {
        let key_state = SignHasher::key_state(index);
        let buckets = self.buckets;
        let mut rep = 0usize;
        while rep + 4 <= self.repetitions {
            let signs = SignHasher::signs_x4(&sign_states[rep..rep + 4], key_state);
            let b0 = self
                .bucket_hash
                .bucket_from_states(bucket_states[rep], key_state);
            let b1 = self
                .bucket_hash
                .bucket_from_states(bucket_states[rep + 1], key_state);
            let b2 = self
                .bucket_hash
                .bucket_from_states(bucket_states[rep + 2], key_state);
            let b3 = self
                .bucket_hash
                .bucket_from_states(bucket_states[rep + 3], key_state);
            table[rep * buckets + b0] += signs[0] * value;
            table[(rep + 1) * buckets + b1] += signs[1] * value;
            table[(rep + 2) * buckets + b2] += signs[2] * value;
            table[(rep + 3) * buckets + b3] += signs[3] * value;
            rep += 4;
        }
        while rep < self.repetitions {
            let bucket = self
                .bucket_hash
                .bucket_from_states(bucket_states[rep], key_state);
            let sign = SignHasher::sign_from_states(sign_states[rep], key_state);
            table[rep * buckets + bucket] += sign * value;
            rep += 1;
        }
    }
}

impl Sketcher for CountSketcher {
    type Output = CountSketch;

    /// The vectorized kernel: per-repetition halves of both hash mixes are hoisted out
    /// of the entry loop, each entry pays a single key mix shared by the bucket and
    /// sign families, and repetitions are processed in 4-wide unrolled chunks.
    /// Bit-for-bit identical to [`CountSketcher::sketch_scalar`].
    fn sketch(&self, vector: &SparseVector) -> Result<CountSketch, SketchError> {
        let (bucket_states, sign_states) = self.rep_states();
        let mut sketch = self.empty_sketch();
        let table = &mut sketch.table;
        for (index, value) in vector.iter() {
            self.scatter_entry(table, &bucket_states, &sign_states, index, value);
        }
        Ok(sketch)
    }

    fn estimate_inner_product(&self, a: &CountSketch, b: &CountSketch) -> Result<f64, SketchError> {
        self.check_own("first", a)?;
        self.check_own("second", b)?;
        // Per-repetition estimates, combined by the median.
        let mut estimates: Vec<f64> = (0..self.repetitions)
            .map(|rep| dot_unrolled(a.repetition(rep), b.repetition(rep)))
            .collect();
        estimates.sort_by(|x, y| x.partial_cmp(y).expect("estimates are finite"));
        let n = estimates.len();
        Ok(if n % 2 == 1 {
            estimates[n / 2]
        } else {
            (estimates[n / 2 - 1] + estimates[n / 2]) / 2.0
        })
    }

    fn name(&self) -> &'static str {
        "CS"
    }
}

impl CountSketcher {
    /// Validates that a sketch was produced by this sketcher's configuration.
    fn check_own(&self, label: &str, sketch: &CountSketch) -> Result<(), SketchError> {
        if sketch.seed != self.seed
            || sketch.buckets != self.buckets
            || sketch.table.len() != self.buckets * self.repetitions
        {
            return Err(incompatible(format!(
                "{label} CountSketch does not match this sketcher (buckets {}, len {})",
                sketch.buckets,
                sketch.table.len()
            )));
        }
        Ok(())
    }
}

impl MergeableSketcher for CountSketcher {
    fn empty_sketch(&self) -> CountSketch {
        CountSketch {
            seed: self.seed,
            buckets: self.buckets,
            table: vec![0.0; self.buckets * self.repetitions],
        }
    }

    /// Turnstile update: the coordinate's bucket in every repetition gains
    /// `sign(rep, index) · δ`.  Uses the hash families hoisted at construction, so a
    /// long stream of updates pays no per-update setup or re-validation.
    fn update(&self, sketch: &mut CountSketch, index: u64, delta: f64) -> Result<(), SketchError> {
        self.check_own("updated", sketch)?;
        for rep in 0..self.repetitions {
            let bucket = self.bucket_hash.bucket(rep as u64, index);
            let sign = self.sign_hash.sign(rep as u64, index);
            sketch.table[rep * self.buckets + bucket] += sign * delta;
        }
        Ok(())
    }

    /// Addition-merge: CountSketch is a (sparse) linear map.
    fn merge(&self, a: &CountSketch, b: &CountSketch) -> Result<CountSketch, SketchError> {
        self.check_own("first", a)?;
        self.check_own("second", b)?;
        Ok(CountSketch {
            seed: self.seed,
            buckets: self.buckets,
            table: a.table.iter().zip(&b.table).map(|(x, y)| x + y).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsketch_vector::inner_product;

    #[test]
    fn constructor_validates() {
        assert!(CountSketcher::new(0, 1).is_err());
        assert!(CountSketcher::with_repetitions(10, 0, 1).is_err());
        let s = CountSketcher::new(80, 1).unwrap();
        assert_eq!(s.buckets(), 80);
        assert_eq!(s.repetitions(), 5);
        assert_eq!(s.seed(), 1);
        assert_eq!(s.name(), "CS");
    }

    #[test]
    fn sketch_shape_and_storage() {
        let s = CountSketcher::new(80, 1).unwrap();
        let v = SparseVector::from_pairs([(0, 1.0), (1, 2.0)]).unwrap();
        let sk = s.sketch(&v).unwrap();
        assert_eq!(sk.len(), 400);
        assert_eq!(sk.buckets(), 80);
        assert_eq!(sk.repetitions(), 5);
        assert!((sk.storage_doubles() - 400.0).abs() < 1e-12);
        assert_eq!(sk.repetition(0).len(), 80);
    }

    #[test]
    fn scalar_and_vectorized_kernels_are_bit_identical() {
        // Repetition counts straddling the 4-wide unroll boundary (including the
        // default 5) and degenerate vectors; the randomized sweep is in proptests.
        let vectors = [
            SparseVector::new(),
            SparseVector::from_pairs([(7, 2.5)]).unwrap(),
            SparseVector::from_pairs((0..41u64).map(|i| (i * 3, (i as f64) - 13.5))).unwrap(),
        ];
        for reps in [1usize, 3, 4, 5, 8, 9] {
            let s = CountSketcher::with_repetitions(17, reps, 0xBEE).unwrap();
            for v in &vectors {
                let scalar = s.sketch_scalar(v).unwrap();
                let vectorized = s.sketch(v).unwrap();
                for (x, y) in scalar.table.iter().zip(&vectorized.table) {
                    assert_eq!(x.to_bits(), y.to_bits(), "reps = {reps}");
                }
            }
        }
    }

    #[test]
    fn mass_is_preserved_per_repetition() {
        // Each repetition distributes every coordinate (with a sign) into exactly one
        // bucket, so the sum of |bucket sums| is at most the l1 norm and the sum of
        // squares of a single-entry vector is exactly that entry squared.
        let s = CountSketcher::new(16, 3).unwrap();
        let v = SparseVector::from_pairs([(42, 3.0)]).unwrap();
        let sk = s.sketch(&v).unwrap();
        for rep in 0..5 {
            let sq: f64 = sk.repetition(rep).iter().map(|x| x * x).sum();
            assert!((sq - 9.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sketching_is_linear() {
        let s = CountSketcher::new(32, 7).unwrap();
        let a = SparseVector::from_pairs([(0, 1.0), (5, 2.0)]).unwrap();
        let b = SparseVector::from_pairs([(5, -1.0), (9, 4.0)]).unwrap();
        let sum = SparseVector::from_pairs(a.iter().chain(b.iter())).unwrap();
        let sa = s.sketch(&a).unwrap();
        let sb = s.sketch(&b).unwrap();
        let ssum = s.sketch(&sum).unwrap();
        for i in 0..sa.len() {
            assert!((sa.table[i] + sb.table[i] - ssum.table[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn estimates_are_approximately_unbiased() {
        let a = SparseVector::from_pairs((0..200u64).map(|i| (i, ((i % 5) as f64) - 2.0))).unwrap();
        let b =
            SparseVector::from_pairs((100..300u64).map(|i| (i, ((i % 3) as f64) - 1.0))).unwrap();
        let exact = inner_product(&a, &b);
        let scale = a.norm() * b.norm();
        let trials = 50;
        let mut total = 0.0;
        for seed in 0..trials {
            let s = CountSketcher::new(80, seed).unwrap();
            let sa = s.sketch(&a).unwrap();
            let sb = s.sketch(&b).unwrap();
            total += s.estimate_inner_product(&sa, &sb).unwrap();
        }
        let mean = total / f64::from(trials as u32);
        // The median estimator has a small bias, so allow a slightly wider margin than
        // for plain averaging.
        assert!(
            (mean - exact).abs() < 0.06 * scale,
            "mean {mean}, exact {exact}, scale {scale}"
        );
    }

    #[test]
    fn exact_for_identical_singleton_vectors() {
        let s = CountSketcher::new(64, 5).unwrap();
        let v = SparseVector::from_pairs([(7, 2.0)]).unwrap();
        let sk = s.sketch(&v).unwrap();
        assert!((s.estimate_inner_product(&sk, &sk).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_vector_gives_zero_sketch_and_estimates() {
        let s = CountSketcher::new(16, 5).unwrap();
        let empty = s.sketch(&SparseVector::new()).unwrap();
        let v = s
            .sketch(&SparseVector::from_pairs([(3, 2.0)]).unwrap())
            .unwrap();
        assert_eq!(s.estimate_inner_product(&empty, &v).unwrap(), 0.0);
    }

    #[test]
    fn incompatible_sketches_rejected() {
        let s1 = CountSketcher::new(16, 1).unwrap();
        let s2 = CountSketcher::new(16, 2).unwrap();
        let s3 = CountSketcher::new(8, 1).unwrap();
        let v = SparseVector::from_pairs([(0, 1.0)]).unwrap();
        let a = s1.sketch(&v).unwrap();
        assert!(s1
            .estimate_inner_product(&a, &s2.sketch(&v).unwrap())
            .is_err());
        assert!(s1
            .estimate_inner_product(&a, &s3.sketch(&v).unwrap())
            .is_err());
        assert!(s1.estimate_inner_product(&a, &a).is_ok());
    }

    #[test]
    fn empty_sketch_is_the_merge_identity() {
        let s = CountSketcher::new(16, 3).unwrap();
        let v = SparseVector::from_pairs([(0, 1.0), (9, -2.5)]).unwrap();
        let sk = s.sketch(&v).unwrap();
        assert_eq!(s.merge(&s.empty_sketch(), &sk).unwrap(), sk);
    }

    #[test]
    fn update_stream_matches_one_shot_sketch() {
        let s = CountSketcher::new(24, 5).unwrap();
        let v = SparseVector::from_pairs((0..40u64).map(|i| (i * 3, (i as f64) - 17.5))).unwrap();
        let mut streamed = s.empty_sketch();
        for (index, value) in v.iter() {
            s.update(&mut streamed, index, value).unwrap();
        }
        let one_shot = s.sketch(&v).unwrap();
        for (x, y) in streamed.table.iter().zip(&one_shot.table) {
            assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn merge_of_disjoint_chunks_matches_one_shot() {
        let s = CountSketcher::new(32, 11).unwrap();
        let a = SparseVector::from_pairs((0..30u64).map(|i| (i, 1.0 + (i % 3) as f64))).unwrap();
        let b = SparseVector::from_pairs((30..60u64).map(|i| (i, 2.0 - (i % 2) as f64))).unwrap();
        let whole = SparseVector::from_pairs(a.iter().chain(b.iter())).unwrap();
        let merged = s
            .merge(&s.sketch(&a).unwrap(), &s.sketch(&b).unwrap())
            .unwrap();
        let one_shot = s.sketch(&whole).unwrap();
        for (x, y) in merged.table.iter().zip(&one_shot.table) {
            assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn merge_and_update_reject_mismatched_sketches() {
        let s1 = CountSketcher::new(16, 1).unwrap();
        let s2 = CountSketcher::new(16, 2).unwrap();
        let s3 = CountSketcher::new(8, 1).unwrap();
        let mut wrong_seed = s2.empty_sketch();
        assert!(s1.update(&mut wrong_seed, 0, 1.0).is_err());
        assert!(s1.merge(&s1.empty_sketch(), &s3.empty_sketch()).is_err());
    }

    #[test]
    fn median_of_even_repetitions() {
        let s = CountSketcher::with_repetitions(32, 4, 9).unwrap();
        let v = SparseVector::from_pairs([(1, 1.0), (2, 2.0)]).unwrap();
        let sk = s.sketch(&v).unwrap();
        // Self inner product: every repetition gives a positive estimate; the median of
        // an even count is the average of the middle two and must be close to 5.
        let est = s.estimate_inner_product(&sk, &sk).unwrap();
        assert!(est > 0.0);
    }
}
