//! The fast (active-index) Weighted MinHash sketcher.
//!
//! Algorithm 3 hashes every non-zero position of an expanded vector of length `n·L`.
//! Done literally this costs `O(L)` hash evaluations per sample; the paper points out
//! (Section 5, "Efficient Weighted Hashing") that the cost can be reduced to
//! `O(log L)` per non-zero block per sample by only generating the *records* (successive
//! minima) of the implicit hash stream, skipping ahead with geometric jumps.
//!
//! [`WeightedMinHasher`] implements exactly that: for every `(sample, block)` pair it
//! replays the deterministic record stream of [`ipsketch_hash::record::RecordStream`]
//! and reads the last record that falls inside the block's prefix of
//! `ã[j]²·L` positions.  Because the stream depends only on `(seed, sample, block)`,
//! independently computed sketches of different vectors remain *consistent*: whenever
//! the expanded-vector model says two vectors share their minimum-hash position, the
//! stored hash values are bit-identical, which is what the Algorithm 5 estimator
//! requires.

use super::{validate_params, WeightedMinHashSketch, WmhParams, WmhStream, WmhVariant};
use crate::error::{incompatible, SketchError};
use crate::traits::{MergeableSketcher, Sketcher};
use ipsketch_hash::mix::mix2;
use ipsketch_hash::record::{prefix_min_replay, prefix_min_replay_v2_sweep, Record, RecordStream};
use ipsketch_vector::rounding::{normalize_and_round, repetition_counts};
use ipsketch_vector::SparseVector;

/// A sampling loop over `(block, count, value)` triples, returning the per-sample
/// minimum hashes and the values at the minimizing blocks.
type SampleMinima = fn(&WeightedMinHasher, &[(u64, u64, f64)]) -> (Vec<f64>, Vec<f64>);

/// The `O(nnz · m · log L)` Weighted MinHash sketcher (Algorithm 3 with the
/// active-index optimization) and its Algorithm-5 estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightedMinHasher {
    params: WmhParams,
    /// The record-stream seed namespace, hoisted at construction so streaming updates
    /// and repeated sketch calls don't re-derive it.
    stream_seed: u64,
}

impl WeightedMinHasher {
    /// Creates a Weighted MinHash sketcher.
    ///
    /// * `samples` — the number of hash samples `m` (sketch size).
    /// * `seed` — master random seed shared by all parties sketching vectors that will
    ///   be compared.
    /// * `discretization` — the parameter `L`: squared entries of the normalized vector
    ///   are rounded to integer multiples of `1/L`.  `L` does not affect the sketch
    ///   size; it should be comfortably larger than the number of non-zero entries
    ///   (the paper recommends at least 100–1000×).
    ///
    /// The sketcher samples the frozen [`WmhStream::V1`] record stream, matching every
    /// sketch built before streams existed; use
    /// [`with_stream`](Self::with_stream) to select the deterministic-logarithm v2
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `samples == 0` or
    /// `discretization == 0`.
    pub fn new(samples: usize, seed: u64, discretization: u64) -> Result<Self, SketchError> {
        Self::with_stream(samples, seed, discretization, WmhStream::V1)
    }

    /// Creates a Weighted MinHash sketcher sampling the given record stream.
    ///
    /// Sketches built with different streams are bit-incompatible (the stream is part
    /// of [`WmhParams`]); pick [`WmhStream::V2`] for new catalogs — it is faster to
    /// build and reproducible across platforms — and [`WmhStream::V1`] only to match
    /// existing v1 sketches.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new).
    pub fn with_stream(
        samples: usize,
        seed: u64,
        discretization: u64,
        stream: WmhStream,
    ) -> Result<Self, SketchError> {
        validate_params(samples, discretization)?;
        Ok(Self {
            params: WmhParams {
                samples,
                seed,
                discretization,
                variant: WmhVariant::Fast,
                stream,
            },
            stream_seed: mix2(seed, 0x57_4D48),
        })
    }

    /// The number of samples `m`.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.params.samples
    }

    /// The master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.params.seed
    }

    /// The discretization parameter `L`.
    #[must_use]
    pub fn discretization(&self) -> u64 {
        self.params.discretization
    }

    /// The record-stream definition this sketcher samples.
    #[must_use]
    pub fn stream(&self) -> WmhStream {
        self.params.stream
    }

    /// The per-`(sample, block)` prefix minimum under this sketcher's stream
    /// definition — the scalar reference used by the sequential kernel and the
    /// streaming update path.
    #[inline]
    fn stream_prefix_min(&self, sample: u64, block: u64, count: u64) -> Record {
        let mut stream = RecordStream::new(self.stream_seed, sample, block);
        match self.params.stream {
            WmhStream::V1 => stream.prefix_min(count),
            WmhStream::V2 => stream.prefix_min_v2(count),
        }
        .expect("count >= 1 by construction")
    }

    /// The configuration fingerprint.
    #[must_use]
    pub fn params(&self) -> WmhParams {
        self.params
    }

    /// The active-index sampling loop over `(block, count, value)` triples — for each
    /// of the `m` samples, the minimum record over every block's `count`-position
    /// prefix, together with the rounded entry value at the minimizing block — as the
    /// scalar reference: sample-outer, block-inner, one record stream at a time.
    fn sample_minima_scalar(&self, blocks: &[(u64, u64, f64)]) -> (Vec<f64>, Vec<f64>) {
        let m = self.params.samples;
        let mut hashes = Vec::with_capacity(m);
        let mut values = Vec::with_capacity(m);
        for sample in 0..m {
            let mut best_hash = f64::INFINITY;
            let mut best_value = 0.0;
            for &(block, count, value) in blocks {
                let record = self.stream_prefix_min(sample as u64, block, count);
                if record.value < best_hash {
                    best_hash = record.value;
                    best_value = value;
                }
            }
            hashes.push(best_hash);
            values.push(best_value);
        }
        (hashes, values)
    }

    /// The vectorized sampling loop, the only one that runs outside tests and benches:
    /// block-outer, sample-inner.
    ///
    /// Each block's seed-mix half and prefix length are built once and swept across all
    /// `m` samples with a min-reduction into the `hashes`/`values` arrays, and every
    /// stream is replayed with the tight register-resident replay kernels.  The
    /// per-sample seed states are hoisted once per sketch instead of once per
    /// `(sample, block)` pair.  For every sample, blocks are visited in input order and
    /// minima kept on strict `<`, so the result is bit-for-bit identical to
    /// [`sample_minima_scalar`](Self::sample_minima_scalar).
    ///
    /// The two streams vectorize differently.  The v1 stream is pinned to libm's `ln`
    /// — an opaque scalar call that cannot be widened — so its restructuring is
    /// deliberately modest: the wins come from the hoisted states and
    /// [`prefix_min_replay`]'s logarithm-free resolution of the most probable skip,
    /// and a 4-wide lockstep variant benchmarked at parity and was dropped.  The v2
    /// stream's deterministic logarithm is a short chain of exactly-specified f64
    /// operations that *does* pack, so its sample sweep runs through
    /// [`prefix_min_replay_v2_sweep`], the only packed replay: three streams replayed
    /// in lockstep per block (six logarithm pairs filling three packed evaluations on
    /// AVX2, three interleaved generators hiding the state-update latency), with
    /// finished lanes reloaded from the remaining samples so no lane idles while a
    /// slow stream drains.  This is the v2 format's sketch-build speedup.
    fn sample_minima_vectorized(&self, blocks: &[(u64, u64, f64)]) -> (Vec<f64>, Vec<f64>) {
        let m = self.params.samples;
        let sample_states: Vec<u64> = (0..m as u64)
            .map(|s| RecordStream::sample_state(self.stream_seed, s))
            .collect();
        let mut hashes = vec![f64::INFINITY; m];
        let mut values = vec![0.0; m];
        for &(block, count, value) in blocks {
            let block_state = RecordStream::block_state(block);
            let mut commit = |sample: usize, record: Record| {
                if record.value < hashes[sample] {
                    hashes[sample] = record.value;
                    values[sample] = value;
                }
            };
            match self.params.stream {
                WmhStream::V1 => {
                    for (sample, sample_state) in sample_states.iter().enumerate() {
                        let record = prefix_min_replay(*sample_state, block_state, count)
                            .expect("count >= 1 by construction");
                        commit(sample, record);
                    }
                }
                WmhStream::V2 => {
                    prefix_min_replay_v2_sweep(
                        &sample_states,
                        block_state,
                        count,
                        &mut |sample, record| {
                            commit(sample, record.expect("count >= 1 by construction"));
                        },
                    );
                }
            }
        }
        (hashes, values)
    }

    /// Sketches with the scalar reference kernel (the internal `sample_minima_scalar`
    /// loop).  This is the parity baseline [`Sketcher::sketch`] is property-tested
    /// against; it never runs outside tests and benches.
    ///
    /// # Errors
    ///
    /// As for [`Sketcher::sketch`].
    pub fn sketch_scalar(
        &self,
        vector: &SparseVector,
    ) -> Result<WeightedMinHashSketch, SketchError> {
        self.sketch_with(vector, Self::sample_minima_scalar)
    }

    /// Algorithm 3 with the sampling loop `sample_minima`.
    fn sketch_with(
        &self,
        vector: &SparseVector,
        sample_minima: SampleMinima,
    ) -> Result<WeightedMinHashSketch, SketchError> {
        // Line 2 of Algorithm 3: normalize and round onto the 1/L grid.
        let (rounded, norm) = normalize_and_round(vector, self.params.discretization)?;
        // Lines 3–4 are implicit: we never materialize the expanded vector, only the
        // per-block repetition counts ã[j]²·L.  The record-stream seed namespace is
        // derived from the master seed only, so all vectors sketched with the same
        // configuration share it.
        let blocks: Vec<(u64, u64, f64)> = repetition_counts(&rounded, self.params.discretization)
            .into_iter()
            .map(|(block, count)| (block, count, rounded.get(block)))
            .collect();
        debug_assert!(
            !blocks.is_empty(),
            "a rounded unit vector always has at least one non-empty block"
        );
        let (hashes, values) = sample_minima(self, &blocks);
        Ok(WeightedMinHashSketch {
            params: self.params,
            hashes,
            values,
            norm,
        })
    }

    /// The empty partial sketch of a vector whose Euclidean norm is announced to be
    /// `reference_norm`: the starting point for [`MergeableSketcher::update`] streaming
    /// under the two-pass (announced-norm) protocol.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `reference_norm` is not a positive
    /// finite number.
    pub fn empty_sketch_with_norm(
        &self,
        reference_norm: f64,
    ) -> Result<WeightedMinHashSketch, SketchError> {
        if !(reference_norm > 0.0 && reference_norm.is_finite()) {
            return Err(SketchError::InvalidParameter {
                name: "reference_norm",
                allowed: "positive and finite",
            });
        }
        Ok(WeightedMinHashSketch {
            params: self.params,
            hashes: vec![f64::INFINITY; self.params.samples],
            values: vec![0.0; self.params.samples],
            norm: reference_norm,
        })
    }

    /// Sketches one partition of a vector under the announced-norm protocol: `vector`
    /// holds a subset of the full vector's support, and `reference_norm` is the
    /// Euclidean norm of the *full* vector (computed in a cheap first pass and shared
    /// by all partitions).  Partials built this way merge into the sketch of the whole
    /// vector; the result agrees with one-shot [`Sketcher::sketch`] up to the Algorithm
    /// 4 mass-absorption at the largest entry (all other grid counts are identical), so
    /// merged and one-shot sketches are estimate-equivalent.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `reference_norm` is not positive
    /// and finite or is smaller than the partition's own norm.
    pub fn sketch_partition(
        &self,
        vector: &SparseVector,
        reference_norm: f64,
    ) -> Result<WeightedMinHashSketch, SketchError> {
        let mut partial = self.empty_sketch_with_norm(reference_norm)?;
        if vector.norm() > reference_norm * (1.0 + 1e-9) {
            return Err(SketchError::InvalidParameter {
                name: "reference_norm",
                allowed: "at least the partition's own Euclidean norm",
            });
        }
        let l_f = self.params.discretization as f64;
        let scaled = vector.scaled(1.0 / reference_norm);
        let blocks: Vec<(u64, u64, f64)> = scaled
            .iter()
            .filter_map(|(i, v)| {
                // Round down onto the 1/L grid exactly as Algorithm 4 does for every
                // non-maximal entry; entries below the grid contribute no expanded
                // positions.
                let units = (v * v * l_f).floor();
                (units > 0.0).then(|| (i, units as u64, v.signum() * (units / l_f).sqrt()))
            })
            .collect();
        if !blocks.is_empty() {
            let (hashes, values) = self.sample_minima_vectorized(&blocks);
            partial.hashes = hashes;
            partial.values = values;
        }
        Ok(partial)
    }
}

impl Sketcher for WeightedMinHasher {
    type Output = WeightedMinHashSketch;

    fn sketch(&self, vector: &SparseVector) -> Result<WeightedMinHashSketch, SketchError> {
        self.sketch_with(vector, Self::sample_minima_vectorized)
    }

    fn estimate_inner_product(
        &self,
        a: &WeightedMinHashSketch,
        b: &WeightedMinHashSketch,
    ) -> Result<f64, SketchError> {
        if a.params != self.params || b.params != self.params {
            return Err(crate::error::incompatible(
                "sketches were not produced by this sketcher's configuration".to_string(),
            ));
        }
        super::estimate(a, b)
    }

    fn name(&self) -> &'static str {
        "WMH"
    }
}

impl MergeableSketcher for WeightedMinHasher {
    /// The trait-level empty sketch carries no announced norm (`norm == 0`); it is the
    /// merge identity, but [`update`](MergeableSketcher::update) rejects it — Algorithm
    /// 3 normalizes by the full vector's norm, so WMH streaming must start from
    /// [`WeightedMinHasher::empty_sketch_with_norm`].
    fn empty_sketch(&self) -> WeightedMinHashSketch {
        WeightedMinHashSketch {
            params: self.params,
            hashes: vec![f64::INFINITY; self.params.samples],
            values: vec![0.0; self.params.samples],
            norm: 0.0,
        }
    }

    /// Insertion update under the announced-norm protocol: normalizes `delta` by the
    /// sketch's stored reference norm, rounds it onto the grid, and folds the entry's
    /// block into every sample's minimum.  Each index must be presented at most once
    /// (the block's repetition count is derived from the full value, and a minimum
    /// cannot be recomputed for a grown block), which a row-partitioned table satisfies
    /// naturally.
    fn update(
        &self,
        sketch: &mut WeightedMinHashSketch,
        index: u64,
        delta: f64,
    ) -> Result<(), SketchError> {
        if sketch.params != self.params {
            return Err(incompatible(
                "WMH sketch was built with a different configuration",
            ));
        }
        if !(sketch.norm > 0.0 && sketch.norm.is_finite()) {
            return Err(SketchError::InvalidParameter {
                name: "norm",
                allowed: "> 0 — start WMH streaming from `empty_sketch_with_norm` (announced-norm protocol)",
            });
        }
        let l_f = self.params.discretization as f64;
        // Multiply by the reciprocal exactly as `SparseVector::scaled` does, so
        // streamed updates land on the same grid counts as `sketch_partition`.
        let normalized = delta * (1.0 / sketch.norm);
        let units = (normalized * normalized * l_f).floor();
        if units <= 0.0 {
            // Below the 1/L grid: the entry contributes no expanded positions, exactly
            // as Algorithm 4 drops it.
            return Ok(());
        }
        let count = units as u64;
        let value = normalized.signum() * (units / l_f).sqrt();
        for sample in 0..self.params.samples {
            let record = self.stream_prefix_min(sample as u64, index, count);
            if record.value < sketch.hashes[sample] {
                sketch.hashes[sample] = record.value;
                sketch.values[sample] = value;
            }
        }
        Ok(())
    }

    /// Min-merge: per sample, keep the smaller minimum hash (and its value).  Both
    /// sketches must have been normalized by the same announced norm; the trait-level
    /// empty sketch (norm 0) acts as the identity.
    fn merge(
        &self,
        a: &WeightedMinHashSketch,
        b: &WeightedMinHashSketch,
    ) -> Result<WeightedMinHashSketch, SketchError> {
        if a.params != self.params || b.params != self.params {
            return Err(incompatible(
                "WMH sketches were not produced by this sketcher's configuration",
            ));
        }
        if a.norm == 0.0 {
            return Ok(b.clone());
        }
        if b.norm == 0.0 {
            return Ok(a.clone());
        }
        if a.norm != b.norm {
            return Err(incompatible(format!(
                "WMH partials were normalized by different announced norms ({} vs {}); \
                 all partitions must share the full vector's norm",
                a.norm, b.norm
            )));
        }
        let mut merged = a.clone();
        for i in 0..self.params.samples {
            if b.hashes[i] < merged.hashes[i] {
                merged.hashes[i] = b.hashes[i];
                merged.values[i] = b.values[i];
            }
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Sketch;
    use ipsketch_vector::{inner_product, weighted_jaccard, SparseVector, VectorError};

    #[test]
    fn constructor_validates() {
        assert!(WeightedMinHasher::new(0, 1, 100).is_err());
        assert!(WeightedMinHasher::new(10, 1, 0).is_err());
        let s = WeightedMinHasher::new(10, 3, 100).unwrap();
        assert_eq!(s.samples(), 10);
        assert_eq!(s.seed(), 3);
        assert_eq!(s.discretization(), 100);
        assert_eq!(s.name(), "WMH");
        // `new` is frozen to the v1 stream; the v2 stream is opt-in.
        assert_eq!(s.stream(), WmhStream::V1);
        let v2 = WeightedMinHasher::with_stream(10, 3, 100, WmhStream::V2).unwrap();
        assert_eq!(v2.stream(), WmhStream::V2);
        assert!(WeightedMinHasher::with_stream(0, 1, 100, WmhStream::V2).is_err());
    }

    #[test]
    fn rejects_zero_vector() {
        let s = WeightedMinHasher::new(8, 1, 1024).unwrap();
        assert!(matches!(
            s.sketch(&SparseVector::new()),
            Err(SketchError::Vector(VectorError::ZeroVector))
        ));
    }

    #[test]
    fn scalar_and_vectorized_kernels_are_bit_identical() {
        // Sample counts straddling the 4-wide chunk boundary and vectors from
        // single-entry up; the randomized sweep is in tests/proptests.rs.
        let vectors = [
            SparseVector::from_pairs([(9, 4.0)]).unwrap(),
            SparseVector::from_pairs([(0, 1.0), (3, -2.0), (11, 0.5)]).unwrap(),
            SparseVector::from_pairs((0..50u64).map(|i| (i * 2, 1.0 + (i % 7) as f64))).unwrap(),
        ];
        for m in [1usize, 2, 4, 5, 7, 8, 33] {
            let s = WeightedMinHasher::new(m, 0xC0FFEE, 1 << 18).unwrap();
            for v in &vectors {
                let scalar = s.sketch_scalar(v).unwrap();
                let vectorized = s.sketch(v).unwrap();
                for (x, y) in scalar.hashes().iter().zip(vectorized.hashes()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "m = {m}");
                }
                for (x, y) in scalar.values().iter().zip(vectorized.values()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "m = {m}");
                }
                assert_eq!(scalar.norm(), vectorized.norm());
            }
        }
    }

    #[test]
    fn v2_stream_scalar_and_vectorized_kernels_are_bit_identical() {
        // The vectorized twin of the v2 stream must replay the exact scalar reference,
        // just like the v1 pair.
        let vectors = [
            SparseVector::from_pairs([(9, 4.0)]).unwrap(),
            SparseVector::from_pairs([(0, 1.0), (3, -2.0), (11, 0.5)]).unwrap(),
            SparseVector::from_pairs((0..50u64).map(|i| (i * 2, 1.0 + (i % 7) as f64))).unwrap(),
        ];
        for m in [1usize, 2, 5, 8, 33] {
            let s = WeightedMinHasher::with_stream(m, 0xC0FFEE, 1 << 18, WmhStream::V2).unwrap();
            for v in &vectors {
                let scalar = s.sketch_scalar(v).unwrap();
                let vectorized = s.sketch(v).unwrap();
                for (x, y) in scalar.hashes().iter().zip(vectorized.hashes()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "m = {m}");
                }
                for (x, y) in scalar.values().iter().zip(vectorized.values()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "m = {m}");
                }
                assert_eq!(scalar.norm(), vectorized.norm());
            }
        }
    }

    #[test]
    fn streams_are_bit_incompatible_but_statistically_interchangeable() {
        let a = SparseVector::from_pairs((0..300u64).map(|i| (i, 1.0 + (i % 7) as f64))).unwrap();
        let b = SparseVector::from_pairs((150..450u64).map(|i| (i, 0.5 + (i % 5) as f64))).unwrap();
        let exact = inner_product(&a, &b);
        let scale = a.norm() * b.norm();
        let trials = 20u64;
        let mut v1_total = 0.0;
        let mut v2_total = 0.0;
        for seed in 0..trials {
            let s1 = WeightedMinHasher::new(256, seed, 1 << 22).unwrap();
            let s2 = WeightedMinHasher::with_stream(256, seed, 1 << 22, WmhStream::V2).unwrap();
            let (sa1, sb1) = (s1.sketch(&a).unwrap(), s1.sketch(&b).unwrap());
            let (sa2, sb2) = (s2.sketch(&a).unwrap(), s2.sketch(&b).unwrap());
            // Different parameter sets: mixing streams is rejected up front.
            assert!(s1.estimate_inner_product(&sa1, &sb2).is_err());
            assert!(matches!(
                super::super::estimate(&sa1, &sa2),
                Err(SketchError::IncompatibleSketches { .. })
            ));
            v1_total += s1.estimate_inner_product(&sa1, &sb1).unwrap();
            v2_total += s2.estimate_inner_product(&sa2, &sb2).unwrap();
        }
        let v1_mean = v1_total / trials as f64;
        let v2_mean = v2_total / trials as f64;
        // Both streams estimate the same inner product with the paper's guarantee.
        assert!((v1_mean - exact).abs() < 0.03 * scale, "v1 mean {v1_mean}");
        assert!((v2_mean - exact).abs() < 0.03 * scale, "v2 mean {v2_mean}");
    }

    #[test]
    fn v2_update_stream_equals_partition_sketching() {
        // The streaming-update path dispatches on the stream exactly like the batch
        // kernels, so streamed v2 partials equal v2 partition sketches bit-for-bit.
        let v = SparseVector::from_pairs((0..60u64).map(|i| (i * 3, (i as f64) - 25.0))).unwrap();
        let s = WeightedMinHasher::with_stream(64, 5, 1 << 20, WmhStream::V2).unwrap();
        let norm = v.norm();
        let mut streamed = s.empty_sketch_with_norm(norm).unwrap();
        for (index, value) in v.iter() {
            s.update(&mut streamed, index, value).unwrap();
        }
        let partitioned = s.sketch_partition(&v, norm).unwrap();
        assert_eq!(streamed, partitioned);
    }

    #[test]
    fn sketch_is_deterministic() {
        let v = SparseVector::from_pairs([(3, 1.0), (9, -2.0), (20, 0.5)]).unwrap();
        let s = WeightedMinHasher::new(32, 7, 1 << 16).unwrap();
        let a = s.sketch(&v).unwrap();
        let b = s.sketch(&v).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scaling_a_vector_changes_only_the_norm() {
        // The sketch of c·a has the same hashes/values as the sketch of a, but norm
        // scaled by c — this is exactly the normalization step of Algorithm 3.
        let v = SparseVector::from_pairs([(1, 1.0), (5, 2.0), (9, -3.0)]).unwrap();
        let scaled = v.scaled(4.0);
        let s = WeightedMinHasher::new(64, 5, 1 << 18).unwrap();
        let sa = s.sketch(&v).unwrap();
        let sb = s.sketch(&scaled).unwrap();
        assert_eq!(sa.hashes(), sb.hashes());
        assert_eq!(sa.values(), sb.values());
        assert!((sb.norm() - 4.0 * sa.norm()).abs() < 1e-9);
    }

    #[test]
    fn collision_rate_matches_weighted_jaccard() {
        // Fact 5(1): P[W_a^hash[i] = W_b^hash[i]] equals the weighted Jaccard similarity
        // of the rounded normalized vectors.
        let a = SparseVector::from_pairs((0..60u64).map(|i| (i, 1.0 + (i % 3) as f64))).unwrap();
        let b = SparseVector::from_pairs((30..90u64).map(|i| (i, 2.0 - (i % 2) as f64))).unwrap();
        let an = a.normalized().unwrap();
        let bn = b.normalized().unwrap();
        let expected = weighted_jaccard(&an, &bn);

        let m = 4000;
        let s = WeightedMinHasher::new(m, 11, 1 << 22).unwrap();
        let sa = s.sketch(&a).unwrap();
        let sb = s.sketch(&b).unwrap();
        let collisions = sa
            .hashes()
            .iter()
            .zip(sb.hashes())
            .filter(|(x, y)| x == y)
            .count();
        let rate = collisions as f64 / m as f64;
        assert!(
            (rate - expected).abs() < 0.03,
            "collision rate {rate}, weighted Jaccard {expected}"
        );
    }

    #[test]
    fn collisions_sample_the_support_intersection() {
        // Fact 5(2): on a collision, both values come from the same index, so the pair
        // (va, vb) must equal (ã[j], b̃[j]) for some j in the intersection.
        let a = SparseVector::from_pairs([(1, 3.0), (2, 1.0), (5, 2.0), (9, 4.0)]).unwrap();
        let b = SparseVector::from_pairs([(2, 2.0), (5, 5.0), (7, 1.0)]).unwrap();
        let s = WeightedMinHasher::new(512, 3, 1 << 20).unwrap();
        let sa = s.sketch(&a).unwrap();
        let sb = s.sketch(&b).unwrap();
        let an = a.normalized().unwrap();
        let bn = b.normalized().unwrap();
        let mut saw_collision = false;
        for i in 0..512 {
            if sa.hashes()[i] == sb.hashes()[i] {
                saw_collision = true;
                let va = sa.values()[i];
                let vb = sb.values()[i];
                // Identify which intersection index produced this collision (2 or 5).
                // The stored values come from the *rounded* unit vectors, so allow the
                // rounding error of Algorithm 4 (O(nnz/√L) per entry).
                let matches_index = [2u64, 5]
                    .iter()
                    .any(|&j| (va - an.get(j)).abs() < 1e-4 && (vb - bn.get(j)).abs() < 1e-4);
                assert!(
                    matches_index,
                    "collision values ({va}, {vb}) not from intersection"
                );
            }
        }
        assert!(
            saw_collision,
            "expected at least one collision with 512 samples"
        );
    }

    #[test]
    fn heavy_entry_vectors_are_estimated_accurately() {
        // The motivating failure case for unweighted MinHash (Section 4): one index
        // carries almost all of the inner product.  WMH must sample it.
        let mut pairs_a: Vec<(u64, f64)> = (0..500u64).map(|i| (i, 0.1)).collect();
        let mut pairs_b: Vec<(u64, f64)> = (250..750u64).map(|i| (i, 0.1)).collect();
        pairs_a.push((1000, 50.0));
        pairs_b.push((1000, 40.0));
        let a = SparseVector::from_pairs(pairs_a).unwrap();
        let b = SparseVector::from_pairs(pairs_b).unwrap();
        let exact = inner_product(&a, &b);
        let scale = a.norm() * b.norm();

        let trials = 20;
        let mut total_err = 0.0;
        for seed in 0..trials {
            let s = WeightedMinHasher::new(400, seed, 1 << 22).unwrap();
            let sa = s.sketch(&a).unwrap();
            let sb = s.sketch(&b).unwrap();
            let est = s.estimate_inner_product(&sa, &sb).unwrap();
            total_err += (est - exact).abs();
        }
        let mean_err = total_err / f64::from(trials as u32) / scale;
        assert!(mean_err < 0.1, "mean scaled error {mean_err}");
    }

    #[test]
    fn error_decreases_with_samples() {
        let a =
            SparseVector::from_pairs((0..400u64).map(|i| (i, ((i % 11) as f64) - 5.0))).unwrap();
        let b =
            SparseVector::from_pairs((200..600u64).map(|i| (i, ((i % 13) as f64) - 6.0))).unwrap();
        let exact = inner_product(&a, &b);
        let mean_err = |m: usize| {
            let trials = 12;
            let mut total = 0.0;
            for seed in 0..trials {
                let s = WeightedMinHasher::new(m, seed, 1 << 22).unwrap();
                let sa = s.sketch(&a).unwrap();
                let sb = s.sketch(&b).unwrap();
                total += (s.estimate_inner_product(&sa, &sb).unwrap() - exact).abs();
            }
            total / f64::from(trials as u32)
        };
        let coarse = mean_err(64);
        let fine = mean_err(1024);
        assert!(fine < coarse, "fine {fine} should beat coarse {coarse}");
    }

    #[test]
    fn sparse_low_overlap_beats_the_linear_bound_scale() {
        // The headline claim: for sparse vectors with small support overlap the WMH
        // error is far below ε·‖a‖‖b‖ at moderate sketch sizes.
        let a = SparseVector::from_pairs((0..2000u64).map(|i| (i, 1.0))).unwrap();
        let b = SparseVector::from_pairs((1980..3980u64).map(|i| (i, 1.0))).unwrap();
        let exact = inner_product(&a, &b); // = 20
        let scale = a.norm() * b.norm(); // = 2000
        let s = WeightedMinHasher::new(256, 123, 1 << 22).unwrap();
        let sa = s.sketch(&a).unwrap();
        let sb = s.sketch(&b).unwrap();
        let est = s.estimate_inner_product(&sa, &sb).unwrap();
        // ε at m=256 is roughly 1/16, so the linear-sketch bound allows error ~125;
        // WMH should be well inside 0.02·scale for this 1% overlap pair.
        assert!(
            (est - exact).abs() < 0.02 * scale,
            "estimate {est}, exact {exact}"
        );
    }

    #[test]
    fn storage_includes_the_stored_norm() {
        let v = SparseVector::from_pairs([(0, 1.0), (1, 2.0)]).unwrap();
        let s = WeightedMinHasher::new(100, 1, 1 << 12).unwrap();
        let sk = s.sketch(&v).unwrap();
        assert!((sk.storage_doubles() - 151.0).abs() < 1e-12);
    }

    #[test]
    fn estimator_checks_sketcher_configuration() {
        let v = SparseVector::from_pairs([(0, 1.0), (1, 2.0)]).unwrap();
        let s1 = WeightedMinHasher::new(16, 1, 1 << 12).unwrap();
        let s2 = WeightedMinHasher::new(16, 2, 1 << 12).unwrap();
        let sk1 = s1.sketch(&v).unwrap();
        let sk2 = s2.sketch(&v).unwrap();
        assert!(s1.estimate_inner_product(&sk1, &sk2).is_err());
        assert!(s2.estimate_inner_product(&sk1, &sk1).is_err());
        assert!(s1.estimate_inner_product(&sk1, &sk1).is_ok());
    }

    #[test]
    fn partitioned_sketching_matches_one_shot_estimates() {
        // Two-pass protocol: announce the full norm, sketch disjoint chunks
        // independently, min-merge.  The merged sketch agrees with one-shot sketching
        // up to the Algorithm-4 mass absorption at the global max entry, so estimates
        // agree tightly.
        let a = SparseVector::from_pairs((0..300u64).map(|i| (i, 1.0 + (i % 7) as f64))).unwrap();
        let b = SparseVector::from_pairs((150..450u64).map(|i| (i, 0.5 + (i % 5) as f64))).unwrap();
        let s = WeightedMinHasher::new(256, 21, 1 << 22).unwrap();
        let merge_of_chunks = |v: &SparseVector| {
            let norm = v.norm();
            let pairs: Vec<(u64, f64)> = v.iter().collect();
            let mut merged = s.empty_sketch();
            for chunk in pairs.chunks(100) {
                let part = SparseVector::from_pairs(chunk.iter().copied()).unwrap();
                let partial = s.sketch_partition(&part, norm).unwrap();
                merged = s.merge(&merged, &partial).unwrap();
            }
            merged
        };
        let ma = merge_of_chunks(&a);
        let mb = merge_of_chunks(&b);
        let one_a = s.sketch(&a).unwrap();
        let one_b = s.sketch(&b).unwrap();
        assert_eq!(ma.norm(), one_a.norm());
        let est_merged = s.estimate_inner_product(&ma, &mb).unwrap();
        let est_one = s.estimate_inner_product(&one_a, &one_b).unwrap();
        let scale = a.norm() * b.norm();
        assert!(
            (est_merged - est_one).abs() < 0.05 * scale,
            "merged {est_merged} vs one-shot {est_one} (scale {scale})"
        );
        // Estimating a merged sketch against a one-shot sketch also works: both carry
        // the same configuration and norm.
        assert!(s.estimate_inner_product(&ma, &one_b).is_ok());
    }

    #[test]
    fn update_stream_equals_partition_sketching() {
        let v = SparseVector::from_pairs((0..60u64).map(|i| (i * 3, (i as f64) - 25.0))).unwrap();
        let s = WeightedMinHasher::new(64, 5, 1 << 20).unwrap();
        let norm = v.norm();
        let mut streamed = s.empty_sketch_with_norm(norm).unwrap();
        for (index, value) in v.iter() {
            s.update(&mut streamed, index, value).unwrap();
        }
        let partitioned = s.sketch_partition(&v, norm).unwrap();
        assert_eq!(streamed, partitioned);
    }

    #[test]
    fn partition_with_own_norm_tracks_one_shot_sketch() {
        // With the vector's own norm announced, the partition path differs from
        // one-shot sketching only at the max-magnitude entry (mass absorption).
        let v = SparseVector::from_pairs((0..40u64).map(|i| (i, 1.0 + (i % 6) as f64))).unwrap();
        let s = WeightedMinHasher::new(128, 9, 1 << 22).unwrap();
        let partial = s.sketch_partition(&v, v.norm()).unwrap();
        let one_shot = s.sketch(&v).unwrap();
        let differing = partial
            .hashes()
            .iter()
            .zip(one_shot.hashes())
            .filter(|(x, y)| x != y)
            .count();
        assert!(
            differing <= 12,
            "{differing}/128 samples differ — far more than mass absorption explains"
        );
    }

    #[test]
    fn merge_rejects_mismatched_norms_and_configurations() {
        let v = SparseVector::from_pairs([(0, 1.0), (1, 2.0)]).unwrap();
        let s = WeightedMinHasher::new(16, 1, 1 << 12).unwrap();
        let a = s.sketch_partition(&v, 10.0).unwrap();
        let b = s.sketch_partition(&v, 20.0).unwrap();
        assert!(matches!(
            s.merge(&a, &b),
            Err(SketchError::IncompatibleSketches { .. })
        ));
        let other = WeightedMinHasher::new(16, 2, 1 << 12).unwrap();
        assert!(other.merge(&a, &a).is_err());
        // The no-norm empty sketch is the merge identity from either side.
        assert_eq!(s.merge(&s.empty_sketch(), &a).unwrap(), a);
        assert_eq!(s.merge(&a, &s.empty_sketch()).unwrap(), a);
    }

    #[test]
    fn never_updated_partials_refuse_to_estimate() {
        // An all-infinity partial (never updated, or every entry rounded below a far
        // too small 1/L grid) is not the sketch of any vector: estimating from it must
        // error clearly rather than silently return 0.
        let s = WeightedMinHasher::new(8, 1, 1 << 12).unwrap();
        let v = SparseVector::from_pairs([(0, 1.0), (1, 2.0)]).unwrap();
        let sk = s.sketch(&v).unwrap();
        let empty = s.empty_sketch_with_norm(5.0).unwrap();
        assert!(matches!(
            s.estimate_inner_product(&empty, &sk),
            Err(SketchError::EmptySketch)
        ));
        assert!(matches!(
            s.estimate_inner_product(&sk, &empty),
            Err(SketchError::EmptySketch)
        ));
    }

    #[test]
    fn update_requires_an_announced_norm() {
        let s = WeightedMinHasher::new(8, 1, 1 << 12).unwrap();
        let mut no_norm = s.empty_sketch();
        assert!(matches!(
            s.update(&mut no_norm, 0, 1.0),
            Err(SketchError::InvalidParameter { name: "norm", .. })
        ));
        assert!(s.empty_sketch_with_norm(0.0).is_err());
        assert!(s.empty_sketch_with_norm(f64::NAN).is_err());
        let mut ok = s.empty_sketch_with_norm(5.0).unwrap();
        assert!(s.update(&mut ok, 3, 4.0).is_ok());
    }

    #[test]
    fn sketch_partition_validates_reference_norm() {
        let v = SparseVector::from_pairs([(0, 3.0), (1, 4.0)]).unwrap(); // norm 5
        let s = WeightedMinHasher::new(8, 1, 1 << 12).unwrap();
        assert!(s.sketch_partition(&v, 1.0).is_err()); // smaller than the chunk norm
        assert!(s.sketch_partition(&v, 5.0).is_ok());
        assert!(s.sketch_partition(&v, 50.0).is_ok()); // part of a much larger vector
    }

    #[test]
    fn single_entry_vectors() {
        let a = SparseVector::from_pairs([(42, 3.0)]).unwrap();
        let b = SparseVector::from_pairs([(42, -2.0)]).unwrap();
        let s = WeightedMinHasher::new(512, 9, 1 << 16).unwrap();
        let sa = s.sketch(&a).unwrap();
        let sb = s.sketch(&b).unwrap();
        // Identical single-block expansion ⇒ every sample collides; the estimate is
        // exactly ‖a‖‖b‖·(-1)·M̃ with M̃ ≈ 1 ± O(1/√m).
        let est = s.estimate_inner_product(&sa, &sb).unwrap();
        assert!((est + 6.0).abs() < 1.0, "estimate {est}, exact -6");
        // Disjoint single entries never collide.
        let c = SparseVector::from_pairs([(43, 5.0)]).unwrap();
        let sc = s.sketch(&c).unwrap();
        assert_eq!(s.estimate_inner_product(&sa, &sc).unwrap(), 0.0);
    }
}
