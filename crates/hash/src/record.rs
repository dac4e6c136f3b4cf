//! Deterministic record streams for the "active index" Weighted MinHash sketcher.
//!
//! # Background
//!
//! Algorithm 3 of the paper conceptually hashes every position of an *expanded* vector
//! `ā` of length `n·L`, where block `j` contains `ã[j]²·L` non-zero positions.  Doing
//! this literally costs `O(L)` hash evaluations per block.  The active-index technique
//! (Gollapudi & Panigrahy; exposition in Manasse et al.) instead generates only the
//! *records* of the implicit hash stream — the successive minima — because the minimum
//! over any block prefix is determined entirely by the last record inside that prefix.
//!
//! # Consistency
//!
//! The estimator (Algorithm 5) compares hash values across sketches computed
//! *independently* for different vectors.  For those comparisons to be meaningful, the
//! implicit hash value of expanded position `t` of block `j` under sample `i` must be a
//! deterministic function of `(seed, i, j, t)`, identical for every vector.  A
//! [`RecordStream`] achieves this by seeding its generator with exactly `(seed, i, j)`:
//! two vectors that both contain block `j` replay the *same* record sequence and merely
//! stop at their own prefix lengths.  The minimum over a prefix of length `k` is then
//! the value of the last record with `position < k` — bit-identical across vectors
//! whenever the expanded-vector model says the minima coincide.
//!
//! # Distribution
//!
//! For i.i.d. `Uniform[0,1)` values, the record process is: the first record sits at
//! position 0 with a `Uniform[0,1)` value; given a record with value `z` at position
//! `p`, the next record sits at `p + Geometric(z)` and its value is `Uniform[0, z)`.
//! [`RecordStream`] samples this process directly, so the minimum over a prefix of
//! length `k` has exactly the distribution of `min` of `k` i.i.d. uniforms, and the
//! joint distribution across nested prefixes matches the idealized model as well.
//!
//! # Replays
//!
//! [`RecordStream::prefix_min`] and [`RecordStream::prefix_min_v2`] define the two
//! stream formats.  Sketching reads prefix minima through bit-identical replays
//! instead: [`prefix_min_replay`] for v1, and for v2 [`prefix_min_replay_v2_sweep`],
//! the only packed entry point, which replays a block across all samples at once.
//! [`prefix_min_replay_v2_scalar`] is the portable v2 replay the sweep falls back to
//! and is tested against.

use crate::geometric::{geometric_skip, geometric_skip_v2};
use crate::log2::fast_log2;
use crate::mix::{mix2, mix2_key, mix3, splitmix64};
use crate::rng::Xoshiro256PlusPlus;

/// A single record (running minimum) of the implicit hash stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Zero-based position within the block at which this minimum occurs.
    pub position: u64,
    /// The hash value at that position; strictly decreasing from record to record.
    pub value: f64,
}

/// The deterministic stream of successive minima of an implicit sequence of uniform
/// hash values, identified by `(seed, sample, block)`.
#[derive(Debug, Clone)]
pub struct RecordStream {
    rng: Xoshiro256PlusPlus,
    /// The most recently emitted record, if any.
    current: Option<Record>,
    /// Position of the next candidate record (position of current + sampled skip).
    next_position: Option<u64>,
}

impl RecordStream {
    /// Creates the record stream for hash sample `sample` and expanded block `block`
    /// under master seed `seed`.
    #[must_use]
    pub fn new(seed: u64, sample: u64, block: u64) -> Self {
        let stream_seed = mix3(seed ^ 0x5EC0_4D57_4EA3, sample, block);
        Self {
            rng: Xoshiro256PlusPlus::new(stream_seed),
            current: None,
            next_position: Some(0),
        }
    }

    /// The precomputed `(seed, sample)` half of the stream seed mix; see
    /// [`from_states`](Self::from_states).
    #[inline]
    #[must_use]
    pub fn sample_state(seed: u64, sample: u64) -> u64 {
        mix2(seed ^ 0x5EC0_4D57_4EA3, sample)
    }

    /// The precomputed per-block half of the stream seed mix; see
    /// [`from_states`](Self::from_states).
    #[inline]
    #[must_use]
    pub fn block_state(block: u64) -> u64 {
        mix2_key(block)
    }

    /// Builds the stream from hoisted mix halves: bit-identical to
    /// [`new`](Self::new)`(seed, sample, block)` when `sample_state ==
    /// sample_state(seed, sample)` and `block_state == block_state(block)`.
    ///
    /// The Weighted MinHash kernel sweeps one block across many samples (and many
    /// blocks across one sketch), so both halves of the seed mix are reused heavily;
    /// this constructor leaves only one `splitmix64` on the per-stream path.
    #[inline]
    #[must_use]
    pub fn from_states(sample_state: u64, block_state: u64) -> Self {
        Self {
            rng: Xoshiro256PlusPlus::new(splitmix64(sample_state ^ block_state)),
            current: None,
            next_position: Some(0),
        }
    }

    /// Returns the next record, advancing the stream.
    ///
    /// Positions are strictly increasing and values strictly decreasing.  Returns
    /// `None` once the next record position would exceed `u64::MAX` (practically
    /// unreachable) or the value has underflowed to zero.
    pub fn next_record(&mut self) -> Option<Record> {
        let position = self.next_position?;
        let value = match self.current {
            // First record: a fresh Uniform[0,1) value at position 0.
            None => self.rng.next_unit_f64(),
            // Subsequent records: uniform below the previous minimum.
            Some(prev) => prev.value * self.rng.next_unit_f64(),
        };
        if value <= 0.0 {
            // The value has underflowed; no meaningful further records exist.
            self.next_position = None;
            return None;
        }
        let record = Record { position, value };
        self.current = Some(record);
        let skip = geometric_skip(value, self.rng.next_open_unit_f64());
        self.next_position = position.checked_add(skip);
        Some(record)
    }

    /// The v2 analogue of [`next_record`](Self::next_record): identical draw order and
    /// underflow handling, but the geometric skip is sampled with
    /// [`geometric_skip_v2`] (deterministic `fast_log2` instead of libm `ln`).
    ///
    /// A stream must be driven by one family only — mixing v1 and v2 calls on the same
    /// stream samples neither definition.
    pub fn next_record_v2(&mut self) -> Option<Record> {
        let position = self.next_position?;
        let value = match self.current {
            None => self.rng.next_unit_f64(),
            Some(prev) => prev.value * self.rng.next_unit_f64(),
        };
        if value <= 0.0 {
            self.next_position = None;
            return None;
        }
        let record = Record { position, value };
        self.current = Some(record);
        let skip = geometric_skip_v2(value, self.rng.next_open_unit_f64());
        self.next_position = position.checked_add(skip);
        Some(record)
    }

    /// Returns the minimum hash value over the prefix of the first `len` positions,
    /// together with the position where it occurs.
    ///
    /// Returns `None` when `len == 0` (an empty prefix has no minimum).  The stream is
    /// advanced; calling this repeatedly with increasing `len` values is supported and
    /// efficient, but calling it with a *smaller* `len` than a previous call would give
    /// stale results, so prefer one call per stream.
    pub fn prefix_min(&mut self, len: u64) -> Option<Record> {
        if len == 0 {
            return None;
        }
        // Emit records until the next record would land at or beyond `len`.
        loop {
            match self.next_position {
                Some(p) if p < len => {
                    if self.next_record().is_none() {
                        break;
                    }
                }
                _ => break,
            }
        }
        self.current.filter(|r| r.position < len)
    }

    /// The v2 analogue of [`prefix_min`](Self::prefix_min), driving the stream with
    /// [`next_record_v2`](Self::next_record_v2).  This is the scalar *reference* for
    /// the v2 stream; [`prefix_min_replay_v2_scalar`] and the packed
    /// [`prefix_min_replay_v2_sweep`] are its bit-identical fast twins.
    pub fn prefix_min_v2(&mut self, len: u64) -> Option<Record> {
        if len == 0 {
            return None;
        }
        loop {
            match self.next_position {
                Some(p) if p < len => {
                    if self.next_record_v2().is_none() {
                        break;
                    }
                }
                _ => break,
            }
        }
        self.current.filter(|r| r.position < len)
    }
}

/// Convenience wrapper: the minimum hash value over the first `len` positions of the
/// implicit stream identified by `(seed, sample, block)`.
///
/// Returns `None` if `len == 0`.
#[must_use]
pub fn prefix_min(seed: u64, sample: u64, block: u64, len: u64) -> Option<Record> {
    RecordStream::new(seed, sample, block).prefix_min(len)
}

/// The prefix minimum via a tight, fully inlined replay of the record stream:
/// bit-identical to `RecordStream::from_states(sample_state, block_state)
/// .prefix_min(len)`, cheaper per record.
///
/// This is the inner kernel of the vectorized Weighted MinHash sketcher.  Two things
/// make it faster than the general-purpose [`RecordStream`] iterator, neither of which
/// changes a single output bit:
///
/// * **No per-record bookkeeping.**  The replay keeps the raw `(position, value)` pair
///   in registers instead of threading `Option<Record>` state through method calls.
/// * **The most probable skip is resolved without logarithms.**  The geometric skip is
///   `ceil(ln u / ln(1−p))`, which equals 1 *exactly* when `u ≥ 1 − p` (dividing the
///   log inequality by the negative `ln(1−p)` flips it; the comparison is against the
///   same rounded `1 − p` the logarithm would see, and a computed quotient ≤ 1 can
///   never round above 1, so `ceil` yields 1 on both paths — `geometric.rs` locks this
///   boundary with an ulp-adjacent test).  That branch fires with probability equal to
///   the current minimum, which is exactly the hot early-record regime, and saves both
///   `ln` calls and the divide.
///
/// Everything else — the deterministic draw order, underflow handling, and position
/// saturation — replicates [`RecordStream::next_record`] step for step.
#[must_use]
pub fn prefix_min_replay(sample_state: u64, block_state: u64, len: u64) -> Option<Record> {
    if len == 0 {
        return None;
    }
    let mut rng = Xoshiro256PlusPlus::new(splitmix64(sample_state ^ block_state));
    // First record: a fresh Uniform[0,1) value at position 0 (zero draws underflow
    // immediately, exactly as `next_record` reports no record).
    let mut value = rng.next_unit_f64();
    if value <= 0.0 {
        return None;
    }
    let mut position = 0u64;
    loop {
        let u = rng.next_open_unit_f64();
        let skip = if u >= 1.0 - value {
            1
        } else {
            geometric_skip(value, u)
        };
        let Some(next) = position.checked_add(skip) else {
            break;
        };
        if next >= len {
            break;
        }
        let next_value = value * rng.next_unit_f64();
        if next_value <= 0.0 {
            break;
        }
        position = next;
        value = next_value;
    }
    Some(Record { position, value })
}

/// Convenience wrapper: the v2-stream prefix minimum for `(seed, sample, block)`.
///
/// Returns `None` if `len == 0`.
#[must_use]
pub fn prefix_min_v2(seed: u64, sample: u64, block: u64, len: u64) -> Option<Record> {
    RecordStream::new(seed, sample, block).prefix_min_v2(len)
}

/// Replays the v2 prefix minimum of *every* stream in `sample_states` over one shared
/// block prefix, calling `emit(sample_index, record)` exactly once per stream —
/// bit-identical to calling [`prefix_min_replay_v2_scalar`] once per stream, in some
/// order.
///
/// This is the Weighted MinHash sweep's kernel and the crate's only packed replay.  On
/// x86-64 CPUs with AVX2 it replays three streams in lockstep, two *speculated*
/// records each (see the [`avx2`] module docs for why speculation preserves
/// bit-parity): three streams × two iterations is six logarithm pairs — exactly three
/// [`fast_log2_x4`](crate::log2::fast_log2_x4) evaluations with no lane idle — and
/// three interleaved generators overlap their serial state-update chains, the latency
/// floor a single stream cannot hide.  It is the widest shape whose working set still
/// fits the register file; four-stream lockstep spills and measures slower.  Streams
/// terminate after a geometrically-distributed number of records, so a fixed batch
/// would run until its *slowest* member finishes while the others burn slots drawing
/// discarded values (around a fifth of all lane work at realistic prefix lengths);
/// the sweep instead reloads each finished lane with the next pending stream, so the
/// only discarded work is the partial iteration around each reload and the tail once
/// fewer than three streams remain.  Everywhere else it runs the scalar replay once
/// per stream.
///
/// Emission order follows lane completion, not sample order; callers reducing into
/// per-sample slots (as the WMH min-reduction does) are order-insensitive.  Each
/// record is the same `Option` the per-stream replay returns (`None` only for
/// `len == 0` or a zero first draw).
#[allow(unsafe_code)]
pub fn prefix_min_replay_v2_sweep(
    sample_states: &[u64],
    block_state: u64,
    len: u64,
    emit: &mut dyn FnMut(usize, Option<Record>),
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence was just checked.
        unsafe { avx2::prefix_min_replay_v2_sweep(sample_states, block_state, len, emit) };
        return;
    }
    for (sample, state) in sample_states.iter().enumerate() {
        emit(
            sample,
            prefix_min_replay_v2_scalar(*state, block_state, len),
        );
    }
}

/// The portable scalar v2 replay — the reference the packed sweep is tested against.
///
/// Unlike the v1 pair — where [`prefix_min_replay`] adds a shortcut that a theorem
/// (locked in by a `geometric.rs` test) proves consistent with the slow path — the v2
/// replay samples the *same definition* as [`geometric_skip_v2`], shortcut included,
/// so bit-parity is structural.  The skip arithmetic is spelled out in the loop rather
/// than called: the replay's `value` is in `(0, 1)` and `u` in `(0, 1]` by
/// construction, so the definition's domain asserts are vacuous here and eliding them
/// (together with the call) keeps the per-draw path branch-free up to the two
/// [`fast_log2`] evaluations that define the stream.  Every arithmetic step —
/// `1 − p` rounding, the `log₂` quotient, `ceil`, and the saturation ladder — is the
/// definition's, in the definition's order.  The remaining wins are the same as v1's:
/// no per-record `Option` bookkeeping, state kept in registers.
#[must_use]
pub fn prefix_min_replay_v2_scalar(
    sample_state: u64,
    block_state: u64,
    len: u64,
) -> Option<Record> {
    if len == 0 {
        return None;
    }
    let mut rng = Xoshiro256PlusPlus::new(splitmix64(sample_state ^ block_state));
    let mut value = rng.next_unit_f64();
    if value <= 0.0 {
        return None;
    }
    let mut position = 0u64;
    loop {
        let u = rng.next_open_unit_f64();
        // geometric_skip_v2(value, u), domain asserts elided (vacuously true here).
        let fail = 1.0 - value;
        let skip = if u >= fail {
            1
        } else {
            let denom = fast_log2(fail);
            if denom == 0.0 {
                u64::MAX
            } else {
                let quotient = (fast_log2(u) / denom).ceil();
                if !quotient.is_finite() || quotient >= u64::MAX as f64 {
                    u64::MAX
                } else if quotient < 1.0 {
                    1
                } else {
                    quotient as u64
                }
            }
        };
        let Some(next) = position.checked_add(skip) else {
            break;
        };
        if next >= len {
            break;
        }
        let next_value = value * rng.next_unit_f64();
        if next_value <= 0.0 {
            break;
        }
        position = next;
        value = next_value;
    }
    Some(Record { position, value })
}

/// The AVX2 sweep replay of the v2 record stream, bit-identical to the scalar
/// reference.
///
/// # Why speculation is sound
///
/// The replay's draw order is positionally fixed: iteration `k` always consumes one
/// open-unit draw `u_k` (the skip) and then one unit draw `d_k` (the next value),
/// regardless of what any skip computes to — the loop only decides *whether the
/// results are used*, never *whether the draws happen* (a terminating iteration's
/// value draw is made and discarded on every exit path of the scalar loop too, except
/// the final break-on-skip, where the generator is simply never read again).  So a
/// kernel may pull the next two iterations' draws `u₁ d₁ u₂ d₂` up front, compute
/// both skips speculatively, and resolve the loop-exit conditions afterwards in
/// order: discarded draws never influenced any output bit, and used draws are the
/// same numbers the scalar loop would have drawn.
///
/// # Why the packed arithmetic is exact
///
/// Every step of the skip definition maps to an instruction IEEE 754 requires to
/// round identically to its scalar form: the two `fast_log2` evaluations become
/// lanes of [`fast_log2_x4`](crate::log2::fast_log2_x4), the quotient a packed
/// divide, and `f64::ceil` a `roundpd` toward +∞.  The saturation ladder collapses
/// to a saturating float-to-int cast (Rust's `as` already clamps both ends) plus two
/// selects: quotients below 1 clamp up to 1, and a *negative* quotient — which on a
/// non-shortcut lane can only be the `−∞` of the definition's `denom == 0` escape
/// hatch (`log u < 0` divided by a zero log) — saturates to `u64::MAX` exactly as
/// the ladder's non-finite arm does.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod avx2 {
    use super::Record;
    use crate::log2::fast_log2_x4;
    use crate::mix::splitmix64;
    use crate::rng::Xoshiro256PlusPlus;
    use core::arch::x86_64::*;

    /// The geometric-skip saturation ladder for an already-`ceil`ed quotient, with the
    /// `−∞ → u64::MAX` arm folded in (see the module docs).
    #[inline(always)]
    fn saturate(q: f64) -> u64 {
        if q < 0.0 {
            u64::MAX
        } else {
            (q as u64).max(1)
        }
    }

    /// `ceil(a/b)` for both lane pairs of `[a₁, b₁, a₂, b₂]`, returned as
    /// `[q₁, q₂]`: the two skip quotients of one speculated iteration pair.
    #[inline(always)]
    unsafe fn quotient_pair(logs: __m256d) -> (f64, f64) {
        let lo = _mm256_castpd256_pd128(logs);
        let hi = _mm256_extractf128_pd(logs, 1);
        let num = _mm_unpacklo_pd(lo, hi);
        let den = _mm_unpackhi_pd(lo, hi);
        let q = _mm_round_pd(
            _mm_div_pd(num, den),
            _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC,
        );
        (_mm_cvtsd_f64(q), _mm_cvtsd_f64(_mm_unpackhi_pd(q, q)))
    }

    /// One stream of the sweep replay: generator, running record, and whether the
    /// stream has terminated (its lanes then carry stale-but-in-domain values whose
    /// results are never committed).
    struct Lane {
        rng: Xoshiro256PlusPlus,
        value: f64,
        position: u64,
        done: bool,
        empty: bool,
    }

    impl Lane {
        #[inline(always)]
        fn new(sample_state: u64, block_state: u64) -> Self {
            let mut rng = Xoshiro256PlusPlus::new(splitmix64(sample_state ^ block_state));
            let value = rng.next_unit_f64();
            let empty = value <= 0.0;
            Self {
                rng,
                value,
                position: 0,
                done: empty,
                empty,
            }
        }

        /// Applies one resolved iteration: the scalar loop's exit conditions, in order.
        #[inline(always)]
        fn commit(&mut self, shortcut: bool, quotient: f64, value_draw: f64, len: u64) {
            if self.done {
                return;
            }
            let skip = if shortcut { 1 } else { saturate(quotient) };
            match self.position.checked_add(skip) {
                Some(next) if next < len => {
                    let next_value = self.value * value_draw;
                    if next_value <= 0.0 {
                        self.done = true;
                    } else {
                        self.position = next;
                        self.value = next_value;
                    }
                }
                _ => self.done = true,
            }
        }

        #[inline(always)]
        fn record(&self) -> Option<Record> {
            (!self.empty).then_some(Record {
                position: self.position,
                value: self.value,
            })
        }
    }

    /// One slot of the sweep replay: the running lane, which stream it is replaying,
    /// and whether the slot has drained the queue (its lane then idles done).
    struct Slot {
        lane: Lane,
        sample: usize,
        exhausted: bool,
    }

    impl Slot {
        /// Loads stream `next` into a fresh slot, or parks the slot if the queue is
        /// drained (the parked lane is `done`, so its slots never commit).
        #[inline(always)]
        fn load(next: &mut usize, states: &[u64], block_state: u64) -> Self {
            if *next < states.len() {
                let sample = *next;
                *next += 1;
                Self {
                    lane: Lane::new(states[sample], block_state),
                    sample,
                    exhausted: false,
                }
            } else {
                let mut lane = Lane::new(0, block_state);
                lane.done = true;
                Self {
                    lane,
                    sample: 0,
                    exhausted: true,
                }
            }
        }

        /// Emits every finished stream in this slot and reloads until the lane is
        /// live again or the queue drains.  (A freshly loaded lane can itself be
        /// finished — an empty stream — hence the loop.)
        #[inline(always)]
        fn turn_over(
            &mut self,
            next: &mut usize,
            states: &[u64],
            block_state: u64,
            emit: &mut dyn FnMut(usize, Option<Record>),
        ) {
            while !self.exhausted && self.lane.done {
                emit(self.sample, self.lane.record());
                *self = Self::load(next, states, block_state);
            }
        }
    }

    /// The packed sweep replay: three lanes in lockstep, two speculated iterations
    /// each, with finished lanes reloaded from the pending-stream queue instead of
    /// idling until the slowest lane terminates (see the safe dispatcher's docs for
    /// why this is the shape worth keeping saturated).
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn prefix_min_replay_v2_sweep(
        sample_states: &[u64],
        block_state: u64,
        len: u64,
        emit: &mut dyn FnMut(usize, Option<Record>),
    ) {
        if len == 0 {
            for sample in 0..sample_states.len() {
                emit(sample, None);
            }
            return;
        }
        let mut next = 0usize;
        let mut a = Slot::load(&mut next, sample_states, block_state);
        let mut b = Slot::load(&mut next, sample_states, block_state);
        let mut c = Slot::load(&mut next, sample_states, block_state);
        loop {
            a.turn_over(&mut next, sample_states, block_state, emit);
            b.turn_over(&mut next, sample_states, block_state, emit);
            c.turn_over(&mut next, sample_states, block_state, emit);
            if a.exhausted && b.exhausted && c.exhausted {
                return;
            }
            let ua1 = a.lane.rng.next_open_unit_f64();
            let da1 = a.lane.rng.next_unit_f64();
            let ub1 = b.lane.rng.next_open_unit_f64();
            let db1 = b.lane.rng.next_unit_f64();
            let uc1 = c.lane.rng.next_open_unit_f64();
            let dc1 = c.lane.rng.next_unit_f64();
            let ua2 = a.lane.rng.next_open_unit_f64();
            let da2 = a.lane.rng.next_unit_f64();
            let ub2 = b.lane.rng.next_open_unit_f64();
            let db2 = b.lane.rng.next_unit_f64();
            let uc2 = c.lane.rng.next_open_unit_f64();
            let dc2 = c.lane.rng.next_unit_f64();
            let va2 = a.lane.value * da1;
            let vb2 = b.lane.value * db1;
            let vc2 = c.lane.value * dc1;
            let fa1 = 1.0 - a.lane.value;
            let fb1 = 1.0 - b.lane.value;
            let fc1 = 1.0 - c.lane.value;
            let fa2 = 1.0 - va2;
            let fb2 = 1.0 - vb2;
            let fc2 = 1.0 - vc2;
            let (qa1, qb1) = quotient_pair(fast_log2_x4(_mm256_set_pd(fb1, ub1, fa1, ua1)));
            let (qc1, qa2) = quotient_pair(fast_log2_x4(_mm256_set_pd(fa2, ua2, fc1, uc1)));
            let (qb2, qc2) = quotient_pair(fast_log2_x4(_mm256_set_pd(fc2, uc2, fb2, ub2)));
            a.lane.commit(ua1 >= fa1, qa1, da1, len);
            a.lane.commit(ua2 >= fa2, qa2, da2, len);
            b.lane.commit(ub1 >= fb1, qb1, db1, len);
            b.lane.commit(ub2 >= fb2, qb2, db2, len);
            c.lane.commit(uc1 >= fc1, qc1, dc1, len);
            c.lane.commit(uc2 >= fc2, qc2, dc2, len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_have_increasing_positions_and_decreasing_values() {
        let mut stream = RecordStream::new(1, 2, 3);
        let mut prev: Option<Record> = None;
        for _ in 0..50 {
            let Some(r) = stream.next_record() else { break };
            if let Some(p) = prev {
                assert!(r.position > p.position);
                assert!(r.value < p.value);
            } else {
                assert_eq!(r.position, 0);
            }
            assert!(r.value > 0.0 && r.value < 1.0);
            prev = Some(r);
        }
        assert!(prev.is_some());
    }

    #[test]
    fn stream_is_deterministic() {
        let collect = || {
            let mut s = RecordStream::new(7, 11, 13);
            (0..20).map_while(|_| s.next_record()).collect::<Vec<_>>()
        };
        let a = collect();
        let b = collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.position, y.position);
            assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
    }

    #[test]
    fn distinct_streams_differ() {
        let first = |seed, sample, block| {
            RecordStream::new(seed, sample, block)
                .next_record()
                .unwrap()
                .value
        };
        let base = first(1, 2, 3);
        assert_ne!(base.to_bits(), first(2, 2, 3).to_bits());
        assert_ne!(base.to_bits(), first(1, 3, 3).to_bits());
        assert_ne!(base.to_bits(), first(1, 2, 4).to_bits());
    }

    #[test]
    fn prefix_min_zero_len_is_none() {
        assert!(prefix_min(1, 0, 0, 0).is_none());
    }

    #[test]
    fn from_states_matches_new_bit_for_bit() {
        for seed in [0u64, 9, 0xABCD] {
            for sample in [0u64, 3, 71] {
                let state = RecordStream::sample_state(seed, sample);
                for block in [0u64, 1, 999_999] {
                    let mut direct = RecordStream::new(seed, sample, block);
                    let mut hoisted =
                        RecordStream::from_states(state, RecordStream::block_state(block));
                    for _ in 0..10 {
                        match (direct.next_record(), hoisted.next_record()) {
                            (Some(a), Some(b)) => {
                                assert_eq!(a.position, b.position);
                                assert_eq!(a.value.to_bits(), b.value.to_bits());
                            }
                            (None, None) => break,
                            other => panic!("streams diverged: {other:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_min_replay_matches_record_stream_bit_for_bit() {
        for seed in [0u64, 11, 0xFEED_F00D] {
            for sample in 0..40u64 {
                let sample_state = RecordStream::sample_state(seed, sample);
                for block in [0u64, 5, 9_999] {
                    let block_state = RecordStream::block_state(block);
                    for len in [1u64, 2, 7, 100, 100_000, 1 << 40] {
                        let fast = prefix_min_replay(sample_state, block_state, len);
                        let slow = prefix_min(seed, sample, block, len);
                        match (fast, slow) {
                            (Some(a), Some(b)) => {
                                assert_eq!(a.position, b.position, "s{sample} b{block} l{len}");
                                assert_eq!(a.value.to_bits(), b.value.to_bits());
                            }
                            (None, None) => {}
                            other => panic!("diverged at s{sample} b{block} l{len}: {other:?}"),
                        }
                    }
                }
            }
        }
        assert!(prefix_min_replay(1, 2, 0).is_none());
    }

    #[test]
    fn prefix_min_replay_v2_matches_record_stream_bit_for_bit() {
        // Both v2 replays — the portable scalar one and the packed sweep (AVX2 when the
        // CPU has it) — must reproduce the `RecordStream` definition exactly.
        for seed in [0u64, 11, 0xFEED_F00D] {
            let sample_states: Vec<u64> = (0..40u64)
                .map(|sample| RecordStream::sample_state(seed, sample))
                .collect();
            for block in [0u64, 5, 9_999] {
                let block_state = RecordStream::block_state(block);
                for len in [1u64, 2, 7, 100, 100_000, 1 << 40] {
                    let slow: Vec<_> = (0..40u64)
                        .map(|sample| prefix_min_v2(seed, sample, block, len))
                        .map(|r| r.map(|r| (r.position, r.value.to_bits())))
                        .collect();
                    let scalar: Vec<_> = sample_states
                        .iter()
                        .map(|state| prefix_min_replay_v2_scalar(*state, block_state, len))
                        .map(|r| r.map(|r| (r.position, r.value.to_bits())))
                        .collect();
                    assert_eq!(scalar, slow, "scalar replay, b{block} l{len}");
                    let mut swept = vec![None; sample_states.len()];
                    prefix_min_replay_v2_sweep(&sample_states, block_state, len, &mut |i, r| {
                        swept[i] = r.map(|r| (r.position, r.value.to_bits()));
                    });
                    assert_eq!(swept, slow, "sweep, b{block} l{len}");
                }
            }
        }
        assert!(prefix_min_replay_v2_scalar(1, 2, 0).is_none());
    }

    #[test]
    fn sweep_replay_emits_every_stream_bit_for_bit() {
        // The sweep reloads finished lanes with pending streams, so its emission order
        // is completion order — but every stream must be emitted exactly once, with
        // exactly the scalar replay's record.  Stream counts around the lane width
        // (0..=8) exercise empty slots, partial first loads, and queue draining while
        // other lanes are mid-stream; the lens span shortcut-dominated short prefixes
        // through underflow-driven long ones.  The `1 << 40` streams run all the way
        // to value underflow, which exercises the saturation ladder's non-finite arm
        // (`denom == 0` → `u64::MAX`) that the packed path folds into a sign test;
        // that arm is rare (the first stream to reach it here is sample 1 of block
        // 2277), so past the first 600 blocks three streams per block sweep on to
        // block 12 000.
        for len in [1u64, 2, 3, 7, 100, 5_000, 1 << 40] {
            for block in 0..12_000u64 {
                let block_state = RecordStream::block_state(block);
                for m in if block < 600 { 0..=8usize } else { 3..=3 } {
                    let states: Vec<u64> = (0..m as u64)
                        .map(|s| RecordStream::sample_state(9, s))
                        .collect();
                    let mut got: Vec<Option<(u64, u64)>> = vec![None; m];
                    let mut emitted = 0usize;
                    prefix_min_replay_v2_sweep(&states, block_state, len, &mut |sample, rec| {
                        let r = rec.expect("len >= 1");
                        assert!(got[sample].is_none(), "sample {sample} emitted twice");
                        got[sample] = Some((r.position, r.value.to_bits()));
                        emitted += 1;
                    });
                    assert_eq!(emitted, m, "len {len} block {block}");
                    for (sample, state) in states.iter().enumerate() {
                        let r = prefix_min_replay_v2_scalar(*state, block_state, len)
                            .expect("len >= 1");
                        assert_eq!(
                            got[sample],
                            Some((r.position, r.value.to_bits())),
                            "len {len} block {block} sample {sample}"
                        );
                    }
                }
            }
        }
        let mut calls = 0;
        prefix_min_replay_v2_sweep(&[1, 2], 3, 0, &mut |_, rec| {
            assert!(rec.is_none());
            calls += 1;
        });
        assert_eq!(calls, 2);
    }

    #[test]
    fn v2_stream_shares_values_with_v1_but_may_reposition() {
        // Both streams draw the same value sequence from the same generator; only the
        // skips (and hence positions / which records survive a prefix) can differ, and
        // then only at log-rounding boundaries.  In particular the first record is
        // always bit-identical.
        for block in 0..100u64 {
            let v1 = RecordStream::new(3, 1, block).next_record().unwrap();
            let v2 = RecordStream::new(3, 1, block).next_record_v2().unwrap();
            assert_eq!(v1.position, 0);
            assert_eq!(v2.position, 0);
            assert_eq!(v1.value.to_bits(), v2.value.to_bits());
        }
    }

    #[test]
    fn v2_prefix_min_distribution_matches_min_of_uniforms() {
        // The v2 stream must model the same idealized process: E[min of k uniforms]
        // = 1/(k+1).
        for &k in &[1u64, 4, 16, 64, 256] {
            let n = 4000u64;
            let mean: f64 = (0..n)
                .map(|b| prefix_min_v2(0xABC, 0, b, k).unwrap().value)
                .sum::<f64>()
                / n as f64;
            let expected = 1.0 / (k as f64 + 1.0);
            let tol = 4.0 * expected / (n as f64).sqrt() + 1e-4;
            assert!(
                (mean - expected).abs() < 4.0 * tol,
                "k={k}: mean {mean}, expected {expected}"
            );
        }
    }

    #[test]
    fn v2_nested_prefixes_share_records() {
        // The consistency property the estimator relies on holds for the v2 stream
        // definition as well.
        let mut shared = 0;
        for block in 0..200u64 {
            let short = prefix_min_v2(3, 1, block, 50).unwrap();
            let long = prefix_min_v2(3, 1, block, 80).unwrap();
            if long.position < 50 {
                assert_eq!(long.value.to_bits(), short.value.to_bits());
                assert_eq!(long.position, short.position);
                shared += 1;
            } else {
                assert!(long.value < short.value);
            }
        }
        assert!(
            shared > 80,
            "only {shared} of 200 blocks shared the minimum"
        );
    }

    #[test]
    fn v2_large_prefix_len_terminates_quickly() {
        let r = prefix_min_v2(4, 2, 9, 1u64 << 60).unwrap();
        assert!(r.value > 0.0);
        assert!(r.position < 1u64 << 60);
    }

    #[test]
    fn prefix_min_len_one_is_first_record() {
        let mut s1 = RecordStream::new(5, 6, 7);
        let first = s1.next_record().unwrap();
        let m = prefix_min(5, 6, 7, 1).unwrap();
        assert_eq!(m.position, 0);
        assert_eq!(m.value.to_bits(), first.value.to_bits());
    }

    #[test]
    fn prefix_min_is_monotone_in_len() {
        // A longer prefix can only have a smaller (or equal) minimum.
        for block in 0..20u64 {
            let short = prefix_min(9, 0, block, 10).unwrap();
            let long = prefix_min(9, 0, block, 1000).unwrap();
            assert!(long.value <= short.value);
            assert!(long.position < 1000 && short.position < 10);
        }
    }

    #[test]
    fn nested_prefixes_share_records() {
        // If the longer prefix's minimum falls inside the shorter prefix, the minima are
        // bit-identical — the consistency property the WMH estimator relies on.
        let mut shared = 0;
        for block in 0..200u64 {
            let short = prefix_min(3, 1, block, 50).unwrap();
            let long = prefix_min(3, 1, block, 80).unwrap();
            if long.position < 50 {
                assert_eq!(long.value.to_bits(), short.value.to_bits());
                assert_eq!(long.position, short.position);
                shared += 1;
            } else {
                assert!(long.value < short.value);
            }
        }
        // The minimum of 80 uniforms falls in the first 50 positions with prob. 5/8.
        assert!(
            shared > 80,
            "only {shared} of 200 blocks shared the minimum"
        );
    }

    #[test]
    fn prefix_min_distribution_matches_min_of_uniforms() {
        // E[min of k uniforms] = 1/(k+1).
        for &k in &[1u64, 4, 16, 64, 256] {
            let n = 4000u64;
            let mean: f64 = (0..n)
                .map(|b| prefix_min(0xABC, 0, b, k).unwrap().value)
                .sum::<f64>()
                / n as f64;
            let expected = 1.0 / (k as f64 + 1.0);
            let tol = 4.0 * expected / (n as f64).sqrt() + 1e-4;
            assert!(
                (mean - expected).abs() < 4.0 * tol,
                "k={k}: mean {mean}, expected {expected}"
            );
        }
    }

    #[test]
    fn prefix_min_positions_are_uniform() {
        // The argmin of k i.i.d. uniforms is uniform over the k positions; check the
        // mean position for k = 10 is around (k-1)/2.
        let k = 10u64;
        let n = 20_000u64;
        let mean_pos: f64 = (0..n)
            .map(|b| prefix_min(0xDEF, 0, b, k).unwrap().position as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean_pos - 4.5).abs() < 0.15,
            "mean argmin position {mean_pos}, expected 4.5"
        );
    }

    #[test]
    fn large_prefix_len_terminates_quickly() {
        // Even for a huge L the number of records is O(log L); this must return fast.
        let r = prefix_min(4, 2, 9, 1u64 << 60).unwrap();
        assert!(r.value > 0.0);
        assert!(r.position < 1u64 << 60);
    }
}
