//! Property-based tests for the hashing substrate.

use ipsketch_hash::family::{HashFamily, HashFamilyKind, UnitHashFamily};
use ipsketch_hash::geometric::geometric_skip;
use ipsketch_hash::mix::{mix2, splitmix64, u64_to_unit_f64};
use ipsketch_hash::prime::{mod_p31, mod_p61_u128, mul_mod_p61, P31, P61};
use ipsketch_hash::record::{
    prefix_min, prefix_min_replay_v2_scalar, prefix_min_replay_v2_sweep, Record, RecordStream,
};
use ipsketch_hash::rng::Xoshiro256PlusPlus;
use ipsketch_hash::sign::{BucketHasher, SignHasher};
use ipsketch_hash::unit::UnitHasher;
use ipsketch_hash::universal::{CarterWegman31, CarterWegman61, MultiplyShift, PolynomialHash};
use proptest::prelude::*;

proptest! {
    #[test]
    fn splitmix_deterministic(x in any::<u64>()) {
        prop_assert_eq!(splitmix64(x), splitmix64(x));
    }

    #[test]
    fn mix2_deterministic_and_unit_range(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(mix2(a, b), mix2(a, b));
        let v = u64_to_unit_f64(mix2(a, b));
        prop_assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn mod_p31_agrees_with_remainder(x in any::<u64>()) {
        prop_assert_eq!(mod_p31(x), x % P31);
    }

    #[test]
    fn mod_p61_agrees_with_remainder(x in any::<u128>()) {
        // Constrain to the documented domain (< 2^122).
        let x = x & ((1u128 << 122) - 1);
        prop_assert_eq!(u128::from(mod_p61_u128(x)), x % u128::from(P61));
    }

    #[test]
    fn mul_mod_p61_agrees_with_naive(a in 0..P61, b in 0..P61) {
        let expected = (u128::from(a) * u128::from(b)) % u128::from(P61);
        prop_assert_eq!(u128::from(mul_mod_p61(a, b)), expected);
    }

    #[test]
    fn cw31_unit_in_range(seed in any::<u64>(), key in any::<u64>()) {
        let h = CarterWegman31::from_seed(seed);
        let v = h.hash_unit(key);
        prop_assert!((0.0..1.0).contains(&v));
        prop_assert!(u64::from(h.hash(key)) < P31);
    }

    #[test]
    fn cw61_unit_in_range(seed in any::<u64>(), key in any::<u64>()) {
        let h = CarterWegman61::from_seed(seed);
        let v = h.hash_unit(key);
        prop_assert!((0.0..1.0).contains(&v));
        prop_assert!(h.hash(key) < P61);
    }

    #[test]
    fn polynomial_hash_in_range(seed in any::<u64>(), key in any::<u64>(), k in 1usize..6) {
        let h = PolynomialHash::from_seed(seed, k);
        prop_assert!(h.hash(key) < P61);
        prop_assert!((0.0..1.0).contains(&h.hash_unit(key)));
    }

    #[test]
    fn multiply_shift_respects_bits(seed in any::<u64>(), key in any::<u64>(), bits in 1u32..=63) {
        let h = MultiplyShift::from_seed(seed, bits);
        prop_assert!(h.hash(key) < (1u64 << bits));
    }

    #[test]
    fn hash_family_members_deterministic(seed in any::<u64>(), len in 1usize..16, key in any::<u64>()) {
        let f1 = UnitHashFamily::new(seed, len, HashFamilyKind::Mix).unwrap();
        let f2 = UnitHashFamily::new(seed, len, HashFamilyKind::Mix).unwrap();
        for i in 0..len {
            prop_assert_eq!(
                f1.member(i).hash_unit(key).to_bits(),
                f2.member(i).hash_unit(key).to_bits()
            );
        }
    }

    #[test]
    fn sign_hash_is_plus_minus_one(seed in any::<u64>(), row in any::<u64>(), key in any::<u64>()) {
        let s = SignHasher::from_seed(seed);
        let v = s.sign(row, key);
        prop_assert!(v == 1.0 || v == -1.0);
    }

    #[test]
    fn bucket_hash_in_range(seed in any::<u64>(), rep in any::<u64>(), key in any::<u64>(), buckets in 1usize..10_000) {
        let b = BucketHasher::new(seed, buckets).unwrap();
        prop_assert!(b.bucket(rep, key) < buckets);
    }

    #[test]
    fn geometric_skip_at_least_one(p in 1e-9f64..=1.0, u in 1e-12f64..=1.0) {
        prop_assert!(geometric_skip(p, u) >= 1);
    }

    #[test]
    fn record_stream_monotone(seed in any::<u64>(), sample in any::<u64>(), block in any::<u64>()) {
        let mut s = RecordStream::new(seed, sample, block);
        let mut prev_pos = None;
        let mut prev_val = f64::INFINITY;
        for _ in 0..10 {
            let Some(r) = s.next_record() else { break };
            if let Some(p) = prev_pos {
                prop_assert!(r.position > p);
            } else {
                prop_assert_eq!(r.position, 0);
            }
            prop_assert!(r.value < prev_val);
            prop_assert!(r.value > 0.0 && r.value < 1.0);
            prev_pos = Some(r.position);
            prev_val = r.value;
        }
    }

    #[test]
    fn prefix_min_nested_consistency(
        seed in any::<u64>(),
        block in any::<u64>(),
        short_len in 1u64..500,
        extra in 0u64..500,
    ) {
        // The minimum over a longer prefix is <= the minimum over a shorter prefix, and
        // when it falls inside the shorter prefix the two are identical — this is the
        // consistency property that Weighted MinHash sketches depend on.
        let long_len = short_len + extra;
        let short = prefix_min(seed, 0, block, short_len).unwrap();
        let long = prefix_min(seed, 0, block, long_len).unwrap();
        prop_assert!(long.value <= short.value);
        if long.position < short_len {
            prop_assert_eq!(long.value.to_bits(), short.value.to_bits());
            prop_assert_eq!(long.position, short.position);
        }
        prop_assert!(short.position < short_len);
        prop_assert!(long.position < long_len);
    }

    #[test]
    fn sweep_replay_emits_every_stream_as_the_scalar_replay(
        seed in any::<u64>(),
        block in any::<u64>(),
        // Log-uniform over 0..=2^40: a bit width, then a length within it.
        len in (0u32..=40, any::<u64>()).prop_map(|(bits, r)| r % ((1u64 << bits) + 1)),
        m in 0usize..=8,
    ) {
        // The sweep is the only packed v2 replay: whatever order its lanes finish in,
        // every stream must be emitted exactly once with the scalar replay's record.
        let bits = |r: Option<Record>| r.map(|r| (r.position, r.value.to_bits()));
        let states: Vec<u64> = (0..m as u64)
            .map(|sample| RecordStream::sample_state(seed, sample))
            .collect();
        let block_state = RecordStream::block_state(block);
        let mut emitted = Vec::with_capacity(m);
        prefix_min_replay_v2_sweep(&states, block_state, len, &mut |sample, record| {
            emitted.push((sample, bits(record)));
        });
        emitted.sort_by_key(|&(sample, _)| sample);
        let expected: Vec<_> = states
            .iter()
            .enumerate()
            .map(|(sample, state)| (sample, bits(prefix_min_replay_v2_scalar(*state, block_state, len))))
            .collect();
        prop_assert_eq!(emitted, expected);
    }

    #[test]
    fn xoshiro_bounded_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_bounded_u64(bound) < bound);
        }
    }

    #[test]
    fn xoshiro_sample_indices_valid(seed in any::<u64>(), n in 1usize..200, frac in 0.0f64..=1.0) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let sample = rng.sample_indices(n, k);
        prop_assert_eq!(sample.len(), k);
        prop_assert!(sample.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(sample.iter().all(|&i| i < n));
    }
}
