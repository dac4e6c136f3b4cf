//! Property-based tests of ranking determinism — the invariants distributed
//! serving leans on:
//!
//! * the top-k answer (including exact ties) is invariant under the order
//!   columns were inserted into the index, and
//! * the shard-partial ingest path yields the same top-k for *any* shard
//!   count, so a cluster can repartition rows without changing answers, and
//! * every public ranking entry (flat, cascade, related, single or batched, on
//!   the index or through `QueryService::rank`) returns exactly what a full
//!   estimate of every candidate, a full sort, the filter and the cut give.

use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_data::{Column, Table};
use ipsketch_join::{
    JoinEstimator, RankedColumn, SketchIndex, SketchedColumn, DEFAULT_CASCADE_CONFIDENCE,
};
use ipsketch_serve::{shard_rows, QueryService, Scan};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::atomic::{AtomicU64, Ordering};

fn estimator() -> JoinEstimator {
    JoinEstimator::new(AnySketcher::for_budget(SketchMethod::Kmv, 256.0, 7).expect("budget"))
}

/// A candidate table: `offset` picks the key range, `pattern` the values.
/// Two candidates sharing `(offset, pattern)` carry identical data under
/// different names, so their scores tie *exactly* and only the deterministic
/// `(table, column)` tie-break orders them.
fn candidate(index: usize, offset: u64, pattern: u64) -> Table {
    let keys: Vec<u64> = (offset * 50..offset * 50 + 120).collect();
    let values: Vec<f64> = (0..120u32)
        .map(|i| match pattern {
            0 => f64::from(i) + 1.0,
            1 => f64::from((i * 37) % 11) + 1.0,
            _ => f64::from(i % 7) + 1.0,
        })
        .collect();
    Table::new(
        format!("cand_{index}"),
        keys,
        vec![Column::new("v", values)],
    )
    .expect("table")
}

fn query_table() -> Table {
    Table::new(
        "q",
        (0..160).collect(),
        vec![Column::new(
            "v",
            (0..160).map(|i| f64::from(i) + 1.0).collect(),
        )],
    )
    .expect("table")
}

/// A generated lake: each `(offset, pattern)` pair becomes one candidate.
fn lake_params() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..3, 0u64..3), 2..6)
}

/// A Fisher–Yates permutation of `0..n` driven by `seed` (the shim has no
/// `prop_shuffle`; a splitmix-style step is plenty for test-case diversity).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = state
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let j = (state >> 32) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

fn build_index(tables: &[Table], order: &[usize]) -> SketchIndex {
    let mut index = SketchIndex::new(estimator());
    for &i in order {
        index.insert_table(&tables[i]).expect("insert");
    }
    index
}

/// Asserts two rankings agree on the ranked keys *in order* and carry scores
/// equal to within floating-point refolding noise (shard partials sum in a
/// different grouping, so the last ulp may differ; ties only arise between
/// bit-identical candidates, which drift identically, so order is stable).
fn assert_rank_equivalent(a: &[RankedColumn], b: &[RankedColumn]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "ranking lengths differ");
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(&x.id, &y.id, "ranked keys diverge");
        let tolerance = 1e-9 * x.score.abs().max(1.0);
        prop_assert!(
            (x.score - y.score).abs() <= tolerance,
            "score drift beyond refolding noise: {} vs {}",
            x.score,
            y.score
        );
    }
    Ok(())
}

static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Insertion order must be unobservable in the ranking — bit for bit,
    /// including the relative order of exact ties.
    #[test]
    fn top_k_is_invariant_under_build_order(
        params in lake_params(),
        seed in any::<u64>(),
    ) {
        let tables: Vec<Table> = params
            .iter()
            .enumerate()
            .map(|(i, &(offset, pattern))| candidate(i, offset, pattern))
            .collect();
        let order = permutation(tables.len(), seed);
        let query = query_table();
        let baseline = build_index(&tables, &(0..tables.len()).collect::<Vec<_>>());
        let q = baseline.sketch_query(&query, "v").expect("sketch");
        let expected_join = baseline
            .top_k_joinable(&q, tables.len() + 1)
            .expect("baseline join");
        let expected_corr = baseline
            .top_k_correlated(&q, tables.len() + 1, 5.0)
            .expect("baseline corr");

        let permuted = build_index(&tables, &order);
        let q2 = permuted.sketch_query(&query, "v").expect("sketch");
        prop_assert_eq!(
            permuted.top_k_joinable(&q2, tables.len() + 1).expect("join"),
            expected_join
        );
        prop_assert_eq!(
            permuted
                .top_k_correlated(&q2, tables.len() + 1, 5.0)
                .expect("corr"),
            expected_corr
        );
    }
}

proptest! {
    // Each case builds two on-disk catalogs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The two-pass shard-partial path must answer the same top-k whatever
    /// `shard_rows` split the rows arrived in.
    #[test]
    fn top_k_is_invariant_under_shard_count(
        values_a in proptest::collection::vec(1u32..1000, 40..100),
        values_b in proptest::collection::vec(1u32..1000, 40..100),
        shards_one in 1usize..6,
        shards_two in 1usize..6,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let make = |name: &str, values: &[u32]| {
            Table::new(
                name,
                (0..values.len() as u64).collect(),
                vec![Column::new(
                    "v",
                    values.iter().map(|&v| f64::from(v)).collect(),
                )],
            )
            .expect("table")
        };
        let table_a = make("cand_a", &values_a);
        let table_b = make("cand_b", &values_b);
        let query = query_table();
        let spec = AnySketcher::for_budget(SketchMethod::Kmv, 256.0, 7)
            .expect("budget")
            .spec();

        let rank_with = |shards: usize, tag: &str| {
            let root = std::env::temp_dir().join(format!(
                "ipsketch-shardprop-{tag}-{case}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let mut service = QueryService::create(&root, spec).expect("create");
            for table in [&table_a, &table_b] {
                let mut session = service.begin_sharded_ingest(table.name());
                for shard in &shard_rows(table, shards) {
                    session.announce(shard).expect("announce");
                }
                for shard in &shard_rows(table, shards) {
                    session.submit(service.estimator(), shard).expect("submit");
                }
                service.finish_sharded_ingest(session).expect("finish");
            }
            let q = service.sketch_query(&query, "v").expect("sketch");
            let joinable = service.query_joinable(&q, 3).expect("rank");
            let related = service.query_related(&q, 3, 5.0).expect("rank");
            let _ = std::fs::remove_dir_all(&root);
            (joinable, related)
        };

        let (join_one, corr_one) = rank_with(shards_one, "one");
        let (join_two, corr_two) = rank_with(shards_two, "two");
        assert_rank_equivalent(&join_one, &join_two)?;
        assert_rank_equivalent(&corr_one, &corr_two)?;
    }
}

/// A lake table for the reference-oracle property: two columns over one key
/// range, so the two columns' join sizes tie exactly and the `column` half of
/// the tie-break is exercised too.  Tables sharing `(offset, pattern)` carry
/// identical data under different names: exact ties across tables.
fn oracle_table(name: &str, offset: u64, pattern: u64) -> Table {
    let keys: Vec<u64> = (offset * 40..offset * 40 + 100).collect();
    let a: Vec<f64> = (0..100u32)
        .map(|i| match pattern {
            0 => f64::from(i) + 1.0,
            1 => f64::from((i * 37) % 11) + 1.0,
            _ => f64::from(i % 7) + 1.0,
        })
        .collect();
    let b = a.iter().map(|v| 200.0 - 3.0 * v).collect();
    Table::new(name, keys, vec![Column::new("a", a), Column::new("b", b)]).expect("table")
}

fn oracle_method(tag: u64) -> SketchMethod {
    match tag {
        0 => SketchMethod::WeightedMinHash,
        1 => SketchMethod::Kmv,
        2 => SketchMethod::MinHash,
        3 => SketchMethod::Jl,
        4 => SketchMethod::CountSketch,
        _ => SketchMethod::Icws,
    }
}

/// The ranking the pipeline must reproduce, computed the slow, obvious way:
/// the full estimate of every candidate outside the query's table, a full
/// sort under `(score desc, table, column)`, the related-mode join-size
/// filter, then the cut.
fn reference(
    index: &SketchIndex,
    query: &SketchedColumn,
    k: usize,
    min_join_size: Option<f64>,
) -> Vec<RankedColumn> {
    let mut all: Vec<RankedColumn> = index
        .columns()
        .filter(|id| id.table != query.table)
        .map(|id| {
            let candidate = index.get(&id.table, &id.column).expect("indexed");
            let stats = index
                .estimator()
                .estimate(query, candidate)
                .expect("estimate");
            RankedColumn {
                id: id.clone(),
                score: if min_join_size.is_some() {
                    stats.correlation.abs()
                } else {
                    stats.join_size
                },
                estimated_join_size: stats.join_size,
                estimated_correlation: stats.correlation,
            }
        })
        .collect();
    all.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.id.table.cmp(&b.id.table))
            .then_with(|| a.id.column.cmp(&b.id.column))
    });
    if let Some(min) = min_join_size {
        all.retain(|r| r.estimated_join_size >= min);
    }
    all.truncate(k);
    all
}

/// A ranking as exact bits, so `-0.0` vs `0.0` or a NaN cannot hide behind
/// `f64` equality.
fn bits(ranking: &[RankedColumn]) -> Vec<(String, String, u64, u64, u64)> {
    ranking
        .iter()
        .map(|r| {
            (
                r.id.table.clone(),
                r.id.column.clone(),
                r.score.to_bits(),
                r.estimated_join_size.to_bits(),
                r.estimated_correlation.to_bits(),
            )
        })
        .collect()
}

/// Asserts a batch of rankings equals the reference batch bit for bit.
fn expect_bits(
    k: usize,
    want: &[Vec<RankedColumn>],
    got: &[Vec<RankedColumn>],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.len(), got.len(), "{}: batch length", what);
    for (w, g) in want.iter().zip(got) {
        prop_assert_eq!(bits(w), bits(g), "{} diverged at k = {}", what, k);
    }
    Ok(())
}

proptest! {
    // Each case builds an on-disk catalog; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every public ranking entry — the three `top_k_*` methods, their batch
    /// forms, and `QueryService::rank` under each `Scan` — returns exactly the
    /// reference ranking, bit for bit, for every `k` from 0 to `usize::MAX`.
    #[test]
    fn every_ranking_entry_matches_the_full_estimate_reference(
        params in proptest::collection::vec((0u64..5, 0u64..3), 8..16),
        method_tag in 0u64..6,
        seed in 1u64..1000,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "ipsketch-oracleprop-{case}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let spec = AnySketcher::for_budget(oracle_method(method_tag), 256.0, seed)
            .expect("budget")
            .spec();
        let mut service = QueryService::create(&root, spec).expect("create");
        // The query's own table is indexed too, so its exclusion is exercised.
        let query = oracle_table("q", 1, 0);
        service.ingest_table(&query).expect("ingest query table");
        for (i, &(offset, pattern)) in params.iter().enumerate() {
            service
                .ingest_table(&oracle_table(&format!("cand_{i}"), offset, pattern))
                .expect("ingest");
        }
        // Two queries: one from outside the candidates, one from a candidate
        // table (whose own columns are then excluded).
        let mut primaries = Vec::new();
        let mut companions = Vec::new();
        let own = oracle_table("cand_0", params[0].0, params[0].1);
        for (table, column) in [(&query, "a"), (&own, "b")] {
            primaries.push(service.sketch_query(table, column).expect("sketch"));
            companions.push(
                service
                    .sketch_query_companion(table, column)
                    .expect("companion sketch")
                    .expect("created catalogs carry a companion tier"),
            );
        }
        let index = service.index();
        let candidates = index.len() - 2;

        // A join-size floor at the upper median of the first query's join sizes:
        // whenever they differ, it excludes some candidates from related mode.
        let mut sizes: Vec<f64> = reference(index, &primaries[0], usize::MAX, None)
            .iter()
            .map(|r| r.estimated_join_size)
            .collect();
        sizes.sort_by(f64::total_cmp);
        let min_join_size = sizes[sizes.len() / 2];

        let pairs: Vec<_> = primaries.iter().zip(&companions).collect();
        for k in [0, 1, 3, candidates / 2, candidates + 1, usize::MAX] {
            let joinable: Vec<_> = primaries
                .iter()
                .map(|q| reference(index, q, k, None))
                .collect();
            let related: Vec<_> = primaries
                .iter()
                .map(|q| reference(index, q, k, Some(min_join_size)))
                .collect();
            let single: Vec<_> = primaries
                .iter()
                .map(|q| index.top_k_joinable(q, k).expect("joinable"))
                .collect();
            expect_bits(k, &joinable, &single, "top_k_joinable")?;
            let batch = index.top_k_joinable_batch(&primaries, k).expect("batch");
            expect_bits(k, &joinable, &batch, "top_k_joinable_batch")?;
            let cascaded: Vec<_> = pairs
                .iter()
                .map(|(q, cq)| {
                    index
                        .top_k_joinable_cascade(q, cq, k, DEFAULT_CASCADE_CONFIDENCE)
                        .expect("cascade")
                        .0
                })
                .collect();
            expect_bits(k, &joinable, &cascaded, "top_k_joinable_cascade")?;
            let batch = index
                .top_k_joinable_cascade_batch(&pairs, k, DEFAULT_CASCADE_CONFIDENCE)
                .expect("cascade batch");
            expect_bits(k, &joinable, &batch, "top_k_joinable_cascade_batch")?;
            let correlated: Vec<_> = primaries
                .iter()
                .map(|q| index.top_k_correlated(q, k, min_join_size).expect("related"))
                .collect();
            expect_bits(k, &related, &correlated, "top_k_correlated")?;
            let batch = index
                .top_k_correlated_batch(&primaries, k, min_join_size)
                .expect("related batch");
            expect_bits(k, &related, &batch, "top_k_correlated_batch")?;

            for (scan, want) in [
                (Scan::Joinable, &joinable),
                (
                    Scan::Cascade {
                        companions: Some(&companions),
                        confidence: DEFAULT_CASCADE_CONFIDENCE,
                    },
                    &joinable,
                ),
                (Scan::Related { min_join_size }, &related),
            ] {
                let (got, note) = service.rank(&primaries, k, scan).expect("rank");
                prop_assert!(note.is_none(), "companion catalogs never fall back");
                expect_bits(k, want, &got, "QueryService::rank")?;
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
