//! A sketch index over a data lake.
//!
//! This is the end-to-end dataset-search workflow the paper motivates: every column of
//! every table in the lake is sketched *once* (a small, reusable summary); a query
//! column is then compared against all indexed sketches to rank candidate tables by
//! estimated joinability (join size) or relatedness (absolute post-join correlation),
//! using "a fraction of the computational resources in comparison to explicitly
//! materializing table joins".

use crate::error::JoinError;
use crate::estimate::{JoinEstimator, SketchedColumn};
use ipsketch_core::runner::{default_threads, parallel_map};
use ipsketch_core::SketchError;
use ipsketch_data::Table;
use std::borrow::Borrow;

/// Identifies one column of one table in the lake.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnId {
    /// The table name.
    pub table: String,
    /// The column name.
    pub column: String,
}

/// One ranked query result.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedColumn {
    /// Which column this is.
    pub id: ColumnId,
    /// The ranking score (estimated join size or |estimated correlation|, depending on
    /// the query).
    pub score: f64,
    /// The estimated join size with the query column.
    pub estimated_join_size: f64,
    /// The estimated post-join correlation with the query column.
    pub estimated_correlation: f64,
}

/// Below this many (query, candidate) pairs a batch is ranked sequentially.  Spinning
/// up scoped worker threads costs on the order of a millisecond, and a single pair
/// estimate ranges from ~0.1µs (JL dot product) to a few µs (sampler collision
/// scans), so the threshold is calibrated to the cheap end: a batch below it could
/// only lose by parallelizing, and one well above it carries enough work for every
/// method.
const PARALLEL_BATCH_MIN_PAIRS: usize = 4096;

/// The default confidence multiplier applied to the companion's Table-1 error bound
/// `ε·√(rows_q·rows_c)` when sizing the cascade pruning margin.  At 10× the bound the
/// per-pair probability that a true top-k candidate's cheap estimate strays outside
/// its interval is negligible (the Table-1 experiments measure errors well inside one
/// bound), so the cascade's answer is the flat scan's answer; smaller multipliers
/// trade recall for a thinner survivor set and are exercised by the recall
/// regression tests.
pub const DEFAULT_CASCADE_CONFIDENCE: f64 = 10.0;

/// Telemetry of one cascade query: how hard the cheap tier pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeStats {
    /// Candidates scored by the cheap tier (all indexed columns outside the query's
    /// own table).
    pub candidates: usize,
    /// Candidates that survived the prefilter and went on to the scoring pass.
    pub survivors: usize,
}

/// A pre-sketched data lake supporting joinability and relatedness queries.
#[derive(Debug, Clone)]
pub struct SketchIndex {
    estimator: JoinEstimator,
    /// The cheap-tier (companion) estimator, when the index carries one; required by
    /// the cascade query path and used to sketch companion queries.
    companion: Option<JoinEstimator>,
    entries: Vec<IndexEntry>,
}

/// One indexed column: its identity, primary sketch, and (optionally) the cheap
/// companion sketch the cascade prefilter scores with.
#[derive(Debug, Clone)]
struct IndexEntry {
    id: ColumnId,
    sketch: SketchedColumn,
    companion: Option<SketchedColumn>,
}

impl SketchIndex {
    /// Creates an empty index that will sketch columns with the given estimator.
    #[must_use]
    pub fn new(estimator: JoinEstimator) -> Self {
        Self {
            estimator,
            companion: None,
            entries: Vec::new(),
        }
    }

    /// Attaches (or detaches) the cheap-tier companion estimator the cascade query
    /// path prefilters with.  Tables inserted *after* this call are companion-sketched
    /// automatically; already-indexed entries keep whatever companion they were
    /// inserted with.
    pub fn set_companion_estimator(&mut self, companion: Option<JoinEstimator>) {
        self.companion = companion;
    }

    /// The cheap-tier companion estimator, if the index carries one.
    #[must_use]
    pub fn companion_estimator(&self) -> Option<&JoinEstimator> {
        self.companion.as_ref()
    }

    /// Number of indexed columns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The indexed column identifiers, in insertion order.
    pub fn columns(&self) -> impl Iterator<Item = &ColumnId> {
        self.entries.iter().map(|entry| &entry.id)
    }

    /// The estimator this index sketches and ranks with.
    #[must_use]
    pub fn estimator(&self) -> &JoinEstimator {
        &self.estimator
    }

    /// Whether `table.column` is already indexed.
    #[must_use]
    pub fn contains(&self, table: &str, column: &str) -> bool {
        self.entry(table, column).is_some()
    }

    fn entry(&self, table: &str, column: &str) -> Option<&IndexEntry> {
        self.entries
            .iter()
            .find(|entry| entry.id.table == table && entry.id.column == column)
    }

    /// Inserts an already-sketched column — the hydration path a persistent catalog
    /// takes when loading stored sketches, which skips re-sketching entirely.  The
    /// caller is responsible for having validated that the sketches match this index's
    /// estimator configuration (catalogs do this against their recorded
    /// [`SketcherSpec`](ipsketch_core::SketcherSpec) at load time); a mismatched column
    /// surfaces as [`JoinError::Sketch`] on the first query that touches it.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if the column is already present, so hydration
    /// never silently double-counts a candidate.
    pub fn insert_sketched(&mut self, sketched: SketchedColumn) -> Result<(), JoinError> {
        self.insert_sketched_with_companion(sketched, None)
    }

    /// Inserts an already-sketched column together with its (optional) cheap
    /// companion sketch — the hydration path of a companion-carrying catalog.
    /// Entries without a companion always pass the cascade prefilter, so a
    /// partially-backfilled catalog stays exactly as correct as the flat scan.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if the column is already present.
    pub fn insert_sketched_with_companion(
        &mut self,
        sketched: SketchedColumn,
        companion: Option<SketchedColumn>,
    ) -> Result<(), JoinError> {
        if self.contains(&sketched.table, &sketched.column) {
            return Err(JoinError::Sketch(SketchError::IncompatibleSketches {
                detail: format!(
                    "column `{}.{}` is already indexed",
                    sketched.table, sketched.column
                ),
            }));
        }
        self.entries.push(IndexEntry {
            id: ColumnId {
                table: sketched.table.clone(),
                column: sketched.column.clone(),
            },
            sketch: sketched,
            companion,
        });
        Ok(())
    }

    /// Indexes every numeric column of a table.  Columns that cannot be sketched (e.g.
    /// all-zero columns) are skipped and reported back by name.
    ///
    /// Returns the names of the skipped columns.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] only for structural problems (unknown columns cannot occur
    /// here since the names come from the table itself).
    pub fn insert_table(&mut self, table: &Table) -> Result<Vec<String>, JoinError> {
        self.insert_table_with(table, |est, column| est.sketch_column(table, column))
    }

    /// Indexes every numeric column of a table by sketching `partitions` row-chunks
    /// independently and merging — the distributed path a sharded deployment takes,
    /// exposed here so single-process users exercise identical code.  Produces entries
    /// interchangeable with [`insert_table`](Self::insert_table) (see
    /// [`JoinEstimator::sketch_column_partitioned`]).
    ///
    /// Returns the names of the skipped (unsketchable) columns.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] for structural problems, including non-mergeable sketch
    /// methods (SimHash).
    pub fn insert_table_partitioned(
        &mut self,
        table: &Table,
        partitions: usize,
    ) -> Result<Vec<String>, JoinError> {
        self.insert_table_with(table, |est, column| {
            est.sketch_column_partitioned(table, column, partitions)
        })
    }

    /// Indexes every column of `table` that `sketch` can sketch, sketching its
    /// companion through the same path; returns the skipped (all-zero) columns.
    fn insert_table_with(
        &mut self,
        table: &Table,
        sketch: impl Fn(&JoinEstimator, &str) -> Result<SketchedColumn, JoinError>,
    ) -> Result<Vec<String>, JoinError> {
        let mut skipped = Vec::new();
        for column in table.columns() {
            match sketch(&self.estimator, &column.name) {
                Ok(sketched) => {
                    let companion = self.companion.as_ref().map(|est| sketch(est, &column.name));
                    self.entries.push(IndexEntry {
                        id: ColumnId {
                            table: table.name().to_string(),
                            column: column.name.clone(),
                        },
                        sketch: sketched,
                        companion: companion.transpose()?,
                    });
                }
                Err(JoinError::EmptyColumn { .. }) => skipped.push(column.name.clone()),
                Err(other) => return Err(other),
            }
        }
        Ok(skipped)
    }

    /// Sketches a query column with the same configuration as the index.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] if the column is missing or cannot be sketched.
    pub fn sketch_query(&self, table: &Table, column: &str) -> Result<SketchedColumn, JoinError> {
        self.estimator.sketch_column(table, column)
    }

    /// Sketches a query column through the partitioned (chunk-and-merge) path, with the
    /// same configuration as the index.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] if the column is missing or cannot be sketched.
    pub fn sketch_query_partitioned(
        &self,
        table: &Table,
        column: &str,
        partitions: usize,
    ) -> Result<SketchedColumn, JoinError> {
        self.estimator
            .sketch_column_partitioned(table, column, partitions)
    }

    /// Removes an indexed column and returns its sketches — the in-memory half of
    /// catalog column deletion (the catalog tombstones the manifest entry; a hydrated
    /// index drops the candidate here so it stops ranking immediately).
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::NotIndexed`] if the column is not in the index.
    pub fn remove(&mut self, table: &str, column: &str) -> Result<SketchedColumn, JoinError> {
        let position = self
            .entries
            .iter()
            .position(|entry| entry.id.table == table && entry.id.column == column)
            .ok_or_else(|| JoinError::NotIndexed {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        Ok(self.entries.remove(position).sketch)
    }

    /// Looks up the stored sketch of an indexed column.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::NotIndexed`] if the column is not in the index.
    pub fn get(&self, table: &str, column: &str) -> Result<&SketchedColumn, JoinError> {
        self.entry(table, column)
            .map(|entry| &entry.sketch)
            .ok_or_else(|| JoinError::NotIndexed {
                table: table.to_string(),
                column: column.to_string(),
            })
    }

    /// Looks up the stored cheap companion sketch of an indexed column, if the entry
    /// carries one.
    #[must_use]
    pub fn get_companion(&self, table: &str, column: &str) -> Option<&SketchedColumn> {
        self.entry(table, column)
            .and_then(|entry| entry.companion.as_ref())
    }

    /// Ranks all indexed columns (excluding those from the query's own table) by
    /// estimated join size with the query column and returns the top `k`.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if the query sketch is incompatible with the index.
    pub fn top_k_joinable(
        &self,
        query: &SketchedColumn,
        k: usize,
    ) -> Result<Vec<RankedColumn>, JoinError> {
        Ok(self.rank(query, k, Mode::Joinable)?.0)
    }

    /// Sketches a query column with the companion (cheap-tier) configuration, or
    /// `None` when the index has no companion estimator.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] if the column is missing or cannot be sketched.
    pub fn sketch_companion_query(
        &self,
        table: &Table,
        column: &str,
    ) -> Result<Option<SketchedColumn>, JoinError> {
        self.companion
            .as_ref()
            .map(|est| est.sketch_column(table, column))
            .transpose()
    }

    /// [`top_k_joinable`](Self::top_k_joinable) behind the cascade's candidate
    /// filter: the cheap companion tier scores every candidate, and only those
    /// whose bound-sized interval could still reach the top `k` go on to the one
    /// scoring pass every ranking shares.
    ///
    /// Per candidate `c` the cheap score `s_c` is bracketed by the additive margin
    /// `b_c = confidence · ε · √(rows_q · rows_c)` (with `ε = 1/√m` from the
    /// companion's [`SketcherSpec::prefilter_epsilon`](ipsketch_core::SketcherSpec::prefilter_epsilon));
    /// the pruning threshold `τ` is the `k`-th largest lower bound `s_c − b_c`, and a
    /// candidate survives iff `s_c + b_c ≥ τ`.  Whenever every cheap estimate is
    /// within its margin of the true score — which `confidence` is sized to make
    /// overwhelmingly likely — at least `k` candidates with true score above any
    /// pruned candidate survive, so the returned ranking is exactly (bit for bit,
    /// including the deterministic `(score, table, column)` tie-break) the flat
    /// scan's top `k`.  Entries without a stored companion sketch are never pruned.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if `confidence` is negative or NaN, the index
    /// has no companion estimator, the companion method is not prefilter-eligible,
    /// or a sketch is incompatible.
    pub fn top_k_joinable_cascade(
        &self,
        query: &SketchedColumn,
        companion_query: &SketchedColumn,
        k: usize,
        confidence: f64,
    ) -> Result<(Vec<RankedColumn>, CascadeStats), JoinError> {
        self.rank(query, k, Mode::Cascade(companion_query, confidence))
    }

    /// Answers a batch of cascade joinability queries (each a primary + companion
    /// query-sketch pair, owned or borrowed) like
    /// [`top_k_joinable_batch`](Self::top_k_joinable_batch); result `i` is exactly
    /// [`top_k_joinable_cascade`](Self::top_k_joinable_cascade) for query `i`.
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) per-query error; batches are
    /// all-or-nothing.
    pub fn top_k_joinable_cascade_batch<Q: Borrow<SketchedColumn> + Sync>(
        &self,
        queries: &[(Q, Q)],
        k: usize,
        confidence: f64,
    ) -> Result<Vec<Vec<RankedColumn>>, JoinError> {
        self.batch(queries, |(q, cq)| {
            Ok(self
                .top_k_joinable_cascade(q.borrow(), cq.borrow(), k, confidence)?
                .0)
        })
    }

    /// Ranks all indexed columns (excluding those from the query's own table) by the
    /// absolute value of the estimated post-join correlation and returns the top `k`.
    ///
    /// Columns whose estimated join size is below `min_join_size` are excluded, since a
    /// correlation over a (nearly) empty join is meaningless; they cost one join-size
    /// estimate each, never the full one.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if the query sketch is incompatible with the index.
    pub fn top_k_correlated(
        &self,
        query: &SketchedColumn,
        k: usize,
        min_join_size: f64,
    ) -> Result<Vec<RankedColumn>, JoinError> {
        Ok(self.rank(query, k, Mode::Related { min_join_size })?.0)
    }

    /// Answers a batch of joinability queries in one call — the shape a query service
    /// receives over the wire.  Result `i` is the ranking for query `i`, exactly as if
    /// [`top_k_joinable`](Self::top_k_joinable) had been called per query.
    ///
    /// Large batches are ranked in parallel on the work-claiming runner
    /// ([`ipsketch_core::runner::parallel_map`]), so batched serving scales across
    /// cores; small batches (fewer than ~4k query–candidate pairs) stay sequential,
    /// where thread startup would cost more than the ranking itself.  Results are
    /// reassembled in input order either way, making the output independent of thread
    /// count and timing.
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) per-query error; a batch is all-or-nothing
    /// so callers never have to pair partial results back up with their queries.
    pub fn top_k_joinable_batch(
        &self,
        queries: &[SketchedColumn],
        k: usize,
    ) -> Result<Vec<Vec<RankedColumn>>, JoinError> {
        self.batch(queries, |q| self.top_k_joinable(q, k))
    }

    /// Answers a batch of relatedness (correlation) queries in one call; result `i` is
    /// the ranking for query `i`, as from
    /// [`top_k_correlated`](Self::top_k_correlated).  Like
    /// [`top_k_joinable_batch`](Self::top_k_joinable_batch), large batches are ranked
    /// in parallel with input-order results.
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) per-query error (batches are
    /// all-or-nothing).
    pub fn top_k_correlated_batch(
        &self,
        queries: &[SketchedColumn],
        k: usize,
        min_join_size: f64,
    ) -> Result<Vec<Vec<RankedColumn>>, JoinError> {
        self.batch(queries, |q| self.top_k_correlated(q, k, min_join_size))
    }

    /// Every `*_batch` method: `rank_one` per query, in parallel once the batch
    /// carries enough work to amortize thread startup, results in input order.
    fn batch<Q: Sync>(
        &self,
        queries: &[Q],
        rank_one: impl Fn(&Q) -> Result<Vec<RankedColumn>, JoinError> + Sync,
    ) -> Result<Vec<Vec<RankedColumn>>, JoinError> {
        let threads =
            if queries.len().saturating_mul(self.entries.len()) >= PARALLEL_BATCH_MIN_PAIRS {
                default_threads()
            } else {
                1
            };
        parallel_map(queries, threads, rank_one)
            .into_iter()
            .collect()
    }

    /// The one query pipeline behind every ranking.  The candidates are the entries
    /// outside the query's own table, less those a cascade's
    /// [filter](Self::cascade_filter) rules out.  Each is scored by one join-size
    /// estimate (joinability is the inner product `⟨1_A, 1_B⟩`); related mode drops
    /// those under `min_join_size` and scores the rest by |correlation|.  The top `k`
    /// are selected under score descending, then `(table, column)` ascending, so
    /// exact ties rank alike on every index and through a router's merge.  Only the
    /// returned rows pay the rest of the full estimate and a cloned id.
    fn rank(
        &self,
        query: &SketchedColumn,
        k: usize,
        mode: Mode<'_>,
    ) -> Result<(Vec<RankedColumn>, CascadeStats), JoinError> {
        let mut candidates: Vec<&IndexEntry> = self
            .entries
            .iter()
            .filter(|entry| entry.id.table != query.table)
            .collect();
        let total = candidates.len();
        if let Mode::Cascade(companion_query, confidence) = mode {
            self.cascade_filter(query, companion_query, k, confidence, &mut candidates)?;
        }
        let stats = CascadeStats {
            candidates: total,
            survivors: candidates.len(),
        };

        let mut scored = Vec::with_capacity(candidates.len());
        for entry in candidates {
            let join_size = self.estimator.estimate_join_size(query, &entry.sketch)?;
            let correlation = match mode {
                Mode::Related { min_join_size } if join_size >= min_join_size => Some(
                    self.estimator
                        .estimate_given_join_size(query, &entry.sketch, join_size)?
                        .correlation,
                ),
                Mode::Related { .. } => continue,
                Mode::Joinable | Mode::Cascade(..) => None,
            };
            let score = correlation.map_or(join_size, f64::abs);
            // Well-formed sketches always estimate finite statistics; a non-finite
            // score means a corrupt or hand-built sketch and has no defensible rank.
            if !score.is_finite() {
                return Err(JoinError::NonFiniteScore {
                    table: entry.id.table.clone(),
                    column: entry.id.column.clone(),
                });
            }
            scored.push(Scored {
                entry,
                score,
                join_size,
                correlation,
            });
        }

        let order = |a: &Scored, b: &Scored| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.entry.id.table.cmp(&b.entry.id.table))
                .then_with(|| a.entry.id.column.cmp(&b.entry.id.column))
        };
        if k < scored.len() {
            if k > 0 {
                scored.select_nth_unstable_by(k - 1, order);
            }
            scored.truncate(k);
        }
        scored.sort_by(order);

        let ranked = scored
            .into_iter()
            .map(|s| {
                let correlation = match s.correlation {
                    Some(correlation) => correlation,
                    None => {
                        self.estimator
                            .estimate_given_join_size(query, &s.entry.sketch, s.join_size)?
                            .correlation
                    }
                };
                Ok(RankedColumn {
                    id: s.entry.id.clone(),
                    score: s.score,
                    estimated_join_size: s.join_size,
                    estimated_correlation: correlation,
                })
            })
            .collect::<Result<_, JoinError>>()?;
        Ok((ranked, stats))
    }

    /// The cascade's candidate filter: keeps the `candidates` whose cheap-tier
    /// interval (see [`top_k_joinable_cascade`](Self::top_k_joinable_cascade)) still
    /// reaches `τ`.  Those without a companion, or with a non-finite cheap score from
    /// a corrupt one, always survive, so the scoring pass surfaces any typed error.
    fn cascade_filter(
        &self,
        query: &SketchedColumn,
        companion_query: &SketchedColumn,
        k: usize,
        confidence: f64,
        candidates: &mut Vec<&IndexEntry>,
    ) -> Result<(), JoinError> {
        // A NaN would make every interval NaN and prune everyone; a negative value
        // inverts the intervals and can prune the true top k.
        if confidence.is_nan() || confidence < 0.0 {
            return Err(JoinError::Sketch(SketchError::InvalidParameter {
                name: "confidence",
                allowed: ">= 0",
            }));
        }
        let incompatible =
            |detail: String| JoinError::Sketch(SketchError::IncompatibleSketches { detail });
        let companion = self.companion.as_ref().ok_or_else(|| {
            incompatible("this index has no companion (cheap-tier) estimator".to_string())
        })?;
        let epsilon = companion
            .sketcher()
            .spec()
            .prefilter_epsilon()
            .ok_or_else(|| {
                incompatible(format!(
                    "companion method {} is not prefilter-eligible",
                    companion.sketcher().method().label()
                ))
            })?;

        // Unbracketed candidates get (−∞, ∞): never pruned, and never the k-th
        // largest lower bound while k bracketed ones exist (else everyone survives).
        let mut intervals = Vec::with_capacity(candidates.len());
        for entry in candidates.iter() {
            let score = match &entry.companion {
                Some(comp) => companion.estimate_join_size(companion_query, comp)?,
                None => f64::NAN,
            };
            let margin =
                confidence * epsilon * ((query.rows as f64) * (entry.sketch.rows as f64)).sqrt();
            intervals.push(if score.is_finite() {
                (score - margin, score + margin)
            } else {
                (f64::NEG_INFINITY, f64::INFINITY)
            });
        }
        if k == 0 || intervals.len() < k {
            return Ok(());
        }
        let mut lowers: Vec<f64> = intervals.iter().map(|&(lower, _)| lower).collect();
        let (_, &mut tau, _) = lowers.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
        let mut uppers = intervals.into_iter().map(|(_, upper)| upper);
        candidates.retain(|_| uppers.next().is_some_and(|upper| upper >= tau));
        Ok(())
    }
}

/// Which ranking one [`SketchIndex::rank`] pass produces.
#[derive(Clone, Copy)]
enum Mode<'a> {
    /// Top-k by estimated join size over every candidate.
    Joinable,
    /// Top-k by estimated join size over the candidates the cascade filter keeps,
    /// given the companion query sketch and the confidence.
    Cascade(&'a SketchedColumn, f64),
    /// Top-k by |estimated correlation| over the candidates whose estimated join
    /// size reaches `min_join_size`.
    Related { min_join_size: f64 },
}

/// One candidate scored by a [`SketchIndex::rank`] pass.
struct Scored<'a> {
    entry: &'a IndexEntry,
    score: f64,
    join_size: f64,
    /// The estimated correlation, when the ranking needed it already (related mode).
    correlation: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsketch_core::method::{AnySketch, AnySketcher, SketchMethod};
    use ipsketch_core::serialize::BinarySketch;
    use ipsketch_data::{Column, DataLakeConfig, Table};

    /// A small lake where table "query" joins heavily with "good" and not at all with
    /// "bad", and the "good" table carries a strongly correlated column.
    fn scenario() -> (Table, Table, Table) {
        let keys: Vec<u64> = (0..500).collect();
        let query = Table::new(
            "query",
            keys.clone(),
            vec![Column::new(
                "rides",
                (0..500).map(|i| f64::from(i) + 1.0).collect(),
            )],
        )
        .expect("unique keys");
        let good = Table::new(
            "good",
            (100..600).collect(),
            vec![
                Column::new(
                    "precip",
                    (100..600).map(|i| 2.0 * f64::from(i) + 3.0).collect(),
                ),
                Column::new(
                    "noise",
                    (0..500).map(|i| f64::from((i * 37) % 11) - 5.0).collect(),
                ),
            ],
        )
        .expect("unique keys");
        let bad = Table::new(
            "bad",
            (10_000..10_500).collect(),
            vec![Column::new(
                "other",
                (0..500).map(|i| f64::from(i % 7) + 1.0).collect(),
            )],
        )
        .expect("unique keys");
        (query, good, bad)
    }

    #[test]
    fn empty_index_basics() -> Result<(), JoinError> {
        let index = SketchIndex::new(JoinEstimator::weighted_minhash(200.0, 1)?);
        assert_eq!(index.len(), 0);
        assert!(index.is_empty());
        assert_eq!(index.columns().count(), 0);
        assert!(!index.contains("t", "c"));
        assert!(matches!(
            index.get("t", "c"),
            Err(JoinError::NotIndexed { .. })
        ));
        Ok(())
    }

    #[test]
    fn insert_and_lookup() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 1)?);
        assert!(index.insert_table(&good)?.is_empty());
        assert!(index.insert_table(&bad)?.is_empty());
        assert_eq!(index.len(), 3);
        assert!(index.get("good", "precip").is_ok());
        assert!(index.contains("good", "precip"));
        assert!(index.get("good", "missing").is_err());
        // Query sketches are built with the same configuration.
        let q = index.sketch_query(&query, "rides")?;
        assert_eq!(q.table, "query");
        Ok(())
    }

    #[test]
    fn insert_sketched_hydrates_and_rejects_duplicates() -> Result<(), JoinError> {
        let (query, good, _) = scenario();
        let est = JoinEstimator::weighted_minhash(300.0, 1)?;
        let sketched = est.sketch_column(&good, "precip")?;
        let mut index = SketchIndex::new(est);
        index.insert_sketched(sketched.clone())?;
        assert_eq!(index.len(), 1);
        assert_eq!(index.get("good", "precip")?, &sketched);
        // A second insert of the same (table, column) is a typed error.
        assert!(index.insert_sketched(sketched.clone()).is_err());
        assert_eq!(index.len(), 1);
        // Hydrated entries answer queries like freshly sketched ones.
        let q = index.sketch_query(&query, "rides")?;
        let ranked = index.top_k_joinable(&q, 1)?;
        assert_eq!(ranked[0].id.table, "good");
        Ok(())
    }

    #[test]
    fn remove_drops_the_column_from_ranking() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 7)?);
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        assert_eq!(index.len(), 3);
        let removed = index.remove("good", "precip")?;
        assert_eq!(removed.table, "good");
        assert_eq!(removed.column, "precip");
        assert_eq!(index.len(), 2);
        assert!(!index.contains("good", "precip"));
        // Removing again (or a never-indexed column) is a typed error.
        assert!(matches!(
            index.remove("good", "precip"),
            Err(JoinError::NotIndexed { .. })
        ));
        // The removed column no longer ranks; re-inserting restores it.
        let q = index.sketch_query(&query, "rides")?;
        assert!(index
            .top_k_joinable(&q, 10)?
            .iter()
            .all(|r| r.id.column != "precip"));
        index.insert_sketched(removed)?;
        assert!(index
            .top_k_joinable(&q, 10)?
            .iter()
            .any(|r| r.id.column == "precip"));
        Ok(())
    }

    #[test]
    fn all_zero_columns_are_skipped_not_fatal() -> Result<(), JoinError> {
        let zero = Table::new(
            "zeros",
            vec![1, 2, 3],
            vec![
                Column::new("z", vec![0.0, 0.0, 0.0]),
                Column::new("ok", vec![1.0, 2.0, 3.0]),
            ],
        )?;
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(100.0, 1)?);
        let skipped = index.insert_table(&zero)?;
        assert_eq!(skipped, vec!["z".to_string()]);
        assert_eq!(index.len(), 1);
        Ok(())
    }

    #[test]
    fn joinable_ranking_prefers_overlapping_tables() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(400.0, 7)?);
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        let q = index.sketch_query(&query, "rides")?;
        let ranked = index.top_k_joinable(&q, 3)?;
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].id.table, "good");
        assert!(ranked[0].estimated_join_size > 200.0);
        // The disjoint table lands at the bottom with (near-)zero join size.
        let last = ranked.last().expect("three results");
        assert_eq!(last.id.table, "bad");
        assert!(last.estimated_join_size < 50.0);
        Ok(())
    }

    #[test]
    fn correlation_ranking_finds_the_related_column() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(500.0, 11)?);
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        let q = index.sketch_query(&query, "rides")?;
        let ranked = index.top_k_correlated(&q, 2, 50.0)?;
        assert!(!ranked.is_empty());
        assert_eq!(ranked[0].id.table, "good");
        assert_eq!(ranked[0].id.column, "precip");
        assert!(
            ranked[0].estimated_correlation.abs() > 0.5,
            "correlation {}",
            ranked[0].estimated_correlation
        );
        // The disjoint table is filtered out by the minimum-join-size threshold.
        assert!(ranked.iter().all(|r| r.id.table != "bad"));
        Ok(())
    }

    #[test]
    fn batched_queries_match_single_queries() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 7)?);
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        let q1 = index.sketch_query(&query, "rides")?;
        let q2 = index.sketch_query(&bad, "other")?;
        let batch = index.top_k_joinable_batch(&[q1.clone(), q2.clone()], 3)?;
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], index.top_k_joinable(&q1, 3)?);
        assert_eq!(batch[1], index.top_k_joinable(&q2, 3)?);
        let related = index.top_k_correlated_batch(std::slice::from_ref(&q1), 2, 25.0)?;
        assert_eq!(related[0], index.top_k_correlated(&q1, 2, 25.0)?);
        assert!(index.top_k_joinable_batch(&[], 3)?.is_empty());
        // A batch containing one incompatible query fails as a whole.
        let foreign = JoinEstimator::weighted_minhash(300.0, 8)?;
        let bad_query = foreign.sketch_column(&query, "rides")?;
        assert!(index.top_k_joinable_batch(&[q1, bad_query], 3).is_err());
        Ok(())
    }

    /// Rewrites a JL sketch so every row is scaled by 1e308 — the kind of damage a
    /// corrupted blob could carry.  The inner product of the result with the original
    /// sketch overflows to +∞.
    fn inflate_jl(sketch: &AnySketch) -> AnySketch {
        let rows = match sketch {
            AnySketch::Jl(s) => s.rows().to_vec(),
            other => panic!("expected a JL sketch, got {other:?}"),
        };
        let bytes = BinarySketch::to_bytes(sketch);
        // Layout: header (6) + seed (8) + row-count prefix (8), then the row f64s.
        let mut out = bytes[..22].to_vec();
        for row in rows {
            out.extend_from_slice(&(row * 1e308).to_le_bytes());
        }
        AnySketch::from_bytes(&out).expect("layout is preserved")
    }

    #[test]
    fn non_finite_scores_are_typed_errors_not_panics() -> Result<(), JoinError> {
        // Previously the ranking sort carried an `expect("scores are finite")`: a
        // corrupt sketch whose estimate overflowed ranked as garbage, and a NaN score
        // panicked mid-sort.  Both now surface as a typed error naming the culprit.
        let (query, good, _) = scenario();
        let est = JoinEstimator::new(AnySketcher::for_budget(SketchMethod::Jl, 200.0, 3)?);
        let mut index = SketchIndex::new(est);
        index.insert_table(&good)?;
        let q = index.sketch_query(&query, "rides")?;
        assert!(index.top_k_joinable(&q, 5).is_ok(), "sane index ranks fine");

        let evil = SketchedColumn::from_parts(
            "evil",
            "col",
            500,
            inflate_jl(q.key_indicator()),
            q.values().clone(),
            q.squared_values().clone(),
        );
        index.insert_sketched(evil)?;
        let err = index
            .top_k_joinable(&q, 5)
            .expect_err("overflowing estimate must not rank");
        assert!(
            matches!(err, JoinError::NonFiniteScore { ref table, .. } if table == "evil"),
            "unexpected error: {err:?}"
        );
        Ok(())
    }

    #[test]
    fn partitioned_indexing_matches_one_shot_ranking() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut one_shot = SketchIndex::new(JoinEstimator::weighted_minhash(400.0, 7)?);
        one_shot.insert_table(&good)?;
        one_shot.insert_table(&bad)?;
        let mut partitioned = SketchIndex::new(JoinEstimator::weighted_minhash(400.0, 7)?);
        assert!(partitioned.insert_table_partitioned(&good, 4)?.is_empty());
        assert!(partitioned.insert_table_partitioned(&bad, 4)?.is_empty());
        assert_eq!(partitioned.len(), one_shot.len());

        let q_one = one_shot.sketch_query(&query, "rides")?;
        let q_part = partitioned.sketch_query_partitioned(&query, "rides", 4)?;
        let ranked_one = one_shot.top_k_joinable(&q_one, 3)?;
        let ranked_part = partitioned.top_k_joinable(&q_part, 3)?;
        // Same ordering, and join-size estimates agree within WMH's grid-rounding
        // tolerance (the only difference between the two sketching paths).
        assert_eq!(
            ranked_one.iter().map(|r| r.id.clone()).collect::<Vec<_>>(),
            ranked_part.iter().map(|r| r.id.clone()).collect::<Vec<_>>()
        );
        for (a, b) in ranked_one.iter().zip(&ranked_part) {
            assert!(
                (a.estimated_join_size - b.estimated_join_size).abs()
                    <= 0.1 * a.estimated_join_size.max(50.0),
                "{} vs {}",
                a.estimated_join_size,
                b.estimated_join_size
            );
        }
        // Partitioned and one-shot sketches interoperate: a one-shot query against the
        // partition-built index estimates the same joins.
        let mixed = partitioned.top_k_joinable(&q_one, 3)?;
        assert_eq!(mixed[0].id.table, "good");
        Ok(())
    }

    #[test]
    fn query_table_itself_is_excluded() -> Result<(), JoinError> {
        let (query, good, _) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 3)?);
        index.insert_table(&query)?;
        index.insert_table(&good)?;
        let q = index.sketch_query(&query, "rides")?;
        let ranked = index.top_k_joinable(&q, 10)?;
        assert!(ranked.iter().all(|r| r.id.table != "query"));
        Ok(())
    }

    #[test]
    fn ranking_is_invariant_under_insertion_order() -> Result<(), JoinError> {
        // Tables "tie_a".."tie_d" carry byte-identical column data, so their
        // sketches — and therefore their scores against any query — are exactly
        // equal.  Before the (table, column) tie-break, their relative order
        // depended on index insertion order; now every permutation must produce
        // the identical ranked list, bit for bit.
        let (query, good, bad) = scenario();
        let tied: Vec<Table> = ["tie_c", "tie_a", "tie_d", "tie_b"]
            .iter()
            .map(|name| {
                Table::new(
                    *name,
                    (200..700).collect(),
                    vec![Column::new(
                        "v",
                        (200..700).map(|i| f64::from(i) * 0.5 + 1.0).collect(),
                    )],
                )
                .expect("unique keys")
            })
            .collect();
        let mut tables: Vec<&Table> = vec![&good, &bad];
        tables.extend(tied.iter());

        let build = |order: &[usize]| -> Result<Vec<RankedColumn>, JoinError> {
            let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 7)?);
            for &i in order {
                index.insert_table(tables[i])?;
            }
            let q = index.sketch_query(&query, "rides")?;
            index.top_k_joinable(&q, tables.len() + 1)
        };

        let baseline = build(&[0, 1, 2, 3, 4, 5])?;
        // The tied tables must actually tie, or this test has no teeth.
        let tie_scores: Vec<u64> = baseline
            .iter()
            .filter(|r| r.id.table.starts_with("tie_"))
            .map(|r| r.score.to_bits())
            .collect();
        assert_eq!(tie_scores.len(), 4);
        assert!(
            tie_scores.windows(2).all(|w| w[0] == w[1]),
            "planted columns must score identically"
        );
        // Ties break ascending on table name.
        let tie_names: Vec<&str> = baseline
            .iter()
            .filter(|r| r.id.table.starts_with("tie_"))
            .map(|r| r.id.table.as_str())
            .collect();
        assert_eq!(tie_names, vec!["tie_a", "tie_b", "tie_c", "tie_d"]);

        for order in [[5, 4, 3, 2, 1, 0], [2, 0, 4, 1, 5, 3], [3, 5, 1, 4, 0, 2]] {
            let permuted = build(&order)?;
            assert_eq!(
                permuted, baseline,
                "ranking depends on insertion order {order:?}"
            );
        }
        Ok(())
    }

    #[test]
    fn top_k_truncates() -> Result<(), JoinError> {
        let lake = DataLakeConfig {
            tables: 6,
            columns_per_table: 2,
            min_rows: 100,
            max_rows: 300,
            key_universe: 1_000,
        }
        .generate(5)?;
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(200.0, 9)?);
        for table in lake.tables() {
            index.insert_table(table)?;
        }
        let query_table = &lake.tables()[0];
        let q = index.sketch_query(query_table, &query_table.columns()[0].name)?;
        let ranked = index.top_k_joinable(&q, 3)?;
        assert_eq!(ranked.len(), 3);
        // Scores are sorted descending.
        assert!(ranked.windows(2).all(|w| w[0].score >= w[1].score));
        Ok(())
    }

    /// A CountSketch cheap-tier estimator for cascade tests.
    fn cs_companion(seed: u64) -> JoinEstimator {
        JoinEstimator::new(
            AnySketcher::for_budget(SketchMethod::CountSketch, 300.0, seed)
                .expect("valid CS budget"),
        )
    }

    #[test]
    fn cascade_matches_flat_scan_bit_for_bit() -> Result<(), JoinError> {
        let lake = DataLakeConfig {
            tables: 8,
            columns_per_table: 3,
            min_rows: 100,
            max_rows: 300,
            key_universe: 1_000,
        }
        .generate(11)?;
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 5)?);
        index.set_companion_estimator(Some(cs_companion(5)));
        for table in lake.tables() {
            index.insert_table(table)?;
        }
        for table in lake.tables() {
            for column in table.columns() {
                let q = index.sketch_query(table, &column.name)?;
                let cq = index
                    .sketch_companion_query(table, &column.name)?
                    .expect("companion estimator attached");
                for k in [1, 3, 7] {
                    let flat = index.top_k_joinable(&q, k)?;
                    let (cascade, stats) =
                        index.top_k_joinable_cascade(&q, &cq, k, DEFAULT_CASCADE_CONFIDENCE)?;
                    assert_eq!(
                        cascade,
                        flat,
                        "cascade diverged for {}.{column:?}",
                        table.name()
                    );
                    // Bit-stability, not just PartialEq: scores must be identical f64s.
                    for (a, b) in cascade.iter().zip(&flat) {
                        assert_eq!(a.score.to_bits(), b.score.to_bits());
                    }
                    assert!(stats.survivors <= stats.candidates);
                }
            }
        }
        Ok(())
    }

    #[test]
    fn cascade_batch_matches_per_query_cascade() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 3)?);
        index.set_companion_estimator(Some(cs_companion(3)));
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        let q = index.sketch_query(&query, "rides")?;
        let cq = index.sketch_companion_query(&query, "rides")?.unwrap();
        let (single, _) = index.top_k_joinable_cascade(&q, &cq, 3, DEFAULT_CASCADE_CONFIDENCE)?;
        let batch = index.top_k_joinable_cascade_batch(
            &[(q.clone(), cq.clone()), (q, cq)],
            3,
            DEFAULT_CASCADE_CONFIDENCE,
        )?;
        assert_eq!(batch, vec![single.clone(), single]);
        Ok(())
    }

    #[test]
    fn cascade_preserves_the_tie_break() -> Result<(), JoinError> {
        // Same planted byte-identical tables as `ranking_is_invariant_under_insertion_order`:
        // the cascade must break their exactly-equal scores on (table, column) too.
        let (query, good, bad) = scenario();
        let tied: Vec<Table> = ["tie_c", "tie_a", "tie_d", "tie_b"]
            .iter()
            .map(|name| {
                Table::new(
                    *name,
                    (200..700).collect(),
                    vec![Column::new(
                        "v",
                        (200..700).map(|i| f64::from(i) * 0.5 + 1.0).collect(),
                    )],
                )
                .expect("unique keys")
            })
            .collect();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 7)?);
        index.set_companion_estimator(Some(cs_companion(7)));
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        for table in &tied {
            index.insert_table(table)?;
        }
        let q = index.sketch_query(&query, "rides")?;
        let cq = index.sketch_companion_query(&query, "rides")?.unwrap();
        let (cascade, _) = index.top_k_joinable_cascade(&q, &cq, 10, DEFAULT_CASCADE_CONFIDENCE)?;
        let flat = index.top_k_joinable(&q, 10)?;
        assert_eq!(cascade, flat);
        let tie_names: Vec<&str> = cascade
            .iter()
            .filter(|r| r.id.table.starts_with("tie_"))
            .map(|r| r.id.table.as_str())
            .collect();
        assert_eq!(tie_names, vec!["tie_a", "tie_b", "tie_c", "tie_d"]);
        Ok(())
    }

    #[test]
    fn companionless_entries_survive_the_prefilter_unconditionally() -> Result<(), JoinError> {
        // A partially-backfilled index (some entries carry no companion) must still
        // answer exactly like the flat scan: no-companion entries bypass pruning.
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 3)?);
        index.set_companion_estimator(Some(cs_companion(3)));
        index.insert_table(&good)?;
        // `bad` is hydrated without a companion, as from a v1 catalog entry.
        let bare = JoinEstimator::weighted_minhash(300.0, 3)?;
        for column in bad.columns() {
            index.insert_sketched(bare.sketch_column(&bad, &column.name)?)?;
        }
        let q = index.sketch_query(&query, "rides")?;
        let cq = index.sketch_companion_query(&query, "rides")?.unwrap();
        // Even with a zero-width margin (confidence 0) the companionless entries are
        // scored by the primary tier.
        let (cascade, stats) = index.top_k_joinable_cascade(&q, &cq, 10, 0.0)?;
        let flat = index.top_k_joinable(&q, 10)?;
        assert_eq!(
            cascade.iter().map(|r| r.id.clone()).collect::<Vec<_>>(),
            flat.iter().map(|r| r.id.clone()).collect::<Vec<_>>()
        );
        assert!(
            cascade.iter().any(|r| r.id.table == "bad"),
            "companionless candidates must appear in the ranking"
        );
        assert_eq!(stats.candidates, index.len());
        Ok(())
    }

    #[test]
    fn tight_margins_prune_and_loose_margins_do_not() -> Result<(), JoinError> {
        let lake = DataLakeConfig {
            tables: 10,
            columns_per_table: 2,
            min_rows: 100,
            max_rows: 300,
            key_universe: 1_000,
        }
        .generate(23)?;
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(200.0, 9)?);
        index.set_companion_estimator(Some(cs_companion(9)));
        for table in lake.tables() {
            index.insert_table(table)?;
        }
        let query_table = &lake.tables()[0];
        let name = &query_table.columns()[0].name;
        let q = index.sketch_query(query_table, name)?;
        let cq = index.sketch_companion_query(query_table, name)?.unwrap();
        // Zero-width margins keep only the cheap tier's own top-k (plus exact ties).
        let (_, tight) = index.top_k_joinable_cascade(&q, &cq, 1, 0.0)?;
        assert!(
            tight.survivors < tight.candidates,
            "a zero-width margin must prune: {tight:?}"
        );
        // An absurdly wide margin keeps everyone.
        let (wide_ranked, wide) = index.top_k_joinable_cascade(&q, &cq, 1, 1e12)?;
        assert_eq!(wide.survivors, wide.candidates);
        assert_eq!(wide_ranked, index.top_k_joinable(&q, 1)?);
        Ok(())
    }

    #[test]
    fn cascade_rejects_nan_and_negative_confidence() -> Result<(), JoinError> {
        // A NaN confidence would make every interval NaN and prune everyone (an
        // empty answer); a negative one inverts the intervals.  Both are typed
        // parameter errors, while 0 (no margin) and +∞ (no pruning) stay valid.
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 3)?);
        index.set_companion_estimator(Some(cs_companion(3)));
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        let q = index.sketch_query(&query, "rides")?;
        let cq = index.sketch_companion_query(&query, "rides")?.unwrap();
        for confidence in [f64::NAN, -1.0] {
            let err = index
                .top_k_joinable_cascade(&q, &cq, 2, confidence)
                .expect_err("invalid confidence");
            assert!(
                matches!(
                    err,
                    JoinError::Sketch(SketchError::InvalidParameter {
                        name: "confidence",
                        ..
                    })
                ),
                "{confidence}: unexpected {err:?}"
            );
            assert!(index
                .top_k_joinable_cascade_batch(&[(&q, &cq)], 2, confidence)
                .is_err());
        }
        let flat = index.top_k_joinable(&q, 2)?;
        let (_, tight) = index.top_k_joinable_cascade(&q, &cq, 2, 0.0)?;
        assert!(tight.survivors <= tight.candidates);
        let (wide, stats) = index.top_k_joinable_cascade(&q, &cq, 2, f64::INFINITY)?;
        assert_eq!(wide, flat);
        assert_eq!(stats.survivors, stats.candidates);
        Ok(())
    }

    #[test]
    fn cascade_without_a_companion_estimator_is_a_typed_error() -> Result<(), JoinError> {
        let (query, good, _) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 3)?);
        index.insert_table(&good)?;
        let q = index.sketch_query(&query, "rides")?;
        assert!(index.sketch_companion_query(&query, "rides")?.is_none());
        let err = index
            .top_k_joinable_cascade(&q, &q, 5, DEFAULT_CASCADE_CONFIDENCE)
            .expect_err("no companion tier");
        assert!(matches!(err, JoinError::Sketch(_)), "unexpected: {err:?}");

        // A companion method without a Table-1 prefilter bound (WMH) is also rejected.
        index.set_companion_estimator(Some(JoinEstimator::weighted_minhash(100.0, 3)?));
        let cq = index.sketch_companion_query(&query, "rides")?.unwrap();
        let err = index
            .top_k_joinable_cascade(&q, &cq, 5, DEFAULT_CASCADE_CONFIDENCE)
            .expect_err("WMH is not prefilter-eligible");
        assert!(matches!(err, JoinError::Sketch(_)), "unexpected: {err:?}");
        Ok(())
    }
}
