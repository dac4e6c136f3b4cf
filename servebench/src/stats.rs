//! Pure helpers: order statistics, the tail-percentile rule, ranking accuracy
//! against exact ground truth, and catalog byte accounting.  Everything here is
//! deterministic and unit-tested; nothing touches the clock or the network.

use std::collections::HashMap;

/// Median of `values` (mean of the two middle elements for even lengths);
/// `0.0` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The percentile ladder the tail rule picks from, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// `min_beyond` samples strictly above it in a run of `samples`, or `None`
/// when not even the median qualifies.  With 100 samples and `min_beyond = 10`
/// this is p90; with 1000 it is p99.
#[must_use]
pub fn tail_percentile(samples: usize, min_beyond: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| {
        // Samples beyond the nearest-rank p-th percentile.
        samples.saturating_sub(nearest_rank(samples, p)) >= min_beyond
    })
}

/// 1-based nearest rank of percentile `p` among `n` samples (`ceil(p·n)`,
/// at least 1).
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `values`; `0.0` for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// One candidate's exact join size with a query column.
#[derive(Debug, Clone, PartialEq)]
pub struct Truth {
    /// Candidate table.
    pub table: String,
    /// Candidate column.
    pub column: String,
    /// Exact join size (shared keys) with the query column.
    pub join_size: f64,
}

/// One served result row: which candidate, and the served join-size estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Candidate table.
    pub table: String,
    /// Candidate column.
    pub column: String,
    /// The served (estimated) join size.
    pub join_size: f64,
}

/// Tie-aware recall@k of a served ranking against exact ground truth over the
/// candidates in `truth`: a served row is a hit when its exact join size is at
/// least the exact k-th largest, so equal-size candidates are interchangeable
/// (integer overlaps tie often on sparse data, and any tie-break would be
/// arbitrary).  The denominator is `min(k, candidates)`; a served row that is
/// not among the candidates never counts.
#[must_use]
pub fn recall_at_k(served: &[Served], truth: &[Truth], k: usize) -> f64 {
    let want = k.min(truth.len());
    if want == 0 {
        return 1.0;
    }
    let mut sizes: Vec<f64> = truth.iter().map(|t| t.join_size).collect();
    sizes.sort_by(|a, b| b.total_cmp(a));
    let kth = sizes[want - 1];
    let exact = exact_lookup(truth);
    let hits = served
        .iter()
        .take(k)
        .filter(|s| {
            exact
                .get(&(s.table.as_str(), s.column.as_str()))
                .is_some_and(|&size| size >= kth)
        })
        .count();
    hits.min(want) as f64 / want as f64
}

/// Relative join-size errors `|served − exact| / exact` of the served rows
/// whose exact join size is positive (a zero exact size has no relative
/// error); rows not among the candidates are skipped.
#[must_use]
pub fn join_size_rel_errors(served: &[Served], truth: &[Truth]) -> Vec<f64> {
    let exact = exact_lookup(truth);
    served
        .iter()
        .filter_map(|s| {
            let size = *exact.get(&(s.table.as_str(), s.column.as_str()))?;
            (size > 0.0).then(|| (s.join_size - size).abs() / size)
        })
        .collect()
}

fn exact_lookup(truth: &[Truth]) -> HashMap<(&str, &str), f64> {
    truth
        .iter()
        .map(|t| ((t.table.as_str(), t.column.as_str()), t.join_size))
        .collect()
}

/// A catalog's on-disk bytes split by kind, for the storage metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ByteSplit {
    /// Primary (WMH) blob bytes.
    pub primary: u64,
    /// Companion (cheap-tier) blob bytes.
    pub companion: u64,
    /// Manifest file bytes.
    pub manifest: u64,
    /// Every other file under the catalog root (temp files, tombstoned blobs).
    pub other: u64,
}

impl ByteSplit {
    /// Builds the split from per-entry `(primary_len, companion_len)` pairs,
    /// the manifest's size, and the total bytes found on disk; whatever the
    /// entries and manifest do not explain is `other`.
    #[must_use]
    pub fn from_entries(entries: &[(u64, u64)], manifest: u64, on_disk: u64) -> Self {
        let primary: u64 = entries.iter().map(|e| e.0).sum();
        let companion: u64 = entries.iter().map(|e| e.1).sum();
        Self {
            primary,
            companion,
            manifest,
            other: on_disk.saturating_sub(primary + companion + manifest),
        }
    }

    /// Adds another catalog's split (a cluster's nodes) into this one.
    pub fn add(&mut self, other: &ByteSplit) {
        self.primary += other.primary;
        self.companion += other.companion;
        self.manifest += other.manifest;
        self.other += other.other;
    }

    /// Every byte on disk.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.primary + self.companion + self.manifest + self.other
    }

    /// `bytes / logical_columns`, or `0.0` without columns.  Callers pass the
    /// logical column count so replicated copies count as cost.
    #[must_use]
    pub fn per_col(bytes: u64, logical_columns: u64) -> f64 {
        if logical_columns == 0 {
            0.0
        } else {
            bytes as f64 / logical_columns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean_handle_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0, 10), None);
        assert_eq!(tail_percentile(9, 10), None);
        assert_eq!(tail_percentile(20, 10), Some(0.5));
        assert_eq!(tail_percentile(99, 10), Some(0.5));
        assert_eq!(tail_percentile(100, 10), Some(0.9));
        assert_eq!(tail_percentile(999, 10), Some(0.9));
        assert_eq!(tail_percentile(1000, 10), Some(0.99));
        assert_eq!(tail_percentile(10_000, 10), Some(0.999));
        // Whatever the rule picks, at least `min_beyond` samples lie beyond it.
        for n in 1..2_000 {
            if let Some(p) = tail_percentile(n, 10) {
                assert!(n - nearest_rank(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.9), 90.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    fn truth(rows: &[(&str, f64)]) -> Vec<Truth> {
        rows.iter()
            .map(|&(t, size)| Truth {
                table: t.to_string(),
                column: "c".to_string(),
                join_size: size,
            })
            .collect()
    }

    fn served(tables: &[&str]) -> Vec<Served> {
        tables
            .iter()
            .map(|t| Served {
                table: (*t).to_string(),
                column: "c".to_string(),
                join_size: 1.0,
            })
            .collect()
    }

    #[test]
    fn recall_counts_hits_against_exact_top_k() {
        let exact = truth(&[("a", 9.0), ("b", 8.0), ("c", 7.0), ("d", 1.0)]);
        assert_eq!(recall_at_k(&served(&["a", "b", "c"]), &exact, 3), 1.0);
        assert!((recall_at_k(&served(&["a", "d", "c"]), &exact, 3) - 2.0 / 3.0).abs() < 1e-12);
        // Unknown rows never count; only the first k served rows are scored.
        assert_eq!(recall_at_k(&served(&["zz", "d", "a"]), &exact, 2), 0.0);
        // Fewer candidates than k: the denominator shrinks.
        assert_eq!(
            recall_at_k(&served(&["a", "b"]), &truth(&[("a", 2.0), ("b", 1.0)]), 10),
            1.0
        );
        assert_eq!(recall_at_k(&[], &[], 10), 1.0);
    }

    #[test]
    fn recall_is_tie_aware() {
        // b, c and d tie at the 2nd-largest size: any of them completes the top 2.
        let exact = truth(&[("a", 5.0), ("b", 3.0), ("c", 3.0), ("d", 3.0), ("e", 1.0)]);
        assert_eq!(recall_at_k(&served(&["a", "d"]), &exact, 2), 1.0);
        assert_eq!(recall_at_k(&served(&["c", "b"]), &exact, 2), 1.0);
        assert_eq!(recall_at_k(&served(&["a", "e"]), &exact, 2), 0.5);
    }

    #[test]
    fn relative_errors_skip_zero_and_unknown_truth() {
        let exact = truth(&[("a", 10.0), ("b", 0.0)]);
        let rows = vec![
            Served {
                table: "a".into(),
                column: "c".into(),
                join_size: 12.0,
            },
            Served {
                table: "b".into(),
                column: "c".into(),
                join_size: 3.0,
            },
            Served {
                table: "x".into(),
                column: "c".into(),
                join_size: 3.0,
            },
        ];
        let errs = join_size_rel_errors(&rows, &exact);
        assert_eq!(errs.len(), 1);
        assert!((errs[0] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn byte_split_accounts_for_every_byte() {
        let split = ByteSplit::from_entries(&[(100, 40), (120, 40)], 30, 400);
        assert_eq!(split.primary, 220);
        assert_eq!(split.companion, 80);
        assert_eq!(split.manifest, 30);
        assert_eq!(split.other, 70);
        assert_eq!(split.total(), 400);
        let mut cluster = split;
        cluster.add(&split);
        assert_eq!(cluster.total(), 800);
        // Two replicas of two logical columns: 400 bytes per logical column.
        assert_eq!(ByteSplit::per_col(cluster.total(), 2), 400.0);
        assert_eq!(ByteSplit::per_col(10, 0), 0.0);
        // A disk total below the accounted bytes never underflows.
        assert_eq!(ByteSplit::from_entries(&[(10, 0)], 5, 12).other, 0);
    }
}
