//! Layer probes for the traced run: the workload's own data pushed through
//! single public functions of `core`, `join` and `serve::catalog`, timed from
//! outside.  They fill the chain kernel → estimate → scan → request.

use crate::deploy::open_hydrated;
use crate::stats::{mean, median};
use crate::workloads::{Inputs, ReadRequest, K};
use crate::Metric;
use ipsketch_core::Sketcher;
use ipsketch_data::Table;
use ipsketch_join::{ColumnVectors, JoinEstimator, SketchedColumn, DEFAULT_CASCADE_CONFIDENCE};
use ipsketch_serve::catalog::MANIFEST_FILE;
use ipsketch_serve::protocol::Mode;
use ipsketch_serve::QueryService;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Catalog entries sampled by the load/decode probes.
const ENTRY_SAMPLE: usize = 64;
/// Fresh tables per ingest/commit probe.
const INGEST_SAMPLE: usize = 4;
/// Query columns the per-pair estimate probe scans with.
const ESTIMATE_QUERIES: usize = 4;

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn us(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

fn query_column(table: &Table) -> &str {
    &table.columns()[0].name
}

/// Sketches the three Figure-3 vectors of every query column with `estimator`'s
/// sketcher: (milliseconds per column, microseconds per non-zero).
fn kernel_sketch(estimator: &JoinEstimator, queries: &[Table]) -> Result<(f64, f64), String> {
    let mut per_column = Vec::new();
    let mut total_us = 0.0;
    let mut total_nnz = 0usize;
    for query in queries {
        let vectors =
            ColumnVectors::from_table(query, query_column(query)).map_err(|e| e.to_string())?;
        let started = Instant::now();
        for v in [
            &vectors.key_indicator,
            &vectors.values,
            &vectors.squared_values,
        ] {
            black_box(estimator.sketcher().sketch(v).map_err(|e| e.to_string())?);
            total_nnz += v.nnz();
        }
        total_us += us(started);
        per_column.push(ms(started));
    }
    Ok((median(&per_column), total_us / total_nnz.max(1) as f64))
}

/// Runs every probe and returns its metrics.  `service` serves the workload's
/// catalog; `probe_root` is a private copy of it the write probes may grow.
///
/// # Errors
///
/// Any layer's failure, as text.
pub fn run(
    service: &QueryService,
    inputs: &Inputs,
    reads: &[ReadRequest],
    probe_root: &Path,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let estimator = service.estimator().clone();
    let companion = service
        .companion_estimator()
        .cloned()
        .ok_or("the default catalog shape has a companion tier")?;

    // core: the sketch kernels on the query columns.
    let (sketch_ms, us_per_nnz) = kernel_sketch(&estimator, &inputs.queries)?;
    let (companion_ms, _) = kernel_sketch(&companion, &inputs.queries)?;
    out.push(Metric::new("core.sketch_ms", sketch_ms, "ms"));
    out.push(Metric::new("core.sketch_us_per_nnz", us_per_nnz, "us"));
    out.push(Metric::new("core.companion_sketch_ms", companion_ms, "ms"));

    // join: whole-column sketching (vectors + three sketches).
    let mut column_ms = Vec::new();
    let mut sketched: Vec<(SketchedColumn, SketchedColumn)> = Vec::new();
    for query in &inputs.queries {
        let started = Instant::now();
        let primary = estimator
            .sketch_column(query, query_column(query))
            .map_err(|e| e.to_string())?;
        column_ms.push(ms(started));
        let cheap = companion
            .sketch_column(query, query_column(query))
            .map_err(|e| e.to_string())?;
        sketched.push((primary, cheap));
    }
    out.push(Metric::new(
        "join.sketch_column_ms",
        median(&column_ms),
        "ms",
    ));

    // join: the scan, per query of the workload's read mix.
    let index = service.index();
    let mut rank_ms = Vec::new();
    let mut full_estimates = Vec::new();
    let mut useful = Vec::new();
    let mut scored = Vec::new();
    let mut survivor_frac = Vec::new();
    for read in reads {
        for &q in &read.queries {
            let (primary, cheap) = &sketched[q];
            let started = Instant::now();
            let estimates = match (read.mode, read.cascade) {
                (Mode::Joinable, true) => {
                    let (_, stats) = index
                        .top_k_joinable_cascade(primary, cheap, K, DEFAULT_CASCADE_CONFIDENCE)
                        .map_err(|e| e.to_string())?;
                    scored.push(stats.candidates as f64);
                    survivor_frac.push(stats.survivors as f64 / stats.candidates.max(1) as f64);
                    stats.survivors
                }
                (Mode::Joinable, false) => {
                    black_box(
                        index
                            .top_k_joinable(primary, K)
                            .map_err(|e| e.to_string())?,
                    );
                    index.len()
                }
                (Mode::Related, _) => {
                    black_box(
                        index
                            .top_k_correlated(primary, K, 0.0)
                            .map_err(|e| e.to_string())?,
                    );
                    index.len()
                }
            };
            rank_ms.push(ms(started));
            full_estimates.push(estimates as f64);
            useful.push(K.min(index.len()) as f64 / estimates.max(1) as f64);
        }
    }
    out.push(Metric::new("join.rank_ms", median(&rank_ms), "ms"));
    out.push(Metric::new(
        "join.candidates_scored",
        mean(&scored),
        "count",
    ));
    out.push(Metric::new(
        "join.full_estimates",
        mean(&full_estimates),
        "count",
    ));
    out.push(Metric::new(
        "join.cascade_survivor_frac",
        mean(&survivor_frac),
        "frac",
    ));
    out.push(Metric::new(
        "join.useful_estimate_frac",
        mean(&useful),
        "frac",
    ));

    // join: one pair estimate, full statistics vs join size only.
    let candidates: Vec<&SketchedColumn> = index
        .columns()
        .map(|id| index.get(&id.table, &id.column))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let pairs = (ESTIMATE_QUERIES.min(sketched.len()) * candidates.len()).max(1) as f64;
    let started = Instant::now();
    for (primary, _) in sketched.iter().take(ESTIMATE_QUERIES) {
        for candidate in &candidates {
            black_box(
                estimator
                    .estimate(primary, candidate)
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    out.push(Metric::new("join.estimate_us", us(started) / pairs, "us"));
    let started = Instant::now();
    for (primary, _) in sketched.iter().take(ESTIMATE_QUERIES) {
        for candidate in &candidates {
            black_box(
                estimator
                    .estimate_join_size(primary, candidate)
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    out.push(Metric::new(
        "join.estimate_join_size_us",
        us(started) / pairs,
        "us",
    ));

    // join: one batch rank against the same queries ranked one by one.
    let primaries: Vec<SketchedColumn> = sketched.iter().map(|(p, _)| p.clone()).collect();
    let started = Instant::now();
    for primary in &primaries {
        black_box(
            index
                .top_k_joinable(primary, K)
                .map_err(|e| e.to_string())?,
        );
    }
    let singles = started.elapsed().as_secs_f64();
    let started = Instant::now();
    black_box(
        index
            .top_k_joinable_batch(&primaries, K)
            .map_err(|e| e.to_string())?,
    );
    let batch = started.elapsed().as_secs_f64();
    out.push(Metric::new(
        "join.batch_speedup",
        singles / batch.max(1e-9),
        "x",
    ));

    // catalog + core: loading and decoding stored blobs.
    let catalog = service.catalog();
    let entries: Vec<_> = catalog.live_entries().take(ENTRY_SAMPLE).cloned().collect();
    let mut load_us = Vec::new();
    let mut decode_us = Vec::new();
    for entry in &entries {
        let started = Instant::now();
        black_box(catalog.load_entry(entry).map_err(|e| e.to_string())?);
        load_us.push(us(started));
        let (_, blob) = catalog
            .export_blob(&entry.table, &entry.column)
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        black_box(SketchedColumn::from_bytes(&blob).map_err(|e| e.to_string())?);
        decode_us.push(us(started));
    }
    out.push(Metric::new("catalog.load_entry_us", median(&load_us), "us"));
    out.push(Metric::new("core.decode_us", median(&decode_us), "us"));

    out.extend(write_probes(inputs, probe_root)?);
    Ok(out)
}

/// Ingest and commit probes on the private catalog copy: `ingest_table` end
/// to end, and `register_sketched_with_companions` alone on pre-sketched
/// columns, with the bytes each commit writes.
fn write_probes(inputs: &Inputs, probe_root: &Path) -> Result<Vec<Metric>, String> {
    let mut service = open_hydrated(probe_root)?;
    let renamed = |prefix: &str, j: usize, t: &Table| {
        Table::new(
            format!("{prefix}_{j:02}"),
            t.keys().to_vec(),
            t.columns().to_vec(),
        )
        .expect("same shape")
    };
    let mut ingest_ms = Vec::new();
    for (j, table) in inputs.fresh.iter().take(INGEST_SAMPLE).enumerate() {
        let table = renamed("probe_ingest", j, table);
        let started = Instant::now();
        service.ingest_table(&table).map_err(|e| e.to_string())?;
        ingest_ms.push(ms(started));
    }
    let mut commit_ms = Vec::new();
    let mut written = Vec::new();
    for (j, table) in inputs.fresh.iter().take(INGEST_SAMPLE).enumerate() {
        let table = renamed("probe_commit", j, table);
        let mut primaries = Vec::new();
        let mut companions = Vec::new();
        for column in table.columns() {
            primaries.push(
                service
                    .sketch_query(&table, &column.name)
                    .map_err(|e| e.to_string())?,
            );
            companions.push(
                service
                    .sketch_query_companion(&table, &column.name)
                    .map_err(|e| e.to_string())?,
            );
        }
        let started = Instant::now();
        service
            .register_sketched_with_companions(primaries, companions)
            .map_err(|e| e.to_string())?;
        commit_ms.push(ms(started));
        let blobs: u64 = service
            .catalog()
            .live_entries()
            .filter(|e| e.table == table.name())
            .map(|e| e.blob_len + e.companion.as_ref().map_or(0, |c| c.blob_len))
            .sum();
        let manifest = std::fs::metadata(probe_root.join(MANIFEST_FILE))
            .map_err(|e| e.to_string())?
            .len();
        written.push((blobs + manifest) as f64);
    }
    Ok(vec![
        Metric::new("service.ingest_ms", median(&ingest_ms), "ms"),
        Metric::new("catalog.commit_ms", median(&commit_ms), "ms"),
        Metric::new(
            "catalog.bytes_written_per_commit",
            median(&written),
            "bytes",
        ),
    ])
}
