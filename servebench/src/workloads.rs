//! The four workloads: their generated inputs and the wire requests the
//! client sends.  Everything is a pure function of the workload seed.

use crate::client::Framer;
use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_core::SketcherSpec;
use ipsketch_data::text::CorpusConfig;
use ipsketch_data::tfidf::{TfIdfConfig, TfIdfVectorizer};
use ipsketch_data::{Column, DataLakeConfig, Table};
use ipsketch_serve::protocol::{Mode, Request, RequestBody, WireQuery, WireTable};
use ipsketch_serve::wire::Json;

/// Primary sketch budget in doubles: the CLI's documented `catalog init` budget.
pub const BUDGET: f64 = 400.0;
/// Sketcher seed: the CLI's `catalog init` default.  The workload seed only
/// drives the data.
pub const SKETCH_SEED: u64 = 1;
/// Results per query.
pub const K: usize = 10;

/// The default catalog shape: WMH primary at [`BUDGET`] (the default
/// companion tier is added by `QueryService::create`).
#[must_use]
pub fn primary_spec() -> SketcherSpec {
    AnySketcher::for_budget(SketchMethod::WeightedMinHash, BUDGET, SKETCH_SEED)
        .expect("the CLI budget fits WMH")
        .spec()
}

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single queries with long columns over line-TCP.
    LakeSearch,
    /// Batches of short documents over HTTP against a large index.
    DocSearch,
    /// A writer ingesting beside a reader querying.
    LakeIngest,
    /// Single queries through the router over three nodes.
    RoutedSearch,
}

impl Workload {
    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lake-search" => Some(Workload::LakeSearch),
            "doc-search" => Some(Workload::DocSearch),
            "lake-ingest" => Some(Workload::LakeIngest),
            "routed-search" => Some(Workload::RoutedSearch),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::LakeSearch => "lake-search",
            Workload::DocSearch => "doc-search",
            Workload::LakeIngest => "lake-ingest",
            Workload::RoutedSearch => "routed-search",
        }
    }

    /// The framing the client speaks.
    #[must_use]
    pub fn framer(self) -> Framer {
        match self {
            Workload::DocSearch => Framer::Http,
            _ => Framer::Tcp,
        }
    }

    /// Server worker threads per node: one busy worker beside the one client
    /// thread fits two cores; the ingest workload has two clients and needs a
    /// worker for each, or reads would queue behind whole ingests.
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            Workload::LakeIngest => 2,
            _ => 1,
        }
    }
}

/// Lake shape shared by the three lake workloads: worldbank-like tables with
/// two numeric columns over contiguous key windows.
const LAKE: DataLakeConfig = DataLakeConfig {
    tables: 32,
    columns_per_table: 2,
    min_rows: 100,
    max_rows: 300,
    key_universe: 1_500,
};
/// Held-out query columns for the lake workloads.
const LAKE_QUERIES: usize = 12;
/// Rows of every lake query column.  One length for all queries keeps the
/// latency distribution unimodal, so its median does not jump between the
/// clusters that queries of different lengths would form.
const LAKE_QUERY_ROWS: usize = 200;
/// Rows of each `routed-search` query column: every node sketches the query,
/// so shorter queries keep a run's reads above the tail-percentile floor while
/// sketching still dominates each node's work.
const ROUTED_QUERY_ROWS: usize = 100;
/// Rows of every fresh table, so each ingest costs the same.
const FRESH_ROWS: usize = 200;
/// Fresh tables ingested over the wire after the read window.  Every
/// workload ingests the same lake-shaped tables, so the ingest metrics
/// compare across workloads and stay bound by sketching, not by the fsyncs
/// of a tiny document's commit.
const TAIL_TABLES: usize = 24;
/// Fresh tables the `lake-ingest` writer ingests per second of `--seconds`
/// (fixed work: the count depends on the flag, never on measured speed).
const WRITER_TABLES_PER_SECOND: usize = 10;

/// Candidate documents in the `doc-search` index.
const DOCS: usize = 800;
/// Held-out query documents, sent in batches of [`DOC_BATCH`].
const DOC_QUERIES: usize = 32;
/// Documents per `batch-query` request.
const DOC_BATCH: usize = 4;

/// Generated inputs of one workload.
pub struct Inputs {
    /// Tables built into the catalog during set-up.
    pub catalog: Vec<Table>,
    /// Held-out single-column query tables.
    pub queries: Vec<Table>,
    /// Fresh tables ingested over the wire, in order.
    pub fresh: Vec<Table>,
}

fn renamed(table: &Table, name: String) -> Table {
    Table::new(name, table.keys().to_vec(), table.columns().to_vec()).expect("same shape")
}

/// Builds a workload's inputs from its seed.  `seconds` sizes the fixed
/// writer work of `lake-ingest`.
#[must_use]
pub fn inputs(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    match workload {
        Workload::DocSearch => doc_inputs(seed, fresh_tables(seed, TAIL_TABLES)),
        Workload::LakeSearch => lake_inputs(seed, LAKE.tables, TAIL_TABLES, LAKE_QUERY_ROWS),
        Workload::RoutedSearch => lake_inputs(seed, LAKE.tables, TAIL_TABLES, ROUTED_QUERY_ROWS),
        Workload::LakeIngest => {
            let writer = WRITER_TABLES_PER_SECOND * usize::try_from(seconds).unwrap_or(60);
            lake_inputs(seed, LAKE.tables / 2, writer, LAKE_QUERY_ROWS)
        }
    }
}

/// `fresh` new lake tables of [`FRESH_ROWS`] rows, from a stream independent
/// of the catalog's.
fn fresh_tables(seed: u64, fresh: usize) -> Vec<Table> {
    DataLakeConfig {
        tables: fresh.max(1),
        min_rows: FRESH_ROWS,
        max_rows: FRESH_ROWS,
        ..LAKE
    }
    .generate(seed ^ 0x5EED_F00D)
    .expect("valid lake config")
    .tables()
    .iter()
    .take(fresh)
    .enumerate()
    .map(|(i, t)| renamed(t, format!("fresh_{i:04}")))
    .collect()
}

/// `tables` lake tables for the catalog; as queries, held-out copies of the
/// first `query_rows` rows of lake columns at least that long (each has its
/// original as a real partner, plus every overlapping key window); and
/// `fresh` fresh tables.
fn lake_inputs(seed: u64, tables: usize, fresh: usize, query_rows: usize) -> Inputs {
    let catalog = DataLakeConfig { tables, ..LAKE }
        .generate(seed)
        .expect("valid lake config")
        .tables()
        .to_vec();
    // Longest first; a short lake cycles through its long-enough tables'
    // other columns rather than shortening any query.
    let mut sources: Vec<&Table> = catalog.iter().collect();
    sources.sort_by(|a, b| b.rows().cmp(&a.rows()).then_with(|| a.name().cmp(b.name())));
    let long_enough = sources.iter().filter(|t| t.rows() >= query_rows).count();
    sources.truncate(long_enough.max(1));
    let queries = (0..LAKE_QUERIES)
        .map(|i| {
            let t = sources[i % sources.len()];
            let source = &t.columns()[(i / sources.len()) % t.columns().len()];
            let rows = query_rows.min(t.rows());
            Table::new(
                format!("heldout_{i:02}"),
                t.keys()[..rows].to_vec(),
                vec![Column::new("q", source.values[..rows].to_vec())],
            )
            .expect("copy of a valid table")
        })
        .collect();
    Inputs {
        catalog,
        queries,
        fresh: fresh_tables(seed, fresh),
    }
}

/// Short TF-IDF documents (raw tf·idf weights, one single-column table per
/// document, keyed by term id): candidates and held-out queries.
fn doc_inputs(seed: u64, fresh: Vec<Table>) -> Inputs {
    let total = DOCS + DOC_QUERIES;
    let corpus = CorpusConfig {
        // Over-generate so documents that vectorize empty can be skipped.
        documents: total + 64,
        vocabulary: 2_000,
        length_log_mean: 3.0,
        length_log_std: 0.4,
        min_length: 12,
        max_length: 60,
        ..CorpusConfig::default()
    }
    .generate(seed)
    .expect("valid corpus config");
    let docs: Vec<Vec<String>> = corpus.documents.iter().map(|d| d.tokens.clone()).collect();
    let vectorizer = TfIdfVectorizer::fit(
        &docs,
        TfIdfConfig {
            bigrams: false,
            normalize: false,
            min_document_frequency: 1,
        },
    )
    .expect("vectorizer fits");
    let mut tables = vectorizer
        .vectorize_all(&docs)
        .into_iter()
        .filter(|v| v.nnz() > 0)
        .take(total)
        .enumerate()
        .map(|(i, v)| {
            Table::new(
                format!("doc_{i:05}"),
                v.indices().to_vec(),
                vec![Column::new("tfidf", v.values().to_vec())],
            )
            .expect("tf-idf vectors have distinct keys")
        });
    let catalog = tables.by_ref().take(DOCS).collect();
    let queries = tables
        .enumerate()
        .map(|(i, t)| renamed(&t, format!("query_{i:02}")))
        .collect();
    Inputs {
        catalog,
        queries,
        fresh,
    }
}

/// One distinct read request of the workload's cycle.
pub struct ReadRequest {
    /// The encoded request line.
    pub line: String,
    /// HTTP path (ignored over line-TCP).
    pub path: &'static str,
    /// Indices into [`Inputs::queries`], one per query column carried.
    pub queries: Vec<usize>,
    /// Ranking mode.
    pub mode: Mode,
    /// Whether the request asks for the cascade.
    pub cascade: bool,
    /// The index of the request carrying the same queries flat (`cascade:
    /// false`), whose answer a cascade answer must equal.
    pub flat_twin: Option<usize>,
}

fn wire_query(table: &Table) -> WireQuery {
    let column = &table.columns()[0];
    WireQuery {
        table: table.name().to_string(),
        column: column.name.clone(),
        keys: table.keys().to_vec(),
        values: column.values.clone(),
    }
}

/// The distinct read requests a workload cycles through, in send order: each
/// query (or batch) flat, then through the cascade, then (lake workloads with
/// a relatedness mix) by correlation.
#[must_use]
pub fn read_requests(workload: Workload, queries: &[Table]) -> Vec<ReadRequest> {
    // (query indices, mode, cascade, flat twin) in send order.
    let mut shapes: Vec<(Vec<usize>, Mode, bool, Option<usize>)> = Vec::new();
    let groups: Vec<Vec<usize>> = if workload == Workload::DocSearch {
        (0..queries.len())
            .collect::<Vec<_>>()
            .chunks(DOC_BATCH)
            .map(<[usize]>::to_vec)
            .collect()
    } else {
        (0..queries.len()).map(|q| vec![q]).collect()
    };
    for group in groups {
        let flat = shapes.len();
        shapes.push((group.clone(), Mode::Joinable, false, None));
        shapes.push((group.clone(), Mode::Joinable, true, Some(flat)));
        if matches!(workload, Workload::LakeSearch | Workload::LakeIngest) {
            shapes.push((group, Mode::Related, false, None));
        }
    }
    let batch = workload == Workload::DocSearch;
    shapes
        .into_iter()
        .enumerate()
        .map(|(id, (group, mode, cascade, flat_twin))| {
            let k = K as u64;
            let body = if batch {
                RequestBody::BatchQuery {
                    mode,
                    k,
                    min_join_size: 0.0,
                    cascade,
                    queries: group.iter().map(|&q| wire_query(&queries[q])).collect(),
                }
            } else {
                RequestBody::Query {
                    mode,
                    k,
                    min_join_size: 0.0,
                    cascade,
                    query: wire_query(&queries[group[0]]),
                }
            };
            ReadRequest {
                line: Request {
                    id: Json::u64(id as u64),
                    body,
                }
                .encode(),
                path: if batch {
                    "/v1/batch-query"
                } else {
                    "/v1/query"
                },
                queries: group,
                mode,
                cascade,
                flat_twin,
            }
        })
        .collect()
}

/// The `ingest` request line for one fresh table.
#[must_use]
pub fn ingest_line(table: &Table, id: u64) -> String {
    Request {
        id: Json::u64(id),
        body: RequestBody::Ingest {
            table: WireTable::from_table(table),
            partitions: None,
        },
    }
    .encode()
}
