//! In-process replay of wire read requests through the public layers —
//! `protocol` decode, `WireQuery::to_table`, `QueryService` sketching and
//! querying, `Response::encode` — with a span around each call.  The same
//! path yields the reference answer every wire answer must equal byte for
//! byte.

use crate::trace::Tracer;
use ipsketch_join::{RankedColumn, SketchedColumn, DEFAULT_CASCADE_CONFIDENCE};
use ipsketch_serve::protocol::{
    Mode, Request, RequestBody, Response, ResponseBody, WireNote, WireQuery, WireRanked,
};
use ipsketch_serve::wire::Json;
use ipsketch_serve::{CascadeNote, QueryService};
use std::collections::HashMap;

/// A decoded read request's parameters.
struct ReadShape {
    id: Json,
    mode: Mode,
    k: usize,
    min_join_size: f64,
    cascade: bool,
    batch: bool,
    queries: Vec<WireQuery>,
}

fn read_shape(request: Request) -> Result<ReadShape, String> {
    let usize_k = |k: u64| usize::try_from(k).unwrap_or(usize::MAX);
    match request.body {
        RequestBody::Query {
            mode,
            k,
            min_join_size,
            cascade,
            query,
        } => Ok(ReadShape {
            id: request.id,
            mode,
            k: usize_k(k),
            min_join_size,
            cascade,
            batch: false,
            queries: vec![query],
        }),
        RequestBody::BatchQuery {
            mode,
            k,
            min_join_size,
            cascade,
            queries,
        } => Ok(ReadShape {
            id: request.id,
            mode,
            k: usize_k(k),
            min_join_size,
            cascade,
            batch: true,
            queries,
        }),
        other => Err(format!("`{}` is not a read request", other.op())),
    }
}

fn wire_note(note: Option<CascadeNote>) -> Option<WireNote> {
    note.map(|n| WireNote {
        code: n.code.to_string(),
        message: n.message,
    })
}

/// Answers sketched queries through the `QueryService` method the request
/// shape names (batch or single; flat, cascade, or related).
fn answer(
    service: &mut QueryService,
    shape: &ReadShape,
    k: usize,
    sketched: &[(SketchedColumn, Option<SketchedColumn>)],
) -> Result<(Vec<Vec<RankedColumn>>, Option<CascadeNote>), String> {
    let primaries = || sketched.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>();
    let err = |e: ipsketch_serve::CatalogError| e.to_string();
    match (shape.mode, shape.cascade, shape.batch) {
        (Mode::Joinable, true, true) => service
            .query_joinable_cascade_batch(sketched, k, DEFAULT_CASCADE_CONFIDENCE)
            .map_err(err),
        (Mode::Joinable, true, false) => {
            let (primary, companion) = &sketched[0];
            service
                .query_joinable_cascade(primary, companion.as_ref(), k, DEFAULT_CASCADE_CONFIDENCE)
                .map(|(ranking, note)| (vec![ranking], note))
                .map_err(err)
        }
        (Mode::Joinable, false, true) => service
            .query_joinable_batch(&primaries(), k)
            .map(|r| (r, None))
            .map_err(err),
        (Mode::Joinable, false, false) => service
            .query_joinable(&sketched[0].0, k)
            .map(|r| (vec![r], None))
            .map_err(err),
        (Mode::Related, _, true) => service
            .query_related_batch(&primaries(), k, shape.min_join_size)
            .map(|r| (r, None))
            .map_err(err),
        (Mode::Related, _, false) => service
            .query_related(&sketched[0].0, k, shape.min_join_size)
            .map(|r| (vec![r], None))
            .map_err(err),
    }
}

/// Encodes rankings as the response line the server sends for this shape.
fn encode_response(
    id: Json,
    batch: bool,
    rankings: &[Vec<RankedColumn>],
    note: Option<WireNote>,
) -> String {
    let wire: Vec<Vec<WireRanked>> = rankings
        .iter()
        .map(|r| r.iter().map(WireRanked::from).collect())
        .collect();
    let body = if batch {
        ResponseBody::Rankings {
            rankings: wire,
            note,
        }
    } else {
        ResponseBody::Ranking {
            ranking: wire.into_iter().next().unwrap_or_default(),
            note,
        }
    };
    Response {
        id,
        result: Ok(body),
    }
    .encode()
}

/// Replays one read request line in-process and returns the response line
/// the server must send.  Spans (children of `parent`, under request id
/// `request`) go to `tracer`: `inproc` around the whole replay, with
/// `protocol.decode`, `protocol.to_table`, `service.sketch_query`,
/// `service.sketch_companion`, `service.query` and `protocol.encode` inside.
///
/// # Errors
///
/// Any layer's failure, as text: the benchmark's inputs never fail, so an
/// error here is a correctness failure.
pub fn replay(
    service: &mut QueryService,
    line: &str,
    tracer: &mut Tracer,
    parent: Option<usize>,
    request: u64,
) -> Result<String, String> {
    let inproc = tracer.open("inproc", parent, request);
    let at = Some(inproc);
    let decoded = tracer
        .time("protocol.decode", at, request, || Request::decode(line))
        .map_err(|e| e.error.to_string())?;
    let shape = read_shape(decoded)?;
    let mut sketched = Vec::with_capacity(shape.queries.len());
    for query in &shape.queries {
        let table = tracer
            .time("protocol.to_table", at, request, || query.to_table())
            .map_err(|e| e.to_string())?;
        let primary = tracer
            .time("service.sketch_query", at, request, || {
                service.sketch_query(&table, &query.column)
            })
            .map_err(|e| e.to_string())?;
        let companion = if shape.cascade {
            tracer
                .time("service.sketch_companion", at, request, || {
                    service.sketch_query_companion(&table, &query.column)
                })
                .map_err(|e| e.to_string())?
        } else {
            None
        };
        sketched.push((primary, companion));
    }
    let (rankings, note) = tracer.time("service.query", at, request, || {
        answer(service, &shape, shape.k, &sketched)
    })?;
    let out = tracer.time("protocol.encode", at, request, || {
        encode_response(shape.id.clone(), shape.batch, &rankings, wire_note(note))
    });
    tracer.close(inproc);
    Ok(out)
}

/// Every candidate's ranking for each query of a read request (`k` lifted to
/// all candidates), for re-deriving the answer over any subset of the
/// catalog: each candidate's score is independent of the others, so the
/// top-k over a subset is this list filtered and truncated.
pub struct FullRanking {
    id: Json,
    k: usize,
    batch: bool,
    rankings: Vec<Vec<RankedColumn>>,
}

impl FullRanking {
    /// Ranks every candidate for `line` through the request's flat path.  A
    /// cascade request is ranked flat: its answer must equal the flat one.
    /// Query sketches are reused from `sketches` (keyed by query table name),
    /// since they depend only on the query and the catalog's configuration.
    ///
    /// # Errors
    ///
    /// Any layer's failure, as text.
    pub fn compute(
        service: &mut QueryService,
        line: &str,
        sketches: &mut HashMap<String, SketchedColumn>,
    ) -> Result<FullRanking, String> {
        let mut shape = read_shape(Request::decode(line).map_err(|e| e.error.to_string())?)?;
        shape.cascade = false;
        let mut sketched = Vec::with_capacity(shape.queries.len());
        for query in &shape.queries {
            let primary = match sketches.get(&query.table) {
                Some(primary) => primary.clone(),
                None => {
                    let table = query.to_table().map_err(|e| e.to_string())?;
                    let primary = service
                        .sketch_query(&table, &query.column)
                        .map_err(|e| e.to_string())?;
                    sketches.insert(query.table.clone(), primary.clone());
                    primary
                }
            };
            sketched.push((primary, None));
        }
        let (rankings, _) = answer(service, &shape, usize::MAX, &sketched)?;
        Ok(FullRanking {
            id: shape.id.clone(),
            k: shape.k,
            batch: shape.batch,
            rankings,
        })
    }

    /// The response line the server sends when the catalog holds exactly the
    /// candidates `visible` admits.
    pub fn expected(&self, visible: impl Fn(&str) -> bool) -> String {
        let rankings: Vec<Vec<RankedColumn>> = self
            .rankings
            .iter()
            .map(|r| {
                r.iter()
                    .filter(|row| visible(&row.id.table))
                    .take(self.k)
                    .cloned()
                    .collect()
            })
            .collect();
        encode_response(self.id.clone(), self.batch, &rankings, None)
    }
}
