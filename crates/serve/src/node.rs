//! The catalog-node backend of the network front end: one [`QueryService`] behind
//! a read-write lock, plus the map of live shard-partial ingest sessions.
//!
//! [`serve`] hands this backend to the transport in [`crate::server`], which owns
//! every socket, framer, and thread; this module only turns decoded requests into
//! responses.
//!
//! Lock discipline: queries take shared read access, ingests and compaction take
//! the write lock.  Every CPU-heavy step — sketching a query batch, sketching an
//! ingested table, sketching shard-partial submissions — runs *outside* the service
//! lock with immutable clones of the catalog's estimators (the configuration is
//! fixed for the catalog's lifetime, so the clones cannot go stale), so only
//! catalog commits ever wait on readers.
//!
//! Shard-partial ingest sessions ([`ShardedIngestState`]) live outside the service
//! lock in a session map: `announce`/`submit` take no service lock at all, so any
//! number of registration sessions make progress while queries are served; only
//! `ingest-finish` (the catalog commit) briefly takes the write lock.

use crate::protocol::{
    ErrorCode, InfoColumn, Mode, RequestBody, ResponseBody, WireCompaction, WireError, WireNote,
    WireQuery, WireRanked, WireServiceStats, WireSketch,
};
use crate::server::{Backend, FrontEnd, MaintenanceStats, ServerConfig, ServerHandle};
use crate::service::{QueryService, Scan, ShardedIngestState};
use ipsketch_join::{JoinEstimator, SketchedColumn, DEFAULT_CASCADE_CONFIDENCE};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Starts a server over `service` with the validated `config` and returns
/// immediately with its handle.  Bind addresses may carry port 0 for an ephemeral
/// port; read them back with [`ServerHandle::tcp_addr`] / [`ServerHandle::http_addr`].
///
/// Every cataloged column is hydrated into the index before the listeners open,
/// so requests never wait on a cold catalog.
///
/// # Errors
///
/// Returns the OS error if a listener cannot bind or the reactor cannot be set up,
/// and [`io::ErrorKind::InvalidData`] if a stored sketch fails to hydrate.
pub fn serve(mut service: QueryService, config: ServerConfig) -> io::Result<ServerHandle> {
    service
        .ensure_hydrated()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let node = Node {
        estimator: service.estimator().clone(),
        companion_estimator: service.companion_estimator().cloned(),
        service: RwLock::new(service),
        sessions: Mutex::new(SessionMap {
            next_id: 1,
            slots: HashMap::new(),
        }),
        session_ttl: config.session_ttl(),
    };
    crate::server::serve_backend(Arc::new(node), config)
}

/// One live shard-partial ingest session.  The state slot holds `None` while
/// `ingest-finish` consumes it, so a racing operation on the same session gets a
/// clean `unknown_session` instead of blocking or corrupting it.
struct SessionSlot {
    state: Arc<Mutex<Option<ShardedIngestState>>>,
    /// When the session was last looked up; maintenance expires sessions whose
    /// idle time exceeds the configured TTL.
    touched: Instant,
}

struct SessionMap {
    next_id: u64,
    slots: HashMap<u64, SessionSlot>,
}

impl SessionMap {
    /// Looks up a session's state, refreshing its idle clock.
    fn touch(&mut self, session: u64) -> Option<Arc<Mutex<Option<ShardedIngestState>>>> {
        self.slots.get_mut(&session).map(|slot| {
            slot.touched = Instant::now();
            Arc::clone(&slot.state)
        })
    }
}

/// The catalog-node backend.
struct Node {
    service: RwLock<QueryService>,
    /// Clone of the catalog's estimator: query and ingest sketching run with it
    /// outside any service lock.
    estimator: JoinEstimator,
    /// Clone of the catalog's companion (cheap-tier) estimator, when it stores
    /// one: cascade queries sketch their cheap-tier query outside any lock,
    /// exactly like the primary tier.
    companion_estimator: Option<JoinEstimator>,
    sessions: Mutex<SessionMap>,
    session_ttl: Duration,
}

impl Backend for Node {
    type Worker = ();
    const USES_RUNNER: bool = true;

    fn worker(&self) {}

    fn handle(
        &self,
        (): &mut (),
        body: &RequestBody,
        front: &FrontEnd,
    ) -> Result<ResponseBody, WireError> {
        match body {
            RequestBody::Info { server } => {
                let service = self.service.read();
                let stats = service.stats();
                Ok(ResponseBody::Info {
                    columns: service
                        .catalog()
                        .live_entries()
                        .map(|e| InfoColumn {
                            table: e.table.clone(),
                            column: e.column.clone(),
                            rows: e.rows,
                        })
                        .collect(),
                    stats: Some(WireServiceStats {
                        columns: stats.columns as u64,
                        hydrated: stats.hydrated as u64,
                        bytes_on_disk: stats.bytes_on_disk,
                        last_compaction: stats.last_compaction.as_ref().map(|report| {
                            WireCompaction {
                                removed_files: report.removed_files.len() as u64,
                                live_columns: report.live_columns as u64,
                            }
                        }),
                    }),
                    sketcher: stats.sketcher,
                    fingerprint: stats.fingerprint,
                    method: stats.method,
                    format: Some(stats.format),
                    server: server.then(|| front.metrics().snapshot()),
                    // Single catalog nodes never report cluster state; only the
                    // router synthesizes info responses with a `cluster` member.
                    cluster: None,
                })
            }
            RequestBody::Query {
                mode,
                k,
                min_join_size,
                cascade,
                query,
            } => {
                let (rankings, note) = self.run_batch(
                    std::slice::from_ref(query),
                    *mode,
                    *k,
                    *min_join_size,
                    *cascade,
                )?;
                let [ranking] = <[Vec<WireRanked>; 1]>::try_from(rankings)
                    .expect("one query yields one ranking");
                Ok(ResponseBody::Ranking { ranking, note })
            }
            RequestBody::BatchQuery {
                mode,
                k,
                min_join_size,
                cascade,
                queries,
            } => {
                let (rankings, note) =
                    self.run_batch(queries, *mode, *k, *min_join_size, *cascade)?;
                Ok(ResponseBody::Rankings { rankings, note })
            }
            RequestBody::Ingest { table, partitions } => {
                let table = table.to_table()?;
                // Sketch every column *outside* the service lock (the expensive
                // part — seconds for a large table), so queries keep flowing; only
                // the final registration commit below needs exclusive access.
                let mut sketched = Vec::new();
                let mut companions = Vec::new();
                let mut skipped = Vec::new();
                for column in table.columns() {
                    let result = match partitions {
                        Some(partitions) => self.estimator.sketch_column_partitioned(
                            &table,
                            &column.name,
                            usize::try_from(*partitions).unwrap_or(usize::MAX),
                        ),
                        None => self.estimator.sketch_column(&table, &column.name),
                    };
                    match result {
                        Ok(primary) => {
                            // The companion (cheap-tier) sketch is always built
                            // one-shot: its sketchers are mergeable, so the result
                            // is independent of the primary's partitioning.
                            let companion = match &self.companion_estimator {
                                Some(est) => Some(
                                    est.sketch_column(&table, &column.name)
                                        .map_err(WireError::from)?,
                                ),
                                None => None,
                            };
                            sketched.push(primary);
                            companions.push(companion);
                        }
                        Err(ipsketch_join::JoinError::EmptyColumn { .. }) => {
                            skipped.push(column.name.clone());
                        }
                        Err(other) => return Err(other.into()),
                    }
                }
                let report = self
                    .service
                    .write()
                    .register_sketched_with_companions(sketched, companions)
                    .map_err(WireError::from)?;
                front.request_maintenance();
                Ok(ResponseBody::Report {
                    registered: report.registered,
                    skipped,
                })
            }
            RequestBody::IngestBegin { table } => {
                let mut sessions = self.sessions.lock();
                let id = sessions.next_id;
                sessions.next_id += 1;
                sessions.slots.insert(
                    id,
                    SessionSlot {
                        state: Arc::new(Mutex::new(Some(
                            ShardedIngestState::new(table.clone())
                                .with_companion(self.companion_estimator.clone()),
                        ))),
                        touched: Instant::now(),
                    },
                );
                Ok(ResponseBody::Session(id))
            }
            RequestBody::IngestAnnounce { session, shard } => {
                self.with_session(*session, |state| {
                    state.announce(&shard.to_table()?).map_err(WireError::from)
                })?;
                Ok(ResponseBody::Session(*session))
            }
            RequestBody::IngestSubmit { session, shard } => {
                self.with_session(*session, |state| {
                    state
                        .submit(&self.estimator, &shard.to_table()?)
                        .map_err(WireError::from)
                })?;
                Ok(ResponseBody::Session(*session))
            }
            RequestBody::IngestFinish { session } => {
                let slot = self
                    .sessions
                    .lock()
                    .touch(*session)
                    .ok_or_else(|| unknown_session(*session))?;
                // Take the state out of its slot first, so a racing second finish
                // (or announce/submit) observes an empty slot — not a deadlock on
                // the service write lock below.
                let state = slot
                    .lock()
                    .take()
                    .ok_or_else(|| unknown_session(*session))?;
                // The session is consumed whether the commit succeeds or fails (its
                // partial sketches are moved into the registration); drop the map
                // entry.
                self.sessions.lock().slots.remove(session);
                let result = self.service.write().finish_sharded_ingest(state);
                let report = result.map_err(WireError::from)?;
                front.request_maintenance();
                Ok(ResponseBody::Report {
                    registered: report.registered,
                    skipped: report.skipped,
                })
            }
            RequestBody::DropColumn { table, column } => {
                self.service
                    .write()
                    .drop_column(table, column)
                    .map_err(WireError::from)?;
                // The tombstoned blob is garbage now; let the next maintenance
                // pass reclaim it.
                front.request_maintenance();
                Ok(ResponseBody::Dropped {
                    table: table.clone(),
                    column: column.clone(),
                })
            }
            RequestBody::ExportColumn { table, column } => {
                let service = self.service.read();
                let (rows, bytes) = service
                    .catalog()
                    .export_blob(table, column)
                    .map_err(WireError::from)?;
                Ok(ResponseBody::Sketch(WireSketch {
                    table: table.clone(),
                    column: column.clone(),
                    rows,
                    bytes,
                }))
            }
            RequestBody::ImportColumn { sketch } => {
                let registered = self
                    .service
                    .write()
                    .import_sketched_blob(&sketch.table, &sketch.column, &sketch.bytes)
                    .map_err(WireError::from)?;
                front.request_maintenance();
                Ok(ResponseBody::Report {
                    registered: if registered {
                        vec![(sketch.table.clone(), sketch.column.clone())]
                    } else {
                        Vec::new()
                    },
                    skipped: if registered {
                        Vec::new()
                    } else {
                        vec![sketch.column.clone()]
                    },
                })
            }
        }
    }

    /// Expires ingest sessions idle past the TTL — their folded partial sketches
    /// are the only server-side state a vanished client leaks — then compacts the
    /// catalog behind the write lock.
    fn maintain(&self) -> MaintenanceStats {
        let expired = {
            let mut sessions = self.sessions.lock();
            let before = sessions.slots.len();
            sessions
                .slots
                .retain(|_, slot| slot.touched.elapsed() <= self.session_ttl);
            (before - sessions.slots.len()) as u64
        };
        let compacted = self.service.write().compact();
        MaintenanceStats {
            passes: u64::from(compacted.is_ok()),
            files_removed: compacted
                .as_ref()
                .map_or(0, |report| report.removed_files.len() as u64),
            failures: u64::from(compacted.is_err()),
            sessions_expired: expired,
        }
    }
}

impl Node {
    /// Runs `f` on the live state of `session`, refreshing its idle clock.
    fn with_session<T>(
        &self,
        session: u64,
        f: impl FnOnce(&mut ShardedIngestState) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let slot = self
            .sessions
            .lock()
            .touch(session)
            .ok_or_else(|| unknown_session(session))?;
        let mut guard = slot.lock();
        let state = guard.as_mut().ok_or_else(|| unknown_session(session))?;
        f(state)
    }

    /// Sketches the query columns outside any lock, then ranks them as one batch
    /// through [`QueryService::rank`] under the read lock — the path every
    /// in-process `query_*` call takes, so wire answers are bit-identical to
    /// in-process answers.
    fn run_batch(
        &self,
        queries: &[WireQuery],
        mode: Mode,
        k: u64,
        min_join_size: f64,
        cascade: bool,
    ) -> Result<(Vec<Vec<WireRanked>>, Option<WireNote>), WireError> {
        if cascade && mode == Mode::Related {
            return Err(WireError::bad_request(
                "`cascade` applies to `joinable` queries only",
            ));
        }
        // The CPU-heavy phase of a large batch must never hold the read lock, or
        // it would stall ingest commits and compaction behind it (and, on
        // writer-preferring lock implementations, every later query behind those).
        let companion_est = self.companion_estimator.as_ref().filter(|_| cascade);
        let mut primaries: Vec<SketchedColumn> = Vec::with_capacity(queries.len());
        let mut companions: Vec<SketchedColumn> = Vec::new();
        for query in queries {
            let table = query.to_table()?;
            primaries.push(self.estimator.sketch_column(&table, &query.column)?);
            if let Some(est) = companion_est {
                companions.push(est.sketch_column(&table, &query.column)?);
            }
        }
        let scan = match mode {
            Mode::Joinable if cascade => Scan::Cascade {
                companions: companion_est.map(|_| companions.as_slice()),
                confidence: DEFAULT_CASCADE_CONFIDENCE,
            },
            Mode::Joinable => Scan::Joinable,
            Mode::Related => Scan::Related { min_join_size },
        };
        let k = usize::try_from(k).unwrap_or(usize::MAX);
        let (rankings, note) = self.service.read().rank(&primaries, k, scan)?;
        Ok((
            rankings
                .iter()
                .map(|ranking| ranking.iter().map(WireRanked::from).collect())
                .collect(),
            note.map(|note| WireNote {
                code: note.code.to_string(),
                message: note.message,
            }),
        ))
    }
}

fn unknown_session(session: u64) -> WireError {
    WireError {
        code: ErrorCode::UnknownSession,
        message: format!("no live ingest session {session} (finished, failed, or never begun)"),
    }
}
