//! Multi-node catalog router: one process that fronts N independent catalog
//! nodes and speaks the same line-JSON protocol as a single `ipsketch serve`.
//!
//! The router owns no sketches.  It partitions `(table, column)` keys across
//! the configured nodes with rendezvous (highest-random-weight) hashing,
//! replicating every key to `replicas` owners so reads survive a node loss:
//!
//! * **Writes** (`ingest`, the `ingest-begin`/`announce`/`submit`/`finish`
//!   session ops, `import-column`) are split column-wise: each owner node
//!   receives the shard's full key vector plus only the columns it owns.  The
//!   announced-norm `Σv²` exchange therefore runs as a real cross-node round —
//!   the router maps its client-facing session onto one lazily-opened session
//!   per involved node and forwards announce/submit sub-shards in arrival
//!   order, so every node seals exactly the norms its columns need.
//! * **Reads** (`query`, `batch-query`, `info`) fan out to every node and the
//!   per-node top-k lists are merged under the deterministic total order
//!   (score descending via `total_cmp`, then `(table, column)` ascending),
//!   deduplicated by key, and truncated to `k`.  Because replicas register
//!   bit-identical blobs, a node loss changes nothing the merge can observe:
//!   the surviving replica's entries are byte-identical.
//! * **`drop-column`** fans to every node (placement-agnostic: operators may
//!   have loaded nodes out-of-band) and succeeds when any node dropped the
//!   key.
//!
//! Every node session runs under a [`RetryPolicy`]: per-attempt connect,
//! read, and write deadlines plus capped exponential backoff with
//! deterministic jitter.  Only idempotent reads (`info`, `query`,
//! `batch-query`, `export-column`) retry — a timed-out write has an unknown
//! outcome, so it fails fast with `deadline_exceeded` instead.  Nodes that
//! fail `failure_threshold` consecutive attempts are demoted out of the read
//! fan-out; every maintenance pass re-checks demoted nodes with `info` and
//! promotes them back.  Demotions, promotions, and probe counts surface in
//! the `cluster` member of `info`.
//!
//! The router is a backend of the shared network front end
//! ([`crate::server`]): [`serve_router`] runs it on the same reactor, framers,
//! worker queue, overload shedding, and maintenance thread as a catalog node.
//! Each worker owns a private pool of node connections, and the
//! maintenance interval is [`RouterConfig::probe_interval`].
//!
//! The node list itself is swappable at runtime ([`Router::set_nodes`]):
//! in-flight requests and open ingest sessions pin the topology they started
//! on, so a live rebalance (copy blobs with [`rebalance`], then flip the
//! router) never splits one request across two placements.
//!
//! `docs/PROTOCOL.md` § Cluster routing and § Timeouts, retries, and
//! idempotency are the normative descriptions; `tests/cluster_loopback.rs`
//! and `tests/chaos_loopback.rs` assert a faulty cluster answers
//! bit-identically to a single healthy node.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use crate::protocol::{
    ErrorCode, InfoColumn, Request, RequestBody, Response, ResponseBody, WireClusterStats,
    WireError, WireNodeStats, WireRanked, WireServiceStats, WireSketch, WireTable,
};
use crate::server::{
    Backend, FrontEnd, MaintenanceStats, ServerConfig, ServerHandle, DEFAULT_MAX_LINE_BYTES,
};
use crate::wire::Json;

/// Default replication factor: every key lives on two nodes, so the cluster
/// keeps answering (bit-identically) with any single node down.
pub const DEFAULT_REPLICAS: usize = 2;

/// How a node is spoken to on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeTransport {
    /// Newline-delimited JSON over a raw TCP connection.
    Tcp,
    /// The HTTP/1.1 binding (`POST /v1/<op>`, identical JSON bodies).
    Http,
}

impl NodeTransport {
    /// The stable label reported in [`WireNodeStats::transport`].
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NodeTransport::Tcp => "tcp",
            NodeTransport::Http => "http",
        }
    }
}

/// One catalog node the router fronts.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// `host:port` of the node's listener for the chosen transport.
    pub addr: String,
    /// Which listener `addr` points at.
    pub transport: NodeTransport,
}

impl NodeSpec {
    /// A line-TCP node.
    #[must_use]
    pub fn tcp(addr: impl Into<String>) -> NodeSpec {
        NodeSpec {
            addr: addr.into(),
            transport: NodeTransport::Tcp,
        }
    }

    /// An HTTP/1.1 node.
    #[must_use]
    pub fn http(addr: impl Into<String>) -> NodeSpec {
        NodeSpec {
            addr: addr.into(),
            transport: NodeTransport::Http,
        }
    }
}

/// Why a [`Router`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterConfigError {
    /// No nodes were configured.
    NoNodes,
    /// `replicas` was zero.
    ZeroReplicas,
    /// The health `failure_threshold` was zero (a node could never be
    /// considered healthy).
    ZeroFailureThreshold,
    /// [`RetryPolicy::read_attempts`] was zero (no read could ever run).
    ZeroReadAttempts,
}

impl fmt::Display for RouterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterConfigError::NoNodes => f.write_str("a router needs at least one catalog node"),
            RouterConfigError::ZeroReplicas => f.write_str("replication factor must be at least 1"),
            RouterConfigError::ZeroFailureThreshold => {
                f.write_str("failure threshold must be at least 1")
            }
            RouterConfigError::ZeroReadAttempts => f.write_str("read attempts must be at least 1"),
        }
    }
}

impl std::error::Error for RouterConfigError {}

/// Murmur3's 64-bit avalanche finalizer: every input bit flips every output
/// bit with probability ~1/2.  Shared by the rendezvous weight (which needs
/// the mixing on top of FNV) and the retry backoff jitter (which needs
/// deterministic pseudo-randomness without a clock or RNG).
fn fmix64(mut hash: u64) -> u64 {
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    hash
}

/// The normative rendezvous weight of `docs/PROTOCOL.md` § Cluster routing:
/// 64-bit FNV-1a over `addr NUL table NUL column`, passed through a 64-bit
/// avalanche finalizer (FNV alone barely mixes a trailing-byte difference in
/// the node address into the high bits the comparison is decided by).
fn rendezvous_weight(addr: &str, table: &str, column: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    };
    addr.bytes().for_each(&mut fold);
    fold(0);
    table.bytes().for_each(&mut fold);
    fold(0);
    column.bytes().for_each(&mut fold);
    fmix64(hash)
}

/// The rendezvous owners of `(table, column)`: node indices ordered by
/// descending rendezvous weight (ties broken by the lower index),
/// truncated to `replicas`.  Pure: every router over the same node list
/// computes the same placement, and removing a node only reassigns the keys
/// that node owned.
#[must_use]
pub fn owners(nodes: &[NodeSpec], replicas: usize, table: &str, column: &str) -> Vec<usize> {
    let mut ranked: Vec<(u64, usize)> = nodes
        .iter()
        .enumerate()
        .map(|(idx, node)| (rendezvous_weight(&node.addr, table, column), idx))
        .collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    ranked.truncate(replicas.min(nodes.len()));
    ranked.into_iter().map(|(_, idx)| idx).collect()
}

/// Merges per-node rankings into the deterministic total order (score
/// descending via `total_cmp`, then `(table, column)` ascending), deduplicated
/// by `(table, column)` — replicas return bit-identical rows, so keeping the
/// first occurrence is exact — and truncated to `k`.
fn merge_rankings(per_node: Vec<Vec<WireRanked>>, k: u64) -> Vec<WireRanked> {
    let mut all: Vec<WireRanked> = per_node.into_iter().flatten().collect();
    all.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.table.cmp(&b.table))
            .then_with(|| a.column.cmp(&b.column))
    });
    let mut seen = BTreeSet::new();
    all.retain(|r| seen.insert((r.table.clone(), r.column.clone())));
    all.truncate(usize::try_from(k).unwrap_or(usize::MAX));
    all
}

/// Merges per-node advisory notes into the lexicographically-first one by
/// `(code, message)`.  Node order must not leak into the merged answer (it
/// varies across topologies and failovers), and in practice every node that
/// attaches a note attaches the identical fixed-message one, so the merge is a
/// deterministic pick — routed answers stay byte-identical to single-node twins.
fn merge_notes(mut notes: Vec<crate::protocol::WireNote>) -> Option<crate::protocol::WireNote> {
    notes.sort_by(|a, b| a.code.cmp(&b.code).then_with(|| a.message.cmp(&b.message)));
    notes.into_iter().next()
}

/// Per-attempt deadlines and the retry/backoff schedule every router→node
/// session runs under.
///
/// The policy is deliberately clock- and RNG-free: backoff jitter is derived
/// from a Murmur3-finalizer hash over `(jitter_seed, salt, attempt)`, so two
/// routers with
/// the same seed produce the same schedule — reproducible in tests, and
/// still decorrelated across nodes because the node index salts the hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Deadline for establishing a TCP connection to a node.
    pub connect_timeout: Duration,
    /// Per-attempt deadline for reading a node's response
    /// (`TcpStream::set_read_timeout`).
    pub read_timeout: Duration,
    /// Per-attempt deadline for writing a request to a node
    /// (`TcpStream::set_write_timeout`).
    pub write_timeout: Duration,
    /// Total attempts an idempotent read gets against one node (first try
    /// included).  Non-idempotent ops always get exactly one attempt.
    pub read_attempts: u32,
    /// Backoff before retry `n` starts at `backoff_base * 2^n`…
    pub backoff_base: Duration,
    /// …and is capped here.
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            read_attempts: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// A policy with every deadline set to `timeout` (attempts and backoff
    /// keep their defaults) — the CLI's `--read-timeout-ms` shorthand.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> RetryPolicy {
        RetryPolicy {
            connect_timeout: timeout,
            read_timeout: timeout,
            write_timeout: timeout,
            ..RetryPolicy::default()
        }
    }

    /// The pause before retry number `attempt` (0-based) against the node
    /// salted by `salt`: capped exponential `base * 2^attempt`, jittered
    /// deterministically into `[exp/2, exp]`.
    #[must_use]
    pub fn backoff(&self, salt: u64, attempt: u32) -> Duration {
        let base = self.backoff_base.as_nanos();
        let cap = self.backoff_cap.as_nanos();
        let exp = u64::try_from((base << attempt.min(32)).min(cap)).unwrap_or(u64::MAX);
        let half = exp / 2;
        let hash = fmix64(self.jitter_seed ^ salt.rotate_left(17) ^ u64::from(attempt));
        Duration::from_nanos(half + hash % (exp - half + 1))
    }
}

/// Everything a [`Router`] can be configured with; built fluently and handed
/// to [`Router::with_config`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    nodes: Vec<NodeSpec>,
    replicas: usize,
    retry: RetryPolicy,
    failure_threshold: u64,
    probe_interval: Option<Duration>,
    session_ttl: Duration,
}

impl RouterConfig {
    /// A config over `nodes` with the defaults: [`DEFAULT_REPLICAS`], the
    /// default [`RetryPolicy`], demotion after 1 failed attempt, a 1-second
    /// health probe, and a 15-minute ingest-session TTL.
    #[must_use]
    pub fn new(nodes: Vec<NodeSpec>) -> RouterConfig {
        RouterConfig {
            nodes,
            replicas: DEFAULT_REPLICAS,
            retry: RetryPolicy::default(),
            failure_threshold: 1,
            probe_interval: Some(Duration::from_secs(1)),
            session_ttl: Duration::from_secs(15 * 60),
        }
    }

    /// Sets the replication factor (clamped to the node count at use).
    #[must_use]
    pub fn replicas(mut self, replicas: usize) -> RouterConfig {
        self.replicas = replicas;
        self
    }

    /// Sets the deadline/retry policy for node sessions.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> RouterConfig {
        self.retry = retry;
        self
    }

    /// Sets how many consecutive failed attempts demote a node.
    #[must_use]
    pub fn failure_threshold(mut self, threshold: u64) -> RouterConfig {
        self.failure_threshold = threshold;
        self
    }

    /// Sets the maintenance interval: how often demoted nodes are probed and
    /// idle ingest sessions reaped (`None` disables periodic passes).
    #[must_use]
    pub fn probe_interval(mut self, interval: Option<Duration>) -> RouterConfig {
        self.probe_interval = interval;
        self
    }

    /// Sets how long an idle router-side ingest session lives before a
    /// maintenance pass reaps it.
    #[must_use]
    pub fn session_ttl(mut self, ttl: Duration) -> RouterConfig {
        self.session_ttl = ttl;
        self
    }
}

/// Per-node health and error counters, shared across router connections.
#[derive(Debug)]
struct NodeState {
    errors: AtomicU64,
    consecutive: AtomicU64,
    demotions: AtomicU64,
    promotions: AtomicU64,
    probes: AtomicU64,
    healthy: AtomicBool,
}

impl NodeState {
    fn new() -> NodeState {
        NodeState {
            errors: AtomicU64::new(0),
            consecutive: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            healthy: AtomicBool::new(true),
        }
    }

    /// One failed attempt: bump the error counters and demote the node once
    /// its consecutive-failure streak reaches `threshold`.
    fn record_error(&self, threshold: u64) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        let streak = self.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= threshold && self.healthy.swap(false, Ordering::Relaxed) {
            self.demotions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One successful round trip: the streak resets and a demoted node is
    /// promoted back into the fan-out.
    fn record_ok(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
        if !self.healthy.swap(true, Ordering::Relaxed) {
            self.promotions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One immutable node list plus its health state.  The router swaps whole
/// topologies atomically ([`Router::set_nodes`]); requests and sessions pin
/// the `Arc` they started with, so indices never dangle mid-flight.
#[derive(Debug)]
struct Topology {
    nodes: Vec<NodeSpec>,
    states: Vec<NodeState>,
}

impl Topology {
    fn new(nodes: Vec<NodeSpec>) -> Topology {
        let states = nodes.iter().map(|_| NodeState::new()).collect();
        Topology { nodes, states }
    }
}

/// Cluster-wide router counters backing the `info` response's `cluster`
/// member.
#[derive(Debug)]
struct RouterStats {
    requests: AtomicU64,
    fanouts: AtomicU64,
    failovers: AtomicU64,
}

/// A router-side sharded-ingest session: the client-facing id maps onto one
/// lazily-opened session per node that owns any announced column.
#[derive(Debug)]
struct RouterSession {
    /// The logical table every shard must carry (checked at the router so the
    /// error does not depend on which node sees the mismatch first).
    table: String,
    /// The topology the session opened under.  A concurrent
    /// [`Router::set_nodes`] must not re-partition a half-announced ingest,
    /// so every shard of this session routes on this snapshot.
    topo: Arc<Topology>,
    /// Node index → that node's session id, opened at first contact.  A
    /// `BTreeMap` so `ingest-finish` fans out in deterministic node order.
    node_sessions: BTreeMap<usize, u64>,
    /// Last activity; idle sessions past the TTL are reaped by maintenance.
    touched: Instant,
}

/// A node call outcome the router distinguishes: the node answered with a
/// protocol error (forwarded verbatim) versus the node was unreachable
/// (candidate for failover on reads; on writes `timed_out` picks between
/// `deadline_exceeded` and `io`).
enum NodeError {
    Remote(WireError),
    Unreachable { message: String, timed_out: bool },
}

/// Whether `body` may be retried / failed over without changing state: the
/// read-only ops.  Everything else gets exactly one attempt — a timed-out
/// write has an unknown outcome and must surface as `deadline_exceeded`.
fn is_idempotent(body: &RequestBody) -> bool {
    matches!(
        body,
        RequestBody::Info { .. }
            | RequestBody::Query { .. }
            | RequestBody::BatchQuery { .. }
            | RequestBody::ExportColumn { .. }
    )
}

/// Whether an I/O failure was deadline-flavored (the op may have executed)
/// rather than connectivity-flavored (it surely did not start).
fn is_timeout(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The routing core: placement, fan-out, merge, health, and session mapping.
/// Owns no sockets — each front-end worker brings its own node-connection pool.
#[derive(Debug)]
pub struct Router {
    topology: RwLock<Arc<Topology>>,
    replicas: usize,
    retry: RetryPolicy,
    failure_threshold: u64,
    probe_interval: Option<Duration>,
    session_ttl: Duration,
    stats: RouterStats,
    sessions: Mutex<HashMap<u64, Arc<Mutex<RouterSession>>>>,
    next_session: AtomicU64,
}

impl Router {
    /// Builds a router over `nodes` with the given replication factor and
    /// every other knob at its [`RouterConfig`] default.
    ///
    /// # Errors
    ///
    /// [`RouterConfigError`] when `nodes` is empty or `replicas` is zero.
    pub fn new(nodes: Vec<NodeSpec>, replicas: usize) -> Result<Router, RouterConfigError> {
        Router::with_config(RouterConfig::new(nodes).replicas(replicas))
    }

    /// Builds a router from a full [`RouterConfig`].
    ///
    /// # Errors
    ///
    /// [`RouterConfigError`] when the config is degenerate (no nodes, zero
    /// replicas, zero failure threshold, zero read attempts).
    pub fn with_config(config: RouterConfig) -> Result<Router, RouterConfigError> {
        if config.nodes.is_empty() {
            return Err(RouterConfigError::NoNodes);
        }
        if config.replicas == 0 {
            return Err(RouterConfigError::ZeroReplicas);
        }
        if config.failure_threshold == 0 {
            return Err(RouterConfigError::ZeroFailureThreshold);
        }
        if config.retry.read_attempts == 0 {
            return Err(RouterConfigError::ZeroReadAttempts);
        }
        Ok(Router {
            topology: RwLock::new(Arc::new(Topology::new(config.nodes))),
            replicas: config.replicas,
            retry: config.retry,
            failure_threshold: config.failure_threshold,
            probe_interval: config.probe_interval,
            session_ttl: config.session_ttl,
            stats: RouterStats {
                requests: AtomicU64::new(0),
                fanouts: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
            },
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
        })
    }

    /// The current topology snapshot; callers hold the `Arc` for the whole
    /// operation so a concurrent [`set_nodes`](Self::set_nodes) cannot shift
    /// indices under them.
    fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.topology.read().expect("topology lock"))
    }

    /// The current node list.
    #[must_use]
    pub fn nodes(&self) -> Vec<NodeSpec> {
        self.topology().nodes.clone()
    }

    /// The effective replication factor (configured, clamped to the current
    /// node count).
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas.min(self.topology().nodes.len())
    }

    /// The deadline/retry policy node sessions run under.
    #[must_use]
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Atomically replaces the node list (fresh health state, placement
    /// recomputed per request).  In-flight requests and open ingest sessions
    /// finish on the topology they started with.
    ///
    /// # Errors
    ///
    /// [`RouterConfigError::NoNodes`] when `nodes` is empty.
    pub fn set_nodes(&self, nodes: Vec<NodeSpec>) -> Result<(), RouterConfigError> {
        if nodes.is_empty() {
            return Err(RouterConfigError::NoNodes);
        }
        *self.topology.write().expect("topology lock") = Arc::new(Topology::new(nodes));
        Ok(())
    }

    /// A wire-ready snapshot of the cluster counters.
    #[must_use]
    pub fn cluster_stats(&self) -> WireClusterStats {
        let topo = self.topology();
        WireClusterStats {
            replicas: self.replicas.min(topo.nodes.len()) as u64,
            requests: self.stats.requests.load(Ordering::Relaxed),
            fanouts: self.stats.fanouts.load(Ordering::Relaxed),
            failovers: self.stats.failovers.load(Ordering::Relaxed),
            nodes: topo
                .nodes
                .iter()
                .zip(&topo.states)
                .map(|(spec, state)| WireNodeStats {
                    addr: spec.addr.clone(),
                    transport: spec.transport.label().to_string(),
                    healthy: state.healthy.load(Ordering::Relaxed),
                    errors: state.errors.load(Ordering::Relaxed),
                    demotions: state.demotions.load(Ordering::Relaxed),
                    promotions: state.promotions.load(Ordering::Relaxed),
                    probes: state.probes.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Column indices of `columns` grouped by owner node under `topo`
    /// (preserving the shard's column order inside each group).
    fn partition_on(
        &self,
        topo: &Topology,
        table: &str,
        columns: &[crate::protocol::WireColumn],
    ) -> Vec<Vec<usize>> {
        let mut per_node = vec![Vec::new(); topo.nodes.len()];
        for (col_idx, column) in columns.iter().enumerate() {
            for node in owners(&topo.nodes, self.replicas, table, &column.name) {
                per_node[node].push(col_idx);
            }
        }
        per_node
    }

    #[cfg(test)]
    fn partition(&self, table: &str, columns: &[crate::protocol::WireColumn]) -> Vec<Vec<usize>> {
        self.partition_on(&self.topology(), table, columns)
    }

    #[cfg(test)]
    fn record_node_error(&self, idx: usize) {
        self.topology().states[idx].record_error(self.failure_threshold);
    }

    /// The sub-shard node `cols` sees: full keys, owned columns only.
    fn subset(table: &WireTable, cols: &[usize]) -> WireTable {
        WireTable {
            name: table.name.clone(),
            keys: table.keys.clone(),
            columns: cols.iter().map(|&i| table.columns[i].clone()).collect(),
        }
    }

    /// Executes one decoded request against the cluster.  `pool` is the
    /// calling worker's private set of node connections.  Node-side
    /// [`WireError`]s are forwarded verbatim; unreachable nodes surface as `io`
    /// (or `deadline_exceeded` for timed-out writes), reads only after every
    /// replica failed.
    fn execute(
        &self,
        body: &RequestBody,
        pool: &mut NodePool,
        front: &FrontEnd,
    ) -> Result<ResponseBody, WireError> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let topo = self.topology();
        match body {
            RequestBody::Info { server } => self.info(&topo, *server, pool, front),
            RequestBody::Query { k, .. } => {
                let responses = self.fan_read(&topo, pool, body)?;
                let mut per_node = Vec::with_capacity(responses.len());
                let mut notes = Vec::new();
                for resp in responses {
                    match resp {
                        ResponseBody::Ranking { ranking, note } => {
                            per_node.push(ranking);
                            notes.extend(note);
                        }
                        _ => return Err(internal("node answered query with a non-ranking body")),
                    }
                }
                Ok(ResponseBody::Ranking {
                    ranking: merge_rankings(per_node, *k),
                    note: merge_notes(notes),
                })
            }
            RequestBody::BatchQuery { k, queries, .. } => {
                let responses = self.fan_read(&topo, pool, body)?;
                let mut per_node = Vec::with_capacity(responses.len());
                let mut notes = Vec::new();
                for resp in responses {
                    match resp {
                        ResponseBody::Rankings { rankings, note } => {
                            if rankings.len() != queries.len() {
                                return Err(internal(
                                    "node answered batch-query with a mis-sized batch",
                                ));
                            }
                            per_node.push(rankings);
                            notes.extend(note);
                        }
                        _ => {
                            return Err(internal("node answered batch-query with a non-batch body"))
                        }
                    }
                }
                let merged = (0..queries.len())
                    .map(|i| {
                        merge_rankings(per_node.iter().map(|node| node[i].clone()).collect(), *k)
                    })
                    .collect();
                Ok(ResponseBody::Rankings {
                    rankings: merged,
                    note: merge_notes(notes),
                })
            }
            RequestBody::Ingest { table, partitions } => {
                self.stats.fanouts.fetch_add(1, Ordering::Relaxed);
                let per_node = self.partition_on(&topo, &table.name, &table.columns);
                let mut registered = BTreeSet::new();
                let mut skipped = BTreeSet::new();
                for (idx, cols) in per_node.iter().enumerate() {
                    if cols.is_empty() {
                        continue;
                    }
                    let sub = RequestBody::Ingest {
                        table: Self::subset(table, cols),
                        partitions: *partitions,
                    };
                    match self.call_write(&topo, pool, idx, &sub)? {
                        ResponseBody::Report {
                            registered: r,
                            skipped: s,
                        } => {
                            registered.extend(r);
                            skipped.extend(s);
                        }
                        _ => return Err(internal("node answered ingest with a non-report body")),
                    }
                }
                Ok(ResponseBody::Report {
                    registered: registered.into_iter().collect(),
                    skipped: skipped.into_iter().collect(),
                })
            }
            RequestBody::IngestBegin { table } => {
                let id = self.next_session.fetch_add(1, Ordering::Relaxed) + 1;
                self.sessions.lock().expect("sessions lock").insert(
                    id,
                    Arc::new(Mutex::new(RouterSession {
                        table: table.clone(),
                        topo: Arc::clone(&topo),
                        node_sessions: BTreeMap::new(),
                        touched: Instant::now(),
                    })),
                );
                Ok(ResponseBody::Session(id))
            }
            RequestBody::IngestAnnounce { session, shard } => {
                self.session_shard_op(pool, *session, shard, true)
            }
            RequestBody::IngestSubmit { session, shard } => {
                self.session_shard_op(pool, *session, shard, false)
            }
            RequestBody::IngestFinish { session } => {
                let entry = self
                    .sessions
                    .lock()
                    .expect("sessions lock")
                    .remove(session)
                    .ok_or_else(|| unknown_session(*session))?;
                let state = entry.lock().expect("session lock");
                self.stats.fanouts.fetch_add(1, Ordering::Relaxed);
                let session_topo = Arc::clone(&state.topo);
                let mut registered = BTreeSet::new();
                let mut skipped = BTreeSet::new();
                for (&idx, &node_session) in &state.node_sessions {
                    let finish = RequestBody::IngestFinish {
                        session: node_session,
                    };
                    match self.call_write(&session_topo, pool, idx, &finish)? {
                        ResponseBody::Report {
                            registered: r,
                            skipped: s,
                        } => {
                            registered.extend(r);
                            skipped.extend(s);
                        }
                        _ => {
                            return Err(internal(
                                "node answered ingest-finish with a non-report body",
                            ))
                        }
                    }
                }
                Ok(ResponseBody::Report {
                    registered: registered.into_iter().collect(),
                    skipped: skipped.into_iter().collect(),
                })
            }
            RequestBody::DropColumn { table, column } => {
                self.drop_column(&topo, pool, table, column)
            }
            RequestBody::ExportColumn { table, column } => {
                self.export_column(&topo, pool, table, column)
            }
            RequestBody::ImportColumn { sketch } => self.import_column(&topo, pool, sketch),
        }
    }

    /// `ingest-announce` / `ingest-submit`: partition the shard column-wise
    /// and forward each owner its sub-shard under that node's session.
    fn session_shard_op(
        &self,
        pool: &mut NodePool,
        session: u64,
        shard: &WireTable,
        announce: bool,
    ) -> Result<ResponseBody, WireError> {
        let entry = self
            .sessions
            .lock()
            .expect("sessions lock")
            .get(&session)
            .cloned()
            .ok_or_else(|| unknown_session(session))?;
        // The per-session lock serialises shards racing in over different
        // connections, so every node folds announces in one well-defined
        // order (the same guarantee a single node gives).
        let mut state = entry.lock().expect("session lock");
        state.touched = Instant::now();
        if shard.name != state.table {
            return Err(WireError {
                code: ErrorCode::Incompatible,
                message: format!(
                    "shard is for table `{}` but session {session} ingests `{}`",
                    shard.name, state.table
                ),
            });
        }
        self.stats.fanouts.fetch_add(1, Ordering::Relaxed);
        let topo = Arc::clone(&state.topo);
        let per_node = self.partition_on(&topo, &shard.name, &shard.columns);
        for (idx, cols) in per_node.iter().enumerate() {
            if cols.is_empty() {
                continue;
            }
            let node_session = match state.node_sessions.get(&idx) {
                Some(&id) => id,
                None => {
                    let begin = RequestBody::IngestBegin {
                        table: state.table.clone(),
                    };
                    let id = match self.call_write(&topo, pool, idx, &begin)? {
                        ResponseBody::Session(id) => id,
                        _ => {
                            return Err(internal(
                                "node answered ingest-begin with a non-session body",
                            ))
                        }
                    };
                    state.node_sessions.insert(idx, id);
                    id
                }
            };
            let sub_shard = Self::subset(shard, cols);
            let forwarded = if announce {
                RequestBody::IngestAnnounce {
                    session: node_session,
                    shard: sub_shard,
                }
            } else {
                RequestBody::IngestSubmit {
                    session: node_session,
                    shard: sub_shard,
                }
            };
            match self.call_write(&topo, pool, idx, &forwarded)? {
                ResponseBody::Session(_) => {}
                _ => return Err(internal("node answered a shard op with a non-session body")),
            }
        }
        Ok(ResponseBody::Session(session))
    }

    /// `info`: fan out, verify every node runs the same sketcher fingerprint,
    /// and merge columns/stats into one cluster-wide view (plus the `cluster`
    /// member only routers emit).
    fn info(
        &self,
        topo: &Arc<Topology>,
        server: bool,
        pool: &mut NodePool,
        front: &FrontEnd,
    ) -> Result<ResponseBody, WireError> {
        let probe = RequestBody::Info { server: false };
        let responses = self.fan_read(topo, pool, &probe)?;
        let mut head: Option<(String, String, String, Option<String>)> = None;
        let mut columns: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut hydrated = 0u64;
        let mut bytes_on_disk = 0u64;
        for resp in responses {
            let ResponseBody::Info {
                sketcher,
                fingerprint,
                method,
                format,
                columns: node_columns,
                stats,
                ..
            } = resp
            else {
                return Err(internal("node answered info with a non-info body"));
            };
            match &head {
                None => head = Some((sketcher, fingerprint, method, format)),
                Some((_, expected, _, _)) => {
                    if *expected != fingerprint {
                        return Err(WireError {
                            code: ErrorCode::Incompatible,
                            message: format!(
                                "catalog nodes disagree on the sketcher fingerprint \
                                 ({expected} vs {fingerprint})"
                            ),
                        });
                    }
                }
            }
            for column in node_columns {
                columns.insert((column.table, column.column), column.rows);
            }
            if let Some(stats) = stats {
                hydrated += stats.hydrated;
                bytes_on_disk += stats.bytes_on_disk;
            }
        }
        let (sketcher, fingerprint, method, format) =
            head.ok_or_else(|| internal("info fan-out returned no responses"))?;
        let distinct = columns.len() as u64;
        Ok(ResponseBody::Info {
            sketcher,
            fingerprint,
            method,
            format,
            columns: columns
                .into_iter()
                .map(|((table, column), rows)| InfoColumn {
                    table,
                    column,
                    rows,
                })
                .collect(),
            // `hydrated`/`bytes_on_disk` sum over nodes, so replicated blobs
            // count once per copy — that is the cluster's real footprint.
            // `columns` counts distinct keys.
            stats: Some(WireServiceStats {
                columns: distinct,
                hydrated,
                bytes_on_disk,
                last_compaction: None,
            }),
            server: server.then(|| front.metrics().snapshot()),
            cluster: Some(Box::new(self.cluster_stats())),
        })
    }

    /// `drop-column` fans to every node: placement-agnostic, so it works even
    /// for catalogs loaded into nodes out-of-band.
    fn drop_column(
        &self,
        topo: &Arc<Topology>,
        pool: &mut NodePool,
        table: &str,
        column: &str,
    ) -> Result<ResponseBody, WireError> {
        self.stats.fanouts.fetch_add(1, Ordering::Relaxed);
        let body = RequestBody::DropColumn {
            table: table.to_string(),
            column: column.to_string(),
        };
        let mut dropped = false;
        let mut remote: Option<WireError> = None;
        let mut unreachable: Option<String> = None;
        for idx in 0..topo.nodes.len() {
            match pool.call(topo, idx, &body) {
                Ok(ResponseBody::Dropped { .. }) => dropped = true,
                Ok(_) => {
                    return Err(internal(
                        "node answered drop-column with an unexpected body",
                    ))
                }
                Err(NodeError::Remote(e)) if e.code == ErrorCode::NotFound => {}
                Err(NodeError::Remote(e)) => {
                    remote.get_or_insert(e);
                }
                Err(NodeError::Unreachable { message, .. }) => {
                    unreachable.get_or_insert(message);
                }
            }
        }
        if let Some(error) = remote {
            return Err(error);
        }
        if dropped {
            return Ok(ResponseBody::Dropped {
                table: table.to_string(),
                column: column.to_string(),
            });
        }
        if let Some(message) = unreachable {
            // Some node we could not reach might hold the key; `not_found`
            // would over-claim.
            return Err(WireError {
                code: ErrorCode::Io,
                message,
            });
        }
        Err(WireError {
            code: ErrorCode::NotFound,
            message: format!("no catalog node holds {table}.{column}"),
        })
    }

    /// `export-column`: try the rendezvous owners first (they should hold the
    /// blob), then every other node (placement-agnostic like `drop-column`);
    /// the first sketch wins and failed candidates count as failovers.
    fn export_column(
        &self,
        topo: &Arc<Topology>,
        pool: &mut NodePool,
        table: &str,
        column: &str,
    ) -> Result<ResponseBody, WireError> {
        self.stats.fanouts.fetch_add(1, Ordering::Relaxed);
        let body = RequestBody::ExportColumn {
            table: table.to_string(),
            column: column.to_string(),
        };
        let mut order = owners(&topo.nodes, self.replicas, table, column);
        for idx in 0..topo.nodes.len() {
            if !order.contains(&idx) {
                order.push(idx);
            }
        }
        let mut failed = 0u64;
        let mut unreachable: Option<String> = None;
        for idx in order {
            match pool.call(topo, idx, &body) {
                Ok(ResponseBody::Sketch(sketch)) => {
                    if failed > 0 {
                        self.stats.failovers.fetch_add(failed, Ordering::Relaxed);
                    }
                    return Ok(ResponseBody::Sketch(sketch));
                }
                Ok(_) => {
                    return Err(internal(
                        "node answered export-column with a non-sketch body",
                    ))
                }
                Err(NodeError::Remote(e)) if e.code == ErrorCode::NotFound => {}
                Err(NodeError::Remote(e)) => return Err(e),
                Err(NodeError::Unreachable { message, .. }) => {
                    failed += 1;
                    unreachable.get_or_insert(message);
                }
            }
        }
        if let Some(message) = unreachable {
            return Err(WireError {
                code: ErrorCode::Io,
                message,
            });
        }
        Err(WireError {
            code: ErrorCode::NotFound,
            message: format!("no catalog node holds {table}.{column}"),
        })
    }

    /// `import-column`: a write — the blob lands on every rendezvous owner of
    /// its `(table, column)`, reports merged like `ingest`.
    fn import_column(
        &self,
        topo: &Arc<Topology>,
        pool: &mut NodePool,
        sketch: &WireSketch,
    ) -> Result<ResponseBody, WireError> {
        self.stats.fanouts.fetch_add(1, Ordering::Relaxed);
        let mut registered = BTreeSet::new();
        let mut skipped = BTreeSet::new();
        for idx in owners(&topo.nodes, self.replicas, &sketch.table, &sketch.column) {
            let body = RequestBody::ImportColumn {
                sketch: sketch.clone(),
            };
            match self.call_write(topo, pool, idx, &body)? {
                ResponseBody::Report {
                    registered: r,
                    skipped: s,
                } => {
                    registered.extend(r);
                    skipped.extend(s);
                }
                _ => {
                    return Err(internal(
                        "node answered import-column with a non-report body",
                    ))
                }
            }
        }
        Ok(ResponseBody::Report {
            registered: registered.into_iter().collect(),
            skipped: skipped.into_iter().collect(),
        })
    }

    /// Fans `body` to every node in `topo`.  Demoted nodes are skipped while
    /// at least one healthy node remains (maintenance probes own their recovery);
    /// skipped and unreachable nodes count as failovers once somebody
    /// answers, and if every healthy node failed the demoted ones get a last
    /// chance before the read is declared dead.
    fn fan_read(
        &self,
        topo: &Arc<Topology>,
        pool: &mut NodePool,
        body: &RequestBody,
    ) -> Result<Vec<ResponseBody>, WireError> {
        self.stats.fanouts.fetch_add(1, Ordering::Relaxed);
        let any_healthy = topo
            .states
            .iter()
            .any(|state| state.healthy.load(Ordering::Relaxed));
        let mut answered = Vec::new();
        let mut skipped = Vec::new();
        let mut failed = 0u64;
        let mut last_unreachable = String::new();
        for idx in 0..topo.nodes.len() {
            if any_healthy && !topo.states[idx].healthy.load(Ordering::Relaxed) {
                skipped.push(idx);
                failed += 1;
                continue;
            }
            match pool.call(topo, idx, body) {
                Ok(resp) => answered.push(resp),
                Err(NodeError::Remote(error)) => return Err(error),
                Err(NodeError::Unreachable { message, .. }) => {
                    failed += 1;
                    last_unreachable = message;
                }
            }
        }
        if answered.is_empty() {
            for idx in skipped {
                match pool.call(topo, idx, body) {
                    Ok(resp) => {
                        answered.push(resp);
                        failed = failed.saturating_sub(1);
                    }
                    Err(NodeError::Remote(error)) => return Err(error),
                    Err(NodeError::Unreachable { message, .. }) => last_unreachable = message,
                }
            }
        }
        if answered.is_empty() {
            return Err(WireError {
                code: ErrorCode::Io,
                message: format!("no catalog node reachable: {last_unreachable}"),
            });
        }
        if failed > 0 {
            self.stats.failovers.fetch_add(failed, Ordering::Relaxed);
        }
        Ok(answered)
    }

    /// One write call to one node; unreachable is a hard error (a write must
    /// land on every owner or the client must hear about it) — `io` when the
    /// request surely never started, `deadline_exceeded` when a timeout left
    /// the outcome unknown.
    fn call_write(
        &self,
        topo: &Arc<Topology>,
        pool: &mut NodePool,
        idx: usize,
        body: &RequestBody,
    ) -> Result<ResponseBody, WireError> {
        pool.call(topo, idx, body).map_err(|error| match error {
            NodeError::Remote(e) => e,
            NodeError::Unreachable { message, timed_out } => {
                if timed_out {
                    WireError {
                        code: ErrorCode::DeadlineExceeded,
                        message: format!(
                            "deadline exceeded waiting on catalog node {}: the op was \
                             not retried and may or may not have been applied ({message})",
                            topo.nodes[idx].addr
                        ),
                    }
                } else {
                    WireError {
                        code: ErrorCode::Io,
                        message,
                    }
                }
            }
        })
    }

    /// One probe round: every demoted node gets a fresh-connection `info`
    /// round trip and is promoted back on success.  Probe failures leave the
    /// demotion in place without inflating the error counter — the node was
    /// already out of rotation.
    fn probe_demoted(&self) {
        let topo = self.topology();
        let request = Request {
            id: Json::Null,
            body: RequestBody::Info { server: false },
        };
        for (spec, state) in topo.nodes.iter().zip(&topo.states) {
            if state.healthy.load(Ordering::Relaxed) {
                continue;
            }
            state.probes.fetch_add(1, Ordering::Relaxed);
            let ok = NodeConn::connect(spec, &self.retry)
                .and_then(|mut conn| conn.call(&request))
                .map(|response| response.result.is_ok())
                .unwrap_or(false);
            if ok {
                state.record_ok();
            }
        }
    }

    /// Reaps router-side ingest sessions idle past the TTL and returns how
    /// many went.  The mapped node-side sessions are left for each node's own
    /// TTL sweep — the router cannot know whether the nodes are reachable
    /// right now.
    fn expire_sessions(&self) -> u64 {
        let ttl = self.session_ttl;
        let mut sessions = self.sessions.lock().expect("sessions lock");
        let before = sessions.len();
        sessions.retain(|_, slot| match slot.try_lock() {
            Ok(state) => state.touched.elapsed() <= ttl,
            // Locked means a shard op is mid-flight right now: alive.
            Err(_) => true,
        });
        (before - sessions.len()) as u64
    }
}

impl Backend for Router {
    type Worker = NodePool;
    const USES_RUNNER: bool = false;

    fn worker(&self) -> NodePool {
        NodePool::new(self)
    }

    fn handle(
        &self,
        pool: &mut NodePool,
        body: &RequestBody,
        front: &FrontEnd,
    ) -> Result<ResponseBody, WireError> {
        self.execute(body, pool, front)
    }

    fn maintain(&self) -> MaintenanceStats {
        self.probe_demoted();
        MaintenanceStats {
            passes: 1,
            sessions_expired: self.expire_sessions(),
            ..MaintenanceStats::default()
        }
    }
}

/// One pooled connection to a node.
struct NodeConn {
    transport: NodeTransport,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl NodeConn {
    /// Connects under the policy's deadlines: connect, read, and write
    /// timeouts all apply per attempt, so no node call can block a router
    /// connection past its configured budget.
    fn connect(spec: &NodeSpec, retry: &RetryPolicy) -> io::Result<NodeConn> {
        let addr = spec.addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "node address resolved to nothing",
            )
        })?;
        let stream = TcpStream::connect_timeout(&addr, retry.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(retry.read_timeout))?;
        stream.set_write_timeout(Some(retry.write_timeout))?;
        Ok(NodeConn {
            transport: spec.transport,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Reads one line of a node's reply, refusing to buffer more than
    /// [`DEFAULT_MAX_LINE_BYTES`] — the bound the front end puts on a request.
    fn read_line(&mut self, line: &mut String) -> io::Result<usize> {
        let n = (&mut self.reader)
            .take(DEFAULT_MAX_LINE_BYTES as u64 + 1)
            .read_line(line)?;
        if n > DEFAULT_MAX_LINE_BYTES {
            return Err(reply_too_large());
        }
        Ok(n)
    }

    /// One request/response round trip on this connection.  A reply over
    /// [`DEFAULT_MAX_LINE_BYTES`] is an `InvalidData` error, so the pool drops
    /// the connection instead of sizing a buffer by what the node claims.
    fn call(&mut self, request: &Request) -> io::Result<Response> {
        let line = request.encode();
        match self.transport {
            NodeTransport::Tcp => {
                self.writer.write_all(line.as_bytes())?;
                self.writer.write_all(b"\n")?;
                let mut reply = String::new();
                let n = self.read_line(&mut reply)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "node closed the connection",
                    ));
                }
                Response::decode(reply.trim_end_matches(['\r', '\n']))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
            }
            NodeTransport::Http => {
                let head = format!(
                    "POST /v1/{} HTTP/1.1\r\nHost: router\r\nContent-Length: {}\r\n\r\n",
                    request.body.op(),
                    line.len()
                );
                self.writer.write_all(head.as_bytes())?;
                self.writer.write_all(line.as_bytes())?;
                let mut status = String::new();
                if self.read_line(&mut status)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "node closed the connection",
                    ));
                }
                let mut content_length: Option<usize> = None;
                loop {
                    let mut header = String::new();
                    if self.read_line(&mut header)? == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "node closed mid-headers",
                        ));
                    }
                    let header = header.trim_end_matches(['\r', '\n']);
                    if header.is_empty() {
                        break;
                    }
                    if let Some(value) = header.to_ascii_lowercase().strip_prefix("content-length:")
                    {
                        content_length = Some(value.trim().parse().map_err(|_| {
                            io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                        })?);
                    }
                }
                let length = content_length.ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "node response had no length")
                })?;
                if length > DEFAULT_MAX_LINE_BYTES {
                    return Err(reply_too_large());
                }
                let mut body = vec![0u8; length];
                self.reader.read_exact(&mut body)?;
                let body = std::str::from_utf8(&body).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "node body is not UTF-8")
                })?;
                // Status is ignored on purpose: the JSON envelope carries the
                // same success/error information with more detail.
                let _ = status;
                Response::decode(body)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
            }
        }
    }
}

fn reply_too_large() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("node reply exceeds {DEFAULT_MAX_LINE_BYTES} bytes"),
    )
}

/// One front-end worker's private node connections, opened lazily and reset
/// whenever the topology snapshot they were opened under is swapped out.
pub(crate) struct NodePool {
    retry: RetryPolicy,
    failure_threshold: u64,
    topo: Arc<Topology>,
    conns: Vec<Option<NodeConn>>,
}

impl NodePool {
    /// An empty pool for `router`'s current node list.
    fn new(router: &Router) -> NodePool {
        let topo = router.topology();
        NodePool {
            retry: router.retry.clone(),
            failure_threshold: router.failure_threshold,
            conns: topo.nodes.iter().map(|_| None).collect(),
            topo,
        }
    }

    /// Re-targets the pool at `topo` (dropping every pooled connection) when
    /// it is not the snapshot the pool was last synced to.
    fn sync(&mut self, topo: &Arc<Topology>) {
        if !Arc::ptr_eq(&self.topo, topo) {
            self.topo = Arc::clone(topo);
            self.conns = topo.nodes.iter().map(|_| None).collect();
        }
    }

    /// One round trip to node `idx` of `topo` under the router's
    /// [`RetryPolicy`].
    ///
    /// A failed round trip on a *pooled* connection proves nothing about the
    /// node (it may simply have dropped an idle keep-alive), so it is retried
    /// once on a fresh connection without recording a node error — but only
    /// for idempotent bodies: a write may already have landed, so it returns
    /// unreachable immediately.  Failures on *fresh* connections record node
    /// errors (driving demotion) and, for idempotent bodies, retry with
    /// deterministic backoff up to [`RetryPolicy::read_attempts`].
    fn call(
        &mut self,
        topo: &Arc<Topology>,
        idx: usize,
        body: &RequestBody,
    ) -> Result<ResponseBody, NodeError> {
        self.sync(topo);
        let request = Request {
            id: Json::Null,
            body: body.clone(),
        };
        let spec = &topo.nodes[idx];
        let state = &topo.states[idx];
        let retry = &self.retry;
        let idempotent = is_idempotent(body);
        let attempts = if idempotent { retry.read_attempts } else { 1 };
        let mut fresh_failures = 0u32;
        let mut backoff_attempt = 0u32;
        loop {
            let pooled = self.conns[idx].is_some();
            if !pooled {
                match NodeConn::connect(spec, retry) {
                    Ok(conn) => self.conns[idx] = Some(conn),
                    Err(error) => {
                        state.record_error(self.failure_threshold);
                        fresh_failures += 1;
                        if idempotent && fresh_failures < attempts {
                            thread::sleep(retry.backoff(idx as u64, backoff_attempt));
                            backoff_attempt += 1;
                            continue;
                        }
                        return Err(NodeError::Unreachable {
                            message: format!("catalog node {} unreachable: {error}", spec.addr),
                            timed_out: is_timeout(&error),
                        });
                    }
                }
            }
            let conn = self.conns[idx].as_mut().expect("connected above");
            match conn.call(&request) {
                Ok(response) => {
                    state.record_ok();
                    return match response.result {
                        Ok(body) => Ok(body),
                        Err(error) => Err(NodeError::Remote(error)),
                    };
                }
                Err(error) => {
                    self.conns[idx] = None;
                    if pooled {
                        if idempotent {
                            // Free reconnect: a dropped keep-alive is not a
                            // node failure and must not demote anybody.
                            continue;
                        }
                        return Err(NodeError::Unreachable {
                            message: format!(
                                "catalog node {} failed mid-write on a pooled connection: {error}",
                                spec.addr
                            ),
                            timed_out: is_timeout(&error),
                        });
                    }
                    state.record_error(self.failure_threshold);
                    fresh_failures += 1;
                    if idempotent && fresh_failures < attempts {
                        thread::sleep(retry.backoff(idx as u64, backoff_attempt));
                        backoff_attempt += 1;
                        continue;
                    }
                    return Err(NodeError::Unreachable {
                        message: format!("catalog node {} failed: {error}", spec.addr),
                        timed_out: is_timeout(&error),
                    });
                }
            }
        }
    }
}

fn internal(message: &str) -> WireError {
    WireError {
        code: ErrorCode::Internal,
        message: message.to_string(),
    }
}

fn unknown_session(session: u64) -> WireError {
    WireError {
        code: ErrorCode::UnknownSession,
        message: format!("no open ingest session {session}"),
    }
}

/// The outcome of a [`rebalance`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Distinct `(table, column)` keys discovered on the source nodes.
    pub keys: u64,
    /// Blobs copied onto a target node that did not hold them.
    pub copied: u64,
    /// `(key, target)` placements that already held the blob (overlapping
    /// node lists, replicas, or an earlier interrupted run).
    pub already_placed: u64,
}

/// Streams every sketched column held by the `from` nodes onto its rendezvous
/// owners among the `to` nodes — the **copy** half of a copy-then-flip live
/// rebalance (the flip is [`Router::set_nodes`] / restarting routers on the
/// new list).
///
/// Blobs move verbatim (`export-column` → `import-column`), so the copies are
/// byte-identical and a router answers bit-identically over the old list, the
/// new list, or any moment in between.  The run is strict about inventory —
/// every node on both sides must answer `info`, otherwise keys could be
/// silently lost — but tolerant of per-blob source hiccups (each export fails
/// over across every source replica) and idempotent: re-running after an
/// interruption skips what already landed.
///
/// # Errors
///
/// `bad_request` for empty node lists; otherwise the first node error, with
/// timeouts surfaced as `deadline_exceeded` and connectivity as `io`.
pub fn rebalance(
    from: &[NodeSpec],
    to: &[NodeSpec],
    replicas: usize,
    retry: &RetryPolicy,
) -> Result<RebalanceReport, WireError> {
    if from.is_empty() || to.is_empty() {
        return Err(WireError {
            code: ErrorCode::BadRequest,
            message: "rebalance needs at least one source and one target node".to_string(),
        });
    }
    let replicas = replicas.max(1);
    let mut from_conns: Vec<Option<NodeConn>> = from.iter().map(|_| None).collect();
    let mut to_conns: Vec<Option<NodeConn>> = to.iter().map(|_| None).collect();
    let info = RequestBody::Info { server: false };
    let mut holders: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for idx in 0..from.len() {
        let ResponseBody::Info { columns, .. } =
            rebalance_call(from, &mut from_conns, retry, idx, &info)?
        else {
            return Err(internal("node answered info with a non-info body"));
        };
        for column in columns {
            holders
                .entry((column.table, column.column))
                .or_default()
                .push(idx);
        }
    }
    let mut target_keys: Vec<BTreeSet<(String, String)>> = Vec::new();
    for idx in 0..to.len() {
        let ResponseBody::Info { columns, .. } =
            rebalance_call(to, &mut to_conns, retry, idx, &info)?
        else {
            return Err(internal("node answered info with a non-info body"));
        };
        target_keys.push(columns.into_iter().map(|c| (c.table, c.column)).collect());
    }
    let mut report = RebalanceReport {
        keys: holders.len() as u64,
        copied: 0,
        already_placed: 0,
    };
    for ((table, column), sources) in &holders {
        let mut sketch: Option<WireSketch> = None;
        for target in owners(to, replicas, table, column) {
            if target_keys[target].contains(&(table.clone(), column.clone())) {
                report.already_placed += 1;
                continue;
            }
            if sketch.is_none() {
                sketch = Some(export_from_holders(
                    from,
                    &mut from_conns,
                    retry,
                    sources,
                    table,
                    column,
                )?);
            }
            let import = RequestBody::ImportColumn {
                sketch: sketch.clone().expect("exported above"),
            };
            match rebalance_call(to, &mut to_conns, retry, target, &import)? {
                ResponseBody::Report { registered, .. } if !registered.is_empty() => {
                    report.copied += 1;
                }
                ResponseBody::Report { .. } => report.already_placed += 1,
                _ => {
                    return Err(internal(
                        "node answered import-column with a non-report body",
                    ))
                }
            }
        }
    }
    Ok(report)
}

/// Exports one blob, failing over across every source replica that holds it.
fn export_from_holders(
    from: &[NodeSpec],
    conns: &mut [Option<NodeConn>],
    retry: &RetryPolicy,
    sources: &[usize],
    table: &str,
    column: &str,
) -> Result<WireSketch, WireError> {
    let body = RequestBody::ExportColumn {
        table: table.to_string(),
        column: column.to_string(),
    };
    let mut last: Option<WireError> = None;
    for &idx in sources {
        match rebalance_call(from, conns, retry, idx, &body) {
            Ok(ResponseBody::Sketch(sketch)) => return Ok(sketch),
            Ok(_) => {
                return Err(internal(
                    "node answered export-column with a non-sketch body",
                ))
            }
            Err(error) => last = Some(error),
        }
    }
    Err(last.unwrap_or_else(|| WireError {
        code: ErrorCode::NotFound,
        message: format!("no source node holds {table}.{column}"),
    }))
}

/// One lazily-pooled call for [`rebalance`]; remote errors come back
/// verbatim, I/O failures as `io`/`deadline_exceeded`.
fn rebalance_call(
    specs: &[NodeSpec],
    conns: &mut [Option<NodeConn>],
    retry: &RetryPolicy,
    idx: usize,
    body: &RequestBody,
) -> Result<ResponseBody, WireError> {
    let spec = &specs[idx];
    if conns[idx].is_none() {
        let conn = NodeConn::connect(spec, retry).map_err(|e| rebalance_io(&spec.addr, &e))?;
        conns[idx] = Some(conn);
    }
    let conn = conns[idx].as_mut().expect("connected above");
    let request = Request {
        id: Json::Null,
        body: body.clone(),
    };
    match conn.call(&request) {
        Ok(response) => response.result,
        Err(error) => {
            conns[idx] = None;
            Err(rebalance_io(&spec.addr, &error))
        }
    }
}

fn rebalance_io(addr: &str, error: &io::Error) -> WireError {
    WireError {
        code: if is_timeout(error) {
            ErrorCode::DeadlineExceeded
        } else {
            ErrorCode::Io
        },
        message: format!("catalog node {addr}: {error}"),
    }
}

/// Worker threads of a router front end.  Router workers spend their time
/// waiting on nodes, not on the CPU, so there are more of them than a node's
/// default, and they reserve nothing from the sketch runner.
const ROUTER_WORKERS: usize = 8;

/// A running router front end.  Dropping the handle shuts the router down,
/// closes its listener, and joins its threads, like [`shutdown`](Self::shutdown).
pub struct RouterHandle {
    server: ServerHandle,
    router: Arc<Router>,
}

impl RouterHandle {
    /// The bound listener address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server
            .tcp_addr()
            .expect("a router always binds its line-TCP listener")
    }

    /// A live snapshot of the cluster counters.
    #[must_use]
    pub fn stats(&self) -> WireClusterStats {
        self.router.cluster_stats()
    }

    /// Atomically re-points the running router at a new node list — the
    /// **flip** half of a live rebalance.  See [`Router::set_nodes`].
    ///
    /// # Errors
    ///
    /// [`RouterConfigError::NoNodes`] when `nodes` is empty.
    pub fn set_nodes(&self, nodes: Vec<NodeSpec>) -> Result<(), RouterConfigError> {
        self.router.set_nodes(nodes)
    }

    /// Blocks until the front end stops on its own (a fatal reactor error) —
    /// the CLI's run-until-killed mode.
    pub fn wait(self) {
        self.server.wait();
    }

    /// Stops accepting, closes every client connection, and joins all
    /// threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Binds `addr` and serves the line-JSON protocol over `router` on the shared
/// network front end, probing demoted nodes and reaping idle ingest sessions
/// every [`RouterConfig::probe_interval`].
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_router(router: Router, addr: SocketAddr) -> io::Result<RouterHandle> {
    let config = ServerConfig::builder()
        .tcp(addr.to_string())
        .workers(ROUTER_WORKERS)
        .maintenance_interval(router.probe_interval)
        .build()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let router = Arc::new(router);
    let server = crate::server::serve_backend(Arc::clone(&router), config)?;
    Ok(RouterHandle { server, router })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireColumn;

    fn nodes(n: usize) -> Vec<NodeSpec> {
        (0..n)
            .map(|i| NodeSpec::tcp(format!("127.0.0.1:{}", 7000 + i)))
            .collect()
    }

    #[test]
    fn rendezvous_placement_is_deterministic_and_replicated() {
        let cluster = nodes(5);
        for (table, column) in [("orders", "price"), ("orders", "qty"), ("users", "age")] {
            let first = owners(&cluster, 2, table, column);
            let second = owners(&cluster, 2, table, column);
            assert_eq!(first, second);
            assert_eq!(first.len(), 2);
            assert_ne!(first[0], first[1]);
        }
        // Replica count clamps to the cluster size.
        assert_eq!(owners(&cluster, 9, "t", "c").len(), 5);
    }

    #[test]
    fn rendezvous_spreads_keys_and_removal_only_moves_orphans() {
        let cluster = nodes(4);
        let keys: Vec<(String, String)> = (0..200)
            .map(|i| ("lake".to_string(), format!("col_{i}")))
            .collect();
        let mut load = [0usize; 4];
        for (table, column) in &keys {
            for idx in owners(&cluster, 1, table, column) {
                load[idx] += 1;
            }
        }
        // Each node should carry a non-trivial share of 200 keys.
        for (idx, count) in load.iter().enumerate() {
            assert!(*count > 10, "node {idx} got only {count} of 200 keys");
        }
        // Dropping the last node must not move keys between surviving nodes.
        let survivors = &cluster[..3];
        for (table, column) in &keys {
            let before = owners(&cluster, 1, table, column)[0];
            let after = owners(survivors, 1, table, column)[0];
            if before != 3 {
                assert_eq!(before, after, "key {table}.{column} moved needlessly");
            }
        }
    }

    #[test]
    fn merge_orders_deduplicates_and_truncates() {
        let ranked = |table: &str, column: &str, score: f64| WireRanked {
            table: table.to_string(),
            column: column.to_string(),
            score,
            join_size: 1.0,
            correlation: 0.0,
        };
        let node_a = vec![ranked("t", "a", 0.9), ranked("t", "b", 0.5)];
        let node_b = vec![ranked("t", "a", 0.9), ranked("t", "c", 0.5)];
        let merged = merge_rankings(vec![node_a, node_b], 2);
        assert_eq!(merged.len(), 2);
        assert_eq!(
            (merged[0].table.as_str(), merged[0].column.as_str()),
            ("t", "a")
        );
        // Ties order by (table, column) ascending: `b` before `c`.
        assert_eq!(
            (merged[1].table.as_str(), merged[1].column.as_str()),
            ("t", "b")
        );
    }

    #[test]
    fn partition_covers_every_column_replicas_times() {
        let router = Router::new(nodes(3), 2).expect("config");
        let columns: Vec<WireColumn> = (0..40)
            .map(|i| WireColumn {
                name: format!("c{i}"),
                values: vec![1.0],
            })
            .collect();
        let per_node = router.partition("lake", &columns);
        let mut copies = vec![0usize; columns.len()];
        for cols in &per_node {
            for &idx in cols {
                copies[idx] += 1;
            }
        }
        assert!(copies.iter().all(|&c| c == 2), "every column on 2 nodes");
    }

    #[test]
    fn router_config_is_validated() {
        assert_eq!(
            Router::new(Vec::new(), 2).unwrap_err(),
            RouterConfigError::NoNodes
        );
        assert_eq!(
            Router::new(nodes(2), 0).unwrap_err(),
            RouterConfigError::ZeroReplicas
        );
        let clamped = Router::new(nodes(2), 5).expect("config");
        assert_eq!(clamped.replicas(), 2);
        assert_eq!(
            Router::with_config(RouterConfig::new(nodes(2)).failure_threshold(0)).unwrap_err(),
            RouterConfigError::ZeroFailureThreshold
        );
        let zero_reads = RetryPolicy {
            read_attempts: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(
            Router::with_config(RouterConfig::new(nodes(2)).retry(zero_reads)).unwrap_err(),
            RouterConfigError::ZeroReadAttempts
        );
    }

    #[test]
    fn cluster_stats_report_every_node() {
        let router = Router::new(
            vec![
                NodeSpec::tcp("127.0.0.1:7001"),
                NodeSpec::http("127.0.0.1:7002"),
            ],
            2,
        )
        .expect("config");
        router.record_node_error(1);
        let stats = router.cluster_stats();
        assert_eq!(stats.replicas, 2);
        assert_eq!(stats.nodes.len(), 2);
        assert_eq!(stats.nodes[0].transport, "tcp");
        assert!(stats.nodes[0].healthy);
        assert_eq!(stats.nodes[1].transport, "http");
        assert!(!stats.nodes[1].healthy);
        assert_eq!(stats.nodes[1].errors, 1);
        assert_eq!(stats.nodes[1].demotions, 1);
        assert_eq!(stats.nodes[1].promotions, 0);
    }

    #[test]
    fn backoff_is_deterministic_and_stays_in_the_jitter_window() {
        let policy = RetryPolicy::default();
        for salt in 0..4u64 {
            for attempt in 0..8u32 {
                let pause = policy.backoff(salt, attempt);
                assert_eq!(pause, policy.backoff(salt, attempt), "deterministic");
                let exp = (policy.backoff_base.as_nanos() << attempt.min(32))
                    .min(policy.backoff_cap.as_nanos());
                let exp = u64::try_from(exp).expect("fits");
                assert!(
                    pause.as_nanos() >= u128::from(exp / 2) && pause.as_nanos() <= u128::from(exp),
                    "attempt {attempt} pause {pause:?} outside [{}, {exp}] ns",
                    exp / 2
                );
            }
        }
        // The cap holds even for absurd attempt counts.
        assert!(policy.backoff(0, 63) <= policy.backoff_cap);
        // Different salts decorrelate the schedule at least somewhere.
        assert!((0..16u64).any(|s| policy.backoff(s, 3) != policy.backoff(0, 3)));
    }

    #[test]
    fn only_reads_are_idempotent() {
        use crate::protocol::{Mode, WireQuery};
        let q = WireQuery {
            table: "t".into(),
            column: "c".into(),
            keys: vec![1],
            values: vec![1.0],
        };
        assert!(is_idempotent(&RequestBody::Info { server: true }));
        assert!(is_idempotent(&RequestBody::Query {
            mode: Mode::Joinable,
            k: 1,
            min_join_size: 0.0,
            cascade: false,
            query: q.clone(),
        }));
        assert!(is_idempotent(&RequestBody::BatchQuery {
            mode: Mode::Joinable,
            k: 1,
            min_join_size: 0.0,
            cascade: true,
            queries: vec![q],
        }));
        assert!(is_idempotent(&RequestBody::ExportColumn {
            table: "t".into(),
            column: "c".into(),
        }));
        assert!(!is_idempotent(&RequestBody::IngestBegin {
            table: "t".into()
        }));
        assert!(!is_idempotent(&RequestBody::IngestFinish { session: 1 }));
        assert!(!is_idempotent(&RequestBody::DropColumn {
            table: "t".into(),
            column: "c".into(),
        }));
        assert!(!is_idempotent(&RequestBody::ImportColumn {
            sketch: WireSketch {
                table: "t".into(),
                column: "c".into(),
                rows: 1,
                bytes: vec![0],
            },
        }));
    }

    #[test]
    fn set_nodes_swaps_topology_with_fresh_health() {
        let router = Router::new(nodes(2), 2).expect("config");
        router.record_node_error(0);
        assert!(!router.cluster_stats().nodes[0].healthy);
        router.set_nodes(nodes(3)).expect("swap");
        let stats = router.cluster_stats();
        assert_eq!(stats.nodes.len(), 3);
        assert!(stats.nodes.iter().all(|n| n.healthy && n.errors == 0));
        assert_eq!(router.replicas(), 2);
        assert_eq!(
            router.set_nodes(Vec::new()).unwrap_err(),
            RouterConfigError::NoNodes
        );
    }

    #[test]
    fn rebalance_rejects_empty_node_lists() {
        let error = rebalance(&[], &nodes(1), 2, &RetryPolicy::default()).unwrap_err();
        assert_eq!(error.code, ErrorCode::BadRequest);
        let error = rebalance(&nodes(1), &[], 2, &RetryPolicy::default()).unwrap_err();
        assert_eq!(error.code, ErrorCode::BadRequest);
    }

    #[test]
    fn health_state_demotes_on_streaks_and_promotes_once() {
        let state = NodeState::new();
        state.record_error(2);
        assert!(state.healthy.load(Ordering::Relaxed), "below threshold");
        state.record_error(2);
        assert!(
            !state.healthy.load(Ordering::Relaxed),
            "streak of 2 demotes"
        );
        assert_eq!(state.demotions.load(Ordering::Relaxed), 1);
        state.record_error(2);
        assert_eq!(state.demotions.load(Ordering::Relaxed), 1, "already down");
        state.record_ok();
        assert!(state.healthy.load(Ordering::Relaxed));
        assert_eq!(state.promotions.load(Ordering::Relaxed), 1);
        state.record_ok();
        assert_eq!(state.promotions.load(Ordering::Relaxed), 1, "already up");
        // The streak reset means one new error does not re-demote at 2.
        state.record_error(2);
        assert!(state.healthy.load(Ordering::Relaxed));
    }
}
