//! Set-up: building a workload's catalog through the `QueryService` ingest
//! path, reopening it, starting the real server (or three nodes behind the
//! router), and one warm request — plus the storage accounting read from the
//! resulting catalog directories.

use crate::client::{Conn, Framer};
use crate::stats::ByteSplit;
use crate::workloads::{self, primary_spec, Inputs, ReadRequest, Workload};
use ipsketch_serve::catalog::{Catalog, MANIFEST_FILE};
use ipsketch_serve::protocol::{Response, ResponseBody};
use ipsketch_serve::router::{serve_router, NodeSpec, Router, RouterHandle};
use ipsketch_serve::server::{serve, ServerConfig, ServerHandle};
use ipsketch_serve::QueryService;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Catalog nodes behind the router in `routed-search`.
pub const ROUTED_NODES: usize = 3;
/// Copies of each column across the routed nodes.
pub const ROUTED_REPLICAS: usize = 2;

/// Running servers and the catalogs they serve.
pub enum Deployment {
    /// One server on one catalog.
    Single {
        /// The server.
        server: ServerHandle,
        /// Its catalog root.
        root: PathBuf,
    },
    /// Catalog nodes behind a router.
    Routed {
        /// The router's front end.
        router: RouterHandle,
        /// The nodes, in the router's order.
        nodes: Vec<ServerHandle>,
        /// The nodes' catalog roots.
        roots: Vec<PathBuf>,
    },
}

impl Deployment {
    /// The address clients of `framer` connect to.
    #[must_use]
    pub fn addr(&self, framer: Framer) -> SocketAddr {
        match (self, framer) {
            (Deployment::Single { server, .. }, Framer::Tcp) => {
                server.tcp_addr().expect("line-TCP is bound")
            }
            (Deployment::Single { server, .. }, Framer::Http) => {
                server.http_addr().expect("HTTP is bound")
            }
            (Deployment::Routed { router, .. }, _) => router.addr(),
        }
    }

    /// The catalog roots on disk.
    #[must_use]
    pub fn roots(&self) -> Vec<PathBuf> {
        match self {
            Deployment::Single { root, .. } => vec![root.clone()],
            Deployment::Routed { roots, .. } => roots.clone(),
        }
    }

    /// Line-TCP addresses of the routed nodes (empty for a single server).
    #[must_use]
    pub fn node_addrs(&self) -> Vec<SocketAddr> {
        match self {
            Deployment::Single { .. } => Vec::new(),
            Deployment::Routed { nodes, .. } => nodes
                .iter()
                .map(|n| n.tcp_addr().expect("nodes bind line-TCP"))
                .collect(),
        }
    }

    /// Stops every server and joins its threads.
    pub fn shutdown(self) {
        match self {
            Deployment::Single { server, .. } => server.shutdown(),
            Deployment::Routed { router, nodes, .. } => {
                router.shutdown();
                for node in nodes {
                    node.shutdown();
                }
            }
        }
    }
}

/// One completed set-up.
pub struct Setup {
    /// The running deployment.
    pub deployment: Deployment,
    /// Wall time of the whole set-up, warm request included.
    pub elapsed: Duration,
    /// Catalog build time (routed: node start-up plus the wire ingest).
    pub build: Duration,
    /// `QueryService::open` + `ensure_hydrated` time (zero for routed
    /// deployments, whose nodes are filled over the wire).
    pub hydrate: Duration,
}

fn server_config(workload: Workload) -> ServerConfig {
    let builder = ServerConfig::builder()
        .workers(workload.workers())
        .maintenance_interval(None);
    let builder = match workload.framer() {
        Framer::Tcp => builder.tcp("127.0.0.1:0"),
        Framer::Http => builder.http("127.0.0.1:0"),
    };
    builder.build().expect("valid server config")
}

/// Builds a catalog at `root` from `tables` through `QueryService::create`
/// and `ingest_table`.
///
/// # Errors
///
/// Catalog or sketching failures, as text.
pub fn build_catalog(root: &Path, tables: &[ipsketch_data::Table]) -> Result<(), String> {
    let mut service = QueryService::create(root, primary_spec()).map_err(|e| e.to_string())?;
    for table in tables {
        service.ingest_table(table).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Opens and fully hydrates the catalog at `root`.
///
/// # Errors
///
/// Catalog failures, as text.
pub fn open_hydrated(root: &Path) -> Result<QueryService, String> {
    let mut service = QueryService::open(root).map_err(|e| e.to_string())?;
    service.ensure_hydrated().map_err(|e| e.to_string())?;
    Ok(service)
}

/// Sends one request and requires a successful protocol answer.
///
/// # Errors
///
/// Transport failures and error responses, as text.
pub fn call_ok(conn: &mut Conn, path: &str, line: &str) -> Result<ResponseBody, String> {
    let reply = conn.call(path, line).map_err(|e| e.to_string())?;
    Response::decode(&reply.line)
        .map_err(|e| e.to_string())?
        .result
        .map_err(|e| e.to_string())
}

/// Runs one full set-up of `workload` under `dir`.
///
/// # Errors
///
/// Any failure, as text.
pub fn setup(
    workload: Workload,
    inputs: &Inputs,
    warm: &ReadRequest,
    dir: &Path,
) -> Result<Setup, String> {
    let started = Instant::now();
    let (deployment, build, hydrate) = if workload == Workload::RoutedSearch {
        let deployment = routed(inputs, dir)?;
        (deployment, started.elapsed(), Duration::ZERO)
    } else {
        let root = dir.join("catalog");
        build_catalog(&root, &inputs.catalog)?;
        let build = started.elapsed();
        let reopened = Instant::now();
        let service = open_hydrated(&root)?;
        let hydrate = reopened.elapsed();
        let server = serve(service, server_config(workload)).map_err(|e| e.to_string())?;
        (Deployment::Single { server, root }, build, hydrate)
    };
    let mut conn = Conn::connect(workload.framer(), deployment.addr(workload.framer()))
        .map_err(|e| e.to_string())?;
    call_ok(&mut conn, warm.path, &warm.line)?;
    Ok(Setup {
        deployment,
        elapsed: started.elapsed(),
        build,
        hydrate,
    })
}

/// Three empty nodes behind a router; the catalog tables are ingested through
/// the router, which places each column on its rendezvous owners.
fn routed(inputs: &Inputs, dir: &Path) -> Result<Deployment, String> {
    let mut nodes = Vec::with_capacity(ROUTED_NODES);
    let mut roots = Vec::with_capacity(ROUTED_NODES);
    for i in 0..ROUTED_NODES {
        let root = dir.join(format!("node{i}"));
        let service = QueryService::create(&root, primary_spec()).map_err(|e| e.to_string())?;
        nodes.push(
            serve(service, server_config(Workload::RoutedSearch)).map_err(|e| e.to_string())?,
        );
        roots.push(root);
    }
    let specs = nodes
        .iter()
        .map(|n| NodeSpec::tcp(n.tcp_addr().expect("nodes bind line-TCP").to_string()))
        .collect();
    let router = Router::new(specs, ROUTED_REPLICAS).map_err(|e| e.to_string())?;
    let router =
        serve_router(router, SocketAddr::from(([127, 0, 0, 1], 0))).map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(Framer::Tcp, router.addr()).map_err(|e| e.to_string())?;
    for (i, table) in inputs.catalog.iter().enumerate() {
        call_ok(
            &mut conn,
            "/v1/ingest",
            &workloads::ingest_line(table, i as u64),
        )?;
    }
    Ok(Deployment::Routed {
        router,
        nodes,
        roots,
    })
}

fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Byte split of one catalog directory.
///
/// # Errors
///
/// Catalog failures, as text.
pub fn catalog_bytes(root: &Path) -> Result<ByteSplit, String> {
    let catalog = Catalog::open(root).map_err(|e| e.to_string())?;
    let entries: Vec<(u64, u64)> = catalog
        .live_entries()
        .map(|e| (e.blob_len, e.companion.as_ref().map_or(0, |c| c.blob_len)))
        .collect();
    let manifest = std::fs::metadata(root.join(MANIFEST_FILE))
        .map_err(|e| e.to_string())?
        .len();
    Ok(ByteSplit::from_entries(&entries, manifest, dir_bytes(root)))
}
