//! Cluster loopback tests (`--features server`): a router fronting ≥3 real
//! `serve` nodes must answer **bit-identically** to one node holding the whole
//! catalog — across insertion orders, with a replica-covered node stopped, and
//! while a node-overlapping sharded ingest runs through the router.

#![cfg(feature = "server")]

use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_core::SketcherSpec;
use ipsketch_data::{Column, Table};
use ipsketch_join::{RankedColumn, DEFAULT_CASCADE_CONFIDENCE};
use ipsketch_serve::protocol::{
    ErrorCode, Mode, Request, RequestBody, Response, ResponseBody, WireQuery, WireRanked, WireTable,
};
use ipsketch_serve::router::{serve_router, NodeSpec, Router, RouterHandle};
use ipsketch_serve::server::{serve, ServerConfig, ServerHandle};
use ipsketch_serve::wire::Json;
use ipsketch_serve::{shard_rows, QueryService};
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipsketch-cluster-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec_for(seed: u64) -> SketcherSpec {
    AnySketcher::for_budget(SketchMethod::Kmv, 256.0, seed)
        .expect("budget fits")
        .spec()
}

/// The service-test lake: "query.rides" joins heavily with "good.precip".
fn lake() -> (Table, Table, Table) {
    let query = Table::new(
        "query",
        (0..400).collect(),
        vec![Column::new(
            "rides",
            (0..400).map(|i| f64::from(i) + 1.0).collect(),
        )],
    )
    .expect("table");
    let good = Table::new(
        "good",
        (100..500).collect(),
        vec![
            Column::new(
                "precip",
                (100..500).map(|i| 2.0 * f64::from(i) + 3.0).collect(),
            ),
            Column::new(
                "noise",
                (0..400).map(|i| f64::from((i * 37) % 11) - 5.0).collect(),
            ),
        ],
    )
    .expect("table");
    let bad = Table::new(
        "bad",
        (10_000..10_400).collect(),
        vec![Column::new(
            "other",
            (0..400).map(|i| f64::from(i % 7) + 1.0).collect(),
        )],
    )
    .expect("table");
    (query, good, bad)
}

/// Four tables whose only column is value-identical, so all four tie exactly
/// and only the deterministic `(table, column)` tie-break orders them.
fn tie_tables() -> Vec<Table> {
    ["tie_c", "tie_a", "tie_d", "tie_b"]
        .into_iter()
        .map(|name| {
            Table::new(
                name,
                (200..700).collect(),
                vec![Column::new(
                    "v",
                    (200..700).map(|i| f64::from(i) * 0.5 + 1.0).collect(),
                )],
            )
            .expect("table")
        })
        .collect()
}

/// One running catalog node: its server handle plus its on-disk root.
struct Node {
    handle: ServerHandle,
    root: PathBuf,
}

/// Boots `n` empty catalog nodes of the same spec, each with a TCP and an
/// HTTP listener on ephemeral ports.
fn boot_nodes(tag: &str, seed: u64, n: usize) -> Vec<Node> {
    boot_nodes_opts(tag, seed, n, true)
}

/// As [`boot_nodes`], but `companions: false` boots catalogs that store no
/// companion sketches (the pre-cascade layout).
fn boot_nodes_opts(tag: &str, seed: u64, n: usize, companions: bool) -> Vec<Node> {
    (0..n)
        .map(|i| {
            let root = temp_root(&format!("{tag}-node{i}"));
            let service = if companions {
                QueryService::create(&root, spec_for(seed)).expect("create node")
            } else {
                QueryService::create_with_companion(&root, spec_for(seed), None)
                    .expect("create node")
            };
            let config = ServerConfig::builder()
                .tcp("127.0.0.1:0")
                .http("127.0.0.1:0")
                .build()
                .expect("valid config");
            let handle = serve(service, config).expect("serve node");
            Node { handle, root }
        })
        .collect()
}

fn tcp_specs(nodes: &[Node]) -> Vec<NodeSpec> {
    nodes
        .iter()
        .map(|n| NodeSpec::tcp(n.handle.tcp_addr().expect("tcp bound").to_string()))
        .collect()
}

fn boot_router(specs: Vec<NodeSpec>, replicas: usize) -> RouterHandle {
    let router = Router::new(specs, replicas).expect("router config");
    serve_router(router, "127.0.0.1:0".parse().expect("addr")).expect("bind router")
}

fn cleanup(nodes: Vec<Node>) {
    for node in nodes {
        node.handle.shutdown();
        let _ = fs::remove_dir_all(&node.root);
    }
}

/// A blocking line-protocol client for the router (or any node).
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
    }

    fn recv_raw(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "router closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    fn call(&mut self, request: &Request) -> Response {
        self.send_raw(&request.encode());
        Response::decode(&self.recv_raw()).expect("well-formed response")
    }

    fn ingest(&mut self, table: &Table) {
        let response = self.call(&Request {
            id: Json::Null,
            body: RequestBody::Ingest {
                table: WireTable::from_table(table),
                partitions: None,
            },
        });
        response.result.expect("routed ingest succeeds");
    }
}

fn wire_query(table: &Table, column: &str) -> WireQuery {
    let values = table
        .columns()
        .iter()
        .find(|c| c.name == column)
        .expect("column exists")
        .values
        .clone();
    WireQuery {
        table: table.name().to_string(),
        column: column.to_string(),
        keys: table.keys().to_vec(),
        values,
    }
}

fn query_request(id: u64, table: &Table, column: &str, k: u64) -> Request {
    Request {
        id: Json::u64(id),
        body: RequestBody::Query {
            mode: Mode::Joinable,
            k,
            min_join_size: 0.0,
            cascade: false,
            query: wire_query(table, column),
        },
    }
}

fn cascade_request(id: u64, table: &Table, column: &str, k: u64) -> Request {
    Request {
        id: Json::u64(id),
        body: RequestBody::Query {
            mode: Mode::Joinable,
            k,
            min_join_size: 0.0,
            cascade: true,
            query: wire_query(table, column),
        },
    }
}

/// Asserts a served ranking equals an in-process one bit for bit.
fn assert_bit_identical(served: &[WireRanked], in_process: &[RankedColumn]) {
    assert_eq!(served.len(), in_process.len(), "ranking lengths differ");
    for (s, p) in served.iter().zip(in_process) {
        assert_eq!(s.table, p.id.table);
        assert_eq!(s.column, p.id.column);
        assert_eq!(s.score.to_bits(), p.score.to_bits(), "score drift");
        assert_eq!(
            s.join_size.to_bits(),
            p.estimated_join_size.to_bits(),
            "join size drift"
        );
        assert_eq!(
            s.correlation.to_bits(),
            p.estimated_correlation.to_bits(),
            "correlation drift"
        );
    }
}

#[test]
fn routed_cluster_answers_bit_identical_to_a_single_node() {
    let (query, good, bad) = lake();
    let seed = 17;

    // Single-node ground truth, in process.
    let twin_root = temp_root("bitident-twin");
    let mut twin = QueryService::create(&twin_root, spec_for(seed)).expect("twin");
    twin.ingest_table(&good).expect("good");
    twin.ingest_table(&bad).expect("bad");
    let q1 = twin.sketch_query(&query, "rides").expect("q1");
    let q2 = twin.sketch_query(&good, "precip").expect("q2");
    let expected_batch = twin
        .query_joinable_batch(&[q1.clone(), q2], 5)
        .expect("batch");
    let expected_related = twin.query_related(&q1, 3, 10.0).expect("related");

    // A 3-node cluster populated *through the router*.
    let nodes = boot_nodes("bitident", seed, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);

    let response = client.call(&Request {
        id: Json::u64(1),
        body: RequestBody::BatchQuery {
            mode: Mode::Joinable,
            k: 5,
            min_join_size: 0.0,
            cascade: false,
            queries: vec![wire_query(&query, "rides"), wire_query(&good, "precip")],
        },
    });
    assert_eq!(response.id.as_u64(), Some(1));
    match response.result.expect("batch succeeds") {
        ResponseBody::Rankings { rankings, .. } => {
            assert_eq!(rankings.len(), expected_batch.len());
            for (served, in_process) in rankings.iter().zip(&expected_batch) {
                assert_bit_identical(served, in_process);
            }
        }
        other => panic!("expected rankings, got {other:?}"),
    }

    // Related mode (score = |corr|, join-size floor applied node-side).
    let response = client.call(&Request {
        id: Json::str("rel"),
        body: RequestBody::Query {
            mode: Mode::Related,
            k: 3,
            min_join_size: 10.0,
            cascade: false,
            query: wire_query(&query, "rides"),
        },
    });
    match response.result.expect("related succeeds") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected_related),
        other => panic!("expected ranking, got {other:?}"),
    }

    // `info` aggregates the cluster: the distinct column set matches the twin
    // and only the router emits the `cluster` member.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Info { server: true },
    });
    match response.result.expect("info succeeds") {
        ResponseBody::Info {
            columns,
            stats,
            cluster,
            server,
            ..
        } => {
            assert_eq!(columns.len(), 3, "good.precip, good.noise, bad.other");
            let stats = stats.expect("service stats");
            assert_eq!(stats.columns, 3);
            let cluster = cluster.expect("routers report cluster state");
            assert_eq!(cluster.replicas, 2);
            assert_eq!(cluster.nodes.len(), 3);
            assert!(cluster.nodes.iter().all(|n| n.healthy && n.errors == 0));
            assert!(cluster.fanouts >= 3, "ingests and queries fanned out");
            assert_eq!(cluster.failovers, 0);
            let server = server.expect("router per-op metrics");
            assert!(server.ops.iter().any(|o| o.op == "ingest"));
        }
        other => panic!("expected info, got {other:?}"),
    }

    // `drop-column` through the router tombstones every replica: the key
    // disappears from merged rankings, and a second drop is `not_found`.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::DropColumn {
            table: "good".to_string(),
            column: "precip".to_string(),
        },
    });
    match response.result.expect("drop succeeds") {
        ResponseBody::Dropped { table, column } => {
            assert_eq!((table.as_str(), column.as_str()), ("good", "precip"));
        }
        other => panic!("expected dropped, got {other:?}"),
    }
    let response = client.call(&query_request(9, &query, "rides", 5));
    match response.result.expect("query succeeds") {
        ResponseBody::Ranking { ranking, .. } => {
            assert!(
                ranking.iter().all(|r| r.column != "precip"),
                "dropped column still ranked: {ranking:?}"
            );
        }
        other => panic!("expected ranking, got {other:?}"),
    }
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::DropColumn {
            table: "good".to_string(),
            column: "precip".to_string(),
        },
    });
    assert_eq!(
        response.result.expect_err("second drop fails").code,
        ErrorCode::NotFound
    );

    router.shutdown();
    cleanup(nodes);
    fs::remove_dir_all(&twin_root).expect("cleanup");
}

#[test]
fn rankings_are_identical_for_any_ingest_order_and_cluster_shape() {
    let (query, good, bad) = lake();
    let mut tables = tie_tables();
    tables.push(good);
    tables.push(bad);
    let seed = 29;

    // Ground truth includes four exactly-tied tables, so this only passes if
    // node merges honor the same deterministic tie-break a single index uses.
    let twin_root = temp_root("order-twin");
    let mut twin = QueryService::create(&twin_root, spec_for(seed)).expect("twin");
    for table in &tables {
        twin.ingest_table(table).expect("ingest");
    }
    let q = twin.sketch_query(&query, "rides").expect("sketch");
    let expected = twin.query_joinable(&q, tables.len() + 1).expect("rank");
    let tie_rank: Vec<&str> = expected
        .iter()
        .filter(|r| r.id.table.starts_with("tie_"))
        .map(|r| r.id.table.as_str())
        .collect();
    assert_eq!(
        tie_rank,
        ["tie_a", "tie_b", "tie_c", "tie_d"],
        "ties must order by (table, column)"
    );

    // Three clusters: 3 nodes forward order, 3 nodes reversed ingest order,
    // 4 nodes interleaved order.  Every wire answer must be byte-identical.
    let shapes: [(usize, Vec<usize>); 3] = [
        (3, (0..tables.len()).collect()),
        (3, (0..tables.len()).rev().collect()),
        (
            4,
            (0..tables.len()).map(|i| (i * 5) % tables.len()).collect(),
        ),
    ];
    let mut encoded: Vec<String> = Vec::new();
    for (shape, (node_count, order)) in shapes.into_iter().enumerate() {
        let nodes = boot_nodes(&format!("order{shape}"), seed, node_count);
        let router = boot_router(tcp_specs(&nodes), 2);
        let mut client = Client::connect(router.addr());
        for &idx in &order {
            client.ingest(&tables[idx]);
        }
        let request = query_request(77, &query, "rides", (tables.len() + 1) as u64);
        client.send_raw(&request.encode());
        let raw = client.recv_raw();
        let response = Response::decode(&raw).expect("well-formed");
        match response.result.expect("query succeeds") {
            ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected),
            other => panic!("expected ranking, got {other:?}"),
        }
        encoded.push(raw);
        router.shutdown();
        cleanup(nodes);
    }
    assert_eq!(encoded[0], encoded[1], "ingest order changed the bytes");
    assert_eq!(encoded[0], encoded[2], "cluster shape changed the bytes");
    fs::remove_dir_all(&twin_root).expect("cleanup");
}

#[test]
fn a_stopped_node_fails_over_to_its_replicas_bit_identically() {
    let (query, good, bad) = lake();
    let seed = 31;

    let twin_root = temp_root("failover-twin");
    let mut twin = QueryService::create(&twin_root, spec_for(seed)).expect("twin");
    twin.ingest_table(&good).expect("good");
    twin.ingest_table(&bad).expect("bad");
    let q = twin.sketch_query(&query, "rides").expect("sketch");
    let expected = twin.query_joinable(&q, 5).expect("rank");

    let mut nodes = boot_nodes("failover", seed, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);

    // Healthy-cluster sanity check first.
    let response = client.call(&query_request(1, &query, "rides", 5));
    match response.result.expect("query succeeds") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected),
        other => panic!("expected ranking, got {other:?}"),
    }

    // Stop one node.  Replication 2 guarantees every key survives on another
    // node, and replicas hold bit-identical blobs — so the merged answer must
    // not change by a single bit.
    let stopped = nodes.remove(2);
    let stopped_addr = stopped.handle.tcp_addr().expect("tcp bound").to_string();
    stopped.handle.shutdown();
    let _ = fs::remove_dir_all(&stopped.root);

    // A fresh connection (fresh node pool) so the loss is seen as a connect
    // failure, not a broken keep-alive.
    let mut degraded = Client::connect(router.addr());
    let response = degraded.call(&query_request(2, &query, "rides", 5));
    match response.result.expect("query still succeeds") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &expected),
        other => panic!("expected ranking, got {other:?}"),
    }

    // The failover is surfaced in router stats, against the right node.
    let stats = router.stats();
    assert!(stats.failovers >= 1, "failover not counted: {stats:?}");
    let lost = stats
        .nodes
        .iter()
        .find(|n| n.addr == stopped_addr)
        .expect("stopped node listed");
    assert!(!lost.healthy, "stopped node still marked healthy");
    assert!(lost.errors >= 1);

    // Writes that need the lost node are refused with a typed `io` error
    // rather than silently under-replicated... unless no owned column landed
    // there, in which case they succeed; either way the op must not hang or
    // panic, and queries keep working after it.
    let response = degraded.call(&Request {
        id: Json::Null,
        body: RequestBody::Ingest {
            table: WireTable::from_table(&tie_tables()[0]),
            partitions: None,
        },
    });
    if let Err(error) = response.result {
        assert_eq!(error.code, ErrorCode::Io, "write failure must be typed io");
    }
    let response = degraded.call(&query_request(3, &query, "rides", 5));
    match response.result.expect("query succeeds after failed write") {
        ResponseBody::Ranking { ranking, .. } => {
            assert_eq!(ranking.len(), expected.len().max(ranking.len()).min(5));
        }
        other => panic!("expected ranking, got {other:?}"),
    }

    router.shutdown();
    cleanup(nodes);
    fs::remove_dir_all(&twin_root).expect("cleanup");
}

#[test]
fn mixed_transport_routers_answer_byte_identically() {
    let (query, good, bad) = lake();
    let seed = 37;
    let nodes = boot_nodes("transports", seed, 3);

    // One router speaks line-TCP to every node; the other mixes in the
    // HTTP/1.1 binding for two of them.  Same nodes, so same data.
    let tcp_router = boot_router(tcp_specs(&nodes), 2);
    let mixed_specs = vec![
        NodeSpec::tcp(nodes[0].handle.tcp_addr().expect("tcp").to_string()),
        NodeSpec::http(nodes[1].handle.http_addr().expect("http").to_string()),
        NodeSpec::http(nodes[2].handle.http_addr().expect("http").to_string()),
    ];
    let mixed_router = boot_router(mixed_specs, 2);

    let mut tcp_client = Client::connect(tcp_router.addr());
    tcp_client.ingest(&good);
    tcp_client.ingest(&bad);

    let request = query_request(5, &query, "rides", 4);
    tcp_client.send_raw(&request.encode());
    let via_tcp = tcp_client.recv_raw();

    let mut mixed_client = Client::connect(mixed_router.addr());
    mixed_client.send_raw(&request.encode());
    let via_mixed = mixed_client.recv_raw();
    assert_eq!(via_tcp, via_mixed, "transport changed the answer bytes");

    let stats = mixed_router.stats();
    let transports: Vec<&str> = stats.nodes.iter().map(|n| n.transport.as_str()).collect();
    assert_eq!(transports, ["tcp", "http", "http"]);

    tcp_router.shutdown();
    mixed_router.shutdown();
    cleanup(nodes);
}

#[test]
fn node_overlapping_sharded_ingest_yields_only_consistent_states() {
    let (query, good, bad) = lake();
    let seed = 41;
    let shards = 3;
    // One column, so it lands on exactly `replicas` nodes: every mid-state
    // (some owners finished, some not) merges to the same bytes as the final
    // state, because replica blobs are bit-identical and the merge dedups.
    let extra = Table::new(
        "extra",
        (150..550).collect(),
        vec![Column::new(
            "depth",
            (150..550).map(|i| 3.0 * f64::from(i) - 7.0).collect(),
        )],
    )
    .expect("table");

    // Twin computes both consistent answers via the *same* sharded path.
    let twin_root = temp_root("overlap-twin");
    let mut twin = QueryService::create(&twin_root, spec_for(seed)).expect("twin");
    twin.ingest_table(&good).expect("good");
    twin.ingest_table(&bad).expect("bad");
    let q = twin.sketch_query(&query, "rides").expect("sketch");
    let before = twin.query_joinable(&q, 5).expect("before");
    {
        let mut session = twin.begin_sharded_ingest(extra.name());
        for shard in &shard_rows(&extra, shards) {
            session.announce(shard).expect("announce");
        }
        for shard in &shard_rows(&extra, shards) {
            session.submit(twin.estimator(), shard).expect("submit");
        }
        twin.finish_sharded_ingest(session).expect("finish");
    }
    let after = twin.query_joinable(&q, 5).expect("after");
    assert_ne!(before, after, "the extra table must change the top-5");

    let nodes = boot_nodes("overlap", seed, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut seed_client = Client::connect(router.addr());
    seed_client.ingest(&good);
    seed_client.ingest(&bad);

    // Queriers hammer the router while the main thread drives the two-pass
    // announced-norm protocol through it — a real cross-node round: the
    // router opens per-node sessions and forwards each owner its sub-shards.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let queriers: Vec<_> = (0..2)
        .map(|worker| {
            let stop = std::sync::Arc::clone(&stop);
            let query = query.clone();
            let before = before.clone();
            let after = after.clone();
            let mut client = Client::connect(router.addr());
            std::thread::spawn(move || {
                let mut rounds = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || rounds == 0 {
                    rounds += 1;
                    let response =
                        client.call(&query_request(u64::from(rounds), &query, "rides", 5));
                    assert_eq!(response.id.as_u64(), Some(u64::from(rounds)));
                    let ranking = match response.result.expect("query succeeds") {
                        ResponseBody::Ranking { ranking, .. } => ranking,
                        other => panic!("worker {worker}: expected ranking, got {other:?}"),
                    };
                    // Every observation is one of the two consistent states.
                    let matches_before = ranking.len() == before.len()
                        && ranking
                            .iter()
                            .zip(&before)
                            .all(|(s, p)| s.table == p.id.table && s.column == p.id.column);
                    if matches_before {
                        assert_bit_identical(&ranking, &before);
                    } else {
                        assert_bit_identical(&ranking, &after);
                    }
                }
            })
        })
        .collect();

    // Announce and submit arrive over *different* connections: the router's
    // session map is shared, exactly like a single node's.
    let mut announce_client = Client::connect(router.addr());
    let session = match announce_client
        .call(&Request {
            id: Json::Null,
            body: RequestBody::IngestBegin {
                table: extra.name().to_string(),
            },
        })
        .result
        .expect("begin")
    {
        ResponseBody::Session(session) => session,
        other => panic!("expected session, got {other:?}"),
    };
    let wire_shards: Vec<WireTable> = shard_rows(&extra, shards)
        .iter()
        .map(WireTable::from_table)
        .collect();
    for shard in &wire_shards {
        let response = announce_client.call(&Request {
            id: Json::Null,
            body: RequestBody::IngestAnnounce {
                session,
                shard: shard.clone(),
            },
        });
        assert_eq!(
            response.result.expect("announce"),
            ResponseBody::Session(session)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut submit_client = Client::connect(router.addr());
    for shard in &wire_shards {
        submit_client
            .call(&Request {
                id: Json::Null,
                body: RequestBody::IngestSubmit {
                    session,
                    shard: shard.clone(),
                },
            })
            .result
            .expect("submit");
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = submit_client
        .call(&Request {
            id: Json::Null,
            body: RequestBody::IngestFinish { session },
        })
        .result
        .expect("finish");
    match report {
        ResponseBody::Report {
            registered,
            skipped,
        } => {
            assert_eq!(registered, vec![("extra".to_string(), "depth".to_string())]);
            assert!(skipped.is_empty());
        }
        other => panic!("expected report, got {other:?}"),
    }

    // A finished session is consumed.
    let response = submit_client.call(&Request {
        id: Json::Null,
        body: RequestBody::IngestFinish { session },
    });
    assert_eq!(
        response.result.expect_err("double finish").code,
        ErrorCode::UnknownSession
    );

    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for querier in queriers {
        querier.join().expect("querier");
    }

    // Post-ingest answers are the after state, bit for bit.
    let response = seed_client.call(&query_request(99, &query, "rides", 5));
    match response.result.expect("post-ingest query") {
        ResponseBody::Ranking { ranking, .. } => assert_bit_identical(&ranking, &after),
        other => panic!("expected ranking, got {other:?}"),
    }

    router.shutdown();
    cleanup(nodes);
    fs::remove_dir_all(&twin_root).expect("cleanup");
}

#[test]
fn cascaded_queries_route_bit_identically_and_fall_back_deterministically() {
    let (query, good, bad) = lake();
    let seed = 43;

    // In-process twin with companions (the default layout): ground truth for
    // both the cascade answer and the flat answer it must equal.
    let twin_root = temp_root("cascade-twin");
    let mut twin = QueryService::create(&twin_root, spec_for(seed)).expect("twin");
    twin.ingest_table(&good).expect("good");
    twin.ingest_table(&bad).expect("bad");
    let q = twin.sketch_query(&query, "rides").expect("sketch");
    let cq = twin
        .sketch_query_companion(&query, "rides")
        .expect("companion sketch");
    assert!(cq.is_some(), "created catalogs store companions by default");
    let (expected, twin_note) = twin
        .query_joinable_cascade(&q, cq.as_ref(), 5, DEFAULT_CASCADE_CONFIDENCE)
        .expect("cascade");
    assert!(twin_note.is_none());
    assert_eq!(
        expected,
        twin.query_joinable(&q, 5).expect("flat"),
        "cascade must equal the flat scan at the default margin"
    );

    // A 3-node cluster populated through the router answers the cascade
    // bit-identically to the twin, and byte-identically to its own flat
    // answer — the knob must be invisible in the response bytes.
    let nodes = boot_nodes("cascade", seed, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut client = Client::connect(router.addr());
    client.ingest(&good);
    client.ingest(&bad);

    client.send_raw(&cascade_request(11, &query, "rides", 5).encode());
    let raw_cascade = client.recv_raw();
    let response = Response::decode(&raw_cascade).expect("well-formed");
    match response.result.expect("routed cascade succeeds") {
        ResponseBody::Ranking { ranking, note } => {
            assert!(note.is_none(), "companion cluster must not fall back");
            assert_bit_identical(&ranking, &expected);
        }
        other => panic!("expected ranking, got {other:?}"),
    }
    client.send_raw(&query_request(11, &query, "rides", 5).encode());
    let raw_flat = client.recv_raw();
    assert_eq!(raw_cascade, raw_flat, "cascade changed the answer bytes");

    // Batch cascades route too, with no note.
    let response = client.call(&Request {
        id: Json::u64(12),
        body: RequestBody::BatchQuery {
            mode: Mode::Joinable,
            k: 5,
            min_join_size: 0.0,
            cascade: true,
            queries: vec![wire_query(&query, "rides")],
        },
    });
    match response.result.expect("routed batch cascade succeeds") {
        ResponseBody::Rankings { rankings, note } => {
            assert!(note.is_none());
            assert_eq!(rankings.len(), 1);
            assert_bit_identical(&rankings[0], &expected);
        }
        other => panic!("expected rankings, got {other:?}"),
    }

    // A cascade against `related` mode is refused node-side and the router
    // forwards the typed error verbatim.
    let response = client.call(&Request {
        id: Json::Null,
        body: RequestBody::Query {
            mode: Mode::Related,
            k: 3,
            min_join_size: 0.0,
            cascade: true,
            query: wire_query(&query, "rides"),
        },
    });
    assert_eq!(
        response.result.expect_err("related cascade refused").code,
        ErrorCode::BadRequest
    );

    router.shutdown();
    cleanup(nodes);

    // Companion-less cluster: the same cascade request falls back to the flat
    // scan with the typed note, byte-identical to one companion-less node
    // holding the whole catalog — the note carries no node-local detail.
    let old_nodes = boot_nodes_opts("cascade-nocmp", seed, 3, false);
    let old_router = boot_router(tcp_specs(&old_nodes), 2);
    let mut old_client = Client::connect(old_router.addr());
    old_client.ingest(&good);
    old_client.ingest(&bad);

    let single = boot_nodes_opts("cascade-nocmp-single", seed, 1, false);
    let mut single_client = Client::connect(single[0].handle.tcp_addr().expect("tcp"));
    single_client.ingest(&good);
    single_client.ingest(&bad);

    let request = cascade_request(21, &query, "rides", 5);
    old_client.send_raw(&request.encode());
    let via_router = old_client.recv_raw();
    single_client.send_raw(&request.encode());
    let via_single = single_client.recv_raw();
    assert_eq!(
        via_router, via_single,
        "fallback answer must not depend on cluster shape"
    );
    let response = Response::decode(&via_router).expect("well-formed");
    match response.result.expect("fallback succeeds") {
        ResponseBody::Ranking { ranking, note } => {
            let note = note.expect("companion-less catalogs must attach the note");
            assert_eq!(note.code, "cascade_fallback");
            assert!(!ranking.is_empty());
        }
        other => panic!("expected ranking, got {other:?}"),
    }

    old_router.shutdown();
    cleanup(old_nodes);
    cleanup(single);
    fs::remove_dir_all(&twin_root).expect("cleanup");
}

#[test]
fn invalid_utf8_request_lines_are_rejected_identically_by_node_and_router() {
    let nodes = boot_nodes("utf8", 29, 1);
    let router = boot_router(tcp_specs(&nodes), 1);
    let line: &[u8] = b"{\"op\":\"info\",\"x\":\"\xFF\"}\n";
    let answer = |addr| {
        let mut client = Client::connect(addr);
        client.writer.write_all(line).expect("send");
        client.recv_raw()
    };
    let via_node = answer(nodes[0].handle.tcp_addr().expect("tcp"));
    let via_router = answer(router.addr());
    assert_eq!(
        via_router, via_node,
        "the router must reject undecodable bytes exactly like a node"
    );
    let error = Response::decode(&via_router)
        .expect("well-formed")
        .result
        .expect_err("invalid UTF-8 is never executed");
    assert_eq!(error.code, ErrorCode::BadRequest);
    router.shutdown();
    cleanup(nodes);
}

#[test]
fn dropping_a_router_handle_releases_its_port() {
    let nodes = boot_nodes("drop", 31, 1);
    let router = boot_router(tcp_specs(&nodes), 1);
    let addr = router.addr();
    Client::connect(addr);
    drop(router);
    let error = TcpStream::connect(addr).expect_err("the listener must be closed");
    assert_eq!(error.kind(), std::io::ErrorKind::ConnectionRefused);
    cleanup(nodes);
}

#[test]
fn extreme_k_is_answered_byte_identically_by_node_and_router() {
    // `"k": 0` and `"k": 18446744073709551615` (which a node maps to
    // `usize::MAX`) in flat, cascade and related mode, single and batched: the
    // top-k selection must neither panic nor size anything by `k`, and the
    // router's merge must reproduce the single node's bytes.
    let (query, good, bad) = lake();
    let seed = 47;
    let single = boot_nodes("extreme-k-single", seed, 1);
    let nodes = boot_nodes("extreme-k", seed, 3);
    let router = boot_router(tcp_specs(&nodes), 2);
    let mut node_client = Client::connect(single[0].handle.tcp_addr().expect("tcp"));
    let mut router_client = Client::connect(router.addr());
    for table in [&good, &bad] {
        node_client.ingest(table);
        router_client.ingest(table);
    }
    // good.precip, good.noise and bad.other rank against `query.rides`; only
    // the two `good` columns rank against `bad.other`.
    let full_lengths = [3, 2];
    let queries = || vec![wire_query(&query, "rides"), wire_query(&bad, "other")];

    for k in [0, u64::MAX] {
        for (mode, cascade) in [
            (Mode::Joinable, false),
            (Mode::Joinable, true),
            (Mode::Related, false),
        ] {
            let requests = [
                Request {
                    id: Json::u64(1),
                    body: RequestBody::Query {
                        mode,
                        k,
                        min_join_size: 0.0,
                        cascade,
                        query: queries().remove(0),
                    },
                },
                Request {
                    id: Json::u64(2),
                    body: RequestBody::BatchQuery {
                        mode,
                        k,
                        min_join_size: 0.0,
                        cascade,
                        queries: queries(),
                    },
                },
            ];
            for request in requests {
                let line = request.encode();
                assert!(
                    line.contains(&k.to_string()),
                    "k must reach the wire verbatim"
                );
                node_client.send_raw(&line);
                let via_node = node_client.recv_raw();
                router_client.send_raw(&line);
                let via_router = router_client.recv_raw();
                assert_eq!(
                    via_router, via_node,
                    "k = {k}, {mode:?}, cascade {cascade}: router and node disagree"
                );
                let expected_len = |full: usize| if k == 0 { 0 } else { full };
                let result = Response::decode(&via_node).expect("well-formed").result;
                match result.expect("extreme k is answered, not refused") {
                    ResponseBody::Ranking { ranking, note } => {
                        assert!(note.is_none());
                        assert_eq!(ranking.len(), expected_len(full_lengths[0]));
                    }
                    ResponseBody::Rankings { rankings, note } => {
                        assert!(note.is_none());
                        let lengths: Vec<usize> = rankings.iter().map(Vec::len).collect();
                        assert_eq!(lengths, full_lengths.map(expected_len));
                    }
                    other => panic!("expected a ranking, got {other:?}"),
                }
            }
        }
    }

    // No worker panicked: node and router both still answer, identically.
    let probe = query_request(3, &query, "rides", 5).encode();
    node_client.send_raw(&probe);
    let via_node = node_client.recv_raw();
    router_client.send_raw(&probe);
    assert_eq!(router_client.recv_raw(), via_node);
    assert!(Response::decode(&via_node)
        .expect("well-formed")
        .result
        .is_ok());

    router.shutdown();
    cleanup(nodes);
    cleanup(single);
}

/// A fake HTTP node: answers every request on `stream` with a head that claims
/// a `u64::MAX`-byte body and never sends one.
fn answer_with_an_absurd_length(stream: TcpStream) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    loop {
        let mut length = 0usize;
        loop {
            let mut line = String::new();
            if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                return;
            }
            let line = line.trim_end().to_ascii_lowercase();
            if line.is_empty() {
                break;
            }
            if let Some(value) = line.strip_prefix("content-length:") {
                length = value.trim().parse().expect("router sends a valid length");
            }
        }
        let mut body = vec![0u8; length];
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n";
        if reader.read_exact(&mut body).is_err() || writer.write_all(head).is_err() {
            return;
        }
    }
}

#[test]
fn an_oversized_node_reply_is_a_typed_error_and_the_router_keeps_answering() {
    // The router must not size a buffer by what a node claims: an over-bound
    // reply is a failed node call (`io` once no replica answers), the
    // connection is dropped, and the worker lives on to answer the next request.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake node");
    let addr = listener.local_addr().expect("fake node addr");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let acceptor = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for stream in listener.incoming() {
                if stop.load(std::sync::atomic::Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    handlers.push(std::thread::spawn(move || {
                        answer_with_an_absurd_length(stream);
                    }));
                }
            }
            for handler in handlers {
                handler.join().expect("fake node connection");
            }
        })
    };
    let router = boot_router(vec![NodeSpec::http(addr.to_string())], 1);
    let mut client = Client::connect(router.addr());
    client
        .writer
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let (query, _, _) = lake();
    for id in 1..=2 {
        let response = client.call(&query_request(id, &query, "rides", 5));
        assert_eq!(response.id, Json::u64(id));
        let error = response
            .result
            .expect_err("a node whose reply exceeds the bound answers nothing");
        assert_eq!(error.code, ErrorCode::Io, "request {id}: {}", error.message);
    }
    router.shutdown();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    drop(TcpStream::connect(addr));
    acceptor.join().expect("fake node acceptor");
}
