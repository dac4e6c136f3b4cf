//! `servebench`: the served-catalog benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload lake-search --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run builds the workload's catalog through the `QueryService` ingest
//! path, reopens it, serves it in-process on loopback with the real
//! `ipsketch-serve` server (or three nodes behind the router), and drives it
//! from one client process in a closed loop.  Every wire answer is checked
//! byte for byte against the in-process `QueryService` answer, cascade answers
//! against flat ones, and served rankings against exact ground truth.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` every other read is also replayed in-process through the public
//! layer functions with a span around each call, and the line carries the
//! per-layer metrics.  See `servebench/README.md` for workloads and metrics.

mod client;
mod deploy;
mod probes;
mod replay;
mod stats;
mod trace;
mod workloads;

use client::{Conn, Framer, Reply};
use deploy::{call_ok, Deployment};
use ipsketch_join::exact_join_statistics;
use ipsketch_serve::protocol::{Mode, Response, ResponseBody};
use ipsketch_serve::wire::Json;
use ipsketch_serve::QueryService;
use replay::{replay, FullRanking};
use stats::{median, percentile, tail_percentile, ByteSplit, Served, Truth};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{ReadRequest, Workload, K};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Runner threads, pinned so one client thread plus one busy server worker
/// fit two cores.
const PINNED_THREADS: &str = "1";
/// Samples required beyond the reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;
/// Where runs keep catalogs (removed at exit) and span files.
const WORK_DIR: &str = ".servebench";

const USAGE: &str =
    "usage: servebench --workload <lake-search|doc-search|lake-ingest|routed-search> \
--seed <n> --seconds <n> --trace <0|1>";

/// One named metric with its unit.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} must be a whole number"))
    };
    let workload_name = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload_name)
            .ok_or_else(|| format!("unknown workload `{workload_name}`"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    };
    if args.seconds == 0 || flags.len() != 4 {
        return Err("expected exactly the four flags, with --seconds > 0".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Pinned before anything reads it: the runner resolves it on first use.
    std::env::set_var("IPSKETCH_THREADS", PINNED_THREADS);
    let dir =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(outcome) => {
            for line in &outcome.report {
                println!("# {line}");
            }
            println!("{}", outcome.json());
            if !outcome.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("servebench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

/// Requests attempted and failed, and every correctness mismatch.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

impl Checks {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }
}

struct Outcome {
    checks: Checks,
    metrics: Vec<Metric>,
    report: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::f64(m.value)),
                        ("unit".to_string(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::u64(self.checks.attempted)),
            ("failed".to_string(), Json::u64(self.checks.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// One completed wire read.
struct ReadSample {
    request: usize,
    sent: Instant,
    received: Instant,
    rtt: Duration,
    reply: Option<Reply>,
    /// Trace request id when this read was traced.
    traced: Option<u64>,
}

/// One completed wire ingest.
struct IngestSample {
    sent: Instant,
    acked: Instant,
    columns: usize,
}

fn secs_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends reads from the workload's cycle, continuing at position `first`,
/// until `done(reads sent)` holds.  With an enabled tracer, every other read
/// is traced: replayed in-process (spans) and then sent (plus, for
/// a routed deployment, sent to each node directly).
fn read_loop(
    conn: &mut Conn,
    reads: &[ReadRequest],
    first: usize,
    done: &dyn Fn(usize) -> bool,
    tracer: &mut Tracer,
    reference: &mut QueryService,
    direct: &mut [Conn],
) -> Vec<ReadSample> {
    let mut samples = Vec::new();
    for i in first.. {
        if done(i - first) {
            break;
        }
        let request = i % reads.len();
        let read = &reads[request];
        let traced = (tracer.enabled() && i % 2 == 1).then_some(i as u64);
        let root = traced.map(|id| tracer.open("request", None, id));
        if let Some(id) = traced {
            // Only the replay's time matters here: the wire answer below is
            // checked against the reference answers after the run.
            let _ = replay(reference, &read.line, tracer, root, id);
        }
        let span = traced.map(|id| tracer.open("client.request", root, id));
        let sent = Instant::now();
        let reply = conn.call(read.path, &read.line).ok();
        let received = Instant::now();
        if let Some(span) = span {
            tracer.close(span);
        }
        if let Some(id) = traced {
            for node in direct.iter_mut() {
                tracer.time("router.node_direct", root, id, || {
                    node.call(read.path, &read.line).ok()
                });
            }
        }
        if let Some(root) = root {
            tracer.close(root);
        }
        samples.push(ReadSample {
            request,
            sent,
            received,
            rtt: received - sent,
            reply,
            traced,
        });
    }
    samples
}

/// Ingests `tables` over `conn` back to back, checking each report.
fn ingest_loop(
    conn: &mut Conn,
    tables: &[ipsketch_data::Table],
    checks: &mut Checks,
) -> Vec<IngestSample> {
    let mut samples = Vec::with_capacity(tables.len());
    for (j, table) in tables.iter().enumerate() {
        let line = workloads::ingest_line(table, 1_000_000 + j as u64);
        let sent = Instant::now();
        let outcome = call_ok(conn, "/v1/ingest", &line);
        let acked = Instant::now();
        checks.attempted += 1;
        let want: BTreeSet<(String, String)> = table
            .columns()
            .iter()
            .map(|c| (table.name().to_string(), c.name.clone()))
            .collect();
        match outcome {
            Ok(ResponseBody::Report { registered, .. })
                if registered.iter().cloned().collect::<BTreeSet<_>>() == want =>
            {
                samples.push(IngestSample {
                    sent,
                    acked,
                    columns: registered.len(),
                });
            }
            Ok(other) => checks.fail(format!("ingest of {} answered {other:?}", table.name())),
            Err(e) => checks.fail(format!("ingest of {} failed: {e}", table.name())),
        }
    }
    samples
}

/// Exact join sizes of each query column with every candidate column.
fn ground_truth(
    queries: &[ipsketch_data::Table],
    candidates: &[&ipsketch_data::Table],
) -> Vec<Vec<Truth>> {
    queries
        .iter()
        .map(|query| {
            let column = &query.columns()[0].name;
            candidates
                .iter()
                .flat_map(|table| {
                    table.columns().iter().map(move |c| Truth {
                        table: table.name().to_string(),
                        column: c.name.clone(),
                        join_size: exact_join_statistics(query, column, table, &c.name)
                            .expect("columns exist")
                            .join_size,
                    })
                })
                .collect()
        })
        .collect()
}

fn rankings_of(body: &ResponseBody) -> Vec<Vec<Served>> {
    let served = |rows: &[ipsketch_serve::protocol::WireRanked]| {
        rows.iter()
            .map(|r| Served {
                table: r.table.clone(),
                column: r.column.clone(),
                join_size: r.join_size,
            })
            .collect()
    };
    match body {
        ResponseBody::Ranking { ranking, .. } => vec![served(ranking)],
        ResponseBody::Rankings { rankings, .. } => rankings.iter().map(|r| served(r)).collect(),
        _ => Vec::new(),
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// The commit the checkout was taken from, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".to_string(),
    }
}

/// Everything read from the first set-up and kept for the whole run.
struct Reference {
    /// The served catalog reopened in-process (for `routed-search`, one
    /// catalog of the same tables, which the router's merged answers must
    /// equal).
    service: QueryService,
    /// The reference answer to every distinct read request (read-only
    /// workloads; `lake-ingest` derives its answers per slice).
    expected: Vec<String>,
    /// Storage right after set-up.
    bytes: ByteSplit,
    /// `QueryService::open` + `ensure_hydrated` of the reference catalog.
    hydrate: Duration,
}

/// Which fresh tables an answer saw: the indices `from..to` of
/// [`workloads::Inputs::fresh`] (empty while no writer runs beside reads).
#[derive(Clone, Copy)]
struct Visible {
    from: usize,
    to: usize,
}

impl Visible {
    fn admits(self, fresh_index: Option<&usize>) -> bool {
        fresh_index.is_none_or(|&j| (self.from..self.to).contains(&j))
    }
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let workload = args.workload;
    let framer = workload.framer();
    let inputs = workloads::inputs(workload, args.seed, args.seconds);
    let reads = workloads::read_requests(workload, &inputs.queries);
    let fresh_index: HashMap<&str, usize> = inputs
        .fresh
        .iter()
        .enumerate()
        .map(|(j, t)| (t.name(), j))
        .collect();
    let mut checks = Checks::default();
    let mut report =
        vec![format!(
        "host: nproc={} IPSKETCH_KERNEL={:?} IPSKETCH_THREADS={PINNED_THREADS} server_workers={} \
         nodes={} commit={}",
        std::thread::available_parallelism().map_or(0, usize::from),
        ipsketch_core::kernel::mode(),
        workload.workers(),
        if workload == Workload::RoutedSearch { deploy::ROUTED_NODES } else { 1 },
        commit(),
    )];

    // The run is `reps` slices, each a full set-up followed by its share of
    // the read window and of the fresh tables: spreading the measured time
    // over the whole run averages out slow drifts of the host's speed.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let window = Duration::from_secs(args.seconds);
    let mut setup_s = Vec::with_capacity(reps);
    let mut hydrate_ms = Vec::with_capacity(reps);
    let mut build_s = Vec::with_capacity(reps);
    let mut reference: Option<Reference> = None;
    let mut tracer = Tracer::new(args.trace);
    let mut samples: Vec<ReadSample> = Vec::new();
    let mut visible: Vec<Option<Visible>> = Vec::new();
    let mut ingests: Vec<IngestSample> = Vec::new();
    let mut read_elapsed = Duration::ZERO;
    let mut ingest_elapsed = Duration::ZERO;
    let mut cluster = None;
    let probe_root = dir.join("probe");
    let mut sketches = HashMap::new();
    for rep in 0..reps {
        let rep_dir = dir.join(format!("setup{rep}"));
        let setup = deploy::setup(workload, &inputs, &reads[0], &rep_dir)?;
        checks.attempted += 1; // the warm request
        setup_s.push(setup.elapsed.as_secs_f64());
        build_s.push(setup.build.as_secs_f64());
        hydrate_ms.push(secs_ms(setup.hydrate));
        let deployment = setup.deployment;
        if reference.is_none() {
            let mut bytes = ByteSplit::default();
            for root in deployment.roots() {
                bytes.add(&deploy::catalog_bytes(&root)?);
            }
            let root = if workload == Workload::RoutedSearch {
                let root = dir.join("reference");
                deploy::build_catalog(&root, &inputs.catalog)?;
                root
            } else {
                deployment.roots()[0].clone()
            };
            let opened = Instant::now();
            let mut service = deploy::open_hydrated(&root)?;
            let hydrate = opened.elapsed();
            if args.trace {
                copy_dir(&root, &probe_root).map_err(|e| e.to_string())?;
            }
            let expected = if workload == Workload::LakeIngest {
                Vec::new()
            } else {
                reads
                    .iter()
                    .map(|r| replay(&mut service, &r.line, &mut Tracer::new(false), None, 0))
                    .collect::<Result<_, _>>()?
            };
            reference = Some(Reference {
                service,
                expected,
                bytes,
                hydrate,
            });
        }
        let reference = reference.as_mut().expect("set on the first slice");

        // This slice's share of the fresh tables and of the read window.
        let fresh_from = rep * inputs.fresh.len() / reps;
        let fresh_to = (rep + 1) * inputs.fresh.len() / reps;
        let fresh = &inputs.fresh[fresh_from..fresh_to];
        let addr = deployment.addr(framer);
        let mut conn = Conn::connect(framer, addr).map_err(|e| e.to_string())?;
        let mut direct: Vec<Conn> = if args.trace {
            deployment
                .node_addrs()
                .into_iter()
                .map(|a| Conn::connect(Framer::Tcp, a))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?
        } else {
            Vec::new()
        };
        let first = samples.len();
        let cycle_done = |sent: usize| rep + 1 < reps || first + sent >= reads.len();
        let started = Instant::now();
        let slice_ingests = if workload == Workload::LakeIngest {
            let writer_done = AtomicBool::new(false);
            let mut writer_conn = Conn::connect(framer, addr).map_err(|e| e.to_string())?;
            let mut writer_checks = Checks::default();
            let (slice, writes) = std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    let writes = ingest_loop(&mut writer_conn, fresh, &mut writer_checks);
                    writer_done.store(true, Ordering::SeqCst);
                    writes
                });
                let slice = read_loop(
                    &mut conn,
                    &reads,
                    first,
                    &|sent| writer_done.load(Ordering::SeqCst) && cycle_done(sent),
                    &mut tracer,
                    &mut reference.service,
                    &mut direct,
                );
                (slice, writer.join().expect("writer thread"))
            });
            read_elapsed += started.elapsed();
            checks.attempted += writer_checks.attempted;
            checks.failed += writer_checks.failed;
            checks.mismatches.extend(writer_checks.mismatches);
            samples.extend(slice);
            writes
        } else {
            let slice_window = window / reps as u32;
            let slice = read_loop(
                &mut conn,
                &reads,
                first,
                &|sent| started.elapsed() >= slice_window && cycle_done(sent),
                &mut tracer,
                &mut reference.service,
                &mut direct,
            );
            read_elapsed += started.elapsed();
            samples.extend(slice);
            ingest_loop(&mut conn, fresh, &mut checks)
        };
        if let (Some(first), Some(last)) = (slice_ingests.first(), slice_ingests.last()) {
            ingest_elapsed += last.acked - first.sent;
        }
        if let Deployment::Routed { router, .. } = &deployment {
            cluster = Some(router.stats());
        }
        drop(direct);
        drop(conn);
        let served_root = deployment.roots()[0].clone();
        deployment.shutdown();

        // Which catalog state each read of this slice saw.
        if workload == Workload::LakeIngest {
            // The final catalog ranks every candidate; an answer is that
            // ranking restricted to some prefix of the writer's commits — at
            // least those acknowledged before the read was sent, at most those
            // sent before its answer arrived.
            let mut last = deploy::open_hydrated(&served_root)?;
            let full: Vec<FullRanking> = reads
                .iter()
                .map(|r| FullRanking::compute(&mut last, &r.line, &mut sketches))
                .collect::<Result<_, _>>()?;
            for sample in &samples[first..] {
                let lo = slice_ingests
                    .iter()
                    .filter(|s| s.acked < sample.sent)
                    .count();
                let hi = slice_ingests
                    .iter()
                    .filter(|s| s.sent < sample.received)
                    .count();
                let seen = sample.reply.as_ref().and_then(|reply| {
                    (lo..=hi)
                        .map(|p| Visible {
                            from: fresh_from,
                            to: fresh_from + p,
                        })
                        .find(|v| {
                            full[sample.request].expected(|t| v.admits(fresh_index.get(t)))
                                == reply.line
                        })
                });
                visible.push(seen);
            }
        } else {
            let expected = &reference.expected;
            visible.extend(samples[first..].iter().map(|sample| {
                let reply = sample.reply.as_ref()?;
                (reply.line == expected[sample.request]).then_some(Visible { from: 0, to: 0 })
            }));
        }
        ingests.extend(slice_ingests);
    }
    let reference = reference.expect("at least one slice");

    // Correctness: every read answered, and answered as the reference does.
    for (sample, seen) in samples.iter().zip(&visible) {
        checks.attempted += 1;
        let read = &reads[sample.request];
        if sample.reply.is_none() {
            checks.fail(format!("read {} got no answer", sample.request));
        } else if seen.is_none() {
            checks.fail(format!(
                "read {} ({:?}, cascade {}) differs from the in-process answer",
                sample.request, read.mode, read.cascade
            ));
        }
    }
    // Cascade answers equal their flat twins' (read-only workloads, where both
    // see the same catalog; `lake-ingest` checks cascade answers against the
    // flat ranking directly).
    if workload != Workload::LakeIngest {
        let body = |line: &str| Response::decode(line).ok().and_then(|r| r.result.ok());
        for (i, read) in reads.iter().enumerate() {
            let Some(flat) = read.flat_twin else { continue };
            let (a, b) = (
                body(&reference.expected[i]),
                body(&reference.expected[flat]),
            );
            if a.is_none() || a.as_ref().map(rankings_of) != b.as_ref().map(rankings_of) {
                checks.fail(format!(
                    "cascade request {i} disagrees with flat request {flat}"
                ));
            }
        }
    }

    // Accuracy against exact ground truth, from the first answer to every
    // distinct flat joinable request.
    let universe: Vec<&ipsketch_data::Table> = if workload == Workload::LakeIngest {
        inputs.catalog.iter().chain(&inputs.fresh).collect()
    } else {
        inputs.catalog.iter().collect()
    };
    let truth = ground_truth(&inputs.queries, &universe);
    let mut recalls = Vec::new();
    let mut rel_errors = Vec::new();
    for (i, read) in reads.iter().enumerate() {
        if read.mode != Mode::Joinable || read.cascade {
            continue;
        }
        let Some((sample, seen)) = samples
            .iter()
            .zip(&visible)
            .find_map(|(s, v)| (s.request == i).then_some(()).and(v.map(|v| (s, v))))
        else {
            continue;
        };
        let reply = sample.reply.as_ref().expect("matched samples have replies");
        let Some(body) = Response::decode(&reply.line)
            .ok()
            .and_then(|r| r.result.ok())
        else {
            continue;
        };
        for (served, &q) in rankings_of(&body).iter().zip(&read.queries) {
            let candidates: Vec<Truth> = truth[q]
                .iter()
                .filter(|t| seen.admits(fresh_index.get(t.table.as_str())))
                .cloned()
                .collect();
            recalls.push(stats::recall_at_k(served, &candidates, K));
            rel_errors.extend(stats::join_size_rel_errors(served, &candidates));
        }
    }
    if recalls.is_empty() {
        checks.fail("no flat joinable answer to score against ground truth".to_string());
    }

    // End-to-end metrics.
    let bytes = reference.bytes;
    let logical_columns: u64 = inputs
        .catalog
        .iter()
        .map(|t| t.columns().len() as u64)
        .sum();
    let rtts: Vec<f64> = samples.iter().map(|s| secs_ms(s.rtt)).collect();
    let tail = tail_percentile(rtts.len(), TAIL_MIN_BEYOND).unwrap_or(0.5);
    let ingest_ms: Vec<f64> = ingests.iter().map(|s| secs_ms(s.acked - s.sent)).collect();
    let ingest_cols: usize = ingests.iter().map(|s| s.columns).sum();
    report.push(format!(
        "workload {} seed {}: {} reads in {:.2} s (tail percentile p{} has {} samples beyond it), \
         {} ingests of {} columns, {} slices",
        workload.name(),
        args.seed,
        rtts.len(),
        read_elapsed.as_secs_f64(),
        tail * 100.0,
        rtts.len() - ((tail * rtts.len() as f64).ceil() as usize).min(rtts.len()),
        ingests.len(),
        ingest_cols,
        reps,
    ));
    let catalog_rows: usize = inputs.catalog.iter().map(ipsketch_data::Table::rows).sum();
    let query_rows: usize = inputs.queries.iter().map(ipsketch_data::Table::rows).sum();
    report.push(format!(
        "inputs: {} catalog tables ({logical_columns} columns, {:.1} rows mean), {} queries \
         ({:.1} rows mean), {} fresh tables",
        inputs.catalog.len(),
        catalog_rows as f64 / inputs.catalog.len().max(1) as f64,
        inputs.queries.len(),
        query_rows as f64 / inputs.queries.len().max(1) as f64,
        inputs.fresh.len(),
    ));
    report.push(format!(
        "set-up (median of {reps}): {:.3} s, of which catalog build {:.3} s and reopen + hydrate {:.1} ms",
        median(&setup_s),
        median(&build_s),
        median(&hydrate_ms),
    ));
    report.push(format!(
        "storage per column: primary {:.0} B, companion {:.0} B, manifest {:.0} B, other {:.0} B",
        ByteSplit::per_col(bytes.primary, logical_columns),
        ByteSplit::per_col(bytes.companion, logical_columns),
        ByteSplit::per_col(bytes.manifest, logical_columns),
        ByteSplit::per_col(bytes.other, logical_columns),
    ));
    for mismatch in &checks.mismatches {
        report.push(format!("CHECK FAILED: {mismatch}"));
    }

    let metrics = if args.trace {
        let mut m = layer_metrics(&tracer, &samples, &mut report);
        // Deterministic per seed, but the lake's geometry moves it by about a
        // quarter between seeds, so it is reported with the layers, unbounded.
        m.push(Metric::new(
            "join_size_rel_err",
            median(&rel_errors),
            "frac",
        ));
        // Routed nodes are filled over the wire and never reopened; their
        // reference catalog's reopen stands in.
        let hydrate = if workload == Workload::RoutedSearch {
            secs_ms(reference.hydrate)
        } else {
            median(&hydrate_ms)
        };
        m.push(Metric::new("service.hydrate_ms", hydrate, "ms"));
        m.push(Metric::new(
            "catalog.manifest_bytes",
            bytes.manifest as f64,
            "bytes",
        ));
        for (name, part) in [
            ("catalog.primary_bytes_per_col", bytes.primary),
            ("catalog.companion_bytes_per_col", bytes.companion),
            ("catalog.manifest_bytes_per_col", bytes.manifest),
        ] {
            m.push(Metric::new(
                name,
                ByteSplit::per_col(part, logical_columns),
                "bytes",
            ));
        }
        let (retries, failovers) = cluster.map_or((0, 0), |c| {
            (c.nodes.iter().map(|n| n.errors).sum::<u64>(), c.failovers)
        });
        m.push(Metric::new("router.retries", retries as f64, "count"));
        m.push(Metric::new("router.failovers", failovers as f64, "count"));
        m.push(Metric::new(
            "client.error_rate",
            checks.failed as f64 / checks.attempted.max(1) as f64,
            "frac",
        ));
        m.extend(probes::run(
            &reference.service,
            &inputs,
            &reads,
            &probe_root,
        )?);
        let spans =
            Path::new(WORK_DIR).join(format!("spans-{}-seed{}.tsv", workload.name(), args.seed));
        tracer.write_tsv(&spans).map_err(|e| e.to_string())?;
        report.push(format!("spans written to {}", spans.display()));
        m
    } else {
        vec![
            Metric::new("query_p50_ms", percentile(&rtts, 0.5), "ms"),
            Metric::new("query_p90_ms", percentile(&rtts, tail), "ms"),
            Metric::new(
                "query_per_s",
                rtts.len() as f64 / read_elapsed.as_secs_f64(),
                "1/s",
            ),
            Metric::new("ingest_p50_ms", median(&ingest_ms), "ms"),
            Metric::new(
                "ingest_cols_per_s",
                ingest_cols as f64 / ingest_elapsed.as_secs_f64().max(1e-9),
                "1/s",
            ),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("recall_at_10", stats::mean(&recalls), "frac"),
            Metric::new(
                "disk_bytes_per_col",
                ByteSplit::per_col(bytes.total(), logical_columns),
                "bytes",
            ),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    Ok(Outcome {
        checks,
        metrics,
        report,
    })
}

/// Per span name within one traced request: (Σ self ns, Σ duration ns).
type SpanTotals<'a> = HashMap<&'a str, (u64, u64)>;

/// Per-layer metrics from the traced reads' spans: each traced request's
/// round trip splits into the in-process layers' self times plus the server
/// overhead (round trip minus the whole in-process replay), which together
/// sum to the round trip exactly.
fn layer_metrics(tracer: &Tracer, samples: &[ReadSample], report: &mut Vec<String>) -> Vec<Metric> {
    let spans = tracer.spans();
    let self_ns = trace::self_times_ns(spans);
    // Per traced request: name → (Σ self ns, Σ duration ns), plus direct RTTs.
    let mut by_request: HashMap<u64, SpanTotals> = HashMap::new();
    let mut direct: HashMap<u64, Vec<f64>> = HashMap::new();
    for (span, &own) in spans.iter().zip(&self_ns) {
        let entry = by_request
            .entry(span.request)
            .or_default()
            .entry(span.name)
            .or_default();
        entry.0 += own;
        entry.1 += span.duration_ns();
        if span.name == "router.node_direct" {
            direct
                .entry(span.request)
                .or_default()
                .push(span.duration_ns() as f64 / 1e6);
        }
    }
    let traced: Vec<&SpanTotals> = samples
        .iter()
        .filter_map(|s| s.traced.and_then(|id| by_request.get(&id)))
        .collect();
    let self_ms = |r: &SpanTotals, name: &str| r.get(name).map_or(0.0, |v| v.0 as f64 / 1e6);
    let dur_ms = |r: &SpanTotals, name: &str| r.get(name).map_or(0.0, |v| v.1 as f64 / 1e6);
    let column =
        |f: &dyn Fn(&SpanTotals) -> f64| -> Vec<f64> { traced.iter().map(|r| f(r)).collect() };
    let rtt = column(&|r| dur_ms(r, "client.request"));
    let overhead = column(&|r| dur_ms(r, "client.request") - dur_ms(r, "inproc"));
    let protocol = column(&|r| {
        self_ms(r, "protocol.decode")
            + self_ms(r, "protocol.to_table")
            + self_ms(r, "protocol.encode")
    });
    let layer = |name: &str| column(&|r| self_ms(r, name));
    let companion: Vec<f64> = traced
        .iter()
        .filter(|r| r.contains_key("service.sketch_companion"))
        .map(|r| self_ms(r, "service.sketch_companion"))
        .collect();

    // Shares of the summed round trips; self times plus the server overhead
    // account for every nanosecond of each round trip.
    let total_rtt: f64 = rtt.iter().sum::<f64>().max(1e-12);
    let shares = [
        ("server.overhead", overhead.iter().sum::<f64>()),
        ("protocol", protocol.iter().sum::<f64>()),
        (
            "service.sketch_query",
            layer("service.sketch_query").iter().sum(),
        ),
        (
            "service.sketch_companion",
            layer("service.sketch_companion").iter().sum(),
        ),
        ("service.query", layer("service.query").iter().sum()),
        ("replay.glue", layer("inproc").iter().sum()),
    ];
    let accounted: f64 = shares.iter().map(|s| s.1).sum();
    let dominant = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty");
    report.push(format!(
        "dominant layer: {} ({:.1}% of {} traced round trips; layers + overhead account for {:.4} of them)",
        dominant.0,
        100.0 * dominant.1 / total_rtt,
        traced.len(),
        accounted / total_rtt,
    ));

    let untraced: Vec<f64> = samples
        .iter()
        .filter(|s| s.traced.is_none())
        .map(|s| secs_ms(s.rtt))
        .collect();
    let router_overhead: Vec<f64> = samples
        .iter()
        .filter_map(|s| {
            let nodes = direct.get(&s.traced?)?;
            let slowest = nodes.iter().copied().fold(f64::MIN, f64::max);
            Some(secs_ms(s.rtt) - slowest)
        })
        .collect();
    let straggler: Vec<f64> = direct
        .values()
        .map(|nodes| {
            nodes.iter().copied().fold(f64::MIN, f64::max)
                - nodes.iter().copied().fold(f64::MAX, f64::min)
        })
        .collect();
    let bytes = |f: &dyn Fn(&Reply) -> usize| -> f64 {
        median(
            &samples
                .iter()
                .filter_map(|s| s.reply.as_ref().map(|r| f(r) as f64))
                .collect::<Vec<_>>(),
        )
    };
    let mut out = vec![
        Metric::new("server.overhead_ms", median(&overhead), "ms"),
        Metric::new("server.overhead_p90_ms", percentile(&overhead, 0.9), "ms"),
        Metric::new("server.request_bytes", bytes(&|r| r.sent), "bytes"),
        Metric::new("server.response_bytes", bytes(&|r| r.received), "bytes"),
        Metric::new(
            "protocol.decode_us",
            median(&layer("protocol.decode")) * 1e3,
            "us",
        ),
        Metric::new(
            "protocol.to_table_us",
            median(&layer("protocol.to_table")) * 1e3,
            "us",
        ),
        Metric::new(
            "protocol.encode_us",
            median(&layer("protocol.encode")) * 1e3,
            "us",
        ),
        Metric::new(
            "service.sketch_query_ms",
            median(&layer("service.sketch_query")),
            "ms",
        ),
        Metric::new("service.sketch_companion_ms", median(&companion), "ms"),
        Metric::new("service.query_ms", median(&layer("service.query")), "ms"),
        Metric::new("request.rtt_ms", median(&rtt), "ms"),
        Metric::new("router.overhead_ms", median(&router_overhead), "ms"),
        Metric::new("router.straggler_gap_ms", median(&straggler), "ms"),
        Metric::new(
            "trace.overhead_frac",
            percentile(&rtt, 0.5) / percentile(&untraced, 0.5).max(1e-12) - 1.0,
            "frac",
        ),
    ];
    for (name, part) in shares {
        let metric = format!("rtt_frac.{name}");
        out.push(Metric::new(&metric, part / total_rtt, "frac"));
    }
    out
}
