//! The workloads. Each runs its set-up several times, then a closed
//! loop over seeded query orders; in a traced run it also times every
//! layer call from the outside and records a span around it.

use crate::data::Oracle;
use crate::stats::{median, reset_peak_rss, Passes};
use crate::trace::Tracer;
use legobase::client::Client;
use legobase::server::TcpServer;
use legobase::sql::tpch_sql;
use legobase::storage::RowTable;
use legobase::wire::{self, FrameKind};
use legobase::{
    Config, LegoBase, LoadedQuery, QueryRequest, QueryService, ResultTable, ServeOptions,
    ServiceStats, Settings,
};
use std::collections::{BTreeMap, HashMap};
use std::io::Read;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Warm analytics: one in-process session, prepared cache warmed.
    Olap,
    /// Small queries through the TCP front door, two connections.
    Serve,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub sf: f64,
    pub queries: &'static [usize],
}

const ALL_22: [usize; 22] =
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22];

/// The per-type execute metrics of the traced run.
pub const OLAP_QUERIES: [usize; 6] = [1, 3, 6, 12, 14, 18];

pub const WORKLOADS: [Spec; 2] = [
    Spec { name: "olap-sf0.02-warm", kind: Kind::Olap, sf: 0.02, queries: &OLAP_QUERIES },
    Spec { name: "serve-tcp-sf0.002", kind: Kind::Serve, sf: 0.002, queries: &ALL_22 },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// One client's requests: latencies of correct responses and failures.
#[derive(Default)]
pub struct Record {
    /// (query, latency ms) of every correct response.
    pub samples: Vec<(usize, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Record {
    fn attempt(
        &mut self,
        q: usize,
        outcome: Result<(f64, ResultTable), String>,
        oracle: &mut Oracle,
    ) {
        self.attempted += 1;
        let verdict = outcome.and_then(|(ms, result)| oracle.check(q, &result).map(|()| ms));
        match verdict {
            Ok(ms) => self.samples.push((q, ms)),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
            }
        }
    }

    pub fn merge(&mut self, other: Record) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    pub fn mean_ms(&self) -> f64 {
        self.samples.iter().map(|s| s.1).sum::<f64>() / self.samples.len().max(1) as f64
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub archive_open_ms: Vec<f64>,
    /// The timed window (the traced half in a traced run).
    pub window: Record,
    pub window_s: f64,
    /// Checked requests outside the window: warm-ups and probes.
    pub other: Record,
    /// Per-layer metrics of a traced run: name → (value, unit).
    pub layers: BTreeMap<String, (f64, &'static str)>,
    pub info: BTreeMap<&'static str, String>,
    pub tracer: Option<Tracer>,
}

/// How a run measures: the window length, the sample floor, and whether
/// layers are traced.
pub struct Plan<'a> {
    pub spec: &'static Spec,
    pub archive: &'a Path,
    pub refs: &'a HashMap<usize, ResultTable>,
    pub seed: u64,
    pub seconds: f64,
    pub min_samples: usize,
    pub trace: bool,
}

/// The settings every request runs under: the request builder's default.
pub fn settings() -> Settings {
    Config::OptC.settings()
}

fn sql(q: usize) -> QueryRequest {
    QueryRequest::sql(tpch_sql(q))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Client connections of the front-door workload: two tenants, but never
/// more connections than hardware threads.
pub fn serve_clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// A closed loop: pass after pass of seeded query orders, each request
/// issued when the previous one returned. The window ends on the first pass
/// boundary after the deadline at which `min_samples` correct responses
/// exist.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    queries: &[usize],
    seed: u64,
    stream: u64,
    deadline: Instant,
    min_samples: usize,
    oracle: &mut Oracle,
    rec: &mut Record,
    mut issue: impl FnMut(usize) -> Result<(f64, ResultTable), String>,
) {
    let mut passes = Passes::new(queries, seed, stream);
    while Instant::now() < deadline || rec.samples.len() < min_samples {
        for q in passes.next_pass() {
            let outcome = issue(q);
            rec.attempt(q, outcome, oracle);
        }
        if rec.failed > 0 && rec.samples.is_empty() && rec.attempted >= queries.len() as u64 {
            break; // nothing succeeds; stop instead of spinning to the sample floor
        }
    }
}

/// Opens the archive inside a `tpch` span.
fn open(archive: &Path, tracer: &mut Option<Tracer>) -> Result<(LegoBase, f64), String> {
    let t = Instant::now();
    let id = tracer.as_mut().map(|tr| tr.begin(0, "tpch.archive_open", None));
    let system = LegoBase::from_archive(archive).map_err(|e| format!("archive: {e}"))?;
    if let (Some(tr), Some(id)) = (tracer.as_mut(), id) {
        tr.end(id);
    }
    Ok((system, ms(t.elapsed())))
}

/// What the decomposed compile → load → execute path measured for one
/// request.
struct Prepared {
    sql_ms: f64,
    opt_ms: f64,
    sc_ms: f64,
    load_ms: f64,
    total_ms: f64,
    ir_size: usize,
    load_bytes: usize,
    resident_bytes: usize,
    result: ResultTable,
}

/// Serves one SQL text by calling each layer's public function in turn —
/// the same steps `LegoBase::query` takes — with a span around each call.
/// `LegoBase::load` compiles the plan again before loading, so the load
/// figure is its span minus this request's own compile span.
fn decomposed(
    system: &LegoBase,
    q: usize,
    tr: &mut Tracer,
    request: u64,
) -> Result<Prepared, String> {
    let catalog = &system.data.catalog;
    let settings = settings();
    let t0 = Instant::now();
    let root = tr.begin(request, "request", None);
    let timed = |tr: &mut Tracer, layer| {
        let id = tr.begin(request, layer, Some(root));
        (id, Instant::now())
    };
    let (id, t) = timed(tr, "sql");
    let lowered = legobase::sql::plan(tpch_sql(q), catalog).map_err(|e| format!("Q{q}: {e}"))?;
    tr.end(id);
    let sql_ms = ms(t.elapsed());

    let (id, t) = timed(tr, "optimizer");
    let plan = if settings.optimize {
        legobase::engine::optimizer::optimize(&lowered, catalog).0
    } else {
        lowered
    };
    tr.end(id);
    let opt_ms = ms(t.elapsed());

    let (id, t) = timed(tr, "sc");
    let compiled = legobase::sc::compile(&plan, catalog, &settings);
    tr.end(id);
    let sc_ms = ms(t.elapsed());
    let ir_size = compiled.trace.last().map_or(0, |p| p.size);

    let (id, t) = timed(tr, "engine.load");
    let loaded: LoadedQuery = system.load(&plan, &settings);
    tr.end(id);
    let load_ms = (ms(t.elapsed()) - sc_ms).max(0.0);

    let (id, _) = timed(tr, "engine.execute");
    let result = loaded.execute();
    tr.end(id);
    tr.end(root);
    Ok(Prepared {
        sql_ms,
        opt_ms,
        sc_ms,
        load_ms,
        total_ms: ms(t0.elapsed()),
        ir_size,
        load_bytes: loaded.load_report().approx_bytes,
        resident_bytes: loaded.memory_bytes(),
        result,
    })
}

/// Per-layer means and sums over the preparations of a traced set-up, one
/// per query type.
#[derive(Default)]
struct PrepStats {
    n: usize,
    sql_ms: f64,
    opt_ms: f64,
    sc_ms: f64,
    load_ms: f64,
    ir_size: usize,
    load_bytes: usize,
    resident_bytes: usize,
    rows: usize,
}

impl PrepStats {
    fn add(&mut self, p: &Prepared) {
        self.n += 1;
        self.sql_ms += p.sql_ms;
        self.opt_ms += p.opt_ms;
        self.sc_ms += p.sc_ms;
        self.load_ms += p.load_ms;
        self.ir_size += p.ir_size;
        self.load_bytes += p.load_bytes;
        self.resident_bytes += p.resident_bytes;
        self.rows += p.result.len();
    }

    fn report(&self, out: &mut Outcome) {
        let n = self.n.max(1) as f64;
        let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
        let l = &mut out.layers;
        l.insert("sql.plan_ms".into(), (self.sql_ms / n, "ms"));
        l.insert("optimizer.optimize_ms".into(), (self.opt_ms / n, "ms"));
        l.insert("sc.compile_ms".into(), (self.sc_ms / n, "ms"));
        l.insert("sc.ir_size".into(), (self.ir_size as f64, "count"));
        l.insert("engine.load_ms".into(), (self.load_ms / n, "ms"));
        l.insert("engine.load_mb".into(), (mb(self.load_bytes), "MB"));
        l.insert("engine.resident_mb".into(), (mb(self.resident_bytes), "MB"));
        l.insert("engine.result_rows".into(), (self.rows as f64, "count"));
    }
}

/// Reports the execute time of the traced window, overall and per type.
fn report_execute(out: &mut Outcome, exec_ms: &[f64], by_query: &BTreeMap<usize, Vec<f64>>) {
    let mean = exec_ms.iter().sum::<f64>() / exec_ms.len().max(1) as f64;
    out.layers.insert("engine.execute_ms".into(), (mean, "ms"));
    for q in OLAP_QUERIES {
        let v = by_query.get(&q).map_or(0.0, |v| median(v));
        out.layers.insert(format!("engine.execute_ms.Q{q}"), (v, "ms"));
    }
}

fn report_service(
    out: &mut Outcome,
    overhead_ms: f64,
    before: &ServiceStats,
    after: &ServiceStats,
) {
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let l = &mut out.layers;
    l.insert("service.overhead_ms".into(), (overhead_ms, "ms"));
    l.insert(
        "service.plan_cache_hit_ratio".into(),
        (
            ratio(
                after.plan_cache_hits - before.plan_cache_hits,
                after.plan_cache_misses - before.plan_cache_misses,
            ),
            "ratio",
        ),
    );
    l.insert(
        "service.prepared_cache_hit_ratio".into(),
        (
            ratio(
                after.prepared_cache_hits - before.prepared_cache_hits,
                after.prepared_cache_misses - before.prepared_cache_misses,
            ),
            "ratio",
        ),
    );
    let failed = |s: &ServiceStats| s.queries_rejected + s.queries_panicked + s.queries_expired;
    l.insert("service.failed".into(), ((failed(after) - failed(before)) as f64, "count"));
}

/// Counts the bytes a response occupies on the wire.
struct Counting<'a> {
    inner: &'a mut TcpStream,
    bytes: u64,
}

impl Read for Counting<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// One request over a raw connection through the public frame functions,
/// with spans around sending and receiving.
struct WireReply {
    result: ResultTable,
    round_trip_ms: f64,
    server_total_ms: f64,
    server_exec_ms: f64,
    bytes: u64,
}

fn connect_raw(addr: std::net::SocketAddr) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    wire::client_handshake(&mut stream).map_err(|e| format!("handshake: {e}"))?;
    Ok(stream)
}

fn wire_request(
    stream: &mut TcpStream,
    q: usize,
    tr: &mut Tracer,
    request: u64,
) -> Result<WireReply, String> {
    let t0 = Instant::now();
    let root = tr.begin(request, "client", None);
    let err = |e: wire::WireError| format!("Q{q}: wire: {e}");
    let id = tr.begin(request, "wire.send", Some(root));
    let payload = wire::encode_request(&sql(q)).map_err(err)?;
    wire::write_frame(stream, FrameKind::Request, &payload).map_err(|e| format!("Q{q}: {e}"))?;
    tr.end(id);

    let id = tr.begin(request, "wire.receive", Some(root));
    let mut counting = Counting { inner: stream, bytes: 0 };
    let header = match wire::read_frame(&mut counting).map_err(err)? {
        (FrameKind::ResponseHeader, p) => wire::decode_header(&p).map_err(err)?,
        (FrameKind::Error, p) => {
            let e = wire::decode_error(&p).map_err(err)?;
            return Err(format!("Q{q}: {e}"));
        }
        (kind, _) => return Err(format!("Q{q}: unexpected frame {kind:?}")),
    };
    let mut table = RowTable::with_capacity(header.schema.clone(), header.rows as usize);
    loop {
        match wire::read_frame(&mut counting).map_err(err)? {
            (FrameKind::ResultBatch, p) => table.rows.extend(wire::decode_batch(&p).map_err(err)?),
            (FrameKind::ResponseEnd, _) => break,
            (kind, _) => return Err(format!("Q{q}: unexpected frame {kind:?}")),
        }
    }
    let bytes = counting.bytes;
    tr.end(id);
    tr.end(root);
    Ok(WireReply {
        result: ResultTable(table),
        round_trip_ms: ms(t0.elapsed()),
        server_total_ms: ms(header.total_time),
        server_exec_ms: ms(header.exec_time),
        bytes,
    })
}

/// Per-request wire and service figures of raw-connection requests.
#[derive(Default)]
struct WireStats {
    n: usize,
    overhead_ms: f64,
    service_ms: f64,
    bytes: u64,
    exec_ms: Vec<f64>,
    exec_by_query: BTreeMap<usize, Vec<f64>>,
}

impl WireStats {
    fn add(&mut self, q: usize, r: &WireReply) {
        self.n += 1;
        self.overhead_ms += r.round_trip_ms - r.server_total_ms;
        self.service_ms += r.server_total_ms - r.server_exec_ms;
        self.bytes += r.bytes;
        self.exec_ms.push(r.server_exec_ms);
        self.exec_by_query.entry(q).or_default().push(r.server_exec_ms);
    }

    fn merge(&mut self, o: WireStats) {
        self.n += o.n;
        self.overhead_ms += o.overhead_ms;
        self.service_ms += o.service_ms;
        self.bytes += o.bytes;
        self.exec_ms.extend(o.exec_ms);
        for (q, v) in o.exec_by_query {
            self.exec_by_query.entry(q).or_default().extend(v);
        }
    }

    fn report_wire(&self, out: &mut Outcome) {
        let n = self.n.max(1) as f64;
        out.layers.insert("wire.overhead_ms".into(), (self.overhead_ms / n, "ms"));
        out.layers.insert("wire.response_bytes".into(), (self.bytes as f64 / n, "bytes"));
    }
}

/// Serves `system` over loopback and sends every query twice on one raw
/// connection; the second round, served from warm caches, gives the wire
/// figures of a workload whose own path does not cross the wire.
fn front_door_probe(
    system: LegoBase,
    plan: &Plan,
    tr: &mut Tracer,
    oracle: &mut Oracle,
    out: &mut Outcome,
) -> Result<WireStats, String> {
    let server = system
        .serve_tcp("127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut stream = connect_raw(server.local_addr())?;
    let mut stats = WireStats::default();
    for round in 0..2 {
        for &q in plan.spec.queries {
            let reply = wire_request(&mut stream, q, tr, 0);
            if round == 1 {
                if let Ok(r) = &reply {
                    stats.add(q, r);
                }
            }
            out.other.attempt(q, reply.map(|r| (r.round_trip_ms, r.result)), oracle);
        }
    }
    drop(stream);
    server.shutdown();
    Ok(stats)
}

pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let mut out =
        Outcome { tracer: plan.trace.then(|| Tracer::new(Instant::now())), ..Default::default() };
    match plan.spec.kind {
        Kind::Olap => run_olap(plan, &mut out)?,
        Kind::Serve => run_serve(plan, &mut out)?,
    }
    Ok(out)
}

/// In a traced run, prepares every query of the workload once through the
/// decomposed path (set-up work outside the window).
fn traced_preparation(system: &LegoBase, plan: &Plan, out: &mut Outcome, stats: &mut PrepStats) {
    let Some(tr) = out.tracer.as_mut() else { return };
    let mut oracle = Oracle::new(plan.refs);
    for &q in plan.spec.queries {
        let p = decomposed(system, q, tr, 0);
        if let Ok(p) = &p {
            stats.add(p);
        }
        out.other.attempt(q, p.map(|p| (p.total_ms, p.result)), &mut oracle);
    }
}

/// Splits a traced run's window: the first half untraced, the second
/// traced; the difference of their mean latencies is the tracing overhead.
fn halves(plan: &Plan) -> (f64, f64) {
    if plan.trace {
        (plan.seconds / 2.0, plan.seconds / 2.0)
    } else {
        (plan.seconds, 0.0)
    }
}

fn report_overhead(out: &mut Outcome, untraced: &Record) {
    let pct = (out.window.mean_ms() / untraced.mean_ms() - 1.0) * 100.0;
    out.layers.insert("tracing.overhead_pct".into(), (pct, "%"));
}

fn run_olap(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let mut oracle = Oracle::new(plan.refs);
    let mut prep = PrepStats::default();
    let mut service: Option<QueryService> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = service.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let (system, open_ms) = open(plan.archive, &mut out.tracer)?;
        let setup_extra = if rep + 1 == SETUP_REPS {
            let t = Instant::now();
            traced_preparation(&system, plan, out, &mut prep);
            t.elapsed()
        } else {
            Duration::ZERO
        };
        let svc = system.serve();
        let session = svc.session();
        for &q in plan.spec.queries {
            let t = Instant::now();
            let r = session.query(&sql(q)).map(|r| (ms(t.elapsed()), r.result));
            out.other.attempt(q, r.map_err(|e| format!("Q{q}: {e}")), &mut oracle);
        }
        out.setup_s.push((t.elapsed() - setup_extra).as_secs_f64());
        out.archive_open_ms.push(open_ms);
        service = Some(svc);
    }
    let svc = service.expect("at least one set-up");
    out.info.insert("pool_workers", svc.pool_workers().to_string());
    let session = svc.session();
    let (untraced_s, traced_s) = halves(plan);
    reset_peak_rss();

    let mut rec = Record::default();
    let t = Instant::now();
    let deadline = t + Duration::from_secs_f64(untraced_s);
    let min = if plan.trace { plan.spec.queries.len() } else { plan.min_samples };
    closed_loop(plan.spec.queries, plan.seed, 0, deadline, min, &mut oracle, &mut rec, |q| {
        let t = Instant::now();
        let r = session.query(&sql(q)).map_err(|e| format!("Q{q}: {e}"))?;
        Ok((ms(t.elapsed()), r.result))
    });
    if !plan.trace {
        out.window_s = t.elapsed().as_secs_f64();
        out.window = rec;
        return Ok(());
    }

    let mut tr = out.tracer.take().expect("traced run");
    let before = svc.stats();
    let mut traced = Record::default();
    let (mut overhead, mut exec, mut by_query) = (0.0, Vec::new(), BTreeMap::new());
    let mut request = 0;
    let t = Instant::now();
    let deadline = t + Duration::from_secs_f64(traced_s);
    closed_loop(plan.spec.queries, plan.seed, 1, deadline, min, &mut oracle, &mut traced, |q| {
        request += 1;
        let t = Instant::now();
        let r = tr.span(request, "service", None, || session.query(&sql(q)));
        let wall = ms(t.elapsed());
        let r = r.map_err(|e| format!("Q{q}: {e}"))?;
        overhead += wall - ms(r.exec_time);
        exec.push(ms(r.exec_time));
        by_query.entry(q).or_insert_with(Vec::new).push(ms(r.exec_time));
        Ok((wall, r.result))
    });
    out.window_s = t.elapsed().as_secs_f64();
    let after = svc.stats();
    report_service(out, overhead / exec.len().max(1) as f64, &before, &after);
    report_execute(out, &exec, &by_query);
    prep.report(out);
    out.window = traced;
    report_overhead(out, &rec);
    out.other.merge(rec);

    let wire = front_door_probe(svc.into_system(), plan, &mut tr, &mut oracle, out)?;
    wire.report_wire(out);
    out.tracer = Some(tr);
    Ok(())
}

fn run_serve(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let clients = serve_clients();
    let mut oracle = Oracle::new(plan.refs);
    let mut prep = PrepStats::default();
    let mut current: Option<(TcpServer, Vec<Client>)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((server, conns)) = current.take() {
            drop(conns);
            server.shutdown();
        }
        let t = Instant::now();
        let (system, open_ms) = open(plan.archive, &mut out.tracer)?;
        let setup_extra = if plan.trace && rep + 1 == SETUP_REPS {
            let t = Instant::now();
            traced_preparation(&system, plan, out, &mut prep);
            t.elapsed()
        } else {
            Duration::ZERO
        };
        let server = system
            .serve_tcp("127.0.0.1:0", ServeOptions::default())
            .map_err(|e| format!("bind: {e}"))?;
        let mut conns = Vec::new();
        for _ in 0..clients {
            let mut c =
                Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
            for &q in plan.spec.queries {
                let t = Instant::now();
                let r = c.run(&sql(q)).map(|r| (ms(t.elapsed()), r.result));
                out.other.attempt(q, r.map_err(|e| format!("Q{q}: {e}")), &mut oracle);
            }
            conns.push(c);
        }
        out.setup_s.push((t.elapsed() - setup_extra).as_secs_f64());
        out.archive_open_ms.push(open_ms);
        current = Some((server, conns));
    }
    let (server, conns) = current.expect("at least one set-up");
    out.info.insert("pool_workers", ServeOptions::default().workers.to_string());
    out.info.insert("connections", clients.to_string());
    let (untraced_s, traced_s) = halves(plan);
    reset_peak_rss();

    let t = Instant::now();
    let deadline = t + Duration::from_secs_f64(untraced_s);
    let min = if plan.trace { plan.spec.queries.len() } else { plan.min_samples.div_ceil(clients) };
    let refs = plan.refs;
    let rec = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, mut c)| {
                s.spawn(move || {
                    let mut oracle = Oracle::new(refs);
                    let mut rec = Record::default();
                    closed_loop(
                        plan.spec.queries,
                        plan.seed,
                        i as u64,
                        deadline,
                        min,
                        &mut oracle,
                        &mut rec,
                        |q| {
                            let t = Instant::now();
                            let r = c.run(&sql(q)).map_err(|e| format!("Q{q}: {e}"))?;
                            Ok((ms(t.elapsed()), r.result))
                        },
                    );
                    rec
                })
            })
            .collect();
        let mut all = Record::default();
        for h in handles {
            all.merge(h.join().expect("client thread"));
        }
        all
    });
    let window_s = t.elapsed().as_secs_f64();
    if !plan.trace {
        out.window_s = window_s;
        out.window = rec;
        server.shutdown();
        return Ok(());
    }

    let mut tr = out.tracer.take().expect("traced run");
    let streams =
        (0..clients).map(|_| connect_raw(server.local_addr())).collect::<Result<Vec<_>, _>>()?;
    let before = server.stats();
    let t = Instant::now();
    let deadline = t + Duration::from_secs_f64(traced_s);
    let epoch = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(i, mut stream)| {
                s.spawn(move || {
                    let mut tr = Tracer::new(epoch);
                    let mut oracle = Oracle::new(refs);
                    let mut rec = Record::default();
                    let mut stats = WireStats::default();
                    let mut request = (i as u64 + 1) << 40;
                    let stream_id = 100 + i as u64;
                    closed_loop(
                        plan.spec.queries,
                        plan.seed,
                        stream_id,
                        deadline,
                        min,
                        &mut oracle,
                        &mut rec,
                        |q| {
                            request += 1;
                            let r = wire_request(&mut stream, q, &mut tr, request)?;
                            stats.add(q, &r);
                            Ok((r.round_trip_ms, r.result))
                        },
                    );
                    (rec, stats, tr)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    out.window_s = t.elapsed().as_secs_f64();
    let after = server.stats();
    let mut traced = Record::default();
    let mut wire_stats = WireStats::default();
    for (r, st, t) in results {
        traced.merge(r);
        wire_stats.merge(st);
        tr.absorb(t);
    }
    let n = wire_stats.n.max(1) as f64;
    report_service(out, wire_stats.service_ms / n, &before, &after);
    report_execute(out, &wire_stats.exec_ms, &wire_stats.exec_by_query);
    wire_stats.report_wire(out);
    prep.report(out);
    out.window = traced;
    report_overhead(out, &rec);
    out.other.merge(rec);
    server.shutdown();
    out.tracer = Some(tr);
    Ok(())
}
