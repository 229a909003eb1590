//! The two HTTP workloads: `serve-hot` (one orex-server) and
//! `fleet-mixed` (orex-router in front of two orex-server workers).
//!
//! Everything runs in this process over loopback. Callers are closed
//! loops: each sends its next request only after the previous answer's
//! last byte arrived.

use crate::check::{combined_tolerance, l1_distance, same_ids, ExplainFacts, Ranking, Tally};
use crate::pool::Plans;
use crate::replay::{self, bitwise_eq};
use crate::spans::Spans;
use crate::wire::{Conn, Reply};
use crate::{Op, OpSamples};
use orex_authority::{power_iteration, TransitionMatrix};
use orex_core::{ObjectRankSystem, QuerySession, SessionSnapshot, SystemConfig};
use orex_graph::NodeId;
use orex_ir::{Query, QueryVector};
use orex_router::{Fleet, Router, RouterConfig, RouterShutdown, WorkerSource};
use orex_server::{Response, Server, ServerConfig, ShutdownHandle};
use orex_store::PrecomputedRanks;
use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Results requested per query and feedback answer.
pub const K: usize = 10;
/// Meta-paths the server summarizes per explanation.
const SUMMARY_PATHS: usize = 8;
/// Connections a warm-up sends on.
const WARM_CONNECTIONS: usize = 8;
/// Body limit the server parses requests with (its default).
const MAX_BODY: usize = 64 * 1024;

/// Reference copy of the precomputed vectors a fleet serves, grown with
/// the same single-term vectors the workers' backfill builds.
pub struct RefStore {
    store: PrecomputedRanks,
}

impl RefStore {
    /// Adds vectors for any of `terms` the store lacks, computed like the
    /// workers' backfill: the term's base set, iterated to convergence
    /// from the global scores under the initial rates.
    pub fn cover(&mut self, sys: &ObjectRankSystem, terms: &[String]) {
        let mut missing: Vec<&String> = terms.iter().filter(|t| !self.store.contains(t)).collect();
        missing.sort();
        missing.dedup();
        if missing.is_empty() {
            return;
        }
        let matrix = TransitionMatrix::new(sys.transfer(), sys.initial_rates());
        let built: Vec<(String, f64, Vec<f64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = missing
                .chunks(missing.len().div_ceil(2))
                .map(|chunk| {
                    let matrix = &matrix;
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .filter_map(|term| {
                                let (mass, base) =
                                    orex_store::term_base(sys.index(), &sys.config().okapi, term)?;
                                let r = power_iteration(
                                    matrix,
                                    &base,
                                    &sys.config().rank,
                                    sys.global_scores(),
                                );
                                Some((term.to_string(), mass, r.scores))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference vector thread panicked"))
                .collect()
        });
        for (term, mass, scores) in built {
            self.store.insert(term, mass, &scores);
        }
    }

    /// The combined scores of `qv`, when every term is covered.
    pub fn combine(&self, sys: &ObjectRankSystem, qv: &QueryVector) -> Option<Vec<f64>> {
        if !self.store.covers(qv, sys.index()) {
            return None;
        }
        self.store.combine(qv, &sys.config().okapi)
    }
}

/// Set-up timings of one service start.
pub struct SetupTimes {
    /// Program set-up until the first request can be served.
    pub total_s: f64,
    /// `ObjectRankSystem::new`, per system built.
    pub system_build_s: Vec<f64>,
    /// `PrecomputedRanks::build`, when a fleet builds an artifact.
    pub precompute_build_s: Option<f64>,
}

/// A running service under test.
pub struct Service {
    /// Where callers send requests (the server, or the router).
    pub front: SocketAddr,
    /// Each worker's own address (the server itself for `serve-hot`).
    pub workers: Vec<SocketAddr>,
    /// The data every worker serves, for references and replays.
    pub system: Arc<ObjectRankSystem>,
    /// Reference precomputed vectors (`fleet-mixed` only).
    pub reference: Option<Mutex<RefStore>>,
    servers: Vec<(ShutdownHandle, JoinHandle<std::io::Result<()>>)>,
    router: Option<(RouterShutdown, JoinHandle<std::io::Result<()>>)>,
}

fn loopback() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    }
}

fn start_server(
    system: Arc<ObjectRankSystem>,
    config: ServerConfig,
) -> Result<(SocketAddr, ShutdownHandle, JoinHandle<std::io::Result<()>>), String> {
    let server = Server::bind(system, config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.shutdown_handle();
    let thread = std::thread::Builder::new()
        .name("orexbench-server".into())
        .spawn(move || server.run())
        .map_err(|e| e.to_string())?;
    Ok((addr, handle, thread))
}

/// Polls `GET /healthz` until it answers 200.
fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut conn = Conn::new(addr);
    loop {
        if let Ok(r) = conn.round_trip("GET", "/healthz", None) {
            if r.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became healthy"));
        }
        // orex::allow(ORX005): a poll interval while set-up waits.
        std::thread::sleep(Duration::from_millis(1));
    }
}

impl Service {
    /// Builds the system and starts one server with the default
    /// configuration on a loopback port.
    pub fn serve_hot(dataset: &orex_datagen::Dataset) -> Result<(Self, SetupTimes), String> {
        let graph = dataset.graph.clone();
        let rates = dataset.ground_truth.clone();
        let t0 = Instant::now();
        let system = Arc::new(ObjectRankSystem::new(graph, rates, SystemConfig::default()));
        let built = t0.elapsed().as_secs_f64();
        let (addr, handle, thread) = start_server(Arc::clone(&system), loopback())?;
        wait_healthy(addr)?;
        let total_s = t0.elapsed().as_secs_f64();
        Ok((
            Self {
                front: addr,
                workers: vec![addr],
                system,
                reference: None,
                servers: vec![(handle, thread)],
                router: None,
            },
            SetupTimes {
                total_s,
                system_build_s: vec![built],
                precompute_build_s: None,
            },
        ))
    }

    /// Builds one system per worker and a precompute artifact over
    /// `covered` terms, saves it to `artifact`, starts the workers (each
    /// loads and validates the artifact; backfill stays on) and a router
    /// in front, and waits until the router admits every worker.
    pub fn fleet(
        dataset: &orex_datagen::Dataset,
        workers: usize,
        covered: &[String],
        artifact: &Path,
    ) -> Result<(Self, SetupTimes), String> {
        let inputs: Vec<_> = (0..workers)
            .map(|_| (dataset.graph.clone(), dataset.ground_truth.clone()))
            .collect();
        let t0 = Instant::now();
        let mut system_build_s = Vec::new();
        let mut systems = Vec::new();
        for (graph, rates) in inputs {
            let t = Instant::now();
            systems.push(Arc::new(ObjectRankSystem::new(
                graph,
                rates,
                SystemConfig::default(),
            )));
            system_build_s.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let sys0 = &systems[0];
        let matrix = TransitionMatrix::new(sys0.transfer(), sys0.initial_rates());
        let hash = orex_store::fnv1a(&orex_store::encode_graph(sys0.graph()));
        let store = PrecomputedRanks::build(
            &matrix,
            sys0.index(),
            &sys0.config().okapi,
            covered,
            &sys0.config().rank,
            hash,
        );
        drop(matrix);
        let precompute_build_s = t.elapsed().as_secs_f64();
        store
            .save(artifact)
            .map_err(|e| format!("save artifact: {e}"))?;
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for system in &systems {
            let config = ServerConfig {
                precompute_path: Some(artifact.to_path_buf()),
                ..loopback()
            };
            let (addr, handle, thread) = start_server(Arc::clone(system), config)?;
            addrs.push(addr);
            servers.push((handle, thread));
        }
        let fleet = Fleet::start(
            WorkerSource::External {
                addrs: addrs.iter().map(SocketAddr::to_string).collect(),
            },
            RouterConfig::default().health_interval,
        )
        .map_err(|e| format!("fleet: {e}"))?;
        let router = Router::bind(
            Arc::clone(&fleet),
            RouterConfig {
                addr: "127.0.0.1:0".into(),
                ..RouterConfig::default()
            },
        )
        .map_err(|e| format!("router bind: {e}"))?;
        let front = router.local_addr().map_err(|e| e.to_string())?;
        let shutdown = router.shutdown_handle();
        let thread = std::thread::Builder::new()
            .name("orexbench-router".into())
            .spawn(move || router.run())
            .map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while fleet.healthy_count() < workers {
            if Instant::now() > deadline {
                return Err("fleet workers never became healthy".into());
            }
            // orex::allow(ORX005): a poll interval while set-up waits.
            std::thread::sleep(Duration::from_millis(1));
        }
        wait_healthy(front)?;
        let total_s = t0.elapsed().as_secs_f64();
        let reference = RefStore { store };
        Ok((
            Self {
                front,
                workers: addrs,
                system: Arc::clone(&systems[0]),
                reference: Some(Mutex::new(reference)),
                servers,
                router: Some((shutdown, thread)),
            },
            SetupTimes {
                total_s,
                system_build_s,
                precompute_build_s: Some(precompute_build_s),
            },
        ))
    }

    /// Stops the router, then the servers, and waits for each to end.
    pub fn stop(self) -> Result<(), String> {
        let mut errors = Vec::new();
        if let Some((handle, thread)) = self.router {
            handle.shutdown();
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => errors.push(format!("router: {e}")),
                Err(_) => errors.push("router thread panicked".to_string()),
            }
        }
        for (handle, thread) in self.servers {
            handle.shutdown();
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => errors.push(format!("server: {e}")),
                Err(_) => errors.push("server thread panicked".to_string()),
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }

    /// Reads the server counters from `/metrics` of the first worker.
    /// Servers in one process share one recorder, so this covers all.
    pub fn counters(&self) -> Result<HashMap<String, f64>, String> {
        let reply = Conn::new(self.workers[0])
            .round_trip("GET", "/metrics", None)
            .map_err(|e| format!("/metrics: {e}"))?;
        let text = String::from_utf8_lossy(&reply.body);
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.split_once(' ')?;
                Some((name.to_string(), value.trim().parse().ok()?))
            })
            .collect())
    }
}

/// A query answer as the client saw it.
#[derive(Clone, Debug)]
pub struct QueryAnswer {
    /// The ranked results.
    pub ranking: Ranking,
    /// Served from the result cache.
    pub cached: bool,
    /// Combined from precomputed vectors.
    pub combined: bool,
}

/// What one session saw, for checking after the run.
#[derive(Clone, Debug)]
pub struct SessionRec {
    /// Session id the front end answered with.
    pub sid: u64,
    /// Query text.
    pub query: String,
    /// When the query was sent.
    pub sent: Instant,
    /// The query answer.
    pub answer: QueryAnswer,
    /// Explained node and the explanation's facts.
    pub explain: Option<(u32, ExplainFacts)>,
    /// Feedback node and the answer.
    pub feedback: Option<(u32, Ranking)>,
    /// The session's operations were checked by the traced replay.
    pub replayed: bool,
}

/// What one caller measured.
#[derive(Default)]
pub struct CallerOut {
    /// Operation samples.
    pub samples: OpSamples,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Sessions to check.
    pub sessions: Vec<SessionRec>,
    /// Spans of the traced replays.
    pub spans: Spans,
    /// Requests answered.
    pub requests: u64,
    /// TCP connects.
    pub connects: u64,
}

/// When and how a caller runs.
#[derive(Clone, Copy)]
pub struct Window {
    /// Start no session after this instant.
    pub deadline: Instant,
    /// Replay operations that start after this instant (traced runs).
    pub trace_from: Option<Instant>,
}

struct Caller<'a> {
    svc: &'a Service,
    conn: Conn,
    out: CallerOut,
    next_op: u64,
    caller: u64,
}

fn query_body(text: &str) -> String {
    format!("{{\"query\": \"{text}\", \"k\": {K}}}")
}

fn feedback_body(node: u32) -> String {
    format!("{{\"objects\": [{node}], \"k\": {K}}}")
}

/// Runs one caller's closed loop of sessions until the window closes. A
/// session under way when it closes is finished, so every session
/// contributes all of its operations.
pub fn run_caller(svc: &Service, plans: &mut Plans, caller: u64, window: Window) -> CallerOut {
    let mut c = Caller {
        svc,
        conn: Conn::new(svc.front),
        out: CallerOut::default(),
        next_op: 0,
        caller,
    };
    while Instant::now() < window.deadline {
        let plan = plans.next_plan();
        c.session(&plan.query, plan.explain, window);
    }
    c.out.requests = c.conn.requests;
    c.out.connects = c.conn.connects;
    c.out
}

/// Sends `queries` outside any measurement, to fill caches, on up to
/// [`WARM_CONNECTIONS`] keep-alive connections in parallel.
pub fn warm_up(svc: &Service, queries: &[String]) -> Result<(), String> {
    let connections = WARM_CONNECTIONS.min(queries.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|i| {
                scope.spawn(move || {
                    let mut conn = Conn::new(svc.front);
                    for q in queries.iter().skip(i).step_by(connections) {
                        let r = conn
                            .round_trip("POST", "/query", Some(query_body(q).as_bytes()))
                            .map_err(|e| format!("warm-up query: {e}"))?;
                        if r.status != 200 {
                            return Err(format!("warm-up query {q:?}: status {}", r.status));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread panicked"))
    })
}

/// Waits until the workers have built every backfill term queued so far.
pub fn wait_backfill(svc: &Service) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let c = svc.counters()?;
        let count = |k: &str| c.get(k).copied().unwrap_or(0.0);
        if count("orex_server_backfill_built") >= count("orex_server_backfill_requests") {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("backfill never drained".into());
        }
        // orex::allow(ORX005): a poll interval while the warm-up settles.
        std::thread::sleep(Duration::from_millis(10));
    }
}

impl Caller<'_> {
    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        (self.caller << 40) | self.next_op
    }

    fn traced(&self, window: &Window, sent: Instant) -> bool {
        window.trace_from.is_some_and(|from| sent >= from)
    }

    /// One request: counts the attempt, and a failure for transport
    /// errors and non-200 answers.
    fn attempt_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<String>,
        what: &str,
    ) -> Option<Reply> {
        self.out.tally.attempt();
        match self
            .conn
            .round_trip(method, path, body.as_deref().map(str::as_bytes))
        {
            Ok(r) if r.status == 200 => Some(r),
            Ok(r) => {
                self.out.tally.fail(format!("{what}: status {}", r.status));
                None
            }
            Err(e) => {
                self.out.tally.fail(format!("{what}: {}", e.kind()));
                None
            }
        }
    }

    fn sample(&mut self, op: Op, reply: &Reply, traced: bool) {
        let s = &mut self.out.samples;
        s.record(op, reply.latency_us(), traced);
        if traced {
            s.ttfb[op as usize].push(reply.ttfb_us());
            s.body_gap[op as usize].push(reply.body_gap_us());
        }
    }

    fn replay_failed(&mut self, why: String) {
        self.out.tally.fail(format!("replay: {why}"));
    }

    fn session(&mut self, text: &str, explain: bool, window: Window) {
        let Some(reply) = self.attempt_request("POST", "/query", Some(query_body(text)), "query")
        else {
            return;
        };
        let parsed = reply.json().and_then(|v| {
            let sid = v.get("session")?.as_u64()?;
            let answer = QueryAnswer {
                ranking: Ranking::from_json(&v)?,
                cached: v.get("cached")?.as_bool()?,
                combined: v.get("combined")?.as_bool()?,
            };
            Some((sid, answer))
        });
        let Some((sid, answer)) = parsed.filter(|(_, a)| a.ranking.first().is_some()) else {
            self.out.tally.fail("query: malformed answer");
            return;
        };
        let top = answer.ranking.first().expect("checked non-empty above");
        let traced = self.traced(&window, reply.sent);
        self.sample(Op::Query, &reply, traced);
        let mut rec = SessionRec {
            sid,
            query: text.to_string(),
            sent: reply.sent,
            answer,
            explain: None,
            feedback: None,
            replayed: traced,
        };
        let mut snapshot = None;
        if traced {
            match self.replay_query(&reply, &rec) {
                Ok(s) => snapshot = Some(s),
                Err(why) => self.replay_failed(why),
            }
        }
        if explain {
            let path = format!("/explain/{sid}/{top}");
            if let Some(reply) = self.attempt_request("GET", &path, None, "explain") {
                match reply.json().as_ref().and_then(ExplainFacts::from_json) {
                    Some(facts) => {
                        let traced = self.traced(&window, reply.sent);
                        self.sample(Op::Explain, &reply, traced);
                        rec.explain = Some((top, facts));
                        if let (true, Some(snap)) = (traced, &snapshot) {
                            if let Err(why) = self.replay_explain(&reply, snap, top, &facts) {
                                self.replay_failed(why);
                            }
                        }
                    }
                    None => self.out.tally.fail("explain: malformed answer"),
                }
            }
        }
        {
            let path = format!("/feedback/{sid}");
            if let Some(reply) =
                self.attempt_request("POST", &path, Some(feedback_body(top)), "feedback")
            {
                match reply.json().as_ref().and_then(Ranking::from_json) {
                    Some(ranking) => {
                        let traced = self.traced(&window, reply.sent);
                        self.sample(Op::Feedback, &reply, traced);
                        if let (true, Some(snap)) = (traced, &snapshot) {
                            if let Err(why) = self.replay_feedback(&reply, snap, top, &ranking) {
                                self.replay_failed(why);
                            }
                        }
                        rec.feedback = Some((top, ranking));
                    }
                    None => self.out.tally.fail("feedback: malformed answer"),
                }
            }
        }
        self.out.sessions.push(rec);
    }

    /// Parses the recorded request bytes the way the server does.
    fn replay_parse(&mut self, reply: &Reply) -> Result<(), String> {
        self.out.spans.scope("server.http.parse", |_| {
            orex_server::http::read_request(&mut BufReader::new(&reply.request[..]), MAX_BODY)
                .map(drop)
                .map_err(|e| format!("request does not parse: {e:?}"))
        })
    }

    /// Writes the received answer the way the server does, into memory.
    fn replay_write(&mut self, reply: &Reply) {
        let body = String::from_utf8_lossy(&reply.body).into_owned();
        let mut sink = Vec::with_capacity(body.len() + 256);
        self.out.spans.scope("server.http.write", |_| {
            let _ = Response::json(reply.status, body).write_to(&mut sink, true);
        });
    }

    /// Closes the replay of one operation: the client time no in-process
    /// span accounts for, and the core calls' time their layers miss.
    fn finish_replay(&mut self, op: Op, id: u64, reply: &Reply) {
        let b = self.out.spans.op_breakdown(id);
        let s = &mut self.out.samples;
        s.server_unaccounted[op as usize].push(reply.latency_us() - b.program_ns as f64 / 1e3);
        s.core_unaccounted[op as usize].push((b.core_ns as f64 - b.layers_ns as f64) / 1e3);
    }

    fn replay_query(&mut self, reply: &Reply, rec: &SessionRec) -> Result<SessionSnapshot, String> {
        let sys = &*self.svc.system;
        let id = self.op_id();
        self.out.spans.set_op(id);
        self.replay_parse(reply)?;
        let query = Query::parse(&rec.query);
        let sp = &mut self.out.spans;
        let qv = sp.scope("ir.analyze", |_| {
            QueryVector::initial(&query, sys.index().analyzer())
        });
        let snapshot = if rec.answer.combined {
            Refs::new(sys, self.svc.reference.as_ref(), &rec.query, true)?.source(&rec.answer)?;
            let reference = self
                .svc
                .reference
                .as_ref()
                .ok_or("combined without store")?;
            let reference = reference.lock().expect("reference store lock poisoned");
            let scores = sp
                .scope("store.combine", |_| reference.combine(sys, &qv))
                .ok_or("replayed combination failed")?;
            SessionSnapshot::from_parts(qv.clone(), sys.initial_rates().clone(), scores)
        } else if rec.answer.cached {
            let refs = Refs::new(sys, self.svc.reference.as_ref(), &rec.query, true)?;
            refs.source(&rec.answer)?.1.clone()
        } else {
            let session = sp
                .scope("core.session_start", |_| QuerySession::start(sys, &query))
                .map_err(|e| e.to_string())?;
            let layers = replay::start(sys, &query, sp)?;
            if !bitwise_eq(&layers.scores, session.scores()) {
                return Err("layer replay of start differs from the session".into());
            }
            session.snapshot()
        };
        let session = sp.scope("core.resume", |_| {
            QuerySession::resume(sys, snapshot.clone())
        });
        replay::resume(sys, &qv, snapshot.rates(), snapshot.scores(), sp);
        let top = sp.scope("core.top_k", |_| Ranking::of_session(&session, K));
        replay::top_k(session.scores(), K, sp);
        if !top.bitwise_eq(&rec.answer.ranking) {
            return Err("replayed query answer differs from the wire".into());
        }
        self.replay_write(reply);
        self.finish_replay(Op::Query, id, reply);
        Ok(snapshot)
    }

    fn replay_explain(
        &mut self,
        reply: &Reply,
        snap: &SessionSnapshot,
        node: u32,
        facts: &ExplainFacts,
    ) -> Result<(), String> {
        let sys = &*self.svc.system;
        let id = self.op_id();
        self.out.spans.set_op(id);
        self.replay_parse(reply)?;
        let sp = &mut self.out.spans;
        let target = NodeId::new(node);
        let session = sp.scope("core.resume", |_| QuerySession::resume(sys, snap.clone()));
        let state = replay::resume(sys, snap.query_vector(), snap.rates(), snap.scores(), sp);
        let e = sp
            .scope("core.explain", |_| session.explain(target))
            .map_err(|e| e.to_string())?;
        let layered = replay::explain(sys, &state, target, sp)?;
        let summary = sp
            .scope("core.explain_summary", |_| {
                session.explain_summary(target, SUMMARY_PATHS)
            })
            .map_err(|e| e.to_string())?;
        let (layered2, layered_summary) =
            replay::explain_summary(sys, &state, target, SUMMARY_PATHS, sp)?;
        for got in [&e, &layered, &layered2] {
            if !ExplainFacts::of(got).same(facts) {
                return Err("replayed explanation differs from the wire".into());
            }
        }
        if summary.len() != layered_summary.len() {
            return Err("replayed summary differs".into());
        }
        self.replay_write(reply);
        self.finish_replay(Op::Explain, id, reply);
        Ok(())
    }

    fn replay_feedback(
        &mut self,
        reply: &Reply,
        snap: &SessionSnapshot,
        node: u32,
        wire: &Ranking,
    ) -> Result<(), String> {
        let sys = &*self.svc.system;
        let id = self.op_id();
        self.out.spans.set_op(id);
        self.replay_parse(reply)?;
        let sp = &mut self.out.spans;
        let mut session = sp.scope("core.resume", |_| QuerySession::resume(sys, snap.clone()));
        let state = replay::resume(sys, snap.query_vector(), snap.rates(), snap.scores(), sp);
        sp.scope("core.feedback", |_| session.feedback(&[NodeId::new(node)]))
            .map_err(|e| e.to_string())?;
        let next = replay::feedback(sys, &state, &[NodeId::new(node)], sp)?;
        if !bitwise_eq(&next.scores, session.scores()) {
            return Err("layer replay of feedback differs from the session".into());
        }
        let top = sp.scope("core.top_k", |_| Ranking::of_session(&session, K));
        replay::top_k(session.scores(), K, sp);
        if !top.bitwise_eq(wire) {
            return Err("replayed feedback answer differs from the wire".into());
        }
        self.replay_write(reply);
        self.finish_replay(Op::Feedback, id, reply);
        Ok(())
    }
}

/// Where a session's scores came from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Origin {
    Live,
    Combined,
}

/// The reference answers to one query: a live run, and the combination
/// of the reference vectors when they cover the query.
struct Refs {
    live_top: Ranking,
    live: SessionSnapshot,
    combined: Option<(Ranking, SessionSnapshot)>,
    /// The whole combined vector lies within [`combined_tolerance`] of
    /// the live scores.
    combined_close: bool,
}

impl Refs {
    /// Computes the references for `text`. With `combine`, the
    /// reference store first gains any vector the query's terms lack.
    fn new(
        sys: &ObjectRankSystem,
        reference: Option<&Mutex<RefStore>>,
        text: &str,
        combine: bool,
    ) -> Result<Self, String> {
        let query = Query::parse(text);
        let live = QuerySession::start(sys, &query).map_err(|e| format!("reference query: {e}"))?;
        let combined = match reference.filter(|_| combine) {
            Some(reference) => {
                let qv = QueryVector::initial(&query, sys.index().analyzer());
                let mut reference = reference.lock().expect("reference store lock poisoned");
                let terms: Vec<String> = qv.iter().map(|(t, _)| t.to_string()).collect();
                reference.cover(sys, &terms);
                reference.combine(sys, &qv).map(|scores| {
                    let top = Ranking::of_scores(&scores, K);
                    let rates = sys.initial_rates().clone();
                    (top, SessionSnapshot::from_parts(qv, rates, scores))
                })
            }
            None => None,
        };
        let combined_close = combined.as_ref().is_some_and(|(_, snap)| {
            l1_distance(snap.scores(), live.scores())
                <= combined_tolerance(sys.config().rank.epsilon)
        });
        Ok(Self {
            live_top: Ranking::of_session(&live, K),
            live: live.snapshot(),
            combined,
            combined_close,
        })
    }

    /// Checks a query answer and finds the reference it was served from.
    /// A combined answer must have the ids of the reference combination,
    /// whose whole vector must lie within tolerance of the live run. A
    /// cached answer may come from either source; scores pass through
    /// JSON exactly, so a bitwise match tells which.
    fn source(&self, answer: &QueryAnswer) -> Result<(Origin, &SessionSnapshot), &'static str> {
        let got = &answer.ranking;
        let combined = self.combined.as_ref().filter(|_| self.combined_close);
        if answer.combined {
            return match combined {
                Some((top, snap)) if same_ids(got, top) => Ok((Origin::Combined, snap)),
                Some(_) => Err("combined query answer wrong"),
                None if self.combined.is_some() => Err("combined vector far from live"),
                None => Err("combined answer for an uncovered query"),
            };
        }
        if got.bitwise_eq(&self.live_top) {
            return Ok((Origin::Live, &self.live));
        }
        if answer.cached {
            if let Some((_, snap)) = combined.filter(|(top, _)| got.bitwise_eq(top)) {
                return Ok((Origin::Combined, snap));
            }
        }
        if same_ids(got, &self.live_top) {
            return Ok((Origin::Live, &self.live));
        }
        Err(if answer.cached {
            "cached query answer wrong"
        } else {
            "query answer wrong"
        })
    }
}

/// Router hop samples, taken after the window on a quiet system: for
/// up to `n` explained sessions, the same idempotent explain is sent
/// through the router and straight to the worker that owns the session,
/// in A-B-B-A order. Each sample is routed minus direct latency.
pub fn hop(svc: &Service, sessions: &[SessionRec], n: usize) -> Vec<f64> {
    if svc.router.is_none() {
        return Vec::new();
    }
    let w = svc.workers.len() as u64;
    let mut routed = Conn::new(svc.front);
    let mut direct: Vec<Conn> = svc.workers.iter().map(|&a| Conn::new(a)).collect();
    let mut samples = Vec::new();
    for rec in sessions.iter().filter(|r| r.explain.is_some()).take(n) {
        let node = rec.explain.as_ref().map_or(0, |e| e.0);
        let via_router = format!("/explain/{}/{node}", rec.sid);
        let to_worker = format!("/explain/{}/{node}", rec.sid / w);
        let worker = &mut direct[(rec.sid % w) as usize];
        let time = |conn: &mut Conn, path: &str| {
            conn.round_trip("GET", path, None)
                .ok()
                .filter(|r| r.status == 200)
                .map(|r| r.latency_us())
        };
        let d1 = time(worker, &to_worker);
        let r1 = time(&mut routed, &via_router);
        let r2 = time(&mut routed, &via_router);
        let d2 = time(worker, &to_worker);
        for (r, d) in [(r1, d1), (r2, d2)] {
            if let (Some(r), Some(d)) = (r, d) {
                samples.push(r - d);
            }
        }
    }
    samples
}

/// Checks every recorded session the traced replay did not check
/// against in-process references, on two threads, after the
/// measurement window. Returns the failures.
pub fn verify(svc: &Service, sessions: &[SessionRec]) -> Tally {
    let sys = &*svc.system;
    let sessions: Vec<&SessionRec> = sessions.iter().filter(|s| !s.replayed).collect();
    if let Some(reference) = &svc.reference {
        // Cover every term a combined or cached answer may need up front,
        // on two threads, instead of one query at a time under the lock.
        let mut terms: Vec<String> = sessions
            .iter()
            .filter(|s| s.answer.cached || s.answer.combined)
            .flat_map(|s| {
                QueryVector::initial(&Query::parse(&s.query), sys.index().analyzer())
                    .iter()
                    .map(|(t, _)| t.to_string())
                    .collect::<Vec<_>>()
            })
            .collect();
        terms.sort();
        terms.dedup();
        reference
            .lock()
            .expect("reference store lock poisoned")
            .cover(sys, &terms);
    }
    let mut groups: BTreeMap<&str, Vec<&SessionRec>> = BTreeMap::new();
    for s in sessions {
        groups.entry(&s.query).or_default().push(s);
    }
    let groups: Vec<(&str, Vec<&SessionRec>)> = groups.into_iter().collect();
    let mut failures = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let groups = &groups;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for (text, recs) in groups.iter().skip(t).step_by(2) {
                        verify_group(svc, text, recs, &mut tally);
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            failures.merge(h.join().expect("verification thread panicked"));
        }
    });
    failures
}

/// Checks all sessions of one query text against one set of references.
fn verify_group(svc: &Service, text: &str, recs: &[&SessionRec], tally: &mut Tally) {
    let sys = &*svc.system;
    let combine = recs.iter().any(|r| r.answer.cached || r.answer.combined);
    let refs = match Refs::new(sys, svc.reference.as_ref(), text, combine) {
        Ok(refs) => refs,
        Err(_) => {
            for rec in recs {
                let ops =
                    1 + usize::from(rec.explain.is_some()) + usize::from(rec.feedback.is_some());
                for _ in 0..ops {
                    tally.fail("reference query failed");
                }
            }
            return;
        }
    };
    let mut explains: HashMap<(Origin, u32), Option<ExplainFacts>> = HashMap::new();
    let mut feedbacks: HashMap<(Origin, u32), Option<Ranking>> = HashMap::new();
    for rec in recs {
        let (origin, snap) = match refs.source(&rec.answer) {
            Ok(found) => found,
            Err(why) => {
                tally.fail(why);
                // The explanation and feedback are still checked, against
                // the live run.
                (Origin::Live, &refs.live)
            }
        };
        if let Some((node, facts)) = &rec.explain {
            let want = explains.entry((origin, *node)).or_insert_with(|| {
                QuerySession::resume(sys, snap.clone())
                    .explain(NodeId::new(*node))
                    .ok()
                    .map(|e| ExplainFacts::of(&e))
            });
            if !want.is_some_and(|w| w.same(facts)) {
                tally.fail("explain answer wrong");
            }
        }
        if let Some((node, ranking)) = &rec.feedback {
            let want = feedbacks.entry((origin, *node)).or_insert_with(|| {
                let mut s = QuerySession::resume(sys, snap.clone());
                s.feedback(&[NodeId::new(*node)])
                    .ok()
                    .map(|_| Ranking::of_session(&s, K))
            });
            if !want.as_ref().is_some_and(|w| same_ids(ranking, w)) {
                tally.fail("feedback answer wrong");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{frequent_terms, Draw};

    #[test]
    fn served_sessions_replay_and_check_and_a_perturbed_answer_fails() {
        let dataset = orex_datagen::Preset::DblpTop.generate(0.02);
        let (svc, _) = Service::serve_hot(&dataset).expect("server starts");
        let mut plans = Plans::new(frequent_terms(svc.system.index(), 4), Draw::UNIFORM, 1, 0);
        let now = Instant::now();
        let window = Window {
            deadline: now + Duration::from_millis(600),
            trace_from: Some(now + Duration::from_millis(300)),
        };
        let out = run_caller(&svc, &mut plans, 0, window);
        assert_eq!(out.tally.failed, 0, "{:?}", out.tally.reasons());
        assert!(
            !out.samples.traced[Op::Query as usize].is_empty(),
            "nothing replayed"
        );
        assert_eq!(verify(&svc, &out.sessions).failed, 0);

        let mut sessions = out.sessions;
        assert!(sessions.iter().any(|s| s.replayed));
        let answered = sessions
            .iter_mut()
            .filter(|s| !s.replayed)
            .find_map(|s| s.feedback.as_mut())
            .expect("a feedback answer the replay did not check");
        answered.1.ids.reverse();
        let failures = verify(&svc, &sessions);
        assert_eq!(failures.failed, 1);
        assert_eq!(failures.reasons().get("feedback answer wrong"), Some(&1));
        svc.stop().expect("clean shutdown");
    }

    #[test]
    fn combined_answers_with_a_substituted_node_or_a_defective_combination_fail() {
        let dataset = orex_datagen::Preset::DblpTop.generate(0.05);
        let sys = ObjectRankSystem::new(
            dataset.graph.clone(),
            dataset.ground_truth.clone(),
            SystemConfig::default(),
        );
        let terms = frequent_terms(sys.index(), 3);
        let matrix = TransitionMatrix::new(sys.transfer(), sys.initial_rates());
        let okapi = &sys.config().okapi;
        let store =
            PrecomputedRanks::build(&matrix, sys.index(), okapi, &terms, &sys.config().rank, 0);
        let text = format!("{} {}", terms[0], terms[1]);
        let combined = |ranking: Ranking| QueryAnswer {
            ranking,
            cached: false,
            combined: true,
        };

        let mut broken = RefStore {
            store: store.clone(),
        };
        let refs = Refs::new(&sys, Some(&Mutex::new(RefStore { store })), &text, true)
            .expect("reference query");
        let top = refs.combined.as_ref().expect("covered query").0.clone();
        assert_eq!(top.ids.len(), K);
        assert!(refs.source(&combined(top.clone())).is_ok());
        let mut substituted = top.clone();
        let outsider = (0..sys.graph().node_count() as u32)
            .find(|n| !top.ids.contains(n))
            .expect("a node outside the top k");
        substituted.ids[K - 1] = outsider;
        assert_eq!(
            refs.source(&combined(substituted)).err(),
            Some("combined query answer wrong")
        );

        // A combination defect: the first term's vector replaced by the
        // third's. The answer's ids still match the defective reference,
        // but the combined vector is far from the live run.
        let third = QueryVector::from_weights([(terms[2].clone(), 1.0)]);
        let wrong = broken.store.combine(&third, okapi).expect("stored term");
        let mass = broken.store.mass(&terms[0]).expect("stored term");
        broken.store.insert(terms[0].clone(), mass, &wrong);
        let refs =
            Refs::new(&sys, Some(&Mutex::new(broken)), &text, true).expect("reference query");
        let top = refs.combined.as_ref().expect("covered query").0.clone();
        assert_eq!(
            refs.source(&combined(top)).err(),
            Some("combined vector far from live")
        );
    }
}
