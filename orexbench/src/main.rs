//! The orex benchmark.
//!
//! ```text
//! cargo run --release --manifest-path orexbench/Cargo.toml -- \
//!     --workload serve-hot|session-large|fleet-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload against the unmodified program, in this process,
//! checks every answer, and prints the metrics as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer breakdown from a replay of every operation with
//! `--trace 1`. `orexbench/METRICS.md` documents workloads and metrics.

mod check;
mod pool;
mod replay;
mod rng;
mod serving;
mod session_large;
mod spans;
mod stats;
mod wire;

use check::Tally;
use orex_datagen::Preset;
use pool::{frequent_terms, Draw, Plans};
use rng::Rng;
use serde_json::{Map, Value};
use serving::Service;
use spans::Spans;
use stats::{median, summarize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The operations a session is made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Run a query, read the top results.
    Query = 0,
    /// Explain the top result.
    Explain = 1,
    /// Mark a result relevant, reformulate, re-run.
    Feedback = 2,
}

impl Op {
    const ALL: [Op; 3] = [Op::Query, Op::Explain, Op::Feedback];

    fn name(self) -> &'static str {
        match self {
            Op::Query => "query",
            Op::Explain => "explain",
            Op::Feedback => "feedback",
        }
    }
}

/// Per-operation samples, microseconds.
#[derive(Default)]
pub struct OpSamples {
    /// Latency of operations that were not replayed.
    pub latency: [Vec<f64>; 3],
    /// Latency of operations that were replayed (traced runs).
    pub traced: [Vec<f64>; 3],
    /// Send to first response byte.
    pub ttfb: [Vec<f64>; 3],
    /// First to last response byte.
    pub body_gap: [Vec<f64>; 3],
    /// Client latency minus the in-process spans of the same operation.
    pub server_unaccounted: [Vec<f64>; 3],
    /// orex-core call time minus its replayed layers.
    pub core_unaccounted: [Vec<f64>; 3],
    /// Routed minus direct latency of one explain, sent after the window.
    pub hop: Vec<f64>,
}

impl OpSamples {
    /// Adds one operation's latency.
    pub fn record(&mut self, op: Op, us: f64, traced: bool) {
        let phase = if traced {
            &mut self.traced
        } else {
            &mut self.latency
        };
        phase[op as usize].push(us);
    }

    fn merge(&mut self, other: OpSamples) {
        for i in 0..3 {
            self.latency[i].extend(&other.latency[i]);
            self.traced[i].extend(&other.traced[i]);
            self.ttfb[i].extend(&other.ttfb[i]);
            self.body_gap[i].extend(&other.body_gap[i]);
            self.server_unaccounted[i].extend(&other.server_unaccounted[i]);
            self.core_unaccounted[i].extend(&other.core_unaccounted[i]);
        }
    }

    fn completed(&self) -> usize {
        self.latency.iter().chain(&self.traced).map(Vec::len).sum()
    }
}

/// Everything a run measured.
#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    system_build_s: Vec<f64>,
    precompute_build_s: Vec<f64>,
    decode_s: Vec<f64>,
    samples: OpSamples,
    tally: Tally,
    window_s: f64,
    peak_rss_mb: f64,
    spans: Vec<Spans>,
    /// Server counter deltas over the window.
    counters: BTreeMap<String, f64>,
    /// Server counter deltas per quarter of the window.
    quarter_counters: Vec<BTreeMap<String, f64>>,
    /// Query answers per quarter of the window: live, combined, cached.
    answer_mix: [[u64; 3]; 4],
    requests: u64,
    connects: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["serve-hot", "session-large", "fleet-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: u64 = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output files of a run live here, beside the benchmark's sources.
fn out_dir() -> PathBuf {
    Path::new("orexbench").join("out")
}

/// The window a run measures, and where its traced part starts: the
/// first quarter of a traced run is not replayed, so the replay's cost
/// on the live operations can be measured against it.
fn window(args: &Args) -> (Instant, serving::Window) {
    let start = Instant::now();
    let length = Duration::from_secs(args.seconds);
    let w = serving::Window {
        deadline: start + length,
        trace_from: args.trace.then(|| start + length / 4),
    };
    (start, w)
}

/// Set-ups per run of `serve-hot`. Its set-up takes 4–10 ms, most of it
/// `ObjectRankSystem::new`, and single set-ups vary by half that, so it
/// needs many to steady.
const SETUPS_CHEAP: usize = 41;
/// Set-ups per run of the other workloads, which take seconds each.
const SETUPS: usize = 3;
/// How fleet-mixed draws its queries: the defaults of orex-datagen's
/// `WorkloadConfig`, the repository's model of the paper's users
/// (zipfian keyword popularity, exponent 1; 40% two-keyword queries).
const FLEET_DRAW: Draw = Draw {
    exponent: 1.0,
    two_keyword: 0.4,
};
/// Terms in the fleet-mixed keyword pool.
const FLEET_POOL: usize = 800;
/// Most frequent pool terms the fleet's precompute artifact covers.
const FLEET_COVERED: usize = 48;
/// Distinct queries the fleet-mixed warm-up sends: 2.5 times the
/// 256 result-cache entries of each of the 2 workers, so both caches are
/// full even when the ring gives one worker only 40% of the queries.
const FLEET_WARM_DISTINCT: usize = 640;
/// Sessions whose explain is re-sent to measure the router hop.
const HOP_SESSIONS: usize = 25;

fn run_serve_hot(args: &Args) -> Result<Run, String> {
    let dataset = Preset::DblpTop.generate(0.05);
    let mut run = Run::default();
    let mut service = None;
    for i in 0..SETUPS_CHEAP {
        let (svc, times) = Service::serve_hot(&dataset)?;
        run.setup_s.push(times.total_s);
        run.system_build_s.extend(times.system_build_s);
        if i + 1 < SETUPS_CHEAP {
            svc.stop()?;
        } else {
            service = Some(svc);
        }
    }
    let svc = service.expect("at least one set-up");
    // A small pool, so after the warm-up nearly every query hits the
    // result cache and transport does most of the work.
    let mut frequent = frequent_terms(svc.system.index(), 40);
    let mut rng = Rng::new(args.seed, u64::MAX);
    for i in (1..frequent.len()).rev() {
        frequent.swap(i, rng.below(i + 1));
    }
    frequent.truncate(8);
    serving::warm_up(&svc, &frequent)?;
    measure_http(args, &svc, &frequent, Draw::UNIFORM, &mut run)?;
    svc.stop()?;
    Ok(run)
}

fn run_fleet_mixed(args: &Args) -> Result<Run, String> {
    let dataset = Preset::DblpTop.generate(1.0);
    let artifact = out_dir().join(format!("fleet-{}.orexpre", std::process::id()));
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    // The vocabulary comes from the dataset itself: index it once,
    // outside any timing, to learn which terms exist.
    let pool = {
        let probe = orex_core::ObjectRankSystem::new(
            dataset.graph.clone(),
            dataset.ground_truth.clone(),
            orex_core::SystemConfig {
                global_warm_start: false,
                ..Default::default()
            },
        );
        frequent_terms(probe.index(), FLEET_POOL)
    };
    // The artifact covers the most frequent terms; the rest of the pool
    // misses, runs live and queues backfill.
    let covered = &pool[..FLEET_COVERED];
    let mut run = Run::default();
    let mut service = None;
    for i in 0..SETUPS {
        let (svc, times) = Service::fleet(&dataset, 2, covered, &artifact)?;
        run.setup_s.push(times.total_s);
        run.system_build_s.extend(times.system_build_s);
        run.precompute_build_s.extend(times.precompute_build_s);
        let bytes = std::fs::read(&artifact).map_err(|e| e.to_string())?;
        let t = Instant::now();
        orex_store::PrecomputedRanks::decode(bytes::Bytes::from(bytes))
            .map_err(|e| format!("decode: {e}"))?;
        run.decode_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            svc.stop()?;
        } else {
            service = Some(svc);
        }
    }
    let _ = std::fs::remove_file(&artifact);
    let svc = service.expect("at least one set-up");
    // Untimed traffic from the same draw brings the fleet to a steady
    // state first: every worker's result cache full, so each miss in the
    // window evicts, and backfill caught up with the terms seen so far.
    let mut warm = Plans::new(pool.clone(), FLEET_DRAW, args.seed, u64::MAX);
    let mut distinct = HashSet::new();
    let mut warm_queries = Vec::new();
    while distinct.len() < FLEET_WARM_DISTINCT {
        let query = warm.next_plan().query;
        distinct.insert(query.clone());
        warm_queries.push(query);
    }
    serving::warm_up(&svc, &warm_queries)?;
    serving::wait_backfill(&svc)?;
    measure_http(args, &svc, &pool, FLEET_DRAW, &mut run)?;
    svc.stop()?;
    Ok(run)
}

/// Counter deltas from `before` to `after`.
fn deltas(before: &HashMap<String, f64>, after: &HashMap<String, f64>) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// Two closed-loop callers against `svc`, then the answer check. The
/// server counters are also read at each quarter of the window, so the
/// report shows how the answer mix moves while the run goes on.
fn measure_http(
    args: &Args,
    svc: &Service,
    pool: &[String],
    draw: Draw,
    run: &mut Run,
) -> Result<(), String> {
    let mut marks = vec![svc.counters()?];
    let (start, w) = window(args);
    let length = w.deadline - start;
    let (outs, quarter_marks): (Vec<serving::CallerOut>, Vec<_>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|caller| {
                let mut plans = Plans::new(pool.to_vec(), draw, args.seed, caller);
                scope.spawn(move || serving::run_caller(svc, &mut plans, caller, w))
            })
            .collect();
        let quarter_marks: Vec<_> = (1..4u32)
            .map(|q| {
                let at = start + length * q / 4;
                // orex::allow(ORX005): waits for the next quarter mark.
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                svc.counters()
            })
            .collect();
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect();
        (outs, quarter_marks)
    });
    run.window_s = start.elapsed().as_secs_f64();
    run.peak_rss_mb = peak_rss_mb();
    for m in quarter_marks {
        marks.push(m?);
    }
    marks.push(svc.counters()?);
    run.counters = deltas(&marks[0], &marks[4]);
    run.quarter_counters = marks.windows(2).map(|m| deltas(&m[0], &m[1])).collect();
    let mut sessions = Vec::new();
    for out in outs {
        run.samples.merge(out.samples);
        run.tally.merge(out.tally);
        sessions.extend(out.sessions);
        run.spans.push(out.spans);
        run.requests += out.requests;
        run.connects += out.connects;
    }
    for s in &sessions {
        let elapsed = s.sent.saturating_duration_since(start).as_secs_f64();
        let quarter = ((4.0 * elapsed / length.as_secs_f64()) as usize).min(3);
        let source = if s.answer.cached {
            2
        } else {
            usize::from(s.answer.combined)
        };
        run.answer_mix[quarter][source] += 1;
    }
    run.tally.merge(serving::verify(svc, &sessions));
    if args.trace {
        run.samples.hop = serving::hop(svc, &sessions, HOP_SESSIONS);
    }
    Ok(())
}

fn run_session_large(args: &Args) -> Result<Run, String> {
    let dataset = Preset::DblpComplete.generate(0.25);
    let mut run = Run::default();
    let mut system = None;
    for _ in 0..SETUPS {
        drop(system.take());
        let (sys, secs) = session_large::setup(&dataset);
        run.setup_s.push(secs);
        run.system_build_s.push(secs);
        system = Some(sys);
    }
    let sys = system.expect("at least one set-up");
    let pool = session_large::pool(&dataset.suggested_keywords, sys.index());
    drop(dataset);
    // One untimed session first, so the first timed operations do not pay
    // for the allocator and caches settling.
    let warm_up = pool
        .first()
        .cloned()
        .ok_or("no domain keyword in the index")?;
    let far = Instant::now() + Duration::from_secs(3600);
    session_large::run(&sys, &mut std::iter::once(warm_up), far, None);
    let mut queries = session_large::queries(pool, args.seed);
    let (start, w) = window(args);
    let out = session_large::run(&sys, &mut queries, w.deadline, w.trace_from);
    run.window_s = start.elapsed().as_secs_f64();
    run.peak_rss_mb = peak_rss_mb();
    run.samples = out.samples;
    run.tally = out.tally;
    run.spans.push(out.spans);
    run.tally.merge(session_large::verify(&sys, &out.sessions));
    Ok(run)
}

/// Metric output in definition order.
struct Metrics {
    map: Map,
    lines: Vec<String>,
}

impl Metrics {
    fn new() -> Self {
        Self {
            map: Map::new(),
            lines: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.lines.push(format!("{name} = {value} {unit}"));
        self.map.insert(
            name.to_string(),
            serde_json::json!({ "value": value, "unit": unit }),
        );
    }
}

fn end_to_end(run: &Run, m: &mut Metrics) {
    m.put("setup_s", median(&run.setup_s).unwrap_or(0.0), "s");
    for op in Op::ALL {
        let s = summarize(&run.samples.latency[op as usize]);
        let (p50, tail) = s.map_or((0.0, 0.0), |s| (s.p50, s.tail));
        m.put(&format!("{}_p50_us", op.name()), p50, "us");
        m.put(&format!("{}_tail_us", op.name()), tail, "us");
    }
    let ops = run.samples.completed() as f64;
    m.put("ops_per_s", ops / run.window_s.max(1e-9), "1/s");
    m.put("ok_ratio", run.tally.ok_ratio(), "ratio");
    m.put("peak_rss_mb", run.peak_rss_mb, "MiB");
}

/// Result-cache hit ratio, precompute hit ratio and backfilled terms
/// from server counter deltas.
fn server_counters(counters: &BTreeMap<String, f64>) -> (f64, f64, f64) {
    let c = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    (
        ratio(c("orex_server_cache_hits"), c("orex_server_cache_misses")),
        ratio(
            c("orex_server_precompute_hits"),
            c("orex_server_precompute_misses"),
        ),
        c("orex_server_backfill_built"),
    )
}

/// Result-cache evictions from server counter deltas.
fn cache_evictions(counters: &BTreeMap<String, f64>) -> f64 {
    counters
        .get("orex_server_cache_evictions")
        .copied()
        .unwrap_or(0.0)
}

fn per_layer(run: &Run, m: &mut Metrics) {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut attrs: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut sweep = Vec::new();
    for sp in &run.spans {
        for (name, v) in sp.self_us_by_name() {
            by_name.entry(name).or_default().extend(v);
        }
        for s in sp.spans() {
            for &(k, v) in &s.attrs {
                attrs.entry((s.name, k)).or_default().push(v);
            }
            if s.name == "authority.power" {
                if let (Some(it), Some(edges)) = (s.attr("iterations"), s.attr("edges")) {
                    sweep.push(s.dur_ns() as f64 / (it * edges));
                }
            }
        }
    }
    let med = |v: Option<&Vec<f64>>| v.and_then(|v| median(v)).unwrap_or(0.0);
    let span = |name: &str| med(by_name.get(name));
    let attr = |name: &str, key: &str| med(attrs.get(&(name, key)));
    let samples = &run.samples;
    for op in Op::ALL {
        let i = op as usize;
        m.put(
            &format!("client.ttfb_us.{}", op.name()),
            med(Some(&samples.ttfb[i])),
            "us",
        );
        m.put(
            &format!("client.body_gap_us.{}", op.name()),
            med(Some(&samples.body_gap[i])),
            "us",
        );
    }
    let reuse = if run.connects > 0 {
        run.requests as f64 / run.connects as f64
    } else {
        0.0
    };
    m.put("client.reuse_ratio", reuse, "req/conn");
    for op in Op::ALL {
        let v = med(Some(&samples.server_unaccounted[op as usize]));
        m.put(&format!("server.unaccounted_us.{}", op.name()), v, "us");
    }
    m.put("server.http.parse_us", span("server.http.parse"), "us");
    m.put("server.http.write_us", span("server.http.write"), "us");
    let (cache, precompute, backfill) = server_counters(&run.counters);
    m.put("server.cache_hit_ratio", cache, "ratio");
    m.put("server.precompute_hit_ratio", precompute, "ratio");
    m.put("server.backfill_terms", backfill, "count");
    m.put("router.hop_us", med(Some(&samples.hop)), "us");
    m.put("core.session_start_us", span("core.session_start"), "us");
    m.put("core.resume_us", span("core.resume"), "us");
    m.put("core.top_k_us", span("core.top_k"), "us");
    for op in Op::ALL {
        let v = med(Some(&samples.core_unaccounted[op as usize]));
        m.put(&format!("core.unaccounted_us.{}", op.name()), v, "us");
    }
    m.put("ir.analyze_us", span("ir.analyze"), "us");
    m.put("ir.base_set_us", span("ir.base_set"), "us");
    m.put("ir.base_set_size", attr("ir.base_set", "size"), "count");
    m.put("graph.weights_us", span("graph.weights"), "us");
    m.put(
        "authority.matrix_build_us",
        span("authority.matrix_build"),
        "us",
    );
    m.put("authority.power_us", span("authority.power"), "us");
    m.put(
        "authority.iterations",
        attr("authority.power", "iterations"),
        "count",
    );
    m.put("authority.sweep_ns_per_edge", med(Some(&sweep)), "ns");
    m.put(
        "explain.construct_us",
        attr("explain.explain", "construct_ns") / 1e3,
        "us",
    );
    m.put(
        "explain.adjust_us",
        attr("explain.explain", "adjust_ns") / 1e3,
        "us",
    );
    m.put(
        "explain.fixpoint_iterations",
        attr("explain.explain", "fixpoint_iterations"),
        "count",
    );
    m.put(
        "explain.subgraph_edges",
        attr("explain.explain", "edges"),
        "count",
    );
    m.put("explain.summarize_us", span("explain.summarize"), "us");
    m.put("reformulate.us", span("reformulate"), "us");
    m.put(
        "reformulate.expansion_terms",
        attr("reformulate", "expansion_terms"),
        "count",
    );
    m.put("store.combine_us", span("store.combine"), "us");
    m.put(
        "store.precompute_build_s",
        med(Some(&run.precompute_build_s)),
        "s",
    );
    m.put("store.decode_s", med(Some(&run.decode_s)), "s");
    m.put("core.system_build_s", med(Some(&run.system_build_s)), "s");
    let sum_medians = |phase: &[Vec<f64>; 3]| -> Option<f64> {
        Op::ALL
            .iter()
            .map(|&op| median(&phase[op as usize]))
            .sum::<Option<f64>>()
    };
    let overhead = match (sum_medians(&samples.traced), sum_medians(&samples.latency)) {
        (Some(t), Some(u)) if u > 0.0 => t / u,
        _ => 0.0,
    };
    m.put("trace.overhead_ratio", overhead, "ratio");
}

/// The run's report: a readable summary, then the result as one JSON
/// line, which must come last.
fn report(args: &Args, run: &Run) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} window {:.3} s, {} set-ups, trace {}",
        args.workload,
        args.seed,
        run.window_s,
        run.setup_s.len(),
        u8::from(args.trace)
    );
    let phase = if args.trace {
        &run.samples.traced
    } else {
        &run.samples.latency
    };
    for op in Op::ALL {
        let _ = match summarize(&phase[op as usize]) {
            Some(s) => writeln!(
                out,
                "{:>8}: n={} p50={:.1} us tail={:.1} us ({})",
                op.name(),
                s.n,
                s.p50,
                s.tail,
                s.tail_pct
                    .map_or("max: under 11 samples".to_string(), |p| format!(
                        "p{p:.1}, 10 samples beyond"
                    )),
            ),
            None => writeln!(out, "{:>8}: n=0", op.name()),
        };
    }
    let _ = writeln!(
        out,
        "attempted {} failed {}",
        run.tally.attempted, run.tally.failed
    );
    for (why, n) in run.tally.reasons() {
        let _ = writeln!(out, "  failure: {why} x{n}");
    }
    if !run.quarter_counters.is_empty() {
        let (cache, precompute, backfill) = server_counters(&run.counters);
        let evictions = cache_evictions(&run.counters);
        let _ = writeln!(
            out,
            "server: cache_hit_ratio {cache:.3} precompute_hit_ratio {precompute:.3} \
             backfill_terms {backfill} cache_evictions {evictions}"
        );
        for (q, (mix, counters)) in run.answer_mix.iter().zip(&run.quarter_counters).enumerate() {
            let (cache, precompute, backfill) = server_counters(counters);
            let evictions = cache_evictions(counters);
            let _ = writeln!(
                out,
                "  quarter {}: answers live {} combined {} cached {}; cache_hit_ratio {cache:.3} \
                 precompute_hit_ratio {precompute:.3} backfill_terms {backfill} \
                 cache_evictions {evictions}",
                q + 1,
                mix[0],
                mix[1],
                mix[2]
            );
        }
    }
    let mut metrics = Metrics::new();
    if args.trace {
        per_layer(run, &mut metrics);
    } else {
        end_to_end(run, &mut metrics);
    }
    for line in &metrics.lines {
        let _ = writeln!(out, "{line}");
    }
    let result = serde_json::json!({
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": Value::Object(metrics.map),
    });
    let _ = writeln!(
        out,
        "{}",
        serde_json::to_string(&result).unwrap_or_default()
    );
    out
}

/// Writes every span of a traced run to `orexbench/out/`.
fn write_spans(args: &Args, run: &Run) -> std::io::Result<()> {
    let path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let mut all = Spans::new();
    for sp in &run.spans {
        all.extend(sp);
    }
    all.write_jsonl(&path)
}

fn main() -> ExitCode {
    let (args, result) = match parse_args() {
        Ok(args) => {
            let result = match args.workload.as_str() {
                "serve-hot" => run_serve_hot(&args),
                "session-large" => run_session_large(&args),
                _ => run_fleet_mixed(&args),
            };
            (args, result)
        }
        Err(e) => {
            let usage = "usage: orexbench --workload serve-hot|session-large|fleet-mixed \
                         --seed N --seconds S --trace 0|1";
            // orex::allow(ORX007): the benchmark owns its terminal.
            eprintln!("orexbench: {e}\n{usage}");
            return ExitCode::from(2);
        }
    };
    let run = match result.and_then(|run| {
        if args.trace {
            write_spans(&args, &run).map_err(|e| format!("writing spans: {e}"))?;
        }
        Ok(run)
    }) {
        Ok(run) => run,
        Err(e) => {
            // orex::allow(ORX007): the benchmark owns its terminal.
            eprintln!("orexbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    // orex::allow(ORX007): the result goes to standard output.
    print!("{}", report(&args, &run));
    ExitCode::SUCCESS
}
