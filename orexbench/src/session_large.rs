//! `session-large`: one caller drives `orex_core::QuerySession` directly
//! on DBLPcomplete at scale 0.25. No transport: ranking, matrix builds,
//! explanation and reformulation do the work.

use crate::check::{same_ids, ExplainFacts, Ranking, Tally};
use crate::pool::{Draw, Plans};
use crate::replay::{self, bitwise_eq, State};
use crate::spans::Spans;
use crate::{Op, OpSamples};
use orex_core::{ObjectRankSystem, QuerySession, SystemConfig};
use orex_graph::NodeId;
use orex_ir::Query;
use std::collections::HashSet;
use std::time::Instant;

/// Results each answer shows the user.
const K: usize = 10;
/// Meta-paths per explanation summary.
const SUMMARY_PATHS: usize = 8;
/// Feedback rounds per session.
const ROUNDS: usize = 2;

/// What one session saw, for checking after the run.
pub struct SessionRec {
    query: String,
    answer: Option<Ranking>,
    explain: Option<(u32, ExplainFacts)>,
    /// Feedback node and the answer after it, per round.
    feedback: Vec<(u32, Ranking)>,
    /// The session's operations were checked by the traced replay.
    replayed: bool,
}

/// What the caller measured.
#[derive(Default)]
pub struct Out {
    /// Operation samples.
    pub samples: OpSamples,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Sessions to check.
    pub sessions: Vec<SessionRec>,
    /// Spans of the traced replays.
    pub spans: Spans,
}

/// Builds the system from a copy of the dataset; returns it with the
/// build time in seconds.
pub fn setup(dataset: &orex_datagen::Dataset) -> (ObjectRankSystem, f64) {
    let graph = dataset.graph.clone();
    let rates = dataset.ground_truth.clone();
    let t = Instant::now();
    let system = ObjectRankSystem::new(graph, rates, SystemConfig::default());
    (system, t.elapsed().as_secs_f64())
}

/// The generator's domain keywords that occur in the index: the topical
/// words its titles are built around. Rare synthetic words would mix in
/// sessions whose top hit has a far smaller neighbourhood, and a run's
/// few sessions could not hold that mix steady from seed to seed.
pub fn pool(keywords: &[String], index: &orex_ir::InvertedIndex) -> Vec<String> {
    keywords
        .iter()
        .filter(|kw| {
            index
                .analyzer()
                .analyze_term(kw)
                .and_then(|t| index.term_id(&t))
                .is_some_and(|t| index.df(t) > 0)
        })
        .cloned()
        .collect()
}

/// Distinct one- or two-keyword queries, uniform over `pool`.
pub fn queries(pool: Vec<String>, seed: u64) -> impl Iterator<Item = String> {
    let mut plans = Plans::new(
        pool,
        Draw {
            exponent: 0.0,
            two_keyword: 0.4,
        },
        seed,
        0,
    );
    let mut seen = HashSet::new();
    std::iter::from_fn(move || loop {
        let q = plans.next_plan().query;
        if seen.insert(q.clone()) {
            return Some(q);
        }
    })
}

fn us(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e6
}

/// Runs sessions until `deadline`; replays operations that start after
/// `trace_from`. A session under way when the deadline passes is
/// finished, so every session contributes all of its operations.
pub fn run(
    sys: &ObjectRankSystem,
    queries: &mut impl Iterator<Item = String>,
    deadline: Instant,
    trace_from: Option<Instant>,
) -> Out {
    let mut out = Out::default();
    let mut next_op = 0u64;
    while Instant::now() < deadline {
        let Some(text) = queries.next() else { break };
        let mut rec = SessionRec {
            query: text.clone(),
            answer: None,
            explain: None,
            feedback: Vec::new(),
            replayed: false,
        };
        let traced = |t: Instant| trace_from.is_some_and(|from| t >= from);
        let query = Query::parse(&text);

        out.tally.attempt();
        let t0 = Instant::now();
        let session = QuerySession::start(sys, &query);
        let t1 = Instant::now();
        let mut session = match session {
            Ok(s) => s,
            Err(e) => {
                out.tally.fail(format!("query: {e}"));
                out.sessions.push(rec);
                continue;
            }
        };
        let answer = Ranking::of_session(&session, K);
        let t2 = Instant::now();
        let Some(top) = answer.first() else {
            out.tally.fail("query: no results");
            out.sessions.push(rec);
            continue;
        };
        let tracing = traced(t0);
        out.samples.record(Op::Query, us(t0, t2), tracing);
        let mut state = None;
        rec.replayed = tracing;
        if tracing {
            next_op += 1;
            out.spans.set_op(next_op);
            out.spans.record("core.session_start", t0, t1);
            out.spans.record("core.top_k", t1, t2);
            match replay::start(sys, &query, &mut out.spans) {
                Ok(s) if bitwise_eq(&s.scores, session.scores()) => {
                    replay::top_k(&s.scores, K, &mut out.spans);
                    state = Some(s);
                }
                Ok(_) => out.tally.fail("replay: start differs from the session"),
                Err(e) => out.tally.fail(format!("replay: {e}")),
            }
            finish(&mut out, Op::Query, next_op);
        }
        rec.answer = Some(answer);

        {
            let target = NodeId::new(top);
            out.tally.attempt();
            let t0 = Instant::now();
            let explained = session.explain(target);
            let t1 = Instant::now();
            let summary = session.explain_summary(target, SUMMARY_PATHS);
            let t2 = Instant::now();
            match (explained, summary) {
                (Ok(e), Ok(summary)) => {
                    let facts = ExplainFacts::of(&e);
                    let tracing = traced(t0);
                    out.samples.record(Op::Explain, us(t0, t2), tracing);
                    if let (true, Some(s)) = (tracing, &state) {
                        next_op += 1;
                        out.spans.set_op(next_op);
                        out.spans.record("core.explain", t0, t1);
                        out.spans.record("core.explain_summary", t1, t2);
                        if let Err(why) =
                            replay_explain(sys, s, target, &facts, summary.len(), &mut out.spans)
                        {
                            out.tally.fail(format!("replay: {why}"));
                        }
                        finish(&mut out, Op::Explain, next_op);
                    }
                    rec.explain = Some((top, facts));
                }
                (Err(e), _) | (_, Err(e)) => out.tally.fail(format!("explain: {e}")),
            }
        }

        let mut pick = top;
        for _ in 0..ROUNDS {
            out.tally.attempt();
            let t0 = Instant::now();
            let fed = session.feedback(&[NodeId::new(pick)]);
            let t1 = Instant::now();
            if let Err(e) = fed {
                out.tally.fail(format!("feedback: {e}"));
                break;
            }
            let answer = Ranking::of_session(&session, K);
            let t2 = Instant::now();
            let tracing = traced(t0);
            out.samples.record(Op::Feedback, us(t0, t2), tracing);
            if let (true, Some(s)) = (tracing, state.take()) {
                next_op += 1;
                out.spans.set_op(next_op);
                out.spans.record("core.feedback", t0, t1);
                out.spans.record("core.top_k", t1, t2);
                match replay::feedback(sys, &s, &[NodeId::new(pick)], &mut out.spans) {
                    Ok(next) if bitwise_eq(&next.scores, session.scores()) => {
                        replay::top_k(&next.scores, K, &mut out.spans);
                        state = Some(next);
                    }
                    Ok(_) => out.tally.fail("replay: feedback differs from the session"),
                    Err(e) => out.tally.fail(format!("replay: {e}")),
                }
                finish(&mut out, Op::Feedback, next_op);
            }
            rec.feedback.push((pick, answer.clone()));
            match answer.first() {
                Some(next) => pick = next,
                None => break,
            }
        }
        out.sessions.push(rec);
    }
    out
}

fn replay_explain(
    sys: &ObjectRankSystem,
    state: &State,
    target: NodeId,
    facts: &ExplainFacts,
    summary_len: usize,
    sp: &mut Spans,
) -> Result<(), String> {
    let e = replay::explain(sys, state, target, sp)?;
    let (e2, summary) = replay::explain_summary(sys, state, target, SUMMARY_PATHS, sp)?;
    if !ExplainFacts::of(&e).same(facts) || !ExplainFacts::of(&e2).same(facts) {
        return Err("explanation differs from the session".into());
    }
    if summary.len() != summary_len {
        return Err("summary differs from the session".into());
    }
    Ok(())
}

/// The session calls' time their replayed layers do not account for.
fn finish(out: &mut Out, op: Op, id: u64) {
    let b = out.spans.op_breakdown(id);
    out.samples.core_unaccounted[op as usize].push((b.core_ns as f64 - b.layers_ns as f64) / 1e3);
}

/// Re-runs every recorded session the traced replay did not check
/// through `QuerySession`, on two threads, and compares each answer.
/// Returns the failures.
pub fn verify(sys: &ObjectRankSystem, sessions: &[SessionRec]) -> Tally {
    let mut failures = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let unchecked = sessions.iter().filter(|r| !r.replayed);
                    for rec in unchecked.skip(t).step_by(2) {
                        verify_session(sys, rec, &mut tally);
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

fn verify_session(sys: &ObjectRankSystem, rec: &SessionRec, tally: &mut Tally) {
    let Some(answer) = &rec.answer else { return };
    let checks = 1 + usize::from(rec.explain.is_some()) + rec.feedback.len();
    let Ok(mut session) = QuerySession::start(sys, &Query::parse(&rec.query)) else {
        for _ in 0..checks {
            tally.fail("reference query failed");
        }
        return;
    };
    if !same_ids(answer, &Ranking::of_session(&session, K)) {
        tally.fail("query answer wrong");
    }
    if let Some((node, facts)) = &rec.explain {
        let ok = session
            .explain(NodeId::new(*node))
            .is_ok_and(|e| ExplainFacts::of(&e).same(facts));
        if !ok {
            tally.fail("explain answer wrong");
        }
    }
    for (node, got) in &rec.feedback {
        let ok = session.feedback(&[NodeId::new(*node)]).is_ok()
            && same_ids(got, &Ranking::of_session(&session, K));
        if !ok {
            tally.fail("feedback answer wrong");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn checker_passes_real_sessions_and_rejects_a_perturbed_answer() {
        let dataset = orex_datagen::Preset::DblpTop.generate(0.02);
        let (sys, _) = setup(&dataset);
        let mut q = queries(pool(&dataset.suggested_keywords, sys.index()), 9);
        let out = run(
            &sys,
            &mut q,
            Instant::now() + Duration::from_millis(300),
            None,
        );
        assert!(out.sessions.len() >= 2 && out.tally.failed == 0);
        assert_eq!(verify(&sys, &out.sessions).failed, 0);

        let mut sessions = out.sessions;
        let answer = sessions[0].answer.as_mut().expect("first query answered");
        answer.ids.swap(0, 1);
        let (_, facts) = sessions[1]
            .explain
            .as_mut()
            .expect("second session explained");
        facts.edges += 1;
        let failures = verify(&sys, &sessions);
        assert_eq!(failures.failed, 2);
        assert_eq!(failures.reasons().get("query answer wrong"), Some(&1));
        assert_eq!(failures.reasons().get("explain answer wrong"), Some(&1));
    }

    #[test]
    fn traced_replay_reproduces_the_session_bitwise() {
        let dataset = orex_datagen::Preset::DblpTop.generate(0.02);
        let (sys, _) = setup(&dataset);
        let mut q = queries(pool(&dataset.suggested_keywords, sys.index()), 3);
        let now = Instant::now();
        let out = run(&sys, &mut q, now + Duration::from_millis(300), Some(now));
        assert_eq!(out.tally.failed, 0, "{:?}", out.tally.reasons());
        let names: Vec<&str> = out.spans.spans().iter().map(|s| s.name).collect();
        for layer in [
            "ir.analyze",
            "graph.weights",
            "authority.power",
            "explain.explain",
            "reformulate",
        ] {
            assert!(names.contains(&layer), "no {layer} span");
        }
    }
}
