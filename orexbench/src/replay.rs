//! Layer replays for the traced run.
//!
//! Each function below redoes the work of one `QuerySession` call through
//! the public functions of the crates beneath orex-core, one span per
//! call, computing each value once. The result must equal what the
//! session produced bitwise; the time the session spent beyond the sum
//! of these spans is reported as `core.unaccounted_us`.

use crate::spans::Spans;
use orex_authority::{power_iteration, BaseSet, TransitionMatrix};
use orex_core::ObjectRankSystem;
use orex_explain::Explanation;
use orex_graph::{NodeId, TransferRates};
use orex_ir::{Query, QueryVector};

/// A session's state as the layers see it.
#[derive(Clone)]
pub struct State {
    /// Current query vector.
    pub query: QueryVector,
    /// Current transfer rates.
    pub rates: TransferRates,
    /// Per-transfer-edge weights for `rates`.
    pub weights: Vec<f64>,
    /// Converged scores.
    pub scores: Vec<f64>,
}

fn base_set(
    sys: &ObjectRankSystem,
    query: &QueryVector,
    sp: &mut Spans,
) -> Result<BaseSet, String> {
    sp.scope("ir.base_set", |sp| {
        let base = BaseSet::weighted(sys.index().base_set_scores(query, &sys.config().okapi))
            .map_err(|e| format!("empty base set: {e}"))?;
        sp.attr("size", base.len() as f64);
        Ok(base)
    })
}

fn rank(
    sys: &ObjectRankSystem,
    weights: Vec<f64>,
    query: &QueryVector,
    warm: Option<&[f64]>,
    sp: &mut Spans,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let matrix = sp.scope("authority.matrix_build", |_| {
        TransitionMatrix::from_edge_weights(sys.transfer(), weights)
    });
    let base = base_set(sys, query, sp)?;
    let result = sp.scope("authority.power", |sp| {
        let r = power_iteration(&matrix, &base, &sys.config().rank, warm);
        sp.attr("iterations", r.iterations as f64);
        sp.attr("edges", sys.transfer().transfer_edge_count() as f64);
        r
    });
    Ok((result.scores, matrix.edge_weights().to_vec()))
}

/// `QuerySession::start`: analyze, weights, matrix, base set, power
/// iteration warm-started from the global scores.
pub fn start(sys: &ObjectRankSystem, query: &Query, sp: &mut Spans) -> Result<State, String> {
    sp.scope("layers.session_start", |sp| {
        let qv = sp.scope("ir.analyze", |_| {
            QueryVector::initial(query, sys.index().analyzer())
        });
        let rates = sys.initial_rates().clone();
        let weights = sp.scope("graph.weights", |_| sys.transfer().weights(&rates));
        let (scores, weights) = rank(sys, weights, &qv, sys.global_scores(), sp)?;
        Ok(State {
            query: qv,
            rates,
            weights,
            scores,
        })
    })
}

/// `QuerySession::resume`: the weights of the stored rates.
pub fn resume(
    sys: &ObjectRankSystem,
    query: &QueryVector,
    rates: &TransferRates,
    scores: &[f64],
    sp: &mut Spans,
) -> State {
    sp.scope("layers.resume", |sp| {
        let weights = sp.scope("graph.weights", |_| sys.transfer().weights(rates));
        State {
            query: query.clone(),
            rates: rates.clone(),
            weights,
            scores: scores.to_vec(),
        }
    })
}

/// `QuerySession::top_k`.
pub fn top_k(scores: &[f64], k: usize, sp: &mut Spans) -> Vec<orex_authority::Ranked> {
    sp.scope("layers.top_k", |sp| {
        sp.scope("authority.top_k", |_| orex_authority::top_k(scores, k, 0.0))
    })
}

fn explain_one(
    sys: &ObjectRankSystem,
    state: &State,
    base: &BaseSet,
    target: NodeId,
    sp: &mut Spans,
) -> Result<Explanation, String> {
    sp.scope("explain.explain", |sp| {
        let e = Explanation::explain(
            sys.transfer(),
            &state.weights,
            &state.scores,
            base,
            target,
            &sys.config().explain,
        )
        .map_err(|e| format!("explain failed: {e}"))?;
        sp.attr("construct_ns", e.construction_time().as_nanos() as f64);
        sp.attr("adjust_ns", e.adjustment_time().as_nanos() as f64);
        sp.attr("fixpoint_iterations", e.iterations() as f64);
        sp.attr("edges", e.edge_count() as f64);
        Ok(e)
    })
}

/// `QuerySession::explain`: base set, then the explaining subgraph.
pub fn explain(
    sys: &ObjectRankSystem,
    state: &State,
    target: NodeId,
    sp: &mut Spans,
) -> Result<Explanation, String> {
    sp.scope("layers.explain", |sp| {
        let base = base_set(sys, &state.query, sp)?;
        explain_one(sys, state, &base, target, sp)
    })
}

/// `QuerySession::explain_summary`: explain, then summarize by meta-path.
pub fn explain_summary(
    sys: &ObjectRankSystem,
    state: &State,
    target: NodeId,
    k: usize,
    sp: &mut Spans,
) -> Result<(Explanation, Vec<orex_explain::MetaPath>), String> {
    sp.scope("layers.explain_summary", |sp| {
        let base = base_set(sys, &state.query, sp)?;
        let e = explain_one(sys, state, &base, target, sp)?;
        let summary = sp.scope("explain.summarize", |_| {
            orex_explain::summarize(&e, sys.transfer(), sys.graph(), k)
        });
        Ok((e, summary))
    })
}

/// `QuerySession::feedback`: explain every object, reformulate, and
/// re-rank with the new rates warm-started from the current scores.
pub fn feedback(
    sys: &ObjectRankSystem,
    state: &State,
    objects: &[NodeId],
    sp: &mut Spans,
) -> Result<State, String> {
    sp.scope("layers.feedback", |sp| {
        let base = base_set(sys, &state.query, sp)?;
        let mut explanations = Vec::with_capacity(objects.len());
        for &obj in objects {
            explanations.push(explain_one(sys, state, &base, obj, sp)?);
        }
        let refs: Vec<&Explanation> = explanations.iter().collect();
        let outcome = sp.scope("reformulate", |sp| {
            let o = orex_reformulate::reformulate(
                &state.query,
                &state.rates,
                sys.graph().schema(),
                sys.transfer(),
                sys.index(),
                &refs,
                &sys.config().reformulate,
            );
            sp.attr("expansion_terms", o.expansion_terms.len() as f64);
            o
        });
        let weights = sp.scope("graph.weights", |_| sys.transfer().weights(&outcome.rates));
        let (scores, weights) = rank(sys, weights, &outcome.query, Some(&state.scores), sp)?;
        Ok(State {
            query: outcome.query,
            rates: outcome.rates,
            weights,
            scores,
        })
    })
}

/// True when two score vectors are bitwise equal.
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
