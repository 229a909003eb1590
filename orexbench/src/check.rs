//! Answer checking and failure accounting.
//!
//! Every answer is compared against a reference the benchmark computes
//! in-process, off the timed path, through orex's public API:
//! - ranked answers from a live iteration: the top-k node ids must equal
//!   the reference's;
//! - ranked answers combined from precomputed vectors: the ids must equal
//!   the top of the reference combination of the same vectors, and that
//!   whole combined vector must lie within [`combined_tolerance`] (L1) of
//!   a live iteration of the query;
//! - explanations: target inflow, node count and edge count must equal.

use orex_core::QuerySession;
use serde_json::Value;
use std::collections::BTreeMap;

/// Largest accepted L1 distance between a combination of stored vectors
/// and a live iteration of the same query: `10 * epsilon + 1e-4`, the
/// bound `orex precompute --check` applies. Stored vectors are f32, and
/// both sides stop at an L1 residual of epsilon, so neither is the exact
/// fixpoint.
pub fn combined_tolerance(epsilon: f64) -> f64 {
    10.0 * epsilon + 1e-4
}

/// L1 distance between two score vectors; infinite when their lengths
/// differ.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// A ranked answer: node ids and scores, best first.
#[derive(Clone, Debug, PartialEq)]
pub struct Ranking {
    /// Node ids.
    pub ids: Vec<u32>,
    /// Scores, same order.
    pub scores: Vec<f64>,
}

impl Ranking {
    /// Reads the `results` array of a query or feedback response.
    pub fn from_json(payload: &Value) -> Option<Self> {
        let mut ids = Vec::new();
        let mut scores = Vec::new();
        for r in payload.get("results")?.as_array()? {
            ids.push(u32::try_from(r.get("node")?.as_u64()?).ok()?);
            scores.push(r.get("score")?.as_f64()?);
        }
        Some(Self { ids, scores })
    }

    /// The session's current top `k`.
    pub fn of_session(session: &QuerySession<'_>, k: usize) -> Self {
        let top = session.top_k(k);
        Self {
            ids: top.iter().map(|r| r.node.raw()).collect(),
            scores: top.iter().map(|r| r.score).collect(),
        }
    }

    /// The top `k` of a full score vector, ranked the way sessions rank.
    pub fn of_scores(scores: &[f64], k: usize) -> Self {
        let top = orex_authority::top_k(scores, k, 0.0);
        Self {
            ids: top.iter().map(|r| r.node).collect(),
            scores: top.iter().map(|r| r.score).collect(),
        }
    }

    /// The best node.
    pub fn first(&self) -> Option<u32> {
        self.ids.first().copied()
    }

    /// True when ids and scores are bitwise equal.
    pub fn bitwise_eq(&self, other: &Ranking) -> bool {
        self.ids == other.ids
            && self.scores.len() == other.scores.len()
            && self
                .scores
                .iter()
                .zip(&other.scores)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// True when the node ids match rank for rank.
pub fn same_ids(got: &Ranking, want: &Ranking) -> bool {
    !want.ids.is_empty() && got.ids == want.ids
}

/// The parts of an explanation the checker compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExplainFacts {
    /// Authority flowing into the target.
    pub inflow: f64,
    /// Subgraph nodes.
    pub nodes: u64,
    /// Subgraph edges.
    pub edges: u64,
}

impl ExplainFacts {
    /// Reads an explain response.
    pub fn from_json(payload: &Value) -> Option<Self> {
        Some(Self {
            inflow: payload.get("target_inflow")?.as_f64()?,
            nodes: payload.get("nodes")?.as_u64()?,
            edges: payload.get("edges")?.as_u64()?,
        })
    }

    /// Reads an explanation.
    pub fn of(e: &orex_explain::Explanation) -> Self {
        Self {
            inflow: e.target_inflow(),
            nodes: e.node_count() as u64,
            edges: e.edge_count() as u64,
        }
    }

    /// Exact equality (inflow bitwise).
    pub fn same(&self, other: &ExplainFacts) -> bool {
        self.inflow.to_bits() == other.inflow.to_bits()
            && self.nodes == other.nodes
            && self.edges == other.edges
    }
}

/// Attempted and failed operations, with the reasons for failures.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: transport errors, non-200 answers, lost
    /// sessions and wrong answers.
    pub failed: u64,
    reasons: BTreeMap<String, u64>,
}

impl Tally {
    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation (already counted as attempted).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        *self.reasons.entry(why.into()).or_insert(0) += 1;
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.reasons {
            *self.reasons.entry(k).or_insert(0) += v;
        }
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
    }

    /// Failure reasons with counts.
    pub fn reasons(&self) -> &BTreeMap<String, u64> {
        &self.reasons
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranking() -> Ranking {
        Ranking {
            ids: vec![4, 9, 1],
            scores: vec![0.30, 0.20, 0.10],
        }
    }

    #[test]
    fn perturbed_rankings_are_rejected() {
        let want = ranking();
        assert!(same_ids(&ranking(), &want));
        let mut swapped = ranking();
        swapped.ids.swap(0, 1);
        assert!(!same_ids(&swapped, &want));
        let mut shorter = ranking();
        shorter.ids.pop();
        assert!(!same_ids(&shorter, &want));
        let mut nudged = ranking();
        nudged.scores[2] = f64::from_bits(nudged.scores[2].to_bits() + 1);
        assert!(same_ids(&nudged, &want) && !nudged.bitwise_eq(&want));
    }

    #[test]
    fn combined_vectors_must_stay_within_l1_tolerance() {
        let epsilon = 0.002;
        let live = vec![0.25; 4];
        let mut close = live.clone();
        close[0] += combined_tolerance(epsilon) / 2.0;
        assert!(l1_distance(&close, &live) <= combined_tolerance(epsilon));
        let mut far = live.clone();
        far[1] -= combined_tolerance(epsilon) * 0.6;
        far[2] += combined_tolerance(epsilon) * 0.6;
        assert!(l1_distance(&far, &live) > combined_tolerance(epsilon));
        assert_eq!(l1_distance(&live[..3], &live), f64::INFINITY);
    }

    #[test]
    fn perturbed_explanations_are_rejected() {
        let want = ExplainFacts {
            inflow: 0.25,
            nodes: 40,
            edges: 90,
        };
        assert!(want.same(&want.clone()));
        assert!(!want.same(&ExplainFacts { edges: 91, ..want }));
        assert!(!want.same(&ExplainFacts {
            inflow: 0.25000000001,
            ..want
        }));
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut a = Tally::default();
        for _ in 0..8 {
            a.attempt();
        }
        a.fail("status 500");
        let mut b = Tally::default();
        b.attempt();
        b.attempt();
        b.fail("wrong top-k");
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (10, 2));
        assert!((a.ok_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(a.reasons().get("status 500"), Some(&1));
        assert_eq!(Tally::default().ok_ratio(), 0.0);
    }
}
