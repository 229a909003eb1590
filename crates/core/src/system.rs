//! The ObjectRank2 query / explanation / reformulation system facade.
//!
//! [`ObjectRankSystem`] bundles everything a deployment needs — the data
//! graph, its transfer-graph topology, the inverted index over node text,
//! and the default parameters — and hands out [`crate::QuerySession`]s
//! that execute queries, explain results, and learn from feedback. This is
//! the programmatic equivalent of the system the paper deployed at
//! `http://dbir.cis.fiu.edu/ObjectRankReformulation/`.

use orex_authority::{global_object_rank, MatrixValues, RankParams, TransitionMatrix};
use orex_explain::ExplainParams;
use orex_graph::{DataGraph, NodeId, TransferGraph, TransferRates};
use orex_ir::{Analyzer, IndexBuilder, InvertedIndex, Okapi};
use orex_reformulate::ReformulateParams;

/// System-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Power-iteration parameters (damping 0.85, threshold 0.002 per the
    /// paper's performance experiments).
    pub rank: RankParams,
    /// Explaining-subgraph parameters (radius L = 3 per Section 4).
    pub explain: ExplainParams,
    /// Reformulation parameters (structure-only with C_f = 0.5 won the
    /// surveys, but the default keeps both components per Section 5).
    pub reformulate: ReformulateParams,
    /// Okapi weighting parameters for base-set IR scores (Equation 3).
    pub okapi: Okapi,
    /// Precompute global ObjectRank at system construction and use it to
    /// warm-start initial queries (the Section 6.2 optimization).
    pub global_warm_start: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            rank: RankParams::default(),
            explain: ExplainParams::default(),
            reformulate: ReformulateParams::default(),
            okapi: Okapi::default(),
            global_warm_start: true,
        }
    }
}

/// The deployed system: immutable data + index, shared by query sessions.
pub struct ObjectRankSystem {
    graph: DataGraph,
    transfer: TransferGraph,
    index: InvertedIndex,
    initial_rates: TransferRates,
    config: SystemConfig,
    /// The transition matrix of `initial_rates`, built once: every initial
    /// query, and every session whose rates are still untrained, borrows
    /// it (see [`Self::initial_matrix`]).
    initial_matrix: MatrixValues,
    /// Global ObjectRank scores under `initial_rates`, used to warm-start
    /// initial queries. `None` when disabled.
    global_scores: Option<Vec<f64>>,
}

impl ObjectRankSystem {
    /// Builds the system: derives the transfer graph, indexes every node's
    /// attribute text, builds the initial-rates transition matrix, and
    /// (optionally) precomputes global ObjectRank with it.
    ///
    /// # Panics
    /// Panics if `initial_rates` is invalid for the graph's schema.
    pub fn new(graph: DataGraph, initial_rates: TransferRates, config: SystemConfig) -> Self {
        initial_rates
            .validate(graph.schema())
            // orex::allow(ORX008): documented `# Panics` contract — the
            // constructor's precondition is that the rates match the
            // schema; every workspace caller builds both from the same
            // preset so the validation cannot fail there.
            .expect("initial rates must be valid");
        let transfer = TransferGraph::build(&graph);
        let mut builder = IndexBuilder::new(Analyzer::new());
        for node in graph.nodes() {
            builder.add_document(node.raw(), &graph.node_text(node));
        }
        let index = builder.build();
        let matrix = TransitionMatrix::new(&transfer, &initial_rates);
        let global_scores = config
            .global_warm_start
            .then(|| global_object_rank(&matrix, &config.rank).scores);
        let initial_matrix = matrix.into_values();
        Self {
            graph,
            transfer,
            index,
            initial_rates,
            config,
            initial_matrix,
            global_scores,
        }
    }

    /// The data graph.
    #[inline]
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The authority transfer data graph.
    #[inline]
    pub fn transfer(&self) -> &TransferGraph {
        &self.transfer
    }

    /// The inverted index over node text.
    #[inline]
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The system's initial (untrained) rates.
    #[inline]
    pub fn initial_rates(&self) -> &TransferRates {
        &self.initial_rates
    }

    /// The transition matrix of [`Self::initial_rates`]. It borrows the
    /// values the system built once at construction, so lending it out
    /// costs nothing; the system keeps them resident for its lifetime.
    #[inline]
    pub fn initial_matrix(&self) -> TransitionMatrix<'_> {
        TransitionMatrix::borrowed(&self.transfer, &self.initial_matrix)
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Global ObjectRank scores, when precomputed.
    #[inline]
    pub fn global_scores(&self) -> Option<&[f64]> {
        self.global_scores.as_deref()
    }

    /// Display name of a node (for result lists).
    pub fn display(&self, node: NodeId) -> String {
        self.graph.node_display(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orex_datagen::{generate_dblp, DblpConfig, TextConfig};

    fn tiny_system() -> ObjectRankSystem {
        let d = generate_dblp(
            "t",
            &DblpConfig {
                papers: 120,
                authors: 60,
                conferences: 3,
                years_per_conference: 3,
                text: TextConfig {
                    vocab_size: 600,
                    topics: 5,
                    ..TextConfig::default()
                },
                ..DblpConfig::default()
            },
        );
        ObjectRankSystem::new(d.graph, d.ground_truth, SystemConfig::default())
    }

    #[test]
    fn system_builds_and_indexes_all_nodes() {
        let sys = tiny_system();
        assert_eq!(
            sys.index().stats().doc_count as usize,
            sys.graph().node_count()
        );
        assert!(sys.global_scores().is_some());
        assert_eq!(sys.global_scores().unwrap().len(), sys.graph().node_count());
    }

    #[test]
    fn global_warm_start_can_be_disabled() {
        let d = generate_dblp(
            "t2",
            &DblpConfig {
                papers: 50,
                authors: 20,
                conferences: 2,
                years_per_conference: 2,
                ..DblpConfig::default()
            },
        );
        let sys = ObjectRankSystem::new(
            d.graph,
            d.ground_truth,
            SystemConfig {
                global_warm_start: false,
                ..SystemConfig::default()
            },
        );
        assert!(sys.global_scores().is_none());
    }

    #[test]
    #[should_panic(expected = "initial rates must be valid")]
    fn invalid_rates_rejected() {
        let d = generate_dblp(
            "t3",
            &DblpConfig {
                papers: 20,
                authors: 10,
                conferences: 1,
                years_per_conference: 1,
                ..DblpConfig::default()
            },
        );
        let bad = orex_graph::TransferRates::uniform(d.graph.schema(), 0.9);
        let _ = ObjectRankSystem::new(d.graph, bad, SystemConfig::default());
    }
}
