//! Sessions under the system's initial rates rank and explain against the
//! system's shared transition matrix. These tests pin that to a reference
//! built the long way — `TransitionMatrix::new` + `object_rank2` +
//! `Explanation::explain` on freshly computed weights — bit for bit.

use orex_authority::{object_rank2, BaseSet, TransitionMatrix};
use orex_core::{ObjectRankSystem, QuerySession, SystemConfig};
use orex_datagen::{generate_dblp, DblpConfig, TextConfig};
use orex_explain::Explanation;
use orex_graph::{NodeId, TransferRates};
use orex_ir::{Query, QueryVector};
use orex_reformulate::{reformulate, ReformulateParams};

fn system(config: SystemConfig) -> ObjectRankSystem {
    let d = generate_dblp(
        "shared",
        &DblpConfig {
            papers: 300,
            authors: 120,
            conferences: 4,
            years_per_conference: 3,
            text: TextConfig {
                vocab_size: 700,
                topics: 6,
                ..TextConfig::default()
            },
            ..DblpConfig::default()
        },
    );
    ObjectRankSystem::new(d.graph, d.ground_truth, config)
}

/// What a session should hold after a step, computed without the system's
/// shared matrix.
struct Reference {
    query: QueryVector,
    rates: TransferRates,
    weights: Vec<f64>,
    scores: Vec<f64>,
}

impl Reference {
    fn rank(
        sys: &ObjectRankSystem,
        query: QueryVector,
        rates: TransferRates,
        warm: Option<&[f64]>,
    ) -> Self {
        let matrix = TransitionMatrix::new(sys.transfer(), &rates);
        let scores = object_rank2(
            &matrix,
            sys.index(),
            &query,
            &sys.config().okapi,
            &sys.config().rank,
            warm,
        )
        .unwrap()
        .scores;
        Self {
            query,
            rates,
            weights: matrix.edge_weights().to_vec(),
            scores,
        }
    }

    fn start(sys: &ObjectRankSystem, text: &str, rates: TransferRates) -> Self {
        let query = QueryVector::initial(&Query::parse(text), sys.index().analyzer());
        Self::rank(sys, query, rates, sys.global_scores())
    }

    fn explain(&self, sys: &ObjectRankSystem, target: NodeId) -> Explanation {
        let base = BaseSet::weighted(
            sys.index()
                .base_set_scores(&self.query, &sys.config().okapi),
        )
        .unwrap();
        Explanation::explain(
            sys.transfer(),
            &self.weights,
            &self.scores,
            &base,
            target,
            &sys.config().explain,
        )
        .unwrap()
    }

    fn feedback(&self, sys: &ObjectRankSystem, target: NodeId, params: &ReformulateParams) -> Self {
        let explanation = self.explain(sys, target);
        let outcome = reformulate(
            &self.query,
            &self.rates,
            sys.graph().schema(),
            sys.transfer(),
            sys.index(),
            &[&explanation],
            params,
        );
        Self::rank(sys, outcome.query, outcome.rates, Some(&self.scores))
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn explanation_bits(e: &Explanation) -> Vec<(usize, u64, u64, u64)> {
    e.edges()
        .iter()
        .map(|edge| {
            (
                edge.transfer_edge,
                edge.alpha.to_bits(),
                edge.original_flow.to_bits(),
                edge.adjusted_flow.to_bits(),
            )
        })
        .collect()
}

/// Asserts the session holds the reference's state, and that explaining
/// its top result gives the reference's explanation.
fn assert_matches(session: &QuerySession<'_>, want: &Reference) {
    let sys = session.system();
    assert_eq!(session.rates(), &want.rates);
    assert_eq!(session.query_vector(), &want.query);
    assert_eq!(bits(session.scores()), bits(&want.scores), "scores differ");
    let top = session.top_k(1)[0].node;
    let got = session.explain(top).unwrap();
    let expected = want.explain(sys, top);
    assert_eq!(explanation_bits(&got), explanation_bits(&expected));
    assert_eq!(got.iterations(), expected.iterations());
    assert_eq!(
        got.target_inflow().to_bits(),
        expected.target_inflow().to_bits()
    );
}

#[test]
fn initial_rates_sessions_match_the_reference_bitwise() {
    let sys = system(SystemConfig::default());
    let want = Reference::start(&sys, "data", sys.initial_rates().clone());

    let started = QuerySession::start(&sys, &Query::parse("data")).unwrap();
    assert_matches(&started, &want);

    let with =
        QuerySession::start_with(&sys, &Query::parse("data"), sys.initial_rates().clone()).unwrap();
    assert_matches(&with, &want);

    let resumed = QuerySession::resume(&sys, started.snapshot());
    assert_matches(&resumed, &want);

    let mut restored = QuerySession::start(&sys, &Query::parse("query")).unwrap();
    let top = restored.top_k(1)[0].node;
    restored.feedback(&[top]).unwrap();
    assert_ne!(
        restored.rates(),
        sys.initial_rates(),
        "feedback should train"
    );
    restored.restore(started.snapshot());
    assert_matches(&restored, &want);
}

#[test]
fn matrix_is_shared_across_sessions_and_matches_a_fresh_build() {
    let sys = system(SystemConfig::default());
    let fresh = TransitionMatrix::new(sys.transfer(), sys.initial_rates());
    let shared = sys.initial_matrix();
    assert_eq!(bits(shared.edge_weights()), bits(fresh.edge_weights()));
    assert_eq!(shared.cache_block_count(), fresh.cache_block_count());
    // Lending the matrix out twice hands out the same values, not copies.
    assert!(std::ptr::eq(
        sys.initial_matrix().edge_weights().as_ptr(),
        shared.edge_weights().as_ptr()
    ));
}

#[test]
fn content_only_feedback_keeps_initial_rates_and_matches_bitwise() {
    let sys = system(SystemConfig::default());
    let params = ReformulateParams::content_only(0.2);
    let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
    let mut want = Reference::start(&sys, "data", sys.initial_rates().clone());
    for _ in 0..2 {
        let pick = session.top_k(1)[0].node;
        session.feedback_with(&[pick], &params).unwrap();
        want = want.feedback(&sys, pick, &params);
        assert_eq!(session.rates(), sys.initial_rates());
        assert_matches(&session, &want);
    }
}

#[test]
fn trained_feedback_matches_bitwise() {
    let sys = system(SystemConfig::default());
    let params = sys.config().reformulate;
    let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
    let mut want = Reference::start(&sys, "data", sys.initial_rates().clone());
    for _ in 0..2 {
        let pick = session.top_k(1)[0].node;
        session.feedback(&[pick]).unwrap();
        want = want.feedback(&sys, pick, &params);
        assert_matches(&session, &want);
    }
    assert_ne!(session.rates(), sys.initial_rates());
    // A trained snapshot resumes with its own weights.
    assert_matches(&QuerySession::resume(&sys, session.snapshot()), &want);
}

#[test]
fn explicit_rates_build_their_own_matrix() {
    let sys = system(SystemConfig::default());
    let rates = TransferRates::uniform(sys.graph().schema(), 0.3);
    assert_ne!(&rates, sys.initial_rates());
    let session = QuerySession::start_with(&sys, &Query::parse("data"), rates.clone()).unwrap();
    let want = Reference::start(&sys, "data", rates);
    assert_matches(&session, &want);
    assert_matches(&QuerySession::resume(&sys, session.snapshot()), &want);
}

#[test]
fn sessions_share_the_matrix_without_global_warm_start() {
    let sys = system(SystemConfig {
        global_warm_start: false,
        ..SystemConfig::default()
    });
    assert!(sys.global_scores().is_none());
    let want = Reference::start(&sys, "data", sys.initial_rates().clone());
    let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
    assert_matches(&session, &want);
    let pick = session.top_k(1)[0].node;
    session.feedback(&[pick]).unwrap();
    assert_matches(
        &session,
        &want.feedback(&sys, pick, &sys.config().reformulate),
    );
}
