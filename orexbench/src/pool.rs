//! Seeded request generation: keyword pools and session plans.
//!
//! The program only ever sees the generated query strings; which terms
//! exist comes from the dataset's own index, and every draw comes from
//! the run's seed.

use crate::rng::{Rng, Zipf};
use orex_ir::InvertedIndex;

/// The `n` most frequent index terms that a user could type: alphabetic,
/// and analyzed back to themselves, so a query for the term hits it.
/// Ordered by document frequency, most frequent first (ties by text).
pub fn frequent_terms(index: &InvertedIndex, n: usize) -> Vec<String> {
    let analyzer = index.analyzer();
    let mut terms: Vec<(u32, &str)> = (0..index.vocabulary_size() as u32)
        .map(|t| (index.df(t), index.term_text(t)))
        .filter(|&(df, text)| {
            df >= 2
                && text.len() >= 3
                && text.bytes().all(|b| b.is_ascii_lowercase())
                && analyzer.analyze_term(text).as_deref() == Some(text)
        })
        .collect();
    terms.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
    terms
        .into_iter()
        .take(n)
        .map(|(_, t)| t.to_string())
        .collect()
}

/// One interactive session: the query, and whether the user looks at an
/// explanation of the top hit before giving feedback on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionPlan {
    /// Query text, one or two keywords.
    pub query: String,
    /// Explain the top hit (2 sessions in 3).
    pub explain: bool,
}

/// How a workload draws its queries: zipfian first keywords, a share of
/// them joined by a second zipfian keyword. Exponent 0 is uniform.
#[derive(Clone, Copy, Debug)]
pub struct Draw {
    /// Zipf exponent over the pool ranks.
    pub exponent: f64,
    /// Probability of a two-keyword query.
    pub two_keyword: f64,
}

impl Draw {
    /// Uniform single keywords.
    pub const UNIFORM: Draw = Draw {
        exponent: 0.0,
        two_keyword: 0.0,
    };
}

/// An endless, seeded stream of session plans for one caller.
pub struct Plans {
    pool: Vec<String>,
    two_keyword: f64,
    zipf: Zipf,
    rng: Rng,
}

impl Plans {
    /// The stream for `caller` under `seed`.
    pub fn new(pool: Vec<String>, draw: Draw, seed: u64, caller: u64) -> Self {
        assert!(pool.len() >= 2, "pool needs at least two keywords");
        Self {
            zipf: Zipf::new(pool.len(), draw.exponent),
            pool,
            two_keyword: draw.two_keyword,
            rng: Rng::new(seed, caller),
        }
    }

    /// The next session.
    pub fn next_plan(&mut self) -> SessionPlan {
        let first = self.zipf.sample(&mut self.rng);
        let mut query = self.pool[first].clone();
        if self.rng.unit() < self.two_keyword {
            let mut second = self.zipf.sample(&mut self.rng);
            if second == first {
                second = (first + 1) % self.pool.len();
            }
            query.push(' ');
            query.push_str(&self.pool[second]);
        }
        SessionPlan {
            query,
            explain: self.rng.below(3) != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Vec<String> {
        (0..40).map(|i| format!("kw{i}")).collect()
    }

    fn take(seed: u64, caller: u64, n: usize) -> Vec<SessionPlan> {
        let draw = Draw {
            exponent: 1.0,
            two_keyword: 0.4,
        };
        let mut p = Plans::new(pool(), draw, seed, caller);
        (0..n).map(|_| p.next_plan()).collect()
    }

    #[test]
    fn equal_seeds_give_identical_request_sequences() {
        assert_eq!(take(11, 0, 200), take(11, 0, 200));
        assert_ne!(take(11, 0, 200), take(12, 0, 200));
        assert_ne!(take(11, 0, 200), take(11, 1, 200));
    }

    #[test]
    fn plans_mix_one_and_two_keywords_and_explain_two_in_three() {
        let plans = take(5, 0, 3000);
        let two = plans.iter().filter(|p| p.query.contains(' ')).count();
        let explained = plans.iter().filter(|p| p.explain).count();
        assert!((1000..1400).contains(&two), "two-keyword share {two}/3000");
        assert!(
            (1850..2150).contains(&explained),
            "explained {explained}/3000"
        );
        for p in &plans {
            let words: Vec<&str> = p.query.split(' ').collect();
            assert!(words.len() <= 2 && (words.len() == 1 || words[0] != words[1]));
        }
        let mut uniform = Plans::new(pool(), Draw::UNIFORM, 5, 0);
        assert!((0..100).all(|_| !uniform.next_plan().query.contains(' ')));
    }
}
