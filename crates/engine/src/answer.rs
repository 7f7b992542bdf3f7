//! The uniform answer type returned by every query.

use cpdb_consensus::aggregate::PossibleAggregate;
use cpdb_consensus::clustering::Clustering;
use cpdb_model::PossibleWorld;
use cpdb_rankagg::TopKList;
use std::fmt;

/// How good the returned answer is, relative to the true consensus optimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimality {
    /// Provably the optimal consensus answer (an exact theorem of the paper).
    Exact,
    /// Within the stated multiplicative factor of the optimum.
    Approx {
        /// The proven approximation factor (e.g. `2.0` for Kendall tau,
        /// `4.0` for the aggregate median, `H_k` for the Υ_H shortcut).
        factor: f64,
    },
    /// No guarantee relative to the consensus objective (the baseline
    /// ranking semantics, and prefix scans outside their proven model class).
    Heuristic,
}

impl fmt::Display for Optimality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Optimality::Exact => write!(f, "exact"),
            Optimality::Approx { factor } => write!(f, "{factor:.3}-approx"),
            Optimality::Heuristic => write!(f, "heuristic"),
        }
    }
}

/// The concrete result carried by an [`Answer`], one variant per answer
/// space.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Value {
    /// A consensus possible world (set queries).
    World(PossibleWorld),
    /// A consensus Top-k list (Top-k queries and baselines).
    TopK(TopKList),
    /// A real-valued group-by count vector (the mean aggregate answer).
    Counts(Vec<f64>),
    /// A possible (integral) count vector with its witnessing assignment
    /// (the median aggregate answer).
    PossibleCounts(PossibleAggregate),
    /// A consensus clustering (each inner vector is one cluster).
    Clustering(Clustering),
}

impl Value {
    /// The world, if this is a set-consensus answer.
    pub fn as_world(&self) -> Option<&PossibleWorld> {
        match self {
            Value::World(w) => Some(w),
            _ => None,
        }
    }

    /// The Top-k list, if this is a Top-k or baseline answer.
    pub fn as_topk(&self) -> Option<&TopKList> {
        match self {
            Value::TopK(l) => Some(l),
            _ => None,
        }
    }

    /// The count vector, if this is an aggregate answer (the median answer's
    /// integral counts are widened to `f64`).
    pub fn as_counts(&self) -> Option<Vec<f64>> {
        match self {
            Value::Counts(c) => Some(c.clone()),
            Value::PossibleCounts(p) => Some(p.counts.iter().map(|&c| c as f64).collect()),
            _ => None,
        }
    }

    /// The clustering, if this is a clustering answer.
    pub fn as_clustering(&self) -> Option<&Clustering> {
        match self {
            Value::Clustering(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::World(w) => write!(f, "{w}"),
            Value::TopK(l) => write!(f, "{l}"),
            Value::Counts(c) => {
                write!(f, "[")?;
                for (i, v) in c.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:.3}")?;
                }
                write!(f, "]")
            }
            Value::PossibleCounts(p) => write!(f, "{:?}", p.counts),
            Value::Clustering(clusters) => {
                write!(f, "{{")?;
                for (i, cluster) in clusters.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{{")?;
                    for (j, t) in cluster.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    write!(f, "}}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// A consensus answer: the result itself, its expected distance to the random
/// world's answer under the query's metric, and how optimal it is.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The deterministic answer.
    pub value: Value,
    /// `E_pw[d(value, answer_pw)]` under the query's distance measure.
    ///
    /// Exact for every Top-k and set query: closed forms where the paper
    /// provides them, and for Kendall-tau queries the exact table of
    /// [`cpdb_consensus::topk::kendall::mean_topk_kendall`] (finding the
    /// optimal Kendall answer is NP-hard; scoring a given one is not).
    /// Baselines are scored under the normalised symmetric difference `d_Δ`.
    pub expected_distance: f64,
    /// Optimality guarantee of `value` for the query's objective.
    pub optimality: Optimality,
}

impl Answer {
    /// Builds an answer.
    pub fn new(value: Value, expected_distance: f64, optimality: Optimality) -> Self {
        Answer {
            value,
            expected_distance,
            optimality,
        }
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (E[d] = {:.6}, {})",
            self.value, self.expected_distance, self.optimality
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_select_the_right_variant() {
        let list = Value::TopK(TopKList::new(vec![3, 1]).unwrap());
        assert!(list.as_topk().is_some());
        assert!(list.as_world().is_none());
        assert!(list.as_clustering().is_none());

        let counts = Value::PossibleCounts(PossibleAggregate {
            counts: vec![2, 1],
            assignment: vec![0, 0, 1],
        });
        assert_eq!(counts.as_counts(), Some(vec![2.0, 1.0]));
    }

    #[test]
    fn display_is_compact() {
        let a = Answer::new(
            Value::TopK(TopKList::new(vec![3, 1]).unwrap()),
            0.25,
            Optimality::Approx { factor: 2.0 },
        );
        let s = a.to_string();
        assert!(s.contains("0.250000"), "{s}");
        assert!(s.ends_with("2.000-approx)"), "{s}");

        let c = Value::Clustering(vec![
            vec![cpdb_model::TupleKey(1), cpdb_model::TupleKey(2)],
            vec![cpdb_model::TupleKey(3)],
        ]);
        assert_eq!(c.to_string(), "{{t1, t2}, {t3}}");
    }
}
