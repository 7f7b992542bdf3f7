//! Tuples, keys, attribute values, and tuple alternatives.
//!
//! A probabilistic relation `R^P(K; A)` has a certain *possible-worlds key*
//! `K` and an uncertain value attribute `A`. A **tuple alternative** is one
//! concrete `(key, value)` pair that may appear in some possible worlds; the
//! alternatives sharing a key are the possible values of one probabilistic
//! tuple and are mutually exclusive within any single world.

use std::cmp::Ordering;
use std::fmt;

/// The possible-worlds key of a probabilistic tuple.
///
/// Keys are opaque 64-bit identifiers; two alternatives with the same key can
/// never co-exist in a possible world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleKey(pub u64);

impl fmt::Display for TupleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The (uncertain) value attribute of a tuple alternative.
///
/// The paper uses a single value attribute that doubles as the ranking score
/// for Top-k queries and as the categorical attribute for group-by and
/// clustering queries. We store it as an `f64` with a total order
/// (`f64::total_cmp`), which covers both uses: scores compare numerically and
/// categorical values compare by exact equality (the workload generators only
/// produce integral categorical values, so float equality is exact).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrValue(pub f64);

impl AttrValue {
    /// The numeric value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Eq for AttrValue {}

impl PartialOrd for AttrValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttrValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for AttrValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue(v)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A tuple alternative: one `(key, value)` pair that may appear in possible
/// worlds.
///
/// Alternatives are ordered by `(key, value)` so that possible worlds have a
/// canonical sorted representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Alternative {
    /// The possible-worlds key this alternative belongs to.
    pub key: TupleKey,
    /// The value taken by the tuple in worlds containing this alternative.
    pub value: AttrValue,
}

impl Alternative {
    /// Convenience constructor from raw parts.
    pub fn new(key: u64, value: f64) -> Self {
        Alternative {
            key: TupleKey(key),
            value: AttrValue(value),
        }
    }

    /// The ranking score of this alternative (the value attribute interpreted
    /// numerically).
    #[inline]
    pub fn score(&self) -> f64 {
        self.value.0
    }
}

/// Folds `(alternative, probability)` occurrences into a marginal table: one
/// entry per distinct alternative, sorted by alternative, holding the sum of
/// its occurrences. The sort is stable, so each alternative's occurrences are
/// added in the order given, starting from `0.0` — the same sums, bit for
/// bit, as accumulating them into a map in that order.
pub fn fold_marginals(mut occurrences: Vec<(Alternative, f64)>) -> Vec<(Alternative, f64)> {
    occurrences.sort_by_key(|(alt, _)| *alt);
    let mut table: Vec<(Alternative, f64)> = Vec::with_capacity(occurrences.len());
    for (alt, p) in occurrences {
        match table.last_mut() {
            Some((last, sum)) if *last == alt => *sum += p,
            _ => table.push((alt, 0.0 + p)),
        }
    }
    table
}

impl fmt::Display for Alternative {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.key, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_order_and_display() {
        assert!(TupleKey(1) < TupleKey(2));
        assert_eq!(format!("{}", TupleKey(3)), "t3");
    }

    #[test]
    fn attr_values_totally_ordered() {
        assert!(AttrValue(1.0) < AttrValue(2.0));
        assert!(AttrValue(-1.0) < AttrValue(0.0));
        assert_eq!(AttrValue(5.0), AttrValue(5.0));
    }

    #[test]
    fn attr_value_hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(AttrValue(2.5));
        assert!(s.contains(&AttrValue(2.5)));
        assert!(!s.contains(&AttrValue(2.6)));
    }

    #[test]
    fn alternatives_sort_by_key_then_value() {
        let a = Alternative::new(1, 9.0);
        let b = Alternative::new(2, 1.0);
        let c = Alternative::new(1, 1.0);
        let mut v = vec![a, b, c];
        v.sort();
        assert_eq!(v, vec![c, a, b]);
    }

    #[test]
    fn alternative_display_and_score() {
        let a = Alternative::new(4, 7.5);
        assert_eq!(format!("{a}"), "(t4, 7.5)");
        assert_eq!(a.score(), 7.5);
    }
}
