//! Top-k lists.
//!
//! Items are opaque `u64` identifiers (in the probabilistic-database setting
//! they are tuple keys). A [`TopKList`] orders only its best `k` items, which
//! is the answer shape of a Top-k query.

use std::collections::HashMap;
use std::fmt;

/// Errors raised when constructing rankings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankError {
    /// An item appeared more than once.
    DuplicateItem {
        /// The duplicated item identifier.
        item: u64,
    },
    /// The list was empty where a non-empty list is required.
    Empty,
}

impl fmt::Display for RankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankError::DuplicateItem { item } => write!(f, "item {item} appears more than once"),
            RankError::Empty => write!(f, "ranking must contain at least one item"),
        }
    }
}

impl std::error::Error for RankError {}

/// A Top-k list: an ordered list of distinct items, best first.
///
/// `τ(i)` (1-based position lookup) and `τ(t)` (item → position) follow the
/// paper's notation via [`TopKList::item_at`] and [`TopKList::position_of`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TopKList {
    items: Vec<u64>,
}

impl TopKList {
    /// Builds a Top-k list from items in rank order (best first), rejecting
    /// duplicates.
    pub fn new(items: Vec<u64>) -> Result<Self, RankError> {
        let mut seen = std::collections::HashSet::with_capacity(items.len());
        for &it in &items {
            if !seen.insert(it) {
                return Err(RankError::DuplicateItem { item: it });
            }
        }
        Ok(TopKList { items })
    }

    /// The empty list (k = 0).
    pub fn empty() -> Self {
        TopKList { items: Vec::new() }
    }

    /// The items in rank order.
    #[inline]
    pub fn items(&self) -> &[u64] {
        &self.items
    }

    /// The list length `k`.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The item at 1-based position `i` (`τ(i)`), if `i ≤ k`.
    pub fn item_at(&self, i: usize) -> Option<u64> {
        if i == 0 {
            None
        } else {
            self.items.get(i - 1).copied()
        }
    }

    /// The 1-based position of `item` (`τ(t)`), if present.
    pub fn position_of(&self, item: u64) -> Option<usize> {
        self.items.iter().position(|&x| x == item).map(|p| p + 1)
    }

    /// Whether `item` appears in the list.
    pub fn contains(&self, item: u64) -> bool {
        self.items.contains(&item)
    }

    /// The prefix `τ^i`: the restriction of the list to its first `i` items.
    pub fn prefix(&self, i: usize) -> TopKList {
        TopKList {
            items: self.items.iter().take(i).copied().collect(),
        }
    }

    /// Number of items shared with another list.
    pub fn overlap(&self, other: &TopKList) -> usize {
        self.items.iter().filter(|it| other.contains(**it)).count()
    }

    /// A position lookup map (item → 1-based position) for repeated queries.
    pub fn position_map(&self) -> HashMap<u64, usize> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, &it)| (it, i + 1))
            .collect()
    }
}

impl fmt::Display for TopKList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, " > ")?;
            }
            write!(f, "{it}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_construction_and_lookup() {
        let t = TopKList::new(vec![5, 3, 9]).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.item_at(1), Some(5));
        assert_eq!(t.item_at(3), Some(9));
        assert_eq!(t.item_at(0), None);
        assert_eq!(t.item_at(4), None);
        assert_eq!(t.position_of(3), Some(2));
        assert_eq!(t.position_of(7), None);
        assert!(t.contains(9));
        assert_eq!(t.prefix(2).items(), &[5, 3]);
        assert_eq!(format!("{t}"), "[5 > 3 > 9]");
    }

    #[test]
    fn topk_rejects_duplicates() {
        assert_eq!(
            TopKList::new(vec![1, 2, 1]),
            Err(RankError::DuplicateItem { item: 1 })
        );
    }

    #[test]
    fn overlap_counts_shared_items() {
        let a = TopKList::new(vec![1, 2, 3]).unwrap();
        let b = TopKList::new(vec![3, 4, 1]).unwrap();
        assert_eq!(a.overlap(&b), 2);
        assert_eq!(TopKList::empty().overlap(&a), 0);
    }
}
