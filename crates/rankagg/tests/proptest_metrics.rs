//! Property-based tests for the Top-k distance metrics.

use cpdb_rankagg::metrics::{
    footrule_distance, intersection_metric, kendall_tau_topk, symmetric_difference_topk,
};
use cpdb_rankagg::TopKList;
use proptest::prelude::*;

/// Strategy: a Top-k list of distinct items drawn from 0..12.
fn topk_list() -> impl Strategy<Value = TopKList> {
    prop::collection::vec(0u64..12, 0..6).prop_map(|mut items| {
        items.sort_unstable();
        items.dedup();
        // A deterministic shuffle so the order isn't always ascending.
        items.reverse();
        TopKList::new(items).expect("deduplicated")
    })
}

/// Strategy: a Top-k list of exactly `len` distinct items drawn from 0..12.
fn topk_list_exact(len: usize) -> impl Strategy<Value = TopKList> {
    Just((0u64..12).collect::<Vec<u64>>())
        .prop_shuffle()
        .prop_map(move |items| TopKList::new(items.into_iter().take(len).collect()).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every metric is symmetric, non-negative, and zero on identical lists.
    #[test]
    fn metrics_are_symmetric_and_reflexive(a in topk_list(), b in topk_list()) {
        for metric in [
            symmetric_difference_topk,
            intersection_metric,
            footrule_distance,
            kendall_tau_topk,
        ] {
            prop_assert!(metric(&a, &b) >= 0.0);
            prop_assert!((metric(&a, &b) - metric(&b, &a)).abs() < 1e-12);
            prop_assert_eq!(metric(&a, &a), 0.0);
        }
    }

    /// Normalised metrics stay in [0, 1].
    #[test]
    fn normalised_metrics_bounded(a in topk_list(), b in topk_list()) {
        prop_assert!(symmetric_difference_topk(&a, &b) <= 1.0 + 1e-12);
        prop_assert!(intersection_metric(&a, &b) <= 1.0 + 1e-12);
    }

    /// The intersection metric is at least `d_Δ / k`: its depth-k term alone
    /// already contributes the full symmetric difference divided by k, and
    /// every other term is non-negative.
    #[test]
    fn intersection_lower_bounded_by_sym_diff(a in topk_list(), b in topk_list()) {
        let k = a.len().max(b.len());
        if k > 0 {
            prop_assert!(
                intersection_metric(&a, &b) + 1e-12
                    >= symmetric_difference_topk(&a, &b) / k as f64
            );
        }
    }

    /// The footrule triangle inequality holds on Top-k lists of a common
    /// length (the setting in which Fagin et al. prove `F^{(k+1)}` is a
    /// metric).
    #[test]
    fn footrule_triangle_inequality(
        a in topk_list_exact(3),
        b in topk_list_exact(3),
        c in topk_list_exact(3),
    ) {
        prop_assert!(
            footrule_distance(&a, &c)
                <= footrule_distance(&a, &b) + footrule_distance(&b, &c) + 1e-9
        );
    }
}
