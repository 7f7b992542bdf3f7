//! Property-based tests for the full-ranking distances and the pivot
//! aggregation of `cpdb_testkit::pivot`.

use cpdb_testkit::pivot::{kemeny_optimal, pivot_best_of, FullRanking, PreferenceMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn full_ranking() -> impl Strategy<Value = FullRanking> {
    Just((0u64..6).collect::<Vec<u64>>())
        .prop_shuffle()
        .prop_map(|items| FullRanking::new(items).expect("permutation"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kendall and footrule distances of full rankings obey the
    /// Diaconis–Graham inequalities K ≤ F ≤ 2K.
    #[test]
    fn diaconis_graham(a in full_ranking(), b in full_ranking()) {
        let k = a.kendall_tau(&b);
        let f = a.footrule_distance(&b);
        prop_assert!(k <= f);
        prop_assert!(f <= 2 * k || k == 0);
    }

    /// Pivot aggregation (best of a few runs) is within factor 2 of the
    /// Kemeny optimum on random weighted tournaments.
    #[test]
    fn pivot_within_two_of_kemeny(seed in 0u64..1000) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<u64> = (0..5).collect();
        let mut prefs = PreferenceMatrix::new(&items);
        for i in 0..items.len() {
            for j in (i + 1)..items.len() {
                let w: f64 = rng.gen();
                prefs.set_weight(items[i], items[j], w);
                prefs.set_weight(items[j], items[i], 1.0 - w);
            }
        }
        let (_, opt) = kemeny_optimal(&items, &prefs).unwrap();
        let approx = pivot_best_of(&prefs, 6, &mut rng).unwrap();
        prop_assert!(prefs.disagreement(&approx) <= 2.0 * opt + 1e-9);
    }
}
