//! The checks of the `cpdb_consensus::topk` algorithms against the
//! brute-force [`oracle`](crate::oracle).

use cpdb_andxor::{AndXorTree, AndXorTreeBuilder};

mod footrule;
mod intersection;
mod kendall;
mod median_dp;
mod sym_diff;

/// A tree of independent tuples, one `(key, score, probability)` each.
fn independent_tree(specs: &[(u64, f64, f64)]) -> AndXorTree {
    let mut b = AndXorTreeBuilder::new();
    let mut xors = Vec::new();
    for &(key, score, p) in specs {
        let l = b.leaf_parts(key, score);
        xors.push(b.xor_node(vec![(l, p)]));
    }
    let root = b.and_node(xors);
    b.build(root).unwrap()
}

/// Four independent tuples, the footrule and intersection checks' instance.
fn tree_small() -> AndXorTree {
    independent_tree(&[
        (1, 90.0, 0.3),
        (2, 80.0, 0.9),
        (3, 70.0, 0.6),
        (4, 60.0, 0.7),
    ])
}
