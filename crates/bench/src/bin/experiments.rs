//! Experiment runner: regenerates every figure of the paper and every
//! validation/scaling table (see the README's "Benchmarks" section).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cpdb_bench --bin experiments            # run everything
//! cargo run --release -p cpdb_bench --bin experiments fig1 e4    # run a subset
//! ```
//!
//! Experiment names: `fig1`, `fig2`, `e1` (set distance), `e3` (Jaccard),
//! `e4` (Top-k d_Δ mean), `e5` (Top-k median DP), `e6` (intersection),
//! `e7` (footrule), `e8` (Kendall), `e9` (rank probabilities),
//! `e10` (aggregates), `e11` (clustering), `e12` (baselines),
//! `e13` (generating-function scaling).

use cpdb_bench::experiments;
use cpdb_bench::table::Table;

fn tables_for(name: &str) -> Vec<Table> {
    match name {
        "fig1" => vec![experiments::figure1_table()],
        "fig2" => vec![experiments::figure2_table()],
        "e1" | "e2" => experiments::set_distance_tables(),
        "e3" => experiments::jaccard_tables(),
        "e4" => experiments::topk_sym_diff_tables(),
        "e5" => experiments::topk_median_tables(),
        "e6" => experiments::topk_intersection_tables(),
        "e7" => experiments::topk_footrule_tables(),
        "e8" => vec![experiments::topk_kendall_table()],
        "e9" => vec![experiments::rank_probability_table()],
        "e10" => experiments::aggregate_tables(),
        "e11" => experiments::clustering_tables(),
        "e12" => vec![experiments::baselines_table()],
        "e13" => vec![experiments::genfunc_scaling_table()],
        other => {
            eprintln!("unknown experiment '{other}' (see --help text in the module docs)");
            Vec::new()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("# Consensus answers over probabilistic databases — experiment report");
    println!("# (paper: Li & Deshpande, PODS 2009)");
    let tables = if args.is_empty() {
        experiments::run_all()
    } else {
        args.iter().flat_map(|a| tables_for(a)).collect()
    };
    for table in tables {
        table.print();
    }
}
