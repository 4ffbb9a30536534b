//! A small "data warehouse" scenario for view-based rewriting (Corollary 3).
//!
//! A warehouse stores a product table `S` (product ids) and a recall list `F`.
//! Two flat views are published: `V1` (recalled products) and `V2` (products
//! not recalled).  Analysts only see the views; the rewriting synthesized from
//! the determinacy proof answers the "all products" query directly from them.
//! A second, optional part of the example runs the classical lossless-join
//! decomposition (key-based) through the same pipeline; its proof goals take
//! noticeably longer, so it is gated behind an argument.
//!
//! Run with `cargo run --release --example warehouse_nesting [join]`.

use nested_synth::synthesis::views::{
    lossless_join_instance, lossless_join_problem, partition_instance, partition_problem,
};
use nested_synth::synthesis::SynthesisConfig;
use nested_synth::value::Name;
use std::time::Instant;

fn main() {
    // Part 1: the partitioned-views problem.
    let problem = partition_problem();
    println!("views:");
    for v in &problem.views {
        println!("  {} = {:?}", v.name, v.def);
    }
    println!("query: {} = base set S\n", problem.queries[0].name);

    let cfg = SynthesisConfig {
        check_determinacy: true,
        ..Default::default()
    };
    let t0 = Instant::now();
    let rewriting = problem
        .derive_workload(&cfg)
        .expect("views determine the query");
    let definition = &rewriting.queries()[0].1;
    println!(
        "synthesized rewriting over the views (in {:?}):\n  {}\n",
        t0.elapsed(),
        definition.expr()
    );

    for (rows, seed) in [(10usize, 1u64), (100, 2), (500, 3)] {
        let base = partition_instance(rows, seed);
        let views = problem.materialize_views(&base).unwrap();
        let t_views = Instant::now();
        let from_views = definition.evaluate(&views).unwrap();
        let views_time = t_views.elapsed();
        let ok = rewriting.verify_on_base(&base).unwrap();
        println!(
            "|S| ≈ {rows}: answered from views in {views_time:?}, {} tuples, matches direct evaluation: {ok}",
            from_views.as_set().map(|s| s.len()).unwrap_or(0),
        );
        assert!(ok);
    }

    // Part 2 (optional, slower): the lossless key-join decomposition.
    if std::env::args().any(|a| a == "join") {
        println!("\nlossless key-join decomposition (this runs several longer proof searches)…");
        let join = lossless_join_problem();
        let cfg = SynthesisConfig::default();
        let t0 = Instant::now();
        match join.derive_workload(&cfg) {
            Ok(result) => {
                println!(
                    "rewriting found in {:?}:\n  {}",
                    t0.elapsed(),
                    result.queries()[0].1.expr()
                );
                let base = lossless_join_instance(4, 9);
                println!(
                    "verified on a 4-row instance: {}",
                    result.verify_on_base(&base).unwrap()
                );
                let _ = base.get(&Name::new("R"));
            }
            Err(e) => println!("not derived within the default budgets: {e}"),
        }
    } else {
        println!("\n(pass `join` as an argument to also run the lossless key-join decomposition)");
    }
}
