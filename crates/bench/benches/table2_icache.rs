//! Bench for Table 2, instruction-cache half: the same pipeline as the
//! data-cache bench but over the synthesized instruction-fetch streams.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use experiments::{evaluate_trace, ExperimentConfig};
use std::hint::black_box;
use xorindex::FunctionClass;
use xorindex_bench::{prepare_instructions, PreparedWorkload};

/// One verified 2-in cell: profile, search on one engine thread, and the
/// baseline and winner replays.
fn run_cell(prepared: &PreparedWorkload) -> experiments::CellResult {
    let config = ExperimentConfig::paper();
    let classes = [FunctionClass::permutation_based(2)];
    let (cache, ops) = (prepared.cache, prepared.ops);
    evaluate_trace(&config, cache, &prepared.blocks, ops, &classes).remove(0)
}

fn bench_table2_icache(c: &mut Criterion) {
    let workloads = ["jpeg dec", "dijkstra"];
    let mut group = c.benchmark_group("table2_icache_4kb");
    group.sample_size(10);
    for name in workloads {
        let prepared = prepare_instructions(name, 4);
        let cell = run_cell(&prepared);
        println!(
            "table2-instr {name:>10} @4KB: base {:>7.1} misses/K-uop | removed 2-in {:>5.1}%",
            cell.baseline_mpko(),
            cell.percent_removed()
        );
        group.bench_with_input(
            BenchmarkId::new("verified_cell", name),
            &prepared,
            |b, prepared| b.iter(|| black_box(run_cell(prepared))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_table2_icache
}
criterion_main!(benches);
