//! Bench for Table 2, data-cache half: the full per-benchmark pipeline
//! (profile → search three permutation-based classes → simulate) for
//! representative MediaBench/MiBench workloads on the 4 KB cache.
//!
//! The printed cells record the reproduced numbers; the measured time is the
//! cost of regenerating one row cell.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use experiments::table2::table2_classes;
use experiments::{evaluate_trace, CellResult, ExperimentConfig};
use std::hint::black_box;
use xorindex::FunctionClass;
use xorindex_bench::{prepare_data, PreparedWorkload};

fn run_cell(prepared: &PreparedWorkload, classes: &[FunctionClass]) -> Vec<CellResult> {
    let config = ExperimentConfig::paper();
    let (cache, ops) = (prepared.cache, prepared.ops);
    evaluate_trace(&config, cache, &prepared.blocks, ops, classes)
}

fn bench_table2_dcache(c: &mut Criterion) {
    let workloads = ["fft", "susan", "adpcm enc"];
    let mut group = c.benchmark_group("table2_dcache_4kb");
    group.sample_size(10);
    for name in workloads {
        let prepared = prepare_data(name, 4);
        let cells = run_cell(&prepared, &table2_classes());
        println!(
            "table2-data {name:>10} @4KB: base {:>7.1} misses/K-uop | removed 2-in {:>5.1}% 4-in {:>5.1}% 16-in {:>5.1}%",
            cells[0].baseline_mpko(),
            cells[0].percent_removed(),
            cells[1].percent_removed(),
            cells[2].percent_removed()
        );
        // Measuring all three classes per iteration would make each sample
        // several seconds long; the measured unit is one verified 2-input
        // cell (profile, search on one engine thread, baseline and winner
        // replays), the printed line above records the full row cell.
        group.bench_with_input(
            BenchmarkId::new("verified_cell_2in", name),
            &prepared,
            |b, prepared| b.iter(|| black_box(run_cell(prepared, &table2_classes()[..1]))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_table2_dcache
}
criterion_main!(benches);
