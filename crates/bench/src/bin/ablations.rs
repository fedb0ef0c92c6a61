sp_bench::figure_main!(ablations);
