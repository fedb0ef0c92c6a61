sp_bench::figure_main!(timeline);
