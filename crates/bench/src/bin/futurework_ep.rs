sp_bench::figure_main!(futurework_ep);
