sp_bench::figure_main!(fig12_tradeoff);
