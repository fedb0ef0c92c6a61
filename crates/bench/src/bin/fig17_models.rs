sp_bench::figure_main!(fig17_models);
