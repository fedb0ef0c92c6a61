sp_bench::figure_main!(fig13_context);
