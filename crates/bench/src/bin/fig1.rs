sp_bench::figure_main!(fig1);
