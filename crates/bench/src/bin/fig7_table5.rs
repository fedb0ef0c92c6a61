sp_bench::figure_main!(fig7_table5);
