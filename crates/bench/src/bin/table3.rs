sp_bench::figure_main!(table3);
