sp_bench::figure_main!(fig14_arrival);
