sp_bench::figure_main!(disagg_compare);
