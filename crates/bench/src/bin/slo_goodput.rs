sp_bench::figure_main!(slo_goodput);
