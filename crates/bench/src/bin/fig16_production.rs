sp_bench::figure_main!(fig16_production);
