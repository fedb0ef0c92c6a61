sp_bench::figure_main!(sensitivity_hw);
