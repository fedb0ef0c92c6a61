sp_bench::figure_main!(autotune);
