sp_bench::figure_main!(prefix_caching);
