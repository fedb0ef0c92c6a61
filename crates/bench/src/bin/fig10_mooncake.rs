sp_bench::figure_main!(fig10_mooncake);
