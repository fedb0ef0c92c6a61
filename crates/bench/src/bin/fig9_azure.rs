sp_bench::figure_main!(fig9_azure);
