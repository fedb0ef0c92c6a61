sp_bench::figure_main!(fig11_cdfs);
