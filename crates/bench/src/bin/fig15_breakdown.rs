sp_bench::figure_main!(fig15_breakdown);
