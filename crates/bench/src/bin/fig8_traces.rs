sp_bench::figure_main!(fig8_traces);
