//! Hardware sensitivity — artifact appendix A.3.2: "Optimal
//! configurations, and hence the results may look different on another
//! type of multi-GPU node, yet the conclusion should be the same."
//!
//! Re-runs the Figure 12 probes on H200+NVSwitch (the paper's node),
//! H100+NVSwitch, A100+NVSwitch, and H200+PCIe, checking that the
//! qualitative orderings survive.

use crate::harness::print_table;
use crate::probes::{min_latency_probe, peak_throughput_probe};
use shift_core::DeploymentKind;
use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
use sp_model::presets;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let model = presets::llama_70b();
    let nodes = [
        ("8xH200 + NVSwitch", NodeSpec::p5en_48xlarge()),
        ("8xH100 + NVSwitch", NodeSpec::new(GpuSpec::h100(), 8, InterconnectSpec::nvswitch())),
        ("8xA100 + NVSwitch", NodeSpec::new(GpuSpec::a100(), 8, InterconnectSpec::nvswitch())),
        ("8xH200 + PCIe", NodeSpec::new(GpuSpec::h200(), 8, InterconnectSpec::pcie_gen5())),
        // Pathological: running the node's parallelism over an inter-node
        // fabric — why the paper deploys within one NVSwitch node.
        (
            "8xH200 + EFA (cross-node)",
            NodeSpec::new(GpuSpec::h200(), 8, InterconnectSpec::efa_internode()),
        ),
    ];

    for (node_name, node) in nodes {
        let [tp, dp, shift] = [
            ("TP", DeploymentKind::TensorParallel),
            ("DP", DeploymentKind::DataParallel),
            ("Shift", DeploymentKind::Shift),
        ]
        .map(|(name, kind)| {
            let lat = min_latency_probe(node, kind, &model, 4096, 250);
            let tput = peak_throughput_probe(node, kind, &model, 4096, 250, 0);
            (name, lat.ttft_ms, lat.tpot_ms, tput)
        });
        let rows: Vec<Vec<String>> = [tp, dp, shift]
            .iter()
            .map(|(name, ttft, tpot, tput)| {
                let cells = [format!("{ttft:.0}"), format!("{tpot:.2}"), format!("{tput:.0}")];
                std::iter::once(name.to_string()).chain(cells).collect()
            })
            .collect();
        print_table(
            out,
            &format!("Sensitivity — {node_name}, Llama-70B 4k/250"),
            &["system", "min TTFT (ms)", "min TPOT (ms)", "peak tok/s"],
            &rows,
        )?;
        // The conclusion that must survive hardware changes:
        let conclusion_holds = shift.1 <= tp.1 * 1.01 // TTFT: Shift <= TP
            && shift.2 <= tp.2 * 1.05 // TPOT: Shift ~ TP
            && shift.3 > tp.3 // throughput: Shift > TP
            && dp.1 > shift.1; // DP responds slowest
        writeln!(
            out,
            "conclusion (Shift dominates TP, DP slowest response): {}",
            if conclusion_holds { "HOLDS" } else { "VIOLATED" }
        )?;
    }
    Ok(())
}
