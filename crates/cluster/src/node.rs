//! A multi-GPU node: GPUs plus interconnect.

use crate::gpu::GpuSpec;
use crate::interconnect::InterconnectSpec;

/// A node of `gpu_count` identical GPUs joined by one interconnect.
///
/// # Examples
///
/// ```
/// use sp_cluster::NodeSpec;
///
/// let node = NodeSpec::p5en_48xlarge();
/// assert_eq!(node.gpu_count, 8);
/// assert!(node.total_mem_bytes() > 1_000_000_000_000); // > 1 TB HBM
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Per-GPU capabilities.
    pub gpu: GpuSpec,
    /// Number of GPUs on the node.
    pub gpu_count: usize,
    /// The intra-node interconnect.
    pub interconnect: InterconnectSpec,
}

impl NodeSpec {
    /// The paper's evaluation node: AWS p5en.48xlarge = 8×H200 + NVSwitch.
    pub fn p5en_48xlarge() -> NodeSpec {
        NodeSpec { gpu: GpuSpec::h200(), gpu_count: 8, interconnect: InterconnectSpec::nvswitch() }
    }

    /// A custom node.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count` is zero or either spec fails validation.
    pub fn new(gpu: GpuSpec, gpu_count: usize, interconnect: InterconnectSpec) -> NodeSpec {
        assert!(gpu_count > 0, "node must have at least one GPU");
        gpu.validate().expect("invalid GPU spec");
        interconnect.validate().expect("invalid interconnect spec");
        NodeSpec { gpu, gpu_count, interconnect }
    }

    /// Total HBM across all GPUs.
    pub fn total_mem_bytes(&self) -> u64 {
        self.gpu.mem_bytes * self.gpu_count as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_node_has_eight_h200s() {
        let n = NodeSpec::p5en_48xlarge();
        assert_eq!(n.gpu_count, 8);
        assert_eq!(n.total_mem_bytes(), 8 * 141 * (1u64 << 30));
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_rejected() {
        let _ = NodeSpec::new(GpuSpec::h200(), 0, InterconnectSpec::nvswitch());
    }
}
