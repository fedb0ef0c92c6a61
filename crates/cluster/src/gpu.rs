//! Per-GPU compute and memory capabilities.

/// Static capabilities of one GPU.
///
/// All calibration constants for the reproduction live here and in
/// [`crate::interconnect::InterconnectSpec`]; everything else in the
/// simulator derives from model architecture specs.
///
/// # Examples
///
/// ```
/// use sp_cluster::GpuSpec;
///
/// let h200 = GpuSpec::h200();
/// assert_eq!(h200.mem_bytes, 141 * (1u64 << 30));
/// assert!(h200.effective_flops() < h200.dense_flops);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// HBM capacity in bytes.
    pub mem_bytes: u64,
    /// HBM bandwidth in bytes/second.
    pub mem_bw: f64,
    /// Peak dense matmul throughput in FLOP/s at the serving precision
    /// (FP8 with tensor cores for the paper's setup).
    pub dense_flops: f64,
    /// Model FLOPs utilization actually achieved by large GEMMs (0..=1).
    pub mfu: f64,
    /// Fraction of peak HBM bandwidth achieved by memory-bound kernels
    /// (weight streaming, KV-cache reads) (0..=1).
    pub mem_efficiency: f64,
}

impl GpuSpec {
    /// NVIDIA H200 (SXM, FP8): the paper's evaluation GPU.
    ///
    /// 141 GB HBM3e, 4.8 TB/s, 1979 dense FP8 TFLOPS. MFU and bandwidth
    /// efficiency are calibrated so that single-GPU prefill/decode times of
    /// Llama-70B-FP8 land in the ranges Figure 12 reports.
    pub fn h200() -> GpuSpec {
        GpuSpec {
            mem_bytes: 141 * (1u64 << 30),
            mem_bw: 4.8e12,
            dense_flops: 1979e12,
            mfu: 0.55,
            mem_efficiency: 0.75,
        }
    }

    /// NVIDIA H100 (SXM, FP8), for sensitivity studies: 80 GB, 3.35 TB/s,
    /// 1979 FP8 TFLOPS.
    pub fn h100() -> GpuSpec {
        GpuSpec { mem_bytes: 80 * (1u64 << 30), mem_bw: 3.35e12, ..GpuSpec::h200() }
    }

    /// NVIDIA A100 (SXM, FP16 — no FP8 support): 80 GB, 2.0 TB/s,
    /// 312 dense FP16 TFLOPS.
    pub fn a100() -> GpuSpec {
        GpuSpec {
            mem_bytes: 80 * (1u64 << 30),
            mem_bw: 2.0e12,
            dense_flops: 312e12,
            mfu: 0.5,
            mem_efficiency: 0.75,
        }
    }

    /// Sustainable dense-GEMM throughput: `dense_flops * mfu`.
    #[inline]
    pub fn effective_flops(&self) -> f64 {
        self.dense_flops * self.mfu
    }

    /// Sustainable HBM bandwidth: `mem_bw * mem_efficiency`.
    #[inline]
    pub fn effective_mem_bw(&self) -> f64 {
        self.mem_bw * self.mem_efficiency
    }

    /// Validates the spec's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint (non-positive
    /// capability or efficiency outside `(0, 1]`).
    pub fn validate(&self) -> Result<(), String> {
        if self.mem_bytes == 0 {
            return Err("GPU memory capacity must be positive".into());
        }
        if self.mem_bw <= 0.0 || self.mem_bw.is_nan() {
            return Err("GPU memory bandwidth must be positive".into());
        }
        if self.dense_flops <= 0.0 || self.dense_flops.is_nan() {
            return Err("GPU compute throughput must be positive".into());
        }
        if !(self.mfu > 0.0 && self.mfu <= 1.0) {
            return Err(format!("MFU must be in (0, 1], got {}", self.mfu));
        }
        if !(self.mem_efficiency > 0.0 && self.mem_efficiency <= 1.0) {
            return Err(format!(
                "memory efficiency must be in (0, 1], got {}",
                self.mem_efficiency
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for spec in [GpuSpec::h200(), GpuSpec::h100(), GpuSpec::a100()] {
            spec.validate().unwrap();
        }
    }

    #[test]
    fn h200_matches_paper_numbers() {
        let g = GpuSpec::h200();
        assert_eq!(g.mem_bytes, 151_397_597_184); // 141 GiB
        assert_eq!(g.mem_bw, 4.8e12);
        assert_eq!(g.dense_flops, 1979e12);
    }

    #[test]
    fn effective_rates_apply_efficiency() {
        let g = GpuSpec::h200();
        assert!((g.effective_flops() - 1979e12 * 0.55).abs() < 1.0);
        assert!((g.effective_mem_bw() - 4.8e12 * 0.75).abs() < 1.0);
    }

    #[test]
    fn validate_rejects_bad_mfu() {
        let mut g = GpuSpec::h200();
        g.mfu = 1.5;
        assert!(g.validate().is_err());
        g.mfu = 0.0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_memory() {
        let mut g = GpuSpec::h200();
        g.mem_bytes = 0;
        assert!(g.validate().unwrap_err().contains("capacity"));
    }
}
