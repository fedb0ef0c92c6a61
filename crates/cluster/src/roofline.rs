//! Roofline kernel timing: `max(compute time, memory time)`.

use crate::gpu::GpuSpec;
use sp_metrics::Dur;

/// Times a kernel on one GPU with the roofline model.
///
/// A transformer forward pass is a mix of compute-bound GEMMs (prefill) and
/// memory-bound weight/KV streaming (decode). The roofline captures both
/// regimes and, crucially, the *transition* between them as batch size grows
/// — which is exactly what makes TP good at small batches (weight reads are
/// split P ways) and SP good at large batches (no all-reduce).
///
/// # Examples
///
/// ```
/// use sp_cluster::{GpuSpec, Roofline};
///
/// let r = Roofline::new(GpuSpec::h200());
/// // 1 GFLOP touching 1 KB is compute bound:
/// let t = r.kernel(1e9, 1024);
/// assert_eq!(t, r.compute(1e9).max(r.memory(1024)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    gpu: GpuSpec,
}

impl Roofline {
    /// Creates a roofline over `gpu`.
    pub fn new(gpu: GpuSpec) -> Roofline {
        Roofline { gpu }
    }

    /// The underlying GPU spec.
    pub fn gpu(&self) -> GpuSpec {
        self.gpu
    }

    /// Pure compute time for `flops` floating-point operations.
    #[inline]
    pub fn compute(&self, flops: f64) -> Dur {
        debug_assert!(flops >= 0.0);
        Dur::from_secs(flops / self.gpu.effective_flops())
    }

    /// Pure memory time for streaming `bytes` through HBM.
    #[inline]
    pub fn memory(&self, bytes: u64) -> Dur {
        Dur::from_secs(bytes as f64 / self.gpu.effective_mem_bw())
    }

    /// Roofline time for a kernel doing `flops` work over `bytes` of unique
    /// HBM traffic: whichever resource binds.
    #[inline]
    pub fn kernel(&self, flops: f64, bytes: u64) -> Dur {
        self.compute(flops).max(self.memory(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roofline() -> Roofline {
        Roofline::new(GpuSpec::h200())
    }

    /// The arithmetic intensity (FLOP/byte) at which the H200 turns from
    /// memory- to compute-bound.
    fn ridge() -> f64 {
        let gpu = GpuSpec::h200();
        gpu.effective_flops() / gpu.effective_mem_bw()
    }

    #[test]
    fn compute_bound_kernel_ignores_memory() {
        let r = roofline();
        let t = r.kernel(1e15, 1);
        assert_eq!(t, r.compute(1e15));
    }

    #[test]
    fn memory_bound_kernel_ignores_compute() {
        let r = roofline();
        let t = r.kernel(1.0, 100 << 30);
        assert_eq!(t, r.memory(100 << 30));
    }

    #[test]
    fn ridge_point_separates_regimes() {
        let r = roofline();
        let ridge = ridge();
        let bytes = 1u64 << 20;
        // Just below ridge intensity: memory bound.
        let low = r.kernel(0.5 * ridge * bytes as f64, bytes);
        assert_eq!(low, r.memory(bytes));
        // Just above: compute bound.
        let high_flops = 2.0 * ridge * bytes as f64;
        let high = r.kernel(high_flops, bytes);
        assert_eq!(high, r.compute(high_flops));
    }

    #[test]
    fn h200_ridge_is_hundreds_of_flops_per_byte() {
        // 1088 TFLOPS effective / 3.6 TB/s effective ≈ 302 FLOP/byte.
        let ridge = ridge();
        assert!((250.0..400.0).contains(&ridge), "ridge {ridge}");
    }

    proptest! {
        #[test]
        fn kernel_at_least_each_component(
            flops in 0.0f64..1e18,
            bytes in 0u64..1u64 << 40,
        ) {
            let r = roofline();
            let t = r.kernel(flops, bytes);
            prop_assert!(t >= r.compute(flops));
            prop_assert!(t >= r.memory(bytes));
        }

        #[test]
        fn kernel_monotone(
            f1 in 0.0f64..1e18, f2 in 0.0f64..1e18,
            b1 in 0u64..1u64 << 40, b2 in 0u64..1u64 << 40,
        ) {
            let r = roofline();
            let (flo, fhi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            let (blo, bhi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
            prop_assert!(r.kernel(flo, blo) <= r.kernel(fhi, bhi));
        }
    }
}
