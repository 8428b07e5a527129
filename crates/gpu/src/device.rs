//! GPU device specifications.
//!
//! The numbers below are public datasheet values; the `mfu` / `membw_eff`
//! efficiency factors are the fractions of peak that serving kernels
//! realistically achieve and are the main calibration knobs of the
//! reproduction (absolute latencies scale with them; the comparative shapes
//! in the evaluation do not).

/// Capacity and throughput of one GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"H800"`.
    pub name: String,
    /// VRAM capacity in bytes.
    pub vram_bytes: u64,
    /// Peak dense FP16 tensor throughput, FLOP/s.
    pub(crate) fp16_flops: f64,
    /// Peak HBM bandwidth, bytes/s.
    pub(crate) hbm_bw: f64,
    /// Fraction of peak FLOP/s achieved by prefill-style GEMMs.
    pub(crate) mfu: f64,
    /// Fraction of peak HBM bandwidth achieved by decode-style kernels.
    pub(crate) membw_eff: f64,
    /// PCIe host link bandwidth per direction, bytes/s.
    pub pcie_bw: f64,
    /// NVLink bandwidth to peers within the node, bytes/s (0 if absent).
    pub(crate) nvlink_bw: f64,
}

impl GpuSpec {
    /// NVIDIA H800 80 GB (the paper's main testbed, §7.1).
    pub fn h800() -> GpuSpec {
        GpuSpec {
            name: "H800".into(),
            vram_bytes: 80 << 30,
            fp16_flops: 989e12,
            hbm_bw: 3.35e12,
            mfu: 0.40,
            membw_eff: 0.65,
            // The paper quotes PCIe 4.0 numbers (32 GB/s) for loading.
            pcie_bw: 32e9,
            nvlink_bw: 200e9,
        }
    }

    /// NVIDIA H20 96 GB (the production deployment, §7.5).
    pub fn h20() -> GpuSpec {
        GpuSpec {
            name: "H20".into(),
            vram_bytes: 96 << 30,
            fp16_flops: 148e12,
            hbm_bw: 4.0e12,
            mfu: 0.40,
            membw_eff: 0.65,
            pcie_bw: 32e9,
            nvlink_bw: 450e9,
        }
    }

    /// NVIDIA A10 24 GB (the lower-end sensitivity study, §7.4).
    pub fn a10() -> GpuSpec {
        GpuSpec {
            name: "A10".into(),
            vram_bytes: 24 << 30,
            fp16_flops: 125e12,
            hbm_bw: 600e9,
            mfu: 0.35,
            membw_eff: 0.60,
            pcie_bw: 32e9,
            nvlink_bw: 0.0,
        }
    }

    /// NVIDIA A100 80 GB (used in the paper's §2.3 memory-capacity example).
    pub fn a100() -> GpuSpec {
        GpuSpec {
            name: "A100".into(),
            vram_bytes: 80 << 30,
            fp16_flops: 312e12,
            hbm_bw: 2.0e12,
            mfu: 0.40,
            membw_eff: 0.65,
            pcie_bw: 32e9,
            nvlink_bw: 300e9,
        }
    }

    /// Effective FLOP/s for compute-bound (prefill) work.
    pub fn effective_flops(&self) -> f64 {
        self.fp16_flops * self.mfu
    }

    /// Effective bytes/s for bandwidth-bound (decode) work.
    pub fn effective_hbm_bw(&self) -> f64 {
        self.hbm_bw * self.membw_eff
    }

    /// On-device copy bandwidth (device-to-device within one GPU), bytes/s.
    /// Reads and writes both traverse HBM, so roughly half the bandwidth.
    pub fn device_copy_bw(&self) -> f64 {
        self.hbm_bw / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_internally_consistent() {
        for g in [GpuSpec::h800(), GpuSpec::h20(), GpuSpec::a10(), GpuSpec::a100()] {
            assert!(g.vram_bytes >= 24 << 30, "{}", g.name);
            assert!(g.effective_flops() > 0.0 && g.effective_flops() < g.fp16_flops);
            assert!(g.effective_hbm_bw() > 0.0 && g.effective_hbm_bw() < g.hbm_bw);
            assert!(g.pcie_bw > 0.0);
        }
    }

    #[test]
    fn paper_memory_example_holds() {
        // §2.3: "at most two 14B models with FP16 weights fit on an A100
        // 80GB". Engines leave ~10% of VRAM for activations and tensor-lib
        // scratch (§5.2), so compare against the usable fraction.
        let a100 = GpuSpec::a100();
        let usable = (a100.vram_bytes as f64 * 0.9) as u64;
        let weights_14b = 14_000_000_000u64 * 2;
        assert!(2 * weights_14b < usable);
        assert!(3 * weights_14b > usable);
    }

    #[test]
    fn h800_pcie_matches_paper_quote() {
        // §4.2: "scaling up a 13B model via PCIe 4.0 takes at least
        // 26GB/32GBps = 0.8125 seconds".
        let g = GpuSpec::h800();
        let t = 26e9 / g.pcie_bw;
        assert!((t - 0.8125).abs() < 1e-3);
    }
}
