//! Model hyper-parameters and derived sizes.

use serde::{Deserialize, Serialize};

use crate::kv::KvShape;

/// Identifies a model within a serving deployment (index into the catalog).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ModelId(pub u32);

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Parameter/KV element data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum DType {
    /// 16-bit floats (FP16/BF16), the paper's default.
    F16,
    /// 8-bit quantized weights.
    Int8,
    /// 32-bit floats.
    F32,
}

impl DType {
    /// Bytes per element.
    pub(crate) const fn bytes(self) -> u64 {
        match self {
            DType::F16 => 2,
            DType::Int8 => 1,
            DType::F32 => 4,
        }
    }
}

/// Architectural description of a transformer LLM.
///
/// Only the fields that affect serving behaviour are kept: weight volume,
/// KV-cache geometry and the dimensions entering the latency model
/// (Appendix A.2, Table 1 of the appendix).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Human-readable name, e.g. `"Qwen-7B"`.
    pub name: String,
    /// Total parameter count.
    pub params: u64,
    /// Number of transformer layers.
    pub layers: u32,
    /// Hidden size `h`.
    pub hidden: u32,
    /// Attention heads.
    pub(crate) heads: u32,
    /// KV heads (< `heads` for GQA/MQA models).
    pub(crate) kv_heads: u32,
    /// Per-head dimension.
    pub(crate) head_dim: u32,
    /// FFN intermediate size `m`.
    pub ffn: u32,
    /// Weight/KV data type.
    pub(crate) dtype: DType,
    /// Tensor-parallel degree this deployment uses.
    pub tp: u32,
}

impl ModelSpec {
    /// Total weight bytes across all TP shards.
    pub fn weight_bytes(&self) -> u64 {
        self.params * self.dtype.bytes()
    }

    /// Weight bytes resident on each GPU (TP shard).
    pub fn weight_bytes_per_gpu(&self) -> u64 {
        self.weight_bytes() / self.tp as u64
    }

    /// The KV-cache shape `(layers, 2, kv_heads, head_dim)` as listed in
    /// Table 1 of the paper (per token, whole model, before TP sharding).
    pub fn kv_shape(&self) -> KvShape {
        KvShape {
            layers: self.layers,
            kv_heads: self.kv_heads,
            head_dim: self.head_dim,
            dtype_bytes: self.dtype.bytes() as u32,
        }
    }

    /// KV-cache bytes per token (whole model).
    pub fn kv_bytes_per_token(&self) -> u64 {
        self.kv_shape().bytes_per_token()
    }

    /// KV-cache bytes per token per GPU under TP sharding.
    pub fn kv_bytes_per_token_per_gpu(&self) -> u64 {
        self.kv_bytes_per_token() / self.tp as u64
    }

    /// Returns a copy with a different TP degree.
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero.
    pub fn with_tp(&self, tp: u32) -> ModelSpec {
        assert!(tp > 0, "TP degree must be positive");
        ModelSpec {
            tp,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qwen7b() -> ModelSpec {
        ModelSpec {
            name: "Qwen-7B".into(),
            params: 7_720_000_000,
            layers: 32,
            hidden: 4096,
            heads: 32,
            kv_heads: 32,
            head_dim: 128,
            ffn: 11008,
            dtype: DType::F16,
            tp: 1,
        }
    }

    #[test]
    fn weight_bytes_are_params_times_dtype() {
        let m = qwen7b();
        assert_eq!(m.weight_bytes(), 7_720_000_000 * 2);
        assert_eq!(m.with_tp(2).weight_bytes_per_gpu(), 7_720_000_000);
    }

    #[test]
    fn kv_bytes_match_table1_for_qwen7b() {
        // Table 1: Qwen-7B shape (32, 2, 32, 128), 512 KB per token.
        let m = qwen7b();
        assert_eq!(m.kv_bytes_per_token(), 512 * 1024);
    }

    #[test]
    #[should_panic(expected = "TP degree")]
    fn zero_tp_panics() {
        let _ = qwen7b().with_tp(0);
    }

    #[test]
    fn tensor_parallelism_splits_kv_and_weights_per_gpu() {
        let m = qwen7b();
        assert_eq!(m.kv_bytes_per_token_per_gpu(), 512 * 1024);
        let tp4 = m.with_tp(4);
        assert_eq!(tp4.kv_bytes_per_token_per_gpu(), 128 * 1024);
        assert_eq!(tp4.kv_bytes_per_token(), m.kv_bytes_per_token());
        assert_eq!(tp4.weight_bytes_per_gpu() * 4, m.weight_bytes());
    }
}
