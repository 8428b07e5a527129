//! KV-cache geometry.
//!
//! The per-token KV cache of a transformer has shape
//! `(layers, 2, kv_heads, head_dim)` — the "2" covering keys and values —
//! and its byte size varies more than 20× across market models (Table 1).
//! The §5.2 unified KV cache keys its slab pools by this shape, so the shape
//! is a first-class, hashable type here.

use serde::{Deserialize, Serialize};

/// The per-token KV-cache shape of a model (whole model, before TP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KvShape {
    /// Transformer layers.
    pub(crate) layers: u32,
    /// KV heads.
    pub(crate) kv_heads: u32,
    /// Per-head dimension.
    pub(crate) head_dim: u32,
    /// Bytes per element (2 for FP16).
    pub(crate) dtype_bytes: u32,
}

impl KvShape {
    /// Bytes of KV cache per token: `layers · 2 · kv_heads · head_dim · dtype`.
    pub(crate) fn bytes_per_token(&self) -> u64 {
        self.layers as u64 * 2 * self.kv_heads as u64 * self.head_dim as u64 * self.dtype_bytes as u64
    }

    /// Tuple rendering `(layers, 2, kv_heads, head_dim)` as printed in Table 1.
    pub fn as_tuple(&self) -> (u32, u32, u32, u32) {
        (self.layers, 2, self.kv_heads, self.head_dim)
    }
}

impl std::fmt::Display for KvShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, 2, {}, {})", self.layers, self.kv_heads, self.head_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sizes() {
        // The four rows of Table 1 of the paper, 16-bit precision.
        let rows = [
            // (shape, expected KB per token)
            (KvShape { layers: 32, kv_heads: 32, head_dim: 128, dtype_bytes: 2 }, 512),
            (KvShape { layers: 32, kv_heads: 8, head_dim: 128, dtype_bytes: 2 }, 128),
            (KvShape { layers: 40, kv_heads: 40, head_dim: 128, dtype_bytes: 2 }, 800),
            (KvShape { layers: 80, kv_heads: 64, head_dim: 128, dtype_bytes: 2 }, 2560),
        ];
        for (shape, kb) in rows {
            assert_eq!(shape.bytes_per_token(), kb * 1024, "shape {shape}");
        }
    }

    #[test]
    fn display_matches_table_format() {
        let s = KvShape {
            layers: 32,
            kv_heads: 8,
            head_dim: 128,
            dtype_bytes: 2,
        };
        assert_eq!(s.to_string(), "(32, 2, 8, 128)");
        assert_eq!(s.as_tuple(), (32, 2, 8, 128));
    }
}
