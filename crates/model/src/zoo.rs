//! A catalog of market models with published hyper-parameters.
//!
//! Entries cover the families the paper evaluates (§7.1: Qwen, Llama,
//! InternLM, Yi), with the exact dimensions needed to reproduce Table 1. The
//! multi-model experiments instantiate tens of *distinct* serving targets by
//! replicating catalog architectures under unique names (mirroring the
//! market reality of many fine-tunes sharing a base architecture).

use crate::spec::{DType, ModelSpec};

/// A named catalog entry.
#[derive(Debug, Clone)]
pub struct ZooEntry {
    /// The architecture.
    pub spec: ModelSpec,
}

/// The model catalog.
#[derive(Debug, Clone)]
pub struct Zoo {
    entries: Vec<ZooEntry>,
}

fn m(
    name: &str,
    params_b: f64,
    layers: u32,
    hidden: u32,
    heads: u32,
    kv_heads: u32,
    ffn: u32,
) -> ZooEntry {
    ZooEntry {
        spec: ModelSpec {
            name: name.to_string(),
            params: (params_b * 1e9) as u64,
            layers,
            hidden,
            heads,
            kv_heads,
            head_dim: 128,
            ffn,
            dtype: DType::F16,
            tp: 1,
        },
    }
}

impl Zoo {
    /// The standard catalog used throughout the evaluation.
    pub fn standard() -> Zoo {
        Zoo {
            entries: vec![
                m("Qwen-1.8B", 1.84, 24, 2048, 16, 16, 5504),
                m("Yi-6B", 6.06, 32, 4096, 32, 4, 11008),
                m("Llama-2-7B", 6.74, 32, 4096, 32, 32, 11008),
                m("Qwen-7B", 7.72, 32, 4096, 32, 32, 11008),
                m("InternLM2.5-7B", 7.74, 32, 4096, 32, 8, 14336),
                m("Yi-9B", 8.83, 48, 4096, 32, 4, 11008),
                m("LLaMA-13B", 13.02, 40, 5120, 40, 40, 13824),
                m("Qwen-14B", 14.17, 40, 5120, 40, 40, 13696),
                m("Yi-34B", 34.39, 60, 7168, 56, 8, 20480),
                m("Qwen-72B", 72.71, 80, 8192, 64, 64, 24576),
            ],
        }
    }

    /// All entries.
    pub fn entries(&self) -> &[ZooEntry] {
        &self.entries
    }

    /// Looks an architecture up by name.
    pub fn get(&self, name: &str) -> Option<&ModelSpec> {
        self.entries
            .iter()
            .find(|e| e.spec.name == name)
            .map(|e| &e.spec)
    }

    /// The "majority of models on the market" band the paper focuses on
    /// (§7.1: 6B–14B parameters).
    pub fn market_band(&self) -> Vec<&ModelSpec> {
        self.entries
            .iter()
            .map(|e| &e.spec)
            .filter(|s| (6e9..15e9).contains(&(s.params as f64)))
            .collect()
    }

    /// Builds `n` distinct serving targets by cycling through the given base
    /// architectures, renaming each instance uniquely (`"Qwen-7B/v3"`).
    ///
    /// # Panics
    ///
    /// Panics if `bases` is empty.
    pub fn replicate(bases: &[&ModelSpec], n: usize) -> Vec<ModelSpec> {
        assert!(!bases.is_empty(), "need at least one base architecture");
        (0..n)
            .map(|i| {
                let base = bases[i % bases.len()];
                let mut s = base.clone();
                s.name = format!("{}/v{}", base.name, i / bases.len());
                s
            })
            .collect()
    }

    /// The table-1 subset, in paper order, for the Table 1 regeneration.
    pub fn table1(&self) -> Vec<&ModelSpec> {
        ["Qwen-7B", "InternLM2.5-7B", "LLaMA-13B", "Qwen-72B"]
            .iter()
            .map(|n| self.get(n).expect("table-1 model missing from zoo"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rough parameter count implied by the dimensions (embedding excluded).
    fn params_from_dims(s: &ModelSpec) -> u64 {
        let h = s.hidden as u64;
        let m = s.ffn as u64;
        let kvh = s.kv_heads as u64;
        let hd = s.head_dim as u64;
        let heads = s.heads as u64;
        // Attention: Q and O are h×(heads·hd); K and V are h×(kvh·hd).
        let attn = 2 * h * heads * hd + 2 * h * kvh * hd;
        // Gated FFN (LLaMA-style): three h×m matrices.
        let ffn = 3 * h * m;
        s.layers as u64 * (attn + ffn)
    }

    #[test]
    fn table1_rows_reproduce_exactly() {
        // (model name, KV shape tuple, KiB per token) — Table 1 rows.
        type Row = (&'static str, (u32, u32, u32, u32), u64);
        let zoo = Zoo::standard();
        let expected: [Row; 4] = [
            ("Qwen-7B", (32, 2, 32, 128), 512),
            ("InternLM2.5-7B", (32, 2, 8, 128), 128),
            ("LLaMA-13B", (40, 2, 40, 128), 800),
            ("Qwen-72B", (80, 2, 64, 128), 2560),
        ];
        for (name, shape, kb) in expected {
            let s = zoo.get(name).unwrap();
            assert_eq!(s.kv_shape().as_tuple(), shape, "{name}");
            assert_eq!(s.kv_bytes_per_token(), kb * 1024, "{name}");
        }
    }

    #[test]
    fn market_band_is_6_to_14b() {
        let zoo = Zoo::standard();
        let band = zoo.market_band();
        assert!(band.len() >= 5);
        for s in band {
            assert!(s.params >= 6_000_000_000 && s.params < 15_000_000_000, "{}", s.name);
        }
    }

    #[test]
    fn replicate_gives_unique_names_and_same_arch() {
        let zoo = Zoo::standard();
        let band = zoo.market_band();
        let many = Zoo::replicate(&band, 40);
        assert_eq!(many.len(), 40);
        let mut names: Vec<&str> = many.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 40, "names must be unique");
        assert_eq!(many[0].layers, band[0].layers);
    }

    #[test]
    fn params_roughly_match_dimensions() {
        for e in Zoo::standard().entries() {
            let est = params_from_dims(&e.spec) as f64;
            let ratio = est / e.spec.params as f64;
            assert!(
                (0.45..1.25).contains(&ratio),
                "{}: dims imply {est:.2e}, catalog says {:.2e}",
                e.spec.name,
                e.spec.params as f64
            );
        }
    }

    #[test]
    fn weights_average_matches_paper_order_of_magnitude() {
        // §2.3: "model parameters in our workloads average 25.1 GB". Our zoo
        // spans 3.7–145 GB; the 6–14B band the e2e experiments use averages
        // 12–28 GB, same order.
        let zoo = Zoo::standard();
        for s in zoo.market_band() {
            let gb = s.weight_bytes() as f64 / 1e9;
            assert!((12.0..29.0).contains(&gb), "{}: {gb} GB", s.name);
        }
    }
}
