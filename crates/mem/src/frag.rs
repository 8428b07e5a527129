//! Fragmentation accounting for Figure 16.
//!
//! The paper reports, per KV-cache block shape and overall, the ratio of
//! unused memory to peak allocated memory in the unified CPU cache during
//! serving. [`FragSampler`] takes periodic samples of a
//! [`crate::SlabPool`]'s usage, one per sample period, and aggregates
//! exactly that statistic.

use crate::slab::ShapeUsage;

#[derive(Debug, Clone, Default)]
struct ShapeAgg {
    label: String,
    alloc_sum: f64,
    used_sum: f64,
    peak_alloc: u64,
}

/// Time-averaged fragmentation aggregator over equally spaced samples.
#[derive(Debug, Clone, Default)]
pub struct FragSampler {
    shapes: Vec<ShapeAgg>,
}

/// One row of the Figure 16 report.
#[derive(Debug, Clone)]
pub struct FragRow {
    /// Shape label (`"S0"`, …) or `"All"`.
    pub label: String,
    /// Time-averaged fraction of assigned memory actually used.
    pub utilized: f64,
    /// Time-averaged fraction of assigned memory left unused.
    pub fragmentation: f64,
    /// Peak bytes ever assigned.
    pub peak_alloc_bytes: u64,
}

impl FragSampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        FragSampler::default()
    }

    /// Records a snapshot representing one sample period. Shapes are
    /// matched positionally across samples.
    pub fn sample(&mut self, usage: &[ShapeUsage]) {
        if self.shapes.len() < usage.len() {
            self.shapes.resize_with(usage.len(), ShapeAgg::default);
        }
        for (agg, u) in self.shapes.iter_mut().zip(usage) {
            if agg.label.is_empty() {
                agg.label = u.label.clone();
            }
            // Idle shapes (nothing assigned) do not contribute to the
            // average: fragmentation is only meaningful while memory is held.
            if u.allocated_bytes > 0 {
                agg.alloc_sum += u.allocated_bytes as f64;
                agg.used_sum += u.used_bytes as f64;
            }
            agg.peak_alloc = agg.peak_alloc.max(u.peak_allocated_bytes);
        }
    }

    /// Per-shape rows followed by the `"All"` aggregate.
    pub fn report(&self) -> Vec<FragRow> {
        let mut rows: Vec<FragRow> = self
            .shapes
            .iter()
            .map(|a| {
                let util = if a.alloc_sum > 0.0 {
                    a.used_sum / a.alloc_sum
                } else {
                    1.0
                };
                FragRow {
                    label: a.label.clone(),
                    utilized: util,
                    fragmentation: 1.0 - util,
                    peak_alloc_bytes: a.peak_alloc,
                }
            })
            .collect();
        let alloc: f64 = self.shapes.iter().map(|a| a.alloc_sum).sum();
        let used: f64 = self.shapes.iter().map(|a| a.used_sum).sum();
        let util = if alloc > 0.0 { used / alloc } else { 1.0 };
        rows.push(FragRow {
            label: "All".to_string(),
            utilized: util,
            fragmentation: 1.0 - util,
            peak_alloc_bytes: self.shapes.iter().map(|a| a.peak_alloc).sum(),
        });
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::{SlabPool, SlabPoolConfig};

    #[test]
    fn report_matches_hand_computation() {
        let mut s = FragSampler::new();
        let usage = vec![
            ShapeUsage {
                label: "S0".into(),
                allocated_bytes: 100,
                used_bytes: 80,
                peak_allocated_bytes: 100,
            },
            ShapeUsage {
                label: "S1".into(),
                allocated_bytes: 200,
                used_bytes: 100,
                peak_allocated_bytes: 300,
            },
        ];
        s.sample(&usage);
        s.sample(&usage);
        let rows = s.report();
        assert_eq!(rows.len(), 3);
        assert!((rows[0].fragmentation - 0.2).abs() < 1e-9);
        assert!((rows[1].fragmentation - 0.5).abs() < 1e-9);
        // All: used 180 / alloc 300.
        assert!((rows[2].utilized - 0.6).abs() < 1e-9);
        assert_eq!(rows[2].peak_alloc_bytes, 400);
    }

    #[test]
    fn idle_periods_do_not_dilute() {
        let mut s = FragSampler::new();
        let busy = vec![ShapeUsage {
            label: "S0".into(),
            allocated_bytes: 100,
            used_bytes: 50,
            peak_allocated_bytes: 100,
        }];
        let idle = vec![ShapeUsage {
            label: "S0".into(),
            allocated_bytes: 0,
            used_bytes: 0,
            peak_allocated_bytes: 100,
        }];
        s.sample(&busy);
        s.sample(&idle);
        let rows = s.report();
        assert!((rows[0].fragmentation - 0.5).abs() < 1e-9);
    }

    #[test]
    fn integrates_with_slab_pool() {
        let mut pool = SlabPool::new(SlabPoolConfig {
            capacity_bytes: 64 << 20,
            slab_bytes: 16 << 20,
        });
        let k = pool.register_shape("S0", 4 << 20);
        let blocks = pool.alloc(k, 2).unwrap();
        let mut s = FragSampler::new();
        s.sample(&pool.usage());
        pool.free(k, &blocks);
        s.sample(&pool.usage());
        let rows = s.report();
        // Only the busy second counts: 8 MB used of 16 MB assigned.
        assert!((rows[0].fragmentation - 0.5).abs() < 1e-9);
    }
}
