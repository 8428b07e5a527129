//! Request latency breakdown (Figure 14).
//!
//! Each request's lifetime is decomposed into prefill waiting, prefill
//! execution, decoding waiting, decoding execution, plus the two overhead
//! terms introduced by KV-cache management: control overhead (index
//! tracking, event manipulation) and data overhead (explicit waiting for KV
//! transfers). The figure reports the share of total time spent in each.

/// A lifetime stage of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Queued before prefill.
    PrefillWait,
    /// Executing prefill.
    PrefillExec,
    /// Waiting in a decode work list.
    DecodeWait,
    /// Executing decode steps.
    DecodeExec,
    /// KV-cache control-plane work (indices, events).
    ControlOverhead,
    /// Blocking waits on KV-cache data transfers.
    DataOverhead,
}

impl Stage {
    /// All stages in reporting order.
    pub const ALL: [Stage; 6] = [
        Stage::PrefillWait,
        Stage::PrefillExec,
        Stage::DecodeWait,
        Stage::DecodeExec,
        Stage::ControlOverhead,
        Stage::DataOverhead,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::PrefillWait => "Prefill Waiting",
            Stage::PrefillExec => "Prefill Execution",
            Stage::DecodeWait => "Decoding Waiting",
            Stage::DecodeExec => "Decoding Execution",
            Stage::ControlOverhead => "Control Overhead",
            Stage::DataOverhead => "Data Overhead",
        }
    }

    fn index(&self) -> usize {
        Stage::ALL.iter().position(|s| s == self).expect("stage in ALL")
    }
}

/// Accumulates stage durations across all requests of a run.
#[derive(Debug, Clone, Default)]
pub struct BreakdownAcc {
    totals: [f64; 6],
}

impl BreakdownAcc {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds seconds to a stage.
    pub fn add_secs(&mut self, stage: Stage, secs: f64) {
        debug_assert!(secs >= -1e-9, "negative stage duration {secs}");
        self.totals[stage.index()] += secs.max(0.0);
    }

    /// Total seconds across stages.
    pub(crate) fn total(&self) -> f64 {
        self.totals.iter().sum()
    }

    /// Fraction of total per stage, in [`Stage::ALL`] order.
    pub fn fractions(&self) -> [f64; 6] {
        let t = self.total();
        if t == 0.0 {
            return [0.0; 6];
        }
        let mut out = [0.0; 6];
        for (o, x) in out.iter_mut().zip(self.totals) {
            *o = x / t;
        }
        out
    }

    /// Merges another accumulator.
    pub fn merge(&mut self, other: &BreakdownAcc) {
        for (a, b) in self.totals.iter_mut().zip(other.totals) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let mut acc = BreakdownAcc::new();
        acc.add_secs(Stage::PrefillWait, 1.0);
        acc.add_secs(Stage::DecodeExec, 3.0);
        let f = acc.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((f[0] - 0.25).abs() < 1e-9);
        assert!((f[3] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = BreakdownAcc::new();
        a.add_secs(Stage::ControlOverhead, 1.0);
        let mut b = BreakdownAcc::new();
        b.add_secs(Stage::ControlOverhead, 2.0);
        b.add_secs(Stage::DataOverhead, 1.0);
        a.merge(&b);
        assert!((a.totals[4] - 3.0).abs() < 1e-9);
        assert!((a.total() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_fractions_are_zero() {
        assert_eq!(BreakdownAcc::new().fractions(), [0.0; 6]);
    }
}
