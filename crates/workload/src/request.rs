//! Requests and service-level objectives.

use aegaeon_model::ModelId;
use aegaeon_sim::{SimDur, SimTime};
use serde::{Deserialize, Serialize};

/// Identifies a request within a trace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies a multi-turn agent session. Single-shot requests carry
/// [`SessionId::NONE`]; turns of the same conversation share an id so the
/// scheduler can route them to the instance still holding their KV prefix.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct SessionId(pub u64);

impl SessionId {
    /// Sentinel for requests that belong to no session.
    pub const NONE: SessionId = SessionId(u64::MAX);

    /// True for real sessions (anything but the sentinel).
    pub fn is_some(&self) -> bool {
        *self != SessionId::NONE
    }

    /// True for the no-session sentinel.
    pub fn is_none(&self) -> bool {
        !self.is_some()
    }
}

impl Default for SessionId {
    fn default() -> Self {
        SessionId::NONE
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_some() {
            write!(f, "s{}", self.0)
        } else {
            write!(f, "s-")
        }
    }
}

/// One inference request.
///
/// `output_tokens` is the *oracle* output length: the simulation uses it to
/// know when generation ends, and the ServerlessLLM+ baseline is explicitly
/// granted access to it for Shortest-Job-First scheduling (§7.1). Aegaeon
/// itself never reads it when making decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Trace-unique id.
    pub id: RequestId,
    /// Target model.
    pub model: ModelId,
    /// Arrival time.
    pub arrival_ns: u64,
    /// Prompt length in tokens.
    pub input_tokens: u32,
    /// Total output length in tokens (≥ 1; the prefill produces the first).
    pub output_tokens: u32,
    /// Owning session, or [`SessionId::NONE`] for single-shot requests.
    pub session: SessionId,
    /// 0-based turn number within the session (0 for single-shot).
    pub turn_index: u32,
    /// Leading tokens of `input_tokens` shared with the session's prior
    /// turns (prompt + output history). A scheduler holding the session's
    /// KV can skip prefilling these; 0 for single-shot requests.
    pub prefix_tokens: u32,
}

impl Request {
    /// A single-shot (non-session) request.
    pub fn single(
        id: RequestId,
        model: ModelId,
        arrival_ns: u64,
        input_tokens: u32,
        output_tokens: u32,
    ) -> Request {
        Request {
            id,
            model,
            arrival_ns,
            input_tokens,
            output_tokens,
            session: SessionId::NONE,
            turn_index: 0,
            prefix_tokens: 0,
        }
    }

    /// Arrival instant.
    pub fn arrival(&self) -> SimTime {
        SimTime::from_nanos(self.arrival_ns)
    }
}

/// Per-token service-level objectives (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Time-To-First-Token target.
    pub ttft: SimDur,
    /// Time-Between-Tokens target.
    pub tbt: SimDur,
}

impl SloSpec {
    /// The paper's production SLO (§7.1): TTFT 10 s, TBT 100 ms.
    pub fn paper_default() -> SloSpec {
        SloSpec {
            ttft: SimDur::from_secs(10),
            tbt: SimDur::from_millis(100),
        }
    }

    /// Uniformly scales both targets (Figure 13 uses 0.5×, 0.3×, 0.2×).
    pub fn scaled(&self, f: f64) -> SloSpec {
        SloSpec {
            ttft: self.ttft * f,
            tbt: self.tbt * f,
        }
    }

    /// Scales only the TBT target (Figure 17 left, Strict/Loose).
    pub fn with_tbt_scaled(&self, f: f64) -> SloSpec {
        SloSpec {
            ttft: self.ttft,
            tbt: self.tbt * f,
        }
    }

    /// Scales only the TTFT target (Figure 17 right, Strict/Loose).
    pub fn with_ttft_scaled(&self, f: f64) -> SloSpec {
        SloSpec {
            ttft: self.ttft * f,
            tbt: self.tbt,
        }
    }

    /// The deadline for the `i`-th output token (0-based) of a request that
    /// arrived at `arrival` (Figure 3): the first token is due at
    /// `arrival + ttft`; token `i` at `arrival + ttft + i·tbt`.
    pub fn token_deadline(&self, arrival: SimTime, i: u32) -> SimTime {
        arrival + self.ttft + self.tbt * i as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlines_are_linear_in_token_index() {
        let slo = SloSpec::paper_default();
        let t0 = SimTime::from_secs_f64(5.0);
        assert_eq!(slo.token_deadline(t0, 0), SimTime::from_secs_f64(15.0));
        assert_eq!(slo.token_deadline(t0, 10), SimTime::from_secs_f64(16.0));
    }

    #[test]
    fn scaling_variants() {
        let slo = SloSpec::paper_default().scaled(0.2);
        assert_eq!(slo.ttft, SimDur::from_secs(2));
        assert_eq!(slo.tbt, SimDur::from_millis(20));
        let strict_tbt = SloSpec::paper_default().with_tbt_scaled(0.5);
        assert_eq!(strict_tbt.ttft, SimDur::from_secs(10));
        assert_eq!(strict_tbt.tbt, SimDur::from_millis(50));
        let loose_ttft = SloSpec::paper_default().with_ttft_scaled(2.0);
        assert_eq!(loose_ttft.ttft, SimDur::from_secs(20));
    }

    #[test]
    fn session_sentinel_and_display() {
        let r = Request::single(RequestId(0), ModelId(0), 0, 100, 4);
        assert!(!r.session.is_some());
        let turn = Request {
            session: SessionId(7),
            turn_index: 2,
            prefix_tokens: 60,
            ..r
        };
        assert!(turn.session.is_some());
        assert_eq!(format!("{}", turn.session), "s7");
        assert_eq!(format!("{}", SessionId::NONE), "s-");
    }
}
