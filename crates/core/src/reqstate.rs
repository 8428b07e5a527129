//! Per-request runtime state.

use aegaeon_gpu::EventId;
use aegaeon_metrics::TokenTimes;
use aegaeon_sim::SimTime;
use aegaeon_workload::{Request, SessionId};

/// Where a request's KV cache currently lives. Block lists are tracked by
/// the owning [`aegaeon_engine::KvCache`]; this is only the location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KvPlace {
    /// Not yet materialized (pre-prefill).
    None,
    /// On a prefill or decoding instance's GPU (possibly still in flight;
    /// see [`ReqState::kv_ready`]).
    Gpu,
    /// In a node's unified CPU cache.
    Cpu {
        /// Node index.
        node: u32,
    },
}

/// Lifecycle phase of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Waiting for / undergoing prefill.
    Prefill,
    /// In a decoding work list.
    Decode,
}

/// Mutable runtime state of one request.
#[derive(Debug, Clone)]
pub struct ReqState {
    /// Prompt length.
    pub input_tokens: u32,
    /// Oracle output length (simulation termination only).
    pub(crate) target_tokens: u32,
    /// Arrival time.
    pub(crate) arrival: SimTime,
    /// Output tokens produced so far.
    pub produced: u32,
    /// Generation instants (first token included).
    pub token_times: TokenTimes,
    /// Current phase.
    pub(crate) phase: Phase,
    /// KV location.
    pub(crate) kv: KvPlace,
    /// Event guarding the latest swap-out of this request's KV (§5.3 rule
    /// ❷: a swap-in must wait on it).
    pub(crate) offload_event: Option<EventId>,
    /// Set while the request's KV is present on the decoding GPU and ready
    /// to decode.
    pub(crate) kv_ready: bool,
    /// Instant prefill execution started (for breakdown accounting).
    pub prefill_start: Option<SimTime>,
    /// Accumulated decode execution seconds (steps it participated in).
    pub(crate) decode_exec_secs: f64,
    /// Accumulated explicit KV-transfer wait seconds (Figure 14 "data
    /// overhead", Figure 15 right).
    pub(crate) data_wait_secs: f64,
    /// Accumulated control-plane overhead seconds.
    pub(crate) control_secs: f64,
    /// Instant the request was dispatched to its decoding instance.
    pub(crate) decode_dispatch: Option<SimTime>,
    /// Set when the swap-in for the current turn has been issued.
    pub(crate) swapin_inflight: bool,
    /// Set when the request was handed off to another shard after a total
    /// tier loss (sharded runs only). A migrated request is locally
    /// resolved: it is never re-dispatched here and never completes here;
    /// the destination shard owns its outcome.
    pub migrated: bool,
    /// Agentic session this request is a turn of ([`SessionId::NONE`] for
    /// single-shot requests).
    pub(crate) session: SessionId,
    /// Zero-based turn index within the session.
    pub(crate) turn_index: u32,
    /// Leading prompt tokens shared with the session's prior turns.
    pub(crate) prefix_tokens: u32,
    /// Set once the request prefilled only its delta off a claimed prefix.
    pub(crate) prefix_hit: bool,
    /// The claimed prefix was lost (its holder crashed) after prefill was
    /// sized against it; the next prefill touchpoint must discard the
    /// delta-only KV and recompute the full context.
    pub(crate) prefix_lost: bool,
}

impl ReqState {
    /// Fresh state for a request of `input_tokens`/`target_tokens` arriving
    /// at `arrival`.
    pub(crate) fn new(arrival: SimTime, input_tokens: u32, target_tokens: u32) -> ReqState {
        ReqState {
            input_tokens,
            target_tokens,
            arrival,
            produced: 0,
            token_times: TokenTimes::new(),
            phase: Phase::Prefill,
            kv: KvPlace::None,
            offload_event: None,
            kv_ready: false,
            prefill_start: None,
            decode_exec_secs: 0.0,
            data_wait_secs: 0.0,
            control_secs: 0.0,
            decode_dispatch: None,
            swapin_inflight: false,
            migrated: false,
            session: SessionId::NONE,
            turn_index: 0,
            prefix_tokens: 0,
            prefix_hit: false,
            prefix_lost: false,
        }
    }

    /// Fresh state for a trace request, session identity included.
    pub(crate) fn from_request(r: &Request) -> ReqState {
        let mut rs = ReqState::new(r.arrival(), r.input_tokens, r.output_tokens);
        rs.session = r.session;
        rs.turn_index = r.turn_index;
        // A turn always carries at least one fresh token; clamp a
        // malformed prefix rather than underflowing delta math.
        rs.prefix_tokens = r.prefix_tokens.min(r.input_tokens.saturating_sub(1));
        rs
    }

    /// Context length (prompt plus produced tokens).
    pub fn ctx_tokens(&self) -> u32 {
        self.input_tokens + self.produced
    }

    /// True once all target tokens are out.
    pub fn is_done(&self) -> bool {
        self.produced >= self.target_tokens
    }

    /// Records a produced token at `t`. Serving loops go through
    /// [`crate::runtime::Requests::push_token`], which also logs it for the
    /// auditor.
    ///
    /// The first token reserves room for exactly `target_tokens`, so the
    /// record's step list is allocated once and holds no slack when the
    /// request completes. (The gateway clamps `max_tokens` to 4096, so a
    /// live request reserves at most 16 KiB.)
    pub(crate) fn push_token(&mut self, t: SimTime) {
        if self.token_times.is_empty() {
            self.token_times.reserve_exact(self.target_tokens as usize);
        }
        self.produced += 1;
        self.token_times.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut r = ReqState::new(SimTime::ZERO, 100, 3);
        assert_eq!(r.ctx_tokens(), 100);
        r.push_token(SimTime::from_secs_f64(1.0));
        assert_eq!(r.phase, Phase::Prefill, "phase advances externally");
        r.push_token(SimTime::from_secs_f64(1.1));
        r.push_token(SimTime::from_secs_f64(1.2));
        assert!(r.is_done());
        assert_eq!(r.ctx_tokens(), 103);
        assert_eq!(r.token_times.last(), Some(SimTime::from_secs_f64(1.2)));
    }
}
