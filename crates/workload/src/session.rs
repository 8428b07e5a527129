//! Agentic multi-turn session workloads.
//!
//! Models the traffic class Scepsy and AGENTSERVESIM describe: a session is
//! a sequence of turns against one model where turn *k*'s prompt is the
//! shared prefix (every prior prompt + output token) plus a fresh user
//! delta, with seeded "think gaps" (tool-call latency) between turns, and
//! optional DAG fan-out where a turn's completion spawns fresh requests to
//! other models. Sessions lower deterministically into the existing
//! [`Trace`] / [`Request`] stream via the `session` / `turn_index` /
//! `prefix_tokens` fields, so every downstream consumer (baselines, shards,
//! gateway injection, replay fingerprints) keeps working unchanged.
//!
//! Lowering rules (also documented in DESIGN.md):
//!
//! * `prefix(0) = 0`, `input(k) = prefix(k) + delta(k)`,
//!   `prefix(k+1) = input(k) + output(k)` — the next turn's prompt replays
//!   the whole conversation so far.
//! * `arrival(k+1) = arrival(k) + est_service(k) + think_gap(k+1)` where
//!   the service estimate is a client-side guess (`ServiceEstimate`); the
//!   generator cannot know actual completion times, so a turn may arrive
//!   while its predecessor is still running — the scheduler degrades that
//!   to a prefix miss.
//! * A DAG child spawned after turn *k* is a fresh, prefix-free request to
//!   a different model arriving at `arrival(k) + est_service(k) + ε`.
//!
//! All randomness is consumed in [`SessionBuilder::generate`]; lowering
//! itself is pure flattening + the same sort / id-assignment rule as
//! [`crate::trace::TraceBuilder::build`], hence bit-deterministic.

use aegaeon_model::ModelId;
use aegaeon_sim::{SimDur, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::dataset::LengthDist;
use crate::process::poisson_arrivals;
use crate::request::{Request, RequestId, SessionId};
use crate::trace::Trace;

/// Client-side estimate of how long a turn takes to serve, used to place
/// the next turn's arrival. Deliberately *not* the engine's real latency
/// model: agents time their follow-ups off perceived service speed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceEstimate {
    /// Estimated time to first token (seconds).
    pub(crate) ttft_secs: f64,
    /// Estimated time between tokens (seconds).
    pub(crate) tbt_secs: f64,
}

impl ServiceEstimate {
    /// A paper-SLO-shaped guess: 2 s to first token, 100 ms/token after.
    pub(crate) fn paper_slo() -> ServiceEstimate {
        ServiceEstimate {
            ttft_secs: 2.0,
            tbt_secs: 0.1,
        }
    }

    /// Estimated wall time to serve a turn emitting `output_tokens`.
    pub(crate) fn service_secs(&self, output_tokens: u32) -> f64 {
        self.ttft_secs + self.tbt_secs * f64::from(output_tokens.saturating_sub(1))
    }
}

/// One resolved turn of an agent session (arrival already planned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionTurn {
    /// Planned arrival instant.
    pub arrival: SimTime,
    /// Tokens shared with prior turns (prompt + output history).
    pub prefix_tokens: u32,
    /// Fresh user-delta tokens in this turn's prompt.
    pub delta_tokens: u32,
    /// Output length of this turn.
    pub output_tokens: u32,
}

impl SessionTurn {
    /// Full prompt length: shared prefix + fresh delta.
    pub fn input_tokens(&self) -> u32 {
        self.prefix_tokens + self.delta_tokens
    }
}

/// A DAG fan-out child: a fresh request to another model triggered by the
/// estimated completion of one of the parent session's turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FanOutChild {
    /// 0-based index of the parent turn whose completion triggers this.
    pub after_turn: u32,
    /// Planned arrival (parent turn's estimated last token + dispatch ε).
    pub arrival: SimTime,
    /// Target model (never the parent session's model).
    pub model: ModelId,
    /// Prompt length (no shared prefix — fresh pipeline stage).
    pub(crate) input_tokens: u32,
    /// Output length.
    pub(crate) output_tokens: u32,
}

/// A fully-resolved multi-turn agent session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentSession {
    /// Session identity carried into every lowered turn.
    pub id: SessionId,
    /// The one model every turn targets.
    pub model: ModelId,
    /// Turns in order; arrivals strictly increase.
    pub turns: Vec<SessionTurn>,
    /// DAG fan-out children (may be empty).
    pub children: Vec<FanOutChild>,
}

impl AgentSession {
    /// Estimated completion instant of turn `k` under `est`.
    pub fn est_completion(&self, k: usize, est: &ServiceEstimate) -> SimTime {
        let t = &self.turns[k];
        t.arrival + SimDur::from_secs_f64(est.service_secs(t.output_tokens))
    }
}

/// A batch of agent sessions plus the generation window, ready to lower.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionWorkload {
    /// All sessions, in generation order (model-major, then start time).
    pub sessions: Vec<AgentSession>,
    /// Generation window end (the lowered horizon covers stragglers too).
    pub(crate) horizon: SimTime,
    /// The estimate used to plan arrivals (kept for audit/tests).
    pub est: ServiceEstimate,
}

impl SessionWorkload {
    /// Total turns across all sessions.
    pub fn total_turns(&self) -> usize {
        self.sessions.iter().map(|s| s.turns.len()).sum()
    }

    /// Total DAG children across all sessions.
    pub(crate) fn total_children(&self) -> usize {
        self.sessions.iter().map(|s| s.children.len()).sum()
    }

    /// Lowers sessions into a time-sorted [`Trace`]: every turn becomes a
    /// [`Request`] carrying its session id / turn index / shared prefix;
    /// every DAG child becomes a fresh single-shot request. Sorting and id
    /// assignment mirror [`crate::trace::TraceBuilder::build`], so the
    /// result is indistinguishable from any other trace downstream.
    pub fn lower(&self) -> Trace {
        let mut requests = Vec::with_capacity(self.total_turns() + self.total_children());
        let mut latest = SimTime::ZERO;
        for s in &self.sessions {
            for (k, t) in s.turns.iter().enumerate() {
                requests.push(Request {
                    id: RequestId(0), // assigned after sorting
                    model: s.model,
                    arrival_ns: t.arrival.as_nanos(),
                    input_tokens: t.input_tokens().max(1),
                    output_tokens: t.output_tokens.max(1),
                    session: s.id,
                    turn_index: k as u32,
                    prefix_tokens: t.prefix_tokens,
                });
                latest = latest.max(t.arrival);
            }
            for c in &s.children {
                requests.push(Request::single(
                    RequestId(0),
                    c.model,
                    c.arrival.as_nanos(),
                    c.input_tokens.max(1),
                    c.output_tokens.max(1),
                ));
                latest = latest.max(c.arrival);
            }
        }
        requests.sort_by_key(|r| (r.arrival_ns, r.model));
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = RequestId(i as u64);
        }
        Trace {
            requests,
            horizon: self.horizon.max(latest + SimDur::from_secs(1)),
        }
    }
}

/// Builder synthesizing a [`SessionWorkload`] from seeded distributions.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    horizon: SimTime,
    n_models: u32,
    session_rate: f64,
    turns_min: u32,
    turns_max: u32,
    dataset: LengthDist,
    think_gap_secs: f64,
    think_gap_sigma: f64,
    fanout_prob: f64,
    fanout_max: u32,
}

impl SessionBuilder {
    /// Session starts per model follow a Poisson process at `session_rate`
    /// sessions/s over `[0, horizon)`; per-turn delta/output lengths come
    /// from a ShareGPT-like distribution; think gaps default to a 10 s
    /// lognormal (tool calls dominated by a heavy tail); no fan-out.
    pub fn new(horizon: SimTime, n_models: u32, session_rate: f64) -> SessionBuilder {
        SessionBuilder {
            horizon,
            n_models: n_models.max(1),
            session_rate,
            turns_min: 2,
            turns_max: 6,
            dataset: LengthDist::sharegpt(),
            think_gap_secs: 10.0,
            think_gap_sigma: 0.8,
            fanout_prob: 0.0,
            fanout_max: 2,
        }
    }

    /// Uniform session depth range (inclusive).
    pub fn depth(mut self, min: u32, max: u32) -> SessionBuilder {
        self.turns_min = min.max(1);
        self.turns_max = max.max(self.turns_min);
        self
    }

    /// Mean think-gap seconds between turns and lognormal sigma.
    pub fn think_gap(mut self, mean_secs: f64, sigma: f64) -> SessionBuilder {
        self.think_gap_secs = mean_secs.max(0.0);
        self.think_gap_sigma = sigma.max(0.0);
        self
    }

    /// Probability a turn spawns DAG children, and the max breadth.
    pub fn fanout(mut self, prob: f64, max_children: u32) -> SessionBuilder {
        self.fanout_prob = prob.clamp(0.0, 1.0);
        self.fanout_max = max_children.max(1);
        self
    }

    /// Draws every session, turn, gap and fan-out decision from `rng`.
    /// All randomness is consumed here; the result lowers deterministically.
    pub fn generate(&self, rng: &mut SimRng) -> SessionWorkload {
        let est = ServiceEstimate::paper_slo();
        let mut sessions = Vec::new();
        let mut next_id = 0u64;
        for m in 0..self.n_models {
            let starts = poisson_arrivals(rng, self.session_rate, self.horizon);
            for start in starts {
                let depth = self.turns_min
                    + rng.below((self.turns_max - self.turns_min + 1) as usize) as u32;
                let mut turns = Vec::with_capacity(depth as usize);
                let mut children = Vec::new();
                let mut arrival = start;
                let mut prefix = 0u32;
                for k in 0..depth {
                    let (delta, output) = self.dataset.sample(rng);
                    let turn = SessionTurn {
                        arrival,
                        prefix_tokens: prefix,
                        delta_tokens: delta.max(1),
                        output_tokens: output.max(1),
                    };
                    let est_done = arrival
                        + SimDur::from_secs_f64(est.service_secs(turn.output_tokens));
                    if self.n_models > 1 && rng.f64() < self.fanout_prob {
                        let breadth = 1 + rng.below(self.fanout_max as usize) as u32;
                        for j in 0..breadth {
                            // Deterministic spread over the other models.
                            let target = (m + 1 + (j % (self.n_models - 1))) % self.n_models;
                            let (ci, co) = self.dataset.sample(rng);
                            children.push(FanOutChild {
                                after_turn: k,
                                arrival: est_done + SimDur::from_millis(1) * u64::from(j + 1),
                                model: ModelId(target),
                                input_tokens: ci.max(1),
                                output_tokens: co.max(1),
                            });
                        }
                    }
                    prefix = turn.input_tokens() + turn.output_tokens;
                    let gap = if self.think_gap_secs > 0.0 {
                        rng.lognormal_mean(self.think_gap_secs, self.think_gap_sigma)
                            .clamp(0.001, 3600.0)
                    } else {
                        0.001
                    };
                    arrival = est_done + SimDur::from_secs_f64(gap);
                    turns.push(turn);
                }
                sessions.push(AgentSession {
                    id: SessionId(next_id),
                    model: ModelId(m),
                    turns,
                    children,
                });
                next_id += 1;
            }
        }
        SessionWorkload {
            sessions,
            horizon: self.horizon,
            est,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(seed: u64) -> SessionWorkload {
        let mut rng = SimRng::seed_from_u64(seed);
        SessionBuilder::new(SimTime::from_secs_f64(600.0), 4, 0.02)
            .depth(2, 5)
            .think_gap(5.0, 0.6)
            .fanout(0.3, 2)
            .generate(&mut rng)
    }

    #[test]
    fn generation_and_lowering_are_deterministic() {
        let a = workload(11);
        let b = workload(11);
        assert_eq!(a, b);
        assert_eq!(a.lower().requests, b.lower().requests);
        assert!(a.total_turns() > 0, "seed produced no sessions");
    }

    #[test]
    fn prefix_chain_is_well_formed() {
        let w = workload(12);
        for s in &w.sessions {
            assert_eq!(s.turns[0].prefix_tokens, 0);
            for k in 1..s.turns.len() {
                let prev = &s.turns[k - 1];
                assert_eq!(
                    s.turns[k].prefix_tokens,
                    prev.input_tokens() + prev.output_tokens,
                    "turn {k} prefix must replay the whole conversation"
                );
                assert!(s.turns[k].arrival > prev.arrival);
            }
        }
    }

    #[test]
    fn lowered_trace_is_sorted_with_dense_ids_and_session_meta() {
        let w = workload(13);
        let t = w.lower();
        assert!(t
            .requests
            .windows(2)
            .all(|p| p[0].arrival_ns <= p[1].arrival_ns));
        for (i, r) in t.requests.iter().enumerate() {
            assert_eq!(r.id.0, i as u64);
            if r.session.is_some() {
                assert!(r.input_tokens > r.prefix_tokens);
            } else {
                assert_eq!((r.turn_index, r.prefix_tokens), (0, 0));
            }
        }
        let n_turns: usize = t.requests.iter().filter(|r| r.session.is_some()).count();
        assert_eq!(n_turns, w.total_turns());
        assert_eq!(t.requests.len(), w.total_turns() + w.total_children());
    }

    #[test]
    fn children_arrive_after_parent_estimated_completion() {
        let w = workload(14);
        let mut saw = 0;
        for s in &w.sessions {
            for c in &s.children {
                assert_ne!(c.model, s.model);
                assert!(c.arrival > s.est_completion(c.after_turn as usize, &w.est));
                saw += 1;
            }
        }
        assert!(saw > 0, "fanout prob 0.3 produced no children");
    }

    #[test]
    fn follow_ups_are_planned_with_the_paper_slo_estimate() {
        let w = workload(15);
        assert_eq!(w.est, ServiceEstimate::paper_slo());
        // 2 s to the first token, then 100 ms for each of the other 9.
        assert!((w.est.service_secs(10) - 2.9).abs() < 1e-12);
    }
}
