//! Deterministic chaos engine: seeded fault-process composition.
//!
//! Production fault tolerance (Figure 5) is only as good as the fault inputs
//! it is tested against. The old harness took a hand-written list of
//! `(time, kind, index)` crashes; this module replaces it with a [`FaultPlan`]
//! that *composes* stochastic fault processes — instance crashes, transient
//! link degradation, staging-buffer OOM, and proxy-visible stalls — all drawn
//! from the run's seeded SplitMix64 stream. Any failing scenario therefore
//! reproduces exactly from `(seed, plan)` alone: the plan's compact spec
//! string plus the base seed regenerate the identical fault schedule.
//!
//! The plan is *materialized* once at system construction into a sorted
//! `FaultEvent` list; the event loop then schedules each entry like any
//! other simulator event, keeping the hot path free of RNG calls.

use aegaeon_sim::SimRng;
use std::fmt;
use std::str::FromStr;

use crate::events::InstKind;

/// One concrete fault instance drawn from a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultKind {
    /// Fail-stop crash of one serving instance.
    Crash { kind: InstKind, idx: u32 },
    /// A PCIe/NVLink link runs at `factor` of nominal bandwidth for a window.
    LinkDegrade { link: u32, factor: f64 },
    /// The pinned stage buffer on one node is exhausted; host→device copies
    /// fall back to pageable DMA for the window.
    StageOom { node: u32 },
    /// The proxy's metadata path stalls: new arrivals retry with backoff.
    ProxyStall,
}

/// A scheduled fault: active from `at` until `until` (crashes are
/// instantaneous and carry `until == at`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultEvent {
    /// Activation time, seconds.
    pub(crate) at: f64,
    /// End of the fault window, seconds (`== at` for crashes).
    pub(crate) until: f64,
    /// What breaks.
    pub(crate) kind: FaultKind,
}

/// A seeded composition of stochastic fault processes.
///
/// Rates are events per second of simulated time; a rate of `0.0` disables
/// that process. `crashes` holds explicit, deterministic crash times (the
/// migration path for the old hand-written failure lists) and is injected
/// verbatim on top of the stochastic crash processes.
///
/// The plan serializes to a compact `key=value;` spec string via
/// [`fmt::Display`] and parses back with [`FromStr`], so a failing scenario
/// is reported as `(seed, plan)` and replayed from exactly those two values.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Plan-local seed, mixed with the run's base seed when materializing.
    pub seed: u64,
    /// Explicit crashes: `(seconds, kind, instance index)`.
    pub crashes: Vec<(f64, InstKind, u32)>,
    /// Poisson crash rate for prefill instances (events/sec).
    pub crash_rate_prefill: f64,
    /// Poisson crash rate for decoding instances (events/sec).
    pub crash_rate_decode: f64,
    /// Poisson rate of transient link-degradation windows (events/sec).
    pub link_rate: f64,
    /// Bandwidth multiplier during a degradation window, in `(0, 1]`.
    pub link_factor: f64,
    /// Mean length of a degradation window, seconds.
    pub link_secs: f64,
    /// Poisson rate of staging-buffer OOM windows (events/sec).
    pub stage_oom_rate: f64,
    /// Mean length of a staging-OOM window, seconds.
    pub stage_oom_secs: f64,
    /// Poisson rate of proxy stalls (events/sec).
    pub stall_rate: f64,
    /// Mean length of a proxy stall, seconds.
    pub stall_secs: f64,
}

impl FaultPlan {
    /// The empty plan: no faults of any kind.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            crashes: Vec::new(),
            crash_rate_prefill: 0.0,
            crash_rate_decode: 0.0,
            link_rate: 0.0,
            link_factor: 0.25,
            link_secs: 5.0,
            stage_oom_rate: 0.0,
            stage_oom_secs: 5.0,
            stall_rate: 0.0,
            stall_secs: 1.0,
        }
    }

    /// A plan with only the given explicit crashes (legacy-list migration).
    pub fn crashes(list: &[(f64, InstKind, u32)]) -> Self {
        FaultPlan {
            crashes: list.to_vec(),
            ..FaultPlan::none()
        }
    }

    /// True when the plan can never produce a fault.
    pub(crate) fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.crash_rate_prefill == 0.0
            && self.crash_rate_decode == 0.0
            && self.link_rate == 0.0
            && self.stage_oom_rate == 0.0
            && self.stall_rate == 0.0
    }

    /// Draws the concrete fault schedule for one run.
    ///
    /// Each fault process forks its own RNG stream from the combined
    /// `(base_seed, plan.seed)` root, so changing one rate never perturbs
    /// the draws of the others. Stochastic crashes pick a victim uniformly
    /// among instances of the kind that the *schedule so far* still leaves
    /// alive, and always leave at least one instance of each kind alive —
    /// losing the whole tier is a fatal condition the serving system
    /// asserts on, not a recoverable fault. Explicit `crashes` entries are
    /// injected verbatim (the caller opted into them).
    ///
    /// The returned list is sorted by activation time.
    pub(crate) fn materialize(
        &self,
        base_seed: u64,
        horizon_secs: f64,
        n_prefill: u32,
        n_decode: u32,
        n_links: u32,
        n_nodes: u32,
    ) -> Vec<FaultEvent> {
        let mut out = Vec::new();
        let mut alive_prefill: Vec<u32> = (0..n_prefill).collect();
        let mut alive_decode: Vec<u32> = (0..n_decode).collect();
        for &(secs, kind, idx) in &self.crashes {
            let alive = match kind {
                InstKind::Prefill => &mut alive_prefill,
                InstKind::Decode => &mut alive_decode,
            };
            alive.retain(|&i| i != idx);
            out.push(FaultEvent {
                at: secs,
                until: secs,
                kind: FaultKind::Crash { kind, idx },
            });
        }

        let mut root = SimRng::seed_from_u64(base_seed ^ self.seed.rotate_left(17));
        let mut crash_rng = root.fork();
        let mut link_rng = root.fork();
        let mut oom_rng = root.fork();
        let mut stall_rng = root.fork();

        for (kind, rate) in [
            (InstKind::Prefill, self.crash_rate_prefill),
            (InstKind::Decode, self.crash_rate_decode),
        ] {
            if rate <= 0.0 {
                continue;
            }
            let mut t = 0.0;
            loop {
                t += crash_rng.exp(rate);
                if t >= horizon_secs {
                    break;
                }
                let alive = match kind {
                    InstKind::Prefill => &mut alive_prefill,
                    InstKind::Decode => &mut alive_decode,
                };
                // Keep one instance of each tier alive: total tier loss is
                // fatal by design, not a recoverable fault.
                if alive.len() <= 1 {
                    break;
                }
                let victim = alive.swap_remove(crash_rng.below(alive.len()));
                out.push(FaultEvent {
                    at: t,
                    until: t,
                    kind: FaultKind::Crash { kind, idx: victim },
                });
            }
        }

        if self.link_rate > 0.0 && n_links > 0 {
            let mut t = 0.0;
            loop {
                t += link_rng.exp(self.link_rate);
                if t >= horizon_secs {
                    break;
                }
                let dur = link_rng.exp(1.0 / self.link_secs.max(1e-6));
                out.push(FaultEvent {
                    at: t,
                    until: t + dur,
                    kind: FaultKind::LinkDegrade {
                        link: link_rng.below(n_links as usize) as u32,
                        factor: self.link_factor,
                    },
                });
            }
        }

        if self.stage_oom_rate > 0.0 && n_nodes > 0 {
            let mut t = 0.0;
            loop {
                t += oom_rng.exp(self.stage_oom_rate);
                if t >= horizon_secs {
                    break;
                }
                let dur = oom_rng.exp(1.0 / self.stage_oom_secs.max(1e-6));
                out.push(FaultEvent {
                    at: t,
                    until: t + dur,
                    kind: FaultKind::StageOom {
                        node: oom_rng.below(n_nodes as usize) as u32,
                    },
                });
            }
        }

        if self.stall_rate > 0.0 {
            let mut t = 0.0;
            loop {
                t += stall_rng.exp(self.stall_rate);
                if t >= horizon_secs {
                    break;
                }
                let dur = stall_rng.exp(1.0 / self.stall_secs.max(1e-6));
                out.push(FaultEvent {
                    at: t,
                    until: t + dur,
                    kind: FaultKind::ProxyStall,
                });
            }
        }

        out.sort_by(|a, b| a.at.total_cmp(&b.at));
        out
    }
}

/// The first instant, in seconds, at which a materialized `schedule` leaves
/// every prefill or every decoding instance dead, or `None` if both tiers
/// keep a survivor for the whole run.
///
/// Crashes are permanent, so the answer is the crash that kills the last
/// live instance of either tier. A repeated crash of a dead instance kills
/// nothing and is counted once; indices outside the tier are ignored. A
/// serving system re-routes a request off its shard only after such a
/// loss, so a sharded run uses this instant to bound when a shard can first
/// emit a handoff. [`FaultPlan::materialize`] never lets stochastic crashes
/// empty a tier, so only explicit `crashes` can make this `Some`.
pub(crate) fn first_tier_loss(schedule: &[FaultEvent], n_prefill: u32, n_decode: u32) -> Option<f64> {
    if n_prefill == 0 || n_decode == 0 {
        return Some(0.0);
    }
    let mut dead = [
        vec![false; n_prefill as usize],
        vec![false; n_decode as usize],
    ];
    let mut alive = [n_prefill, n_decode];
    for e in schedule {
        let FaultKind::Crash { kind, idx } = e.kind else {
            continue;
        };
        let tier = match kind {
            InstKind::Prefill => 0,
            InstKind::Decode => 1,
        };
        match dead[tier].get_mut(idx as usize) {
            Some(d) if !*d => *d = true,
            _ => continue,
        }
        alive[tier] -= 1;
        if alive[tier] == 0 {
            return Some(e.at);
        }
    }
    None
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl fmt::Display for FaultPlan {
    /// Compact `key=value;` spec. Only non-default fields are emitted, so
    /// the empty plan prints as `none`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "none");
        }
        let mut parts = Vec::new();
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        for &(secs, kind, idx) in &self.crashes {
            let k = match kind {
                InstKind::Prefill => "p",
                InstKind::Decode => "d",
            };
            parts.push(format!("crash={secs}:{k}:{idx}"));
        }
        if self.crash_rate_prefill > 0.0 {
            parts.push(format!("cp={}", self.crash_rate_prefill));
        }
        if self.crash_rate_decode > 0.0 {
            parts.push(format!("cd={}", self.crash_rate_decode));
        }
        if self.link_rate > 0.0 {
            parts.push(format!(
                "link={}:{}:{}",
                self.link_rate, self.link_factor, self.link_secs
            ));
        }
        if self.stage_oom_rate > 0.0 {
            parts.push(format!(
                "oom={}:{}",
                self.stage_oom_rate, self.stage_oom_secs
            ));
        }
        if self.stall_rate > 0.0 {
            parts.push(format!("stall={}:{}", self.stall_rate, self.stall_secs));
        }
        write!(f, "{}", parts.join(";"))
    }
}

/// Error from parsing a [`FaultPlan`] spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError(pub(crate) String);

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault plan spec: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

impl FromStr for FaultPlan {
    type Err = PlanParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::none();
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(plan);
        }
        let num = |v: &str| -> Result<f64, PlanParseError> {
            v.parse::<f64>()
                .map_err(|_| PlanParseError(format!("bad number {v:?}")))
        };
        for part in s.split(';').filter(|p| !p.is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| PlanParseError(format!("missing '=' in {part:?}")))?;
            let fields: Vec<&str> = val.split(':').collect();
            match (key, fields.as_slice()) {
                ("seed", [v]) => {
                    plan.seed = v
                        .parse::<u64>()
                        .map_err(|_| PlanParseError(format!("bad seed {v:?}")))?;
                }
                ("crash", [secs, kind, idx]) => {
                    let kind = match *kind {
                        "p" => InstKind::Prefill,
                        "d" => InstKind::Decode,
                        other => return Err(PlanParseError(format!("bad crash kind {other:?}"))),
                    };
                    let idx = idx
                        .parse::<u32>()
                        .map_err(|_| PlanParseError(format!("bad crash index {idx:?}")))?;
                    plan.crashes.push((num(secs)?, kind, idx));
                }
                ("cp", [v]) => plan.crash_rate_prefill = num(v)?,
                ("cd", [v]) => plan.crash_rate_decode = num(v)?,
                ("link", [rate, factor, secs]) => {
                    plan.link_rate = num(rate)?;
                    plan.link_factor = num(factor)?;
                    plan.link_secs = num(secs)?;
                }
                ("oom", [rate, secs]) => {
                    plan.stage_oom_rate = num(rate)?;
                    plan.stage_oom_secs = num(secs)?;
                }
                ("stall", [rate, secs]) => {
                    plan.stall_rate = num(rate)?;
                    plan.stall_secs = num(secs)?;
                }
                _ => return Err(PlanParseError(format!("unknown field {part:?}"))),
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_plan() -> FaultPlan {
        FaultPlan {
            seed: 99,
            crashes: vec![(12.5, InstKind::Decode, 1)],
            crash_rate_prefill: 0.01,
            crash_rate_decode: 0.02,
            link_rate: 0.05,
            link_factor: 0.3,
            link_secs: 4.0,
            stage_oom_rate: 0.03,
            stage_oom_secs: 6.0,
            stall_rate: 0.02,
            stall_secs: 1.5,
        }
    }

    #[test]
    fn empty_plan_materializes_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.materialize(42, 1000.0, 4, 4, 8, 2).is_empty());
        assert_eq!(plan.to_string(), "none");
    }

    #[test]
    fn materialize_is_deterministic_in_seed_and_plan() {
        let plan = busy_plan();
        let a = plan.materialize(42, 600.0, 4, 6, 8, 2);
        let b = plan.materialize(42, 600.0, 4, 6, 8, 2);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        let c = plan.materialize(43, 600.0, 4, 6, 8, 2);
        assert_ne!(a, c, "different base seed must change the schedule");
        let mut other = plan.clone();
        other.seed = 100;
        let d = other.materialize(42, 600.0, 4, 6, 8, 2);
        assert_ne!(a, d, "different plan seed must change the schedule");
    }

    #[test]
    fn materialized_schedule_is_sorted_and_windowed() {
        let events = busy_plan().materialize(7, 600.0, 4, 6, 8, 2);
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        for e in &events {
            assert!(e.at >= 0.0 && e.at < 600.0 + 1e-9, "activation {e:?}");
            assert!(e.until >= e.at);
            if let FaultKind::Crash { .. } = e.kind {
                assert_eq!(e.at, e.until);
            }
        }
    }

    #[test]
    fn stochastic_crashes_leave_one_instance_per_tier() {
        let plan = FaultPlan {
            crash_rate_prefill: 10.0, // absurdly high: would kill everything
            crash_rate_decode: 10.0,
            ..FaultPlan::none()
        };
        let events = plan.materialize(3, 1000.0, 3, 4, 0, 0);
        let prefill_crashes = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::Crash {
                        kind: InstKind::Prefill,
                        ..
                    }
                )
            })
            .count();
        let decode_crashes = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::Crash {
                        kind: InstKind::Decode,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(prefill_crashes, 2, "must stop at one survivor");
        assert_eq!(decode_crashes, 3, "must stop at one survivor");
        let mut victims: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Crash {
                    kind: InstKind::Decode,
                    idx,
                } => Some(idx),
                _ => None,
            })
            .collect();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), decode_crashes, "no victim crashes twice");
    }

    fn crash(at: f64, kind: InstKind, idx: u32) -> FaultEvent {
        FaultEvent {
            at,
            until: at,
            kind: FaultKind::Crash { kind, idx },
        }
    }

    #[test]
    fn no_tier_loss_without_explicit_crashes() {
        assert_eq!(first_tier_loss(&[], 3, 4), None);
        assert_eq!(
            first_tier_loss(&FaultPlan::none().materialize(42, 1000.0, 3, 4, 8, 2), 3, 4),
            None
        );
        // Stochastic crash processes fast enough to kill every instance many
        // times over still leave one survivor per tier, whatever the seed.
        let plan = FaultPlan {
            crash_rate_prefill: 10.0,
            crash_rate_decode: 10.0,
            link_rate: 0.5,
            stall_rate: 0.5,
            ..FaultPlan::none()
        };
        for seed in 0..200 {
            let mut p = plan.clone();
            p.seed = seed;
            let events = p.materialize(seed, 1000.0, 3, 4, 8, 2);
            assert_eq!(first_tier_loss(&events, 3, 4), None, "seed {seed}");
        }
    }

    #[test]
    fn tier_loss_is_the_last_explicit_crash_of_a_tier() {
        let plan = FaultPlan::crashes(&[
            (30.0, InstKind::Decode, 2),
            (10.0, InstKind::Decode, 0),
            (20.0, InstKind::Prefill, 1),
            (25.0, InstKind::Decode, 1),
        ]);
        // Decode 0, 1, 2 are all dead at 30 s; prefill 0 survives.
        let events = plan.materialize(7, 600.0, 2, 3, 8, 2);
        assert_eq!(first_tier_loss(&events, 2, 3), Some(30.0));
        // With a fourth decoder nobody crashes, no tier is lost.
        let events = plan.materialize(7, 600.0, 2, 4, 8, 2);
        assert_eq!(first_tier_loss(&events, 2, 4), None);
    }

    #[test]
    fn repeated_crash_of_one_instance_counts_once() {
        let schedule = [
            crash(5.0, InstKind::Prefill, 0),
            crash(6.0, InstKind::Prefill, 0),
            crash(7.0, InstKind::Prefill, 0),
            crash(9.0, InstKind::Prefill, 1),
        ];
        assert_eq!(first_tier_loss(&schedule[..3], 2, 2), None);
        assert_eq!(first_tier_loss(&schedule, 2, 2), Some(9.0));
        // An index outside the tier kills nothing.
        assert_eq!(
            first_tier_loss(&[crash(1.0, InstKind::Decode, 5)], 2, 2),
            None
        );
    }

    #[test]
    fn mixed_crashes_report_the_one_that_empties_the_tier() {
        // A materialized schedule does not record which crashes were
        // explicit, so an explicit crash and stochastic ones count alike:
        // here stochastic crashes at 12 s and 40 s finish off the prefill
        // tier an explicit crash at 3 s began to empty.
        let schedule = [
            crash(3.0, InstKind::Prefill, 1),
            crash(8.0, InstKind::Decode, 0),
            crash(12.0, InstKind::Prefill, 2),
            crash(40.0, InstKind::Prefill, 0),
            crash(41.0, InstKind::Decode, 1),
        ];
        assert_eq!(first_tier_loss(&schedule, 3, 2), Some(40.0));
        // The decode tier empties first when it is the smaller one.
        assert_eq!(first_tier_loss(&schedule[..4], 3, 1), Some(8.0));
        // An empty tier is lost from the start.
        assert_eq!(first_tier_loss(&[], 0, 2), Some(0.0));
    }

    #[test]
    fn spec_string_roundtrips() {
        for plan in [
            FaultPlan::none(),
            busy_plan(),
            FaultPlan::crashes(&[(5.0, InstKind::Prefill, 0)]),
        ] {
            let spec = plan.to_string();
            let back: FaultPlan = spec.parse().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(plan, back, "spec {spec:?}");
            // And the roundtripped plan draws the identical schedule.
            assert_eq!(
                plan.materialize(11, 300.0, 4, 4, 8, 2),
                back.materialize(11, 300.0, 4, 4, 8, 2)
            );
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!("crash=5.0:x:0".parse::<FaultPlan>().is_err());
        assert!("nonsense".parse::<FaultPlan>().is_err());
        assert!("wibble=1".parse::<FaultPlan>().is_err());
        assert!("link=0.1:0.5".parse::<FaultPlan>().is_err());
    }
}
