//! Conservative-lookahead window arithmetic for sharded parallel DES.
//!
//! A sharded run partitions one simulation into per-shard event queues that
//! advance in bulk-synchronous windows. The safety argument is the classic
//! null-message one (Chandy–Misra–Bryant, without the per-link message
//! traffic): if every cross-shard interaction raises the receiver's
//! timestamp by at least `lookahead`, then once every shard has processed
//! all events strictly before some barrier time `B`, any message a shard
//! can still emit carries a receive stamp `>= B' = min(next_due) +
//! lookahead`. All shards may therefore advance to `B' - 1ns` in parallel
//! without ever receiving a message in their past — no rollback, and the
//! event order inside each shard is identical to a serial execution of the
//! same windows.
//!
//! # Per-shard emission bound
//!
//! The bound above assumes any shard may emit at its next due event. A
//! shard that knows it cannot emit before some instant `emit_s` tightens
//! it. Shard `s` emits only while processing an event, so at a time `t >=
//! due_s`, and by assumption at `t >= emit_s`; its message is received at
//! `t + lookahead >= max(due_s, emit_s) + lookahead`. Hence the grant
//!
//! ```text
//! grant = min over shards s with a due event and an emit bound of
//!         max(due_s, emit_s) + lookahead
//! ```
//!
//! (`SimTime::MAX` when no shard can emit) is again a stamp no message of
//! this window can undercut. A drained shard has no event to emit from, so
//! it adds no constraint whatever its `emit_s`. The bound must also survive
//! delivery: a received message may give its receiver new events, so the
//! receiver's `emit_s` must not depend on what it receives — a migrant
//! cannot make its receiver emit before the receiver's own `emit_s`. The
//! serving system meets this because a shard hands requests off only after
//! its own materialized crash schedule empties a tier, and nothing but
//! that schedule kills an instance.
//!
//! The earliest due event is always admitted: `grant >= due_s + lookahead
//! > min(next_due)` for every constraining shard, so the loop progresses.
//!
//! [`GrantClock`] encapsulates exactly that computation so the coordinator
//! and its tests share one definition of the window boundary.

use crate::time::{SimDur, SimTime};

/// One conservative synchronization window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantWindow {
    /// The horizon every shard is granted: shards may process events with
    /// stamps *strictly below* this instant.
    pub grant: SimTime,
    /// Inclusive stepping limit (`grant` minus one nanosecond): passing
    /// this to an inclusive `step_until` realizes the strict window, so a
    /// boundary event stamped exactly at `grant` — the earliest stamp a
    /// cross-shard message can carry — is never popped before the exchange.
    pub limit: SimTime,
}

/// Computes conservative grant windows from shard progress reports.
#[derive(Debug, Clone, Copy)]
pub struct GrantClock {
    lookahead: SimDur,
}

impl GrantClock {
    /// A clock with the given lookahead — the minimum timestamp increment
    /// of any cross-shard message. Clamped to at least one nanosecond so a
    /// window always admits the earliest due event and the loop progresses.
    pub fn new(lookahead: SimDur) -> GrantClock {
        GrantClock {
            lookahead: lookahead.max(SimDur::from_nanos(1)),
        }
    }

    /// The effective (clamped) lookahead.
    pub fn lookahead(&self) -> SimDur {
        self.lookahead
    }

    /// The next window given, per shard, its earliest pending event time
    /// (`None` for drained or halted shards) and the earliest instant it
    /// can emit a cross-shard message (`None` if it never can). Returns
    /// `None` when no shard has work, i.e. the run is over; the grant is
    /// [`SimTime::MAX`] when no shard with work can ever emit.
    pub fn next_window<I>(&self, shards: I) -> Option<GrantWindow>
    where
        I: IntoIterator<Item = (Option<SimTime>, Option<SimTime>)>,
    {
        let mut busy = false;
        let mut grant = SimTime::MAX;
        for (due, emit) in shards {
            let Some(due) = due else { continue };
            busy = true;
            if let Some(emit) = emit {
                grant = grant.min(due.max(emit) + self.lookahead);
            }
        }
        busy.then(|| GrantWindow {
            grant,
            limit: SimTime::from_nanos(grant.as_nanos().saturating_sub(1)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A shard that can emit from its first event on.
    fn any(due: u64) -> (Option<SimTime>, Option<SimTime>) {
        (Some(t(due)), Some(t(0)))
    }

    #[test]
    fn grant_is_min_due_plus_lookahead() {
        let clock = GrantClock::new(SimDur::from_nanos(100));
        let w = clock
            .next_window([any(50), (None, Some(t(0))), any(30), any(500)])
            .unwrap();
        assert_eq!(w.grant, t(130));
        assert_eq!(w.limit, t(129), "window is strict: boundary excluded");
    }

    #[test]
    fn grant_is_the_min_of_max_due_emit_plus_lookahead() {
        let clock = GrantClock::new(SimDur::from_nanos(100));
        // max(due, emit) per shard: 900, 400, 600 → grant 400 + 100. The
        // shard due earliest (30) is not the one that bounds the grant.
        let w = clock
            .next_window([
                (Some(t(30)), Some(t(900))),
                (Some(t(400)), Some(t(250))),
                (Some(t(50)), Some(t(600))),
                (Some(t(10)), None),
            ])
            .unwrap();
        assert_eq!(w.grant, t(500));
        assert_eq!(w.limit, t(499));
    }

    #[test]
    fn no_emitter_grants_to_the_end_of_time() {
        let clock = GrantClock::new(SimDur::from_secs(2));
        let w = clock
            .next_window([(Some(t(5)), None), (Some(t(7)), None), (None, None)])
            .unwrap();
        assert_eq!(w.grant, SimTime::MAX);
        assert_eq!(w.limit, t(u64::MAX - 1));
    }

    #[test]
    fn drained_shard_adds_no_constraint_whatever_its_emit_bound() {
        let clock = GrantClock::new(SimDur::from_nanos(100));
        let w = clock
            .next_window([(None, Some(t(0))), (Some(t(40)), Some(t(1_000)))])
            .unwrap();
        assert_eq!(w.grant, t(1_100));
        let w = clock
            .next_window([(None, Some(t(0))), (Some(t(40)), None)])
            .unwrap();
        assert_eq!(w.grant, SimTime::MAX);
    }

    #[test]
    fn emit_bound_near_the_end_of_time_saturates() {
        let clock = GrantClock::new(SimDur::from_secs(2));
        for emit in [u64::MAX, u64::MAX - 1, u64::MAX - 1_000_000_000] {
            let w = clock.next_window([(Some(t(3)), Some(t(emit)))]).unwrap();
            assert_eq!(w.grant, SimTime::MAX, "emit {emit}");
            assert_eq!(w.limit, t(u64::MAX - 1), "emit {emit}");
        }
    }

    #[test]
    fn all_drained_means_done() {
        let clock = GrantClock::new(SimDur::from_nanos(100));
        assert_eq!(clock.next_window([(None, None), (None, Some(t(3)))]), None);
        assert_eq!(clock.next_window(std::iter::empty()), None);
    }

    #[test]
    fn zero_lookahead_is_clamped_for_progress() {
        let clock = GrantClock::new(SimDur::ZERO);
        assert_eq!(clock.lookahead(), SimDur::from_nanos(1));
        let w = clock.next_window([any(10)]).unwrap();
        // The earliest due event itself is always admitted.
        assert_eq!(w.limit, t(10));
    }

    #[test]
    fn window_always_admits_the_earliest_event() {
        for la in [1u64, 7, 1_000, 2_000_000_000] {
            let clock = GrantClock::new(SimDur::from_nanos(la));
            for emit in [None, Some(t(0)), Some(t(43)), Some(t(u64::MAX))] {
                for other in [None, Some(t(42)), Some(t(10_000))] {
                    let w = clock
                        .next_window([(Some(t(42)), emit), (other, Some(t(0)))])
                        .unwrap();
                    assert!(w.limit >= t(42), "lookahead {la} emit {emit:?}");
                    assert!(w.grant > t(42), "lookahead {la} emit {emit:?}");
                }
            }
        }
    }
}
