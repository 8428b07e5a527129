//! Retained-KV bookkeeping for agentic sessions.
//!
//! When session affinity is on, a finished turn's KV is not freed: it is
//! re-labeled under the session's reserved handle (bit 63 of the
//! [`RequestId`] space, which real trace ids never reach) and stays in
//! whichever [`aegaeon_engine::KvCache`] held it — on the decoding GPU when
//! the unified cache has headroom, spilled into the node's CPU cache
//! otherwise. The `SessionBook` maps each session to that retained
//! prefix; the next turn *claims* it at prefill routing time and absorbs it
//! into its own KV entry, prefilling only the fresh delta. The book is the
//! only record of a claim: the request holds none.
//!
//! Invariant: per session, at most one of {book entry, outstanding claim}
//! exists at any instant — an entry is removed the moment a turn claims it,
//! and a new entry may only be inserted once no claim is outstanding. This
//! is what keeps the reserved handle unique across every cache and lets the
//! KV double-entry audit treat retained prefixes as ordinary holdings.

use std::collections::BTreeMap;

use aegaeon_model::ModelId;
use aegaeon_sim::SimTime;
use aegaeon_workload::{RequestId, SessionId};

/// Where a session's retained KV prefix lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SessPlace {
    /// Resident in decoding instance `di`'s unified GPU cache.
    DecodeGpu(u32),
    /// Spilled into node `node`'s unified CPU cache.
    Cpu(u32),
}

/// One retained session prefix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessEntry {
    /// The session's (single) model; a claim requires an exact match.
    pub(crate) model: ModelId,
    /// Tokens of conversation KV retained under the handle.
    pub(crate) tokens: u32,
    /// Which cache holds the handle's blocks.
    pub(crate) place: SessPlace,
    /// When the turn that produced this prefix retired (TTL base).
    pub(crate) retained_at: SimTime,
    /// Event guarding an in-flight GPU→CPU spill copy; the entry is not
    /// claimable until the copy lands (the CPU blocks are still filling).
    pub(crate) guard: Option<aegaeon_gpu::EventId>,
}

/// An unabsorbed claim on a session's retained KV prefix: the claimant
/// prefills only its delta and merges the retained blocks into its own KV
/// entry at the first point both live in the same cache (the decode GPU at
/// swap-in for GPU-resident prefixes, the node CPU cache at offload for
/// spilled ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PrefixClaim {
    /// The turn holding the claim.
    pub(crate) claimant: RequestId,
    /// Retained tokens the claim covers (≤ the claimant's prefix tokens).
    pub(crate) tokens: u32,
    /// Cache currently holding the session handle's blocks.
    pub(crate) src: SessPlace,
}

/// Session → retained prefix map, plus outstanding claims.
#[derive(Debug, Default)]
pub(crate) struct SessionBook {
    entries: BTreeMap<u64, SessEntry>,
    /// Sessions whose retained prefix an in-flight turn has claimed (entry
    /// removed; handle still live in some cache until the claimant absorbs
    /// or abandons it).
    claims: BTreeMap<u64, PrefixClaim>,
    /// Mutation epoch (see [`Self::epoch`]).
    epoch: u64,
}

impl SessionBook {
    /// The reserved [`RequestId`] a session's retained KV is keyed under.
    pub(crate) fn handle(s: SessionId) -> RequestId {
        RequestId(1u64 << 63 | s.0)
    }

    /// True if `id` is a session handle rather than a real request id.
    pub(crate) fn is_handle(id: RequestId) -> bool {
        id.0 & (1u64 << 63) != 0
    }

    /// The session a handle belongs to.
    pub(crate) fn session_of(id: RequestId) -> SessionId {
        SessionId(id.0 & !(1u64 << 63))
    }

    /// Retained entry for a session, if any.
    pub(crate) fn get(&self, s: SessionId) -> Option<&SessEntry> {
        self.entries.get(&s.0)
    }

    /// Inserts a retained entry (the caller must have freed/claimed any
    /// predecessor; see the module invariant).
    pub(crate) fn insert(&mut self, s: SessionId, e: SessEntry) {
        debug_assert!(
            !self.claims.contains_key(&s.0),
            "retaining {s} while a claim is outstanding"
        );
        self.entries.insert(s.0, e);
        self.epoch += 1;
    }

    /// Removes and returns a session's entry.
    pub(crate) fn remove(&mut self, s: SessionId) -> Option<SessEntry> {
        let e = self.entries.remove(&s.0);
        self.epoch += e.is_some() as u64;
        e
    }

    /// Turns a session's retained entry into `req`'s claim on it.
    ///
    /// # Panics
    ///
    /// Panics if the session retains nothing.
    pub(crate) fn claim(&mut self, s: SessionId, req: RequestId) {
        let e = self.entries.remove(&s.0).expect("claiming a retained prefix");
        let claim = PrefixClaim {
            claimant: req,
            tokens: e.tokens,
            src: e.place,
        };
        self.claims.insert(s.0, claim);
        self.epoch += 1;
    }

    /// `req`'s outstanding claim on session `s`'s prefix; `None` for any
    /// other turn.
    pub(crate) fn claim_of(&self, s: SessionId, req: RequestId) -> Option<PrefixClaim> {
        self.claims.get(&s.0).filter(|c| c.claimant == req).copied()
    }

    /// Drops `req`'s outstanding claim on session `s`'s prefix (absorbed or
    /// abandoned) and returns it; `None`, changing nothing, if `req` holds
    /// none.
    pub(crate) fn unclaim(&mut self, s: SessionId, req: RequestId) -> Option<PrefixClaim> {
        let c = self.claim_of(s, req)?;
        self.claims.remove(&s.0);
        self.epoch += 1;
        Some(c)
    }

    /// The sessions and claimants of every claim on a prefix held at
    /// `place`, in session order.
    pub(crate) fn claims_at(&self, place: SessPlace) -> Vec<(SessionId, RequestId)> {
        let at = self.claims.iter().filter(|(_, c)| c.src == place);
        at.map(|(&k, c)| (SessionId(k), c.claimant)).collect()
    }

    /// True while some in-flight turn holds this session's prefix.
    pub(crate) fn is_claimed(&self, s: SessionId) -> bool {
        self.claims.contains_key(&s.0)
    }

    /// Mutation epoch: bumped by every call that changes an entry or a
    /// claim. While it stands still, the auditor re-runs a book's session
    /// cross-check only when the book's touch log names a session handle.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when nothing is retained.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in deterministic (session-id) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SessionId, &SessEntry)> {
        self.entries.iter().map(|(&k, e)| (SessionId(k), e))
    }

    /// Removes every entry stored at `place` (instance death) and returns
    /// them; the KV itself died with the holder, so nothing is freed here.
    pub(crate) fn drain_place(&mut self, place: SessPlace) -> Vec<(SessionId, SessEntry)> {
        let gone: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.place == place)
            .map(|(&k, _)| k)
            .collect();
        self.epoch += !gone.is_empty() as u64;
        gone.into_iter()
            .map(|k| (SessionId(k), self.entries.remove(&k).expect("just listed")))
            .collect()
    }

    /// Sessions idle past `ttl` at `now`, in deterministic order.
    pub(crate) fn expired(&self, now: SimTime, ttl: aegaeon_sim::SimDur) -> Vec<SessionId> {
        self.entries
            .iter()
            .filter(|(_, e)| now.saturating_since(e.retained_at) > ttl)
            .map(|(&k, _)| SessionId(k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_sim::SimDur;

    fn entry(place: SessPlace, at: f64) -> SessEntry {
        SessEntry {
            model: ModelId(0),
            tokens: 100,
            place,
            retained_at: SimTime::from_secs_f64(at),
            guard: None,
        }
    }

    #[test]
    fn handles_are_disjoint_from_trace_ids() {
        let h = SessionBook::handle(SessionId(42));
        assert!(SessionBook::is_handle(h));
        assert!(!SessionBook::is_handle(RequestId(42)));
        assert_eq!(SessionBook::session_of(h), SessionId(42));
    }

    #[test]
    fn only_the_claimant_sees_its_claim() {
        let mut b = SessionBook::default();
        let (s, turn, next) = (SessionId(3), RequestId(9), RequestId(10));
        b.insert(s, entry(SessPlace::DecodeGpu(1), 0.0));
        b.claim(s, turn);
        assert!(b.is_claimed(s));
        assert!(b.get(s).is_none(), "the entry became the claim");
        let c = b.claim_of(s, turn).expect("the claimant sees its claim");
        assert_eq!((c.claimant, c.tokens, c.src), (turn, 100, SessPlace::DecodeGpu(1)));
        assert_eq!(b.claim_of(s, next), None, "another turn sees none");
        assert_eq!(b.claim_of(SessionId(4), turn), None);
        assert_eq!(b.unclaim(s, next), None, "another turn cannot drop it");
        assert!(b.is_claimed(s));
        assert_eq!(b.unclaim(s, turn), Some(c));
        assert!(!b.is_claimed(s) && b.claim_of(s, turn).is_none());
    }

    #[test]
    fn claims_at_a_place_list_in_session_order() {
        let mut b = SessionBook::default();
        for (s, place) in [(7, SessPlace::Cpu(0)), (2, SessPlace::Cpu(0)), (5, SessPlace::Cpu(1))] {
            b.insert(SessionId(s), entry(place, 0.0));
            b.claim(SessionId(s), RequestId(s * 10));
        }
        b.insert(SessionId(1), entry(SessPlace::Cpu(0), 0.0));
        let at = b.claims_at(SessPlace::Cpu(0));
        let want = [(SessionId(2), RequestId(20)), (SessionId(7), RequestId(70))];
        assert_eq!(at, want, "unclaimed entries and other places are left out");
        assert_eq!(b.claims_at(SessPlace::Cpu(1)), [(SessionId(5), RequestId(50))]);
        assert!(b.claims_at(SessPlace::DecodeGpu(0)).is_empty());
    }

    #[test]
    fn epoch_counts_changes_not_calls() {
        let mut b = SessionBook::default();
        let s = SessionId(5);
        let e0 = b.epoch();
        assert!(b.remove(s).is_none());
        assert!(b.unclaim(s, RequestId(1)).is_none());
        assert!(b.drain_place(SessPlace::Cpu(0)).is_empty());
        assert_eq!(b.epoch(), e0, "no-op calls leave the epoch alone");
        b.insert(s, entry(SessPlace::Cpu(0), 0.0));
        assert_eq!(b.epoch(), e0 + 1);
        b.claim(s, RequestId(1));
        assert_eq!(b.epoch(), e0 + 2, "taking a claim moves it once");
        assert!(b.unclaim(s, RequestId(2)).is_none());
        assert_eq!(b.epoch(), e0 + 2, "another turn's drop is a no-op");
        b.unclaim(s, RequestId(1));
        assert_eq!(b.epoch(), e0 + 3, "dropping a claim moves it once");
        b.insert(s, entry(SessPlace::Cpu(0), 0.0));
        b.remove(s);
        b.insert(s, entry(SessPlace::Cpu(0), 0.0));
        b.drain_place(SessPlace::Cpu(0));
        assert_eq!(b.epoch(), e0 + 7);
    }

    #[test]
    fn drain_place_and_expiry() {
        let mut b = SessionBook::default();
        b.insert(SessionId(1), entry(SessPlace::DecodeGpu(0), 0.0));
        b.insert(SessionId(2), entry(SessPlace::Cpu(0), 5.0));
        b.insert(SessionId(3), entry(SessPlace::DecodeGpu(0), 9.0));
        let gone = b.drain_place(SessPlace::DecodeGpu(0));
        assert_eq!(
            gone.iter().map(|(s, _)| s.0).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(b.entries.len(), 1);
        let ex = b.expired(SimTime::from_secs_f64(20.0), SimDur::from_secs(10));
        assert_eq!(ex, vec![SessionId(2)]);
        assert!(b
            .expired(SimTime::from_secs_f64(10.0), SimDur::from_secs(10))
            .is_empty());
    }
}
