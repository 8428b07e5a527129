//! Always-on invariant auditor.
//!
//! Chaos testing is only meaningful if violations are *detected*, not just
//! survived. The [`Auditor`] trait hooks into the serving systems' dispatch
//! loops — Aegaeon's and the baselines' — and is consulted after every
//! dispatched event. When auditing is disabled the hook is a single branch
//! on a `None` option, the same discipline as lazy tracing: the hot path
//! pays nothing.
//!
//! Systems expose their auditable state through [`AuditView`], a read-only
//! facade, which keeps the auditor strictly an *observer*: it can never
//! perturb scheduling, so a run with the auditor on produces bit-identical
//! results to a run with it off (a differential test asserts this).

use aegaeon_engine::KvCache;
use aegaeon_mem::SlabShadow;
use aegaeon_metrics::TokenTimes;
use aegaeon_sim::SimTime;
use std::fmt;

use crate::runtime::Requests;
use crate::sessionbook::SessionBook;

/// One memory book: a unified KV cache. Its ledger is the cache's slab
/// pool on one side and, on the other, every request's block list plus
/// every batch the cache parks behind an in-flight copy (§5.3).
#[derive(Clone, Copy)]
pub struct Book<'a> {
    /// "prefill", "decode" or "node" (names the book in messages).
    pub(crate) kind: &'static str,
    /// Index within that kind.
    pub(crate) idx: usize,
    /// The cache.
    pub kv: &'a KvCache,
}

impl fmt::Display for Book<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} kv", self.kind, self.idx)
    }
}

impl Book<'_> {
    /// Dense double entry over the whole ledger ([`KvCache::audit`]):
    /// `Some(description)` on violation.
    pub fn audit(&self) -> Option<String> {
        self.kv.audit().map(|e| format!("{self}: {e}"))
    }

    /// Replays the last event's touch log onto `shadow` and checks what it
    /// touched; the block allocations and frees replayed, or the first
    /// violation.
    fn check(&self, shadow: &mut SlabShadow) -> Result<usize, String> {
        self.kv
            .check_touches(shadow)
            .map_err(|e| format!("{self}: {e}"))
    }

    /// True if the last event gave or took blocks of a session handle.
    fn names_session(&self) -> bool {
        self.kv
            .touches()
            .any(|(key, ..)| key.is_some_and(SessionBook::is_handle))
    }
}

/// Read-only view a serving system exposes to the auditor.
pub trait AuditView {
    /// The request table: per-request progress, the last event's progress
    /// log and the completed/rejected/migrated counters, which the auditor
    /// cross-checks against per-request state.
    fn requests(&self) -> &Requests;
    /// Visits each memory book `(i, book)`, in index order: every book
    /// when `all`, else only the books whose touch logs are non-empty. A
    /// book's touch logs must hold every change the last event made to its
    /// ledger. A view without KV accounting has no books.
    fn books(&self, _all: bool, _visit: &mut dyn FnMut(usize, Book<'_>)) {}
    /// Mutation epoch of the session book: it moves whenever a retained
    /// prefix or an outstanding claim is added or removed.
    fn sessions_epoch(&self) -> u64 {
        0
    }
    /// Cross-checks book `i` against the session book (retained prefixes
    /// are backed, held session handles are owned); `Some(description)` on
    /// violation.
    fn sessions_audit(&self, _i: usize) -> Option<String> {
        None
    }
    /// Deep-checks bandwidth conservation on every fabric link when `all`,
    /// else on the links the last event touched; `Some(description)` on
    /// violation.
    fn link_audit(&self, _all: bool) -> Option<String> {
        None
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Simulated time of the event after which the check failed.
    pub(crate) at: SimTime,
    /// Human-readable description.
    pub(crate) what: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t={:.6}s] {}", self.at.as_secs_f64(), self.what)
    }
}

/// Outcome of an audited run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Events audited, the final sweep included. Every check runs after
    /// every one, at any request count.
    pub events_checked: u64,
    /// Per-request checks, summed over events: one per logged token, plus
    /// every request in the final sweep.
    pub requests_checked: u64,
    /// Memory books checked, summed over events: the books whose touch
    /// logs were non-empty, plus one dense pass per book when its shadow is
    /// seeded (first event, or after a violation) and every book at finish.
    pub books_checked: u64,
    /// Block allocations and frees checked, summed over events: every one
    /// the books' slab pools logged during audited events.
    pub blocks_checked: u64,
    /// All violations, in detection order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            write!(
                f,
                "audit ok ({} events audited, {} request checks, {} book audits, {} block checks)",
                self.events_checked, self.requests_checked, self.books_checked, self.blocks_checked
            )
        } else {
            writeln!(
                f,
                "audit FAILED: {} violation(s) over {} audited events:",
                self.violations.len(),
                self.events_checked
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Observer invoked by a serving system's dispatch loop.
pub trait Auditor {
    /// Called after every dispatched event with the post-event state.
    fn after_event(&mut self, now: SimTime, view: &dyn AuditView);
    /// Called once when the run drains.
    fn at_finish(&mut self, now: SimTime, view: &dyn AuditView);
    /// The report accumulated so far (read-only).
    fn report(&self) -> &AuditReport;
    /// Consumes the accumulated report.
    fn take_report(&mut self) -> AuditReport;
}

/// The standard invariant suite:
///
/// 1. **Causality** — observed event times never decrease.
/// 2. **Conservation** — no request is lost or double-completed: the
///    completion counter is monotone and always equals the number of
///    requests whose state says "done"; completed + rejected never exceeds
///    the trace size; at finish every request is accounted for.
/// 3. **Progress sanity** — per-request `produced` never regresses and
///    never exceeds the oracle target; one timestamp per token.
/// 4. **Token monotonicity** — per-token timestamps are nondecreasing and
///    never in the future.
/// 5. **Memory accounting** — per KV [`Book`]: every block of an assigned
///    slab is exactly once free or held, in a slab of its shape; per-slab
///    used counts equal holdings; per shape, used + free equals capacity.
///    Per book, [`AuditView::sessions_audit`] checks that retained session
///    prefixes are backed and held session handles owned.
/// 6. **Bandwidth conservation** — delegated to [`AuditView::link_audit`]
///    (per-link started = delivered + in-flight; delivered never exceeds
///    nominal capacity × busy time).
///
/// # Scaling
///
/// Every check costs what the event changed, so each one runs after every
/// event at any request count.
///
/// *Requests.* The token-level invariants (2–4) can only move when a
/// request produces a token, and every token goes through
/// [`Requests::push_token`], which logs the request in the table's progress
/// log ([`Requests::progressed`]). After each event the auditor checks
/// exactly the logged requests against their high-water marks (a request
/// logged twice is simply checked twice) and keeps the number of done
/// requests incrementally, so the exact `completed == done-requests`
/// cross-count runs after every event. The final sweep at finish re-checks
/// every request, so a change that bypassed the log is still caught, only
/// later.
///
/// *Memory books.* An event touches a few blocks of one or two books. Each
/// book's slab pool logs every block it hands out or takes back and every
/// slab it assigns or releases; its cache logs every key that gains or
/// loses blocks and every batch it parks or releases. The
/// driver clears the logs before each event. Per book the auditor keeps a
/// [`SlabShadow`] — per block, the pool's side and the owner side — seeded
/// by one dense pass ([`Book::audit`]) on the first event it sees, so an
/// auditor installed mid-run starts from the state as it is. After each
/// event it replays the logs of every book whose logs are non-empty and
/// checks the double entry of each touched block, slab and shape. A
/// violation drops the shadow, so the book is dense-checked again on each
/// later event until it passes. The session cross-check of a book runs
/// when the session book's epoch moved or the book's log names a session
/// handle. At finish every book gets the dense pass, the oracle for the
/// incremental checks.
///
/// *Links.* The fabric marks every link whose books an event changed, and
/// only those are checked; every link is checked at finish.
///
/// All of this is deterministic (purely event driven) and observer-only.
#[derive(Debug, Default)]
pub struct InvariantAuditor {
    last_now: SimTime,
    last_completed: u64,
    /// Per-request high-water marks, as of each request's last check.
    seen: Vec<Seen>,
    /// Requests whose last check found them done.
    done: u64,
    report: AuditReport,
    /// Cap on recorded violations so a broken run cannot OOM the auditor.
    max_violations: usize,
    /// Per memory book, the shadow of its ledger (`None` until a dense pass
    /// seeds it, and again after a violation).
    shadows: Vec<Option<SlabShadow>>,
    /// True while some book may lack a shadow: every book is visited.
    unseeded: bool,
    /// The session book's epoch at the last event.
    sessions_epoch: Option<u64>,
}

/// What the auditor last saw of one request.
#[derive(Debug, Clone, Copy, Default)]
struct Seen {
    produced: u32,
    tokens: usize,
    done: bool,
}

impl InvariantAuditor {
    /// A request count that once split the auditor into two modes: above
    /// it, memory and link books were checked only every 256 events. Every
    /// check now runs after every event at any size, so it selects
    /// nothing; it remains only because the `observed` benchmark names its
    /// two traces by it.
    pub const FULL_SCAN_MAX: usize = 2048;

    /// A fresh auditor.
    pub fn new() -> Self {
        InvariantAuditor {
            max_violations: 64,
            unseeded: true,
            ..Default::default()
        }
    }

    fn flag(&mut self, at: SimTime, what: String) {
        if self.report.violations.len() < self.max_violations {
            self.report.violations.push(Violation { at, what });
        }
    }

    /// One audit pass: after an event, or the exhaustive sweep at `finish`.
    fn check(&mut self, now: SimTime, view: &dyn AuditView, finish: bool) {
        self.report.events_checked += 1;
        if now < self.last_now {
            self.flag(
                now,
                format!(
                    "causality: event at {:.6}s observed after {:.6}s",
                    now.as_secs_f64(),
                    self.last_now.as_secs_f64()
                ),
            );
        }
        self.last_now = self.last_now.max(now);

        let reqs = view.requests();
        let n = reqs.len();
        let completed = reqs.completed as u64;
        if completed < self.last_completed {
            self.flag(
                now,
                format!(
                    "conservation: completed counter regressed {} -> {}",
                    self.last_completed, completed
                ),
            );
        }
        self.last_completed = self.last_completed.max(completed);
        let (rejected, migrated) = (reqs.rejected, reqs.migrated);
        if completed as usize + rejected + migrated > n {
            self.flag(
                now,
                format!(
                    "conservation: completed {completed} + rejected {rejected} + migrated {migrated} exceeds trace size {n}"
                ),
            );
        }

        // Requests not seen before (admitted since the last pass, or all of
        // them for an auditor installed mid-run) enter the done count as
        // they are; their tokens are checked when logged, or at finish.
        for i in self.seen.len()..n {
            let done = reqs[i].is_done();
            self.done += done as u64;
            self.seen.push(Seen {
                done,
                ..Seen::default()
            });
        }
        if finish {
            for i in 0..n {
                self.check_request(now, reqs, i);
            }
        } else {
            for &(i, _) in reqs.progressed() {
                self.check_request(now, reqs, i);
            }
        }
        if completed != self.done {
            self.flag(
                now,
                format!(
                    "conservation: completed counter {completed} disagrees with {} done requests",
                    self.done
                ),
            );
        }

        self.audit_books(now, view, finish);
    }

    /// Checks the memory books the last event touched against their
    /// shadows (every book densely at `finish`), their session entries when
    /// due, then the links.
    fn audit_books(&mut self, now: SimTime, view: &dyn AuditView, finish: bool) {
        let epoch = view.sessions_epoch();
        let sessions_moved = self.sessions_epoch.replace(epoch) != Some(epoch);
        // Every book is visited at finish, and while any may lack a shadow
        // (the first event, or after a violation).
        let all = finish || self.unseeded;
        let Self {
            report,
            max_violations,
            shadows,
            unseeded,
            ..
        } = self;
        *unseeded = false;
        let mut flag = |what: String| {
            if report.violations.len() < *max_violations {
                report.violations.push(Violation { at: now, what });
            }
        };
        view.books(all, &mut |i, book| {
            if i >= shadows.len() {
                shadows.resize_with(i + 1, || None);
            }
            let shadow = &mut shadows[i];
            let verdict = match shadow {
                // The final sweep: the dense oracle. The last event's logs
                // were already replayed after it.
                _ if finish => {
                    report.books_checked += 1;
                    book.audit()
                }
                Some(sh) if book.kv.touched() => {
                    report.books_checked += 1;
                    match book.check(sh) {
                        Ok(blocks) => {
                            report.blocks_checked += blocks as u64;
                            None
                        }
                        Err(what) => Some(what),
                    }
                }
                Some(_) => None,
                // Seeding: the dense pass also covers this event's logs.
                None => {
                    report.books_checked += 1;
                    report.blocks_checked += book.kv.block_ops() as u64;
                    let verdict = book.audit();
                    if verdict.is_none() {
                        *shadow = Some(book.kv.shadow());
                    }
                    verdict
                }
            };
            if let Some(what) = verdict {
                *shadow = None;
                *unseeded = true;
                flag(format!("memory: {what}"));
            }
            if !(finish || sessions_moved) && book.names_session() {
                if let Some(what) = view.sessions_audit(i) {
                    flag(format!("memory: {what}"));
                }
            }
        });
        if finish || sessions_moved {
            for i in 0..shadows.len() {
                if let Some(what) = view.sessions_audit(i) {
                    flag(format!("memory: {what}"));
                }
            }
        }
        if let Some(what) = view.link_audit(finish) {
            flag(format!("bandwidth: {what}"));
        }
    }

    /// Validates request `i` against its high-water marks and moves the
    /// done count to its current state.
    fn check_request(&mut self, now: SimTime, reqs: &Requests, i: usize) {
        self.report.requests_checked += 1;
        let r = &reqs[i];
        let seen = self.seen[i];
        if r.produced < seen.produced {
            self.flag(
                now,
                format!(
                    "progress: request {i} produced regressed {} -> {}",
                    seen.produced, r.produced
                ),
            );
        }
        if r.produced > r.target_tokens {
            self.flag(
                now,
                format!(
                    "progress: request {i} produced {} beyond target {}",
                    r.produced, r.target_tokens
                ),
            );
        }
        if r.token_times.len() != r.produced as usize {
            self.flag(
                now,
                format!(
                    "progress: request {i} has {} token timestamps for {} produced tokens",
                    r.token_times.len(),
                    r.produced
                ),
            );
        }
        // Only the newly appended timestamps need checking, with the last
        // checked one before them; the prefix was validated on earlier
        // events. Walking them back from the last token costs one step per
        // new token.
        let len = r.token_times.len();
        let new = len - seen.tokens.saturating_sub(1).min(len);
        let mut later: Option<SimTime> = None;
        for t in r.token_times.iter().rev().take(new) {
            if let Some(l) = later.filter(|&l| l < t) {
                self.flag(
                    now,
                    format!(
                        "token order: request {i} timestamps go backwards ({:.6}s after {:.6}s)",
                        l.as_secs_f64(),
                        t.as_secs_f64()
                    ),
                );
            }
            later = Some(t);
        }
        if let Some(last) = r.token_times.last() {
            if r.token_times.len() > seen.tokens && last > now {
                self.flag(
                    now,
                    format!(
                        "token order: request {i} token stamped {:.6}s in the future of {:.6}s",
                        last.as_secs_f64(),
                        now.as_secs_f64()
                    ),
                );
            }
        }
        let done = r.is_done();
        self.done = self.done + done as u64 - seen.done as u64;
        self.seen[i] = Seen {
            produced: seen.produced.max(r.produced),
            tokens: seen.tokens.max(r.token_times.len()),
            done,
        };
    }
}

impl Auditor for InvariantAuditor {
    fn after_event(&mut self, now: SimTime, view: &dyn AuditView) {
        self.check(now, view, false);
    }

    fn at_finish(&mut self, now: SimTime, view: &dyn AuditView) {
        // The final sweep re-checks every request and every book.
        self.check(now, view, true);
        // End-of-run conservation: every request completed, rejected, or
        // handed off to another shard.
        let reqs = view.requests();
        if reqs.unresolved() > 0 {
            let (n, completed) = (reqs.len(), reqs.completed);
            let (rejected, migrated) = (reqs.rejected, reqs.migrated);
            self.flag(
                now,
                format!(
                    "conservation at finish: completed {completed} + rejected {rejected} + migrated {migrated} != trace size {n}"
                ),
            );
        }
    }

    fn report(&self) -> &AuditReport {
        &self.report
    }

    fn take_report(&mut self) -> AuditReport {
        std::mem::take(&mut self.report)
    }
}

/// Standalone helper shared with the unified schedulers: checks one
/// request's token timestamps are nondecreasing. Returns `Some(description)`
/// on the first violation.
pub(crate) fn check_token_order(req_idx: usize, token_times: &TokenTimes) -> Option<String> {
    let mut earlier: Option<SimTime> = None;
    for t in token_times {
        if let Some(e) = earlier.filter(|&e| t < e) {
            return Some(format!(
                "request {req_idx}: token at {:.6}s precedes token at {:.6}s",
                t.as_secs_f64(),
                e.as_secs_f64()
            ));
        }
        earlier = Some(t);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::cell::Cell;

    use crate::reqstate::ReqState;
    use aegaeon_engine::KvCacheConfig;
    use aegaeon_model::{ModelId, Zoo};
    use aegaeon_workload::RequestId;

    /// Hand-rolled view for exercising the auditor without a full system:
    /// one real memory book, a canned session and link verdict.
    struct FakeView {
        reqs: Requests,
        kv: KvCache,
        /// The session book's epoch and the calls of its cross-check.
        sessions_epoch: u64,
        sessions_audits: Cell<u32>,
        link: Option<String>,
    }

    impl AuditView for FakeView {
        fn requests(&self) -> &Requests {
            &self.reqs
        }
        fn books(&self, all: bool, visit: &mut dyn FnMut(usize, Book<'_>)) {
            let book = Book {
                kind: "fake",
                idx: 0,
                kv: &self.kv,
            };
            if all || book.kv.touched() {
                visit(0, book);
            }
        }
        fn sessions_epoch(&self) -> u64 {
            self.sessions_epoch
        }
        fn sessions_audit(&self, _i: usize) -> Option<String> {
            self.sessions_audits.set(self.sessions_audits.get() + 1);
            None
        }
        fn link_audit(&self, _all: bool) -> Option<String> {
            self.link.clone()
        }
    }

    /// The model every fake book registers.
    const M: ModelId = ModelId(0);

    /// Audits `v` after an event at `secs`, then clears its logs the way
    /// the driver does before the next event.
    fn event(a: &mut InvariantAuditor, v: &mut FakeView, secs: f64) {
        a.after_event(t(secs), v);
        v.reqs.clear_progress();
        v.kv.clear_touches();
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    /// A view over requests with the given output `targets`, none started,
    /// nothing logged.
    fn view(targets: &[u32]) -> FakeView {
        let mut reqs = Requests::default();
        for &target in targets {
            reqs.push(ReqState::new(SimTime::ZERO, 1, target));
        }
        let mut kv = KvCache::new(KvCacheConfig {
            capacity_bytes: 1 << 30,
            slab_bytes: 256 << 20,
            block_tokens: 16,
        });
        kv.register_model(M, Zoo::standard().get("Qwen-7B").unwrap());
        FakeView {
            reqs,
            kv,
            sessions_epoch: 0,
            sessions_audits: Cell::new(0),
            link: None,
        }
    }

    /// Logs one token of request `i` at `secs`.
    fn produce(v: &mut FakeView, i: usize, secs: f64) {
        v.reqs.push_token(RequestId(i as u64), t(secs));
    }

    /// Request 0 done at two tokens (1.0 s, 2.0 s), request 1 at one token
    /// of three (1.5 s); the last event logged request 0's second token and
    /// request 1's first.
    fn clean_view() -> FakeView {
        let mut v = view(&[2, 3]);
        produce(&mut v, 0, 1.0);
        v.reqs.clear_progress();
        produce(&mut v, 0, 2.0);
        produce(&mut v, 1, 1.5);
        v.reqs.completed = 1;
        v
    }

    #[test]
    fn clean_run_passes() {
        let mut a = InvariantAuditor::new();
        let v = clean_view();
        a.after_event(t(2.0), &v);
        a.after_event(t(3.0), &v);
        let mut done = clean_view();
        done.reqs.clear_progress();
        produce(&mut done, 1, 3.5);
        produce(&mut done, 1, 4.0);
        done.reqs.completed = 2;
        a.at_finish(t(4.0), &done);
        let report = a.take_report();
        assert!(report.ok(), "{report}");
        assert_eq!(report.events_checked, 3);
    }

    #[test]
    fn detects_time_regression() {
        let mut a = InvariantAuditor::new();
        let v = clean_view();
        a.after_event(t(5.0), &v);
        a.after_event(t(4.0), &v);
        let report = a.take_report();
        assert!(!report.ok());
        assert!(report.violations[0].what.contains("causality"), "{report}");
    }

    #[test]
    fn detects_lost_and_double_completed_requests() {
        let mut a = InvariantAuditor::new();
        let mut v = clean_view();
        v.reqs.completed = 2; // claims two done, state says one
        a.after_event(t(3.0), &v);
        assert!(!a.take_report().ok());

        let mut a = InvariantAuditor::new();
        let fin = clean_view(); // request 1 never completes
        a.at_finish(t(9.0), &fin);
        let report = a.take_report();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.what.contains("at finish")),
            "{report}"
        );
    }

    #[test]
    fn detects_produced_regression_and_token_disorder() {
        let mut a = InvariantAuditor::new();
        let v = clean_view();
        a.after_event(t(2.0), &v);
        let mut worse = clean_view();
        worse.reqs[0].produced = 1; // produced went backwards
        worse.reqs[0].token_times = worse.reqs[0].token_times.iter().take(1).collect();
        a.after_event(t(2.5), &worse);
        let report = a.take_report();
        assert!(report
            .violations
            .iter()
            .any(|v| v.what.contains("regressed")));

        let mut a = InvariantAuditor::new();
        let mut bad = clean_view();
        // The backward step is kept in the wide list.
        bad.reqs[0].token_times = [t(2.0), t(1.0)].into_iter().collect();
        a.after_event(t(3.0), &bad);
        let report = a.take_report();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.what.contains("token order")),
            "{report}"
        );
    }

    /// `n` requests of two tokens each, none started, nothing logged.
    fn idle_view(n: usize) -> FakeView {
        view(&vec![2; n])
    }

    #[test]
    fn done_count_is_exact_after_every_event_above_full_scan_max() {
        let mut a = InvariantAuditor::new();
        let mut v = idle_view(InvariantAuditor::FULL_SCAN_MAX + 1);
        produce(&mut v, 7, 1.0);
        a.after_event(t(1.0), &v);
        v.reqs.clear_progress();
        produce(&mut v, 7, 2.0); // request 7 finishes ...
        a.after_event(t(2.0), &v);
        // ... but the completion counter never moved: flagged on the event,
        // not at finish.
        let report = a.take_report();
        assert_eq!(report.violations.len(), 1, "{report}");
        assert!(report.violations[0].what.contains("disagrees"), "{report}");
        assert_eq!(report.requests_checked, 2, "one check per logged token");
    }

    #[test]
    fn logged_produced_regression_is_flagged_on_the_event() {
        let mut a = InvariantAuditor::new();
        let mut v = idle_view(InvariantAuditor::FULL_SCAN_MAX + 1);
        produce(&mut v, 3, 1.0);
        a.after_event(t(1.0), &v);
        // Two logged tokens, then a rollback below the first: the
        // duplicate log entry is harmless.
        v.reqs.clear_progress();
        produce(&mut v, 3, 2.0);
        produce(&mut v, 3, 2.0);
        v.reqs[3].produced = 0;
        v.reqs[3].token_times = TokenTimes::new();
        a.after_event(t(2.0), &v);
        let report = a.take_report();
        assert!(!report.ok());
        assert!(
            report
                .violations
                .iter()
                .all(|v| v.what.contains("regressed")),
            "{report}"
        );
    }

    #[test]
    fn unlogged_change_is_caught_by_the_finish_sweep() {
        let mut a = InvariantAuditor::new();
        let mut v = clean_view();
        a.after_event(t(2.0), &v);
        v.reqs[0].produced = 1; // produced went backwards without a log entry
        v.reqs[0].token_times = v.reqs[0].token_times.iter().take(1).collect();
        v.reqs.clear_progress();
        a.after_event(t(2.5), &v);
        assert!(a.report.ok(), "only logged requests are checked per event");
        a.at_finish(t(3.0), &v);
        let report = a.take_report();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.what.contains("regressed")),
            "{report}"
        );
        assert_eq!(
            report.requests_checked,
            2 + 2,
            "logged tokens + final sweep"
        );
    }

    #[test]
    fn surfaces_memory_and_link_violations() {
        let mut a = InvariantAuditor::new();
        let mut v = clean_view();
        v.kv.alloc(RequestId(0), M, 40).unwrap();
        event(&mut a, &mut v, 2.0);
        assert!(a.report.ok(), "{}", a.report);
        // The request's blocks leave it but never reach the pool: a leak.
        v.kv.leak(RequestId(0));
        v.link = Some("link pcie0 over capacity".into());
        event(&mut a, &mut v, 3.0);
        let report = a.take_report();
        assert_eq!(report.violations.len(), 2, "{report}");
        assert!(report.violations[0].what.starts_with("memory: fake 0 kv"));
        assert!(report.violations[0].what.contains("no holder holds it"));
        assert!(report.violations[1].what.starts_with("bandwidth:"));
    }

    #[test]
    fn books_are_checked_only_when_their_logs_are_non_empty() {
        let mut a = InvariantAuditor::new();
        let mut v = clean_view();
        v.kv.alloc(RequestId(0), M, 40).unwrap(); // 3 blocks
        for i in 0..5 {
            event(&mut a, &mut v, 2.0 + i as f64);
        }
        // The first event seeds the shadow with a dense pass, which covers
        // the blocks it allocated; idle events check nothing.
        assert_eq!((a.report.books_checked, a.report.blocks_checked), (1, 3));
        v.kv.extend(RequestId(0), 60).unwrap(); // one fresh block
        event(&mut a, &mut v, 7.0);
        assert_eq!((a.report.books_checked, a.report.blocks_checked), (2, 4));
        // A leak is flagged on its event, and the book is re-checked densely
        // on every event until it passes (here: once a fresh cache replaces
        // the leaky one).
        v.kv.leak(RequestId(0));
        event(&mut a, &mut v, 8.0);
        assert_eq!(a.report.violations.len(), 1);
        event(&mut a, &mut v, 9.0);
        assert_eq!(a.report.violations.len(), 2);
        v.kv = view(&[]).kv;
        event(&mut a, &mut v, 10.0);
        event(&mut a, &mut v, 11.0);
        assert_eq!(a.report.books_checked, 5);
        assert_eq!(a.report.violations.len(), 2, "{}", a.report);
        // The final sweep audits every book, touched or not.
        produce(&mut v, 1, 12.0);
        produce(&mut v, 1, 12.5);
        v.reqs.completed = 2;
        a.at_finish(t(13.0), &v);
        let report = a.take_report();
        assert_eq!(report.books_checked, 6);
        assert_eq!(report.violations.len(), 2, "{report}");
    }

    #[test]
    fn planted_book_violation_above_full_scan_max_is_flagged_on_its_event() {
        let mut a = InvariantAuditor::new();
        let mut v = idle_view(InvariantAuditor::FULL_SCAN_MAX + 1);
        v.kv.alloc(RequestId(5), M, 16).unwrap();
        v.kv.alloc(RequestId(6), M, 16).unwrap();
        event(&mut a, &mut v, 1.0);
        // Request 6's block goes back to the pool and out again, and
        // request 5's is leaked.
        v.kv.free(RequestId(6));
        v.kv.alloc(RequestId(6), M, 16).unwrap();
        v.kv.leak(RequestId(5));
        event(&mut a, &mut v, 2.0);
        let report = a.take_report();
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.violations[0].at, t(2.0), "{report}");
        assert!(report.violations[0].what.starts_with("memory:"), "{report}");
    }

    #[test]
    fn session_cross_checks_run_when_the_book_or_a_handle_moves() {
        let mut a = InvariantAuditor::new();
        let mut v = clean_view();
        let calls = |v: &FakeView| v.sessions_audits.get();
        event(&mut a, &mut v, 2.0);
        assert_eq!(calls(&v), 1, "first event");
        event(&mut a, &mut v, 3.0);
        v.kv.alloc(RequestId(0), M, 16).unwrap();
        event(&mut a, &mut v, 4.0);
        assert_eq!(calls(&v), 1, "idle and plain-request events skip it");
        v.sessions_epoch += 1;
        event(&mut a, &mut v, 5.0);
        assert_eq!(calls(&v), 2, "the session book moved");
        v.kv.rekey(
            RequestId(0),
            SessionBook::handle(aegaeon_workload::SessionId(7)),
        );
        event(&mut a, &mut v, 6.0);
        assert_eq!(calls(&v), 3, "the log names a session handle");
        a.at_finish(t(7.0), &v);
        assert_eq!(calls(&v), 4, "the final sweep");
    }

    #[test]
    fn violation_count_is_capped() {
        let mut a = InvariantAuditor::new();
        let mut v = clean_view();
        v.kv.alloc(RequestId(0), M, 16).unwrap();
        v.kv.leak(RequestId(0)); // leaked for good
        for i in 0..1000 {
            event(&mut a, &mut v, i as f64);
        }
        let report = a.take_report();
        assert_eq!(report.violations.len(), 64);
        assert_eq!(report.events_checked, 1000);
    }

    #[test]
    fn check_token_order_helper() {
        let times = |s: &[f64]| -> TokenTimes { s.iter().map(|&s| t(s)).collect() };
        assert!(check_token_order(0, &TokenTimes::new()).is_none());
        assert!(check_token_order(0, &times(&[1.0, 1.0])).is_none());
        assert!(check_token_order(7, &times(&[2.0, 1.0]))
            .unwrap()
            .contains("request 7"));
    }
}
