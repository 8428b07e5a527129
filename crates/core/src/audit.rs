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

use aegaeon_sim::SimTime;
use std::fmt;

use crate::runtime::Requests;

/// Read-only view a serving system exposes to the auditor.
pub trait AuditView {
    /// The request table: per-request progress, the last event's progress
    /// log and the completed/rejected/migrated counters, which the auditor
    /// cross-checks against per-request state.
    fn requests(&self) -> &Requests;
    /// Number of memory books: one per KV cache, together with the move
    /// list parking its blocks (0 for a view without KV accounting).
    fn book_count(&self) -> usize {
        0
    }
    /// Mutation epoch of book `i`. It must strictly increase whenever
    /// anything [`Self::book_audit`] reads for book `i` changes, so an
    /// unchanged epoch guarantees an unchanged verdict and the auditor
    /// skips the book.
    fn book_epoch(&self, _i: usize) -> u64 {
        0
    }
    /// Deep-checks book `i` (slab and block ledgers, session cross-entries);
    /// `Some(description)` on violation.
    fn book_audit(&self, _i: usize) -> Option<String> {
        None
    }
    /// Deep-checks bandwidth conservation on every fabric link;
    /// `Some(description)` on violation.
    fn link_audit(&self) -> Option<String> {
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
    /// Events audited, the final sweep included. Causality, conservation
    /// and the requests an event logged are checked after every one; the
    /// memory/link books after every one only up to
    /// [`InvariantAuditor::FULL_SCAN_MAX`] requests, and every
    /// `InvariantAuditor::BOOKS_EVERY` events above it.
    pub events_checked: u64,
    /// Per-request checks, summed over events: one per logged token, plus
    /// every request in the final sweep.
    pub requests_checked: u64,
    /// Memory books deep-checked, summed over events: only books whose
    /// epoch moved since their last clean check, plus every book at finish.
    pub books_checked: u64,
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
                "audit ok ({} events audited, {} request checks, {} book audits)",
                self.events_checked, self.requests_checked, self.books_checked
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
/// 5. **Memory accounting** — delegated to [`AuditView::book_audit`]
///    per KV book (every block of an assigned slab is exactly once free or
///    held, per-slab used counts equal holdings, retained session prefixes
///    are backed and owned). A book is re-checked only when its
///    [`AuditView::book_epoch`] moved since it last passed: an event
///    touches one or two caches, so re-auditing all of them after every
///    event would cost O(books × blocks) for nothing. A failed book stays
///    due until it passes.
/// 6. **Bandwidth conservation** — delegated to [`AuditView::link_audit`]
///    (per-link started = delivered + in-flight; delivered never exceeds
///    nominal capacity × busy time).
///
/// # Scaling
///
/// Request work is proportional to what an event changed. The token-level
/// invariants (2–4) can only move when a request produces a token, and
/// every token goes through [`Requests::push_token`], which logs the
/// request in the table's progress log ([`Requests::progressed`]). After
/// each event the auditor checks exactly the logged requests against their
/// high-water marks (a request logged twice is simply checked twice) and
/// keeps the number of done requests incrementally, so the exact
/// `completed == done-requests` cross-count runs after every event at any
/// request count. The final sweep at finish re-checks every request, so a
/// change that bypassed the log is still caught, only later.
///
/// The memory/link book audits run after every event up to
/// [`InvariantAuditor::FULL_SCAN_MAX`] requests and every
/// `InvariantAuditor::BOOKS_EVERY` events above it (still skipping books
/// whose epoch has not moved), plus once at finish. All of this is
/// deterministic (purely event-count driven) and observer-only.
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
    /// Events since the last memory/link book audit above
    /// [`InvariantAuditor::FULL_SCAN_MAX`] requests.
    since_books: u32,
    /// Per memory book, the epoch at which it last audited clean (`None`
    /// until its first clean audit, and again after a failed one).
    clean_at: Vec<Option<u64>>,
}

/// What the auditor last saw of one request.
#[derive(Debug, Clone, Copy, Default)]
struct Seen {
    produced: u32,
    tokens: usize,
    done: bool,
}

impl InvariantAuditor {
    /// Largest request count whose memory/link books are audited after
    /// every event.
    pub const FULL_SCAN_MAX: usize = 2048;
    /// Event cadence of the memory/link book audits above
    /// [`Self::FULL_SCAN_MAX`] requests.
    pub(crate) const BOOKS_EVERY: u32 = 256;

    /// A fresh auditor.
    pub fn new() -> Self {
        InvariantAuditor {
            max_violations: 64,
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
            for &i in reqs.progressed() {
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

        if finish || n <= Self::FULL_SCAN_MAX {
            self.audit_books(now, view, finish);
        } else {
            self.since_books += 1;
            if self.since_books >= Self::BOOKS_EVERY {
                self.since_books = 0;
                self.audit_books(now, view, false);
            }
        }
    }

    /// Deep-checks the memory books whose epoch moved since they last
    /// passed (every book when `all`), then every link.
    fn audit_books(&mut self, now: SimTime, view: &dyn AuditView, all: bool) {
        let n = view.book_count();
        self.clean_at.resize(n, None);
        for i in 0..n {
            let epoch = view.book_epoch(i);
            if !all && self.clean_at[i] == Some(epoch) {
                continue;
            }
            self.report.books_checked += 1;
            self.clean_at[i] = match view.book_audit(i) {
                None => Some(epoch),
                Some(what) => {
                    self.flag(now, format!("memory: {what}"));
                    None
                }
            };
        }
        if let Some(what) = view.link_audit() {
            self.flag(now, format!("bandwidth: {what}"));
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
        // Only the newly appended timestamps need checking; the prefix
        // was validated on earlier events.
        let start = seen.tokens.saturating_sub(1).min(r.token_times.len());
        for w in r.token_times[start..].windows(2) {
            if w[1] < w[0] {
                self.flag(
                    now,
                    format!(
                        "token order: request {i} timestamps go backwards ({:.6}s after {:.6}s)",
                        w[1].as_secs_f64(),
                        w[0].as_secs_f64()
                    ),
                );
            }
        }
        if let Some(&last) = r.token_times.last() {
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

    fn take_report(&mut self) -> AuditReport {
        std::mem::take(&mut self.report)
    }
}

/// Standalone helper shared with the unified schedulers: checks one
/// request's token timestamps are nondecreasing. Returns `Some(description)`
/// on the first violation.
pub(crate) fn check_token_order(req_idx: usize, token_times: &[SimTime]) -> Option<String> {
    for w in token_times.windows(2) {
        if w[1] < w[0] {
            return Some(format!(
                "request {req_idx}: token at {:.6}s precedes token at {:.6}s",
                w[1].as_secs_f64(),
                w[0].as_secs_f64()
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::reqstate::ReqState;
    use aegaeon_workload::RequestId;

    /// Hand-rolled view for exercising the auditor without a full system.
    struct FakeView {
        reqs: Requests,
        /// One memory book: its epoch and verdict.
        mem_epoch: u64,
        mem: Option<String>,
        link: Option<String>,
    }

    impl AuditView for FakeView {
        fn requests(&self) -> &Requests {
            &self.reqs
        }
        fn book_count(&self) -> usize {
            1
        }
        fn book_epoch(&self, _i: usize) -> u64 {
            self.mem_epoch
        }
        fn book_audit(&self, _i: usize) -> Option<String> {
            self.mem.clone()
        }
        fn link_audit(&self) -> Option<String> {
            self.link.clone()
        }
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
        FakeView {
            reqs,
            mem_epoch: 0,
            mem: None,
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
        worse.reqs[0].token_times.pop();
        a.after_event(t(2.5), &worse);
        let report = a.take_report();
        assert!(report
            .violations
            .iter()
            .any(|v| v.what.contains("regressed")));

        let mut a = InvariantAuditor::new();
        let mut bad = clean_view();
        bad.reqs[0].token_times = vec![t(2.0), t(1.0)];
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
        v.reqs[3].token_times.clear();
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
        v.reqs[0].token_times.pop();
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
        v.mem = Some("slab 3 double-assigned".into());
        v.link = Some("link pcie0 over capacity".into());
        a.after_event(t(3.0), &v);
        let report = a.take_report();
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations[0].what.starts_with("memory:"));
        assert!(report.violations[1].what.starts_with("bandwidth:"));
    }

    #[test]
    fn books_are_rechecked_only_when_their_epoch_moves() {
        let mut a = InvariantAuditor::new();
        let mut v = clean_view();
        for i in 0..5 {
            a.after_event(t(2.0 + i as f64), &v);
        }
        assert_eq!(a.report.books_checked, 1, "unchanged book audited once");
        // A corruption that did not move the epoch would go unseen until
        // finish; one that moved it is caught on the next event.
        v.mem = Some("block held twice".into());
        a.after_event(t(8.0), &v);
        assert!(a.report.ok());
        v.mem_epoch += 1;
        a.after_event(t(9.0), &v);
        assert_eq!(a.report.violations.len(), 1);
        // A failed book stays due on every event until it passes.
        a.after_event(t(10.0), &v);
        assert_eq!(a.report.violations.len(), 2);
        v.mem = None;
        a.after_event(t(11.0), &v);
        a.after_event(t(12.0), &v);
        assert_eq!(a.report.books_checked, 4);
        // The final sweep audits every book, moved or not.
        produce(&mut v, 1, 12.0);
        produce(&mut v, 1, 12.5);
        v.reqs.completed = 2;
        a.at_finish(t(13.0), &v);
        let report = a.take_report();
        assert_eq!(report.books_checked, 5);
        assert_eq!(report.violations.len(), 2, "{report}");
    }

    #[test]
    fn violation_count_is_capped() {
        let mut a = InvariantAuditor::new();
        let mut v = clean_view();
        v.mem = Some("boom".into());
        for i in 0..1000 {
            a.after_event(t(i as f64), &v);
        }
        let report = a.take_report();
        assert_eq!(report.violations.len(), 64);
        assert_eq!(report.events_checked, 1000);
    }

    #[test]
    fn check_token_order_helper() {
        assert!(check_token_order(0, &[]).is_none());
        assert!(check_token_order(
            0,
            &[SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(1.0)]
        )
        .is_none());
        assert!(check_token_order(
            7,
            &[SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(1.0)]
        )
        .unwrap()
        .contains("request 7"));
    }
}
