//! Generation stamps for invalidating in-flight timer events.
//!
//! A discrete-event heap cannot cheaply remove events, so components that
//! reschedule deadlines (e.g. a bandwidth link whose earliest completion
//! changes whenever a flow joins) attach a generation number to every timer
//! they schedule. When the timer fires, a stale generation means the timer
//! was superseded and is ignored.

/// A monotonically increasing generation counter.
#[derive(Debug, Clone, Default)]
pub(crate) struct Stamp {
    cur: u64,
}

impl Stamp {
    /// Creates a counter at generation zero.
    pub(crate) fn new() -> Self {
        Stamp::default()
    }

    /// Invalidates all previously issued generations and returns the new one.
    pub(crate) fn bump(&mut self) -> u64 {
        self.cur += 1;
        self.cur
    }

    /// True if `g` is the live generation (i.e. the timer is not stale).
    pub(crate) fn is_current(&self, g: u64) -> bool {
        self.cur == g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_invalidates_older_generations() {
        let mut s = Stamp::new();
        let g1 = s.bump();
        assert!(s.is_current(g1));
        let g2 = s.bump();
        assert!(!s.is_current(g1));
        assert!(s.is_current(g2));
        assert_eq!(s.cur, g2);
    }
}
