//! One request's token instants, delta-coded.
//!
//! Attainment is scored per token (§2.1, Figure 3: token `i` is due at
//! `arrival + TTFT + i·TBT`), so a run records the instant of every token
//! it produces, and that record is most of a run's memory. [`TokenTimes`]
//! keeps the first instant whole and each later one as a `u32` nanosecond
//! step from the one before: four bytes a token. A step that goes backwards,
//! or spans [`u32::MAX`] ns (≈ 4.29 s, e.g. a wait between quota rounds) or
//! more, is kept whole in a side list, in order, and its slot holds the
//! `WIDE` mark.
//!
//! Every reader walks the record in order, from either end: attainment and
//! the inter-token gaps walk it forward, the auditor walks a request's new
//! suffix back from the last token. Nothing indexes into it.

use std::fmt;
use std::mem::size_of;
use std::slice;

use aegaeon_sim::{SimDur, SimTime};

/// Step slot whose gap is kept whole in the side list.
const WIDE: u32 = u32::MAX;

/// A request's token instants, first included, in production order.
///
/// Every step is the wrapping difference of its two instants, so decoding
/// is exact for any instants. Only [`TokenTimes::gaps`] reads a step's
/// sign, which is right for instants below 2^63 ns (292 years): there a
/// backward step always wraps to a wide one.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TokenTimes {
    /// The first and last instants (`None` until the first token).
    ends: Option<(SimTime, SimTime)>,
    /// One slot per instant after the first: nanoseconds since the one
    /// before, or `WIDE`.
    steps: Vec<u32>,
    /// The gap of every `WIDE` slot, in order, as the wrapping difference
    /// of its two instants.
    wide: Vec<u64>,
}

impl TokenTimes {
    /// An empty record; allocates nothing.
    pub const fn new() -> TokenTimes {
        TokenTimes {
            ends: None,
            steps: Vec::new(),
            wide: Vec::new(),
        }
    }

    /// Reserves room for exactly `tokens` more instants, so a record sized
    /// once to its request's target never grows and holds no slack. Wide
    /// gaps still grow their own list.
    pub fn reserve_exact(&mut self, tokens: usize) {
        let steps = if self.ends.is_none() {
            tokens.saturating_sub(1)
        } else {
            tokens
        };
        self.steps.reserve_exact(steps);
    }

    /// Appends the instant of the next token.
    pub fn push(&mut self, t: SimTime) {
        let Some((_, last)) = &mut self.ends else {
            self.ends = Some((t, t));
            return;
        };
        let gap = t.as_nanos().wrapping_sub(last.as_nanos());
        match u32::try_from(gap) {
            Ok(step) if step != WIDE => self.steps.push(step),
            _ => {
                self.steps.push(WIDE);
                self.wide.push(gap);
            }
        }
        *last = t;
    }

    /// Instants recorded.
    pub fn len(&self) -> usize {
        self.steps.len() + usize::from(self.ends.is_some())
    }

    /// True before the first token.
    pub fn is_empty(&self) -> bool {
        self.ends.is_none()
    }

    /// The first token's instant.
    pub fn first(&self) -> Option<SimTime> {
        self.ends.map(|(first, _)| first)
    }

    /// The last token's instant.
    pub fn last(&self) -> Option<SimTime> {
        self.ends.map(|(_, last)| last)
    }

    /// Instants held without growing the step list: the first, kept
    /// inline, plus the list's room.
    pub fn capacity(&self) -> usize {
        self.steps.capacity() + 1
    }

    /// Gaps kept whole in the side list.
    pub fn wide_gaps(&self) -> usize {
        self.wide.len()
    }

    /// Bytes that hold instants: the first instant, once there is one,
    /// plus the allocated step and wide lists. The fixed header (the last
    /// instant, the list pointers) is not counted.
    pub fn stored_bytes(&self) -> usize {
        fn heap<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        let first = if self.is_empty() {
            0
        } else {
            size_of::<SimTime>()
        };
        first + heap(&self.steps) + heap(&self.wide)
    }

    /// The instants in order; reversible, so a suffix can be walked back
    /// from the last token in time proportional to its length.
    pub fn iter(&self) -> Iter<'_> {
        let (front, back) = self.ends.unwrap_or_default();
        Iter {
            front,
            back,
            steps: self.steps.iter(),
            wide: self.wide.iter(),
            left: self.len(),
        }
    }

    /// The gaps between consecutive instants, in order, a backward step
    /// counting as zero. This is the one inter-token gap (TBT) definition.
    pub fn gaps(&self) -> Gaps<'_> {
        Gaps {
            steps: self.steps.iter(),
            wide: self.wide.iter(),
        }
    }
}

/// Iterator over a [`TokenTimes`]' instants (see [`TokenTimes::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    /// The next instant from the front.
    front: SimTime,
    /// The next instant from the back.
    back: SimTime,
    /// The steps between `front` and `back`.
    steps: slice::Iter<'a, u32>,
    /// The wide gaps among `steps`.
    wide: slice::Iter<'a, u64>,
    /// Instants not yet yielded.
    left: usize,
}

impl Iterator for Iter<'_> {
    type Item = SimTime;

    #[inline]
    fn next(&mut self) -> Option<SimTime> {
        if self.left == 0 {
            return None;
        }
        let t = self.front;
        if self.left > 1 {
            let step = *self.steps.next()?;
            let d = if step == WIDE {
                *self.wide.next()?
            } else {
                u64::from(step)
            };
            self.front = SimTime::from_nanos(t.as_nanos().wrapping_add(d));
        }
        self.left -= 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl DoubleEndedIterator for Iter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<SimTime> {
        if self.left == 0 {
            return None;
        }
        let t = self.back;
        if self.left > 1 {
            let step = *self.steps.next_back()?;
            let d = if step == WIDE {
                *self.wide.next_back()?
            } else {
                u64::from(step)
            };
            self.back = SimTime::from_nanos(t.as_nanos().wrapping_sub(d));
        }
        self.left -= 1;
        Some(t)
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Iterator over a [`TokenTimes`]' gaps (see [`TokenTimes::gaps`]).
#[derive(Debug, Clone)]
pub struct Gaps<'a> {
    steps: slice::Iter<'a, u32>,
    wide: slice::Iter<'a, u64>,
}

impl Iterator for Gaps<'_> {
    type Item = SimDur;

    #[inline]
    fn next(&mut self) -> Option<SimDur> {
        let step = *self.steps.next()?;
        if step != WIDE {
            return Some(SimDur::from_nanos(u64::from(step)));
        }
        let gap = *self.wide.next()?;
        // A backward step is a negative gap: no time passed.
        Some(SimDur::from_nanos((gap as i64).max(0) as u64))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.steps.size_hint()
    }
}

impl ExactSizeIterator for Gaps<'_> {}

impl<'a> IntoIterator for &'a TokenTimes {
    type Item = SimTime;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<SimTime> for TokenTimes {
    fn from_iter<I: IntoIterator<Item = SimTime>>(iter: I) -> TokenTimes {
        let iter = iter.into_iter();
        let mut times = TokenTimes::new();
        times.reserve_exact(iter.size_hint().0);
        for t in iter {
            times.push(t);
        }
        times
    }
}

impl fmt::Debug for TokenTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: &[u64]) -> TokenTimes {
        v.iter().map(|&n| SimTime::from_nanos(n)).collect()
    }

    fn decoded(t: &TokenTimes) -> Vec<u64> {
        t.iter().map(SimTime::as_nanos).collect()
    }

    #[test]
    fn narrow_steps_take_four_bytes_and_wide_ones_go_aside() {
        let big = u64::from(u32::MAX);
        let v = [5, 5, 9, big + 9, 3, big + 8, big + 10];
        let t = ns(&v);
        assert_eq!(decoded(&t), v);
        // 9 → big + 9 is exactly WIDE ns, so it cannot be a narrow slot.
        assert_eq!(
            t.wide_gaps(),
            3,
            "the u32::MAX step, the backward one and the wide one"
        );
        assert_eq!(t.len(), 7);
        assert_eq!(
            (t.first(), t.last()),
            (
                Some(SimTime::from_nanos(5)),
                Some(SimTime::from_nanos(big + 10))
            )
        );
        let gaps: Vec<u64> = t.gaps().map(SimDur::as_nanos).collect();
        assert_eq!(gaps, [0, 4, big, 0, big + 5, 2]);
        let back: Vec<u64> = t.iter().rev().map(SimTime::as_nanos).collect();
        assert_eq!(back, v.iter().rev().copied().collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let e = TokenTimes::new();
        assert!(e.is_empty() && e.iter().next().is_none() && e.gaps().next().is_none());
        assert_eq!(
            (e.first(), e.last(), e.len(), e.stored_bytes()),
            (None, None, 0, 0)
        );
        let mut one = TokenTimes::new();
        one.reserve_exact(1);
        one.push(SimTime::from_nanos(7));
        assert_eq!((one.len(), one.capacity()), (1, 1));
        assert_eq!(one.stored_bytes(), 8, "one token allocates nothing");
        assert_eq!(
            format!("{one:?}"),
            format!("[{:?}]", SimTime::from_nanos(7))
        );
    }
}
