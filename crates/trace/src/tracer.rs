//! The tracer: a bounded ring buffer of events.

use crate::events::{Ev, TraceEvent};
use simcore::SimTime;
use std::collections::VecDeque;

/// Default ring capacity (events).  Roughly 50 MB of `TraceEvent`s —
/// enough for every event of a quick-profile sweep point; older events
/// are dropped (and counted) beyond that.
pub const DEFAULT_RING_CAP: usize = 1 << 21;

/// Bounded ring of events: drops the *oldest* events once full, so the
/// tail of a run (the measurement window) survives, and counts what it
/// dropped.  Arrival order is preserved: the simulator emits events in
/// deterministic dispatch order and the exporters rely on it.
#[derive(Debug)]
pub struct RingTracer {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl RingTracer {
    /// Ring holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        RingTracer {
            buf: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Record one event at simulation time `at`.
    #[inline]
    pub fn record(&mut self, at: SimTime, ev: Ev) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceEvent { at, ev });
    }

    /// Drain recorded events, returning `(events, dropped_count)` and
    /// leaving the tracer empty.
    pub fn take(&mut self) -> (Vec<TraceEvent>, u64) {
        let dropped = self.dropped;
        self.dropped = 0;
        (std::mem::take(&mut self.buf).into(), dropped)
    }
}

impl Default for RingTracer {
    fn default() -> Self {
        RingTracer::new(DEFAULT_RING_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }

    #[test]
    fn ring_preserves_order_and_drops_oldest() {
        let mut r = RingTracer::new(3);
        for seq in 0..5 {
            r.record(t(seq), Ev::Dispatch { seq });
        }
        let (evs, dropped) = r.take();
        assert_eq!(dropped, 2);
        let seqs: Vec<u64> = evs
            .iter()
            .map(|e| match e.ev {
                Ev::Dispatch { seq } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert!(r.buf.is_empty());
        // The drop counter resets with each take.
        r.record(t(9), Ev::Dispatch { seq: 9 });
        let (evs, dropped) = r.take();
        assert_eq!((evs.len(), dropped), (1, 0));
    }
}
