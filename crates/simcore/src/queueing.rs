//! FIFO token pools: the building block for thread pools, listen backlogs,
//! connection-count limits and mutual-exclusion locks in the simulated
//! servers.
//!
//! A [`FifoTokens`] pool has a fixed capacity.  [`FifoTokens::acquire`]
//! either grants a token immediately or queues the requester (identified by
//! an opaque `u64` ticket) in FIFO order — or, when a finite queue limit is
//! configured and the queue is full, rejects the request outright.  The
//! rejection path is how the simulator models the paper's observed
//! server-side saturation: "the network on the server side can no longer
//! handle the traffic from the queries, which limits the number of
//! concurrent queries presented to the information server".

use std::collections::VecDeque;

/// Result of an acquisition attempt.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Acquire {
    /// A token was granted immediately.
    Granted,
    /// The requester was placed in the wait queue.
    Queued,
    /// The wait queue is full; the request is rejected (the caller models a
    /// dropped SYN / connection refused).
    Rejected,
}

/// A FIFO-ordered counting semaphore with an optional bounded wait queue.
#[derive(Debug)]
pub struct FifoTokens {
    capacity: u32,
    in_use: u32,
    max_waiting: Option<u32>,
    waiting: VecDeque<u64>,
    /// Total grants (immediate + from queue), for stats.
    pub granted_total: u64,
    /// Total rejections, for stats.
    pub rejected_total: u64,
}

impl FifoTokens {
    /// A pool of `capacity` tokens with an unbounded wait queue.
    pub fn new(capacity: u32) -> Self {
        FifoTokens {
            capacity,
            in_use: 0,
            max_waiting: None,
            waiting: VecDeque::new(),
            granted_total: 0,
            rejected_total: 0,
        }
    }

    /// A pool of `capacity` tokens whose wait queue holds at most
    /// `max_waiting` requesters; further requesters are rejected.
    pub fn bounded(capacity: u32, max_waiting: u32) -> Self {
        FifoTokens {
            capacity,
            in_use: 0,
            max_waiting: Some(max_waiting),
            waiting: VecDeque::new(),
            granted_total: 0,
            rejected_total: 0,
        }
    }

    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    pub fn waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Attempt to acquire a token for `ticket`.
    pub fn acquire(&mut self, ticket: u64) -> Acquire {
        if self.in_use < self.capacity {
            self.in_use += 1;
            self.granted_total += 1;
            Acquire::Granted
        } else if self
            .max_waiting
            .is_some_and(|m| self.waiting.len() as u32 >= m)
        {
            self.rejected_total += 1;
            Acquire::Rejected
        } else {
            self.waiting.push_back(ticket);
            Acquire::Queued
        }
    }

    /// Release a token.  If someone is waiting, the token passes directly
    /// to the head of the queue and that ticket is returned so the owner
    /// can resume it; otherwise the token returns to the pool.
    pub fn release(&mut self) -> Option<u64> {
        debug_assert!(self.in_use > 0, "release without acquire");
        if let Some(next) = self.waiting.pop_front() {
            // in_use stays the same: token transferred.
            self.granted_total += 1;
            Some(next)
        } else {
            self.in_use = self.in_use.saturating_sub(1);
            None
        }
    }

    /// Remove a ticket from the wait queue (e.g. a timed-out connection
    /// attempt).  Returns `true` if it was queued.
    pub fn remove_waiter(&mut self, ticket: u64) -> bool {
        if let Some(pos) = self.waiting.iter().position(|&t| t == ticket) {
            self.waiting.remove(pos);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_until_capacity() {
        let mut p = FifoTokens::new(2);
        assert_eq!(p.acquire(1), Acquire::Granted);
        assert_eq!(p.acquire(2), Acquire::Granted);
        assert_eq!(p.acquire(3), Acquire::Queued);
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.waiting(), 1);
    }

    #[test]
    fn release_hands_to_fifo_head() {
        let mut p = FifoTokens::new(1);
        assert_eq!(p.acquire(1), Acquire::Granted);
        assert_eq!(p.acquire(2), Acquire::Queued);
        assert_eq!(p.acquire(3), Acquire::Queued);
        assert_eq!(p.release(), Some(2));
        assert_eq!(p.release(), Some(3));
        assert_eq!(p.release(), None);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn bounded_queue_rejects() {
        let mut p = FifoTokens::bounded(1, 2);
        assert_eq!(p.acquire(1), Acquire::Granted);
        assert_eq!(p.acquire(2), Acquire::Queued);
        assert_eq!(p.acquire(3), Acquire::Queued);
        assert_eq!(p.acquire(4), Acquire::Rejected);
        assert_eq!(p.rejected_total, 1);
        // A release frees a queue slot for future arrivals.
        assert_eq!(p.release(), Some(2));
        assert_eq!(p.acquire(5), Acquire::Queued);
    }

    #[test]
    fn zero_queue_limit_is_pure_admission_control() {
        let mut p = FifoTokens::bounded(2, 0);
        assert_eq!(p.acquire(1), Acquire::Granted);
        assert_eq!(p.acquire(2), Acquire::Granted);
        assert_eq!(p.acquire(3), Acquire::Rejected);
    }

    #[test]
    fn remove_waiter() {
        let mut p = FifoTokens::new(1);
        p.acquire(1);
        p.acquire(2);
        p.acquire(3);
        assert!(p.remove_waiter(2));
        assert!(!p.remove_waiter(2));
        assert_eq!(p.release(), Some(3));
    }

    #[test]
    fn grant_counters() {
        let mut p = FifoTokens::new(1);
        p.acquire(1);
        p.acquire(2);
        p.release();
        assert_eq!(p.granted_total, 2);
    }
}
