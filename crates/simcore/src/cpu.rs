//! Processor-sharing CPU model.
//!
//! Each simulated machine owns one [`PsCpu`] with `cores` cores and a
//! relative `speed` factor (1.0 = the reference 1133 MHz PIII of the paper's
//! "lucky" testbed nodes).  Runnable tasks share the cores in the classic
//! egalitarian processor-sharing discipline: with `n` runnable tasks on `c`
//! cores each task progresses at rate `speed * min(1, c/n)` reference-CPU
//! seconds per second.  This reproduces the two regimes that matter for the
//! paper's load metrics:
//!
//! * under-subscription (`n <= c`): every task runs at full speed and CPU
//!   utilisation is `n/c`;
//! * over-subscription (`n > c`): utilisation is 100 % and the ready queue
//!   grows, which is what the Linux `load1` (one-minute load average) metric
//!   reported by Ganglia measures.
//!
//! `PsCpu` is a pure state machine: it never touches the event calendar.
//! The owner (the network world) asks [`PsCpu::next_completion`] after every
//! mutation and manages a single pending completion event per CPU.  The
//! owner also owns the buffer finished tokens are written to
//! ([`PsCpu::advance_into`]); what the CPU keeps between steps is the
//! minimum remaining work over its tasks, so a step walks them once.

use crate::slab::{Slab, SlabKey};
use crate::time::SimTime;

/// Token identifying a task to the owner (typically a request id).
pub type CpuToken = u64;

#[derive(Debug)]
struct Task {
    /// Remaining work in *reference-CPU microseconds* (work at speed 1.0).
    remaining: f64,
    token: CpuToken,
}

/// A multi-core processor-sharing CPU.
pub struct PsCpu {
    cores: f64,
    speed: f64,
    tasks: Slab<Task>,
    last: SimTime,
    /// Accumulated busy core-microseconds (for CPU-load accounting).
    busy_core_us: f64,
    /// `min` of `remaining` over `tasks` (`INFINITY` when idle), kept up
    /// by every mutation.  `f64::min` is exact and order-free and
    /// `x - work` is monotone in `x`, so this is bit-equal to folding over
    /// the tasks afresh (no `remaining` is ever NaN or -0.0: each starts
    /// at `EPS` or more and only has positive work subtracted).
    min_remaining: f64,
}

/// Tolerance below which a task is considered finished (microseconds of
/// remaining work); guards against floating-point residue.
const EPS: f64 = 1e-3;

impl PsCpu {
    /// Create a CPU with `cores` cores and relative `speed` (1.0 = the
    /// reference core).
    pub fn new(cores: u32, speed: f64) -> Self {
        assert!(cores > 0 && speed > 0.0);
        PsCpu {
            cores: cores as f64,
            speed,
            tasks: Slab::new(),
            last: SimTime::ZERO,
            busy_core_us: 0.0,
            min_remaining: f64::INFINITY,
        }
    }

    pub fn cores(&self) -> u32 {
        self.cores as u32
    }

    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Number of currently runnable tasks (running + ready), the quantity
    /// the Linux load average counts.
    pub fn runnable(&self) -> usize {
        self.tasks.len()
    }

    /// Current per-task progress rate in reference-CPU-microseconds per
    /// microsecond of wall time.
    fn rate(&self) -> f64 {
        let n = self.tasks.len() as f64;
        if n == 0.0 {
            0.0
        } else {
            self.speed * (self.cores / n).min(1.0)
        }
    }

    /// Total busy core-seconds accumulated since construction, advanced to
    /// `now`.  Monotonic; callers diff successive readings to get interval
    /// utilisation.
    pub fn busy_core_seconds(&mut self, now: SimTime) -> f64 {
        self.advance_accounting(now);
        self.busy_core_us / 1e6
    }

    fn advance_accounting(&mut self, now: SimTime) {
        debug_assert!(now >= self.last, "CPU time went backwards");
        let dt = (now - self.last).as_micros() as f64;
        if dt <= 0.0 {
            return;
        }
        let n = self.tasks.len() as f64;
        let busy_cores = n.min(self.cores);
        self.busy_core_us += busy_cores * dt;
        let rate = self.rate();
        if rate > 0.0 {
            let work = rate * dt;
            for (_, t) in self.tasks.iter_mut() {
                t.remaining -= work;
            }
            // Every task loses the same work and rounding is monotone, so
            // the minimum moves exactly as the task that holds it does.
            self.min_remaining -= work;
        }
        self.last = now;
    }

    /// Advance the CPU to `now`, appending to `done` the tokens of all
    /// tasks that have finished by then (in slab index order).  The slab
    /// is walked a second time only when some task did finish.
    pub fn advance_into(&mut self, now: SimTime, done: &mut Vec<CpuToken>) {
        self.advance_accounting(now);
        if self.min_remaining > EPS {
            return;
        }
        let mut min = f64::INFINITY;
        self.tasks.drain_where(
            |t| {
                let finished = t.remaining <= EPS;
                if !finished {
                    min = min.min(t.remaining);
                }
                finished
            },
            |_, t| done.push(t.token),
        );
        self.min_remaining = min;
    }

    /// [`PsCpu::advance_into`] with a buffer of its own, for callers that
    /// take a step now and then rather than one per event.
    pub fn advance(&mut self, now: SimTime) -> Vec<CpuToken> {
        let mut done = Vec::new();
        self.advance_into(now, &mut done);
        done
    }

    /// Submit a task demanding `work_us` reference-CPU microseconds.  The
    /// accounting is advanced to `now` first; tasks that finish at `now`
    /// stay in the CPU until the next `advance`.
    pub fn submit(&mut self, now: SimTime, work_us: f64, token: CpuToken) -> SlabKey {
        debug_assert!(work_us >= 0.0);
        self.advance_accounting(now);
        let remaining = work_us.max(EPS);
        self.min_remaining = self.min_remaining.min(remaining);
        self.tasks.insert(Task { remaining, token })
    }

    /// Remove a task before completion (e.g. an aborted request).
    pub fn abort(&mut self, now: SimTime, key: SlabKey) -> Option<CpuToken> {
        self.advance_accounting(now);
        let task = self.tasks.remove(key)?;
        self.min_remaining = self.fold_min_remaining();
        Some(task.token)
    }

    fn fold_min_remaining(&self) -> f64 {
        self.tasks
            .iter()
            .map(|(_, t)| t.remaining)
            .fold(f64::INFINITY, f64::min)
    }

    /// The absolute time at which the earliest current task will finish, or
    /// `None` if the CPU is idle.  Changes whenever tasks are added or
    /// removed, so the owner must re-query after every mutation.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        let min_rem = self.min_remaining;
        debug_assert_eq!(min_rem.to_bits(), self.fold_min_remaining().to_bits());
        if !min_rem.is_finite() {
            return None;
        }
        // Round up so the completion event never fires *before* the work is
        // done, guaranteeing progress (at least 1 µs ahead when work
        // remains).
        let dt_us = (min_rem.max(0.0) / rate).ceil() as u64;
        Some(SimTime(now.as_micros().saturating_add(dt_us.max(1))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }

    #[test]
    fn single_task_full_speed() {
        let mut cpu = PsCpu::new(2, 1.0);
        cpu.submit(t(0), 1000.0, 7);
        let next = cpu.next_completion(t(0)).unwrap();
        assert_eq!(next, t(1000));
        let done = cpu.advance(next);
        assert_eq!(done, vec![7]);
        assert_eq!(cpu.runnable(), 0);
    }

    #[test]
    fn two_tasks_two_cores_no_slowdown() {
        let mut cpu = PsCpu::new(2, 1.0);
        cpu.submit(t(0), 1000.0, 1);
        cpu.submit(t(0), 1000.0, 2);
        let next = cpu.next_completion(t(0)).unwrap();
        assert_eq!(next, t(1000));
        let done = cpu.advance(next);
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn oversubscription_halves_rate() {
        let mut cpu = PsCpu::new(1, 1.0);
        cpu.submit(t(0), 1000.0, 1);
        cpu.submit(t(0), 1000.0, 2);
        // Two tasks share one core: each runs at rate 0.5.
        let next = cpu.next_completion(t(0)).unwrap();
        assert_eq!(next, t(2000));
        let done = cpu.advance(next);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn speed_factor_scales() {
        let mut cpu = PsCpu::new(1, 2.0);
        cpu.submit(t(0), 1000.0, 1);
        assert_eq!(cpu.next_completion(t(0)).unwrap(), t(500));
    }

    #[test]
    fn staggered_arrival_processor_sharing() {
        let mut cpu = PsCpu::new(1, 1.0);
        cpu.submit(t(0), 1000.0, 1);
        // After 500us, task 1 has 500us left; add task 2.
        assert!(cpu.advance(t(500)).is_empty());
        cpu.submit(t(500), 500.0, 2);
        // Both now progress at 0.5: each needs 500 work -> 1000us more.
        let next = cpu.next_completion(t(500)).unwrap();
        assert_eq!(next, t(1500));
        let done = cpu.advance(next);
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn abort_removes_task_and_speeds_up_rest() {
        let mut cpu = PsCpu::new(1, 1.0);
        let k1 = cpu.submit(t(0), 1000.0, 1);
        cpu.submit(t(0), 1000.0, 2);
        assert!(cpu.advance(t(500)).is_empty()); // each has 750 left
        assert_eq!(cpu.abort(t(500), k1), Some(1));
        // Task 2 alone: 750us left at full rate.
        assert_eq!(cpu.next_completion(t(500)).unwrap(), t(1250));
    }

    #[test]
    fn busy_accounting() {
        let mut cpu = PsCpu::new(2, 1.0);
        cpu.submit(t(0), 1_000_000.0, 1); // 1 CPU-second of work
        let _ = cpu.advance(t(500_000));
        // One task on two cores: one core busy for 0.5s.
        let busy = cpu.busy_core_seconds(t(500_000));
        assert!((busy - 0.5).abs() < 1e-6, "busy {busy}");
    }

    #[test]
    fn busy_accounting_saturated() {
        let mut cpu = PsCpu::new(2, 1.0);
        for i in 0..6 {
            cpu.submit(t(0), 10_000_000.0, i);
        }
        assert_eq!(cpu.runnable(), 6);
        let busy = cpu.busy_core_seconds(t(1_000_000));
        assert!((busy - 2.0).abs() < 1e-6, "both cores busy for 1s: {busy}");
    }

    #[test]
    fn idle_cpu_has_no_completion() {
        let cpu = PsCpu::new(1, 1.0);
        assert!(cpu.next_completion(t(0)).is_none());
    }

    #[test]
    fn zero_work_finishes_immediately_but_after_now() {
        let mut cpu = PsCpu::new(1, 1.0);
        cpu.submit(t(100), 0.0, 9);
        let next = cpu.next_completion(t(100)).unwrap();
        assert!(next > t(100));
        assert_eq!(cpu.advance(next), vec![9]);
    }

    #[test]
    fn completion_tokens_in_submission_order() {
        let mut cpu = PsCpu::new(4, 1.0);
        cpu.submit(t(0), 100.0, 30);
        cpu.submit(t(0), 100.0, 10);
        cpu.submit(t(0), 100.0, 20);
        let done = cpu.advance(t(200));
        assert_eq!(done, vec![30, 10, 20]);
    }
}
