//! Accumulated wall-clock phases.
//!
//! A [`Phases`] collects named `(phase, wall time)` entries for the
//! coarse stages of a run — enumerate, cache probe, execute, assemble.
//! The caller times a stage and [`add`](Phases::add)s it; repeated
//! phases accumulate under one name, so a loop over experiment sets
//! folds naturally into a handful of rows.

use std::time::Duration;

/// A named set of accumulated wall-clock phases, in first-seen order.
#[derive(Debug, Default)]
pub struct Phases {
    entries: Vec<(String, Duration)>,
}

impl Phases {
    /// Record `wall` under `name` (accumulating).
    pub fn add(&mut self, name: &str, wall: Duration) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, d)) => *d += wall,
            None => self.entries.push((name.to_string(), wall)),
        }
    }

    /// The recorded `(name, total wall)` rows, in first-seen order.
    pub fn entries(&self) -> &[(String, Duration)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_record_and_accumulate() {
        let mut p = Phases::default();
        p.add("execute", Duration::from_millis(1));
        p.add("execute", Duration::from_millis(5));
        p.add("report", Duration::from_millis(2));
        let rows = p.entries();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], ("execute".to_string(), Duration::from_millis(6)));
        assert_eq!(rows[1], ("report".to_string(), Duration::from_millis(2)));
    }
}
