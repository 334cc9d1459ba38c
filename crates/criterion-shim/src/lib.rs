//! Offline stand-in for the `criterion` crate.
//!
//! The real `criterion` cannot be fetched in a registry-less build.
//! This shim implements the surface the workspace's benches use —
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`black_box`], [`criterion_group!`] and [`criterion_main!`] — with a
//! simple calibrated wall-clock loop: each benchmark is warmed once,
//! then timed over enough iterations to fill a small measurement
//! budget, and the mean/min per-iteration times are printed.
//!
//! In `cargo test` mode (the harness receives `--test`) every benchmark
//! runs exactly once, as the real criterion does.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity, as in real criterion.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Per-iteration timing loop handed to benchmark closures.
pub struct Bencher {
    /// Measurement budget for one benchmark.
    budget: Duration,
    /// Hard cap on timed iterations.
    max_iters: u64,
    /// Collected per-iteration mean of each sample batch.
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time `f` repeatedly until the budget or the iteration cap is
    /// exhausted.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        black_box(f()); // warm-up, untimed
        let started = Instant::now();
        let mut iters = 0u64;
        while iters < self.max_iters && started.elapsed() < self.budget {
            let t0 = Instant::now();
            black_box(f());
            self.samples.push(t0.elapsed());
            iters += 1;
        }
    }

    fn report(&self, name: &str) {
        if self.samples.is_empty() {
            println!("{name:<48} (no samples)");
            return;
        }
        let total: Duration = self.samples.iter().sum();
        let mean = total / self.samples.len() as u32;
        let min = self.samples.iter().min().copied().unwrap_or_default();
        println!(
            "{name:<48} mean {mean:>12.3?}  min {min:>12.3?}  ({} iters)",
            self.samples.len()
        );
    }
}

/// Entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    budget: Duration,
    max_iters: u64,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Criterion {
        // `cargo test` runs bench executables with `--test`; `cargo
        // bench` passes `--bench`.  Smoke-run (one iteration) in test
        // mode, exactly like real criterion.
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion {
            budget: Duration::from_millis(300),
            max_iters: 200,
            test_mode,
        }
    }
}

impl Criterion {
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = id.into();
        let mut b = Bencher {
            budget: if self.test_mode {
                Duration::ZERO
            } else {
                self.budget
            },
            max_iters: if self.test_mode { 1 } else { self.max_iters },
            samples: Vec::new(),
        };
        f(&mut b);
        if self.test_mode {
            println!("{name:<48} ok (smoke)");
        } else {
            b.report(&name);
        }
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
        }
    }
}

/// A named group of benchmarks (`sample_size` is accepted for API
/// compatibility; the shim's loop is budget-driven instead).
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        self.parent.bench_function(full, f);
        self
    }

    pub fn finish(self) {}
}

/// Collect benchmark functions into one group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emit `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
