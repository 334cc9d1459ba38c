//! Hawkeye monitoring modules.
//!
//! A module is "simply a sensor that advertises resource information in a
//! ClassAd format".  Modules are lighter than MDS information providers —
//! most are thin wrappers over `vmstat`, `df` and friends.  The paper's
//! Experiment Set 3 grows the module count from the 11 defaults to 90
//! "using multiple instances of the 'vmstat' Module" (and notes that the
//! 99th module crashed the Startd, so 98 is the hard cap).

use classad::ClassAd;
use std::rc::Rc;

/// Hard limit observed by the paper: registering more than 98 modules
/// crashed the Startd.
pub const MAX_MODULES: usize = 98;

/// Definition of one module.
pub struct ModuleSpec {
    pub name: String,
    /// CPU cost of one execution in reference-CPU microseconds.
    pub exec_cpu_us: f64,
    /// The attributes this module contributes to the Startd ad
    /// (refcounted: a status reply shares them instead of copying).
    pub attrs: Rc<ClassAd>,
}

/// Default execution cost: a vmstat-class child process.
pub const DEFAULT_EXEC_CPU_US: f64 = 15_000.0;

/// The 11 default modules of a standard Hawkeye install, padded with
/// vmstat clones beyond that (the paper's method).  Panics above
/// [`MAX_MODULES`], mirroring the Startd crash.
pub fn default_modules(host: &str, n: usize) -> Vec<ModuleSpec> {
    assert!(
        n <= MAX_MODULES,
        "adding module {} crashes the Startd (max {MAX_MODULES})",
        n
    );
    let defaults = [
        "cpu",
        "memory",
        "disk",
        "network",
        "processes",
        "users",
        "uptime",
        "swap",
        "filesystem",
        "condor",
        "os",
    ];
    (0..n)
        .map(|i| {
            let name = if i < defaults.len() {
                defaults[i].to_string()
            } else {
                format!("vmstat-{i}")
            };
            let mut attrs = ClassAd::new();
            attrs.set_str(&format!("Hawkeye_{name}_Name"), &name);
            attrs.set_real(&format!("Hawkeye_{name}_Metric"), metric(host, i));
            attrs.set_int(&format!("Hawkeye_{name}_SampleSize"), 42 + i as i64);
            attrs.set_str(&format!("Hawkeye_{name}_Host"), host);
            ModuleSpec {
                name,
                exec_cpu_us: DEFAULT_EXEC_CPU_US,
                attrs: Rc::new(attrs),
            }
        })
        .collect()
}

/// Module `i`'s synthetic metric on `host`: deterministic and salted by
/// the host name, so machines differ (triggers can single hosts out).
pub(crate) fn metric(host: &str, i: usize) -> f64 {
    let host_salt = host
        .bytes()
        .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
    ((i as f64 * 7.3) + (host_salt % 41) as f64) % 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_set_has_eleven_distinct() {
        let ms = default_modules("lucky4", 11);
        assert_eq!(ms.len(), 11);
        let names: std::collections::BTreeSet<_> = ms.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names.len(), 11);
        for m in &ms {
            assert!(m.attrs.iter().count() >= 3);
            assert!(m.attrs.wire_size() > 50);
        }
    }

    #[test]
    fn expansion_clones_vmstat() {
        let ms = default_modules("lucky4", 90);
        assert_eq!(ms.len(), 90);
        assert!(ms[50].name.starts_with("vmstat-"));
    }

    #[test]
    #[should_panic(expected = "crashes the Startd")]
    fn too_many_modules_crash() {
        let _ = default_modules("lucky4", 99);
    }
}
