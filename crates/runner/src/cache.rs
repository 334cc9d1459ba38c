//! Content-addressed on-disk result cache.
//!
//! One file per experiment point, named by the job's
//! [`cache_digest`](crate::job::Job::cache_digest):
//! `<cache dir>/<32-hex digest>.csv`.  Because the digest covers the
//! point identity, seed, measurement window and the relevant calibrated
//! parameters, invalidation is implicit — a changed input simply hashes
//! to an address that does not exist yet, and stale files are never
//! consulted.
//!
//! The record format is line-oriented `name=value` (floats as IEEE-754
//! bit patterns, see [`crate::job::Job::encode`]) with `#` comments
//! carrying the human-readable job key.  A file that fails to parse is
//! treated as a miss, never an error: the point is just re-run.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// A directory of cached point results.
#[derive(Debug, Clone)]
pub struct DiskCache {
    root: PathBuf,
}

impl DiskCache {
    /// A cache rooted at `root`.  Nothing is created until the first
    /// [`store`](DiskCache::store).
    pub fn new(root: impl Into<PathBuf>) -> DiskCache {
        DiskCache { root: root.into() }
    }

    fn path_of(&self, digest: &str) -> PathBuf {
        self.root.join(format!("{digest}.csv"))
    }

    /// Fetch the record stored under `digest`, if present and parsable:
    /// its fields and its length in bytes.
    pub fn load(&self, digest: &str) -> Option<(BTreeMap<String, String>, u64)> {
        let text = fs::read_to_string(self.path_of(digest)).ok()?;
        let mut fields = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, value) = line.split_once('=')?;
            fields.insert(name.to_string(), value.to_string());
        }
        if fields.is_empty() {
            None
        } else {
            Some((fields, text.len() as u64))
        }
    }

    /// Store `fields` under `digest`.  `key` is recorded as a comment so
    /// the cache is inspectable (`grep -r 'set1/' results/.cache`).
    /// Returns the bytes written, `None` on failure.
    ///
    /// Best-effort: a full disk or read-only tree degrades to "no
    /// cache", it never fails the sweep.  The write goes through a
    /// temporary file and an atomic rename so concurrent sweeps sharing
    /// a cache directory can only ever observe complete records.
    pub fn store(&self, digest: &str, key: &str, fields: &[(&'static str, String)]) -> Option<u64> {
        let final_path = self.path_of(digest);
        let tmp_path = self
            .root
            .join(format!(".{digest}.{}.tmp", std::process::id()));
        let write = || -> std::io::Result<u64> {
            fs::create_dir_all(&self.root)?;
            let mut out = String::new();
            out.push_str("# gridmon-runner result cache\n");
            out.push_str(&format!("# job: {key}\n"));
            for (name, value) in fields {
                out.push_str(&format!("{name}={value}\n"));
            }
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(out.as_bytes())?;
            fs::rename(&tmp_path, &final_path)?;
            Ok(out.len() as u64)
        };
        match write() {
            Ok(bytes) => Some(bytes),
            Err(_) => {
                let _ = fs::remove_file(&tmp_path);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gridmon-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = scratch_dir("roundtrip");
        let cache = DiskCache::new(&dir);
        assert!(cache.load("aa").is_none(), "empty cache misses");
        let bytes = cache.store(
            "aa",
            "set1/example/x=1",
            &[
                ("kind", "measurement".into()),
                ("x", "f:0000000000000000".into()),
            ],
        );
        assert!(bytes.expect("store succeeds") > 0);
        let (fields, read) = cache.load("aa").expect("hit after store");
        assert_eq!(Some(read), bytes, "load reports the record's length");
        assert_eq!(fields.get("kind").unwrap(), "measurement");
        assert_eq!(fields.get("x").unwrap(), "f:0000000000000000");
        // The human-readable key comment is present but not a field.
        assert_eq!(fields.len(), 2);
        let text = fs::read_to_string(dir.join("aa.csv")).unwrap();
        assert!(text.contains("# job: set1/example/x=1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbled_record_is_a_miss() {
        let dir = scratch_dir("garbled");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("bb.csv"), "no equals sign here\n").unwrap();
        let cache = DiskCache::new(&dir);
        assert!(cache.load("bb").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_root_degrades_silently() {
        // Storing under a path whose parent is a *file* cannot succeed;
        // it must not panic.
        let dir = scratch_dir("unwritable");
        fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("blocker");
        fs::write(&blocker, "").unwrap();
        let cache = DiskCache::new(blocker.join("nested"));
        assert!(cache
            .store("cc", "k", &[("kind", "measurement".into())])
            .is_none());
        assert!(cache.load("cc").is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
