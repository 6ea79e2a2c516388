//! Content-addressed on-disk result cache.
//!
//! A cache entry is one JSON file whose name embeds a stable 64-bit hash
//! of the entry's full key description ([`KeyBuilder`]). The description
//! itself is stored inside the file and re-checked on load, so a hash
//! collision (or a stale file from an older key scheme) reads as a miss
//! rather than serving the wrong cell. Corrupted or unreadable entries
//! degrade to a recompute with a `brick-obs` warning — the cache can
//! never make a run fail, only make it faster.
//!
//! Writes go through a temp file + rename so concurrent writers (parallel
//! sweep cells racing on a shared key) and interrupted runs cannot leave
//! a torn entry behind.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

/// Envelope format version; bump when the on-disk layout changes so old
/// entries invalidate cleanly instead of mis-parsing.
const ENVELOPE_VERSION: u64 = 1;

/// A fully-described cache key: a human-readable canonical description
/// plus its stable FNV-1a hash (the file name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Key domain, used as the file-name prefix (e.g. `cell`, `roofline`).
    pub domain: String,
    /// Canonical `name=value;...` description of everything the cached
    /// result depends on.
    pub desc: String,
    /// `fnv1a64(desc)` — stable across runs, platforms and processes.
    pub hash: u64,
}

impl CacheKey {
    /// File name of this key's entry.
    pub fn file_name(&self) -> String {
        format!("{}-{:016x}.json", self.domain, self.hash)
    }
}

/// Builds a [`CacheKey`] from named fields. Field order is part of the
/// key, so callers must append in a fixed order.
#[derive(Debug)]
pub struct KeyBuilder {
    domain: String,
    desc: String,
}

impl KeyBuilder {
    /// Start a key in `domain` at schema version `version` — bump the
    /// version whenever the semantics of the cached value change (e.g. a
    /// timing-model fix) to invalidate every older entry at once.
    pub fn new(domain: &str, version: u64) -> KeyBuilder {
        KeyBuilder {
            domain: domain.to_string(),
            desc: format!("{domain};v{version}"),
        }
    }

    /// Append a displayable field.
    pub fn field(mut self, name: &str, value: impl std::fmt::Display) -> KeyBuilder {
        let _ = write!(self.desc, ";{name}={value}");
        self
    }

    /// Append a raw 64-bit fingerprint field (rendered as fixed-width
    /// hex, so descriptions stay canonical).
    pub fn fingerprint(self, name: &str, fp: u64) -> KeyBuilder {
        self.field(name, format_args!("{fp:016x}"))
    }

    /// Append an `f64` field by exact bit pattern — `Display` rounding
    /// must never make two different configurations collide.
    pub fn f64_bits(self, name: &str, v: f64) -> KeyBuilder {
        self.field(name, format_args!("{:016x}", v.to_bits()))
    }

    /// Finish into a key.
    pub fn build(self) -> CacheKey {
        let hash = brick_obs::manifest::fnv1a64(self.desc.as_bytes());
        CacheKey {
            domain: self.domain,
            desc: self.desc,
            hash,
        }
    }
}

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum CacheOutcome<T> {
    /// The entry was present, matched the key, and deserialised.
    Hit(T),
    /// No entry on disk.
    Miss,
    /// An entry existed but could not be used (torn write, stale format,
    /// key-description mismatch). The reason is for diagnostics; callers
    /// recompute exactly as for a miss.
    Corrupt(String),
}

/// A directory of content-addressed JSON entries.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Absolute path of `key`'s entry.
    pub fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Probe for `key`. Counts `sweep.cache.hits` / `.misses` /
    /// `.corrupt` and warns (once per probe) on corruption.
    pub fn get<T: Deserialize>(&self, key: &CacheKey) -> CacheOutcome<T> {
        let path = self.path_for(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                brick_obs::counter_add("sweep.cache.misses", 1);
                return CacheOutcome::Miss;
            }
            Err(e) => return self.corrupt(key, format!("unreadable: {e}")),
        };
        let envelope: Value = match serde_json::parse(&text) {
            Ok(v) => v,
            Err(e) => return self.corrupt(key, format!("invalid JSON: {e}")),
        };
        match envelope.get("version").and_then(Value::as_u64) {
            Some(ENVELOPE_VERSION) => {}
            v => return self.corrupt(key, format!("envelope version {v:?}")),
        }
        match envelope.get("desc").and_then(Value::as_str) {
            Some(d) if d == key.desc => {}
            Some(_) => return self.corrupt(key, "key description mismatch".into()),
            None => return self.corrupt(key, "missing key description".into()),
        }
        let Some(value) = envelope.get("value") else {
            return self.corrupt(key, "missing value".into());
        };
        match serde_json::from_value::<T>(value) {
            Ok(v) => {
                brick_obs::counter_add("sweep.cache.hits", 1);
                CacheOutcome::Hit(v)
            }
            Err(e) => self.corrupt(key, format!("stale value shape: {e}")),
        }
    }

    fn corrupt<T>(&self, key: &CacheKey, reason: String) -> CacheOutcome<T> {
        brick_obs::counter_add("sweep.cache.corrupt", 1);
        brick_obs::warn!(
            "cache entry {} unusable ({reason}); recomputing",
            key.file_name()
        );
        CacheOutcome::Corrupt(reason)
    }

    /// Store `value` under `key` (temp file + rename; losing a race to a
    /// concurrent writer of the same key is harmless because entries are
    /// content-addressed).
    pub fn put<T: Serialize>(&self, key: &CacheKey, value: &T) -> io::Result<()> {
        let envelope = Value::Obj(vec![
            ("version".into(), Value::U64(ENVELOPE_VERSION)),
            ("desc".into(), Value::Str(key.desc.clone())),
            (
                "value".into(),
                serde_json::to_value(value)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            ),
        ]);
        let text = serde_json::to_string(&envelope)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = self
            .dir
            .join(format!(".{}.tmp-{}", key.file_name(), std::process::id()));
        fs::write(&tmp, text)?;
        fs::rename(&tmp, self.path_for(key))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> DiskCache {
        let dir =
            std::env::temp_dir().join(format!("brick_sweep_cache_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        DiskCache::open(dir).unwrap()
    }

    fn key(n: u64) -> CacheKey {
        KeyBuilder::new("test", 1)
            .fingerprint("kernel", 0xDEADBEEF)
            .field("n", n)
            .build()
    }

    #[test]
    fn key_hash_is_stable_and_sensitive() {
        let a = key(64);
        let b = key(64);
        assert_eq!(a, b, "same inputs, same key");
        assert_eq!(a.file_name(), b.file_name());
        assert_ne!(a.hash, key(128).hash, "field change changes the hash");
        assert_ne!(
            a.hash,
            KeyBuilder::new("test", 2)
                .fingerprint("kernel", 0xDEADBEEF)
                .field("n", 64u64)
                .build()
                .hash,
            "schema version change invalidates"
        );
        assert_ne!(
            KeyBuilder::new("a", 1).f64_bits("x", 1.0).build().hash,
            KeyBuilder::new("a", 1)
                .f64_bits("x", 1.0 + f64::EPSILON)
                .build()
                .hash,
            "f64 keys are bit-exact"
        );
    }

    #[test]
    fn roundtrip_hit() {
        let c = tmp_cache("roundtrip");
        let k = key(64);
        assert!(matches!(c.get::<Vec<u64>>(&k), CacheOutcome::Miss));
        c.put(&k, &vec![1u64, 2, 3]).unwrap();
        match c.get::<Vec<u64>>(&k) {
            CacheOutcome::Hit(v) => assert_eq!(v, vec![1, 2, 3]),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn garbage_entry_reads_as_corrupt() {
        let c = tmp_cache("garbage");
        let k = key(64);
        fs::write(c.path_for(&k), "{not json").unwrap();
        assert!(matches!(c.get::<u64>(&k), CacheOutcome::Corrupt(_)));
        // and storing the recomputed value repairs the entry
        c.put(&k, &7u64).unwrap();
        assert!(matches!(c.get::<u64>(&k), CacheOutcome::Hit(7)));
    }

    #[test]
    fn description_mismatch_is_not_served() {
        let c = tmp_cache("mismatch");
        let k = key(64);
        let mut other = key(64);
        other.desc.push_str(";extra=1"); // same file name, different desc
        c.put(&other, &1u64).unwrap();
        assert!(matches!(c.get::<u64>(&k), CacheOutcome::Corrupt(_)));
    }

    #[test]
    fn stale_value_shape_recomputes() {
        let c = tmp_cache("shape");
        let k = key(64);
        c.put(&k, &"a string").unwrap();
        assert!(matches!(c.get::<u64>(&k), CacheOutcome::Corrupt(_)));
        c.put(&k, &9u64).unwrap();
        assert!(matches!(c.get::<u64>(&k), CacheOutcome::Hit(9)));
    }
}
