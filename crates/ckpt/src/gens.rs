//! Generation-rotated container files with last-good fallback.
//!
//! A [`GenStore`] maps a logical path like `run.ckpt` onto a rotated
//! family of sibling files — `run.ckpt.0001.bin`, `run.ckpt.0002.bin`,
//! … — each a complete tagged container ([`crate::load_tagged`] reads
//! one). Writes always
//! create a *new* generation and then garbage-collect all but the
//! newest `keep`; loads walk generations newest-first and fall back to
//! the last good one when the newest is corrupt, reporting how many
//! generations were skipped so callers can record the rollback.
//!
//! Rotation is what turns detection into recovery: a single-file store
//! that suffers a torn write has lost its only copy, while a rotated
//! store still holds the previous round's snapshot — and because every
//! write targets a fresh path, a deterministic per-path fault schedule
//! ([`crate::FaultFs`]) cannot pin the store in a permanent failure.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::faults::{active_faults, FaultFs};
use crate::{load_tagged, save_tagged, CkptError};

/// Generations retained after a successful save (the new one included).
pub const DEFAULT_KEEP: usize = 3;

/// Fresh generation numbers tried per [`GenStore::save_next`] before
/// giving up: each attempt targets a new path, so a per-path fault
/// (injected or a genuinely bad block) cannot wedge the store.
const SAVE_ATTEMPTS: u64 = 4;

/// A successfully loaded generation plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct GenLoad<T> {
    /// The decoded payload.
    pub value: T,
    /// Which generation supplied it.
    pub generation: u64,
    /// Newer generations that existed but failed validation and were
    /// skipped — each one a rollback the caller should record.
    pub rolled_back: u64,
}

/// A rotated family of tagged container files; see the module docs.
#[derive(Debug, Clone)]
pub struct GenStore {
    base: PathBuf,
    magic: [u8; 8],
    version: u32,
    keep: usize,
    faults: Option<Arc<FaultFs>>,
}

impl GenStore {
    /// A store rotating `<base>.NNNN.bin` siblings of `base`, writing
    /// and validating `magic`/`version` containers, keeping
    /// [`DEFAULT_KEEP`] generations.
    pub fn new(base: impl Into<PathBuf>, magic: &[u8; 8], version: u32) -> Self {
        GenStore {
            base: base.into(),
            magic: *magic,
            version,
            keep: DEFAULT_KEEP,
            faults: None,
        }
    }

    /// How many generations survive a save (at least 1).
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Routes this store's writes through an explicit fault injector
    /// instead of the process-global one ([`crate::active_faults`]).
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<FaultFs>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The logical base path generations are derived from.
    pub fn base(&self) -> &Path {
        &self.base
    }

    fn file_name(&self) -> Result<&std::ffi::OsStr, CkptError> {
        self.base
            .file_name()
            .ok_or_else(|| CkptError::Corrupt("checkpoint path has no file name".into()))
    }

    /// The on-disk path of generation `g`.
    ///
    /// # Errors
    ///
    /// [`CkptError::Corrupt`] when the base path has no file name.
    pub fn generation_path(&self, g: u64) -> Result<PathBuf, CkptError> {
        let mut name = self.file_name()?.to_os_string();
        name.push(format!(".{g:04}.bin"));
        Ok(self.base.with_file_name(name))
    }

    /// Every on-disk generation, ascending by number. A missing parent
    /// directory is an empty store, not an error.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan failures other than `NotFound`.
    pub fn generations(&self) -> Result<Vec<(u64, PathBuf)>, CkptError> {
        let prefix = format!("{}.", self.file_name()?.to_string_lossy());
        let parent = match self.base.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let entries = match fs::read_dir(parent) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(digits) = name
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(".bin"))
            else {
                continue;
            };
            // Only all-digit middles of plausible width are generations;
            // anything else (foreign files, `.tmp` residue) is ignored.
            if digits.is_empty() || digits.len() > 19 || !digits.bytes().all(|b| b.is_ascii_digit())
            {
                continue;
            }
            if let Ok(g) = digits.parse::<u64>() {
                out.push((g, entry.path()));
            }
        }
        out.sort_unstable_by_key(|(g, _)| *g);
        Ok(out)
    }

    /// Durably writes `payload` as the next generation, then removes
    /// generations older than the newest `keep` (best-effort). A failed
    /// write retries on the *next* generation number — a fresh path —
    /// up to a small bound, so one bad path cannot wedge the store.
    ///
    /// Returns the generation number written.
    ///
    /// # Errors
    ///
    /// The last write error once every attempt fails.
    pub fn save_next(&self, payload: &[u8]) -> Result<u64, CkptError> {
        let next = self.generations()?.last().map_or(1, |(g, _)| g + 1);
        let faults = self.faults.clone().or_else(active_faults);
        let mut last_err = None;
        for attempt in 0..SAVE_ATTEMPTS {
            let g = next + attempt;
            let path = self.generation_path(g)?;
            match save_tagged(&path, &self.magic, self.version, payload, faults.as_deref()) {
                Ok(()) => {
                    self.collect_garbage(g);
                    return Ok(g);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("SAVE_ATTEMPTS > 0"))
    }

    /// Removes every generation older than the newest `keep`, plus any
    /// write-attempt residue (zero-length destinations, `.tmp`
    /// siblings) belonging to them. Failures are ignored: GC is an
    /// optimization, never a correctness requirement.
    fn collect_garbage(&self, newest: u64) {
        let keep_from = newest.saturating_sub(self.keep as u64 - 1);
        let Ok(gens) = self.generations() else {
            return;
        };
        for (g, path) in gens {
            if g >= keep_from {
                continue;
            }
            let _ = fs::remove_file(&path);
            if let Some(name) = path.file_name() {
                let mut tmp = name.to_os_string();
                tmp.push(".tmp");
                let _ = fs::remove_file(path.with_file_name(tmp));
            }
        }
    }

    /// Loads the newest generation that validates, decoding through
    /// `decode`. Zero-length generations (an interrupted create) are
    /// treated as missing; corrupt ones are skipped and counted in
    /// [`GenLoad::rolled_back`]. Only `<base>.NNNN.bin` files are
    /// generations; a bare file at the base path itself is ignored.
    ///
    /// # Errors
    ///
    /// Real I/O failures propagate; a store whose every present
    /// generation is corrupt is [`CkptError::Corrupt`] (falling back to
    /// *nothing* would silently restart the caller from scratch).
    pub fn load_latest_good_with<T>(
        &self,
        mut decode: impl FnMut(&[u8]) -> Result<T, CkptError>,
    ) -> Result<Option<GenLoad<T>>, CkptError> {
        let mut rolled_back = 0u64;
        for (g, path) in self.generations()?.into_iter().rev() {
            match fs::metadata(&path) {
                Ok(m) if m.len() == 0 => continue, // interrupted create = missing
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            }
            match load_tagged(&path, &self.magic, self.version).and_then(|b| decode(&b)) {
                Ok(value) => {
                    return Ok(Some(GenLoad {
                        value,
                        generation: g,
                        rolled_back,
                    }))
                }
                Err(CkptError::Corrupt(_)) => rolled_back += 1,
                Err(CkptError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        if rolled_back > 0 {
            return Err(CkptError::Corrupt(format!(
                "no good generation of {} ({rolled_back} corrupt)",
                self.base.display()
            )));
        }
        Ok(None)
    }

    /// [`GenStore::load_latest_good_with`] returning the raw payload.
    ///
    /// # Errors
    ///
    /// As [`GenStore::load_latest_good_with`].
    pub fn load_latest_good(&self) -> Result<Option<GenLoad<Vec<u8>>>, CkptError> {
        self.load_latest_good_with(|b| Ok(b.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, WriteFault};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const MAGIC: &[u8; 8] = b"MAOPTTST";

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn tmp_store(tag: &str) -> GenStore {
        let dir = std::env::temp_dir().join(format!(
            "maopt-gens-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        GenStore::new(dir.join("state.bin"), MAGIC, 1)
    }

    fn cleanup(store: &GenStore) {
        if let Some(dir) = store.base().parent() {
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn save_next_rotates_and_gc_keeps_k() {
        let store = tmp_store("rotate").with_keep(3);
        for i in 1..=6u64 {
            let g = store.save_next(format!("payload-{i}").as_bytes()).unwrap();
            assert_eq!(g, i, "generations count up");
        }
        let gens: Vec<u64> = store
            .generations()
            .unwrap()
            .iter()
            .map(|(g, _)| *g)
            .collect();
        assert_eq!(gens, vec![4, 5, 6], "only the newest 3 survive GC");
        let load = store.load_latest_good().unwrap().unwrap();
        assert_eq!(load.value, b"payload-6");
        assert_eq!(load.generation, 6);
        assert_eq!(load.rolled_back, 0);
        cleanup(&store);
    }

    #[test]
    fn corrupt_newest_rolls_back_to_last_good() {
        let store = tmp_store("rollback");
        store.save_next(b"good-1").unwrap();
        store.save_next(b"good-2").unwrap();
        let g3 = store
            .generation_path(store.save_next(b"bad-3").unwrap())
            .unwrap();
        let mut bytes = fs::read(&g3).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xA5;
        fs::write(&g3, &bytes).unwrap();

        let load = store.load_latest_good().unwrap().unwrap();
        assert_eq!(load.value, b"good-2");
        assert_eq!(load.generation, 2);
        assert_eq!(load.rolled_back, 1, "one corrupt generation skipped");

        // The next save continues past the corrupt generation.
        assert_eq!(store.save_next(b"good-4").unwrap(), 4);
        let load = store.load_latest_good().unwrap().unwrap();
        assert_eq!(load.value, b"good-4");
        assert_eq!(load.rolled_back, 0);
        cleanup(&store);
    }

    #[test]
    fn zero_length_generation_reads_as_missing_not_corrupt() {
        let store = tmp_store("zerolen");
        store.save_next(b"good").unwrap();
        fs::write(store.generation_path(2).unwrap(), b"").unwrap();
        let load = store.load_latest_good().unwrap().unwrap();
        assert_eq!(load.value, b"good");
        assert_eq!(
            load.rolled_back, 0,
            "an interrupted create is not a rollback"
        );
        cleanup(&store);
    }

    #[test]
    fn all_generations_corrupt_is_an_error_not_a_fresh_start() {
        let store = tmp_store("allbad");
        for payload in [b"a".as_slice(), b"b"] {
            let g = store.save_next(payload).unwrap();
            let p = store.generation_path(g).unwrap();
            let mut bytes = fs::read(&p).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            fs::write(&p, &bytes).unwrap();
        }
        assert!(matches!(
            store.load_latest_good(),
            Err(CkptError::Corrupt(msg)) if msg.contains("2 corrupt")
        ));
        cleanup(&store);
    }

    #[test]
    fn empty_store_and_bare_base_file_load_as_none() {
        let store = tmp_store("bare");
        assert!(store.load_latest_good().unwrap().is_none());
        // A valid container at the base path itself is not a generation.
        save_tagged(store.base(), MAGIC, 1, b"bare", None).unwrap();
        assert!(store.load_latest_good().unwrap().is_none());
        store.save_next(b"rotated").unwrap();
        let load = store.load_latest_good().unwrap().unwrap();
        assert_eq!(
            (load.value.as_slice(), load.generation),
            (&b"rotated"[..], 1)
        );
        cleanup(&store);
    }

    #[test]
    fn decode_failure_counts_as_corrupt_and_falls_back() {
        let store = tmp_store("decode");
        store.save_next(b"ok").unwrap();
        store.save_next(b"undecodable").unwrap();
        let load = store
            .load_latest_good_with(|b| {
                if b == b"undecodable" {
                    Err(CkptError::Corrupt("schema mismatch".into()))
                } else {
                    Ok(b.to_vec())
                }
            })
            .unwrap()
            .unwrap();
        assert_eq!(load.value, b"ok");
        assert_eq!(load.rolled_back, 1);
        cleanup(&store);
    }

    /// Drives the store under every fault kind at full probability: the
    /// hard kinds (ENOSPC, fsync) error but a later attempt on a fresh
    /// generation number succeeds; the silent kinds (torn, flip) report
    /// success but load as corrupt and roll back.
    #[test]
    fn faults_inject_per_kind_and_rotation_recovers() {
        for (kind, rate_of) in [
            (WriteFault::Enospc, 0usize),
            (WriteFault::Torn, 1),
            (WriteFault::FsyncFail, 2),
            (WriteFault::BitFlip, 3),
        ] {
            let mut cfg = FaultConfig::quiet(11);
            match kind {
                WriteFault::Enospc => cfg.enospc = 1.0,
                WriteFault::Torn => cfg.torn = 1.0,
                WriteFault::FsyncFail => cfg.fsync_fail = 1.0,
                WriteFault::BitFlip => cfg.bit_flip = 1.0,
            }
            let faults = Arc::new(FaultFs::new(cfg));
            let store = tmp_store(kind.name()).with_faults(Arc::clone(&faults));
            match kind {
                // Hard faults: every attempt errors (rate 1.0 on every
                // path), so save_next reports the failure.
                WriteFault::Enospc | WriteFault::FsyncFail => {
                    assert!(store.save_next(b"doomed").is_err());
                    assert!(faults.injected()[rate_of] >= 1);
                    // Nothing good landed; an ENOSPC-created zero-length
                    // file must read as missing.
                    assert!(store.load_latest_good().unwrap().is_none());
                }
                // Silent faults: the save "succeeds" but the container
                // is corrupt; a prior good generation wins at load.
                WriteFault::Torn | WriteFault::BitFlip => {
                    // First write a good generation without faults.
                    let quiet = Arc::new(FaultFs::new(FaultConfig::quiet(11)));
                    let good_store = GenStore::new(store.base(), MAGIC, 1).with_faults(quiet);
                    good_store.save_next(b"good").unwrap();
                    store.save_next(b"silently-bad").unwrap();
                    assert_eq!(faults.injected()[rate_of], 1);
                    let load = store.load_latest_good().unwrap().unwrap();
                    assert_eq!(load.value, b"good");
                    assert_eq!(load.rolled_back, 1);
                }
            }
            cleanup(&store);
        }
    }
}
