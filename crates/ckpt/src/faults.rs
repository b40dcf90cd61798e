//! Deterministic storage-fault injection for the atomic write path.
//!
//! [`FaultFs`] decides, purely from a seed and the destination path,
//! whether one container write ([`crate::GenStore::save_next`] makes one
//! per generation attempt) should suffer a disk fault and
//! which one:
//!
//! * **ENOSPC** — the temp-file write fails halfway (device full). When
//!   the destination did not exist yet, a zero-length file is left
//!   behind, exactly the state a crashed `create(2)` produces; loaders
//!   treat zero-length as missing, not corrupt.
//! * **Torn write** — the file is silently truncated at a
//!   schedule-chosen byte *k* before the rename, modeling storage that
//!   acknowledged a write it never completed. The call reports success;
//!   the checksum catches it at load time.
//! * **Fsync failure** — the data is written but `fsync` reports an
//!   error, so the rename is refused and the caller sees an I/O error
//!   with the previous destination intact.
//! * **Bit flip** — one schedule-chosen bit is flipped after the
//!   rename, modeling silent media corruption. The call reports
//!   success; the checksum catches it at load time.
//!
//! The schedule is a pure function of `(seed, path)` — the same path
//! always draws the same fault, across retries and process restarts —
//! which is what makes chaos runs reproducible. Generation-rotated
//! stores ([`crate::GenStore`]) give every write attempt a fresh path,
//! so a hard fault on one generation does not pin the store forever:
//! the retry draws independently.
//!
//! Tests pass a [`FaultFs`] explicitly
//! ([`crate::GenStore::with_faults`]); whole-process chaos (subprocess
//! daemons, CI smoke jobs) activates a global injector through the
//! [`FAULTS_ENV`] environment variable instead.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, PoisonError};

/// Environment variable holding a [`FaultConfig::parse`] spec; when set,
/// every container write in the process runs under that injector.
pub const FAULTS_ENV: &str = "MAOPT_CKPT_FAULTS";

/// The fault kinds [`FaultFs`] can inject into one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Device-full mid-write: the call errors, no rename happens, and a
    /// zero-length destination may be left behind when none existed.
    Enospc,
    /// Silent truncation at a schedule-chosen byte; the call succeeds.
    Torn,
    /// `fsync` fails after a complete write; the call errors and the
    /// previous destination survives untouched.
    FsyncFail,
    /// One schedule-chosen bit flips after the rename; the call
    /// succeeds.
    BitFlip,
}

impl WriteFault {
    fn index(self) -> usize {
        match self {
            WriteFault::Enospc => 0,
            WriteFault::Torn => 1,
            WriteFault::FsyncFail => 2,
            WriteFault::BitFlip => 3,
        }
    }

    /// Human-readable kind name (stats, log lines).
    pub fn name(self) -> &'static str {
        match self {
            WriteFault::Enospc => "enospc",
            WriteFault::Torn => "torn",
            WriteFault::FsyncFail => "fsync",
            WriteFault::BitFlip => "flip",
        }
    }
}

/// Per-kind fault probabilities plus the schedule seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Schedule seed; the fault drawn for a path is a pure function of
    /// this and the path.
    pub seed: u64,
    /// Probability of [`WriteFault::Enospc`] per write.
    pub enospc: f64,
    /// Probability of [`WriteFault::Torn`] per write.
    pub torn: f64,
    /// Probability of [`WriteFault::FsyncFail`] per write.
    pub fsync_fail: f64,
    /// Probability of [`WriteFault::BitFlip`] per write.
    pub bit_flip: f64,
}

impl FaultConfig {
    /// A config injecting nothing (all rates zero).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            enospc: 0.0,
            torn: 0.0,
            fsync_fail: 0.0,
            bit_flip: 0.0,
        }
    }

    /// Parses the `key=value` comma list the [`FAULTS_ENV`] variable
    /// carries, e.g. `"seed=7,enospc=0.05,torn=0.05,fsync=0.02,flip=0.02"`.
    /// Unmentioned rates default to zero; `seed` defaults to zero.
    ///
    /// # Errors
    ///
    /// A descriptive message on an unknown key, a malformed number, or a
    /// rate outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::quiet(0);
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=').ok_or_else(|| {
                format!("malformed fault spec entry {part:?} (expected key=value)")
            })?;
            let rate = |slot: &mut f64| -> Result<(), String> {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("invalid rate {value:?} for {key:?}"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("rate {key}={v} outside [0, 1]"));
                }
                *slot = v;
                Ok(())
            };
            match key.trim() {
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|_| format!("invalid seed {value:?}"))?;
                }
                "enospc" => rate(&mut cfg.enospc)?,
                "torn" => rate(&mut cfg.torn)?,
                "fsync" => rate(&mut cfg.fsync_fail)?,
                "flip" => rate(&mut cfg.bit_flip)?,
                other => {
                    return Err(format!(
                        "unknown fault spec key {other:?} (expected seed, enospc, torn, fsync, or flip)"
                    ))
                }
            }
        }
        let total = cfg.enospc + cfg.torn + cfg.fsync_fail + cfg.bit_flip;
        if total > 1.0 {
            return Err(format!("fault rates sum to {total} (> 1)"));
        }
        Ok(cfg)
    }
}

/// FNV-1a over a seed, a domain tag, and a path, mapped to `[0, 1)`.
/// Pure in its inputs: the same `(seed, tag, path)` always draws the
/// same unit, across retries and restarts.
fn unit_hash(seed: u64, tag: &str, path: &Path) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&seed.to_le_bytes());
    eat(tag.as_bytes());
    eat(path.to_string_lossy().as_bytes());
    // Top 53 bits → an exactly representable double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic storage-fault injector; see the module docs.
#[derive(Debug)]
pub struct FaultFs {
    cfg: FaultConfig,
    injected: [AtomicU64; 4],
}

impl FaultFs {
    /// An injector drawing from `cfg`'s schedule.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultFs {
            cfg,
            injected: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }

    /// The config this injector draws from.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// The fault (if any) a write to `path` draws — a pure function of
    /// the seed and the path, so retries of the same path refail
    /// identically while a rotated path draws independently.
    pub fn decide(&self, path: &Path) -> Option<WriteFault> {
        let u = unit_hash(self.cfg.seed, "kind", path);
        let mut edge = self.cfg.enospc;
        if u < edge {
            return Some(WriteFault::Enospc);
        }
        edge += self.cfg.torn;
        if u < edge {
            return Some(WriteFault::Torn);
        }
        edge += self.cfg.fsync_fail;
        if u < edge {
            return Some(WriteFault::FsyncFail);
        }
        edge += self.cfg.bit_flip;
        if u < edge {
            return Some(WriteFault::BitFlip);
        }
        None
    }

    /// [`FaultFs::decide`] plus bookkeeping: counts the injection.
    pub(crate) fn draw(&self, path: &Path) -> Option<WriteFault> {
        let fault = self.decide(path)?;
        self.injected[fault.index()].fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }

    /// Where a torn write to `path` cuts a `len`-byte file: a
    /// schedule-chosen offset in `1..len`, so the remnant is non-empty
    /// (an empty file would read as missing, not torn) and strictly
    /// short.
    pub fn cut_point(&self, path: &Path, len: usize) -> usize {
        if len <= 2 {
            return 1;
        }
        1 + (unit_hash(self.cfg.seed, "cut", path) * (len - 1) as f64) as usize
    }

    /// Which bit a post-rename flip corrupts in a `len`-byte file.
    pub fn flip_bit(&self, path: &Path, len: usize) -> usize {
        let bits = (len * 8).max(1);
        ((unit_hash(self.cfg.seed, "bit", path) * bits as f64) as usize).min(bits - 1)
    }

    /// Lifetime injection counts, in [`WriteFault`] declaration order:
    /// `[enospc, torn, fsync, flip]`.
    pub fn injected(&self) -> [u64; 4] {
        [
            self.injected[0].load(Ordering::Relaxed),
            self.injected[1].load(Ordering::Relaxed),
            self.injected[2].load(Ordering::Relaxed),
            self.injected[3].load(Ordering::Relaxed),
        ]
    }
}

fn global() -> &'static Mutex<Option<Arc<FaultFs>>> {
    static GLOBAL: Mutex<Option<Arc<FaultFs>>> = Mutex::new(None);
    &GLOBAL
}

/// Installs (or, with `None`, removes) the process-global injector every
/// container write consults, returning what is now installed.
/// Unit tests should prefer passing an injector explicitly
/// ([`crate::GenStore::with_faults`]);
/// the global exists for whole-process chaos.
pub fn install_faults(faults: Option<FaultFs>) -> Option<Arc<FaultFs>> {
    let installed = faults.map(Arc::new);
    *global().lock().unwrap_or_else(PoisonError::into_inner) = installed.clone();
    installed
}

/// The process-global injector, if any. On first call, a set
/// [`FAULTS_ENV`] variable installs one from its spec; a malformed spec
/// is reported to stderr and ignored (chaos must never break a
/// production daemon that merely inherited a stray variable).
pub fn active_faults() -> Option<Arc<FaultFs>> {
    static FROM_ENV: Once = Once::new();
    FROM_ENV.call_once(|| {
        if let Ok(spec) = std::env::var(FAULTS_ENV) {
            if spec.trim().is_empty() {
                return;
            }
            match FaultConfig::parse(&spec) {
                Ok(cfg) => {
                    *global().lock().unwrap_or_else(PoisonError::into_inner) =
                        Some(Arc::new(FaultFs::new(cfg)));
                }
                Err(e) => eprintln!("warning: ignoring {FAULTS_ENV}={spec:?}: {e}"),
            }
        }
    });
    global()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn schedule_is_pure_in_seed_and_path() {
        let f = FaultFs::new(FaultConfig {
            seed: 7,
            enospc: 0.25,
            torn: 0.25,
            fsync_fail: 0.25,
            bit_flip: 0.25,
        });
        for i in 0..64 {
            let p = PathBuf::from(format!("/state/jobs/job-1/run.ckpt.{i:04}.bin"));
            assert_eq!(f.decide(&p), f.decide(&p), "same path, same draw");
            assert_eq!(f.cut_point(&p, 100), f.cut_point(&p, 100));
            let g = FaultFs::new(f.config());
            assert_eq!(f.decide(&p), g.decide(&p), "fresh injector, same draw");
        }
    }

    #[test]
    fn all_kinds_are_reachable_and_rotation_redraws() {
        let f = FaultFs::new(FaultConfig {
            seed: 3,
            enospc: 0.25,
            torn: 0.25,
            fsync_fail: 0.25,
            bit_flip: 0.25,
        });
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..256 {
            if let Some(k) = f.decide(&PathBuf::from(format!("/d/gen.{i:04}.bin"))) {
                seen.insert(k.name());
            }
        }
        assert_eq!(
            seen.len(),
            4,
            "every kind drawn across rotated paths: {seen:?}"
        );
    }

    #[test]
    fn cut_point_is_nonempty_and_short() {
        let f = FaultFs::new(FaultConfig::quiet(1));
        for len in [2usize, 3, 28, 1000] {
            for i in 0..32 {
                let k = f.cut_point(&PathBuf::from(format!("/x/{i}")), len);
                assert!(k >= 1 && k < len, "cut {k} of {len}");
            }
        }
    }

    #[test]
    fn env_spec_parses_and_rejects() {
        let cfg =
            FaultConfig::parse("seed=9, enospc=0.1, torn=0.2, fsync=0.05, flip=0.01").unwrap();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.enospc, 0.1);
        assert_eq!(cfg.torn, 0.2);
        assert_eq!(cfg.fsync_fail, 0.05);
        assert_eq!(cfg.bit_flip, 0.01);
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::quiet(0));
        assert!(FaultConfig::parse("bogus=1")
            .unwrap_err()
            .contains("unknown"));
        assert!(FaultConfig::parse("enospc=2")
            .unwrap_err()
            .contains("outside"));
        assert!(FaultConfig::parse("enospc=0.9,torn=0.9")
            .unwrap_err()
            .contains("sum"));
        assert!(FaultConfig::parse("seed")
            .unwrap_err()
            .contains("key=value"));
    }

    #[test]
    fn quiet_config_never_injects() {
        let f = FaultFs::new(FaultConfig::quiet(42));
        for i in 0..128 {
            assert_eq!(f.decide(&PathBuf::from(format!("/q/{i}"))), None);
        }
        assert_eq!(f.injected(), [0; 4]);
    }
}
