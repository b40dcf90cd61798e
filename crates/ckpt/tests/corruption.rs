//! Property tests: no single-byte corruption of a tagged container can
//! slip past validation, panic the loader, or defeat generation
//! fallback.
//!
//! The tagged format's safety argument is byte-local — magic bytes catch
//! prefix damage, the length field catches truncation, FNV-1a catches
//! payload damage — so the property is quantified over arbitrary
//! payload shapes and corruption sites: proptest drives both, and each
//! case asserts the loader returns `Corrupt` (never `Ok`, never a panic
//! or hang) and that a rotated store still serves the previous good
//! generation afterwards.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use maopt_ckpt::{load_tagged, CkptError, GenStore};
use proptest::prelude::*;

const MAGIC: &[u8; 8] = b"MAOPTTST";
const VERSION: u32 = 1;

static SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "maopt-ckpt-prop-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u64..256, 0..256).prop_map(|v| v.into_iter().map(|x| x as u8).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any single bit of any byte of the container is detected
    /// as `Corrupt` — and a generation store holding a prior good copy
    /// rolls back to it.
    #[test]
    fn any_single_byte_flip_is_corrupt_and_fallback_recovers(
        payload in bytes_strategy(),
        byte_frac in 0.0f64..1.0,
        bit in 0u64..8,
    ) {
        let dir = scratch_dir();
        let store = GenStore::new(dir.join("state.bin"), MAGIC, VERSION);
        store.save_next(b"previous-good").unwrap();
        let g = store.save_next(&payload).unwrap();
        let path = store.generation_path(g).unwrap();

        let mut bytes = fs::read(&path).unwrap();
        let idx = ((byte_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[idx] ^= 1 << bit;
        fs::write(&path, &bytes).unwrap();

        let loaded = load_tagged(&path, MAGIC, VERSION);
        prop_assert!(
            matches!(loaded, Err(CkptError::Corrupt(_))),
            "flip at byte {idx} bit {bit} not detected: {loaded:?}"
        );

        let fallback = store.load_latest_good().unwrap().unwrap();
        prop_assert_eq!(fallback.value, b"previous-good".to_vec());
        prop_assert_eq!(fallback.rolled_back, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Truncating the container at any length short of the full file is
    /// detected as `Corrupt` (or, for the zero-length ENOSPC residue,
    /// read as missing) — never `Ok`, a panic, or a length-prefix-driven
    /// oversized allocation.
    #[test]
    fn any_truncation_is_corrupt_and_fallback_recovers(
        payload in bytes_strategy(),
        keep_frac in 0.0f64..1.0,
    ) {
        let dir = scratch_dir();
        let store = GenStore::new(dir.join("state.bin"), MAGIC, VERSION);
        store.save_next(b"previous-good").unwrap();
        let g = store.save_next(&payload).unwrap();
        let path = store.generation_path(g).unwrap();

        let bytes = fs::read(&path).unwrap();
        let keep = ((keep_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        fs::write(&path, &bytes[..keep]).unwrap();

        let loaded = load_tagged(&path, MAGIC, VERSION);
        prop_assert!(
            matches!(loaded, Err(CkptError::Corrupt(_))),
            "truncation to {keep} bytes not detected: {loaded:?}"
        );

        let fallback = store.load_latest_good().unwrap().unwrap();
        prop_assert_eq!(fallback.value, b"previous-good".to_vec());
        // A zero-length file reads as missing (interrupted create), any
        // other truncation as a corrupt rollback.
        prop_assert_eq!(fallback.rolled_back, u64::from(keep > 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A hostile length prefix never causes an allocation proportional
    /// to the claimed length — validation is bounded by the actual file
    /// size.
    #[test]
    fn hostile_length_prefix_never_overallocates(claimed in 0u64..u64::MAX) {
        let dir = scratch_dir();
        let store = GenStore::new(dir.join("hostile.bin"), MAGIC, VERSION);
        let path = store.generation_path(store.save_next(b"tiny").unwrap()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[12..20].copy_from_slice(&claimed.to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        let loaded = load_tagged(&path, MAGIC, VERSION);
        if claimed == 4 {
            prop_assert!(loaded.is_ok(), "true length must still load: {loaded:?}");
        } else {
            prop_assert!(
                matches!(loaded, Err(CkptError::Corrupt(_))),
                "hostile length {claimed} produced {loaded:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
