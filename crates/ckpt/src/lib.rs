//! `maopt-ckpt`: crash-safe checkpointing for MA-Opt runs.
//!
//! A [`RunSnapshot`] captures everything an interrupted optimization needs
//! to continue *bitwise identically* to an uninterrupted run: the RNG
//! stream position, the simulated population with per-design provenance,
//! per-actor and critic network weights plus Adam moments, the fitted
//! output scaler, individual-elite visibility sets, the quantized-key
//! simulation cache, accumulated engine counters and timings, and the
//! journal lines written so far (replayed verbatim on resume).
//!
//! # On-disk format
//!
//! ```text
//! magic "MAOPTCKP" (8) | version u32 LE | payload_len u64 LE
//! payload (payload_len bytes) | fnv1a64(payload) u64 LE
//! ```
//!
//! All integers are little-endian `u64`s (or a single `u8` for enums);
//! floats are stored as `f64::to_bits` so round-trips are exact. Vectors
//! and strings are length-prefixed. The payload layout is private to this
//! crate and only promised to round-trip through
//! [`save_snapshot_gen`]/[`load_snapshot_gen`] at the same
//! [`FORMAT_VERSION`].
//!
//! # Durability
//!
//! Every container is written by [`GenStore::save_next`] as a fresh
//! generation file (`<base>.NNNN.bin`): the bytes go to a sibling temp
//! file, which is `fsync`ed and renamed into place before the parent
//! directory is `fsync`ed — so at any kill point a generation either
//! exists complete or not at all, and the older generations stay
//! untouched. The checksum catches torn or bit-flipped files from less
//! well-behaved storage at load time, and the store then falls back to
//! the newest generation that validates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::Path;

use maopt_nn::{AdamState, LayerState, MlpState, ScalerState};

mod faults;
mod gens;

pub use faults::{active_faults, install_faults, FaultConfig, FaultFs, WriteFault, FAULTS_ENV};
pub use gens::{GenLoad, GenStore, DEFAULT_KEEP};

/// Current snapshot format version; bumped on any payload layout change.
/// Version 2 appended the operating-point store (warm-start seeds).
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"MAOPTCKP";

/// One actor network's checkpointed state.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorCkpt {
    /// Policy network weights.
    pub mlp: MlpState,
    /// Its Adam optimizer moments.
    pub adam: AdamState,
}

/// One critic's checkpointed state.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticCkpt {
    /// Surrogate network weights.
    pub net: MlpState,
    /// Its Adam optimizer moments.
    pub adam: AdamState,
    /// The fitted output scaler; `None` before the first fit. Serialized
    /// rather than refit on resume: near-sampling rounds use the scaler
    /// fitted in the *previous* actor round, which a refit over the
    /// restored population would not reproduce.
    pub scaler: Option<ScalerState>,
}

/// Full optimizer state at a round boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot {
    /// Method label, validated on resume.
    pub label: String,
    /// Problem name, validated on resume.
    pub problem: String,
    /// Run seed, validated on resume.
    pub seed: u64,
    /// Simulation budget, validated on resume.
    pub budget: u64,
    /// Initial sample count, validated on resume.
    pub init_len: u64,
    /// Rounds completed.
    pub round: u64,
    /// Simulations consumed.
    pub sims_used: u64,
    /// Whether the critic has been trained at least once.
    pub critic_ready: bool,
    /// RNG stream position for the next round.
    pub rng: [u64; 4],
    /// Every simulated `(design, metrics)` pair, in population order.
    pub population: Vec<(Vec<f64>, Vec<f64>)>,
    /// Provenance of each post-init population entry (1 = actor round,
    /// 2 = near-sampling round), for trace replay.
    pub sim_kinds: Vec<u8>,
    /// Individual-elite visibility sets (empty under a shared elite set).
    pub visible: Vec<Vec<u64>>,
    /// The previous round's representative elite designs (journal-only
    /// refresh-rate state).
    pub prev_elite: Vec<Vec<f64>>,
    /// Per-actor network + optimizer state.
    pub actors: Vec<ActorCkpt>,
    /// Per-critic network + optimizer + scaler state.
    pub critics: Vec<CriticCkpt>,
    /// Simulation cache entries (quantized key → metrics).
    pub cache: Vec<(Vec<i64>, Vec<f64>)>,
    /// Engine counters accumulated since run start, in telemetry order:
    /// sims, cache hits, cache misses, retries, panics, timeouts,
    /// non-finite, failures.
    pub counters: [u64; 8],
    /// Accumulated timings in seconds: total, training, simulation,
    /// near-sampling.
    pub timings: [f64; 4],
    /// Journal lines written so far, replayed verbatim on resume.
    pub journal_lines: Vec<String>,
    /// Operating-point store entries (quantized design key → converged
    /// solution vectors, one per solve slot), **in insertion order** — the
    /// store's FIFO eviction order must survive resume so a resumed run
    /// evicts identically to an uninterrupted one.
    pub op_store: Vec<(Vec<i64>, Vec<Vec<f64>>)>,
}

/// Why a snapshot failed to save or load.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid snapshot (bad magic, wrong version, short
    /// read, checksum mismatch, or malformed payload).
    Corrupt(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// FNV-1a 64-bit over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------- codec

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn vec_f64(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }
    fn vec_i64(&mut self, v: &[i64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.i64(x);
        }
    }
    fn vec_u64(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }
}

struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

type DecResult<T> = Result<T, CkptError>;

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
    }
    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| CkptError::Corrupt(format!("payload truncated at byte {}", self.pos)))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn i64(&mut self) -> DecResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn f64(&mut self) -> DecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> DecResult<bool> {
        Ok(self.u8()? != 0)
    }
    /// Bounds a claimed element count by the bytes actually remaining, so
    /// a corrupt length prefix errors instead of attempting a huge
    /// allocation.
    fn len(&mut self, elem_bytes: usize) -> DecResult<usize> {
        let n = self.u64()?;
        let remaining = (self.b.len() - self.pos) as u64;
        if n.saturating_mul(elem_bytes.max(1) as u64) > remaining {
            return Err(CkptError::Corrupt(format!(
                "length prefix {n} exceeds remaining payload"
            )));
        }
        Ok(n as usize)
    }
    fn str(&mut self) -> DecResult<String> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CkptError::Corrupt("non-UTF-8 string".into()))
    }
    fn vec_f64(&mut self) -> DecResult<Vec<f64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
    fn vec_i64(&mut self) -> DecResult<Vec<i64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.i64()).collect()
    }
    fn vec_u64(&mut self) -> DecResult<Vec<u64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }
    fn done(&self) -> DecResult<()> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(CkptError::Corrupt(format!(
                "{} trailing payload bytes",
                self.b.len() - self.pos
            )))
        }
    }
}

fn enc_mlp(e: &mut Enc, m: &MlpState) {
    e.u64(m.layers.len() as u64);
    for l in &m.layers {
        e.u64(l.inputs as u64);
        e.u64(l.outputs as u64);
        e.vec_f64(&l.weights);
        e.vec_f64(&l.bias);
    }
}

fn dec_mlp(d: &mut Dec<'_>) -> DecResult<MlpState> {
    let n = d.len(24)?;
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        let inputs = d.u64()? as usize;
        let outputs = d.u64()? as usize;
        let weights = d.vec_f64()?;
        let bias = d.vec_f64()?;
        if weights.len() != inputs * outputs || bias.len() != outputs {
            return Err(CkptError::Corrupt("layer shape/parameter mismatch".into()));
        }
        layers.push(LayerState {
            inputs,
            outputs,
            weights,
            bias,
        });
    }
    Ok(MlpState { layers })
}

fn enc_adam(e: &mut Enc, a: &AdamState) {
    e.u64(a.t);
    e.vec_f64(&a.m);
    e.vec_f64(&a.v);
}

fn dec_adam(d: &mut Dec<'_>) -> DecResult<AdamState> {
    Ok(AdamState {
        t: d.u64()?,
        m: d.vec_f64()?,
        v: d.vec_f64()?,
    })
}

fn encode(s: &RunSnapshot) -> Vec<u8> {
    let mut e = Enc::default();
    e.str(&s.label);
    e.str(&s.problem);
    e.u64(s.seed);
    e.u64(s.budget);
    e.u64(s.init_len);
    e.u64(s.round);
    e.u64(s.sims_used);
    e.bool(s.critic_ready);
    for w in s.rng {
        e.u64(w);
    }
    e.u64(s.population.len() as u64);
    for (x, m) in &s.population {
        e.vec_f64(x);
        e.vec_f64(m);
    }
    e.u64(s.sim_kinds.len() as u64);
    for &k in &s.sim_kinds {
        e.u8(k);
    }
    e.u64(s.visible.len() as u64);
    for v in &s.visible {
        e.vec_u64(v);
    }
    e.u64(s.prev_elite.len() as u64);
    for x in &s.prev_elite {
        e.vec_f64(x);
    }
    e.u64(s.actors.len() as u64);
    for a in &s.actors {
        enc_mlp(&mut e, &a.mlp);
        enc_adam(&mut e, &a.adam);
    }
    e.u64(s.critics.len() as u64);
    for c in &s.critics {
        enc_mlp(&mut e, &c.net);
        enc_adam(&mut e, &c.adam);
        match &c.scaler {
            None => e.bool(false),
            Some(sc) => {
                e.bool(true);
                e.vec_f64(&sc.mins);
                e.vec_f64(&sc.ranges);
            }
        }
    }
    e.u64(s.cache.len() as u64);
    for (k, v) in &s.cache {
        e.vec_i64(k);
        e.vec_f64(v);
    }
    for c in s.counters {
        e.u64(c);
    }
    for t in s.timings {
        e.f64(t);
    }
    e.u64(s.journal_lines.len() as u64);
    for line in &s.journal_lines {
        e.str(line);
    }
    e.u64(s.op_store.len() as u64);
    for (k, slots) in &s.op_store {
        e.vec_i64(k);
        e.u64(slots.len() as u64);
        for slot in slots {
            e.vec_f64(slot);
        }
    }
    e.buf
}

fn decode(payload: &[u8]) -> DecResult<RunSnapshot> {
    let mut d = Dec::new(payload);
    let label = d.str()?;
    let problem = d.str()?;
    let seed = d.u64()?;
    let budget = d.u64()?;
    let init_len = d.u64()?;
    let round = d.u64()?;
    let sims_used = d.u64()?;
    let critic_ready = d.bool()?;
    let mut rng = [0u64; 4];
    for w in &mut rng {
        *w = d.u64()?;
    }
    let n = d.len(16)?;
    let mut population = Vec::with_capacity(n);
    for _ in 0..n {
        let x = d.vec_f64()?;
        let m = d.vec_f64()?;
        population.push((x, m));
    }
    let n = d.len(1)?;
    let mut sim_kinds = Vec::with_capacity(n);
    for _ in 0..n {
        sim_kinds.push(d.u8()?);
    }
    let n = d.len(8)?;
    let mut visible = Vec::with_capacity(n);
    for _ in 0..n {
        visible.push(d.vec_u64()?);
    }
    let n = d.len(8)?;
    let mut prev_elite = Vec::with_capacity(n);
    for _ in 0..n {
        prev_elite.push(d.vec_f64()?);
    }
    let n = d.len(8)?;
    let mut actors = Vec::with_capacity(n);
    for _ in 0..n {
        actors.push(ActorCkpt {
            mlp: dec_mlp(&mut d)?,
            adam: dec_adam(&mut d)?,
        });
    }
    let n = d.len(8)?;
    let mut critics = Vec::with_capacity(n);
    for _ in 0..n {
        let net = dec_mlp(&mut d)?;
        let adam = dec_adam(&mut d)?;
        let scaler = if d.bool()? {
            Some(ScalerState {
                mins: d.vec_f64()?,
                ranges: d.vec_f64()?,
            })
        } else {
            None
        };
        critics.push(CriticCkpt { net, adam, scaler });
    }
    let n = d.len(16)?;
    let mut cache = Vec::with_capacity(n);
    for _ in 0..n {
        let k = d.vec_i64()?;
        let v = d.vec_f64()?;
        cache.push((k, v));
    }
    let mut counters = [0u64; 8];
    for c in &mut counters {
        *c = d.u64()?;
    }
    let mut timings = [0f64; 4];
    for t in &mut timings {
        *t = d.f64()?;
    }
    let n = d.len(8)?;
    let mut journal_lines = Vec::with_capacity(n);
    for _ in 0..n {
        journal_lines.push(d.str()?);
    }
    let n = d.len(16)?;
    let mut op_store = Vec::with_capacity(n);
    for _ in 0..n {
        let k = d.vec_i64()?;
        let m = d.len(8)?;
        let mut slots = Vec::with_capacity(m);
        for _ in 0..m {
            slots.push(d.vec_f64()?);
        }
        op_store.push((k, slots));
    }
    d.done()?;
    Ok(RunSnapshot {
        label,
        problem,
        seed,
        budget,
        init_len,
        round,
        sims_used,
        critic_ready,
        rng,
        population,
        sim_kinds,
        visible,
        prev_elite,
        actors,
        critics,
        cache,
        counters,
        timings,
        journal_lines,
        op_store,
    })
}

// ------------------------------------------------------------ file I/O

/// `create_dir_all` followed by a best-effort fsync of every directory
/// that had to be created (plus the pre-existing ancestor the chain
/// hangs off), so a freshly made state directory survives power loss as
/// reliably as the files renamed into it.
fn create_dir_all_durable(dir: &Path) -> std::io::Result<()> {
    let mut missing: Vec<&Path> = Vec::new();
    let mut probe = Some(dir);
    while let Some(d) = probe {
        if d.as_os_str().is_empty() || d.exists() {
            break;
        }
        missing.push(d);
        probe = d.parent();
    }
    fs::create_dir_all(dir)?;
    // Sync parents-first (the Vec is child-first), ending with the
    // surviving ancestor that now records the first new entry. Directory
    // fsync is unsupported on some filesystems; errors are ignored just
    // like the post-rename parent fsync below.
    if let Some(anchor) = missing.last().and_then(|d| d.parent()) {
        if !anchor.as_os_str().is_empty() {
            if let Ok(f) = File::open(anchor) {
                let _ = f.sync_all();
            }
        }
    }
    for d in missing.iter().rev() {
        if let Ok(f) = File::open(d) {
            let _ = f.sync_all();
        }
    }
    Ok(())
}

/// Atomically persists a tagged payload: `magic` (8 bytes) + `version`
/// (u32 LE) + payload length (u64 LE) + payload + FNV-1a-64 checksum,
/// written to a sibling temp file, `fsync`ed, renamed over `path`, then
/// the parent directory is `fsync`ed so the rename itself survives power
/// loss. After any kill point `path` holds either the previous complete
/// file or this one, never a torn mix.
///
/// This is the single seam every checkpoint byte passes through;
/// [`GenStore::save_next`] calls it once per generation attempt with the
/// store's fault injector. With `faults: None` (or a quiet injector) it
/// writes faithfully; with an injector it deterministically exercises the
/// four storage failure modes:
///
/// - **ENOSPC** — a partial temp file is written then removed, the
///   destination is left as a zero-length file when it did not already
///   exist (what an interrupted `create` leaves behind), and the error
///   surfaces to the caller.
/// - **Torn write** — the file is silently truncated at a seeded byte
///   and the rename *succeeds*: the checksum must catch it at load.
/// - **Fsync failure** — the temp file is discarded before rename and
///   the error surfaces; the previous destination stays intact.
/// - **Bit flip** — one seeded bit is flipped post-checksum and the
///   write reports success: again the checksum's job at load.
///
/// # Errors
///
/// Propagates filesystem failures and injected ENOSPC / fsync failures
/// as [`CkptError::Io`]; a `path` without a file name is
/// [`CkptError::Corrupt`].
pub(crate) fn save_tagged(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
    payload: &[u8],
    faults: Option<&FaultFs>,
) -> Result<(), CkptError> {
    let mut bytes = Vec::with_capacity(28 + payload.len());
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());

    let fault = faults.and_then(|f| f.draw(path));
    if let (Some(WriteFault::BitFlip), Some(f)) = (fault, faults) {
        let bit = f.flip_bit(path, bytes.len());
        bytes[bit / 8] ^= 1 << (bit % 8);
    }

    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = parent {
        create_dir_all_durable(dir)?;
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| CkptError::Corrupt("checkpoint path has no file name".into()))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    match fault {
        Some(WriteFault::Enospc) => {
            // Disk filled mid-write: a partial temp file, then the
            // zero-length destination an interrupted `create` leaves.
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes[..bytes.len() / 2])?;
            drop(f);
            let _ = fs::remove_file(&tmp);
            if !path.exists() {
                drop(File::create(path)?);
            }
            return Err(CkptError::Io(std::io::Error::other(
                "injected fault: ENOSPC during write",
            )));
        }
        Some(WriteFault::FsyncFail) => {
            // The data may never have reached the platter; discard the
            // temp file so the previous destination stays authoritative.
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            drop(f);
            let _ = fs::remove_file(&tmp);
            return Err(CkptError::Io(std::io::Error::other(
                "injected fault: fsync failed",
            )));
        }
        Some(WriteFault::Torn) => {
            // Silent: the truncated file completes the rename and the
            // caller sees success — only the load-time checksum objects.
            let cut = faults
                .expect("fault implies injector")
                .cut_point(path, bytes.len());
            bytes.truncate(cut);
        }
        Some(WriteFault::BitFlip) | None => {}
    }

    let mut f = File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    if let Some(dir) = parent {
        // Make the rename itself durable. Directory fsync is unsupported
        // on some filesystems; the file then still lands atomically,
        // just with slightly weaker crash-ordering, so errors are ignored.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Loads and checksum-verifies one container file — a generation written
/// by [`GenStore::save_next`] — with the same `magic` and `version`.
///
/// # Errors
///
/// [`CkptError::Io`] on filesystem failure; [`CkptError::Corrupt`] on bad
/// magic, unsupported version, truncation, or checksum mismatch.
pub fn load_tagged(path: &Path, magic: &[u8; 8], version: u32) -> Result<Vec<u8>, CkptError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 28 {
        return Err(CkptError::Corrupt(format!(
            "file too short ({} bytes)",
            bytes.len()
        )));
    }
    if &bytes[..8] != magic {
        return Err(CkptError::Corrupt("bad magic".into()));
    }
    let stored_version = u32::from_le_bytes(bytes[8..12].try_into().expect("4"));
    if stored_version != version {
        return Err(CkptError::Corrupt(format!(
            "format version {stored_version} (this build reads {version})"
        )));
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8")) as usize;
    let expected_total = 28usize
        .checked_add(payload_len)
        .ok_or_else(|| CkptError::Corrupt("payload length overflow".into()))?;
    if bytes.len() != expected_total {
        return Err(CkptError::Corrupt(format!(
            "payload length {payload_len} disagrees with file size {}",
            bytes.len()
        )));
    }
    let stored = u64::from_le_bytes(bytes[20 + payload_len..].try_into().expect("8"));
    bytes.truncate(20 + payload_len);
    bytes.drain(..20);
    let actual = fnv1a(&bytes);
    if stored != actual {
        return Err(CkptError::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    Ok(bytes)
}

// ------------------------------------------------- rotated snapshots

/// A [`GenStore`] rotating snapshot generations (`<base>.0001.bin`, …)
/// under the standard snapshot magic and format version, keeping
/// [`DEFAULT_KEEP`] generations.
pub fn snapshot_store(base: &Path) -> GenStore {
    GenStore::new(base, MAGIC, FORMAT_VERSION)
}

/// Writes `snap` as the next snapshot generation of `store`, returning
/// the generation number.
///
/// # Errors
///
/// As [`GenStore::save_next`].
pub fn save_snapshot_gen(store: &GenStore, snap: &RunSnapshot) -> Result<u64, CkptError> {
    store.save_next(&encode(snap))
}

/// Loads the newest good snapshot generation of `store`, reporting how
/// many corrupt newer generations were rolled past.
///
/// # Errors
///
/// As [`GenStore::load_latest_good_with`].
pub fn load_snapshot_gen(store: &GenStore) -> Result<Option<GenLoad<RunSnapshot>>, CkptError> {
    store.load_latest_good_with(decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("maopt-ckpt-{}-{name}", std::process::id()))
    }

    fn sample() -> RunSnapshot {
        let mlp = MlpState {
            layers: vec![
                LayerState {
                    inputs: 2,
                    outputs: 3,
                    weights: vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6],
                    bias: vec![0.0, 0.25, -0.125],
                },
                LayerState {
                    inputs: 3,
                    outputs: 1,
                    weights: vec![1.0, -1.0, 2.0],
                    bias: vec![f64::MIN_POSITIVE],
                },
            ],
        };
        let adam = AdamState {
            t: 42,
            m: vec![0.5; 10],
            v: vec![0.25; 10],
        };
        RunSnapshot {
            label: "MA-Opt".into(),
            problem: "ota-τ".into(), // non-ASCII exercises UTF-8 strings
            seed: 7,
            budget: 100,
            init_len: 20,
            round: 5,
            sims_used: 35,
            critic_ready: true,
            rng: [1, u64::MAX, 3, 0],
            population: vec![
                (vec![0.5, 0.25], vec![1.0, f64::INFINITY, f64::NAN]),
                (vec![0.1, 0.9], vec![-3.5, 0.0, 2.0]),
            ],
            sim_kinds: vec![1, 1, 2],
            visible: vec![vec![0, 1, 2], vec![0, 7]],
            prev_elite: vec![vec![0.5, 0.25]],
            actors: vec![ActorCkpt {
                mlp: mlp.clone(),
                adam: adam.clone(),
            }],
            critics: vec![
                CriticCkpt {
                    net: mlp.clone(),
                    adam: adam.clone(),
                    scaler: Some(ScalerState {
                        mins: vec![-1.0, 0.0],
                        ranges: vec![2.0, 0.0],
                    }),
                },
                CriticCkpt {
                    net: mlp,
                    adam,
                    scaler: None,
                },
            ],
            cache: vec![(vec![500_000_000_000, i64::MIN], vec![1.5, 2.5])],
            counters: [35, 3, 32, 2, 1, 0, 1, 0],
            timings: [1.5, 0.75, 0.5, 0.125],
            journal_lines: vec!["{\"kind\":\"manifest\"}".into(), "{\"round\":1}".into()],
            op_store: vec![
                (
                    vec![500_000_000_000, 250_000_000_000],
                    vec![vec![0.9, 1.8, -1e-5], vec![0.45]],
                ),
                (vec![0, i64::MAX], vec![]),
            ],
        }
    }

    /// A snapshot store rotating beside `run.ckpt` in a fresh directory.
    fn tmp_store(name: &str) -> GenStore {
        let dir = tmp_path(name);
        let _ = fs::remove_dir_all(&dir);
        snapshot_store(&dir.join("run.ckpt"))
    }

    fn cleanup(store: &GenStore) {
        if let Some(dir) = store.base().parent() {
            let _ = fs::remove_dir_all(dir);
        }
    }

    /// Loads the one container at `path` and decodes it as a snapshot,
    /// so a test can see *why* the store rolled a generation back.
    fn load_file(path: &Path) -> Result<RunSnapshot, CkptError> {
        decode(&load_tagged(path, MAGIC, FORMAT_VERSION)?)
    }

    #[test]
    fn roundtrip_is_exact_including_nonfinite_floats() {
        let store = tmp_store("roundtrip");
        let snap = sample();
        assert_eq!(save_snapshot_gen(&store, &snap).unwrap(), 1);
        let back = load_snapshot_gen(&store).unwrap().unwrap().value;
        // NaN breaks PartialEq; compare via bit-exact debug formatting
        // field by field around it, then the rest structurally.
        assert_eq!(back.population[0].1[2].to_bits(), f64::NAN.to_bits());
        let mut a = snap.clone();
        let mut b = back.clone();
        a.population[0].1[2] = 0.0;
        b.population[0].1[2] = 0.0;
        assert_eq!(a, b);
        cleanup(&store);
    }

    #[test]
    fn save_is_atomic_over_an_existing_snapshot() {
        let store = tmp_store("atomic");
        let first = sample();
        save_snapshot_gen(&store, &first).unwrap();
        let mut second = sample();
        second.round = 6;
        second.journal_lines.push("{\"round\":6}".into());
        save_snapshot_gen(&store, &second).unwrap();
        let load = load_snapshot_gen(&store).unwrap().unwrap();
        assert_eq!((load.value.round, load.generation), (6, 2));
        // No temp residue.
        let dir = store.base().parent().unwrap();
        for entry in fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "temp file {name:?} must be renamed away"
            );
        }
        cleanup(&store);
    }

    #[test]
    fn every_truncation_is_detected_never_panics() {
        let store = tmp_store("trunc");
        save_snapshot_gen(&store, &sample()).unwrap();
        let path = store.generation_path(1).unwrap();
        let bytes = fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            match load_file(&path) {
                Err(CkptError::Corrupt(_)) => {}
                Ok(_) => panic!("truncation to {cut} bytes must not verify"),
                Err(CkptError::Io(e)) => panic!("unexpected io error: {e}"),
            }
            // The store reads the zero-length residue of an interrupted
            // create as missing, every other cut as corrupt.
            match load_snapshot_gen(&store) {
                Ok(None) if cut == 0 => {}
                Err(CkptError::Corrupt(_)) if cut > 0 => {}
                other => panic!("truncation to {cut} bytes: store gave {other:?}"),
            }
        }
        cleanup(&store);
    }

    #[test]
    fn every_single_byte_flip_in_payload_is_detected() {
        let store = tmp_store("flip");
        save_snapshot_gen(&store, &sample()).unwrap();
        let path = store.generation_path(1).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Flip one byte in the payload region; checksum must catch all.
        for pos in (20..bytes.len() - 8).step_by(7) {
            let mut mangled = bytes.clone();
            mangled[pos] ^= 0xA5;
            fs::write(&path, &mangled).unwrap();
            assert!(
                matches!(load_snapshot_gen(&store), Err(CkptError::Corrupt(_))),
                "flip at byte {pos} must fail the checksum"
            );
        }
        cleanup(&store);
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let store = tmp_store("magic");
        save_snapshot_gen(&store, &sample()).unwrap();
        let path = store.generation_path(1).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_file(&path),
            Err(CkptError::Corrupt(msg)) if msg.contains("magic")
        ));
        assert!(matches!(
            load_snapshot_gen(&store),
            Err(CkptError::Corrupt(_))
        ));
        bytes[0] = b'M';
        bytes[8] = 99;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_file(&path),
            Err(CkptError::Corrupt(msg)) if msg.contains("version")
        ));
        assert!(matches!(
            load_snapshot_gen(&store),
            Err(CkptError::Corrupt(_))
        ));
        cleanup(&store);
    }

    #[test]
    fn load_if_exists_maps_missing_to_none() {
        let store = tmp_store("missing");
        assert!(load_snapshot_gen(&store).unwrap().is_none());
        // What an interrupted `create` leaves behind never held data.
        fs::create_dir_all(store.base().parent().unwrap()).unwrap();
        fs::write(store.generation_path(1).unwrap(), b"").unwrap();
        assert!(load_snapshot_gen(&store).unwrap().is_none());
        save_snapshot_gen(&store, &sample()).unwrap();
        assert!(load_snapshot_gen(&store).unwrap().is_some());
        cleanup(&store);
    }

    #[test]
    fn corrupt_length_prefix_errors_without_huge_allocation() {
        // A payload whose first vector claims u64::MAX elements.
        let mut e = Enc::default();
        e.u64(u64::MAX); // label "length"
        let store = tmp_store("hugelen");
        store.save_next(&e.buf).unwrap();
        assert!(matches!(
            load_file(&store.generation_path(1).unwrap()),
            Err(CkptError::Corrupt(msg)) if msg.contains("length prefix")
        ));
        assert!(matches!(
            load_snapshot_gen(&store),
            Err(CkptError::Corrupt(_))
        ));
        cleanup(&store);
    }

    #[test]
    fn tagged_payload_roundtrip_rejects_foreign_magic() {
        let root = tmp_path("tagged");
        let _ = fs::remove_dir_all(&root);
        let base = root.join("queue.bin");
        let payload = br#"{"jobs":[],"next_id":1}"#;
        let queue = GenStore::new(&base, b"MAOPTJBQ", 2);
        queue.save_next(payload).unwrap();
        assert_eq!(
            queue.load_latest_good().unwrap().unwrap().value,
            payload.to_vec()
        );
        // A snapshot reader must not accept a job-queue manifest and
        // vice versa, even though both share the container format.
        let path = queue.generation_path(1).unwrap();
        assert!(matches!(
            load_tagged(&path, MAGIC, FORMAT_VERSION),
            Err(CkptError::Corrupt(msg)) if msg.contains("magic")
        ));
        assert!(matches!(
            load_snapshot_gen(&snapshot_store(&base)),
            Err(CkptError::Corrupt(_))
        ));
        assert!(matches!(
            load_tagged(&path, b"MAOPTJBQ", 3),
            Err(CkptError::Corrupt(msg)) if msg.contains("version")
        ));
        assert!(GenStore::new(root.join("no-such.bin"), b"MAOPTJBQ", 2)
            .load_latest_good()
            .unwrap()
            .is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tagged_save_creates_nested_state_dirs() {
        let root = tmp_path("nested-state");
        let _ = fs::remove_dir_all(&root);
        let store = GenStore::new(root.join("a/b/queue.bin"), b"MAOPTJBQ", 1);
        store.save_next(b"x").unwrap();
        assert_eq!(store.load_latest_good().unwrap().unwrap().value, b"x");
        let _ = fs::remove_dir_all(&root);
    }
}
