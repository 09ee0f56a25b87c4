//! Persistent schedule corpus ("campaign mode").
//!
//! The [`ScheduleCache`] trie memoizes the deterministic program, but it
//! dies with the process: every study re-explores from scratch. This module
//! makes the trie a first-class on-disk artifact so repeated studies *resume*
//! instead of restart:
//!
//! * a **versioned, endian-stable binary format** for the trie
//!   ([`cache_to_bytes`] / [`cache_from_bytes`]): the trie's flat columns —
//!   nodes (forced nodes inline, choice nodes as scalars plus pool indices),
//!   the operation pool, the edge pool and the terminal digests — and the
//!   byte accounting round-trip exactly, so decoding is one pass per column
//!   and re-encoding a loaded trie reproduces its bytes. Every artifact ends
//!   in a checksum of all the bytes before it, checked before anything is
//!   decoded, and every decoded trie is validated structurally, pools
//!   included — corrupted, truncated or wrong-version files fail with a
//!   [`CorpusError`], never a panic, a hang, a silent cold start or a
//!   silently changed digest;
//! * a **keyed** header: the file records a fingerprint of the program name
//!   and [`ExecConfig`] it was built against ([`corpus_key`]), because a trie
//!   is only a valid memo of the exact deterministic program it observed —
//!   resuming against a different configuration is an error, not a guess;
//! * **one declaration per wire type**: the `wire!` table lists each
//!   composite type's tags and field order once, and generates its encoder,
//!   its decoder and the minimum size the length guards check against; the
//!   corpus key hashes the same encoding of the configuration;
//! * a **replayable bug corpus**: every buggy terminal in the trie is
//!   distilled to a *minimized decision prefix* ([`minimize_prefix`], binary
//!   search against the deterministic program) and saved next to the trie;
//!   [`replay_prefix`] reproduces each bug in exactly one execution (follow
//!   the prefix, then fall back to the deterministic round-robin scheduler).
//!
//! [`Corpus`] manages the on-disk directory (one trie + one bug file per
//! benchmark, written atomically via a rename so a kill mid-save never leaves
//! a half-written artifact). Saves are also *durable*: the temporary file is
//! `sync_all`ed before the rename and the parent directory is fsynced after
//! it, so a power cut right after a reported save cannot roll the artifact
//! back — and transient I/O errors are retried a bounded number of times
//! before they surface. A crash between write and rename leaves a stale
//! `.tmp` file, which [`Corpus::open`] sweeps away (it was never published,
//! so it is garbage, never data). The drivers consume a loaded trie through
//! [`SharedCache`](crate::cache::SharedCache) — see `crate::explore` — which
//! keeps the resumed statistics deterministic at any worker count.

use crate::cache::{Edge, Link, Node, ScheduleCache, TerminalDigest, TERMINAL_BYTES};
use crate::fault::{self, FaultKind};
use sct_ir::{Loc, Program, TemplateId};
use sct_runtime::{
    Bug, ExecConfig, Execution, ExecutionOutcome, NoopObserver, PendingOp, SchedulingPoint,
    ThreadId, VisibilityMode,
};
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::hash::Hash;
use std::io;
use std::path::{Path, PathBuf};

/// On-disk format version. Bump on any incompatible layout change; loads of
/// other versions fail with [`CorpusError::UnsupportedVersion`]. Since
/// version 2 every artifact ends with an 8-byte FNV-1a checksum of the bytes
/// before it; version 3 stores the trie as its flat columns, without the
/// enabled-thread lists (a choice node's enabled threads are its operations'
/// threads).
pub const FORMAT_VERSION: u32 = 3;

const CACHE_MAGIC: &[u8; 4] = b"SCTC";
const BUGS_MAGIC: &[u8; 4] = b"SCTB";

/// Why a corpus artifact could not be read or written.
#[derive(Debug)]
pub enum CorpusError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic { path: PathBuf },
    /// The file's format version is not supported by this build.
    UnsupportedVersion { path: PathBuf, found: u32 },
    /// The file was built against a different program/configuration.
    KeyMismatch {
        path: PathBuf,
        expected: u64,
        found: u64,
    },
    /// The file is structurally invalid (truncated, bad indices, accounting
    /// mismatch, ...).
    Corrupted { path: PathBuf, detail: String },
    /// A saved bug record no longer reproduces its bug: the program or the
    /// engine changed since the corpus was built, so its trie cannot be
    /// trusted either.
    Stale { path: PathBuf, detail: String },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus i/o error: {e}"),
            CorpusError::BadMagic { path } => {
                write!(f, "{}: not a schedule-corpus file (bad magic)", path.display())
            }
            CorpusError::UnsupportedVersion { path, found } => write!(
                f,
                "{}: unsupported corpus format version {found} (this build supports {FORMAT_VERSION})",
                path.display()
            ),
            CorpusError::KeyMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: corpus was built for a different program/configuration \
                 (key {found:#018x}, expected {expected:#018x}); refusing to resume from it",
                path.display()
            ),
            CorpusError::Corrupted { path, detail } => {
                write!(f, "{}: corrupted corpus file: {detail}", path.display())
            }
            CorpusError::Stale { path, detail } => write!(
                f,
                "{}: stale corpus: {detail}; the program or engine changed since it was \
                 saved, so delete the corpus directory and rerun cold (without --resume)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

/// Version of the interpreter semantics a saved trie was recorded under. A
/// trie maps decision prefixes to terminal digests, so an engine change that
/// alters any schedule's digest makes every old trie wrong; bumping this
/// turns such tries into key mismatches instead of silently served rows.
/// The integration test `engine_epoch_pins_the_terminal_digest_stream`
/// fails when the digests of a fixed search change, and says to bump it;
/// `registry_programs_are_pinned` fails when the builder moves an
/// instruction of a registry program, which moves every trie path with it.
const ENGINE_EPOCH: u64 = 1;

/// Fingerprint of the (program, execution configuration) pair a corpus
/// artifact is valid for: a hash of the pair's wire encoding and the
/// `ENGINE_EPOCH`. The encoding covers every [`ExecConfig`] field
/// (visibility with its racy locations sorted, so the key is set-order
/// independent, and the execution limits) — everything that changes which
/// scheduling points the deterministic program produces — so the fields
/// that invalidate a memo are listed once, in the wire table below.
pub fn corpus_key(program_name: &str, config: &ExecConfig) -> u64 {
    let mut w = Writer::default();
    w.u64(ENGINE_EPOCH);
    w.str(program_name);
    config.put(&mut w);
    checksum(&w.buf)
}

/// FNV-1a over `data` in four interleaved lanes: little-endian 8-byte word
/// `i` goes into lane `i % 4`, one word per multiply; then the lanes and the
/// tail bytes are folded into one more FNV-1a state. Each step is a
/// bijection of the state it updates, so a change confined to one word — in
/// particular any single-byte flip — always changes the result. The lanes
/// are independent, so their multiplies overlap instead of waiting on each
/// other.
fn checksum(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = [BASIS; 4];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = (*lane ^ u64::from_le_bytes(word.try_into().unwrap())).wrapping_mul(PRIME);
        }
    }
    let tail = blocks.remainder().iter().map(|&b| b as u64);
    lanes
        .into_iter()
        .chain(tail)
        .fold(BASIS, |h, v| (h ^ v).wrapping_mul(PRIME))
}

// ---------------------------------------------------------------------------
// Little-endian byte stream helpers.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

type Decode<T> = Result<T, String>;

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Decode<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Decode<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Decode<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Decode<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Decode<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Length prefix for a collection about to be decoded: bounded by the
    /// bytes actually remaining so a corrupted length fails fast instead of
    /// attempting a huge allocation.
    fn len(&mut self, min_item_bytes: usize) -> Decode<usize> {
        let n = self.u64()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_item_bytes.max(1)) > remaining {
            return Err(format!(
                "length {n} at byte {} exceeds remaining {remaining} bytes",
                self.pos
            ));
        }
        Ok(n)
    }
    fn str(&mut self) -> Decode<String> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid utf-8 string".to_string())
    }
    fn bool(&mut self) -> Decode<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid bool byte {v}")),
        }
    }
    fn finish(&self) -> Decode<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after the last field",
                self.buf.len() - self.pos
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// The wire format: one declaration per type, both directions.
// ---------------------------------------------------------------------------

/// A type with an on-disk layout: how it is written, how it is read back,
/// and the fewest bytes any encoding of it takes — the bound a collection's
/// length prefix is checked against before anything is allocated.
///
/// The non-generic impls are `#[inline]`: the `Vec`/`Option` impls that call
/// them are instantiated in other codegen units, where a plain function is
/// not inlined and every field of every node costs a call.
trait Wire: Sized {
    const MIN_BYTES: usize;
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> Decode<Self>;
}

/// Fixed-width integers, written little-endian by the same-named
/// [`Writer`]/[`Reader`] primitive.
macro_rules! wire_int {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, w: &mut Writer) {
                w.$t(*self)
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Decode<Self> {
                r.$t()
            }
        }
    )*};
}

wire_int!(u32, u64, i64);

/// Written as a `u64`, so the format does not depend on the platform's width.
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64)
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Decode<Self> {
        Ok(r.u64()? as usize)
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.u8(*self as u8)
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Decode<Self> {
        r.bool()
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.str(self)
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Decode<Self> {
        r.str()
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Decode<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            v => Err(format!("invalid option tag {v}")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Decode<Self> {
        let n = r.len(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// A set has no order of its own: it is written sorted, so equal sets encode
/// (and key) identically.
impl<T: Wire + Ord + Hash> Wire for HashSet<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        let mut sorted: Vec<&T> = self.iter().collect();
        sorted.sort();
        w.u64(sorted.len() as u64);
        for v in sorted {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Decode<Self> {
        Ok(Vec::<T>::get(r)?.into_iter().collect())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Decode<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// The smallest of `sizes` (the cheapest enum variant).
const fn min_of(sizes: &[usize]) -> usize {
    let (mut min, mut i) = (usize::MAX, 0);
    while i < sizes.len() {
        if sizes[i] < min {
            min = sizes[i];
        }
        i += 1;
    }
    min
}

/// Derives [`Wire`] for composite types from one declaration each. Fields
/// are written in the order listed; an enum writes its variant's tag byte
/// first. `MIN_BYTES` is the sum of the fields' (for an enum: one tag byte
/// plus its cheapest variant's).
macro_rules! wire {
    () => {};
    (struct $name:ident($t:ty); $($rest:tt)*) => {
        impl Wire for $name {
            const MIN_BYTES: usize = <$t as Wire>::MIN_BYTES;
            #[inline]
            fn put(&self, w: &mut Writer) {
                self.0.put(w)
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Decode<Self> {
                Ok($name(Wire::get(r)?))
            }
        }
        wire!($($rest)*);
    };
    (struct $name:ident { $($f:ident: $t:ty),* $(,)? } $($rest:tt)*) => {
        impl Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$t as Wire>::MIN_BYTES)*;
            #[inline]
            fn put(&self, w: &mut Writer) {
                $(self.$f.put(w);)*
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Decode<Self> {
                Ok($name { $($f: Wire::get(r)?),* })
            }
        }
        wire!($($rest)*);
    };
    (enum $name:ident { $($tag:literal => $v:ident $fields:tt),* $(,)? } $($rest:tt)*) => {
        impl Wire for $name {
            const MIN_BYTES: usize = 1 + min_of(&[$(wire!(@min $fields)),*]);
            #[inline]
            fn put(&self, w: &mut Writer) {
                match self {
                    $($name::$v { .. } => w.u8($tag),)*
                }
                $(wire!(@put self, w, $name::$v $fields);)*
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Decode<Self> {
                Ok(match r.u8()? {
                    $($tag => wire!(@get r, $name::$v $fields),)*
                    v => return Err(format!("invalid {} tag {v}", stringify!($name))),
                })
            }
        }
        wire!($($rest)*);
    };
    (@min { $($f:ident: $t:ty),* $(,)? }) => { 0 $(+ <$t as Wire>::MIN_BYTES)* };
    (@min ($t:ty)) => { <$t as Wire>::MIN_BYTES };
    (@put $s:ident, $w:ident, $name:ident::$v:ident { $($f:ident: $t:ty),* $(,)? }) => {
        if let $name::$v { $($f),* } = $s {
            $($f.put($w);)*
        }
    };
    (@put $s:ident, $w:ident, $name:ident::$v:ident ($t:ty)) => {
        if let $name::$v(x) = $s {
            x.put($w);
        }
    };
    (@get $r:ident, $name:ident::$v:ident { $($f:ident: $t:ty),* $(,)? }) => {
        $name::$v { $($f: Wire::get($r)?),* }
    };
    (@get $r:ident, $name:ident::$v:ident ($t:ty)) => {
        $name::$v(Wire::get($r)?)
    };
}

wire! {
    struct ThreadId(usize);
    struct TemplateId(u32);
    struct Loc { template: TemplateId, pc: u32 }
    struct PendingOp { thread: ThreadId, loc: Loc, addr: Option<usize>, is_write: bool }
    struct TerminalDigest {
        bug: Option<Bug>,
        diverged: bool,
        threads_created: usize,
        max_enabled: usize,
        scheduling_points: usize,
        fingerprint: u64,
        preemptions: u32,
        delays: u32,
    }
    enum Link {
        0 => Interior(u32),
        1 => Terminal(u32),
    }
    enum Node {
        0 => Forced { op: PendingOp, next: Option<Link> },
        1 => Choice {
            last: Option<ThreadId>,
            last_enabled: bool,
            num_threads: usize,
            step_index: usize,
            ops: u32,
            width: u32,
            edges: Option<u32>,
        },
    }
    struct Edge { thread: ThreadId, link: Link, next: Option<u32> }
    enum Bug {
        0 => AssertionFailure { thread: ThreadId, loc: Loc, msg: String },
        1 => ExplicitFailure { thread: ThreadId, loc: Loc, msg: String },
        2 => Deadlock { blocked: Vec<ThreadId> },
        3 => UnlockNotHeld { thread: ThreadId, loc: Loc },
        4 => UseAfterDestroy { thread: ThreadId, loc: Loc },
        5 => DestroyBusy { thread: ThreadId, loc: Loc },
        6 => OutOfBounds { thread: ThreadId, loc: Loc, index: i64, len: u32 },
        7 => InvalidJoin { thread: ThreadId, loc: Loc, target: i64 },
        8 => WaitWithoutMutex { thread: ThreadId, loc: Loc },
        9 => StepLimitExceeded { limit: usize },
    }
    enum VisibilityMode {
        0 => SyncOnly {},
        1 => AllSharedAccesses {},
        2 => RacyOnly(HashSet<Loc>),
    }
    struct ExecConfig {
        visibility: VisibilityMode,
        max_steps: usize,
        max_invisible_ops_per_step: usize,
    }
    struct BugRecord { prefix: Vec<ThreadId>, bug: Bug }
    struct BugCorpus { benchmark: String, config: ExecConfig, records: Vec<BugRecord> }
}

// ---------------------------------------------------------------------------
// Artifact framing: header, body, checksum.
// ---------------------------------------------------------------------------

/// Encode one artifact: magic, format version, the key (tries only), the
/// body `fill` writes, then the checksum of everything before it.
fn write_artifact(magic: &[u8; 4], key: Option<u64>, fill: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::default();
    w.buf.extend_from_slice(magic);
    w.u32(FORMAT_VERSION);
    if let Some(key) = key {
        w.u64(key);
    }
    fill(&mut w);
    let sum = checksum(&w.buf);
    w.u64(sum);
    w.buf
}

/// Decode one artifact [`write_artifact`] encoded, checking the magic, the
/// version, the checksum and the key (tries only) in that order — so no
/// corrupted byte is ever decoded — before `body` consumes every byte up to
/// the checksum.
fn read_artifact<T>(
    data: &[u8],
    magic: &[u8; 4],
    key: Option<u64>,
    path: &Path,
    body: impl FnOnce(&mut Reader<'_>) -> Decode<T>,
) -> Result<T, CorpusError> {
    let corrupted = |detail: String| CorpusError::Corrupted {
        path: path.to_path_buf(),
        detail,
    };
    let mut r = Reader::new(data);
    if r.take(4).map_err(corrupted)? != magic {
        return Err(CorpusError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let version = r.u32().map_err(corrupted)?;
    if version != FORMAT_VERSION {
        return Err(CorpusError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let Some(end) = data.len().checked_sub(8).filter(|&end| end >= r.pos) else {
        return Err(corrupted("truncated before the checksum".to_string()));
    };
    let (covered, stored) = data.split_at(end);
    let stored = Reader::new(stored).u64().map_err(corrupted)?;
    let computed = checksum(covered);
    if stored != computed {
        return Err(corrupted(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }
    let mut r = Reader { buf: covered, ..r };
    if let Some(expected) = key {
        let found = r.u64().map_err(corrupted)?;
        if found != expected {
            return Err(CorpusError::KeyMismatch {
                path: path.to_path_buf(),
                expected,
                found,
            });
        }
    }
    body(&mut r)
        .and_then(|value| r.finish().map(|()| value))
        .map_err(corrupted)
}

// ---------------------------------------------------------------------------
// Trie file format.
// ---------------------------------------------------------------------------

/// Serialize a trie to the versioned binary format, stamped with `key`.
///
/// The session counters (`hits`, `insertions`) are deliberately not part of
/// the format: a loaded trie starts a fresh session over durable content,
/// which also keeps serialize→load→serialize byte-stable.
pub fn cache_to_bytes(cache: &ScheduleCache, key: u64) -> Vec<u8> {
    write_artifact(CACHE_MAGIC, Some(key), |w| {
        cache.max_bytes.put(w);
        cache.bytes.put(w);
        cache.full.put(w);
        cache.nodes.put(w);
        cache.ops.put(w);
        cache.edges.put(w);
        cache.terminals.put(w);
    })
}

/// Load a trie from its binary form, verifying magic, version, checksum, key
/// and structural integrity (every edge in bounds and the trie shape
/// `insert` builds, byte accounting consistent).
pub fn cache_from_bytes(data: &[u8], key: u64, path: &Path) -> Result<ScheduleCache, CorpusError> {
    read_artifact(data, CACHE_MAGIC, Some(key), path, |r| {
        let mut cache = ScheduleCache::new(Wire::get(r)?);
        cache.bytes = Wire::get(r)?;
        cache.full = Wire::get(r)?;
        cache.nodes = Wire::get(r)?;
        cache.ops = Wire::get(r)?;
        cache.edges = Wire::get(r)?;
        cache.terminals = Wire::get(r)?;
        validate_cache(&cache)?;
        Ok(cache)
    })
}

/// Structural integrity of a freshly decoded trie: it has the shape
/// `ScheduleCache::insert` builds — every choice node owns at least two
/// operations, the next contiguous run of the operation pool; every edge is
/// on exactly one choice node's list, once; every interior link points
/// forward; and every node but the root and every terminal is the target of
/// exactly one link, inside the node/terminal tables — and recomputing the
/// byte estimate from the nodes reproduces the stored accounting (so a bit
/// flip in either is caught). A back-link or an edge cycle would make walks
/// loop forever; a shared child would serve digests recorded under another
/// prefix.
fn validate_cache(cache: &ScheduleCache) -> Decode<()> {
    let mut ops_end = 0usize;
    let mut edge_owner: Vec<Option<usize>> = vec![None; cache.edges.len()];
    for (holder, node) in cache.nodes.iter().enumerate() {
        let Node::Choice {
            ops, width, edges, ..
        } = *node
        else {
            continue;
        };
        if width < 2 {
            return Err(format!("choice node {holder} has {width} ops"));
        }
        if ops as usize != ops_end {
            return Err(format!(
                "choice node {holder} ops start at {ops}, not where the previous run ends ({ops_end})"
            ));
        }
        ops_end += width as usize;
        if ops_end > cache.ops.len() {
            return Err(format!(
                "choice node {holder} ops {ops}..{ops_end} out of bounds ({} ops)",
                cache.ops.len()
            ));
        }
        let mut next = edges;
        while let Some(e) = next.map(|e| e as usize) {
            match edge_owner.get_mut(e) {
                None => {
                    return Err(format!(
                        "choice node {holder} links edge {e} out of bounds ({} edges)",
                        cache.edges.len()
                    ))
                }
                Some(Some(owner)) if *owner == holder => {
                    return Err(format!("edge {e} closes a cycle in node {holder}'s list"))
                }
                Some(Some(owner)) => {
                    return Err(format!(
                        "edge {e} is in the lists of nodes {owner} and {holder}"
                    ))
                }
                Some(owner) => *owner = Some(holder),
            }
            next = cache.edges[e].next;
        }
    }
    if ops_end != cache.ops.len() {
        return Err(format!(
            "ops {ops_end}..{} belong to no choice node",
            cache.ops.len()
        ));
    }
    if let Some(e) = edge_owner.iter().position(Option::is_none) {
        return Err(format!("edge {e} is unreachable"));
    }
    let nodes = cache.nodes.len();
    let terminals = cache.terminals.len();
    let mut node_linked = vec![false; nodes];
    let mut terminal_linked = vec![false; terminals];
    let mut recomputed = 0u64;
    for (holder, node) in cache.nodes.iter().enumerate() {
        recomputed += node.weight();
        for (_, link) in cache.links(holder) {
            let (kind, target, linked) = match link {
                Link::Interior(n) if n as usize <= holder => {
                    return Err(format!("node {holder} links back to node {n}"))
                }
                Link::Interior(n) => ("node", n as usize, &mut node_linked),
                Link::Terminal(d) => ("terminal", d as usize, &mut terminal_linked),
            };
            match linked.get_mut(target) {
                None => {
                    return Err(format!(
                        "{kind} link {target} out of bounds ({} {kind}s)",
                        linked.len()
                    ))
                }
                Some(true) => return Err(format!("{kind} {target} is the target of two links")),
                Some(seen) => *seen = true,
            }
        }
    }
    if let Some(n) = node_linked.iter().skip(1).position(|seen| !seen) {
        return Err(format!("node {} is unreachable", n + 1));
    }
    if let Some(d) = terminal_linked.iter().position(|seen| !seen) {
        return Err(format!("terminal {d} is unreachable"));
    }
    recomputed += terminals as u64 * TERMINAL_BYTES;
    if recomputed != cache.bytes {
        return Err(format!(
            "byte accounting mismatch: stored {} vs recomputed {recomputed}",
            cache.bytes
        ));
    }
    if cache.full != (cache.bytes >= cache.max_bytes) {
        return Err(format!(
            "fullness flag inconsistent: full={} with bytes {} / cap {}",
            cache.full, cache.bytes, cache.max_bytes
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Bug corpus.
// ---------------------------------------------------------------------------

/// One reproducible bug: the minimal decision prefix that triggers it when
/// the remainder of the execution follows the deterministic round-robin
/// scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugRecord {
    /// Minimized decision prefix (see [`minimize_prefix`]).
    pub prefix: Vec<ThreadId>,
    /// The bug [`replay_prefix`] reproduces from that prefix.
    pub bug: Bug,
}

/// The replayable bug corpus of one benchmark: its records plus the exact
/// execution configuration they were minimized against (replaying under a
/// different visibility mode would shift every scheduling point).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugCorpus {
    /// Benchmark name (matches `BenchmarkSpec::name` in the harness).
    pub benchmark: String,
    /// Execution configuration the prefixes were recorded under.
    pub config: ExecConfig,
    /// Deduplicated, deterministically ordered records.
    pub records: Vec<BugRecord>,
}

/// Serialize a bug corpus to the versioned binary format.
pub fn bugs_to_bytes(corpus: &BugCorpus) -> Vec<u8> {
    write_artifact(BUGS_MAGIC, None, |w| corpus.put(w))
}

/// Load a bug corpus, verifying magic, version, checksum and structure.
pub fn bugs_from_bytes(data: &[u8], path: &Path) -> Result<BugCorpus, CorpusError> {
    read_artifact(data, BUGS_MAGIC, None, path, BugCorpus::get)
}

/// Run the program once: follow `prefix` decision by decision (falling back
/// to the deterministic round-robin choice if a prefix thread is not enabled
/// — which never happens for prefixes recorded against the same program) and
/// continue round-robin after the prefix is exhausted. Exactly one execution.
pub fn replay_prefix(
    program: &Program,
    config: &ExecConfig,
    prefix: &[ThreadId],
) -> ExecutionOutcome {
    let mut exec = Execution::new_shared(program, config);
    run_prefix(&mut exec, prefix)
}

fn run_prefix(exec: &mut Execution<'_>, prefix: &[ThreadId]) -> ExecutionOutcome {
    exec.reset();
    let mut step = 0usize;
    exec.run(
        &mut |point: &SchedulingPoint| {
            let chosen = prefix
                .get(step)
                .copied()
                .filter(|&t| point.is_enabled(t))
                .unwrap_or_else(|| point.round_robin_choice());
            step += 1;
            chosen
        },
        &mut NoopObserver,
    )
}

/// Binary-search the shortest prefix of `schedule` whose [`replay_prefix`]
/// continuation still reproduces `bug` (a locally minimal cut: the predicate
/// is not guaranteed monotone, so this finds *a* minimal witness, not
/// necessarily the global one — the standard trade-off of binary-search
/// truncation). Returns the full schedule if even it does not reproduce the
/// bug (cannot happen for schedules recorded against the same program).
pub fn minimize_prefix(
    program: &Program,
    config: &ExecConfig,
    schedule: &[ThreadId],
    bug: &Bug,
) -> Vec<ThreadId> {
    let mut exec = Execution::new_shared(program, config);
    let reproduces = |exec: &mut Execution<'_>, len: usize| {
        run_prefix(exec, &schedule[..len]).bug.as_ref() == Some(bug)
    };
    if !reproduces(&mut exec, schedule.len()) {
        return schedule.to_vec();
    }
    let (mut lo, mut hi) = (0usize, schedule.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reproduces(&mut exec, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    schedule[..hi].to_vec()
}

/// Distill a trie's buggy terminals into a deduplicated, minimized bug
/// corpus: one record per distinct [`Bug`] value, keyed on the
/// path-lexicographically first schedule that produced it (deterministic no
/// matter what order the trie was built in).
pub fn harvest_bugs(
    program: &Program,
    config: &ExecConfig,
    cache: &ScheduleCache,
) -> Vec<BugRecord> {
    let mut records: Vec<BugRecord> = Vec::new();
    for (schedule, bug) in cache.buggy_schedules() {
        if records.iter().any(|r| r.bug == bug) {
            continue;
        }
        let prefix = minimize_prefix(program, config, &schedule, &bug);
        records.push(BugRecord { prefix, bug });
    }
    records
}

// ---------------------------------------------------------------------------
// On-disk corpus directory.
// ---------------------------------------------------------------------------

/// A corpus directory: one trie file (`<slug>.trie.sctc`) and one bug file
/// (`<slug>.bugs.sctb`) per benchmark. All saves are atomic
/// (write-to-temporary + rename), so a study killed mid-save leaves the
/// previous artifact intact rather than a truncated one — and durable
/// (tmp-file `sync_all` before the rename, parent-directory fsync after it),
/// so a reported save survives a crash of the whole machine.
#[derive(Debug, Clone)]
pub struct Corpus {
    dir: PathBuf,
}

/// Attempts one corpus save makes before surfacing the I/O error.
const WRITE_ATTEMPTS: u32 = 3;

/// Pause before retry `n` (linear backoff: `n * RETRY_BACKOFF`).
const RETRY_BACKOFF: std::time::Duration = std::time::Duration::from_millis(10);

impl Corpus {
    /// Open (creating if needed) a corpus directory, sweeping away any stale
    /// `.tmp` files a crashed save left behind: they were never published by
    /// a rename, so they are garbage, never data, and deleting them keeps a
    /// torn one from ever being mistaken for an artifact.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Corpus, CorpusError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|x| x == "tmp") {
                // Best effort: a sweep that loses a race (or lacks
                // permission) costs nothing — saves truncate on create.
                let _ = fs::remove_file(&path);
            }
        }
        Ok(Corpus { dir })
    }

    /// The directory this corpus lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn slug(name: &str) -> String {
        name.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect()
    }

    /// Path of the trie artifact for `benchmark`.
    pub fn cache_path(&self, benchmark: &str) -> PathBuf {
        self.dir
            .join(format!("{}.trie.sctc", Self::slug(benchmark)))
    }

    /// Path of the bug-corpus artifact for `benchmark`.
    pub fn bugs_path(&self, benchmark: &str) -> PathBuf {
        self.dir
            .join(format!("{}.bugs.sctb", Self::slug(benchmark)))
    }

    /// Atomic, durable, retrying save: write to a temporary, `sync_all` it,
    /// rename over the target, fsync the parent directory. Transient I/O
    /// errors are retried up to [`WRITE_ATTEMPTS`] times with linear backoff
    /// (each attempt restarts from a truncating create, so a torn earlier
    /// attempt cannot leak into a later one); a persistent error surfaces.
    fn write_atomic(path: &Path, data: &[u8]) -> Result<(), CorpusError> {
        let mut last: Option<io::Error> = None;
        for attempt in 0..WRITE_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(RETRY_BACKOFF * attempt);
            }
            match Self::write_atomic_once(path, data) {
                Ok(()) => return Ok(()),
                Err(e) => last = Some(e),
            }
        }
        Err(CorpusError::Io(last.expect("at least one attempt ran")))
    }

    fn write_atomic_once(path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let scope = path.to_string_lossy();
        let tmp = path.with_extension("tmp");
        let mut file = fs::File::create(&tmp)?;
        fault::io_point(FaultKind::WriteFail, &scope)?;
        if let Some(torn) = fault::torn_write(&scope, data.len()) {
            // Simulated crash mid-write: flush a prefix to disk and fail,
            // leaving the torn `.tmp` behind exactly as a real crash would.
            file.write_all(&data[..torn])?;
            let _ = file.sync_all();
            return Err(io::Error::other(fault::INJECTED));
        }
        file.write_all(data)?;
        // The contents must be on disk *before* the rename publishes them:
        // without this, a crash after the rename can publish a hole.
        fault::io_point(FaultKind::SyncFail, &scope)?;
        file.sync_all()?;
        drop(file);
        fault::io_point(FaultKind::RenameFail, &scope)?;
        fs::rename(&tmp, path)?;
        // The rename is a directory-entry update; fsync the directory so the
        // publish itself survives a power cut (journalling filesystems may
        // otherwise delay it past the point the caller reports success).
        fs::File::open(path.parent().unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(())
    }

    /// Load the saved trie for `benchmark`, if one exists. `key` must match
    /// the stored fingerprint ([`corpus_key`]); a mismatch is an error, not a
    /// silent cold start.
    pub fn load_cache(
        &self,
        benchmark: &str,
        key: u64,
    ) -> Result<Option<ScheduleCache>, CorpusError> {
        let path = self.cache_path(benchmark);
        let data = match fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CorpusError::Io(e)),
        };
        cache_from_bytes(&data, key, &path).map(Some)
    }

    /// Atomically save the trie for `benchmark`.
    pub fn save_cache(
        &self,
        benchmark: &str,
        key: u64,
        cache: &ScheduleCache,
    ) -> Result<(), CorpusError> {
        Self::write_atomic(&self.cache_path(benchmark), &cache_to_bytes(cache, key))
    }

    /// Load the saved bug corpus for `benchmark`, if one exists.
    pub fn load_bugs(&self, benchmark: &str) -> Result<Option<BugCorpus>, CorpusError> {
        let path = self.bugs_path(benchmark);
        let data = match fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CorpusError::Io(e)),
        };
        bugs_from_bytes(&data, &path).map(Some)
    }

    /// Check, before a resume serves anything, that every bug recorded for
    /// `benchmark` still reproduces: replay each record's prefix under
    /// `config`, one execution per record. A missing bug file passes. A
    /// record that replays to another bug, or to none, is
    /// [`CorpusError::Stale`].
    pub fn audit_bugs(
        &self,
        benchmark: &str,
        program: &Program,
        config: &ExecConfig,
    ) -> Result<(), CorpusError> {
        let Some(bugs) = self.load_bugs(benchmark)? else {
            return Ok(());
        };
        let mut exec = Execution::new_shared(program, config);
        for (i, record) in bugs.records.iter().enumerate() {
            let replayed = run_prefix(&mut exec, &record.prefix).bug;
            if replayed.as_ref() != Some(&record.bug) {
                return Err(CorpusError::Stale {
                    path: self.bugs_path(benchmark),
                    detail: format!(
                        "record {i} ({} decisions) was saved as {} but replays to {}",
                        record.prefix.len(),
                        record.bug,
                        replayed.map_or("no bug".to_string(), |bug| bug.to_string())
                    ),
                });
            }
        }
        Ok(())
    }

    /// Atomically save a bug corpus.
    pub fn save_bugs(&self, corpus: &BugCorpus) -> Result<(), CorpusError> {
        Self::write_atomic(&self.bugs_path(&corpus.benchmark), &bugs_to_bytes(corpus))
    }

    /// Every bug corpus stored in the directory, in file-name order (used by
    /// the `replay` subcommand).
    pub fn bug_corpora(&self) -> Result<Vec<BugCorpus>, CorpusError> {
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|entry| entry.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".bugs.sctb"))
            })
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|path| bugs_from_bytes(&fs::read(path)?, path))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::DelayBound;
    use crate::cache::{run_begun_schedule, CacheHandle};
    use crate::dfs::BoundedDfs;
    use crate::scheduler::Scheduler;
    use sct_ir::prelude::*;

    /// Figure 1 of the paper: a bug that needs one specific interleaving.
    fn figure1() -> Program {
        let mut p = ProgramBuilder::new("figure1");
        let x = p.global("x", 0);
        let y = p.global("y", 0);
        let z = p.global("z", 0);
        let t1 = p.thread("t1", |b| {
            b.store(x, 1);
            b.store(y, 1);
        });
        let t2 = p.thread("t2", |b| {
            b.store(z, 1);
        });
        let t3 = p.thread("t3", |b| {
            let rx = b.local("rx");
            let ry = b.local("ry");
            b.load(x, rx);
            b.load(y, ry);
            b.assert_cond(eq(rx, ry), "x == y");
        });
        p.main(|b| {
            b.spawn(t1);
            b.spawn(t2);
            b.spawn(t3);
        });
        p.build().unwrap()
    }

    fn explored_cache(program: &Program, config: &ExecConfig, bounds: u32) -> ScheduleCache {
        let mut cache = ScheduleCache::default();
        let mut exec = Execution::new_shared(program, config);
        for bound in 0..=bounds {
            let mut scheduler = BoundedDfs::new(Box::new(DelayBound), bound);
            while scheduler.begin_execution() {
                run_begun_schedule(
                    &mut exec,
                    &mut scheduler,
                    CacheHandle::Local(&mut cache),
                    false,
                );
            }
        }
        cache
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sct-corpus-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn trie_round_trips_through_the_binary_format() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let cache = explored_cache(&prog, &config, 2);
        assert!(cache.bytes() > 0 && !cache.terminals.is_empty());
        let key = corpus_key("figure1", &config);
        let data = cache_to_bytes(&cache, key);
        let loaded = cache_from_bytes(&data, key, Path::new("mem")).expect("round trip");
        assert_eq!(loaded.bytes(), cache.bytes());
        assert_eq!(loaded.is_full(), cache.is_full());
        assert_eq!(loaded.nodes.len(), cache.nodes.len());
        assert_eq!(loaded.terminals, cache.terminals);
        assert_eq!(loaded.hits(), 0, "hit counter must reset on load");
        // Re-encoding the loaded trie reproduces the bytes exactly.
        assert_eq!(cache_to_bytes(&loaded, key), data);
        // And the loaded trie serves the same buggy schedules.
        assert_eq!(loaded.buggy_schedules(), cache.buggy_schedules());
    }

    #[test]
    fn corrupted_truncated_and_mismatched_files_fail_clearly() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let cache = explored_cache(&prog, &config, 1);
        let key = corpus_key("figure1", &config);
        let good = cache_to_bytes(&cache, key);
        let p = Path::new("mem");

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            cache_from_bytes(&bad, key, p),
            Err(CorpusError::BadMagic { .. })
        ));

        // Unsupported version, including a version-1 file (no checksum) and
        // a version-2 file (nested scheduling points instead of pools).
        for found in [1, 2, 99] {
            let mut bad = good.clone();
            bad[4] = found as u8;
            assert!(matches!(
                cache_from_bytes(&bad, key, p),
                Err(CorpusError::UnsupportedVersion { found: f, .. }) if f == found
            ));
        }

        // Key mismatch (different configuration).
        let other = corpus_key("figure1", &ExecConfig::sync_only());
        assert_ne!(key, other);
        let err = cache_from_bytes(&good, other, p).unwrap_err();
        assert!(matches!(err, CorpusError::KeyMismatch { .. }));
        assert!(err.to_string().contains("refusing to resume"));

        // Truncation at every prefix length parses as an error, never panics
        // or silently succeeds.
        for len in 0..good.len() {
            assert!(
                cache_from_bytes(&good[..len], key, p).is_err(),
                "truncated file of {len} bytes was accepted"
            );
        }

        // Any single corrupted byte of a trie or a bug file fails the load:
        // the checksum covers what structural validation cannot see, such
        // as a digest's counts or a bug's message.
        let bugs = bugs_to_bytes(&pinned_bugs());
        for i in 0..good.len().max(bugs.len()) {
            for mask in [0x01, 0x80, 0xff] {
                if let Some(byte) = good.get(i) {
                    let mut bad = good.clone();
                    bad[i] = byte ^ mask;
                    assert!(
                        cache_from_bytes(&bad, key, p).is_err(),
                        "trie byte {i} ^ {mask:#04x} was accepted"
                    );
                }
                if let Some(byte) = bugs.get(i) {
                    let mut bad = bugs.clone();
                    bad[i] = byte ^ mask;
                    assert!(
                        bugs_from_bytes(&bad, p).is_err(),
                        "bug-file byte {i} ^ {mask:#04x} was accepted"
                    );
                }
            }
        }
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0x01;
        let err = cache_from_bytes(&bad, key, p).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        // Behind a valid checksum, validation still checks the accounting.
        let mut bad = cache.clone();
        bad.bytes ^= 0x40;
        let err = cache_from_bytes(&cache_to_bytes(&bad, key), key, p).unwrap_err();
        assert!(
            err.to_string().contains("byte accounting mismatch"),
            "{err}"
        );

        // Behind a valid checksum, `validate_cache` is the only guard: each
        // artifact below is re-encoded (so re-checksummed) and must fail as
        // corrupted, naming the node or edge at fault.
        let rejected =
            |bad: &ScheduleCache| match cache_from_bytes(&cache_to_bytes(bad, key), key, p) {
                Err(CorpusError::Corrupted { detail, .. }) => detail,
                other => panic!("a malformed trie was not rejected as corrupted: {other:?}"),
            };

        // Links that keep the byte accounting intact but break the shape
        // `insert` builds: a link back to the root (walks would loop), and
        // a child two parents share (it would serve digests recorded under
        // the other prefix). Every interior target has one incoming link, so
        // a link is named by its target.
        let interior: Vec<u32> = (0..cache.nodes.len())
            .flat_map(|holder| cache.links(holder))
            .filter_map(|(_, link)| match link {
                Link::Interior(n) => Some(n),
                Link::Terminal(_) => None,
            })
            .collect();
        let redirect = |from: u32, to: u32| {
            let mut bad = cache.clone();
            let retarget = |link: &mut Link| {
                if *link == Link::Interior(from) {
                    *link = Link::Interior(to);
                }
            };
            for node in &mut bad.nodes {
                if let Node::Forced {
                    next: Some(link), ..
                } = node
                {
                    retarget(link);
                }
            }
            bad.edges
                .iter_mut()
                .for_each(|edge| retarget(&mut edge.link));
            rejected(&bad)
        };
        let (first, last) = (interior[0], interior[interior.len() - 1]);
        assert!(first != last, "figure1's trie has several interior links");
        let err = redirect(last, 0);
        assert!(err.contains("links back to node 0"), "{err}");
        let err = redirect(first, last);
        assert!(err.contains("target of two links"), "{err}");

        // The pools: operation runs and edge lists.
        let choices: Vec<usize> = (0..cache.nodes.len())
            .filter(|&i| matches!(cache.nodes[i], Node::Choice { edges: Some(_), .. }))
            .collect();
        assert!(choices.len() >= 2, "figure1's trie has two choice nodes");
        let (c0, c1) = (choices[0], choices[1]);
        let with_choice = |at: usize, edit: &dyn Fn(&mut u32, &mut u32, &mut Option<u32>)| {
            let mut bad = cache.clone();
            let Node::Choice {
                ops, width, edges, ..
            } = &mut bad.nodes[at]
            else {
                unreachable!("node {at} is a choice node")
            };
            edit(ops, width, edges);
            rejected(&bad)
        };
        let err = with_choice(c0, &|_, width, _| *width = 1);
        assert!(
            err.contains(&format!("choice node {c0} has 1 ops")),
            "{err}"
        );
        let err = with_choice(c1, &|ops, _, _| *ops += 1);
        assert!(
            err.contains(&format!("choice node {c1} ops start at")),
            "{err}"
        );
        let mut bad = cache.clone();
        bad.ops.pop();
        let err = rejected(&bad);
        assert!(err.contains("out of bounds"), "{err}");
        let past = cache.edges.len() as u32;
        let err = with_choice(c0, &|_, _, edges| *edges = Some(past));
        assert!(
            err.contains(&format!("choice node {c0} links edge {past} out of bounds")),
            "{err}"
        );
        let head = |at: usize| match cache.nodes[at] {
            Node::Choice { edges, .. } => edges.expect("the choice node has edges"),
            Node::Forced { .. } => unreachable!("node {at} is a choice node"),
        };
        let err = with_choice(c1, &|_, _, edges| *edges = Some(head(c0)));
        assert!(
            err.contains(&format!("is in the lists of nodes {c0} and {c1}")),
            "{err}"
        );
        let mut bad = cache.clone();
        let tail = std::iter::successors(Some(head(c0)), |&e| cache.edges[e as usize].next)
            .last()
            .expect("the list has an edge");
        bad.edges[tail as usize].next = Some(head(c0));
        let err = rejected(&bad);
        assert!(
            err.contains(&format!("closes a cycle in node {c0}'s list")),
            "{err}"
        );
        let mut bad = cache.clone();
        bad.edges.push(Edge {
            next: None,
            ..cache.edges[0]
        });
        let err = rejected(&bad);
        assert!(
            err.contains(&format!("edge {} is unreachable", cache.edges.len())),
            "{err}"
        );
    }

    fn loc(template: u32, pc: u32) -> Loc {
        Loc {
            template: TemplateId(template),
            pc,
        }
    }

    fn op(thread: usize, pc: u32, addr: Option<usize>, is_write: bool) -> PendingOp {
        PendingOp {
            thread: ThreadId(thread),
            loc: loc(thread as u32, pc),
            addr,
            is_write,
        }
    }

    /// A hand-built trie using every node and link variant and both sides of
    /// every `Option` it stores, with the byte accounting `validate_cache`
    /// expects.
    fn pinned_trie() -> ScheduleCache {
        let t = ThreadId;
        let nodes = vec![
            Node::Choice {
                last: None,
                last_enabled: false,
                num_threads: 2,
                step_index: 0,
                ops: 0,
                width: 2,
                edges: Some(0),
            },
            Node::Forced {
                op: op(0, 2, Some(4), false),
                next: Some(Link::Interior(2)),
            },
            Node::Choice {
                last: Some(t(0)),
                last_enabled: true,
                num_threads: 3,
                step_index: 2,
                ops: 2,
                width: 3,
                edges: Some(2),
            },
            Node::Forced {
                op: op(1, 4, None, true),
                next: Some(Link::Terminal(2)),
            },
            Node::Forced {
                op: op(2, 1, Some(6), false),
                next: None,
            },
        ];
        let ops = vec![
            op(0, 1, Some(3), true),
            op(1, 2, None, false),
            op(0, 3, None, false),
            op(1, 2, None, false),
            op(2, 0, Some(5), true),
        ];
        let edge = |thread: usize, link: Link, next: Option<u32>| Edge {
            thread: t(thread),
            link,
            next,
        };
        let edges = vec![
            edge(0, Link::Interior(1), Some(1)),
            edge(1, Link::Terminal(0), None),
            edge(0, Link::Terminal(1), Some(3)),
            edge(1, Link::Interior(3), Some(4)),
            edge(2, Link::Interior(4), None),
        ];
        let terminals = vec![
            TerminalDigest {
                bug: None,
                diverged: false,
                threads_created: 2,
                max_enabled: 2,
                scheduling_points: 1,
                fingerprint: 0x0123_4567_89ab_cdef,
                preemptions: 0,
                delays: 1,
            },
            TerminalDigest {
                bug: Some(Bug::Deadlock {
                    blocked: vec![t(1), t(2)],
                }),
                diverged: false,
                threads_created: 3,
                max_enabled: 3,
                scheduling_points: 2,
                fingerprint: 0xfedc_ba98_7654_3210,
                preemptions: 1,
                delays: 2,
            },
            TerminalDigest {
                bug: Some(Bug::StepLimitExceeded { limit: 1000 }),
                diverged: true,
                threads_created: 3,
                max_enabled: 3,
                scheduling_points: 3,
                fingerprint: 7,
                preemptions: 2,
                delays: 3,
            },
        ];
        let mut cache = ScheduleCache::new(1 << 20);
        cache.bytes =
            nodes.iter().map(Node::weight).sum::<u64>() + terminals.len() as u64 * TERMINAL_BYTES;
        cache.nodes = nodes;
        cache.ops = ops;
        cache.edges = edges;
        cache.terminals = terminals;
        cache
    }

    /// A hand-built bug corpus holding every `Bug` variant once, under a
    /// racy-only configuration whose locations are given out of order.
    fn pinned_bugs() -> BugCorpus {
        let t = ThreadId;
        let bugs = vec![
            Bug::AssertionFailure {
                thread: t(1),
                loc: loc(1, 4),
                msg: "x == y".to_string(),
            },
            Bug::ExplicitFailure {
                thread: t(2),
                loc: loc(2, 7),
                msg: "boom".to_string(),
            },
            Bug::Deadlock {
                blocked: vec![t(0), t(2)],
            },
            Bug::UnlockNotHeld {
                thread: t(1),
                loc: loc(1, 1),
            },
            Bug::UseAfterDestroy {
                thread: t(2),
                loc: loc(2, 2),
            },
            Bug::DestroyBusy {
                thread: t(0),
                loc: loc(0, 3),
            },
            Bug::OutOfBounds {
                thread: t(1),
                loc: loc(1, 5),
                index: -1,
                len: 4,
            },
            Bug::InvalidJoin {
                thread: t(0),
                loc: loc(0, 6),
                target: 9,
            },
            Bug::WaitWithoutMutex {
                thread: t(2),
                loc: loc(2, 8),
            },
            Bug::StepLimitExceeded { limit: 20_000 },
        ];
        BugCorpus {
            benchmark: "pinned".to_string(),
            config: ExecConfig {
                visibility: VisibilityMode::racy([loc(2, 5), loc(0, 3)]),
                max_steps: 1000,
                max_invisible_ops_per_step: 50,
            },
            records: bugs
                .into_iter()
                .enumerate()
                .map(|(i, bug)| BugRecord {
                    prefix: (0..i % 3).map(ThreadId).collect(),
                    bug,
                })
                .collect(),
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    const PINNED_KEY: u64 = 0x5eed_c0de_0000_0001;

    const PINNED_TRIE_HEX: &str = concat!(
        "534354430300000001000000dec0ed5e0000100000000000c003000000000000",
        "0005000000000000000100000200000000000000000000000000000000000000",
        "0200000001000000000000000000000000000000000002000000010400000000",
        "0000000001000200000001010000000000000000010300000000000000020000",
        "0000000000020000000300000001020000000001000000000000000100000004",
        "0000000001010102000000000200000000000000020000000100000001060000",
        "0000000000000005000000000000000000000000000000000000000100000001",
        "0300000000000000010100000000000000010000000200000000000000000000",
        "0000000000000003000000000001000000000000000100000002000000000002",
        "0000000000000002000000000000000105000000000000000105000000000000",
        "0000000000000000000001000000010100000001000000000000000100000000",
        "0000000000000000000101000000010300000001000000000000000003000000",
        "0104000000020000000000000000040000000003000000000000000000020000",
        "000000000002000000000000000100000000000000efcdab8967452301000000",
        "0001000000010202000000000000000100000000000000020000000000000000",
        "0300000000000000030000000000000002000000000000001032547698badcfe",
        "01000000020000000109e8030000000000000103000000000000000300000000",
        "000000030000000000000007000000000000000200000003000000",
        "21d1ba95af0de5be", // checksum
    );

    const PINNED_BUGS_HEX: &str = concat!(
        "5343544203000000060000000000000070696e6e656402020000000000000000",
        "000000030000000200000005000000e80300000000000032000000000000000a",
        "0000000000000000000000000000000001000000000000000100000004000000",
        "060000000000000078203d3d2079010000000000000000000000000000000102",
        "0000000000000002000000070000000400000000000000626f6f6d0200000000",
        "0000000000000000000000010000000000000002020000000000000000000000",
        "0000000002000000000000000000000000000000030100000000000000010000",
        "0001000000010000000000000000000000000000000402000000000000000200",
        "0000020000000200000000000000000000000000000001000000000000000500",
        "0000000000000000000000030000000000000000000000060100000000000000",
        "0100000005000000ffffffffffffffff04000000010000000000000000000000",
        "0000000007000000000000000000000000060000000900000000000000020000",
        "0000000000000000000000000001000000000000000802000000000000000200",
        "000008000000000000000000000009204e000000000000",
        "5636da36839b58f8", // checksum
    );

    #[test]
    fn wire_format_is_pinned_byte_for_byte() {
        let trie = pinned_trie();
        let data = cache_to_bytes(&trie, PINNED_KEY);
        assert_eq!(hex(&data), PINNED_TRIE_HEX, "trie encoding changed");
        let loaded = cache_from_bytes(&data, PINNED_KEY, Path::new("pinned")).expect("decode");
        assert_eq!(cache_to_bytes(&loaded, PINNED_KEY), data);
        assert_eq!(loaded.terminals, trie.terminals);

        let bugs = pinned_bugs();
        let data = bugs_to_bytes(&bugs);
        assert_eq!(hex(&data), PINNED_BUGS_HEX, "bug-corpus encoding changed");
        assert_eq!(
            bugs_from_bytes(&data, Path::new("pinned")).expect("decode"),
            bugs
        );
    }

    #[test]
    fn corpus_keys_separate_configs_and_programs() {
        let all = ExecConfig::all_visible();
        let sync = ExecConfig::sync_only();
        assert_ne!(corpus_key("a", &all), corpus_key("b", &all));
        assert_ne!(corpus_key("a", &all), corpus_key("a", &sync));
        // Racy-location sets hash order-independently.
        let l1 = Loc {
            template: TemplateId(0),
            pc: 1,
        };
        let l2 = Loc {
            template: TemplateId(2),
            pc: 7,
        };
        let c1 = ExecConfig::with_racy_locations([l1, l2]);
        let c2 = ExecConfig::with_racy_locations([l2, l1]);
        assert_eq!(corpus_key("a", &c1), corpus_key("a", &c2));
    }

    #[test]
    fn harvested_bugs_replay_in_exactly_one_execution() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let cache = explored_cache(&prog, &config, 3);
        let records = harvest_bugs(&prog, &config, &cache);
        assert!(
            !records.is_empty(),
            "figure1 exposes its assertion failure within delay bound 3"
        );
        // Deduplicated by bug value.
        for (i, a) in records.iter().enumerate() {
            for b in &records[i + 1..] {
                assert_ne!(a.bug, b.bug, "duplicate bug in the corpus");
            }
        }
        for record in &records {
            let outcome = replay_prefix(&prog, &config, &record.prefix);
            assert_eq!(
                outcome.bug.as_ref(),
                Some(&record.bug),
                "minimized prefix failed to reproduce its bug"
            );
            // And the prefix is minimal under one-step truncation.
            if !record.prefix.is_empty() {
                let shorter = &record.prefix[..record.prefix.len() - 1];
                assert_ne!(
                    replay_prefix(&prog, &config, shorter).bug.as_ref(),
                    Some(&record.bug),
                    "prefix is not minimal"
                );
            }
        }
    }

    #[test]
    fn transient_io_faults_are_absorbed_by_the_retry_loop() {
        // One injected failure at each I/O point of `write_atomic_once`: the
        // first attempt fails, the retry publishes, the caller never notices.
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let cache = explored_cache(&prog, &config, 2);
        let key = corpus_key("figure1", &config);
        for kind in [
            FaultKind::WriteFail,
            FaultKind::SyncFail,
            FaultKind::RenameFail,
        ] {
            let dir = tempdir(&format!("transient-{kind:?}"));
            let corpus = Corpus::open(&dir).expect("open corpus dir");
            let scope = corpus.cache_path("figure1").to_string_lossy().into_owned();
            let _fault = fault::arm(kind, &scope, 1);
            corpus
                .save_cache("figure1", key, &cache)
                .unwrap_or_else(|e| panic!("{kind:?}: one transient fault must be retried: {e}"));
            let loaded = corpus
                .load_cache("figure1", key)
                .expect("load after retried save")
                .expect("artifact was published");
            assert_eq!(loaded.bytes(), cache.bytes(), "{kind:?}");
            assert_eq!(loaded.terminals, cache.terminals, "{kind:?}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_torn_write_is_never_published_and_the_retry_replaces_it() {
        // The torn-write fault flushes a prefix of the artifact and fails,
        // exactly like a crash mid-write. The retry starts from a truncating
        // create, so the published artifact must be whole — the torn bytes
        // can never leak through the rename.
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let cache = explored_cache(&prog, &config, 2);
        let key = corpus_key("figure1", &config);
        let dir = tempdir("torn-write");
        let corpus = Corpus::open(&dir).expect("open corpus dir");
        let path = corpus.cache_path("figure1");
        let scope = path.to_string_lossy().into_owned();
        let _fault = fault::arm(FaultKind::TornWrite, &scope, 1);
        corpus
            .save_cache("figure1", key, &cache)
            .expect("the torn first attempt must be retried");
        let published = fs::read(&path).expect("artifact exists");
        assert_eq!(
            published,
            cache_to_bytes(&cache, key),
            "published bytes are whole"
        );
        assert!(
            !path.with_extension("tmp").exists(),
            "the successful rename consumed the temporary"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_persistent_fault_surfaces_and_leaves_the_old_artifact_intact() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let small = explored_cache(&prog, &config, 0);
        let big = explored_cache(&prog, &config, 3);
        assert!(big.bytes() > small.bytes());
        let key = corpus_key("figure1", &config);
        let dir = tempdir("persistent-fault");
        let corpus = Corpus::open(&dir).expect("open corpus dir");
        let path = corpus.cache_path("figure1");
        corpus
            .save_cache("figure1", key, &small)
            .expect("clean first save");
        let good = fs::read(&path).expect("published artifact");

        // Fail the rename on every one of the bounded retries: the save must
        // surface the injected error rather than spin forever.
        let scope = path.to_string_lossy().into_owned();
        let err = {
            let _fault =
                fault::arm_times(FaultKind::RenameFail, &scope, 1, u64::from(WRITE_ATTEMPTS));
            corpus
                .save_cache("figure1", key, &big)
                .expect_err("a fault on every attempt must surface")
        };
        assert!(
            err.to_string().contains(fault::INJECTED),
            "error should carry the injected cause: {err}"
        );
        // The previously published artifact is untouched and still loads.
        assert_eq!(fs::read(&path).expect("old artifact"), good);
        let loaded = corpus
            .load_cache("figure1", key)
            .expect("load old artifact")
            .expect("old artifact still present");
        assert_eq!(loaded.bytes(), small.bytes());
        // The failed save left its fully written `.tmp` behind (the rename
        // never ran); reopening the corpus — what `--resume` does — sweeps it.
        assert!(path.with_extension("tmp").exists(), "stale tmp left behind");
        let corpus = Corpus::open(&dir).expect("reopen corpus dir");
        assert!(
            !path.with_extension("tmp").exists(),
            "stale tmp must be swept on open"
        );
        // And with the fault gone the save goes through.
        corpus
            .save_cache("figure1", key, &big)
            .expect("save succeeds once the fault clears");
        assert_eq!(
            corpus
                .load_cache("figure1", key)
                .expect("load")
                .expect("artifact")
                .bytes(),
            big.bytes()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bug_corpus_round_trips_and_the_directory_api_is_atomic() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let cache = explored_cache(&prog, &config, 3);
        let dir = tempdir("bugdir");
        let corpus = Corpus::open(&dir).expect("open corpus dir");

        let key = corpus_key("figure1", &config);
        corpus
            .save_cache("figure1", key, &cache)
            .expect("save trie");
        let loaded = corpus
            .load_cache("figure1", key)
            .expect("load trie")
            .expect("trie exists");
        assert_eq!(loaded.bytes(), cache.bytes());
        assert!(matches!(
            corpus.load_cache("figure1", key ^ 1),
            Err(CorpusError::KeyMismatch { .. })
        ));
        assert!(corpus
            .load_cache("never-saved", key)
            .expect("missing file is not an error")
            .is_none());

        let bugs = BugCorpus {
            benchmark: "figure1".to_string(),
            config: config.clone(),
            records: harvest_bugs(&prog, &config, &cache),
        };
        corpus.save_bugs(&bugs).expect("save bugs");
        let loaded = corpus
            .load_bugs("figure1")
            .expect("load bugs")
            .expect("bugs exist");
        assert_eq!(loaded, bugs);
        let all = corpus.bug_corpora().expect("scan dir");
        assert_eq!(all, vec![bugs]);
        // No temporary droppings left behind by the atomic writes.
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(stray.is_empty(), "temporary files left behind: {stray:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
