//! Offline profiling database used by DNNFusion's fusion plan exploration.
//!
//! The paper resolves the "yellow" cells of its mapping-type analysis with a
//! profiling database collected offline: each entry records the operators
//! involved (types, shapes and combination) and the measured latency. With a
//! pre-computed database, compilation-time profiling becomes a lookup
//! (Figure 9b); without it, the compiler measures (or, in this reproduction,
//! simulates) the latency and records it for future compilations.
//!
//! # Example
//!
//! ```
//! use dnnf_profiledb::{ProfileDatabase, ProfileKey};
//!
//! let mut db = ProfileDatabase::new();
//! let key = ProfileKey::new(["Conv", "Relu"], "1x16x32x32");
//! assert_eq!(db.lookup(&key), None);
//! db.record(key.clone(), 42.0);
//! assert_eq!(db.lookup(&key), Some(42.0));
//! assert_eq!(db.hits(), 1);
//! assert_eq!(db.misses(), 1);
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

/// Header line of the versioned on-disk format (see
/// [`ProfileDatabase::to_versioned_text`]).
pub const FORMAT_HEADER: &str = "dnnf-profiledb/v1";

/// Why a persisted profile database was rejected by the strict parser.
///
/// The store is an input to plan *search*, so a wrong latency silently read
/// from a damaged file would not crash anything — it would just quietly
/// produce worse plans forever. The strict format therefore fails loudly on
/// any damage and callers fall back to measuring afresh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileDbError {
    /// The first line is not the expected format header.
    BadHeader {
        /// What the first line actually was.
        found: String,
    },
    /// The `entries <n>` count line is missing or malformed.
    BadCount,
    /// An entry line failed to parse.
    BadEntry {
        /// 1-based line number of the offending line.
        line: usize,
    },
    /// The file ended before the declared number of entries (truncation).
    Truncated {
        /// Entries the header promised.
        expected: usize,
        /// Entries actually present.
        found: usize,
    },
    /// The trailing checksum line is missing, malformed, or does not match
    /// the content (bit-rot or a partial write).
    BadChecksum,
}

impl fmt::Display for ProfileDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileDbError::BadHeader { found } => {
                write!(f, "expected header `{FORMAT_HEADER}`, found `{found}`")
            }
            ProfileDbError::BadCount => write!(f, "missing or malformed `entries <n>` line"),
            ProfileDbError::BadEntry { line } => write!(f, "malformed entry at line {line}"),
            ProfileDbError::Truncated { expected, found } => {
                write!(f, "truncated: expected {expected} entries, found {found}")
            }
            ProfileDbError::BadChecksum => write!(f, "checksum mismatch or missing"),
        }
    }
}

impl std::error::Error for ProfileDbError {}

impl From<Damage> for ProfileDbError {
    fn from(damage: Damage) -> Self {
        match damage {
            Damage::BadHeader(found) => ProfileDbError::BadHeader { found },
            Damage::BadCount => ProfileDbError::BadCount,
            Damage::Truncated { expected, found } => ProfileDbError::Truncated { expected, found },
            Damage::BadChecksum => ProfileDbError::BadChecksum,
        }
    }
}

/// Why [`open`] rejected a sealed text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Damage {
    /// The first line is not the expected header (carried here).
    BadHeader(String),
    /// The `entries <n>` count line is missing or malformed.
    BadCount,
    /// The declared and the present number of entry lines differ.
    Truncated {
        /// Entries the count line promised.
        expected: usize,
        /// Entry lines actually present.
        found: usize,
    },
    /// The trailing checksum line is missing, malformed, or does not match.
    BadChecksum,
}

/// 64-bit FNV-1a over a byte stream — the integrity checksum of the sealed
/// framing (dependency-free, stable across platforms).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seals entry lines into the checksummed line framing this crate's store
/// and `dnnf-runtime`'s plan cache persist in:
///
/// ```text
/// <header>
/// entries <n>
/// <entry line>                      (n of them)
/// checksum <16-hex fnv64 of everything above>
/// ```
///
/// Entry lines must not contain a newline or start with `checksum `.
#[must_use]
pub fn seal<I>(header: &str, entries: I) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut lines = String::new();
    let mut count = 0usize;
    for entry in entries {
        lines.push_str(entry.as_ref());
        lines.push('\n');
        count += 1;
    }
    let mut text = format!("{header}\nentries {count}\n{lines}");
    let sum = fnv64(text.as_bytes());
    text.push_str(&format!("checksum {sum:016x}\n"));
    text
}

/// Strictly opens text produced by [`seal`]: the header, the entry count and
/// the trailing checksum must all be intact, and the entry lines come back
/// verbatim (the first is line 3 of the text). Any damage — truncation, a
/// flipped bit, a partial write — is an error, never a shorter list.
///
/// # Errors
///
/// Returns the first [`Damage`] found.
pub fn open<'a>(header: &str, text: &'a str) -> Result<Vec<&'a str>, Damage> {
    let mut lines = text.lines();
    let first = lines.next().unwrap_or("");
    if first != header {
        return Err(Damage::BadHeader(first.to_string()));
    }
    let expected: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("entries "))
        .and_then(|n| n.parse().ok())
        .ok_or(Damage::BadCount)?;
    let mut entries = Vec::new();
    let mut stated = None;
    for line in lines {
        if let Some(sum) = line.strip_prefix("checksum ") {
            stated = Some(sum);
            break;
        }
        entries.push(line);
    }
    if entries.len() != expected {
        return Err(Damage::Truncated {
            expected,
            found: entries.len(),
        });
    }
    let stated = stated.and_then(|sum| u64::from_str_radix(sum, 16).ok());
    // Recompute over everything before the checksum line.
    let body: String = text
        .lines()
        .take(2 + entries.len())
        .flat_map(|l| [l, "\n"])
        .collect();
    if stated != Some(fnv64(body.as_bytes())) {
        return Err(Damage::BadChecksum);
    }
    Ok(entries)
}

/// Key identifying one profiled operator combination.
///
/// A key is the ordered list of operator names in the (candidate) fusion
/// block plus a shape fingerprint — mirroring the paper's "operator types,
/// shape, and their combinations".
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProfileKey {
    ops: Vec<String>,
    shape_fingerprint: String,
}

impl ProfileKey {
    /// Creates a key from operator names and a shape fingerprint.
    pub fn new<I, S>(ops: I, shape_fingerprint: impl Into<String>) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ProfileKey {
            ops: ops.into_iter().map(Into::into).collect(),
            shape_fingerprint: shape_fingerprint.into(),
        }
    }

    /// Operator names in block order.
    #[must_use]
    pub fn ops(&self) -> &[String] {
        &self.ops
    }

    /// The shape fingerprint.
    #[must_use]
    pub fn shape_fingerprint(&self) -> &str {
        &self.shape_fingerprint
    }

    fn encode(&self) -> String {
        format!("{}|{}", self.ops.join("+"), self.shape_fingerprint)
    }

    fn decode(text: &str) -> Option<Self> {
        let (ops, fp) = text.split_once('|')?;
        Some(ProfileKey {
            ops: ops.split('+').map(str::to_string).collect(),
            shape_fingerprint: fp.to_string(),
        })
    }
}

impl fmt::Display for ProfileKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.encode())
    }
}

/// A latency database keyed by [`ProfileKey`], with hit/miss accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileDatabase {
    entries: BTreeMap<ProfileKey, f64>,
    hits: u64,
    misses: u64,
}

impl ProfileDatabase {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        ProfileDatabase::default()
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a measured latency (microseconds) for a combination,
    /// overwriting any previous value.
    pub fn record(&mut self, key: ProfileKey, latency_us: f64) {
        self.entries.insert(key, latency_us);
    }

    /// Looks up a latency, counting the access as a hit or a miss.
    pub fn lookup(&mut self, key: &ProfileKey) -> Option<f64> {
        match self.entries.get(key) {
            Some(&v) => {
                self.hits += 1;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up a latency without touching the hit/miss counters.
    #[must_use]
    pub fn peek(&self, key: &ProfileKey) -> Option<f64> {
        self.entries.get(key).copied()
    }

    /// Looks up a latency, or computes it with `measure`, records it, and
    /// returns it. This is the paper's "profiling" step: expensive on the
    /// first compilation, a cheap lookup afterwards.
    pub fn lookup_or_measure(&mut self, key: ProfileKey, measure: impl FnOnce() -> f64) -> f64 {
        if let Some(v) = self.lookup(&key) {
            return v;
        }
        let v = measure();
        self.record(key, v);
        v
    }

    /// Number of successful lookups so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of failed lookups so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets the hit/miss counters (entries are kept).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Iterates over `(key, latency)` entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&ProfileKey, f64)> {
        self.entries.iter().map(|(k, &v)| (k, v))
    }

    /// Serializes the database to its line-based text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        self.entry_lines().map(|line| line + "\n").collect()
    }

    fn entry_lines(&self) -> impl Iterator<Item = String> + '_ {
        let entries = self.entries.iter();
        entries.map(|(k, v)| format!("{}\t{v}", k.encode()))
    }

    /// Parses a database from the text format produced by
    /// [`ProfileDatabase::to_text`]. Malformed lines are skipped — this is
    /// the *lenient* legacy parser; persistence goes through the strict
    /// versioned format ([`ProfileDatabase::try_from_text`]).
    #[must_use]
    pub fn from_text(text: &str) -> Self {
        let mut db = ProfileDatabase::new();
        for line in text.lines() {
            if let Some((key, val)) = line.split_once('\t') {
                if let (Some(key), Ok(val)) = (ProfileKey::decode(key), val.parse::<f64>()) {
                    db.record(key, val);
                }
            }
        }
        db
    }

    /// Serializes the database to the versioned, checksummed on-disk format:
    ///
    /// ```text
    /// dnnf-profiledb/v1
    /// entries <n>
    /// <op>+<op>+…|<shape-fingerprint>\t<latency-us>
    /// …                                 (n entry lines, key order)
    /// checksum <16-hex fnv64 of everything above>
    /// ```
    ///
    /// Latencies are written with Rust's shortest-round-trip `f64`
    /// formatting, so a save/load cycle reproduces the exact bits.
    #[must_use]
    pub fn to_versioned_text(&self) -> String {
        seal(FORMAT_HEADER, self.entry_lines())
    }

    /// Strictly parses the versioned format produced by
    /// [`ProfileDatabase::to_versioned_text`]: header, entry count, every
    /// entry line, and the trailing checksum must all be intact. Any damage
    /// — truncation, a flipped bit, a partial write — is an error, never a
    /// silently smaller database.
    ///
    /// # Errors
    ///
    /// Returns a [`ProfileDbError`] describing the first problem found.
    pub fn try_from_text(text: &str) -> Result<Self, ProfileDbError> {
        let lines = open(FORMAT_HEADER, text)?;
        let mut db = ProfileDatabase::new();
        for (i, line) in lines.iter().enumerate() {
            let (key, val) = line
                .split_once('\t')
                .and_then(|(key, val)| Some((ProfileKey::decode(key)?, val.parse::<f64>().ok()?)))
                .ok_or(ProfileDbError::BadEntry { line: i + 3 })?;
            db.entries.insert(key, val);
        }
        // Two lines under one key would silently read as a smaller database.
        if db.entries.len() != lines.len() {
            return Err(ProfileDbError::Truncated {
                expected: lines.len(),
                found: db.entries.len(),
            });
        }
        Ok(db)
    }

    /// Saves the database to a file in the versioned, checksummed format.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_versioned_text().as_bytes())
    }

    /// Loads a database from a file written by [`ProfileDatabase::save`],
    /// strictly validating it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a damaged or non-versioned file fails with
    /// [`io::ErrorKind::InvalidData`] (callers treat that as "no database" and
    /// re-measure).
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        Self::try_from_text(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lookup_and_counters() {
        let mut db = ProfileDatabase::new();
        let k = ProfileKey::new(["Add", "Gemm"], "4x8;8x16");
        assert_eq!(db.lookup(&k), None);
        db.record(k.clone(), 12.5);
        assert_eq!(db.lookup(&k), Some(12.5));
        assert_eq!(db.len(), 1);
        assert_eq!((db.hits(), db.misses()), (1, 1));
        db.reset_counters();
        assert_eq!((db.hits(), db.misses()), (0, 0));
        assert_eq!(db.peek(&k), Some(12.5));
        assert_eq!((db.hits(), db.misses()), (0, 0));
    }

    #[test]
    fn lookup_or_measure_only_measures_once() {
        let mut db = ProfileDatabase::new();
        let k = ProfileKey::new(["Conv", "Relu"], "1x8x16x16");
        let mut calls = 0;
        let v1 = db.lookup_or_measure(k.clone(), || {
            calls += 1;
            7.0
        });
        let v2 = db.lookup_or_measure(k, || {
            calls += 1;
            9.0
        });
        assert_eq!(v1, 7.0);
        assert_eq!(v2, 7.0);
        assert_eq!(calls, 1);
    }

    #[test]
    fn text_roundtrip_preserves_entries() {
        let mut db = ProfileDatabase::new();
        db.record(
            ProfileKey::new(["Conv", "Relu", "Add"], "1x64x56x56"),
            101.25,
        );
        db.record(ProfileKey::new(["MatMul"], "128x768;768x768"), 930.0);
        let text = db.to_text();
        let restored = ProfileDatabase::from_text(&text);
        assert_eq!(restored.len(), 2);
        assert_eq!(
            restored.peek(&ProfileKey::new(["MatMul"], "128x768;768x768")),
            Some(930.0)
        );
        // Counters are not part of the persisted state.
        assert_eq!(restored.hits(), 0);
    }

    #[test]
    fn from_text_skips_malformed_lines() {
        let db = ProfileDatabase::from_text("garbage\nConv+Relu|1x1\tnot_a_number\nAdd|2x2\t5.0\n");
        assert_eq!(db.len(), 1);
        assert_eq!(db.peek(&ProfileKey::new(["Add"], "2x2")), Some(5.0));
    }

    #[test]
    fn save_and_load_roundtrip() {
        let mut db = ProfileDatabase::new();
        db.record(ProfileKey::new(["Relu"], "1x10"), 1.5);
        let dir = std::env::temp_dir().join("dnnf_profiledb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.tsv");
        db.save(&path).unwrap();
        let loaded = ProfileDatabase::load(&path).unwrap();
        assert_eq!(loaded, ProfileDatabase::from_text(&db.to_text()));
        std::fs::remove_file(path).ok();
    }

    fn sample_db() -> ProfileDatabase {
        let mut db = ProfileDatabase::new();
        db.record(ProfileKey::new(["Conv", "Relu"], "1x8x16x16"), 101.625);
        db.record(ProfileKey::new(["MatMul"], "128x768;768x768"), 0.1 + 0.2);
        db
    }

    #[test]
    fn versioned_roundtrip_is_bit_exact() {
        let db = sample_db();
        let text = db.to_versioned_text();
        assert!(text.starts_with("dnnf-profiledb/v1\nentries 2\n"));
        let restored = ProfileDatabase::try_from_text(&text).unwrap();
        for (k, v) in db.iter() {
            assert_eq!(restored.peek(k).map(f64::to_bits), Some(v.to_bits()));
        }
        assert_eq!(restored.len(), db.len());
    }

    #[test]
    fn strict_parser_rejects_damage() {
        let db = sample_db();
        let good = db.to_versioned_text();

        // Wrong header.
        assert!(matches!(
            ProfileDatabase::try_from_text("dnnf-profiledb/v9\nentries 0\nchecksum 0\n"),
            Err(ProfileDbError::BadHeader { .. })
        ));
        // Missing count line.
        assert_eq!(
            ProfileDatabase::try_from_text("dnnf-profiledb/v1\n"),
            Err(ProfileDbError::BadCount)
        );
        // Truncation: drop one entry line but keep count + checksum lines.
        let mut lines: Vec<&str> = good.lines().collect();
        lines.remove(2);
        let truncated = lines.join("\n") + "\n";
        assert!(matches!(
            ProfileDatabase::try_from_text(&truncated),
            Err(ProfileDbError::Truncated {
                expected: 2,
                found: 1
            })
        ));
        // A flipped value digit fails the checksum.
        let corrupted = good.replacen("101.625", "201.625", 1);
        assert_eq!(
            ProfileDatabase::try_from_text(&corrupted),
            Err(ProfileDbError::BadChecksum)
        );
        // Garbage entry line: caught by the checksum when written over a
        // sealed file, and as a malformed entry when sealed in.
        let garbled = good.replacen("Conv+Relu|1x8x16x16\t101.625", "garbage", 1);
        assert_eq!(
            ProfileDatabase::try_from_text(&garbled),
            Err(ProfileDbError::BadChecksum)
        );
        assert_eq!(
            ProfileDatabase::try_from_text(&seal(FORMAT_HEADER, ["Add|2x2\t5.0", "garbage"])),
            Err(ProfileDbError::BadEntry { line: 4 })
        );
        // The same key sealed in twice is not a two-entry database.
        assert!(matches!(
            ProfileDatabase::try_from_text(&seal(FORMAT_HEADER, ["Add|2x2\t5.0", "Add|2x2\t6.0"])),
            Err(ProfileDbError::Truncated { .. })
        ));
        // Checksum line chopped off entirely.
        let no_sum: String = good
            .lines()
            .filter(|l| !l.starts_with("checksum "))
            .flat_map(|l| [l, "\n"])
            .collect();
        assert_eq!(
            ProfileDatabase::try_from_text(&no_sum),
            Err(ProfileDbError::BadChecksum)
        );
        // And the untouched text still parses.
        assert!(ProfileDatabase::try_from_text(&good).is_ok());
    }

    #[test]
    fn load_rejects_corrupted_files_with_invalid_data() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("dnnf_profiledb_strict_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.tsv");
        std::fs::write(&path, db.to_versioned_text().replacen("101", "999", 1)).unwrap();
        let err = ProfileDatabase::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn key_display_and_accessors() {
        let k = ProfileKey::new(["Conv", "Relu"], "1x8");
        assert_eq!(k.to_string(), "Conv+Relu|1x8");
        assert_eq!(k.ops(), &["Conv".to_string(), "Relu".to_string()]);
        assert_eq!(k.shape_fingerprint(), "1x8");
    }
}
