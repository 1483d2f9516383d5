//! Persistence: the database as JSON Lines or binary columnar snapshots.
//!
//! The open-sourced RemembERR database ships as structured records; the
//! JSONL flavor writes one JSON object per entry plus a header record, so
//! the database survives round trips and can be consumed by external
//! tooling. The binary flavor ([`crate::persist_bin`], `rememberr-bin/v1`)
//! trades that interchangeability for load speed: a deduplicated string
//! table plus columnar entry chunks, decoded in one buffered pass with no
//! per-record text parsing. JSONL stays the interchange format and the
//! correctness oracle; [`load`] sniffs the magic bytes so callers never
//! need to know which flavor a file holds.

use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::db::Database;
use crate::dedup::DedupStats;
use crate::entry::DbEntry;
use crate::persist_bin;

/// Format identifier written in the JSONL header record.
pub const FORMAT: &str = "rememberr-jsonl";

/// Format version written in the JSONL header record.
pub const VERSION: u32 = 1;

/// Most entry slots a JSONL load reserves up front from the header's
/// count; larger databases grow past it as records arrive.
const JSONL_PREALLOC_ENTRIES: usize = 1 << 16;

/// The two snapshot flavors [`save_as`] can write.
///
/// [`load`] never takes one: it sniffs the binary magic and dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotFormat {
    /// One JSON object per line — the interchange format and oracle.
    #[default]
    Jsonl,
    /// `rememberr-bin/v1` columnar sections — the fast-load format.
    Binary,
}

impl SnapshotFormat {
    /// The format a snapshot's opening bytes announce: binary if they are
    /// the `rememberr-bin` magic, JSONL otherwise.
    pub fn sniff(head: &[u8]) -> SnapshotFormat {
        if head.starts_with(&persist_bin::MAGIC) {
            SnapshotFormat::Binary
        } else {
            SnapshotFormat::Jsonl
        }
    }
}

impl fmt::Display for SnapshotFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SnapshotFormat::Jsonl => "jsonl",
            SnapshotFormat::Binary => "binary",
        })
    }
}

impl FromStr for SnapshotFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" => Ok(SnapshotFormat::Jsonl),
            "binary" => Ok(SnapshotFormat::Binary),
            other => Err(format!(
                "unknown snapshot format {other:?} (use jsonl or binary)"
            )),
        }
    }
}

/// Errors produced by persistence.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record could not be encoded or decoded.
    Json(serde_json::Error),
    /// The stream does not start with a valid header.
    BadHeader(String),
    /// The header announces an unsupported version.
    UnsupportedVersion(u32),
    /// The snapshot holds a different number of entries than its header
    /// announces — it was truncated (or padded) after writing.
    Truncated {
        /// Entry count the header announces.
        expected: usize,
        /// Entries actually present.
        found: usize,
    },
    /// A binary snapshot is structurally invalid (bad magic or checksum,
    /// malformed section, out-of-range id).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Json(e) => write!(f, "serialization error: {e}"),
            PersistError::BadHeader(line) => write!(f, "bad header record {line:?}"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            PersistError::Truncated { expected, found } => write!(
                f,
                "truncated snapshot: header announces {expected} entries, found {found}"
            ),
            PersistError::Corrupt(detail) => write!(f, "corrupt snapshot: {detail}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

impl From<rememberr_model::WireError> for PersistError {
    fn from(e: rememberr_model::WireError) -> Self {
        PersistError::Corrupt(e.to_string())
    }
}

#[derive(Serialize, Deserialize)]
struct Header {
    format: String,
    version: u32,
    entries: usize,
    dedup: DedupStats,
}

/// Writes the database as JSON Lines. Pass `&mut writer` to keep
/// ownership. Shorthand for [`save_as`] with [`SnapshotFormat::Jsonl`].
///
/// # Errors
///
/// Returns [`PersistError`] on I/O or encoding failure.
pub fn save<W: Write>(db: &Database, writer: W) -> Result<(), PersistError> {
    save_as(db, writer, SnapshotFormat::Jsonl)
}

/// Writes the database in the chosen snapshot format.
///
/// # Errors
///
/// Returns [`PersistError`] on I/O or encoding failure.
pub fn save_as<W: Write>(
    db: &Database,
    writer: W,
    format: SnapshotFormat,
) -> Result<(), PersistError> {
    let _span = rememberr_obs::span!("persist.save", "{format}");
    match format {
        SnapshotFormat::Jsonl => save_jsonl(db, writer),
        SnapshotFormat::Binary => persist_bin::save_binary(db, BufWriter::new(writer)),
    }
}

fn save_jsonl<W: Write>(db: &Database, writer: W) -> Result<(), PersistError> {
    // Counting sits on top so the metrics see the logical byte volume;
    // the BufWriter underneath batches the many small record writes into
    // buffered I/O on the way to the device.
    let mut writer = CountingWriter {
        inner: BufWriter::new(writer),
        bytes: 0,
    };
    let header = Header {
        format: FORMAT.to_string(),
        version: VERSION,
        entries: db.len(),
        dedup: db.dedup_stats(),
    };
    serde_json::to_writer(&mut writer, &header)?;
    writer.write_all(b"\n")?;
    for entry in db.entries() {
        serde_json::to_writer(&mut writer, entry)?;
        writer.write_all(b"\n")?;
    }
    writer.flush()?;
    rememberr_obs::count("persist.records_written", db.len() as u64);
    rememberr_obs::count("persist.bytes_written", writer.bytes);
    Ok(())
}

/// Counts the bytes flowing through an inner writer so persistence volume
/// shows up in the metrics registry.
struct CountingWriter<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.bytes += written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Reads a database previously written by [`save`] or [`save_as`],
/// sniffing the format from the opening bytes. Pass `&mut reader` to keep
/// ownership.
///
/// # Errors
///
/// Returns [`PersistError`] on I/O failure, malformed or truncated
/// content, or an unsupported version.
pub fn load<R: Read>(mut reader: R) -> Result<Database, PersistError> {
    let mut head = [0u8; 4];
    let mut got = 0;
    while got < head.len() {
        match reader.read(&mut head[got..])? {
            0 => break,
            n => got += n,
        }
    }
    match SnapshotFormat::sniff(&head[..got]) {
        SnapshotFormat::Binary => {
            let _span = rememberr_obs::span!("persist.load", "binary");
            let mut bytes = Vec::with_capacity(64 * 1024);
            bytes.extend_from_slice(&head);
            reader.read_to_end(&mut bytes)?;
            persist_bin::load_binary(&bytes)
        }
        SnapshotFormat::Jsonl => {
            let _span = rememberr_obs::span!("persist.load", "jsonl");
            load_jsonl(head[..got].chain(reader))
        }
    }
}

fn load_jsonl<R: Read>(reader: R) -> Result<Database, PersistError> {
    let mut reader = BufReader::new(reader);
    // One line buffer for the whole load: `read_line` appends, so clearing
    // between records reuses the allocation instead of paying one fresh
    // `String` per record.
    let mut line = String::new();
    let mut bytes = 0u64;
    bytes += reader.read_line(&mut line)? as u64;
    let header_line = line.trim_end_matches(['\n', '\r']);
    if header_line.is_empty() {
        return Err(PersistError::BadHeader(String::new()));
    }
    let header: Header = serde_json::from_str(header_line)
        .map_err(|_| PersistError::BadHeader(header_line.to_string()))?;
    if header.format != FORMAT {
        return Err(PersistError::BadHeader(header_line.to_string()));
    }
    if header.version != VERSION {
        return Err(PersistError::UnsupportedVersion(header.version));
    }
    // The header's count is unchecked until the records are read, so it
    // pre-sizes the vector only up to a bound.
    let mut entries = Vec::with_capacity(header.entries.min(JSONL_PREALLOC_ENTRIES));
    loop {
        line.clear();
        let read = reader.read_line(&mut line)?;
        if read == 0 {
            break;
        }
        bytes += read as u64;
        let record = line.trim();
        if record.is_empty() {
            continue;
        }
        entries.push(serde_json::from_str::<DbEntry>(record)?);
    }
    if entries.len() != header.entries {
        return Err(PersistError::Truncated {
            expected: header.entries,
            found: entries.len(),
        });
    }
    rememberr_obs::count("persist.records_read", entries.len() as u64);
    rememberr_obs::count("persist.bytes_read", bytes);
    let mut db = Database::new();
    db.extend(entries);
    db.restore_dedup_stats(header.dedup);
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_docgen::{CorpusSpec, SyntheticCorpus};

    fn sample_db() -> Database {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.03));
        Database::from_documents(&corpus.structured)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = sample_db();
        let mut buf = Vec::new();
        save(&db, &mut buf).unwrap();
        let back = load(buf.as_slice()).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn header_is_first_line() {
        let db = sample_db();
        let mut buf = Vec::new();
        save(&db, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.contains("rememberr-jsonl"));
        assert_eq!(text.lines().count(), db.len() + 1);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            load("not json\n".as_bytes()),
            Err(PersistError::BadHeader(_))
        ));
        assert!(matches!(
            load("".as_bytes()),
            Err(PersistError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let header = format!(
            "{{\"format\":\"{FORMAT}\",\"version\":99,\"entries\":0,\"dedup\":{{\"entries\":0,\"clusters\":0,\"exact_title_merges\":0,\"cascade_merges\":0}}}}\n"
        );
        assert!(matches!(
            load(header.as_bytes()),
            Err(PersistError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_corrupt_record() {
        let db = sample_db();
        let mut buf = Vec::new();
        save(&db, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("{\"broken\": true}\n");
        assert!(matches!(load(text.as_bytes()), Err(PersistError::Json(_))));
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let db = sample_db();
        let mut buf = Vec::new();
        save(&db, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push('\n');
        let back = load(text.as_bytes()).unwrap();
        assert_eq!(back.len(), db.len());
    }

    #[test]
    fn rejects_truncated_jsonl() {
        let db = sample_db();
        let mut buf = Vec::new();
        save(&db, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Drop the last record but keep the header's entry count.
        let truncated: String = text
            .lines()
            .take(db.len())
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            load(truncated.as_bytes()),
            Err(PersistError::Truncated { expected, found })
                if expected == db.len() && found == db.len() - 1
        ));
    }

    #[test]
    fn rejects_padded_jsonl() {
        let db = sample_db();
        let mut buf = Vec::new();
        save(&db, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        let extra = text.lines().nth(1).unwrap().to_string();
        text.push_str(&extra);
        text.push('\n');
        assert!(matches!(
            load(text.as_bytes()),
            Err(PersistError::Truncated { expected, found })
                if expected == db.len() && found == db.len() + 1
        ));
    }

    #[test]
    fn rejects_forged_header_count_without_preallocating_it() {
        let db = sample_db();
        let mut buf = Vec::new();
        save(&db, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let announced = format!("\"entries\":{}", db.len());
        assert!(text.contains(&announced), "{text}");
        let forged = text.replacen(&announced, &format!("\"entries\":{}", 1u64 << 40), 1);
        assert!(matches!(
            load(forged.as_bytes()),
            Err(PersistError::Truncated { expected, found })
                if expected == 1 << 40 && found == db.len()
        ));
    }

    #[test]
    fn snapshot_format_parses_and_displays() {
        assert_eq!("jsonl".parse::<SnapshotFormat>(), Ok(SnapshotFormat::Jsonl));
        assert_eq!(
            "binary".parse::<SnapshotFormat>(),
            Ok(SnapshotFormat::Binary)
        );
        assert!("msgpack".parse::<SnapshotFormat>().is_err());
        assert_eq!(SnapshotFormat::Jsonl.to_string(), "jsonl");
        assert_eq!(SnapshotFormat::Binary.to_string(), "binary");
        assert_eq!(SnapshotFormat::default(), SnapshotFormat::Jsonl);
    }

    #[test]
    fn sniff_distinguishes_formats() {
        let db = sample_db();
        let mut jsonl = Vec::new();
        save_as(&db, &mut jsonl, SnapshotFormat::Jsonl).unwrap();
        let mut binary = Vec::new();
        save_as(&db, &mut binary, SnapshotFormat::Binary).unwrap();
        assert_eq!(SnapshotFormat::sniff(&jsonl[..4]), SnapshotFormat::Jsonl);
        assert_eq!(SnapshotFormat::sniff(&binary[..4]), SnapshotFormat::Binary);
        assert_eq!(load(binary.as_slice()).unwrap(), db);
    }

    #[test]
    fn binary_roundtrip_reexports_byte_identical_jsonl() {
        let db = sample_db();
        let mut oracle = Vec::new();
        save(&db, &mut oracle).unwrap();
        let mut binary = Vec::new();
        save_as(&db, &mut binary, SnapshotFormat::Binary).unwrap();
        let back = load(binary.as_slice()).unwrap();
        let mut reexport = Vec::new();
        save(&back, &mut reexport).unwrap();
        assert_eq!(reexport, oracle);
    }
}
