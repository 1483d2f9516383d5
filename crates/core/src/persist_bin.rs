//! Binary columnar snapshots: the `rememberr-bin/v2` format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "RMBR" | version u32 | 4 sections, each: length u64 + payload
//!   header   — entry count u64, dedup identity stats 4 x u64,
//!              chunk size u32
//!   strings  — deduplicated string table: count u32, then per string
//!              length u32 + UTF-8 bytes, in first-occurrence order
//!   entries  — chunk count u32, then per chunk length u64 + a columnar
//!              block of `chunk size` entries (field-major columns of
//!              fixed-width values and u32 string-table ids)
//!   checksum — one 64-bit word digest (see `digest`) per preceding
//!              section payload, in section order
//! ```
//!
//! Strings never repeat on disk: every textual field (titles,
//! descriptions, workaround and status phrases, concrete annotation
//! descriptions, fixed-in steppings) is a `u32` id into the table, which
//! collapses the corpus' heavy repetition of facet phrasing. Load is one
//! buffered read of the whole stream followed by columnar decoding — no
//! per-record text parsing. Save hashes each field's text once, while
//! building the table, and records the field's id for the chunk encoder;
//! load borrows the table's strings from the read buffer, so each field's
//! text is copied once, into the entry that owns it.
//!
//! Version 2 differs from version 1 only in the checksum digest; a
//! version-1 snapshot is refused with [`PersistError::UnsupportedVersion`].
//!
//! Both directions fan out over [`rememberr_par::par_map`] in
//! input-ordered chunks of [`CHUNK_ENTRIES`] entries. The string table is
//! built sequentially before encoding starts and is read-only afterwards,
//! so the bytes produced are identical at every worker count; decoding
//! concatenates chunk results in input order, so the database is too.

use std::collections::hash_map::{Entry, HashMap};
use std::io::Write;

use rememberr_model::{Annotation, MsrRef, WireError, WireReader, WireWriter};

use crate::db::Database;
use crate::dedup::DedupStats;
use crate::entry::DbEntry;
use crate::persist::PersistError;

/// Magic bytes opening every binary snapshot; [`crate::load`] sniffs them
/// to dispatch between formats.
pub(crate) const MAGIC: [u8; 4] = *b"RMBR";

/// Format identifier of the binary snapshot layout.
pub const BIN_FORMAT: &str = "rememberr-bin";

/// Version written after the magic; bump on any layout change.
pub const BIN_VERSION: u32 = 2;

/// Entries per columnar chunk — the unit of parallel encode/decode.
pub(crate) const CHUNK_ENTRIES: usize = 256;

/// Odd multiplier of the section digest.
const DIGEST_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The section checksum: a word-at-a-time 64-bit digest. The state starts
/// at the payload length; each little-endian `u64` word (a partial last
/// word zero-padded) is folded in as `h = (h ^ w) * K; h ^= h >> 29`. Every
/// step is a bijection of the state, so changing any one word always
/// changes the digest, and the length seed separates payloads that differ
/// only by trailing zero bytes. Like any unkeyed checksum it detects
/// accidents, not forgeries.
fn digest(bytes: &[u8]) -> u64 {
    fn fold(h: u64, word: u64) -> u64 {
        let h = (h ^ word).wrapping_mul(DIGEST_K);
        h ^ (h >> 29)
    }
    let mut words = bytes.chunks_exact(8);
    let mut h = (&mut words).fold(bytes.len() as u64, |h, word| {
        fold(h, u64::from_le_bytes(word.try_into().expect("8 bytes")))
    });
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(last));
    }
    h
}

/// The deduplicated string table, plus the id of every textual field in
/// the order [`StringTable::build`] walked them, so encoding never hashes
/// a field a second time.
struct StringTable<'a> {
    /// Unique strings in first-occurrence order.
    strings: Vec<&'a str>,
    /// Every field's id, entry by entry, in column order.
    ids: Vec<u32>,
    /// Where each entry's ids start in `ids`, plus the end of the last.
    starts: Vec<usize>,
}

impl<'a> StringTable<'a> {
    /// Interns every textual field of every entry, walking entries in
    /// database order and fields in column order so the table is a pure
    /// function of the database. Each field costs one probe of a map sized
    /// up front for every field.
    fn build(entries: &'a [DbEntry]) -> Self {
        let field_count: usize = entries.iter().map(|e| text_fields(e).count()).sum();
        let mut by_text: HashMap<&'a str, u32> = HashMap::with_capacity(field_count);
        let mut table = StringTable {
            strings: Vec::new(),
            ids: Vec::with_capacity(field_count),
            starts: Vec::with_capacity(entries.len() + 1),
        };
        for entry in entries {
            table.starts.push(table.ids.len());
            for text in text_fields(entry) {
                let id = match by_text.entry(text) {
                    Entry::Occupied(slot) => *slot.get(),
                    Entry::Vacant(slot) => {
                        let id = u32::try_from(table.strings.len()).expect("string table fits u32");
                        table.strings.push(text);
                        *slot.insert(id)
                    }
                };
                table.ids.push(id);
            }
        }
        table.starts.push(table.ids.len());
        table
    }

    /// The string-table ids of entry `index`'s textual fields, in the
    /// order [`text_fields`] yields them.
    fn fields(&self, index: usize) -> &[u32] {
        &self.ids[self.starts[index]..self.starts[index + 1]]
    }
}

/// An entry's textual fields in column order: the five erratum texts, the
/// fixed-in stepping if any, then the annotation's concrete trigger,
/// context and effect descriptions.
fn text_fields(entry: &DbEntry) -> impl Iterator<Item = &str> {
    let e = &entry.erratum;
    let concrete = entry.annotation.iter().flat_map(|a| {
        a.concrete_triggers
            .iter()
            .chain(&a.concrete_contexts)
            .chain(&a.concrete_effects)
    });
    [
        &e.title,
        &e.description,
        &e.implications,
        &e.workaround,
        &e.status,
    ]
    .into_iter()
    .chain(&entry.fixed_in)
    .chain(concrete)
    .map(String::as_str)
}

/// Writes the database as a binary snapshot.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on write failure.
pub(crate) fn save_binary<W: Write>(db: &Database, mut writer: W) -> Result<(), PersistError> {
    let entries = db.entries();

    let stats = db.dedup_stats();
    let mut header = WireWriter::with_capacity(44);
    header.put_u64(entries.len() as u64);
    header.put_u64(stats.entries as u64);
    header.put_u64(stats.clusters as u64);
    header.put_u64(stats.exact_title_merges as u64);
    header.put_u64(stats.cascade_merges as u64);
    header.put_u32(CHUNK_ENTRIES as u32);

    let (table, strings) = {
        let _span = rememberr_obs::span!("persist.save.string_table");
        let table = StringTable::build(entries);
        let mut strings =
            WireWriter::with_capacity(4 + table.strings.iter().map(|s| s.len() + 4).sum::<usize>());
        strings.put_u32(table.strings.len() as u32);
        for text in &table.strings {
            strings.put_u32(text.len() as u32);
            strings.put_bytes(text.as_bytes());
        }
        (table, strings)
    };

    // Fan the columnar encoding out in input-ordered chunks; the table is
    // frozen, so every worker count produces the same bytes.
    let chunks: Vec<&[DbEntry]> = entries.chunks(CHUNK_ENTRIES).collect();
    let entry_section = {
        let _span = rememberr_obs::span!("persist.save.chunk_pass");
        let encoded = rememberr_par::par_map_indexed(&chunks, |index, chunk| {
            encode_chunk(chunk, index * CHUNK_ENTRIES, &table)
        });
        let mut entry_section =
            WireWriter::with_capacity(4 + encoded.iter().map(|c| c.len() + 8).sum::<usize>());
        entry_section.put_u32(encoded.len() as u32);
        for chunk in &encoded {
            entry_section.put_u64(chunk.len() as u64);
            entry_section.put_bytes(chunk);
        }
        entry_section
    };

    let sections = [
        header.as_bytes(),
        strings.as_bytes(),
        entry_section.as_bytes(),
    ];
    let checksums = {
        let _span = rememberr_obs::span!("persist.save.checksum");
        let mut checksums = WireWriter::with_capacity(sections.len() * 8);
        for payload in sections {
            checksums.put_u64(digest(payload));
        }
        checksums
    };

    let mut bytes_written = (MAGIC.len() + 4) as u64;
    writer.write_all(&MAGIC)?;
    writer.write_all(&BIN_VERSION.to_le_bytes())?;
    for payload in sections.into_iter().chain([checksums.as_bytes()]) {
        writer.write_all(&(payload.len() as u64).to_le_bytes())?;
        writer.write_all(payload)?;
        bytes_written += 8 + payload.len() as u64;
    }
    writer.flush()?;

    rememberr_obs::count("persist.records_written", entries.len() as u64);
    rememberr_obs::count("persist.bytes_written", bytes_written);
    rememberr_obs::count("persist.bin.strings", table.strings.len() as u64);
    rememberr_obs::count("persist.bin.chunks", chunks.len() as u64);
    Ok(())
}

/// One columnar chunk: a count, then field-major columns. Optional
/// columns (key, fixed-in, annotation) are a presence bitmap followed by
/// the present values in entry order. `first` is the database index of
/// the chunk's first entry, which locates its field ids in `table`.
fn encode_chunk(entries: &[DbEntry], first: usize, table: &StringTable<'_>) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(entries.len() * 48);
    w.put_u32(entries.len() as u32);
    for e in entries {
        w.put(&e.erratum.id.design);
    }
    for e in entries {
        w.put_u32(e.erratum.id.number);
    }
    let fields = |k: usize| table.fields(first + k);
    // The five erratum text columns are each entry's first five fields.
    for column in 0..5 {
        for k in 0..entries.len() {
            w.put_u32(fields(k)[column]);
        }
    }
    for e in entries {
        w.put(&e.provenance);
    }
    for e in entries {
        w.put(&e.workaround);
    }
    for e in entries {
        w.put(&e.fix);
    }
    put_bitmap(&mut w, entries, |e| e.key.is_some());
    for e in entries {
        if let Some(key) = e.key {
            w.put(&key);
        }
    }
    put_bitmap(&mut w, entries, |e| e.fixed_in.is_some());
    for (k, e) in entries.iter().enumerate() {
        if e.fixed_in.is_some() {
            w.put_u32(fields(k)[5]);
        }
    }
    put_bitmap(&mut w, entries, |e| e.annotation.is_some());
    for (k, e) in entries.iter().enumerate() {
        if let Some(annotation) = &e.annotation {
            let concrete = &fields(k)[5 + usize::from(e.fixed_in.is_some())..];
            encode_annotation(&mut w, annotation, concrete);
        }
    }
    w.into_bytes()
}

/// `concrete` holds the ids of the annotation's concrete trigger, context
/// and effect descriptions, in that order.
fn encode_annotation(w: &mut WireWriter, a: &Annotation, concrete: &[u32]) {
    w.put(&a.triggers);
    w.put(&a.contexts);
    w.put(&a.effects);
    w.put_u8(u8::from(a.complex_conditions));
    let mut ids = concrete.iter();
    for list in [
        &a.concrete_triggers,
        &a.concrete_contexts,
        &a.concrete_effects,
    ] {
        w.put_u32(list.len() as u32);
        for id in ids.by_ref().take(list.len()) {
            w.put_u32(*id);
        }
    }
    w.put_u32(a.msrs.len() as u32);
    for msr in &a.msrs {
        w.put(msr);
    }
}

fn put_bitmap<F: Fn(&DbEntry) -> bool>(w: &mut WireWriter, entries: &[DbEntry], present: F) {
    let mut byte = 0u8;
    for (i, e) in entries.iter().enumerate() {
        if present(e) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            w.put_u8(byte);
            byte = 0;
        }
    }
    if !entries.is_empty() && !entries.len().is_multiple_of(8) {
        w.put_u8(byte);
    }
}

fn corrupt(detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt(detail.into())
}

/// Fewest bytes one entry occupies in the entries section: its erratum
/// number and five string-table ids are fixed-width `u32` columns.
const MIN_ENTRY_BYTES: usize = 24;

/// Capacity to reserve for `count` items read from the file when each
/// item occupies at least `min_bytes` of the `remaining` input. The
/// checksums do not stop a deliberately forged count, so the count alone
/// must never size an allocation; a valid count is never above this cap,
/// so real snapshots allocate exactly what they did before.
fn capacity(count: usize, remaining: usize, min_bytes: usize) -> usize {
    count.min(remaining / min_bytes)
}

/// Reads a database from binary snapshot bytes (including magic).
///
/// # Errors
///
/// [`PersistError::Corrupt`] on any structural violation (bad magic or
/// checksum, out-of-range id, malformed section),
/// [`PersistError::UnsupportedVersion`] on a version mismatch, and
/// [`PersistError::Truncated`] when the chunks hold fewer entries than
/// the header announces.
pub(crate) fn load_binary(bytes: &[u8]) -> Result<Database, PersistError> {
    if bytes.len() < 8 || bytes[..4] != MAGIC {
        return Err(corrupt("missing rememberr-bin magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != BIN_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }

    let mut r = WireReader::new(&bytes[8..]);
    let header = take_section(&mut r, "header")?;
    let strings_payload = take_section(&mut r, "string table")?;
    let entries_payload = take_section(&mut r, "entries")?;
    let checksums = take_section(&mut r, "checksum")?;
    if !r.is_done() {
        return Err(corrupt("trailing bytes after checksum section"));
    }

    {
        let _span = rememberr_obs::span!("persist.load.checksum");
        let mut cr = WireReader::new(checksums);
        for (name, payload) in [
            ("header", header),
            ("string table", strings_payload),
            ("entries", entries_payload),
        ] {
            let want = cr.take_u64("section checksum")?;
            let got = digest(payload);
            if got != want {
                return Err(corrupt(format!(
                    "checksum mismatch in {name} section: stored {want:#018x}, computed {got:#018x}"
                )));
            }
        }
        if !cr.is_done() {
            return Err(corrupt("oversized checksum section"));
        }
    }

    let mut hr = WireReader::new(header);
    let expected = hr.take_u64("entry count")? as usize;
    let stats = DedupStats {
        entries: hr.take_u64("dedup entries")? as usize,
        clusters: hr.take_u64("dedup clusters")? as usize,
        exact_title_merges: hr.take_u64("dedup exact title merges")? as usize,
        cascade_merges: hr.take_u64("dedup cascade merges")? as usize,
        comparisons_made: 0,
    };
    let chunk_size = hr.take_u32("chunk size")?;
    if chunk_size == 0 {
        return Err(corrupt("chunk size 0"));
    }
    if !hr.is_done() {
        return Err(corrupt("oversized header section"));
    }

    let strings = {
        let _span = rememberr_obs::span!("persist.load.string_table");
        decode_strings(strings_payload)?
    };

    let (entries, chunk_count) = {
        let _span = rememberr_obs::span!("persist.load.chunk_pass");
        let mut er = WireReader::new(entries_payload);
        let chunk_count = er.take_u32("chunk count")? as usize;
        let mut chunk_slices = Vec::with_capacity(capacity(chunk_count, er.remaining(), 8));
        for _ in 0..chunk_count {
            let len = er.take_u64("chunk length")? as usize;
            chunk_slices.push(er.take_bytes(len, "entry chunk")?);
        }
        if !er.is_done() {
            return Err(corrupt("trailing bytes in entries section"));
        }

        // Decode chunks in parallel; concatenation in input order keeps
        // the database identical at every worker count.
        let decoded = rememberr_par::par_map(&chunk_slices, |chunk| decode_chunk(chunk, &strings));
        let mut entries =
            Vec::with_capacity(capacity(expected, entries_payload.len(), MIN_ENTRY_BYTES));
        for chunk in decoded {
            entries.extend(chunk?);
        }
        (entries, chunk_count)
    };
    if entries.len() != expected {
        return Err(PersistError::Truncated {
            expected,
            found: entries.len(),
        });
    }

    rememberr_obs::count("persist.records_read", entries.len() as u64);
    rememberr_obs::count("persist.bytes_read", bytes.len() as u64);
    rememberr_obs::count("persist.bin.strings", strings.len() as u64);
    rememberr_obs::count("persist.bin.chunks", chunk_count as u64);
    Ok(Database::from_parts(entries, stats))
}

/// The string table's strings, borrowed from the snapshot bytes and
/// checked as UTF-8 once each.
fn decode_strings(payload: &[u8]) -> Result<Vec<&str>, PersistError> {
    let mut sr = WireReader::new(payload);
    let string_count = sr.take_u32("string count")? as usize;
    let mut strings = Vec::with_capacity(capacity(string_count, sr.remaining(), 4));
    for _ in 0..string_count {
        let len = sr.take_u32("string length")? as usize;
        let raw = sr.take_bytes(len, "string bytes")?;
        strings.push(std::str::from_utf8(raw).map_err(|_| corrupt("string table is not UTF-8"))?);
    }
    if !sr.is_done() {
        return Err(corrupt("trailing bytes in string table"));
    }
    Ok(strings)
}

fn take_section<'a>(r: &mut WireReader<'a>, name: &'static str) -> Result<&'a [u8], PersistError> {
    let len = r.take_u64("section length")? as usize;
    r.take_bytes(len, name)
        .map_err(|_| corrupt(format!("truncated {name} section")))
}

fn decode_chunk(bytes: &[u8], strings: &[&str]) -> Result<Vec<DbEntry>, PersistError> {
    let mut r = WireReader::new(bytes);
    let count = r.take_u32("chunk entry count")? as usize;
    let designs: Vec<rememberr_model::Design> = take_column(&mut r, count)?;
    let numbers = take_u32_column(&mut r, count, "erratum number")?;
    let title_ids = take_u32_column(&mut r, count, "title id")?;
    let description_ids = take_u32_column(&mut r, count, "description id")?;
    let implication_ids = take_u32_column(&mut r, count, "implications id")?;
    let workaround_ids = take_u32_column(&mut r, count, "workaround text id")?;
    let status_ids = take_u32_column(&mut r, count, "status text id")?;
    let provenances: Vec<rememberr_model::Provenance> = take_column(&mut r, count)?;
    let workarounds: Vec<rememberr_model::WorkaroundCategory> = take_column(&mut r, count)?;
    let fixes: Vec<rememberr_model::FixStatus> = take_column(&mut r, count)?;

    let has_key = take_bitmap(&mut r, count, "key bitmap")?;
    let mut keys = Vec::with_capacity(count);
    for present in &has_key {
        keys.push(if *present {
            Some(r.take::<rememberr_model::UniqueKey>()?)
        } else {
            None
        });
    }
    let has_fixed_in = take_bitmap(&mut r, count, "fixed-in bitmap")?;
    let mut fixed_ins = Vec::with_capacity(count);
    for present in &has_fixed_in {
        fixed_ins.push(if *present {
            Some(resolve(strings, r.take_u32("fixed-in id")?)?.to_string())
        } else {
            None
        });
    }
    let has_annotation = take_bitmap(&mut r, count, "annotation bitmap")?;
    let mut annotations = Vec::with_capacity(count);
    for present in &has_annotation {
        annotations.push(if *present {
            Some(decode_annotation(&mut r, strings)?)
        } else {
            None
        });
    }
    if !r.is_done() {
        return Err(corrupt("trailing bytes in entry chunk"));
    }

    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        entries.push(DbEntry {
            erratum: rememberr_model::Erratum {
                id: rememberr_model::ErratumId::new(designs[i], numbers[i]),
                title: resolve(strings, title_ids[i])?.to_string(),
                description: resolve(strings, description_ids[i])?.to_string(),
                implications: resolve(strings, implication_ids[i])?.to_string(),
                workaround: resolve(strings, workaround_ids[i])?.to_string(),
                status: resolve(strings, status_ids[i])?.to_string(),
            },
            provenance: provenances[i],
            workaround: workarounds[i],
            fix: fixes[i],
            annotation: annotations[i].take(),
            key: keys[i],
            fixed_in: fixed_ins[i].take(),
        });
    }
    Ok(entries)
}

fn decode_annotation(r: &mut WireReader<'_>, strings: &[&str]) -> Result<Annotation, WireError> {
    let triggers = r.take()?;
    let contexts = r.take()?;
    let effects = r.take()?;
    let complex_conditions = match r.take_u8("complex conditions flag")? {
        0 => false,
        1 => true,
        tag => {
            return Err(WireError::InvalidValue {
                what: "complex conditions flag",
                value: u64::from(tag),
            })
        }
    };
    let mut lists = [Vec::new(), Vec::new(), Vec::new()];
    for list in &mut lists {
        let len = r.take_u32("concrete description count")? as usize;
        list.reserve(capacity(len, r.remaining(), 4));
        for _ in 0..len {
            let id = r.take_u32("concrete description id")?;
            let text = strings.get(id as usize).ok_or(WireError::InvalidValue {
                what: "string id",
                value: u64::from(id),
            })?;
            list.push(text.to_string());
        }
    }
    let [concrete_triggers, concrete_contexts, concrete_effects] = lists;
    let msr_count = r.take_u32("msr count")? as usize;
    let mut msrs = Vec::with_capacity(capacity(msr_count, r.remaining(), 1));
    for _ in 0..msr_count {
        msrs.push(r.take::<MsrRef>()?);
    }
    Ok(Annotation {
        triggers,
        contexts,
        effects,
        concrete_triggers,
        concrete_contexts,
        concrete_effects,
        msrs,
        complex_conditions,
    })
}

fn take_column<T: rememberr_model::WireDecode>(
    r: &mut WireReader<'_>,
    count: usize,
) -> Result<Vec<T>, WireError> {
    let mut column = Vec::with_capacity(capacity(count, r.remaining(), 1));
    for _ in 0..count {
        column.push(r.take::<T>()?);
    }
    Ok(column)
}

fn take_u32_column(
    r: &mut WireReader<'_>,
    count: usize,
    what: &'static str,
) -> Result<Vec<u32>, WireError> {
    let mut column = Vec::with_capacity(capacity(count, r.remaining(), 4));
    for _ in 0..count {
        column.push(r.take_u32(what)?);
    }
    Ok(column)
}

fn take_bitmap(
    r: &mut WireReader<'_>,
    count: usize,
    what: &'static str,
) -> Result<Vec<bool>, WireError> {
    let bytes = r.take_bytes(count.div_ceil(8), what)?;
    Ok((0..count)
        .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect())
}

fn resolve<'a>(strings: &[&'a str], id: u32) -> Result<&'a str, PersistError> {
    strings
        .get(id as usize)
        .copied()
        .ok_or_else(|| corrupt(format!("string id {id} out of range ({})", strings.len())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{load, save_as, SnapshotFormat};
    use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
    use rememberr_model::{Context, Effect, MsrName, Trigger};

    /// A deduplicated database with hand-attached annotations and
    /// fixed-in steppings, so every optional column is exercised. (The
    /// real classifier runs in the integration suite; a core unit test
    /// cannot depend on the classify crate without a cycle.)
    fn annotated_db(scale: f64) -> Database {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(scale));
        let base = Database::from_documents(&corpus.structured);
        let stats = base.dedup_stats();
        let mut entries = base.entries().to_vec();
        for (i, e) in entries.iter_mut().enumerate() {
            if i % 2 == 0 {
                let mut builder = Annotation::builder()
                    .trigger(Trigger::Reset, "a warm reset")
                    .context(Context::Smm, "while in SMM")
                    .effect(Effect::Hang, "the processor hangs")
                    .msr(MsrRef::canonical(MsrName::McStatus));
                if i % 6 == 0 {
                    builder = builder.complex_conditions();
                }
                e.annotation = Some(builder.build());
            }
            if i % 3 == 0 {
                e.fixed_in = Some(format!("stepping {}", i % 5));
            }
        }
        Database::from_parts(entries, stats)
    }

    fn binary_bytes(db: &Database) -> Vec<u8> {
        let mut buf = Vec::new();
        save_as(db, &mut buf, SnapshotFormat::Binary).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_everything_including_annotations() {
        let db = annotated_db(0.05);
        assert!(db.entries().iter().any(|e| e.annotation.is_some()));
        let bytes = binary_bytes(&db);
        let back = load(bytes.as_slice()).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.dedup_stats(), db.dedup_stats());
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::new();
        let back = load(binary_bytes(&db).as_slice()).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn chunk_boundary_counts_roundtrip() {
        // One over and one under a chunk boundary, plus an exact multiple.
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.15));
        let full = Database::from_documents(&corpus.structured);
        for count in [
            CHUNK_ENTRIES - 1,
            CHUNK_ENTRIES,
            CHUNK_ENTRIES + 1,
            full.len().min(2 * CHUNK_ENTRIES),
        ] {
            let db = Database::from_parts(full.entries()[..count].to_vec(), DedupStats::default());
            let back = load(binary_bytes(&db).as_slice()).unwrap();
            assert_eq!(back, db, "count {count}");
        }
    }

    #[test]
    fn string_table_deduplicates() {
        let db = annotated_db(0.1);
        let table = StringTable::build(db.entries());
        let total: usize = db
            .entries()
            .iter()
            .map(|e| {
                5 + e.annotation.as_ref().map_or(0, |a| {
                    a.concrete_triggers.len() + a.concrete_contexts.len() + a.concrete_effects.len()
                })
            })
            .sum();
        assert!(
            table.strings.len() < total,
            "table {} should collapse {total} field occurrences",
            table.strings.len()
        );
    }

    #[test]
    fn recorded_ids_are_each_fields_first_occurrence_id() {
        let db = annotated_db(0.1);
        let table = StringTable::build(db.entries());
        let mut first_seen: Vec<&str> = Vec::new();
        for (index, entry) in db.entries().iter().enumerate() {
            let texts: Vec<&str> = text_fields(entry).collect();
            let ids = table.fields(index);
            assert_eq!(ids.len(), texts.len(), "entry {index}");
            for (text, &id) in texts.into_iter().zip(ids) {
                let want = match first_seen.iter().position(|seen| *seen == text) {
                    Some(at) => at,
                    None => {
                        first_seen.push(text);
                        first_seen.len() - 1
                    }
                };
                assert_eq!(id as usize, want, "entry {index}, field {text:?}");
            }
        }
        assert_eq!(table.strings, first_seen);
    }

    #[test]
    fn digest_catches_any_one_word_change_and_trailing_zeros() {
        let payload: Vec<u8> = (0..45u8).collect();
        let base = digest(&payload);
        for at in [0, 7, 8, 31, 40, 44] {
            let mut flipped = payload.clone();
            flipped[at] ^= 0x01;
            assert_ne!(digest(&flipped), base, "flip at {at}");
        }
        let mut padded = payload.clone();
        for _ in 0..8 {
            padded.push(0);
            assert_ne!(digest(&padded), base, "{} zero bytes", padded.len() - 45);
        }
        assert_ne!(digest(&[]), digest(&[0]));
    }

    #[test]
    fn rejects_bad_magic() {
        let db = annotated_db(0.03);
        let mut bytes = binary_bytes(&db);
        bytes[0] = b'X';
        // Without the magic the stream falls through to the JSONL parser,
        // which rejects it (bad header, or invalid UTF-8 from `read_line`).
        let err = load(bytes.as_slice()).unwrap_err();
        assert!(
            matches!(err, PersistError::BadHeader(_) | PersistError::Io(_)),
            "expected rejection, got {err}"
        );
    }

    #[test]
    fn rejects_wrong_version() {
        let db = annotated_db(0.03);
        let mut bytes = binary_bytes(&db);
        assert_eq!(bytes[4..8], BIN_VERSION.to_le_bytes());
        for version in [1u32, 99] {
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                load(bytes.as_slice()),
                Err(PersistError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn rejects_flipped_payload_byte_via_checksum() {
        let db = annotated_db(0.03);
        let mut bytes = binary_bytes(&db);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = load(bytes.as_slice()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Corrupt(msg) if msg.contains("checksum")),
            "expected checksum rejection, got {err}"
        );
    }

    #[test]
    fn rejects_truncated_section() {
        let db = annotated_db(0.03);
        let bytes = binary_bytes(&db);
        let err = load(&bytes[..bytes.len() - 20]).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt(_)),
            "expected corrupt, got {err}"
        );
    }

    #[test]
    fn rejects_entry_count_mismatch_as_truncated() {
        let db = annotated_db(0.03);
        let mut bytes = binary_bytes(&db);
        // Forge the header's entry count (bytes 16.. hold the first header
        // field after magic+version+section length) and re-stamp its
        // checksum so the count check, not the checksum, fires.
        let announced = db.len() as u64 + 7;
        bytes[16..24].copy_from_slice(&announced.to_le_bytes());
        let header_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let header_payload = bytes[16..16 + header_len].to_vec();
        let checksum_pos = bytes.len() - 24;
        bytes[checksum_pos..checksum_pos + 8]
            .copy_from_slice(&digest(&header_payload).to_le_bytes());
        assert!(matches!(
            load(bytes.as_slice()),
            Err(PersistError::Truncated { expected, found })
                if expected == db.len() + 7 && found == db.len()
        ));
    }
}
