//! Binary snapshot correctness: the `rememberr-bin/v2` columnar format
//! must be an invisible throughput knob. A binary roundtrip reproduces
//! the database the JSONL oracle reproduces, re-exported JSONL after a
//! binary roundtrip is byte-identical to JSONL written directly, the
//! binary bytes are identical at every worker count, and corruption in
//! any section is rejected instead of loading a wrong database. Truncated
//! and length-forged snapshots fail typed, without an allocation sized by
//! the forged field.

use std::alloc::{GlobalAlloc, Layout, System};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use rememberr::{load, save_as, Database, PersistError, SnapshotFormat};
use rememberr_classify::{classify_database, FourEyesConfig, HumanOracle, Rules};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};

/// The system allocator, recording the largest single request it served,
/// so the hostile-snapshot properties can check that no forged count sized
/// an allocation.
struct LargestRequest;

/// Largest allocation request served so far, in bytes. It publishes no
/// other data, so `Relaxed` suffices.
static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// atomic update, which neither allocates nor touches the memory served.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// No allocation in this test binary may exceed this. Honest work here
/// (generating and classifying a 0.15-scale corpus, decoding its snapshot)
/// requests at most ~0.65 MB at once; a forged `u32` count sizing a vector
/// of entries, strings or chunks would request up to ~100 GB.
const ALLOCATION_CAP: usize = 16 << 20;

fn assert_no_oversized_allocation(what: &str) {
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    assert!(
        largest <= ALLOCATION_CAP,
        "{what}: a {largest}-byte allocation was requested"
    );
}

/// A fully classified database at a representative scale, built once.
fn annotated_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.15));
        let mut db = Database::from_documents(&corpus.structured);
        classify_database(
            &mut db,
            &Rules::standard(),
            HumanOracle::Simulated(&corpus.truth),
            &FourEyesConfig::default(),
        );
        db
    })
}

fn snapshot(db: &Database, format: SnapshotFormat) -> Vec<u8> {
    let mut buf = Vec::new();
    save_as(db, &mut buf, format).expect("in-memory save succeeds");
    buf
}

proptest! {
    // Each case generates and classifies a corpus, so keep the count
    // modest; scale and seed vary the string-table shape, annotation
    // density, and chunk fill.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn binary_roundtrip_matches_jsonl_oracle(
        scale in 0.02f64..0.06,
        seed in 0u64..1_000_000,
        classify in any::<bool>(),
    ) {
        let mut spec = CorpusSpec::scaled(scale);
        spec.seed = seed;
        let corpus = SyntheticCorpus::generate(&spec);
        let mut db = Database::from_documents(&corpus.structured);
        if classify {
            classify_database(
                &mut db,
                &Rules::standard(),
                HumanOracle::Simulated(&corpus.truth),
                &FourEyesConfig::default(),
            );
        }

        let jsonl = snapshot(&db, SnapshotFormat::Jsonl);
        let binary = snapshot(&db, SnapshotFormat::Binary);
        let via_jsonl = load(jsonl.as_slice()).expect("jsonl loads");
        let via_binary = load(binary.as_slice()).expect("binary loads");
        prop_assert_eq!(&via_jsonl, &db, "the JSONL oracle roundtrips");
        prop_assert_eq!(&via_binary, &via_jsonl, "binary agrees with the oracle");
        prop_assert_eq!(via_binary.dedup_stats(), db.dedup_stats());

        // Re-exported JSONL after a binary roundtrip is byte-identical.
        let reexport = snapshot(&via_binary, SnapshotFormat::Jsonl);
        prop_assert_eq!(reexport, jsonl);

        // The binary flavor actually buys its keep: smaller than JSONL.
        prop_assert!(binary.len() < jsonl.len());
    }
}

#[test]
fn binary_bytes_identical_across_worker_counts() {
    let db = annotated_db();
    let mut snapshots = Vec::new();
    for jobs in [1usize, 2, 8] {
        rememberr_par::set_jobs(NonZeroUsize::new(jobs));
        snapshots.push((jobs, snapshot(db, SnapshotFormat::Binary)));
    }
    rememberr_par::set_jobs(None);
    let (_, reference) = &snapshots[0];
    for (jobs, bytes) in &snapshots {
        assert_eq!(
            bytes, reference,
            "binary snapshot at jobs={jobs} diverged from jobs=1"
        );
    }
    // And the bytes decode back to the database they were saved from.
    assert_eq!(&load(reference.as_slice()).unwrap(), db);
}

#[test]
fn loading_is_jobs_invariant() {
    let db = annotated_db();
    let bytes = snapshot(db, SnapshotFormat::Binary);
    for jobs in [1usize, 2, 8] {
        rememberr_par::set_jobs(NonZeroUsize::new(jobs));
        let back = load(bytes.as_slice()).unwrap();
        assert_eq!(&back, db, "decode at jobs={jobs}");
    }
    rememberr_par::set_jobs(None);
}

#[test]
fn corrupt_snapshots_are_rejected() {
    let db = annotated_db();
    let bytes = snapshot(db, SnapshotFormat::Binary);

    // Bad magic: the stream is no longer recognized as binary and the
    // JSONL fallback rejects it too.
    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'Z';
    assert!(load(bad_magic.as_slice()).is_err(), "bad magic must fail");

    // A flipped byte anywhere in a section payload trips that section's
    // checksum.
    for position in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 30] {
        let mut corrupted = bytes.clone();
        corrupted[position] ^= 0x40;
        let err = load(corrupted.as_slice()).unwrap_err();
        assert!(
            matches!(
                &err,
                PersistError::Corrupt(_) | PersistError::BadHeader(_) | PersistError::Io(_)
            ),
            "flip at {position}: got {err}"
        );
    }

    // A truncated section is rejected, never partially loaded.
    for keep in [bytes.len() - 1, bytes.len() / 2, 16] {
        let err = load(&bytes[..keep]).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt(_)),
            "truncation to {keep} bytes: got {err}"
        );
    }

    // Forged counts behind valid checksums are typed errors, not
    // allocations sized by the count: the header's entry count...
    let forged = forge(&bytes, HEADER, 0, &(1u64 << 40).to_le_bytes());
    assert!(matches!(
        load(forged.as_slice()),
        Err(PersistError::Truncated { expected, found })
            if expected == 1 << 40 && found == db.len()
    ));
    // ...the string table's count, the chunk count, and the first chunk's
    // entry count (after the chunk count and that chunk's length).
    for (what, section, offset) in [
        ("string count", STRINGS, 0),
        ("chunk count", ENTRIES, 0),
        ("chunk entry count", ENTRIES, 4 + 8),
    ] {
        let forged = forge(&bytes, section, offset, &u32::MAX.to_le_bytes());
        let err = load(forged.as_slice()).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt(_)),
            "forged {what}: got {err}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile snapshots: 1-8 bytes overwritten anywhere in the header,
    /// string table or entries section, behind a re-stamped checksum, load
    /// as a database or a typed `PersistError` — never a panic or an abort.
    #[test]
    fn forged_section_bytes_load_or_fail_typed(
        section in 0usize..CHECKSUMS,
        at in 0usize..1 << 20,
        value in prop::collection::vec(prop_oneof![any::<u8>(), Just(0u8), Just(0xff)], 1..9),
    ) {
        let bytes = binary_snapshot();
        let len = section_ranges(bytes)[section].len();
        let forged = forge(bytes, section, at % (len - value.len() + 1), &value);
        let _ = load(forged.as_slice());
    }
}

/// Every offset a truncation must be rejected at: each byte of the magic
/// and version, and, for every section, the start of its length field, the
/// start and middle of its payload, and the last payload byte.
fn section_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..=8).collect();
    for range in section_ranges(bytes) {
        cuts.extend([range.start - 8, range.start, (range.start + range.end) / 2]);
        cuts.push(range.end - 1);
    }
    cuts
}

#[test]
fn snapshots_truncated_at_section_boundaries_are_rejected() {
    let bytes = binary_snapshot();
    for keep in section_boundaries(bytes) {
        assert!(
            load(&bytes[..keep]).is_err(),
            "a snapshot cut to {keep} of {} bytes loaded",
            bytes.len()
        );
    }
    assert_no_oversized_allocation("truncation at section boundaries");
}

/// The forgeable length fields of the layout: the u64 length in front of
/// each section, the string table's u32 count, the entries section's u32
/// chunk count, and the u64 length in front of each chunk.
#[derive(Debug, Clone, Copy)]
enum LengthField {
    Section(usize),
    StringCount,
    ChunkCount,
    ChunkLength(usize),
}

/// Byte offset and width of `field` in `bytes`, and the section whose
/// checksum covers it (`None` for section lengths, which no checksum
/// covers).
fn locate(bytes: &[u8], field: LengthField) -> (usize, usize, Option<usize>) {
    let ranges = section_ranges(bytes);
    match field {
        LengthField::Section(section) => (ranges[section].start - 8, 8, None),
        LengthField::StringCount => (ranges[STRINGS].start, 4, Some(STRINGS)),
        LengthField::ChunkCount => (ranges[ENTRIES].start, 4, Some(ENTRIES)),
        LengthField::ChunkLength(chunk) => {
            let entries = &bytes[ranges[ENTRIES].clone()];
            let chunks = u32::from_le_bytes(entries[..4].try_into().unwrap()) as usize;
            let mut at = 4;
            for _ in 0..chunk % chunks {
                let len = u64::from_le_bytes(entries[at..at + 8].try_into().unwrap());
                at += 8 + len as usize;
            }
            (ranges[ENTRIES].start + at, 8, Some(ENTRIES))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A snapshot cut anywhere is rejected with a typed error.
    #[test]
    fn truncated_snapshots_fail_typed(at in 0usize..1 << 20) {
        let bytes = binary_snapshot();
        let keep = at % bytes.len();
        prop_assert!(load(&bytes[..keep]).is_err(), "cut to {} bytes", keep);
        assert_no_oversized_allocation("truncation");
    }

    /// A forged section length, string count, chunk count or chunk length,
    /// behind re-stamped checksums, loads as a database or a typed
    /// `PersistError`: never a panic, an abort, or an allocation sized by
    /// the forged value.
    #[test]
    fn forged_length_fields_load_or_fail_typed(
        which in 0usize..4,
        index in 0usize..64,
        value in prop_oneof![
            Just(0u64),
            Just(1u64),
            Just(u64::from(u32::MAX)),
            Just(u64::MAX),
            any::<u64>(),
            0u64..1 << 20,
        ],
        nudge in -2i64..3,
    ) {
        let bytes = binary_snapshot();
        let field = match which {
            0 => LengthField::Section(index % (CHECKSUMS + 1)),
            1 => LengthField::StringCount,
            2 => LengthField::ChunkCount,
            _ => LengthField::ChunkLength(index),
        };
        let (at, width, covering) = locate(bytes, field);
        // Half the cases move the true value by a little, the rest write
        // `value` outright.
        let honest = match width {
            4 => u64::from(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())),
            _ => u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()),
        };
        let forged_value = if index % 2 == 0 {
            honest.wrapping_add_signed(nudge)
        } else {
            value
        };
        let mut forged = bytes.to_vec();
        forged[at..at + width].copy_from_slice(&forged_value.to_le_bytes()[..width]);
        if let Some(section) = covering {
            restamp(&mut forged, section);
        }
        let _ = load(forged.as_slice());
        assert_no_oversized_allocation(&format!("{field:?} forged to {forged_value}"));
    }
}

/// The binary snapshot of [`annotated_db`], encoded once.
fn binary_snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| snapshot(annotated_db(), SnapshotFormat::Binary))
}

/// Section indices of the `rememberr-bin/v2` layout.
const HEADER: usize = 0;
const STRINGS: usize = 1;
const ENTRIES: usize = 2;
const CHECKSUMS: usize = 3;

/// Byte range of each section payload, in layout order. Sections follow
/// the 4-byte magic and the u32 version; each is a u64 length + payload.
fn section_ranges(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut at = 8;
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        ranges.push(at + 8..at + 8 + len);
        at += 8 + len;
    }
    ranges
}

/// The format's section checksum, written out independently of the
/// library: the state starts at the payload length, and each
/// little-endian `u64` word, the last one zero-padded, is folded in as
/// `h = (h ^ w) * K; h ^= h >> 29`.
fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    bytes.chunks(8).fold(bytes.len() as u64, |h, word| {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        let h = (h ^ u64::from_le_bytes(padded)).wrapping_mul(K);
        h ^ (h >> 29)
    })
}

/// `bytes` with `value` written at `offset` into section `section`, and
/// that section's checksum re-stamped, so the checksums pass and only the
/// forged field is wrong.
fn forge(bytes: &[u8], section: usize, offset: usize, value: &[u8]) -> Vec<u8> {
    let mut forged = bytes.to_vec();
    let at = section_ranges(&forged)[section].start + offset;
    forged[at..at + value.len()].copy_from_slice(value);
    restamp(&mut forged, section);
    forged
}

/// Re-stamps the stored checksum of `section` to match its payload.
fn restamp(bytes: &mut [u8], section: usize) {
    let ranges = section_ranges(bytes);
    let sum = digest(&bytes[ranges[section].clone()]);
    let slot = ranges[CHECKSUMS].start + 8 * section;
    bytes[slot..slot + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Section names as the loader's checksum errors spell them.
const SECTION_NAMES: [&str; CHECKSUMS] = ["header", "string table", "entries"];

#[test]
fn stored_checksums_are_the_v2_digest_of_each_section() {
    let bytes = binary_snapshot();
    assert_eq!(bytes[4..8], 2u32.to_le_bytes(), "version word");
    let ranges = section_ranges(bytes);
    for section in 0..CHECKSUMS {
        let slot = ranges[CHECKSUMS].start + 8 * section;
        let stored = u64::from_le_bytes(bytes[slot..slot + 8].try_into().unwrap());
        assert_eq!(
            stored,
            digest(&bytes[ranges[section].clone()]),
            "{} section",
            SECTION_NAMES[section]
        );
    }
}

#[test]
fn version_1_snapshots_are_refused() {
    let mut bytes = binary_snapshot().to_vec();
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        load(bytes.as_slice()),
        Err(PersistError::UnsupportedVersion(1))
    ));
}

/// Asserts that `bytes` fails to load with a checksum mismatch in
/// `section`.
fn assert_checksum_rejects(bytes: &[u8], section: usize, what: &str) {
    let name = SECTION_NAMES[section];
    match load(bytes) {
        Err(PersistError::Corrupt(msg))
            if msg.contains(&format!("checksum mismatch in {name} section")) => {}
        other => panic!(
            "{what} in the {name} section: expected a checksum error, got {:?}",
            other.map(|db| db.len())
        ),
    }
}

#[test]
fn one_flipped_byte_fails_its_sections_checksum() {
    let bytes = binary_snapshot();
    let ranges = section_ranges(bytes);
    for section in 0..CHECKSUMS {
        let len = ranges[section].len();
        // Sampled offsets through the payload, then every byte of its last
        // word, which is partial unless the length is a multiple of 8.
        let last_word = (len - 1) / 8 * 8;
        let mut offsets = vec![0, 1, len / 3, len / 2, 2 * len / 3];
        offsets.extend(last_word..len);
        assert!(
            section != HEADER || !len.is_multiple_of(8),
            "the header's last word is partial"
        );
        for offset in offsets {
            for mask in [0x01u8, 0x80] {
                let mut flipped = bytes.to_vec();
                flipped[ranges[section].start + offset] ^= mask;
                assert_checksum_rejects(
                    &flipped,
                    section,
                    &format!("flip {mask:#04x} at {offset}"),
                );
            }
        }
    }
}

#[test]
fn trailing_zero_bytes_change_the_digest() {
    let bytes = binary_snapshot();
    for section in 0..CHECKSUMS {
        for zeros in 1..=8 {
            // The section grows by `zeros` zero bytes and its length prefix
            // says so; the stored checksum is the original one.
            let ranges = section_ranges(bytes);
            let range = ranges[section].clone();
            let mut padded = bytes[..range.end].to_vec();
            padded.extend(std::iter::repeat_n(0u8, zeros));
            padded.extend_from_slice(&bytes[range.end..]);
            let len = (range.len() + zeros) as u64;
            padded[range.start - 8..range.start].copy_from_slice(&len.to_le_bytes());
            assert_checksum_rejects(&padded, section, &format!("{zeros} appended zero bytes"));
        }
    }
    // And for the digest on its own: all-zero payloads of every length up
    // to two words digest differently.
    let digests: std::collections::HashSet<u64> =
        (0..=16).map(|len| digest(&vec![0u8; len])).collect();
    assert_eq!(digests.len(), 17);
}

#[test]
fn truncated_jsonl_is_rejected() {
    let db = annotated_db();
    let jsonl = String::from_utf8(snapshot(db, SnapshotFormat::Jsonl)).unwrap();
    let truncated: String = jsonl
        .lines()
        .take(db.len()) // header + all but the last record
        .map(|line| format!("{line}\n"))
        .collect();
    assert!(matches!(
        load(truncated.as_bytes()),
        Err(PersistError::Truncated { expected, found })
            if expected == db.len() && found == db.len() - 1
    ));
}
