//! Binary snapshot correctness: the `rememberr-bin/v1` columnar format
//! must be an invisible throughput knob. A binary roundtrip reproduces
//! the database the JSONL oracle reproduces, re-exported JSONL after a
//! binary roundtrip is byte-identical to JSONL written directly, the
//! binary bytes are identical at every worker count, and corruption in
//! any section is rejected instead of loading a wrong database.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

use proptest::prelude::*;
use rememberr::{load, save_as, Database, PersistError, SnapshotFormat};
use rememberr_classify::{classify_database, FourEyesConfig, HumanOracle, Rules};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};

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

/// The binary snapshot of [`annotated_db`], encoded once.
fn binary_snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| snapshot(annotated_db(), SnapshotFormat::Binary))
}

/// Section indices of the `rememberr-bin/v1` layout.
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

/// FNV-1a 64, the format's section checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `bytes` with `value` written at `offset` into section `section`, and
/// that section's checksum re-stamped, so the checksums pass and only the
/// forged field is wrong.
fn forge(bytes: &[u8], section: usize, offset: usize, value: &[u8]) -> Vec<u8> {
    let mut forged = bytes.to_vec();
    let ranges = section_ranges(&forged);
    let at = ranges[section].start + offset;
    forged[at..at + value.len()].copy_from_slice(value);
    let sum = fnv1a64(&forged[ranges[section].clone()]);
    let slot = ranges[CHECKSUMS].start + 8 * section;
    forged[slot..slot + 8].copy_from_slice(&sum.to_le_bytes());
    forged
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
