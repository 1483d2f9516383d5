//! Shared server state: the loaded snapshot and its hot-swap machinery.
//!
//! The snapshot lives behind `RwLock<Arc<LoadedSnapshot>>`. A request
//! takes the read lock just long enough to clone the `Arc` — nanoseconds —
//! then executes against its private reference, so in-flight requests
//! keep serving the generation they started on while a reload publishes
//! the next one. The `RwLock` write is the only synchronization the swap
//! needs: `Arc::clone` under the read lock happens-before or happens-after
//! the pointer store under the write lock, never mid-way, and the old
//! generation's memory is freed when its last in-flight request drops its
//! `Arc`, or by the reload itself after it releases the write lock.
//! Reloads themselves serialize on a separate mutex so two concurrent
//! `POST /reload`s build one after the other instead of racing to publish.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use rememberr::{Database, SnapshotFormat};

/// One immutable loaded snapshot generation.
///
/// The query index is built eagerly at load time (off the serving path)
/// so the first request against a new generation pays no build cost and
/// concurrent first requests never contend on the `OnceLock`.
pub struct LoadedSnapshot {
    /// The database, with its query index pre-built.
    pub db: Database,
    /// The on-disk format the snapshot was read from.
    pub format: SnapshotFormat,
    /// Monotonic generation number: 1 for the boot snapshot, +1 per reload.
    pub generation: u64,
}

/// Loads and indexes a snapshot file, sniffing its format.
///
/// The file is opened once and the format is sniffed from the same buffered
/// reader that decodes it, so a snapshot renamed over `path` mid-load
/// cannot give the generation one file's format and another's database.
pub fn load_snapshot(path: &Path, generation: u64) -> Result<LoadedSnapshot, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut reader = BufReader::new(file);
    let head = reader
        .fill_buf()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let format = SnapshotFormat::sniff(head);
    let db = rememberr::load(reader).map_err(|e| format!("{}: {e}", path.display()))?;
    let _ = db.query_index();
    Ok(LoadedSnapshot {
        db,
        format,
        generation,
    })
}

/// The state every worker shares: the current snapshot and the reload path.
pub struct ServeState {
    current: RwLock<Arc<LoadedSnapshot>>,
    path: PathBuf,
    generation: AtomicU64,
    reload_gate: Mutex<()>,
}

impl ServeState {
    /// Boots from the snapshot at `path` (generation 1).
    pub fn boot(path: PathBuf) -> Result<Self, String> {
        let snapshot = load_snapshot(&path, 1)?;
        Ok(ServeState {
            current: RwLock::new(Arc::new(snapshot)),
            path,
            generation: AtomicU64::new(1),
            reload_gate: Mutex::new(()),
        })
    }

    /// The snapshot to serve this request from. In-flight requests keep
    /// their `Arc` across a concurrent reload.
    pub fn snapshot(&self) -> Arc<LoadedSnapshot> {
        self.current
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// The snapshot path reloads re-read.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-reads the snapshot file and atomically publishes it as the next
    /// generation. Readers never block on the build — only on the pointer
    /// swap itself.
    ///
    /// # Errors
    ///
    /// Load failures leave the current generation serving.
    pub fn reload(&self) -> Result<Arc<LoadedSnapshot>, String> {
        let _gate = self
            .reload_gate
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        let next = Arc::new(load_snapshot(&self.path, generation)?);
        self.generation.store(generation, Ordering::Relaxed);
        let retired = {
            let mut current = self
                .current
                .write()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            std::mem::replace(&mut *current, next.clone())
        };
        // Freed here, after the write guard, if no request still holds it:
        // freeing a whole database under the guard would stall every
        // worker's `snapshot()` for as long.
        drop(retired);
        rememberr_obs::count("serve.reloads", 1);
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_docgen::{CorpusSpec, SyntheticCorpus};

    fn write_snapshot(dir: &Path, format: SnapshotFormat) -> PathBuf {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
        let db = Database::from_documents(&corpus.structured);
        let path = dir.join("snap.db");
        let mut out = Vec::new();
        rememberr::save_as(&db, &mut out, format).unwrap();
        std::fs::write(&path, out).unwrap();
        path
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rememberr-serve-state-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn boot_sniffs_format_and_prebuilds_the_index() {
        for format in [SnapshotFormat::Jsonl, SnapshotFormat::Binary] {
            let dir = tempdir(&format.to_string());
            let path = write_snapshot(&dir, format);
            let state = ServeState::boot(path).unwrap();
            let snap = state.snapshot();
            assert_eq!(snap.format, format);
            assert_eq!(snap.generation, 1);
            assert!(!snap.db.is_empty());
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn reload_bumps_generation_and_inflight_readers_keep_theirs() {
        let dir = tempdir("reload");
        let path = write_snapshot(&dir, SnapshotFormat::Jsonl);
        let state = ServeState::boot(path).unwrap();
        let held = state.snapshot();
        let next = state.reload().unwrap();
        assert_eq!(next.generation, 2);
        assert_eq!(state.snapshot().generation, 2);
        assert_eq!(held.generation, 1, "in-flight Arc survives the swap");
        assert_eq!(held.db.len(), next.db.len());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reload_failure_keeps_serving_the_old_generation() {
        let dir = tempdir("reload-fail");
        let path = write_snapshot(&dir, SnapshotFormat::Jsonl);
        let state = ServeState::boot(path.clone()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(state.reload().is_err());
        assert_eq!(state.snapshot().generation, 1);
        std::fs::remove_dir_all(dir).ok();

        // The live binary snapshot overwritten with a damaged copy: the
        // reload names the cause and generation 1 keeps serving.
        type Damage = fn(&mut [u8]);
        let cases: [(&str, Damage, &str); 2] = [
            (
                "checksum",
                // The last byte of the entries section, just before the
                // checksum section's u64 length and three u64 digests.
                |bytes| bytes[bytes.len() - 33] ^= 0x01,
                "checksum mismatch in entries section",
            ),
            (
                "version-1",
                |bytes| bytes[4..8].copy_from_slice(&1u32.to_le_bytes()),
                "unsupported format version 1",
            ),
        ];
        for (tag, damage, cause) in cases {
            let dir = tempdir(&format!("reload-{tag}"));
            let path = write_snapshot(&dir, SnapshotFormat::Binary);
            let state = ServeState::boot(path.clone()).unwrap();
            let entries = state.snapshot().db.len();
            let mut bytes = std::fs::read(&path).unwrap();
            damage(&mut bytes);
            std::fs::write(&path, bytes).unwrap();
            let err = state.reload().map(|_| ()).unwrap_err();
            assert!(err.contains(cause), "{tag}: {err}");
            let serving = state.snapshot();
            assert_eq!(serving.generation, 1, "{tag}");
            assert_eq!(serving.db.len(), entries, "{tag}");
            assert_eq!(serving.format, SnapshotFormat::Binary, "{tag}");
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn missing_snapshot_fails_boot_with_the_path() {
        let err = ServeState::boot(PathBuf::from("/nonexistent/snap.db"))
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("/nonexistent/snap.db"), "{err}");
    }
}
