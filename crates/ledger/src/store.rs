//! The ledger directory: one `<run-id>.tgrun` file per recorded run,
//! written atomically (staged `.tmp` sibling + rename, like every GoFS
//! artifact), listed and loaded by name.

use crate::record::RunRecord;
use std::path::{Path, PathBuf};
use tempograph_gofs::error::{GofsError, Result};
use tempograph_gofs::store::write_atomic;

/// File extension of a run record.
pub const RECORD_EXT: &str = "tgrun";

/// A directory of run records.
#[derive(Clone, Debug)]
pub struct Ledger {
    dir: PathBuf,
}

impl Ledger {
    /// Open (creating if needed) a ledger directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Ledger> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(GofsError::Io)?;
        Ok(Ledger { dir })
    }

    /// The directory this ledger lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the record named `name` (no extension).
    pub fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.{RECORD_EXT}"))
    }

    /// Run names present, sorted (directory order is never exposed).
    pub fn list(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(GofsError::Io)? {
            let entry = entry.map_err(GofsError::Io)?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(RECORD_EXT) {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                names.push(stem.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    /// Load a record by name.
    pub fn load(&self, name: &str) -> Result<RunRecord> {
        let data = std::fs::read(self.path_of(name)).map_err(GofsError::Io)?;
        RunRecord::decode(data.into())
    }

    /// Record a run, returning the name it was stored under. The name is
    /// the record's deterministic run id; when that name is already taken
    /// by a *different* record, a `-2`, `-3`, … suffix disambiguates
    /// (re-recording an identical run is idempotent and reuses the name).
    pub fn record(&self, rec: &RunRecord) -> Result<String> {
        let base = rec.run_id();
        let encoded = rec.encode();
        let mut name = base.clone();
        let mut suffix = 2usize;
        loop {
            let path = self.path_of(&name);
            match std::fs::read(&path) {
                Ok(existing) => {
                    if existing.as_slice() == &encoded[..] {
                        return Ok(name);
                    }
                    name = format!("{base}-{suffix}");
                    suffix += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    write_atomic(&path, &encoded)?;
                    return Ok(name);
                }
                Err(e) => return Err(GofsError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ledger-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample() -> RunRecord {
        let mut rec = RunRecord::default();
        rec.config.algorithm = "hash".into();
        rec.config.seed = 42;
        rec.aggregates.msgs_local = 7;
        rec
    }

    #[test]
    fn record_list_load_round_trip() {
        let ledger = Ledger::open(tmp()).unwrap();
        let rec = sample();
        let name = ledger.record(&rec).unwrap();
        assert_eq!(name, rec.run_id());
        assert_eq!(ledger.list().unwrap(), vec![name.clone()]);
        assert_eq!(ledger.load(&name).unwrap(), rec);
    }

    #[test]
    fn identical_rerecord_is_idempotent() {
        let ledger = Ledger::open(tmp()).unwrap();
        let rec = sample();
        let a = ledger.record(&rec).unwrap();
        let b = ledger.record(&rec).unwrap();
        assert_eq!(a, b);
        assert_eq!(ledger.list().unwrap().len(), 1);
    }

    #[test]
    fn same_config_different_content_gets_suffix() {
        let ledger = Ledger::open(tmp()).unwrap();
        let rec = sample();
        let mut other = sample();
        other.aggregates.wall_ns = 999; // same fingerprint, new timings
        let a = ledger.record(&rec).unwrap();
        let b = ledger.record(&other).unwrap();
        assert_eq!(b, format!("{a}-2"));
        assert_eq!(ledger.load(&b).unwrap(), other);
        let c = ledger.record(&RunRecord {
            aggregates: crate::record::RunAggregates {
                wall_ns: 1234,
                ..other.aggregates
            },
            ..other.clone()
        });
        assert_eq!(c.unwrap(), format!("{a}-3"));
    }

    #[test]
    fn list_ignores_foreign_files_and_sorts() {
        let dir = tmp();
        let ledger = Ledger::open(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        let mut b = sample();
        b.config.algorithm = "zzz".into();
        let mut a = sample();
        a.config.algorithm = "aaa".into();
        ledger.record(&b).unwrap();
        ledger.record(&a).unwrap();
        let names = ledger.list().unwrap();
        assert_eq!(names.len(), 2);
        assert!(names[0] < names[1]);
    }

    #[test]
    fn load_missing_is_io_error() {
        let ledger = Ledger::open(tmp()).unwrap();
        assert!(matches!(ledger.load("absent"), Err(GofsError::Io(_))));
    }
}
