//! Saving and loading generated problems as JSON artifacts, so experiment
//! inputs can be pinned and shared.
//!
//! Loading goes through a typed [`PersistError`] that names the offending
//! path and — for malformed JSON — the 1-based line/column where parsing
//! stopped, so a truncated or hand-mangled artifact produces an actionable
//! message instead of a bare `InvalidData`.

use rasa_model::Problem;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Why saving or loading a problem artifact failed.
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read or written.
    Io {
        /// The artifact path involved.
        path: PathBuf,
        /// The underlying filesystem error.
        source: io::Error,
    },
    /// The file exists but its contents are not a valid problem.
    Parse {
        /// The artifact path involved.
        path: PathBuf,
        /// 1-based line where parsing stopped (syntax errors only; shape
        /// errors found after parsing carry no position).
        line: Option<usize>,
        /// 1-based column where parsing stopped.
        column: Option<usize>,
        /// The underlying JSON error.
        source: serde_json::Error,
    },
    /// The in-memory problem could not be serialized.
    Serialize {
        /// The underlying JSON error.
        source: serde_json::Error,
    },
    /// The bytes were written but could not be made durable: `fsync`
    /// (or the flush before it) failed. The file may exist with partial
    /// or non-durable contents — callers treating a save as a commit
    /// point (journals, checkpoints) must treat this as a failed save.
    Sync {
        /// The artifact path involved.
        path: PathBuf,
        /// The underlying filesystem error.
        source: io::Error,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            PersistError::Parse {
                path,
                line,
                column,
                source,
            } => {
                write!(f, "{}: ", path.display())?;
                if let (Some(l), Some(c)) = (line, column) {
                    write!(f, "malformed JSON at line {l} column {c}: ")?;
                }
                write!(f, "{source}")
            }
            PersistError::Serialize { source } => {
                write!(f, "failed to serialize problem: {source}")
            }
            PersistError::Sync { path, source } => {
                write!(f, "{}: fsync failed: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Parse { source, .. } => Some(source),
            PersistError::Serialize { source } => Some(source),
            PersistError::Sync { source, .. } => Some(source),
        }
    }
}

/// Write `bytes` to `path` and make them durable: create, `write_all`,
/// `flush`, `sync_all`. A failed write is [`PersistError::Io`]; a write
/// that succeeded but could not be fsynced is the distinct
/// [`PersistError::Sync`] — previously that failure mode was silently
/// reported as success because saves went through `std::fs::write` alone.
fn write_durable(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    use std::io::Write;
    let io_err = |source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    };
    let mut file = std::fs::File::create(path).map_err(io_err)?;
    file.write_all(bytes).map_err(io_err)?;
    file.flush()
        .and_then(|()| file.sync_all())
        .map_err(|source| PersistError::Sync {
            path: path.to_path_buf(),
            source,
        })
}

/// Write `problem` to `path` as JSON, durably (fsynced; see
/// [`PersistError::Sync`]).
pub fn save_problem(problem: &Problem, path: &Path) -> Result<(), PersistError> {
    let json =
        serde_json::to_string(problem).map_err(|source| PersistError::Serialize { source })?;
    write_durable(path, json.as_bytes())
}

/// Load a problem saved by [`save_problem`].
///
/// No admission audit is run on the result; pair with
/// `rasa_model::ProblemValidator` (or use the pipeline's built-in
/// admission gate) before trusting a file from outside the process.
pub fn load_problem(path: &Path) -> Result<Problem, PersistError> {
    let json = std::fs::read_to_string(path).map_err(|source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    serde_json::from_str(&json).map_err(|source| PersistError::Parse {
        path: path.to_path_buf(),
        line: source.line(),
        column: source.column(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::specs::tiny_cluster;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rasa_trace_test");
        std::fs::create_dir_all(&dir).expect("temp dir creates");
        dir.join(name)
    }

    #[test]
    fn round_trip_preserves_the_problem() {
        let p = generate(&tiny_cluster(5));
        let path = temp_path("tiny.json");
        save_problem(&p, &path).expect("problem saves");
        let q = load_problem(&path).expect("problem loads back");
        // JSON float formatting may drift by an ULP; compare structurally
        // with a tight tolerance.
        assert_eq!(p.num_services(), q.num_services());
        assert_eq!(p.num_machines(), q.num_machines());
        assert_eq!(p.affinity_edges.len(), q.affinity_edges.len());
        for (a, b) in p.affinity_edges.iter().zip(&q.affinity_edges) {
            assert_eq!((a.a, a.b), (b.a, b.b));
            assert!((a.weight - b.weight).abs() < 1e-9);
        }
        assert_eq!(p.anti_affinity, q.anti_affinity);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_reports_path() {
        let err = load_problem(Path::new("/nonexistent/rasa.json")).expect_err("must fail");
        assert!(matches!(err, PersistError::Io { .. }));
        assert!(err.to_string().contains("/nonexistent/rasa.json"));
    }

    #[test]
    fn truncated_artifact_reports_line_and_column() {
        let p = generate(&tiny_cluster(5));
        let path = temp_path("truncated.json");
        save_problem(&p, &path).expect("problem saves");
        let json = std::fs::read_to_string(&path).expect("readable");
        std::fs::write(&path, &json[..json.len() / 2]).expect("truncates");

        let err = load_problem(&path).expect_err("truncated file must fail");
        match &err {
            PersistError::Parse { path: p, line, .. } => {
                assert!(p.ends_with("truncated.json"));
                assert!(line.is_some(), "syntax errors carry a position");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        assert!(err.to_string().contains("line"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_shape_reports_parse_without_position() {
        let path = temp_path("wrong_shape.json");
        // valid JSON, wrong type for a Problem
        std::fs::write(&path, "[1, 2, 3]").expect("writes");
        let err = load_problem(&path).expect_err("wrong shape must fail");
        assert!(matches!(err, PersistError::Parse { line: None, .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_to_unwritable_target_reports_typed_io_error() {
        // A read-only directory does not stop root, so use targets that
        // fail for every uid: the target path IS a directory, and the
        // target's parent is a regular file.
        let p = generate(&tiny_cluster(3));
        let dir_target = temp_path("is_a_directory");
        std::fs::create_dir_all(&dir_target).expect("dir creates");
        let err = save_problem(&p, &dir_target).expect_err("directory target must fail");
        assert!(matches!(err, PersistError::Io { .. }), "got {err:?}");
        assert!(err.to_string().contains("is_a_directory"));

        let file_parent = temp_path("not_a_dir");
        std::fs::write(&file_parent, b"plain file").expect("writes");
        let under_file = file_parent.join("tiny.json");
        let err = save_problem(&p, &under_file).expect_err("file parent must fail");
        assert!(matches!(err, PersistError::Io { .. }), "got {err:?}");
        assert!(err.to_string().contains("not_a_dir"));
        std::fs::remove_file(&file_parent).ok();
    }

    #[test]
    fn sync_failures_are_a_distinct_variant() {
        // fsync failure cannot be provoked portably in a unit test;
        // assert the variant's contract (display + source chain) so the
        // journal layer can match on it.
        let err = PersistError::Sync {
            path: PathBuf::from("/tmp/wal/seg-1.wal"),
            source: io::Error::other("EIO"),
        };
        assert!(err.to_string().contains("fsync failed"));
        assert!(err.to_string().contains("seg-1.wal"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
