//! GoFS error type.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, GofsError>;

/// Errors raised by the storage layer.
#[derive(Debug)]
pub enum GofsError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// File did not start with the expected magic bytes.
    BadMagic {
        /// What the file actually started with.
        found: [u8; 4],
    },
    /// File format version not understood by this build.
    UnsupportedVersion(u16),
    /// Checksum mismatch — the file is corrupt or truncated.
    ChecksumMismatch {
        /// Checksum recorded in the footer.
        expected: u64,
        /// Checksum computed over the payload.
        actual: u64,
    },
    /// Structurally invalid payload (ran out of bytes, bad tag, …).
    Corrupt(String),
    /// A requested timestep/subgraph is outside the stored dataset.
    OutOfRange(String),
    /// Data-model validation failed after decode.
    Core(tempograph_core::CoreError),
}

impl fmt::Display for GofsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GofsError::Io(e) => write!(f, "io error: {e}"),
            GofsError::BadMagic { found } => write!(f, "bad magic {found:?}"),
            GofsError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            GofsError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: footer {expected:#x}, payload {actual:#x}"
                )
            }
            GofsError::Corrupt(what) => write!(f, "corrupt file: {what}"),
            GofsError::OutOfRange(what) => write!(f, "out of range: {what}"),
            GofsError::Core(e) => write!(f, "data model error: {e}"),
        }
    }
}

impl std::error::Error for GofsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GofsError::Io(e) => Some(e),
            GofsError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GofsError {
    fn from(e: std::io::Error) -> Self {
        GofsError::Io(e)
    }
}

/// Every codec failure in a stored record is corruption: callers read
/// through `tempograph_core::wire` and write `?`.
impl From<tempograph_core::wire::WireError> for GofsError {
    fn from(e: tempograph_core::wire::WireError) -> Self {
        GofsError::Corrupt(e.to_string())
    }
}

impl From<tempograph_core::CoreError> for GofsError {
    fn from(e: tempograph_core::CoreError) -> Self {
        GofsError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(GofsError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(GofsError::BadMagic { found: *b"NOPE" }
            .to_string()
            .contains("magic"));
        let e = GofsError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("checksum"));
    }

    #[test]
    fn wire_errors_are_corrupt() {
        let e: GofsError = tempograph_core::wire::WireError::Utf8 { context: "name" }.into();
        assert!(
            matches!(e, GofsError::Corrupt(ref d) if d.contains("UTF-8")),
            "{e}"
        );
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: GofsError = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
