//! Error type for delta parsing and application.

use std::error::Error;
use std::fmt;

/// Errors produced when parsing or applying a [`Delta`](crate::Delta).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeltaError {
    /// A token began with a character other than `=`, `+` or `-`.
    UnknownOp {
        /// The unrecognized leading character.
        op: char,
    },
    /// An empty token appeared (two adjacent tab separators).
    EmptyToken,
    /// The count of a retain or delete token was not a valid number.
    InvalidNumber {
        /// The malformed token.
        token: String,
    },
    /// A `%` escape in inserted text was not `%25` or `%09`.
    InvalidEscape {
        /// The malformed escape sequence.
        sequence: String,
    },
    /// A retain or delete ran past the end of the document.
    PastEnd {
        /// Cursor position when the operation was attempted.
        position: usize,
        /// Number of bytes the operation asked for.
        requested: usize,
        /// Document length.
        len: usize,
    },
    /// An edit cuts a multi-byte character of the text where the cut
    /// cannot stand: [`Delta::apply_in_place`] when the result would not
    /// be valid UTF-8, [`Delta::invert`] when a delete starts or ends
    /// inside a character.
    ///
    /// [`Delta::apply_in_place`]: crate::Delta::apply_in_place
    /// [`Delta::invert`]: crate::Delta::invert
    SplitsCharacter {
        /// Byte offset of the cut.
        position: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownOp { op } => write!(f, "unknown delta operation {op:?}"),
            DeltaError::EmptyToken => write!(f, "empty delta token"),
            DeltaError::InvalidNumber { token } => {
                write!(f, "invalid count in delta token {token:?}")
            }
            DeltaError::InvalidEscape { sequence } => {
                write!(f, "invalid escape sequence {sequence:?} in inserted text")
            }
            DeltaError::PastEnd { position, requested, len } => write!(
                f,
                "operation at byte {position} requests {requested} bytes but document has {len}"
            ),
            DeltaError::SplitsCharacter { position } => {
                write!(f, "edit at byte {position} splits a character")
            }
        }
    }
}

impl Error for DeltaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(DeltaError::UnknownOp { op: '*' }.to_string(), "unknown delta operation '*'");
        assert_eq!(DeltaError::EmptyToken.to_string(), "empty delta token");
        assert!(DeltaError::InvalidNumber { token: "=x".into() }.to_string().contains("=x"));
        assert!(DeltaError::PastEnd { position: 2, requested: 5, len: 3 }
            .to_string()
            .contains("document has 3"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<DeltaError>();
    }
}
