//! Delta inversion: computing the undo of an edit.
//!
//! Editors need undo; the protocol layer supports it by inverting a delta
//! *with respect to the document it was applied to*: `d.invert(base)`
//! produces the delta that transforms `d.apply(base)` back into `base`.
//! Inversion needs the base document because a delete destroys
//! information (the deleted text) that only the base can supply.

use crate::error::DeltaError;
use crate::ops::Delta;

impl Delta {
    /// Computes the inverse of this delta with respect to `base`: applying
    /// the result to `self.apply_bytes(base)` yields `base` again.
    ///
    /// Counts are **bytes**, as in [`Delta::apply_bytes`], and only the
    /// deleted bytes are copied: the cost is the delta's size, not the
    /// document's.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError::PastEnd`] when this delta does not fit
    /// `base`, and [`DeltaError::SplitsCharacter`] when a delete starts
    /// or ends inside a multi-byte character.
    ///
    /// # Example
    ///
    /// ```
    /// use pe_delta::Delta;
    ///
    /// let edit = Delta::parse("=2\t-3\t+uv")?;
    /// let edited = edit.apply_bytes(b"abcdefg")?;       // "abuvfg" + implicit tail
    /// let undo = edit.invert("abcdefg")?;
    /// assert_eq!(undo.apply_bytes(&edited)?, b"abcdefg");
    /// # Ok::<(), pe_delta::DeltaError>(())
    /// ```
    pub fn invert(&self, base: &str) -> Result<Delta, DeltaError> {
        let mut inverse = Delta::builder();
        let mut cursor = 0usize;
        for hunk in self.hunks(base.len())? {
            // Deleted text is re-inserted by the inverse, and inserted
            // text deleted.
            let restored = base.get(hunk.at..hunk.at + hunk.removed).ok_or_else(|| {
                let position =
                    if base.is_char_boundary(hunk.at) { hunk.at + hunk.removed } else { hunk.at };
                DeltaError::SplitsCharacter { position }
            })?;
            inverse.retain(hunk.at - cursor).delete(hunk.inserted_len()).insert(restored);
            cursor = hunk.at + hunk.removed;
        }
        Ok(inverse.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn check(base: &str, wire: &str) {
        let delta = Delta::parse(wire).unwrap();
        let edited = delta.apply_bytes(base.as_bytes()).unwrap();
        let inverse = delta.invert(base).unwrap();
        assert_eq!(
            inverse.apply_bytes(&edited).unwrap(),
            base.as_bytes(),
            "invert({wire:?}) on {base:?}"
        );
    }

    #[test]
    fn paper_examples_invert() {
        check("abcdefg", "=2\t-5");
        check("abcdefg", "=2\t-3\t+uv\t=2\t+w");
    }

    #[test]
    fn pure_cases() {
        check("hello", "");
        check("hello", "+prefix ");
        check("hello", "-5");
        check("hello", "=5\t+ suffix");
        check("", "+from nothing");
    }

    #[test]
    fn unicode_restores() {
        // Byte counts: 日 is three bytes, so "=3\t-6" deletes 本語.
        check("日本語です", "=3\t-6\t+ABC");
        check("héé", "=5\t+y");
        check("héé", "=1\t-2\t+ö\t=2\t+ü");
    }

    #[test]
    fn invert_past_end_fails() {
        let delta = Delta::parse("=9").unwrap();
        assert!(delta.invert("abc").is_err());
    }

    #[test]
    fn a_delete_that_splits_a_character_fails() {
        let delta = Delta::parse("=1\t-1").unwrap();
        assert_eq!(delta.invert("é"), Err(DeltaError::SplitsCharacter { position: 1 }));
        let delta = Delta::parse("-1").unwrap();
        assert_eq!(delta.invert("é"), Err(DeltaError::SplitsCharacter { position: 1 }));
    }

    #[test]
    fn double_inversion_restores_effect() {
        let base = "double inversion test";
        let delta = Delta::parse("=7\t-9\t+X").unwrap();
        let edited = String::from_utf8(delta.apply_bytes(base.as_bytes()).unwrap()).unwrap();
        let inverse = delta.invert(base).unwrap();
        let double = inverse.invert(&edited).unwrap();
        assert_eq!(double.apply_bytes(base.as_bytes()).unwrap(), edited.as_bytes());
    }

    proptest! {
        /// invert is a true left inverse for arbitrary valid byte deltas
        /// whose edits sit on character boundaries.
        #[test]
        fn inversion_law(
            base in "[a-fé日 ]{0,40}",
            raw in proptest::collection::vec((any::<u8>(), 0usize..12, "[x-zö]{0,6}"), 0..10),
        ) {
            let mut cursor = 0;
            let mut builder = Delta::builder();
            for (kind, n, text) in raw {
                // Whole characters only: the byte length of the next n.
                let take: usize = base[cursor..].chars().take(n).map(char::len_utf8).sum();
                match kind % 3 {
                    0 => { cursor += take; builder.retain(take); }
                    1 => { cursor += take; builder.delete(take); }
                    _ => { builder.insert(&text); }
                }
            }
            let delta = builder.build();
            let edited = delta.apply_bytes(base.as_bytes()).unwrap();
            let inverse = delta.invert(&base).unwrap();
            prop_assert_eq!(inverse.apply_bytes(&edited).unwrap(), base.as_bytes());
        }
    }
}
