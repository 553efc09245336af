//! Deriving a delta from two document versions.
//!
//! The micro-benchmark of §VII-B derives, for every random pair
//! `(D, D′)`, "a delta string … such that it transforms D to D′". This
//! module provides that derivation using the common-prefix/common-suffix
//! method: the result is the canonical minimal three-operation delta
//! `retain p, delete m, insert s` (with empty parts omitted).
//!
//! Canonicality is what makes [`Delta::canonicalize`](crate::Delta::canonicalize)
//! an effective covert-channel countermeasure: every pair of equivalent
//! edits maps to the same wire bytes.

use crate::ops::Delta;

/// Computes the canonical delta transforming `old` into `new`.
///
/// # Example
///
/// ```
/// use pe_delta::diff;
///
/// let delta = diff("abcdefg", "abuvfgw");
/// assert_eq!(delta.apply("abcdefg")?, "abuvfgw");
/// # Ok::<(), pe_delta::DeltaError>(())
/// ```
pub fn diff(old: &str, new: &str) -> Delta {
    diff_around(old, new, 0, 0)
}

/// [`diff`] for a caller that already knows where the two versions
/// differ: `old` and `new` agree on at least their first `same_prefix`
/// and last `same_suffix` bytes, so the prefix and suffix scans start
/// there instead of at the ends. The result is exactly `diff(old, new)`
/// (the hints only skip comparisons).
///
/// # Example
///
/// ```
/// use pe_delta::{diff, diff_around};
///
/// // Only "cruel" changed, somewhere past byte 3 and before the last 3.
/// let (old, new) = ("hello cruel world", "hello kind world");
/// assert_eq!(diff_around(old, new, 3, 3), diff(old, new));
/// ```
pub fn diff_around(old: &str, new: &str, same_prefix: usize, same_suffix: usize) -> Delta {
    let (prefix, suffix) = changed_window(old, new, same_prefix, same_suffix);
    let mut builder = Delta::builder();
    builder
        .retain(old[..prefix].chars().count())
        .delete(old[prefix..old.len() - suffix].chars().count())
        .insert(&new[prefix..new.len() - suffix]);
    builder.build()
}

/// The window where two versions differ: the byte lengths of their
/// longest common prefix and longest common suffix (the suffix never
/// overlaps the prefix), both on character boundaries — the one
/// prefix/suffix routine behind [`diff`] and [`diff_around`], for
/// callers that count in bytes.
///
/// `same_prefix` and `same_suffix` are byte counts the caller already
/// knows the versions share (0 when unknown); the scans start there, so
/// a caller that knows where the change is pays O(change), not
/// O(document). They may cut a multi-byte character.
///
/// # Example
///
/// ```
/// use pe_delta::changed_window;
///
/// // "é" and "è" share their first byte; the window keeps whole chars.
/// assert_eq!(changed_window("café!", "cafè!", 0, 0), (3, 1));
/// ```
pub fn changed_window(
    old: &str,
    new: &str,
    same_prefix: usize,
    same_suffix: usize,
) -> (usize, usize) {
    let (a, b) = (old.as_bytes(), new.as_bytes());
    let shorter = a.len().min(b.len());
    // Longest common prefix in bytes, then back to the start of the
    // character it cut: two valid UTF-8 strings that share bytes up to
    // there share the boundary too, and whole characters are equal
    // exactly when their bytes are.
    let mut prefix = same_prefix.min(shorter);
    debug_assert_eq!(a[..prefix], b[..prefix], "same_prefix overstates the common prefix");
    prefix +=
        a[prefix..shorter].iter().zip(&b[prefix..shorter]).take_while(|(x, y)| x == y).count();
    let prefix = old.floor_char_boundary(prefix);
    // Longest common suffix of the remainders, likewise settled on a
    // character boundary.
    let limit = shorter - prefix;
    let mut suffix = same_suffix.min(limit);
    debug_assert_eq!(a[a.len() - suffix..], b[b.len() - suffix..], "same_suffix overstates");
    suffix += a[..a.len() - suffix]
        .iter()
        .rev()
        .zip(b[..b.len() - suffix].iter().rev())
        .take(limit - suffix)
        .take_while(|(x, y)| x == y)
        .count();
    (prefix, a.len() - old.ceil_char_boundary(a.len() - suffix))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(old: &str, new: &str) {
        let delta = diff(old, new);
        assert_eq!(delta.apply(old).unwrap(), new, "diff({old:?}, {new:?})");
    }

    #[test]
    fn identical_documents_give_identity() {
        let delta = diff("same", "same");
        assert!(delta.is_identity());
        assert_eq!(delta.serialize(), "");
    }

    #[test]
    fn simple_cases() {
        check("", "");
        check("", "abc");
        check("abc", "");
        check("abc", "abcd");
        check("abcd", "abc");
        check("abc", "xbc");
        check("abc", "axc");
        check("abc", "abx");
        check("abcdefg", "abuvfgw");
    }

    #[test]
    fn repeated_characters_do_not_overlap_prefix_suffix() {
        // "aaa" -> "aa": prefix would eat everything; suffix must not
        // overlap, so the delta stays valid.
        check("aaa", "aa");
        check("aa", "aaa");
        check("abab", "ababab");
        check("ababab", "abab");
    }

    #[test]
    fn middle_replacement_is_minimal() {
        let delta = diff("hello cruel world", "hello kind world");
        assert_eq!(delta.serialize(), "=6\t-5\t+kind");
    }

    #[test]
    fn unicode_diffs() {
        check("日本語です", "日本語でした");
        check("héllo", "hello");
        check("ωμέγα", "άλφα");
    }

    #[test]
    fn byte_scans_settle_on_character_boundaries() {
        // The first byte of é and è agree; the delta must not split them.
        assert_eq!(diff("café", "cafè").serialize(), "=3\t-1\t+è");
        assert_eq!(diff("éa", "èa").serialize(), "-1\t+è");
        assert_eq!(diff("a日b", "a月b").serialize(), "=1\t-1\t+月");
        // Counts are characters, not bytes; the window is in bytes.
        assert_eq!(diff("日本語", "日本語です").serialize(), "=3\t+です");
        assert_eq!(changed_window("日本語", "日本語です", 0, 0), (9, 0));
    }

    #[test]
    fn hints_never_change_the_delta() {
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let alphabet = ["a", "b", "é", "è", "日", "月"];
        for _ in 0..500 {
            let pick = |n: usize, next: &mut dyn FnMut() -> usize| -> String {
                (0..n).map(|_| alphabet[next() % alphabet.len()]).collect()
            };
            let (p, s) = (pick(next() % 6, &mut next), pick(next() % 6, &mut next));
            let (x, y) = (pick(next() % 4, &mut next), pick(next() % 4, &mut next));
            let old = format!("{p}{x}{s}");
            let new = format!("{p}{y}{s}");
            let expected = diff(&old, &new);
            assert_eq!(expected.apply(&old).unwrap(), new);
            // Any byte counts inside the shared prefix and suffix, even
            // ones that cut a character.
            let (hp, hs) = (next() % (p.len() + 1), next() % (s.len() + 1));
            assert_eq!(diff_around(&old, &new, hp, hs), expected, "{old:?} -> {new:?}");
        }
    }

    #[test]
    fn randomized_roundtrips() {
        // Deterministic pseudo-random pairs, mirroring §VII-B's workload
        // at small scale.
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..200 {
            let len_a = (next() % 50) as usize;
            let len_b = (next() % 50) as usize;
            let a: String = (0..len_a).map(|_| (b'a' + (next() % 4) as u8) as char).collect();
            let b: String = (0..len_b).map(|_| (b'a' + (next() % 4) as u8) as char).collect();
            check(&a, &b);
        }
    }
}
