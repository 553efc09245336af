//! Deriving a delta from two document versions.
//!
//! The micro-benchmark of §VII-B derives, for every random pair
//! `(D, D′)`, "a delta string … such that it transforms D to D′". This
//! module provides that derivation using the common-prefix/common-suffix
//! method: the result is the canonical minimal three-operation delta
//! `retain p, delete m, insert s` (with empty parts omitted), counted in
//! bytes on character boundaries.
//!
//! Canonicality is what makes the diff of two versions an effective
//! covert-channel countermeasure: every pair of equivalent edits maps to
//! the same wire bytes.
//!
//! [`diff_hunks`] keeps that property while sending less: inside the
//! changed window it runs Myers' greedy O(ND) diff ("An O(ND) Difference
//! Algorithm and Its Variations", 1986) and emits one replace per
//! differing stretch, so two small edits far apart stay two small edits.

use std::ops::Range;

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
        .retain(prefix)
        .delete(old.len() - prefix - suffix)
        .insert(&new[prefix..new.len() - suffix]);
    builder.build()
}

/// The window where two versions differ: the byte lengths of their
/// longest common prefix and longest common suffix (the suffix never
/// overlaps the prefix), both on character boundaries — the one
/// prefix/suffix routine behind [`diff`], [`diff_around`] and
/// [`diff_hunks`].
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

/// The canonical delta from `old` to `new` as separate hunks, a
/// function of the two versions alone:
///
/// 1. take the [`changed_window`];
/// 2. run Myers' greedy diff over the window's bytes (ties go to the
///    delete, as in Myers' algorithm);
/// 3. widen each differing stretch to character boundaries of both
///    versions;
/// 4. merge stretches separated by fewer than `min_gap` equal bytes.
///
/// When the window's edit distance (bytes inserted plus bytes deleted)
/// exceeds `max_edits`, the result is the single replace of the whole
/// window, as [`diff_around`] gives. Myers' work is
/// O((N + M) · `max_edits`) byte comparisons in the worst case and
/// about one per window byte for typical text, with O(`max_edits`²)
/// memory.
///
/// `same_prefix` and `same_suffix` are hints, as for [`diff_around`]: byte
/// counts the versions are known to share at their ends. They only skip
/// comparisons; the result is the same for any true hints.
///
/// # Example
///
/// ```
/// use pe_delta::diff_hunks;
///
/// let (old, new) = ("one two three four", "one 2 three fours");
/// assert_eq!(diff_hunks(old, new, 0, 0, 64, 4).serialize(), "=4\t-3\t+2\t=11\t+s");
/// // The same with hints: both versions start with "one ".
/// assert_eq!(diff_hunks(old, new, 4, 0, 64, 4).serialize(), "=4\t-3\t+2\t=11\t+s");
/// // Closer than `min_gap`, the two stretches become one.
/// assert_eq!(diff_hunks(old, new, 0, 0, 64, 16).serialize(), "=4\t-14\t+2 three fours");
/// // Over the cap, the single window.
/// assert_eq!(diff_hunks(old, new, 0, 0, 3, 4).serialize(), "=4\t-14\t+2 three fours");
/// ```
pub fn diff_hunks(
    old: &str,
    new: &str,
    same_prefix: usize,
    same_suffix: usize,
    max_edits: usize,
    min_gap: usize,
) -> Delta {
    let (prefix, suffix) = changed_window(old, new, same_prefix, same_suffix);
    let (old_w, new_w) = (&old[prefix..old.len() - suffix], &new[prefix..new.len() - suffix]);
    let mut builder = Delta::builder();
    builder.retain(prefix);
    match myers(old_w.as_bytes(), new_w.as_bytes(), max_edits) {
        Some(stretches) => {
            let mut cursor = 0;
            for (removed, inserted) in settle(old_w, new_w, stretches, min_gap) {
                builder
                    .retain(removed.start - cursor)
                    .delete(removed.len())
                    .insert(&new_w[inserted]);
                cursor = removed.end;
            }
        }
        None => {
            builder.delete(old_w.len()).insert(new_w);
        }
    }
    builder.build()
}

/// A differing stretch: the bytes it removes from the old window and the
/// bytes it inserts from the new one.
type Stretch = (Range<usize>, Range<usize>);

/// Length of the common prefix of `a` and `b`, compared a stride at a
/// time (slice equality compiles to `memcmp`).
fn common_run(a: &[u8], b: &[u8]) -> usize {
    const STRIDE: usize = 16;
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + STRIDE <= n && a[i..i + STRIDE] == b[i..i + STRIDE] {
        i += STRIDE;
    }
    i + a[i..n].iter().zip(&b[i..n]).take_while(|(x, y)| x == y).count()
}

/// Myers' greedy forward search for a shortest edit script from `a` to
/// `b`: its differing stretches in order, or `None` when it needs more
/// than `max_edits` one-byte inserts and deletes.
fn myers(a: &[u8], b: &[u8], max_edits: usize) -> Option<Vec<Stretch>> {
    let (n, m) = (a.len() as isize, b.len() as isize);
    let max = max_edits.min(a.len() + b.len()) as isize;
    // v[k + off] is the furthest x reached on diagonal k = x - y; one
    // row per edit count is kept for the walk back.
    let off = max + 1;
    let width = (2 * max + 3) as usize;
    let mut v = vec![0isize; width];
    let mut rows: Vec<isize> = Vec::new();
    for d in 0..=max {
        rows.extend_from_slice(&v);
        for k in (-d..=d).step_by(2) {
            let down = k == -d || (k != d && v[(k - 1 + off) as usize] < v[(k + 1 + off) as usize]);
            let mut x = if down { v[(k + 1 + off) as usize] } else { v[(k - 1 + off) as usize] + 1 };
            let y = x - k;
            if x < n && y < m {
                x += common_run(&a[x as usize..], &b[y as usize..]) as isize;
            }
            v[(k + off) as usize] = x;
            if x >= n && x - k >= m {
                return Some(walk_back(&rows, width, off, n, m, d));
            }
        }
    }
    None
}

/// Recovers the differing stretches of the path [`myers`] found, from
/// the rows it kept (row `d` is the state before edit `d`).
fn walk_back(rows: &[isize], width: usize, off: isize, n: isize, m: isize, d: isize) -> Vec<Stretch> {
    // One-byte edits, last first: (x, y) before the edit, and whether it
    // inserts b[y] (down) or deletes a[x] (right).
    let mut edits = Vec::with_capacity(d as usize);
    let (mut x, mut y) = (n, m);
    for d in (1..=d).rev() {
        let v = &rows[d as usize * width..(d as usize + 1) * width];
        let k = x - y;
        let down = k == -d || (k != d && v[(k - 1 + off) as usize] < v[(k + 1 + off) as usize]);
        let prev_k = if down { k + 1 } else { k - 1 };
        let prev_x = v[(prev_k + off) as usize];
        let prev_y = prev_x - prev_k;
        edits.push((prev_x as usize, prev_y as usize, down));
        (x, y) = (prev_x, prev_y);
    }
    let mut stretches: Vec<Stretch> = Vec::new();
    for (x, y, down) in edits.into_iter().rev() {
        let (dx, dy) = if down { (0, 1) } else { (1, 0) };
        match stretches.last_mut() {
            Some((removed, inserted)) if removed.end == x && inserted.end == y => {
                removed.end += dx;
                inserted.end += dy;
            }
            _ => stretches.push((x..x + dx, y..y + dy)),
        }
    }
    stretches
}

/// Widens each stretch to character boundaries of both windows and
/// merges stretches fewer than `min_gap` equal bytes apart. Between two
/// stretches the windows hold equal bytes, so widening steps through
/// both in lockstep; a stretch that widens into its neighbour absorbs it.
fn settle(old: &str, new: &str, stretches: Vec<Stretch>, min_gap: usize) -> Vec<Stretch> {
    let on_boundaries = |o: usize, n: usize| old.is_char_boundary(o) && new.is_char_boundary(n);
    let mut settled: Vec<Stretch> = Vec::with_capacity(stretches.len());
    let mut pending = stretches.into_iter().peekable();
    while let Some((mut removed, mut inserted)) = pending.next() {
        let floor = settled.last().map_or(0, |(r, _)| r.end);
        while removed.start > floor && !on_boundaries(removed.start, inserted.start) {
            removed.start -= 1;
            inserted.start -= 1;
        }
        loop {
            while let Some((r, i)) = pending.next_if(|(r, _)| r.start <= removed.end) {
                (removed.end, inserted.end) = (r.end, i.end);
            }
            if on_boundaries(removed.end, inserted.end) {
                break;
            }
            removed.end += 1;
            inserted.end += 1;
        }
        match settled.last_mut() {
            Some((r, i)) if removed.start < r.end + min_gap => {
                (r.end, i.end) = (removed.end, inserted.end);
            }
            _ => settled.push((removed, inserted)),
        }
    }
    settled
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
        assert_eq!(diff("café", "cafè").serialize(), "=3\t-2\t+è");
        assert_eq!(diff("éa", "èa").serialize(), "-2\t+è");
        assert_eq!(diff("a日b", "a月b").serialize(), "=1\t-3\t+月");
        // Counts are bytes, like the window.
        assert_eq!(diff("日本語", "日本語です").serialize(), "=9\t+です");
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
            let hunks = diff_hunks(&old, &new, 0, 0, 4, 2);
            assert_eq!(diff_hunks(&old, &new, hp, hs, 4, 2), hunks, "{old:?} -> {new:?}");
        }
    }

    /// Edit distance in bytes (inserts plus deletes), by dynamic
    /// programming: the reference Myers must match.
    fn edit_distance(a: &[u8], b: &[u8]) -> usize {
        let mut row: Vec<usize> = (0..=b.len()).collect();
        for (i, x) in a.iter().enumerate() {
            let mut diag = row[0];
            row[0] = i + 1;
            for (j, y) in b.iter().enumerate() {
                let next = if x == y { diag } else { row[j].min(row[j + 1]) + 1 };
                diag = row[j + 1];
                row[j + 1] = next;
            }
        }
        row[b.len()]
    }

    /// Bytes the delta deletes plus bytes it inserts.
    fn edited_bytes(delta: &Delta) -> usize {
        delta.hunks(usize::MAX).unwrap().iter().map(|h| h.removed + h.inserted_len()).sum()
    }

    #[test]
    fn hunks_are_a_shortest_edit_script_on_character_boundaries() {
        let mut state = 11u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for alphabet in [&["a", "b", "c", " "][..], &["a", "é", "è", "日", "月", "😀"][..]] {
            for _ in 0..400 {
                let pick = |n: usize, next: &mut dyn FnMut() -> usize| -> String {
                    (0..n).map(|_| alphabet[next() % alphabet.len()]).collect()
                };
                let old = pick(next() % 30, &mut next);
                let mut new = old.clone();
                for _ in 0..next() % 4 {
                    let at = new.floor_char_boundary(next() % (new.len() + 1));
                    let end = new.ceil_char_boundary((at + next() % 4).min(new.len()));
                    new.replace_range(at..end, &pick(next() % 3, &mut next));
                }
                let delta = diff_hunks(&old, &new, 0, 0, 64, 0);
                let mut applied = old.clone();
                delta.apply_in_place(&mut applied).expect("hunks sit on character boundaries");
                assert_eq!(applied, new, "{old:?} -> {new:?}: {delta}");
                let distance = edit_distance(old.as_bytes(), new.as_bytes());
                if alphabet[0] == "a" && alphabet.len() == 4 {
                    assert_eq!(edited_bytes(&delta), distance, "{old:?} -> {new:?}: {delta}");
                } else {
                    assert!(edited_bytes(&delta) >= distance);
                }
                // Over the cap: the single window.
                if distance > 0 {
                    let window = diff_hunks(&old, &new, 0, 0, distance - 1, 0);
                    let (p, s) = changed_window(&old, &new, 0, 0);
                    assert_eq!(window.hunks(old.len()).unwrap().len(), 1);
                    assert_eq!(edited_bytes(&window), old.len() + new.len() - 2 * (p + s));
                }
            }
        }
    }

    #[test]
    fn close_stretches_merge_and_far_ones_do_not() {
        let old = "x".repeat(100);
        let mut new = old.clone();
        new.insert(30, 'a');
        new.insert(40, 'b');
        new.insert(80, 'c');
        // 9 equal bytes between a and b, 39 between b and c.
        assert_eq!(diff_hunks(&old, &new, 0, 0, 64, 0).serialize(), "=30\t+a\t=9\t+b\t=39\t+c");
        assert_eq!(diff_hunks(&old, &new, 0, 0, 64, 10).serialize(), "=30\t-9\t+axxxxxxxxxb\t=39\t+c");
        assert_eq!(diff_hunks(&old, &new, 0, 0, 2, 10).serialize(), format!("=30\t-48\t+{}", &new[30..81]));
    }

    #[test]
    fn stretches_widen_to_whole_characters() {
        // é (c3 a9) and è (c3 a8) share their first byte: the byte diff
        // is one byte, the hunk the whole character.
        assert_eq!(diff_hunks("café au lait", "cafè au lait", 0, 0, 64, 0).serialize(), "=3\t-2\t+è");
        assert_eq!(
            diff_hunks("ab日cd日ef", "ab月cd月ef", 0, 0, 64, 0).serialize(),
            "=2\t-3\t+月\t=2\t-3\t+月"
        );
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
