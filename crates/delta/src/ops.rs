//! Core delta types: operations, parsing, serialization, application.

use std::fmt;
use std::ops::Range;
use std::str::FromStr;

use crate::error::DeltaError;

/// One operation of a delta (§IV-A of the paper). Counts are UTF-8
/// **bytes**, where the paper's Google Documents counted characters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// `=num`: move the cursor forward `num` bytes.
    Retain(usize),
    /// `+str`: insert the string at the cursor and advance past it.
    Insert(String),
    /// `-num`: delete `num` bytes starting at the cursor.
    Delete(usize),
}

impl DeltaOp {
    /// Number of bytes of the *input* document this op consumes.
    pub fn input_len(&self) -> usize {
        match self {
            DeltaOp::Retain(n) | DeltaOp::Delete(n) => *n,
            DeltaOp::Insert(_) => 0,
        }
    }
}

/// An incremental document update: a sequence of [`DeltaOp`]s applied from
/// the start of the document. Any document content after the last consumed
/// position is implicitly retained.
///
/// Parsing and serialization preserve the exact operation sequence — a
/// redundant sequence such as `+a	-1	+a` is *not* silently simplified,
/// because faithfully representing redundant encodings is what makes the
/// covert-channel experiments of §VI-B possible. Use
/// [`Delta::normalized`] to merge adjacent operations, and
/// [`diff`](crate::diff) of the two versions for the canonical form.
///
/// # Example
///
/// ```
/// use pe_delta::{Delta, DeltaOp};
///
/// let delta = Delta::from_ops(vec![DeltaOp::Retain(2), DeltaOp::Delete(5)]);
/// assert_eq!(delta.apply("abcdefg")?, "ab");
/// # Ok::<(), pe_delta::DeltaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

impl Delta {
    /// The identity delta (no operations).
    pub fn new() -> Delta {
        Delta { ops: Vec::new() }
    }

    /// Creates a delta from explicit operations, preserving their order
    /// and any redundancy.
    pub fn from_ops(ops: Vec<DeltaOp>) -> Delta {
        Delta { ops }
    }

    /// Starts a [`DeltaBuilder`].
    pub fn builder() -> DeltaBuilder {
        DeltaBuilder::new()
    }

    /// The operations of this delta.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// True when applying this delta never changes any document.
    ///
    /// Note this is a *syntactic* check: a delta like `-1	+a` applied to
    /// `a…` is semantically identity but not syntactically.
    pub fn is_identity(&self) -> bool {
        self.ops.iter().all(|op| matches!(op, DeltaOp::Retain(_)))
    }

    /// Minimum number of bytes the input document must have.
    pub fn input_len(&self) -> usize {
        self.ops.iter().map(DeltaOp::input_len).sum()
    }

    /// Parses the tab-separated wire form.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError::UnknownOp`] for tokens not starting with
    /// `=`, `+` or `-`; [`DeltaError::InvalidNumber`] for malformed
    /// counts; [`DeltaError::InvalidEscape`] for bad `%` escapes in
    /// inserted text.
    pub fn parse(text: &str) -> Result<Delta, DeltaError> {
        if text.is_empty() {
            return Ok(Delta::new());
        }
        let mut ops = Vec::new();
        for token in text.split('\t') {
            let mut chars = token.chars();
            match chars.next() {
                Some('=') => ops.push(DeltaOp::Retain(parse_count(chars.as_str(), token)?)),
                Some('-') => ops.push(DeltaOp::Delete(parse_count(chars.as_str(), token)?)),
                Some('+') => ops.push(DeltaOp::Insert(unescape(chars.as_str())?)),
                Some(c) => return Err(DeltaError::UnknownOp { op: c }),
                None => return Err(DeltaError::EmptyToken),
            }
        }
        Ok(Delta { ops })
    }

    /// Serializes to the tab-separated wire form.
    ///
    /// Inserted text is escaped so framing survives: `%` becomes `%25` and
    /// the tab character becomes `%09`. [`Delta::parse`] reverses this.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            match op {
                DeltaOp::Retain(n) => {
                    out.push('=');
                    out.push_str(&n.to_string());
                }
                DeltaOp::Delete(n) => {
                    out.push('-');
                    out.push_str(&n.to_string());
                }
                DeltaOp::Insert(s) => {
                    out.push('+');
                    out.push_str(&escape(s));
                }
            }
        }
        out
    }

    /// Applies this delta to a copy of `document`: [`Delta::apply_in_place`]
    /// on a fresh string.
    ///
    /// # Errors
    ///
    /// As for [`Delta::apply_in_place`].
    pub fn apply(&self, document: &str) -> Result<String, DeltaError> {
        let mut out = document.to_owned();
        self.apply_in_place(&mut out)?;
        Ok(out)
    }

    /// Applies this delta to a byte buffer, inserting the UTF-8 bytes of
    /// inserted text. Unlike [`Delta::apply`] it accepts any cut, so the
    /// result need not be UTF-8: the form for bytes that are not text.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError::PastEnd`] when a retain or delete runs past
    /// the end of the document.
    pub fn apply_bytes(&self, document: &[u8]) -> Result<Vec<u8>, DeltaError> {
        let mut out = Vec::with_capacity(document.len());
        let mut cursor = 0usize;
        for op in &self.ops {
            match op {
                DeltaOp::Retain(n) => {
                    let end = advance(cursor, *n, document.len())?;
                    out.extend_from_slice(&document[cursor..end]);
                    cursor = end;
                }
                DeltaOp::Delete(n) => cursor = advance(cursor, *n, document.len())?,
                DeltaOp::Insert(s) => out.extend_from_slice(s.as_bytes()),
            }
        }
        out.extend_from_slice(&document[cursor..]);
        Ok(out)
    }

    /// The edits of this delta against a document of `len` bytes, in
    /// order: each maximal run of deletes and inserts between retains of
    /// at least one byte; nothing is copied.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError::PastEnd`] exactly where
    /// [`Delta::apply_bytes`] would.
    ///
    /// # Example
    ///
    /// ```
    /// use pe_delta::Delta;
    ///
    /// let delta = Delta::parse("=2\t-3\t+uv\t=2\t+w")?;
    /// let hunks = delta.hunks(7)?;
    /// assert_eq!((hunks[0].at, hunks[0].removed, hunks[0].inserted_len()), (2, 3, 2));
    /// assert_eq!((hunks[1].at, hunks[1].removed, hunks[1].inserted_len()), (7, 0, 1));
    /// # Ok::<(), pe_delta::DeltaError>(())
    /// ```
    pub fn hunks(&self, len: usize) -> Result<Vec<Hunk<'_>>, DeltaError> {
        let mut hunks = Vec::new();
        let mut cursor = 0usize;
        // (first op of the open run, its offset, bytes it removes)
        let mut run: Option<(usize, usize, usize)> = None;
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                DeltaOp::Retain(n) => {
                    cursor = advance(cursor, *n, len)?;
                    if *n > 0 {
                        if let Some((first, at, removed)) = run.take() {
                            hunks.push(Hunk { at, removed, ops: &self.ops[first..i] });
                        }
                    }
                }
                DeltaOp::Delete(n) => {
                    let end = advance(cursor, *n, len)?;
                    run.get_or_insert((i, cursor, 0)).2 += n;
                    cursor = end;
                }
                DeltaOp::Insert(_) => {
                    run.get_or_insert((i, cursor, 0));
                }
            }
        }
        if let Some((first, at, removed)) = run {
            hunks.push(Hunk { at, removed, ops: &self.ops[first..] });
        }
        Ok(hunks)
    }

    /// Applies this delta to `text` in place. The text before the first
    /// edit is not touched, so the cost is the bytes from the first edit
    /// to the end plus the inserted text — not a copy of the document.
    /// Content beyond the last consumed position is implicitly retained.
    ///
    /// An edit may cut a multi-byte character as long as the result is
    /// text: the delta is accepted exactly when `apply_bytes` would give
    /// valid UTF-8, which [`seams_are_utf8`] decides from the characters
    /// the edits touch.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError::PastEnd`] as [`Delta::apply_bytes`] does, and
    /// [`DeltaError::SplitsCharacter`] when the result would not be valid
    /// UTF-8. On error `text` is unchanged.
    ///
    /// # Example
    ///
    /// ```
    /// use pe_delta::Delta;
    ///
    /// let mut text = String::from("héllo");
    /// Delta::parse("=1\t-2\t+e\t=3\t+!")?.apply_in_place(&mut text)?;
    /// assert_eq!(text, "hello!");
    /// // é is c3 a9: cutting it in two is refused, cutting it out is not.
    /// let mut accents = String::from("éé");
    /// assert!(Delta::parse("=1\t-1")?.apply_in_place(&mut accents).is_err());
    /// Delta::parse("=1\t-2")?.apply_in_place(&mut accents)?;
    /// assert_eq!(accents, "é");
    /// # Ok::<(), pe_delta::DeltaError>(())
    /// ```
    pub fn apply_in_place(&self, text: &mut String) -> Result<(), DeltaError> {
        let hunks = self.hunks(text.len())?;
        let seams = seams(text.as_bytes(), &hunks)?;
        let Some((first, _)) = seams.first() else {
            return Ok(());
        };
        // Whole-slice copies, not `replace_range`, whose byte-at-a-time
        // fill cost more on multi-hunk deltas.
        let base = first.start;
        let tail = text.split_off(base);
        let mut cursor = base;
        for (range, window) in &seams {
            text.push_str(&tail[cursor - base..range.start - base]);
            text.push_str(window);
            cursor = range.end;
        }
        text.push_str(&tail[cursor - base..]);
        Ok(())
    }

    /// Returns an equivalent delta with adjacent same-kind operations
    /// merged, zero-length operations removed, and trailing retains
    /// dropped.
    pub fn normalized(&self) -> Delta {
        let mut builder = DeltaBuilder::new();
        for op in &self.ops {
            match op {
                DeltaOp::Retain(n) => {
                    builder.retain(*n);
                }
                DeltaOp::Delete(n) => {
                    builder.delete(*n);
                }
                DeltaOp::Insert(s) => {
                    builder.insert(s);
                }
            }
        }
        builder.build()
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.serialize())
    }
}

impl FromStr for Delta {
    type Err = DeltaError;

    fn from_str(s: &str) -> Result<Delta, DeltaError> {
        Delta::parse(s)
    }
}

/// One edit of a delta, as [`Delta::hunks`] finds it: at byte `at` of
/// the input document, `removed` bytes give way to the inserted text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hunk<'a> {
    /// Byte offset of the edit in the input document.
    pub at: usize,
    /// Bytes of the input document the edit removes.
    pub removed: usize,
    /// The run's deletes and inserts, in order.
    ops: &'a [DeltaOp],
}

impl<'a> Hunk<'a> {
    /// The inserted text, in order (a run may hold several inserts).
    pub fn inserted(&self) -> impl Iterator<Item = &'a str> {
        self.ops.iter().filter_map(|op| match op {
            DeltaOp::Insert(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// Bytes the edit inserts.
    pub fn inserted_len(&self) -> usize {
        self.inserted().map(str::len).sum()
    }
}

/// Whether splicing `hunks` (from [`Delta::hunks`]) into `old`, which is
/// valid UTF-8, leaves valid UTF-8. Text outside the characters a hunk
/// touches is unchanged whole characters, so only those characters, with
/// the inserted text, are checked: the cost is the edits', and the answer
/// is exactly the validity of the whole result.
///
/// # Example
///
/// ```
/// use pe_delta::{seams_are_utf8, Delta};
///
/// let old = "é".as_bytes(); // c3 a9
/// let cut = Delta::parse("=1\t+x")?;
/// assert!(!seams_are_utf8(old, &cut.hunks(old.len())?));
/// let nothing_between = Delta::parse("=1\t+\t=1")?;
/// assert!(seams_are_utf8(old, &nothing_between.hunks(old.len())?));
/// # Ok::<(), pe_delta::DeltaError>(())
/// ```
pub fn seams_are_utf8(old: &[u8], hunks: &[Hunk<'_>]) -> bool {
    seams(old, hunks).is_ok()
}

/// The splice of `hunks` into `old` (valid UTF-8), seam by seam: each
/// group of hunks whose characters touch, as the range of whole
/// characters of `old` it covers and the text that replaces that range.
/// Fails at a cut that leaves a broken character.
///
/// Checking the groups one by one is exact: between two groups lies at
/// least one whole character of `old`, or else the later group starts
/// with the lead byte of one, so no character of the result spans two
/// groups.
fn seams(old: &[u8], hunks: &[Hunk<'_>]) -> Result<Vec<(Range<usize>, String)>, DeltaError> {
    let continues = |at: usize| at < old.len() && old[at] & 0xC0 == 0x80;
    let mut seams = Vec::new();
    let mut i = 0;
    while i < hunks.len() {
        let mut start = hunks[i].at;
        while continues(start) {
            start -= 1;
        }
        // Hunks whose characters touch are checked together, and so are
        // hunks that meet end to end: the text between them is empty, so
        // a character may run from one into the other.
        let mut j = i;
        let mut end = hunks[i].at + hunks[i].removed;
        loop {
            while continues(end) {
                end += 1;
            }
            match hunks.get(j + 1) {
                Some(next) if next.at <= end => {
                    j += 1;
                    end = end.max(next.at + next.removed);
                }
                _ => break,
            }
        }
        let group = &hunks[i..=j];
        let mut window = Vec::new();
        let mut cursor = start;
        for hunk in group {
            window.extend_from_slice(&old[cursor..hunk.at]);
            hunk.inserted().for_each(|text| window.extend_from_slice(text.as_bytes()));
            cursor = hunk.at + hunk.removed;
        }
        window.extend_from_slice(&old[cursor..end]);
        let window = String::from_utf8(window).map_err(|_| {
            // Cuts on boundaries join whole characters, so one is inside.
            let position = group
                .iter()
                .flat_map(|h| [h.at, h.at + h.removed])
                .find(|&at| continues(at))
                .unwrap_or(start);
            DeltaError::SplitsCharacter { position }
        })?;
        seams.push((start..end, window));
        i = j + 1;
    }
    Ok(seams)
}

/// The cursor after a retain or delete of `n` at `cursor` in a document
/// of `len` bytes.
fn advance(cursor: usize, n: usize, len: usize) -> Result<usize, DeltaError> {
    cursor
        .checked_add(n)
        .filter(|&end| end <= len)
        .ok_or(DeltaError::PastEnd { position: cursor, requested: n, len })
}

fn parse_count(digits: &str, token: &str) -> Result<usize, DeltaError> {
    digits
        .parse::<usize>()
        .map_err(|_| DeltaError::InvalidNumber { token: token.to_string() })
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '%' => out.push_str("%25"),
            '\t' => out.push_str("%09"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(text: &str) -> Result<String, DeltaError> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next();
        let lo = chars.next();
        match (hi, lo) {
            (Some('2'), Some('5')) => out.push('%'),
            (Some('0'), Some('9')) => out.push('\t'),
            _ => {
                return Err(DeltaError::InvalidEscape {
                    sequence: format!("%{}{}", hi.unwrap_or(' '), lo.unwrap_or(' ')),
                })
            }
        }
    }
    Ok(out)
}

/// Incremental constructor for [`Delta`] values that merges adjacent
/// operations as they are added (producing normalized deltas).
///
/// # Example
///
/// ```
/// use pe_delta::Delta;
///
/// let mut builder = Delta::builder();
/// builder.retain(2).retain(3).insert("ab").insert("cd");
/// let delta = builder.build();
/// assert_eq!(delta.serialize(), "=5\t+abcd");
/// ```
#[derive(Debug, Default)]
pub struct DeltaBuilder {
    ops: Vec<DeltaOp>,
}

impl DeltaBuilder {
    /// Creates an empty builder.
    pub fn new() -> DeltaBuilder {
        DeltaBuilder { ops: Vec::new() }
    }

    /// Appends a retain of `n` bytes (no-op when `n == 0`).
    pub fn retain(&mut self, n: usize) -> &mut DeltaBuilder {
        if n == 0 {
            return self;
        }
        if let Some(DeltaOp::Retain(prev)) = self.ops.last_mut() {
            *prev += n;
        } else {
            self.ops.push(DeltaOp::Retain(n));
        }
        self
    }

    /// Appends an insertion (no-op when `text` is empty).
    pub fn insert(&mut self, text: &str) -> &mut DeltaBuilder {
        if text.is_empty() {
            return self;
        }
        if let Some(DeltaOp::Insert(prev)) = self.ops.last_mut() {
            prev.push_str(text);
        } else {
            self.ops.push(DeltaOp::Insert(text.to_string()));
        }
        self
    }

    /// Appends a deletion of `n` bytes (no-op when `n == 0`).
    pub fn delete(&mut self, n: usize) -> &mut DeltaBuilder {
        if n == 0 {
            return self;
        }
        if let Some(DeltaOp::Delete(prev)) = self.ops.last_mut() {
            *prev += n;
        } else {
            self.ops.push(DeltaOp::Delete(n));
        }
        self
    }

    /// Finishes the delta, dropping any trailing retain (the protocol
    /// implicitly retains the rest of the document).
    pub fn build(&self) -> Delta {
        let mut ops = self.ops.clone();
        if let Some(DeltaOp::Retain(_)) = ops.last() {
            ops.pop();
        }
        Delta { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_one() {
        let delta = Delta::parse("=2\t-5").unwrap();
        assert_eq!(delta.apply("abcdefg").unwrap(), "ab");
    }

    #[test]
    fn paper_example_two() {
        let delta = Delta::parse("=2\t-3\t+uv\t=2\t+w").unwrap();
        assert_eq!(delta.apply("abcdefg").unwrap(), "abuvfgw");
    }

    #[test]
    fn empty_delta_is_identity() {
        let delta = Delta::parse("").unwrap();
        assert!(delta.is_identity());
        assert_eq!(delta.apply("hello").unwrap(), "hello");
        assert_eq!(delta.serialize(), "");
    }

    #[test]
    fn implicit_trailing_retain() {
        let delta = Delta::parse("+X").unwrap();
        assert_eq!(delta.apply("abc").unwrap(), "Xabc");
        let delta = Delta::parse("=1\t-1").unwrap();
        assert_eq!(delta.apply("abc").unwrap(), "ac");
    }

    #[test]
    fn roundtrip_serialization() {
        let cases = ["=2\t-5", "=2\t-3\t+uv\t=2\t+w", "+hello world", "-10", "=0", ""];
        for case in cases {
            let delta = Delta::parse(case).unwrap();
            assert_eq!(delta.serialize(), *case);
        }
    }

    #[test]
    fn escaping_tab_and_percent_in_inserts() {
        let mut builder = Delta::builder();
        builder.insert("a\tb%c");
        let delta = builder.build();
        let wire = delta.serialize();
        assert_eq!(wire, "+a%09b%25c");
        assert_eq!(Delta::parse(&wire).unwrap(), delta);
        assert_eq!(delta.apply("").unwrap(), "a\tb%c");
    }

    #[test]
    fn bad_escape_rejected() {
        assert!(matches!(Delta::parse("+a%zz"), Err(DeltaError::InvalidEscape { .. })));
        assert!(matches!(Delta::parse("+a%2"), Err(DeltaError::InvalidEscape { .. })));
    }

    #[test]
    fn unknown_op_rejected() {
        assert!(matches!(Delta::parse("*5"), Err(DeltaError::UnknownOp { op: '*' })));
    }

    #[test]
    fn empty_token_rejected() {
        assert!(matches!(Delta::parse("=1\t\t=2"), Err(DeltaError::EmptyToken)));
    }

    #[test]
    fn invalid_number_rejected() {
        assert!(matches!(Delta::parse("=abc"), Err(DeltaError::InvalidNumber { .. })));
        assert!(matches!(Delta::parse("-"), Err(DeltaError::InvalidNumber { .. })));
    }

    #[test]
    fn retain_past_end_fails() {
        let delta = Delta::parse("=10").unwrap();
        assert!(matches!(delta.apply("abc"), Err(DeltaError::PastEnd { .. })));
    }

    #[test]
    fn delete_past_end_fails() {
        let delta = Delta::parse("=2\t-5").unwrap();
        assert!(matches!(delta.apply("abc"), Err(DeltaError::PastEnd { .. })));
    }

    #[test]
    fn unicode_documents() {
        // Byte counts: each of 日本語です is three bytes.
        let delta = Delta::parse("=6\t+héllo\t-3").unwrap();
        assert_eq!(delta.apply("日本語です").unwrap(), "日本hélloです");
        // A cut that leaves a broken character is refused.
        let cut = Delta::parse("=2\t+x").unwrap();
        assert_eq!(cut.apply("日本"), Err(DeltaError::SplitsCharacter { position: 2 }));
    }

    #[test]
    fn in_place_accepts_exactly_the_deltas_whose_result_is_text() {
        // Two cuts whose characters meet end to end: the lead byte of one
        // 日 and the last byte of the next make a new character.
        let mut text = String::from("é😀日日éé");
        Delta::parse("=7\t-1\t=1\t-2").unwrap().apply_in_place(&mut text).unwrap();
        assert_eq!(text, "é😀\u{6965}éé");
        let mut state = 3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let alphabet = ["a", "é", "日", "😀", ""];
        for _ in 0..3000 {
            let pick = |n: usize, next: &mut dyn FnMut() -> usize| -> String {
                (0..n).map(|_| alphabet[next() % alphabet.len()]).collect()
            };
            let text = pick(next() % 8, &mut next);
            // One to three edits at arbitrary byte offsets, cuts included.
            let mut builder = Delta::builder();
            let mut cursor = 0;
            for _ in 0..1 + next() % 3 {
                let at = cursor + next() % (text.len() - cursor + 1);
                let end = at + next() % (text.len() - at + 1).min(4);
                builder.retain(at - cursor).delete(end - at).insert(&pick(next() % 2, &mut next));
                cursor = end;
            }
            let delta = builder.build();
            let expected = String::from_utf8(delta.apply_bytes(text.as_bytes()).unwrap()).ok();
            let hunks = delta.hunks(text.len()).unwrap();
            assert_eq!(seams_are_utf8(text.as_bytes(), &hunks), expected.is_some(), "{text:?} {delta}");
            let mut in_place = text.clone();
            match delta.apply_in_place(&mut in_place) {
                Ok(()) => assert_eq!(Some(in_place), expected, "{text:?} {delta}"),
                Err(_) => assert!(expected.is_none() && in_place == text, "{text:?} {delta}"),
            }
        }
    }

    #[test]
    fn input_len_counts_consumed_bytes() {
        let delta = Delta::parse("=2\t-3\t+uv\t=2\t+w").unwrap();
        assert_eq!(delta.input_len(), 7);
        assert_eq!(Delta::parse("=3\t-2\t+日本").unwrap().input_len(), 5);
    }

    #[test]
    fn parse_preserves_redundant_sequences() {
        // The Ord(q) covert channel from §VI-B must survive parse/serialize.
        let wire = "+q\t-1\t+q\t-1\t+q";
        let delta = Delta::parse(wire).unwrap();
        assert_eq!(delta.ops().len(), 5);
        assert_eq!(delta.serialize(), wire);
    }

    #[test]
    fn normalized_merges_and_trims() {
        let delta = Delta::parse("=1\t=2\t+ab\t+cd\t-1\t-2\t=9").unwrap();
        let norm = delta.normalized();
        assert_eq!(norm.serialize(), "=3\t+abcd\t-3");
    }

    #[test]
    fn canonicalize_squashes_covert_encoding() {
        // A malicious encoding of "insert q at 0" using Ord(q)=17 redundant
        // steps must canonicalize to the same delta as the honest client's.
        let base = "hello";
        // Sneaky: 17 separate one-character inserts (the count encodes q).
        let sneaky = Delta::from_ops(vec![DeltaOp::Insert("x".into()); 17]);
        // Honest: one 17-character insert.
        let mut honest = Delta::builder();
        honest.insert(&"x".repeat(17));
        let honest = honest.build();
        assert_ne!(sneaky, honest, "encodings differ on the wire");
        // The canonical form is the diff of the two versions alone.
        let canonical = |delta: &Delta| crate::diff(base, &delta.apply(base).unwrap());
        assert_eq!(canonical(&sneaky), canonical(&honest));
    }

    #[test]
    fn builder_chains_and_merges() {
        let mut builder = Delta::builder();
        builder.retain(1).retain(0).insert("").insert("ab").delete(2).delete(3).retain(4);
        let delta = builder.build();
        assert_eq!(delta.serialize(), "=1\t+ab\t-5");
    }

    #[test]
    fn display_and_fromstr() {
        let delta: Delta = "=2\t+hi".parse().unwrap();
        assert_eq!(delta.to_string(), "=2\t+hi");
    }
}
