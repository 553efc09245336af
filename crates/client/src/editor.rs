//! The local editor buffer: user edits in, protocol deltas out.

use pe_delta::Delta;

/// A plaintext editing buffer that accumulates edits into a pending
/// [`Delta`] — the shape of the client-side state the Google Documents
/// client keeps between autosaves (§IV-A: "update deltas are periodically
/// sent back to the server").
///
/// All positions and lengths are **byte** offsets; the simulated protocol
/// counts bytes (ASCII documents make this identical to character
/// counts).
#[derive(Debug, Clone)]
pub struct Editor {
    content: String,
    /// Composition of all edits since the last `take_pending`.
    pending: Delta,
    /// Undo stack: the inverse of each applied edit, newest last.
    undo: Vec<Delta>,
    /// Redo stack: inverses of undone edits, cleared by any new edit.
    redo: Vec<Delta>,
}

impl Editor {
    /// Creates an editor over initial content.
    pub fn new(content: &str) -> Editor {
        Editor {
            content: content.to_string(),
            pending: Delta::new(),
            undo: Vec::new(),
            redo: Vec::new(),
        }
    }

    /// The current buffer content.
    pub fn content(&self) -> &str {
        &self.content
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.content.len()
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.content.is_empty()
    }

    /// True when there are unsent edits.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_identity()
    }

    /// The composed delta of all edits since the last `take_pending`.
    pub fn pending(&self) -> &Delta {
        &self.pending
    }

    /// Inserts `text` at byte offset `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is out of bounds or not a character boundary.
    pub fn insert(&mut self, at: usize, text: &str) {
        assert!(at <= self.content.len(), "insert at {at} out of bounds");
        let mut delta = Delta::builder();
        delta.retain(at).insert(text);
        self.apply(delta.build());
    }

    /// Deletes `len` bytes starting at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or splits a character.
    pub fn delete(&mut self, at: usize, len: usize) {
        assert!(at + len <= self.content.len(), "delete range out of bounds");
        let mut delta = Delta::builder();
        delta.retain(at).delete(len);
        self.apply(delta.build());
    }

    /// Replaces `len` bytes at `at` with `text`.
    ///
    /// # Panics
    ///
    /// As for [`Editor::delete`].
    pub fn replace(&mut self, at: usize, len: usize, text: &str) {
        assert!(at + len <= self.content.len(), "replace range out of bounds");
        let mut delta = Delta::builder();
        delta.retain(at).delete(len).insert(text);
        self.apply(delta.build());
    }

    /// Applies an arbitrary delta (relative to the current content) and
    /// adds it to the pending update. The buffer is edited in place and
    /// the undo entry copies only the deleted bytes, so an edit costs its
    /// own size plus a move of the text after it.
    ///
    /// # Panics
    ///
    /// Panics if the delta does not fit the current content or an edit
    /// splits a character.
    pub fn apply(&mut self, delta: Delta) {
        let inverse = self.edit(&delta).expect("editor edits are validated against the buffer");
        self.pending = self.pending.compose(&delta);
        self.undo.push(inverse);
        self.redo.clear();
    }

    /// Applies `delta` to the buffer in place, returning its inverse.
    fn edit(&mut self, delta: &Delta) -> Result<Delta, pe_delta::DeltaError> {
        let inverse = delta.invert(&self.content)?;
        delta.apply_in_place(&mut self.content)?;
        Ok(inverse)
    }

    /// Undoes the most recent edit, if any, returning whether an edit was
    /// undone. The undo itself becomes part of the pending update (it is
    /// an ordinary edit as far as the protocol is concerned).
    pub fn undo(&mut self) -> bool {
        let Some(inverse) = self.undo.pop() else {
            return false;
        };
        let redo =
            self.edit(&inverse).expect("inverses always fit the buffer they were made for");
        self.pending = self.pending.compose(&inverse);
        self.redo.push(redo);
        true
    }

    /// Re-applies the most recently undone edit, if any.
    pub fn redo(&mut self) -> bool {
        let Some(delta) = self.redo.pop() else {
            return false;
        };
        let inverse = self.edit(&delta).expect("redo fits the buffer");
        self.pending = self.pending.compose(&delta);
        self.undo.push(inverse);
        true
    }

    /// Number of edits currently undoable.
    pub fn undo_depth(&self) -> usize {
        self.undo.len()
    }

    /// Number of undone edits currently redoable.
    pub fn redo_depth(&self) -> usize {
        self.redo.len()
    }

    /// Takes the composed delta of all edits since the last call,
    /// resetting the pending state (the autosave path).
    pub fn take_pending(&mut self) -> Delta {
        std::mem::take(&mut self.pending)
    }

    /// Discards local state and replaces the buffer (the client's refresh
    /// path after a conflict).
    pub fn reset(&mut self, content: &str) {
        self.content = content.to_string();
        self.pending = Delta::new();
        self.undo.clear();
        self.redo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_update_content_and_pending() {
        let mut editor = Editor::new("abcdefg");
        editor.replace(2, 3, "uv");
        editor.insert(editor.len(), "w");
        assert_eq!(editor.content(), "abuvfgw");
        let delta = editor.take_pending();
        assert_eq!(delta.apply("abcdefg").unwrap(), "abuvfgw");
        assert!(!editor.has_pending());
    }

    #[test]
    fn pending_composes_multiple_edits() {
        let mut editor = Editor::new("0123456789");
        editor.delete(0, 2);
        editor.insert(0, "ab");
        editor.replace(5, 2, "XY");
        let delta = editor.take_pending();
        assert_eq!(delta.apply("0123456789").unwrap(), editor.content());
    }

    #[test]
    fn reset_discards_pending() {
        let mut editor = Editor::new("abc");
        editor.insert(0, "x");
        editor.reset("fresh");
        assert_eq!(editor.content(), "fresh");
        assert!(!editor.has_pending());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_out_of_bounds_panics() {
        Editor::new("abc").insert(4, "x");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn delete_out_of_bounds_panics() {
        Editor::new("abc").delete(2, 2);
    }

    #[test]
    fn undo_reverses_edits_and_flows_into_pending() {
        let mut editor = Editor::new("abcdefg");
        editor.take_pending();
        editor.replace(2, 3, "uv");
        assert_eq!(editor.content(), "abuvfg");
        assert!(editor.undo());
        assert_eq!(editor.content(), "abcdefg");
        // The undo is itself an edit: the pending delta is net identity.
        let pending = editor.take_pending();
        assert_eq!(pending.apply("abcdefg").unwrap(), "abcdefg");
        assert!(!editor.undo(), "stack exhausted");
    }

    #[test]
    fn undo_stack_is_deep() {
        let mut editor = Editor::new("");
        for i in 0..10 {
            editor.insert(editor.len(), &format!("{i}"));
        }
        assert_eq!(editor.content(), "0123456789");
        assert_eq!(editor.undo_depth(), 10);
        for _ in 0..4 {
            editor.undo();
        }
        assert_eq!(editor.content(), "012345");
    }

    #[test]
    fn redo_restores_undone_edits() {
        let mut editor = Editor::new("base");
        editor.insert(4, " one");
        editor.insert(8, " two");
        editor.undo();
        editor.undo();
        assert_eq!(editor.content(), "base");
        assert!(editor.redo());
        assert_eq!(editor.content(), "base one");
        assert!(editor.redo());
        assert_eq!(editor.content(), "base one two");
        assert!(!editor.redo(), "redo stack exhausted");
        // Round trip is a net no-op for the protocol.
        let pending = editor.take_pending();
        assert_eq!(pending.apply("base").unwrap(), "base one two");
    }

    #[test]
    fn new_edit_clears_redo() {
        let mut editor = Editor::new("x");
        editor.insert(1, "y");
        editor.undo();
        assert_eq!(editor.redo_depth(), 1);
        editor.insert(1, "z");
        assert_eq!(editor.redo_depth(), 0);
        assert!(!editor.redo());
    }

    #[test]
    fn reset_clears_undo() {
        let mut editor = Editor::new("x");
        editor.insert(1, "y");
        editor.reset("fresh");
        assert!(!editor.undo());
    }

    #[test]
    fn multi_byte_text_counts_bytes() {
        let mut editor = Editor::new("héé");
        editor.insert(5, "y");
        assert_eq!(editor.content(), "hééy");
        editor.replace(1, 2, "ö");
        editor.insert(0, "日");
        assert_eq!(editor.content(), "日höéy");
        assert_eq!(
            editor.pending().apply_bytes("héé".as_bytes()).unwrap(),
            "日höéy".as_bytes()
        );
    }

    #[test]
    fn undo_and_redo_on_multi_byte_text() {
        let mut editor = Editor::new("日本語");
        editor.take_pending();
        editor.replace(3, 3, "本当");
        editor.insert(0, "é");
        editor.delete(editor.len() - 3, 3);
        assert_eq!(editor.content(), "é日本当");
        assert!(editor.undo());
        assert!(editor.undo());
        assert_eq!(editor.content(), "日本当語");
        assert!(editor.redo());
        assert_eq!(editor.content(), "é日本当語");
        assert!(editor.undo());
        assert!(editor.undo());
        assert_eq!(editor.content(), "日本語");
        // Every undo and redo flowed into the pending update.
        let pending = editor.take_pending();
        assert_eq!(pending.apply_bytes("日本語".as_bytes()).unwrap(), "日本語".as_bytes());
    }

    #[test]
    #[should_panic(expected = "validated against the buffer")]
    fn an_edit_that_splits_a_character_panics() {
        Editor::new("héé").insert(2, "y");
    }

    #[test]
    fn empty_editor() {
        let mut editor = Editor::new("");
        assert!(editor.is_empty());
        editor.insert(0, "start");
        assert_eq!(editor.content(), "start");
    }
}
