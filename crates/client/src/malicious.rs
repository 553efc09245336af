//! Malicious-client covert-channel encoders (§VI-B).
//!
//! Under the *malicious client* threat model, the application provider's
//! client-side code tries to smuggle plaintext information to the server
//! through channels the mediator cannot simply encrypt away. This module
//! implements two of the channels the paper analyzes, plus the observer a
//! malicious server would run — so the countermeasure experiments have
//! something concrete to defeat:
//!
//! * **Edit-pattern channel** ([`self_replace_bit`]): "many different
//!   sequences of delta commands could produce the same editing outcome".
//!   Replacing a character with itself changes nothing visible to the
//!   user but re-encrypts a ciphertext block; which blocks change over
//!   time spells out bits. Delta canonicalization squashes it.
//! * **Length channel** ([`LengthChannel`]): the document length is
//!   "roughly preserved by the encryption", so a malicious client can
//!   "add invisible content to the document … to transmit a few bits of
//!   information with each edit". Multi-character blocks coarsen this
//!   channel from character resolution to block resolution (§VI-A
//!   "Information Leaks").

use pe_delta::{Delta, DeltaOp};

/// Builds the self-replace delta for one covert bit: bit 1 re-writes the
/// first character of `content` with itself (no visible change,
/// ciphertext block re-encrypted); bit 0 is the identity delta.
pub fn self_replace_bit(content: &str, bit: bool) -> Delta {
    if !bit || content.is_empty() {
        return Delta::new();
    }
    let first = &content[..content.ceil_char_boundary(1)];
    Delta::from_ops(vec![DeltaOp::Delete(first.len()), DeltaOp::Insert(first.into())])
}

/// The malicious server's observer for the edit-pattern channel: compares
/// consecutive snapshots of the stored ciphertext and reads "changed" as
/// bit 1.
#[derive(Debug, Default)]
pub struct StorageObserver {
    last: Option<String>,
}

impl StorageObserver {
    /// Creates an observer with no history.
    pub fn new() -> StorageObserver {
        StorageObserver::default()
    }

    /// Records a snapshot, returning whether it changed since the last
    /// one (`None` on the first call).
    pub fn observe(&mut self, stored: &str) -> Option<bool> {
        let bit = self.last.as_deref().map(|prev| prev != stored);
        self.last = Some(stored.to_string());
        bit
    }
}

/// The length covert channel: each secret symbol is encoded as an
/// "invisible" insertion whose size carries the symbol; the server reads
/// the growth of the stored ciphertext.
#[derive(Debug)]
pub struct LengthChannel {
    /// Junk inserted per unit of the encoded symbol.
    marker: char,
}

impl Default for LengthChannel {
    fn default() -> LengthChannel {
        LengthChannel::new()
    }
}

impl LengthChannel {
    /// Creates the channel with the default invisible marker (a plain
    /// space — "invisible content (for example, formatting codes)").
    pub fn new() -> LengthChannel {
        LengthChannel { marker: ' ' }
    }

    /// Encodes `symbol` (0..=25, e.g. a letter index) as a delta
    /// appending `symbol + 1` invisible characters.
    pub fn encode(&self, symbol: u8) -> Delta {
        let junk: String = std::iter::repeat_n(self.marker, symbol as usize + 1).collect();
        Delta::from_ops(vec![DeltaOp::Insert(junk)])
    }

    /// The malicious server's decoder: recovers the symbol from the
    /// growth in stored ciphertext *records*, given the serialized record
    /// width and how many plaintext characters fit in one block.
    ///
    /// With 1-character blocks every inserted character is one record and
    /// recovery is exact; with `b`-character blocks only
    /// `⌈(symbol+1)/b⌉` is visible — the §VI-A observation that
    /// multi-character blocks hide precise positions/sizes.
    pub fn decode_records(&self, records_before: usize, records_after: usize, b: usize) -> u8 {
        let grown = records_after.saturating_sub(records_before);
        // Best estimate: the middle of the size class.
        let low = (grown.saturating_sub(1)) * b + 1;
        let high = grown * b;
        (((low + high) / 2).saturating_sub(1)) as u8
    }

    /// Size (in records) the encoded symbol adds for block size `b` —
    /// the channel's resolution.
    pub fn record_growth(&self, symbol: u8, b: usize) -> usize {
        (symbol as usize + 1).div_ceil(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_replace_is_outcome_neutral() {
        let delta = self_replace_bit("covert target", true);
        assert_eq!(delta.apply("covert target").unwrap(), "covert target");
        assert!(!delta.is_identity(), "the wire form must differ from identity");
        assert!(self_replace_bit("covert target", false).is_identity());
        assert!(self_replace_bit("", true).is_identity());
    }

    #[test]
    fn observer_reads_changes() {
        let mut observer = StorageObserver::new();
        assert_eq!(observer.observe("aaa"), None);
        assert_eq!(observer.observe("aaa"), Some(false));
        assert_eq!(observer.observe("aab"), Some(true));
        assert_eq!(observer.observe("aab"), Some(false));
    }

    #[test]
    fn length_channel_exact_at_block_size_one() {
        let channel = LengthChannel::new();
        for symbol in 0..26u8 {
            let growth = channel.record_growth(symbol, 1);
            assert_eq!(growth, symbol as usize + 1);
            assert_eq!(channel.decode_records(10, 10 + growth, 1), symbol);
        }
    }

    #[test]
    fn length_channel_coarse_at_block_size_eight() {
        let channel = LengthChannel::new();
        // Symbols 0..=7 all grow the ciphertext by one record: the server
        // cannot tell them apart.
        let growths: Vec<usize> = (0..8).map(|s| channel.record_growth(s, 8)).collect();
        assert!(growths.iter().all(|&g| g == 1), "{growths:?}");
        // Distinct size classes shrink from 26 to ceil(26/8)=4.
        let classes: std::collections::HashSet<usize> =
            (0..26).map(|s| channel.record_growth(s, 8)).collect();
        assert_eq!(classes.len(), 4);
    }

    #[test]
    fn encoded_delta_appends_invisible_content() {
        let channel = LengthChannel::new();
        let delta = channel.encode(3);
        assert_eq!(delta.apply("doc").unwrap(), "    doc");
    }
}
