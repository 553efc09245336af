//! Batched application of the block cipher.
//!
//! Full-document operations (`Enc`, `Dec`, and the mediator's full-save
//! path) touch every block, so their cost is `blocks × per-block AES`.
//! The schemes assemble all plaintext/ciphertext blocks into one
//! contiguous buffer and hand it to [`apply_cipher`], which runs the
//! cipher's batch loop over it in place, on the caller's thread: AES-NI
//! keeps eight blocks in flight, so a 64 KiB document's 8,192 blocks are
//! tens of microseconds of cipher work, less than spawning a thread
//! costs. Callers draw every nonce before the batch, sequentially, so the
//! ciphertext depends only on the document's nonce stream.

use pe_crypto::BlockCipher;

/// Which way to run the cipher over a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Encrypt every block.
    Encrypt,
    /// Decrypt every block.
    Decrypt,
}

/// Runs the cipher over every block of `blocks` in place, in order, and
/// records the batch size in `core.batch.blocks_per_call`.
pub(crate) fn apply_cipher<C: BlockCipher>(cipher: &C, blocks: &mut [[u8; 16]], direction: Direction) {
    pe_observe::static_histogram!("core.batch.blocks_per_call").record(blocks.len() as u64);
    match direction {
        Direction::Encrypt => cipher.encrypt_blocks(blocks),
        Direction::Decrypt => cipher.decrypt_blocks(blocks),
    }
}
