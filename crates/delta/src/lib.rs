// Tab IS the delta wire format's separator; the doc examples keep it
// literal so they read exactly as the protocol does.
#![allow(clippy::tabs_in_doc_comments)]

//! The Google-Documents-style incremental update ("delta") protocol.
//!
//! Section IV-A of the paper describes the wire format the 2011 Google
//! Documents client used for incremental saves: the document is a
//! one-dimensional string with an imaginary cursor starting at position 0,
//! and a *delta* is a tab-separated sequence of operations:
//!
//! * `=num` — move the cursor forward `num` characters (retain),
//! * `+str` — insert `str` at the cursor and advance past it,
//! * `-num` — delete `num` characters starting at the cursor.
//!
//! The paper's examples: applying `=2	-5` to `abcdefg` yields `ab`, and
//! `=2	-3	+uv	=2	+w` yields `abuvfgw`.
//!
//! This crate implements the protocol: [`Delta`] values can be
//! [parsed](Delta::parse), [serialized](Delta::serialize),
//! [applied](Delta::apply) to documents, [composed](Delta::compose),
//! [derived from two document versions](diff), and
//! [canonicalized](Delta::canonicalize) — the §VI-B countermeasure that
//! squashes covert channels hidden in redundant edit sequences.
//!
//! Characters that would collide with the framing (`\t` inside inserted
//! text, and `%`, used as the escape introducer) are percent-escaped in the
//! serialized form; see [`Delta::serialize`].
//!
//! # Example
//!
//! ```
//! use pe_delta::Delta;
//!
//! let delta = Delta::parse("=2\t-3\t+uv\t=2\t+w")?;
//! assert_eq!(delta.apply("abcdefg")?, "abuvfgw");
//! # Ok::<(), pe_delta::DeltaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod diff;
mod error;
mod invert;
mod ops;
mod transform;

pub use diff::{changed_window, diff, diff_around};
pub use error::DeltaError;
pub use ops::{Delta, DeltaBuilder, DeltaOp};
pub use transform::Side;
