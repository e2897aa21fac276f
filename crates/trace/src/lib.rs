//! Trace layer of the LockDoc reproduction.
//!
//! This crate implements phase ❶ of the LockDoc pipeline (paper Sec. 5.1):
//! the event model emitted by an instrumented target system, binary/CSV
//! codecs for archiving traces, the post-processing filters of Sec. 5.3,
//! and the relational trace store of Fig. 6 that all analyses query.
//!
//! # Examples
//!
//! ```
//! use lockdoc_trace::event::Trace;
//! use lockdoc_trace::filter::FilterConfig;
//! use lockdoc_trace::db::import;
//!
//! let trace = Trace::new();
//! let db = import(&trace, &FilterConfig::with_defaults(), 1);
//! assert!(db.accesses.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod corpus;
pub mod corrupt;
pub mod db;
pub mod event;
pub mod filter;
pub mod ids;
pub mod jsonio;
pub mod merge;
pub mod testgen;

pub use corpus::{screen_trace, CorpusStore, Health, LoadedTrace, ScreenReport};
pub use db::{import, import_resilient, TraceDb};
pub use event::{Event, Trace, TraceEvent};
pub use filter::FilterConfig;
pub use merge::{concat_traces, MergeError};
