//! # logsynergy-pipeline
//!
//! The production deployment workflow of the paper's §VI (Fig. 7), as an
//! in-process dataflow:
//!
//! - **One start, one handle**: [`start_pipeline`] builds the buffer,
//!   spawns the workers and returns the pipeline's only producing handle,
//!   [`Ingest`] (`send` / `send_batch` / `offer_batch`). Setting
//!   [`PipelineConfig::wal`] puts a write-ahead log behind each of the
//!   handle's partition lanes ([`durable`]); nothing else changes.
//!   [`run_pipeline_with`] is that plus a shipper thread over a finite
//!   source;
//! - **Collection**: the shipper thread (Filebeat stand-in) feeds a
//!   bounded, partitioned buffer ([`buffer::LogBuffer`], the Kafka stage)
//!   through the handle and a formatter normalizes records
//!   ([`record::format_log`], the Logstash stage);
//! - **Detection**: one worker per buffer partition runs a sliding-window
//!   assembler; a pattern library ([`patterns::PatternLibrary`]) answers
//!   repeated patterns on the fast path, a bounded LRU score cache
//!   ([`cache::ScoreCache`]) answers repeated exact windows, and the
//!   offline-trained LogSynergy model scores the remaining windows in one
//!   micro-batched call ([`detect::OnlineDetector::ingest_batch`]); new
//!   templates are interpreted and embedded online
//!   ([`vectorizer::EventVectorizer`]);
//! - **Report**: anomalies become operator alerts combining the raw
//!   sequence with its LEI interpretations, delivered through
//!   [`report::ReportSink`]s (SMS/email stand-ins).

#![warn(missing_docs)]

pub mod buffer;
pub mod cache;
pub mod detect;
pub mod durable;
pub mod error;
pub mod faults;
pub mod patterns;
pub mod record;
pub mod report;
pub mod service;
pub mod vectorizer;

pub use buffer::{BufferStats, LogBuffer};
pub use cache::ScoreCache;
pub use detect::{
    ModelScorer, OnlineDetector, RetryPolicy, SequenceScorer, ServeMode, DEFAULT_SCORE_CACHE,
};
pub use durable::{start_pipeline, Ingest, RunningPipeline, WalOptions};
pub use error::{DeadLetter, PipelineError};
pub use patterns::{pattern_key, PatternLibrary, Verdict};
pub use record::{format_log, RawLog, StructuredLog};
pub use report::{MemorySink, MessagingSink, Report, ReportSink};
pub use service::{run_pipeline_with, PipelineConfig, PipelineSummary};
pub use vectorizer::EventVectorizer;
