//! # logsynergy-serve
//!
//! A multi-tenant network ingest daemon for the LogSynergy detection
//! pipeline: the "collector" stage of the paper's deployment workflow
//! (§VI-A, Filebeat → Kafka) realized as a std-only TCP front door.
//!
//! Remote collectors connect over TCP, authenticate with a per-tenant
//! token, and stream newline-delimited log records — NDJSON or
//! syslog-style plain lines, freely mixed ([`proto`]). The daemon
//! enforces per-tenant token-bucket quotas and fair-share shard routing
//! ([`tenants`], [`quota`]), applies the serving pipeline's shed
//! watermark as client-visible 429/503 NDJSON frames, and feeds
//! accepted records through the same [`start_pipeline`] handle
//! ([`Ingest`]) into the same partitioned [`LogBuffer`] +
//! [`DetectionPool`] that the in-process pipeline uses — so a record
//! ingested over the wire gets the identical verdict it would get
//! in-process. A connection is a socket-free state machine
//! (unauthenticated → streaming → finished) fed lines and idle ticks by
//! a read-with-timeout loop.
//!
//! Shutdown is a graceful drain ([`Daemon::drain`]): stop accepting,
//! flush in-flight connections under a budget, disconnect the buffer,
//! and join the detection workers into a final
//! [`PipelineSummary`] whose six-bucket accounting
//! (`pattern + cache + model + degraded + shed + quarantined ==
//! windows`) is exact. See `docs/ingest.md` for the protocol and
//! lifecycle.
//!
//! [`start_pipeline`]: logsynergy_pipeline::start_pipeline
//! [`Ingest`]: logsynergy_pipeline::Ingest
//! [`LogBuffer`]: logsynergy_pipeline::LogBuffer
//! [`DetectionPool`]: logsynergy_pipeline::service::DetectionPool
//! [`PipelineSummary`]: logsynergy_pipeline::PipelineSummary

#![warn(missing_docs)]

pub mod daemon;
pub mod proto;
pub mod quota;
pub mod signals;
pub mod tenants;

pub use daemon::{start, Daemon, IngestStats, ServeConfig};
pub use quota::TokenBucket;
pub use tenants::{load_tenants, parse_tenants, shard_subset, TenantSpec, TenantTable};
