//! Log records as they move through the deployment pipeline (Fig. 7).

/// A raw log line as shipped by the collector (Filebeat stage).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawLog {
    /// Originating system identifier (host/service tag).
    pub system: String,
    /// Unix timestamp (seconds).
    pub timestamp: u64,
    /// The unparsed message.
    pub message: String,
}

/// A log after the formatting stage (Logstash): unified structure plus an
/// ingestion sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructuredLog {
    /// Originating system.
    pub system: String,
    /// Unix timestamp (seconds).
    pub timestamp: u64,
    /// Normalized message (whitespace collapsed, trimmed).
    pub message: String,
    /// Monotone ingestion sequence number assigned by the formatter.
    pub seq_no: u64,
}

/// Normalizes a raw log into the unified structure (the Logstash step:
/// "formatted into a unified structure by LogStash", §VI-A).
///
/// Takes the raw record by reference so a serving worker can keep the
/// raw batch alive and re-format it when a faulted attempt is retried —
/// replays produce identical structured logs for the same `seq_no`.
pub fn format_log(raw: &RawLog, seq_no: u64) -> StructuredLog {
    let mut message = String::with_capacity(raw.message.len());
    for token in raw.message.split_whitespace() {
        if !message.is_empty() {
            message.push(' ');
        }
        message.push_str(token);
    }
    StructuredLog {
        system: raw.system.clone(),
        timestamp: raw.timestamp,
        message,
        seq_no,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_collapses_whitespace() {
        let raw = RawLog {
            system: "sysb".into(),
            timestamp: 7,
            message: "  a   b\t c  ".into(),
        };
        let s = format_log(&raw, 42);
        assert_eq!(s.message, "a b c");
        assert_eq!(s.seq_no, 42);
        assert_eq!(s.timestamp, 7);
    }

    #[test]
    fn reformatting_is_idempotent_per_seq_no() {
        // The retry path re-formats the same raw batch; both passes must
        // produce identical structured records.
        let raw = RawLog {
            system: "sysb".into(),
            timestamp: 9,
            message: "\t disk   fault \u{0}".into(),
        };
        assert_eq!(format_log(&raw, 3), format_log(&raw, 3));
    }
}
