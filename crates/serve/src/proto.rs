//! The ingest wire protocol: newline-delimited requests in, NDJSON
//! frames out.
//!
//! Clients speak one line per message. The first line must authenticate
//! (`HELLO <token>` or `{"auth":"<token>"}`); after that every line is a
//! log record in either of two framings, freely mixed on one connection:
//!
//! - **NDJSON**: `{"system":"web-1","timestamp":17,"message":"..."}` —
//!   `message` is required, `system` defaults to the connection default,
//!   `timestamp` to 0. Unknown keys are ignored.
//! - **Syslog-style plain line**: `Mmm dd HH:MM:SS host payload...`
//!   (RFC 3164 shape, e.g. `Jun  9 06:06:20 combo sshd[3251]: fail`) —
//!   the hostname becomes the system, the payload the message, and the
//!   timestamp is the second offset within a non-leap year (the framing
//!   carries no year).
//!
//! `QUIT` asks for the connection summary frame and a clean close.
//!
//! Every server reply is one JSON object per line. Errors carry an
//! HTTP-flavored `code` (401 unauthorized, 400 malformed, 429 over
//! quota, 503 shedding/closed) so clients can reuse familiar retry
//! rules; `429`/`503` frames mean the record was **not** ingested.

use logsynergy_pipeline::RawLog;

/// One parsed client line.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientLine {
    /// Authentication (`HELLO <token>` or `{"auth":"..."}`).
    Hello {
        /// The presented tenant token.
        token: String,
    },
    /// A log record to ingest.
    Record(RawLog),
    /// Clean end of stream: answer with the summary frame and close.
    Quit,
    /// Blank line — ignored (keep-alive friendly).
    Empty,
}

/// Parses one client line. `default_system` fills NDJSON records that
/// omit `"system"`.
pub fn parse_line(line: &str, default_system: &str) -> Result<ClientLine, String> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(ClientLine::Empty);
    }
    if let Some(token) = line.strip_prefix("HELLO ") {
        let token = token.trim();
        if token.is_empty() {
            return Err("HELLO requires a token".into());
        }
        return Ok(ClientLine::Hello {
            token: token.to_string(),
        });
    }
    if line == "QUIT" {
        return Ok(ClientLine::Quit);
    }
    if line.starts_with('{') {
        return parse_ndjson(line, default_system);
    }
    parse_syslog(line)
}

fn parse_ndjson(line: &str, default_system: &str) -> Result<ClientLine, String> {
    let value = serde_json::parse_value(line).map_err(|e| format!("invalid json: {e}"))?;
    let entries = value.as_object().ok_or("json line must be an object")?;
    if let Some(token) = serde::field(entries, "auth") {
        let token = token.as_str().ok_or("auth must be a string")?;
        return Ok(ClientLine::Hello {
            token: token.to_string(),
        });
    }
    let message = serde::field(entries, "message")
        .and_then(|v| v.as_str())
        .ok_or("record needs a string \"message\"")?;
    let system = serde::field(entries, "system")
        .map(|v| v.as_str().ok_or("system must be a string"))
        .transpose()?
        .unwrap_or(default_system);
    if system.is_empty() {
        return Err("system must be non-empty".into());
    }
    let timestamp = serde::field(entries, "timestamp")
        .map(|v| v.as_u64().ok_or("timestamp must be a non-negative integer"))
        .transpose()?
        .unwrap_or(0);
    Ok(ClientLine::Record(RawLog {
        system: system.to_string(),
        timestamp,
        message: message.to_string(),
    }))
}

/// Cumulative second offsets of each month in a non-leap year.
const MONTHS: [(&str, u64); 12] = [
    ("Jan", 0),
    ("Feb", 31),
    ("Mar", 59),
    ("Apr", 90),
    ("May", 120),
    ("Jun", 151),
    ("Jul", 181),
    ("Aug", 212),
    ("Sep", 243),
    ("Oct", 273),
    ("Nov", 304),
    ("Dec", 334),
];

fn parse_syslog(line: &str) -> Result<ClientLine, String> {
    let mut parts = line.split_whitespace();
    let (month, day, time, host) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(d), Some(t), Some(h)) => (m, d, t, h),
        _ => return Err("not a syslog line: need `Mmm dd HH:MM:SS host payload`".into()),
    };
    let month_days = MONTHS
        .iter()
        .find(|(name, _)| *name == month)
        .map(|(_, d)| *d)
        .ok_or_else(|| format!("unknown month {month:?}"))?;
    let day: u64 = day.parse().map_err(|_| format!("bad day {day:?}"))?;
    if !(1..=31).contains(&day) {
        return Err(format!("day {day} out of range"));
    }
    let mut hms = time.split(':');
    let (Some(h), Some(m), Some(s), None) = (hms.next(), hms.next(), hms.next(), hms.next()) else {
        return Err(format!("bad time {time:?}"));
    };
    let (h, m, s): (u64, u64, u64) = match (h.parse(), m.parse(), s.parse()) {
        (Ok(h), Ok(m), Ok(s)) => (h, m, s),
        _ => return Err(format!("bad time {time:?}")),
    };
    if h > 23 || m > 59 || s > 60 {
        return Err(format!("time {time:?} out of range"));
    }
    // The payload is what `parts` has left, whitespace runs collapsed.
    let mut message = String::with_capacity(line.len());
    for token in parts {
        if !message.is_empty() {
            message.push(' ');
        }
        message.push_str(token);
    }
    if message.is_empty() {
        return Err("syslog line has an empty payload".into());
    }
    let timestamp = (month_days + day - 1) * 86_400 + h * 3_600 + m * 60 + s;
    Ok(ClientLine::Record(RawLog {
        system: host.to_string(),
        timestamp,
        message,
    }))
}

/// Escapes `s` for embedding inside a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `{"ok":true,...}` after a successful HELLO.
pub fn frame_hello_ok(tenant: &str) -> String {
    format!("{{\"ok\":true,\"tenant\":\"{}\"}}\n", escape_json(tenant))
}

/// A terminal or per-line error frame. Codes follow HTTP intuition:
/// 400 malformed, 401 unauthorized, 429 over quota, 503 shedding.
pub fn frame_error(code: u16, error: &str, detail: &str) -> String {
    format!(
        "{{\"ok\":false,\"code\":{code},\"error\":\"{}\",\"detail\":\"{}\"}}\n",
        escape_json(error),
        escape_json(detail)
    )
}

/// 429 frame with the token-bucket refill hint.
pub fn frame_over_quota(retry_after_ms: u64) -> String {
    format!(
        "{{\"ok\":false,\"code\":429,\"error\":\"over quota\",\"retry_after_ms\":{retry_after_ms}}}\n"
    )
}

/// 503 frame naming the shard that shed the record.
pub fn frame_shed(partition: usize) -> String {
    format!("{{\"ok\":false,\"code\":503,\"error\":\"shedding\",\"partition\":{partition}}}\n")
}

/// Terminal 503 frame for a closed pipeline: the shard's workers are
/// gone and the connection will be dropped. Names the rejecting
/// partition so a multi-shard client can tell which route died.
pub fn frame_closed(partition: usize) -> String {
    format!(
        "{{\"ok\":false,\"code\":503,\"error\":\"closed\",\"detail\":\"pipeline gone\",\"partition\":{partition}}}\n"
    )
}

/// 503 frame for a transient durable-log append failure on a shard: the
/// record was **not** made durable (not ingested) and may be retried;
/// the connection stays open.
pub fn frame_log_append(partition: usize) -> String {
    format!("{{\"ok\":false,\"code\":503,\"error\":\"log append\",\"partition\":{partition}}}\n")
}

/// The end-of-connection accounting frame (also sent when the daemon
/// drains under SIGTERM, with `"draining":true`).
pub fn frame_summary(
    accepted: u64,
    rejected: u64,
    shed: u64,
    parse_errors: u64,
    draining: bool,
) -> String {
    format!(
        "{{\"ok\":true,\"accepted\":{accepted},\"rejected\":{rejected},\"shed\":{shed},\"parse_errors\":{parse_errors},\"draining\":{draining}}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_both_framings() {
        assert_eq!(
            parse_line("HELLO sekrit", "d").unwrap(),
            ClientLine::Hello {
                token: "sekrit".into()
            }
        );
        assert_eq!(
            parse_line("{\"auth\":\"sekrit\"}", "d").unwrap(),
            ClientLine::Hello {
                token: "sekrit".into()
            }
        );
        assert!(parse_line("HELLO ", "d").is_err());
    }

    #[test]
    fn ndjson_record_with_defaults() {
        let ClientLine::Record(r) = parse_line("{\"message\":\"disk full\"}", "edge-7").unwrap()
        else {
            panic!("expected a record");
        };
        assert_eq!(r.system, "edge-7");
        assert_eq!(r.timestamp, 0);
        assert_eq!(r.message, "disk full");

        let ClientLine::Record(r) = parse_line(
            "{\"system\":\"db\",\"timestamp\":99,\"message\":\"slow query\",\"extra\":1}",
            "edge-7",
        )
        .unwrap() else {
            panic!("expected a record");
        };
        assert_eq!((r.system.as_str(), r.timestamp), ("db", 99));
    }

    #[test]
    fn ndjson_rejects_missing_message_and_bad_types() {
        assert!(parse_line("{\"system\":\"db\"}", "d").is_err());
        assert!(parse_line("{\"message\":7}", "d").is_err());
        assert!(parse_line("{\"message\":\"m\",\"timestamp\":-1}", "d").is_err());
        assert!(parse_line("{\"message\":\"m\",\"system\":\"\"}", "d").is_err());
        assert!(parse_line("{broken", "d").is_err());
        assert!(parse_line("[1,2]", "d").is_err());
    }

    #[test]
    fn ndjson_edge_lines_keep_their_meaning() {
        // Pinned from the parser before its string scan went linear (the
        // vendored crate's differential test covers the mutated space;
        // these are the seeds' meanings as records).
        let record = |line: &str| match parse_line(line, "d") {
            Ok(ClientLine::Record(r)) => Ok((r.timestamp, r.message)),
            Ok(other) => panic!("{line}: {other:?}"),
            Err(e) => Err(e),
        };
        let ok = |ts: u64, m: &str| Ok((ts, m.to_string()));
        // Duplicate keys: the first wins.
        assert_eq!(
            record(r#"{"message":"first","message":"second"}"#),
            ok(0, "first")
        );
        assert_eq!(
            parse_line(r#"{"auth":"a","auth":"b","message":"m"}"#, "d").unwrap(),
            ClientLine::Hello { token: "a".into() }
        );
        // Numbers: `-0` and leading zeros read as integers, 20 digits
        // still fit a u64, an exponent makes a float.
        assert_eq!(record(r#"{"message":"m","timestamp":-0}"#), ok(0, "m"));
        assert_eq!(record(r#"{"message":"m","timestamp":007}"#), ok(7, "m"));
        assert_eq!(
            record(r#"{"message":"m","timestamp":12345678901234567890}"#),
            ok(12345678901234567890, "m")
        );
        assert!(record(r#"{"message":"m","timestamp":1e3}"#).is_err());
        // Escapes, raw control bytes and multi-byte text inside a string.
        assert_eq!(
            record(r#"{"message":"tab\there \"q\" back\\slash \/ \b\f\n\r é 日本 🎉"}"#),
            ok(0, "tab\there \"q\" back\\slash / \u{8}\u{c}\n\r é 日本 🎉")
        );
        assert_eq!(
            record("{\"message\":\"raw\ttab and \u{1} control\"}"),
            ok(0, "raw\ttab and \u{1} control")
        );
        for (line, detail) in [
            (
                r#"{"message":"m"} trailing"#,
                "trailing characters at byte 16",
            ),
            (r#"{"message":"m","ok":tru}"#, "invalid literal at byte 20"),
            (
                r#"{"message":"m","list":[1,]}"#,
                "unexpected byte `]` at byte 25",
            ),
            (r#"{"message":"open"#, "unterminated string at byte 16"),
        ] {
            assert_eq!(record(line), Err(format!("invalid json: {detail}")));
        }
    }

    #[test]
    fn syslog_line_maps_host_and_in_year_seconds() {
        let ClientLine::Record(r) =
            parse_line("Jun  9 06:06:20 combo sshd[3251]: connection lost", "d").unwrap()
        else {
            panic!("expected a record");
        };
        assert_eq!(r.system, "combo");
        assert_eq!(r.message, "sshd[3251]: connection lost");
        assert_eq!(r.timestamp, (151 + 8) * 86_400 + 6 * 3_600 + 6 * 60 + 20);

        // Runs of spaces and tabs — in the header, inside the payload and
        // after it — collapse to single spaces; a one-token payload and a
        // Unicode space are payload like any other.
        for (line, message) in [
            (
                "Jun \t9  06:06:20\tcombo   sshd[3251]:\t\tconnection  lost \t",
                "sshd[3251]: connection lost",
            ),
            ("Jun 9 06:06:20 combo up", "up"),
            ("Jun 9 06:06:20 combo a\u{3000}b\u{a0} c", "a b c"),
        ] {
            let ClientLine::Record(r) = parse_line(line, "d").unwrap() else {
                panic!("expected a record");
            };
            assert_eq!((r.system.as_str(), r.message.as_str()), ("combo", message));
            assert_eq!(r.timestamp, (151 + 8) * 86_400 + 6 * 3_600 + 6 * 60 + 20);
        }
    }

    #[test]
    fn syslog_rejects_malformed_shapes() {
        assert!(parse_line("plain words only", "d").is_err());
        assert!(parse_line("Foo 9 06:06:20 host msg", "d").is_err());
        assert!(parse_line("Jun 99 06:06:20 host msg", "d").is_err());
        assert!(parse_line("Jun 9 06:66:20 host msg", "d").is_err());
        assert!(parse_line("Jun 9 06:06:20 host", "d").is_err());
        assert!(parse_line("Jun 9 06:06:20 host \t ", "d").is_err());
        // The time is exactly three `:`-separated numbers.
        for time in [
            "06:06",
            "06:06:20:",
            "06:06:20:01",
            "06::20",
            ":06:20",
            "6:6:x",
        ] {
            assert!(parse_line(&format!("Jun 9 {time} host msg"), "d").is_err());
        }
    }

    #[test]
    fn control_lines() {
        assert_eq!(parse_line("QUIT", "d").unwrap(), ClientLine::Quit);
        assert_eq!(parse_line("   ", "d").unwrap(), ClientLine::Empty);
    }

    #[test]
    fn frames_are_single_json_lines() {
        for frame in [
            frame_hello_ok("acme"),
            frame_error(401, "unauthorized", "bad \"token\""),
            frame_over_quota(120),
            frame_shed(3),
            frame_closed(1),
            frame_log_append(2),
            frame_summary(10, 2, 1, 0, true),
        ] {
            assert!(frame.ends_with('\n'));
            let body = frame.trim_end();
            assert!(!body.contains('\n'), "one frame per line: {body}");
            serde_json::parse_value(body).expect("frame must be valid JSON");
        }
        assert!(frame_summary(1, 0, 0, 0, false).contains("\"draining\":false"));
        // Every 503 names the rejecting partition so clients can tell
        // which shard refused the record.
        assert!(frame_shed(3).contains("\"partition\":3"));
        assert!(frame_closed(1).contains("\"partition\":1"));
        assert!(frame_log_append(2).contains("\"partition\":2"));
    }
}
