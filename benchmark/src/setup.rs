//! Set-up: the trained model, the warm vectorizer and the generated
//! streams, rendered to the NDJSON bytes the load generator writes.
//!
//! Everything here is done once per set-up; its wall time is `setup_s`.

use logsynergy::api::Pipeline;
use logsynergy_lei::LeiConfig;
use logsynergy_loggen::{datasets, DatasetSpec, SystemId};
use logsynergy_pipeline::{EventVectorizer, ModelScorer, RawLog};

use crate::spec::Stream;

/// The tenant the load generator authenticates as; also the `system`
/// of every record, so all records route to the one partition.
pub const TENANT: &str = "b";
/// The tenant's auth token.
pub const TOKEN: &str = "bench-token";

/// Width of the space-padded `timestamp` slot of a rendered record. The
/// load generator overwrites it in place with the record's creation
/// time in µs since the phase started.
const STAMP_WIDTH: usize = 12;
const STAMP_PREFIX: &str = "{\"timestamp\":";

/// The trained f32 scorer and the warm-started vectorizer, as
/// `fig7_pipeline_throughput` builds them. Independent of `--seed`:
/// the seed varies only the live stream.
pub struct Model {
    pub scorer: ModelScorer,
    pub vectorizer: EventVectorizer,
    /// The trained model itself, for the `core::infer` / `core::quant`
    /// layer passes.
    pub model: std::sync::Arc<logsynergy::LogSynergyModel>,
}

/// Trains the System-B model (`Pipeline::scaled()`, 4 epochs, 800/200)
/// and warm-starts a vectorizer on the training slice of its history.
pub fn train_model() -> Model {
    const SCALE: f64 = 0.02;
    let mut p = Pipeline::scaled();
    p.train_config.epochs = 4;
    p.train_config.n_source = 800;
    p.train_config.n_target = 200;
    let src_a = p.prepare(&datasets::system_a().generate_with(SCALE / 2.5, 4.0));
    let src_c = p.prepare(&datasets::system_c().generate_with(SCALE, 4.0));
    let history = datasets::system_b().generate_with(SCALE, 4.0);
    let target = p.prepare(&history);
    let (model, _) = p.fit(&[&src_a, &src_c], &target);

    let warm = p.train_config.n_target * 5 + 10;
    let mut vectorizer = EventVectorizer::new(
        SystemId::SystemB,
        p.model_config.embed_dim,
        LeiConfig::default(),
    );
    vectorizer.warm_start(history.records[..warm].iter().map(|r| r.message.as_str()));
    let model = std::sync::Arc::new(model);
    Model {
        scorer: ModelScorer::shared(model.clone()),
        vectorizer,
        model,
    }
}

/// Generates `n` fresh System-B messages. `seed` is xor-ed into the
/// dataset seed, so two seeds (or two phases of one run) never see the
/// same stream; the spec is resized so that any `n` is one pass of the
/// generator — a stream is never looped.
pub fn generate(stream: Stream, n: usize, seed: u64) -> Vec<String> {
    let base = datasets::system_b();
    let grow = n as f64 / base.n_logs as f64;
    let spec = DatasetSpec {
        n_logs: n,
        target_anomalous_sequences: (base.target_anomalous_sequences as f64 * grow).ceil() as usize,
        seed: base.seed ^ seed,
        ..base
    };
    let dataset = match stream {
        Stream::Iid => spec.generate_with(1.0, 16.0),
        Stream::Sessions => spec.generate_sessions(1.0, 4.0, 24.0),
    };
    let mut messages: Vec<String> = dataset.records.into_iter().map(|r| r.message).collect();
    // The generator appends its anomaly bursts on top of `n_logs`.
    messages.truncate(n);
    assert_eq!(messages.len(), n, "generator produced a short stream");
    messages
}

/// The in-process form of a generated stream (reference run, layer
/// passes). Timestamps are 0: detection never reads them.
pub fn raw_logs(messages: &[String]) -> Vec<RawLog> {
    messages
        .iter()
        .map(|m| RawLog {
            system: TENANT.into(),
            timestamp: 0,
            message: m.clone(),
        })
        .collect()
}

/// A stream rendered to wire bytes: one NDJSON record per line, each
/// with a blank fixed-width timestamp slot.
pub struct Wire {
    pub bytes: Vec<u8>,
    /// Byte offset of each record's first byte, plus the total length.
    pub starts: Vec<usize>,
}

impl Wire {
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Writes `t_us` into record `i`'s timestamp slot.
    pub fn stamp(&mut self, i: usize, t_us: u64) {
        let at = self.starts[i] + STAMP_PREFIX.len();
        write_padded(&mut self.bytes[at..at + STAMP_WIDTH], t_us);
    }
}

/// Right-aligns `v` in `slot`, space-padded (JSON allows whitespace
/// before a value, so the record's length never changes).
fn write_padded(slot: &mut [u8], mut v: u64) {
    slot.fill(b' ');
    let mut at = slot.len();
    loop {
        at -= 1;
        slot[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
        assert!(at > 0, "timestamp does not fit its slot");
    }
}

/// Renders one record (without a stamp) onto `out`.
fn render_record(out: &mut Vec<u8>, message: &str) {
    out.extend_from_slice(STAMP_PREFIX.as_bytes());
    out.extend(std::iter::repeat_n(b' ', STAMP_WIDTH - 1));
    out.extend_from_slice(b"0,\"system\":\"");
    out.extend_from_slice(TENANT.as_bytes());
    out.extend_from_slice(b"\",\"message\":\"");
    escape_json(out, message);
    out.extend_from_slice(b"\"}\n");
}

fn escape_json(out: &mut Vec<u8>, s: &str) {
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => out.extend_from_slice(format!("\\u{b:04x}").as_bytes()),
            // Bytes ≥ 0x80 are UTF-8 continuation/lead bytes: copied as is.
            b => out.push(b),
        }
    }
}

/// Renders a whole stream.
pub fn render(messages: &[String]) -> Wire {
    let mut bytes = Vec::with_capacity(messages.iter().map(|m| m.len() + 64).sum());
    let mut starts = Vec::with_capacity(messages.len() + 1);
    for m in messages {
        starts.push(bytes.len());
        render_record(&mut bytes, m);
    }
    starts.push(bytes.len());
    Wire { bytes, starts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logsynergy_serve::proto::{parse_line, ClientLine};

    fn parse(wire: &Wire, i: usize) -> RawLog {
        let line = std::str::from_utf8(&wire.bytes[wire.starts[i]..wire.starts[i + 1]]).unwrap();
        match parse_line(line, "") {
            Ok(ClientLine::Record(r)) => r,
            other => panic!("record {i} parsed as {other:?}: {line:?}"),
        }
    }

    #[test]
    fn every_generated_message_round_trips_through_the_wire_parser() {
        for stream in [Stream::Iid, Stream::Sessions] {
            let messages = generate(stream, 4_000, 7);
            let mut wire = render(&messages);
            assert_eq!(wire.len(), messages.len());
            for (i, m) in messages.iter().enumerate() {
                wire.stamp(i, i as u64 * 1_000_003);
                let r = parse(&wire, i);
                assert_eq!(&r.message, m);
                assert_eq!(r.system, TENANT);
                assert_eq!(r.timestamp, i as u64 * 1_000_003);
            }
        }
    }

    #[test]
    fn rendering_escapes_what_json_requires() {
        let nasty = "quote \" backslash \\ tab \t newline \n bell \u{7} é ü 日本".to_string();
        let mut wire = render(std::slice::from_ref(&nasty));
        assert_eq!(
            wire.bytes.iter().filter(|&&b| b == b'\n').count(),
            1,
            "a record is exactly one line"
        );
        wire.stamp(0, 999_999_999_999);
        let r = parse(&wire, 0);
        assert_eq!(r.message, nasty);
        assert_eq!(r.timestamp, 999_999_999_999);
        // Restamping with a shorter value leaves no stale digits.
        wire.stamp(0, 5);
        assert_eq!(parse(&wire, 0).timestamp, 5);
    }

    #[test]
    fn seeds_give_different_streams_of_the_requested_length() {
        let a = generate(Stream::Iid, 3_000, 1);
        let b = generate(Stream::Iid, 3_000, 2);
        assert_eq!(a.len(), 3_000);
        assert_ne!(a, b);
        assert_eq!(a, generate(Stream::Iid, 3_000, 1), "same seed, same stream");
    }
}
