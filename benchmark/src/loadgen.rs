//! The load generator: one thread, one loopback TCP connection, either
//! saturating (closed by TCP flow control) or open-loop on a fixed
//! schedule. It only ever writes the pre-rendered bytes; the one thing
//! it changes is each record's timestamp slot, to the record's creation
//! time in µs since `epoch`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use logsynergy_loggen::ReplaySchedule;

use crate::setup::{Wire, TOKEN};

/// What the generator did, for throughput and open-loop hygiene.
pub struct Sent {
    pub records: usize,
    pub first_byte: Instant,
    pub last_byte: Instant,
    /// Paced only: how long after its due time each record was written,
    /// in sending order.
    pub late_us: Vec<u32>,
}

/// Connects and authenticates.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(format!("HELLO {TOKEN}\n").as_bytes())?;
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line)?;
    if !line.contains("\"ok\":true") {
        return Err(io::Error::other(format!("HELLO refused: {line}")));
    }
    Ok(stream)
}

/// Saturation: writes the whole stream as fast as the socket admits, in
/// chunks of whole records. A record is created when its chunk is
/// handed to the kernel, so that is its stamp.
pub fn saturate(stream: &mut TcpStream, wire: &mut Wire, epoch: Instant) -> io::Result<Sent> {
    const CHUNK_BYTES: usize = 64 * 1024;
    let n = wire.len();
    let first_byte = Instant::now();
    let mut from = 0;
    while from < n {
        let mut to = from + 1;
        while to < n && wire.starts[to + 1] - wire.starts[from] <= CHUNK_BYTES {
            to += 1;
        }
        let now_us = epoch.elapsed().as_micros() as u64;
        for i in from..to {
            wire.stamp(i, now_us);
        }
        stream.write_all(&wire.bytes[wire.starts[from]..wire.starts[to]])?;
        from = to;
    }
    Ok(Sent {
        records: n,
        first_byte,
        last_byte: Instant::now(),
        late_us: Vec::new(),
    })
}

/// Open loop: record `i` is due at `schedule.offset(i)` whatever the
/// daemon is doing, and is stamped with that due time — a stall in the
/// generator or the socket shows up as latency of the records behind
/// it, not as a lighter load.
pub fn paced(
    stream: &mut TcpStream,
    wire: &mut Wire,
    epoch: Instant,
    schedule: ReplaySchedule,
) -> io::Result<Sent> {
    let n = wire.len();
    let start = Instant::now();
    let base_us = start.duration_since(epoch).as_micros() as u64;
    let mut late_us = Vec::with_capacity(n);
    let mut from = 0;
    while from < n {
        let due = schedule.offset(from, 1);
        let now = start.elapsed();
        if now < due {
            std::thread::sleep(due - now);
            continue;
        }
        // Everything that has come due goes out in one write.
        let mut to = from;
        while to < n {
            let due = schedule.offset(to, 1);
            if due > now {
                break;
            }
            wire.stamp(to, base_us + due.as_micros() as u64);
            late_us.push((now - due).as_micros().min(u32::MAX as u128) as u32);
            to += 1;
        }
        stream.write_all(&wire.bytes[wire.starts[from]..wire.starts[to]])?;
        from = to;
    }
    Ok(Sent {
        records: n,
        first_byte: start,
        last_byte: Instant::now(),
        late_us,
    })
}

/// The daemon's per-connection summary frame.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Frame {
    pub accepted: u64,
    pub rejected: u64,
    pub shed: u64,
    pub parse_errors: u64,
}

/// Half-closes, reads every remaining frame and returns the summary —
/// the last line; any frame before it is an error frame, returned as
/// the `Err`.
pub fn finish(mut stream: TcpStream) -> io::Result<Frame> {
    stream.shutdown(Shutdown::Write)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut responses = String::new();
    stream.read_to_string(&mut responses)?;
    let mut lines = responses.lines().rev();
    let summary = lines
        .next()
        .ok_or_else(|| io::Error::other("no summary frame"))?;
    if let Some(error) = lines.next() {
        return Err(io::Error::other(format!("daemon refused input: {error}")));
    }
    let value = serde_json::parse_value(summary).map_err(io::Error::other)?;
    let entries = value
        .as_object()
        .ok_or_else(|| io::Error::other("summary frame is not an object"))?;
    let field = |name: &str| {
        serde::field(entries, name)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| io::Error::other(format!("summary frame lacks {name}: {summary}")))
    };
    Ok(Frame {
        accepted: field("accepted")?,
        rejected: field("rejected")?,
        shed: field("shed")?,
        parse_errors: field("parse_errors")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::render;
    use std::net::TcpListener;

    /// A sink that reads everything a client sends and returns it.
    fn swallow(listener: TcpListener) -> std::thread::JoinHandle<Vec<u8>> {
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut all = Vec::new();
            conn.read_to_end(&mut all).unwrap();
            all
        })
    }

    #[test]
    fn paced_sending_follows_the_schedule_and_stamps_due_times() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = swallow(listener);

        let messages: Vec<String> = (0..200).map(|i| format!("message number {i}")).collect();
        let mut wire = render(&messages);
        let mut stream = TcpStream::connect(addr).unwrap();
        let schedule = ReplaySchedule::steady(Duration::from_micros(500));
        let epoch = Instant::now();
        let sent = paced(&mut stream, &mut wire, epoch, schedule).unwrap();
        drop(stream);

        assert_eq!(sent.records, 200);
        assert_eq!(sent.late_us.len(), 200);
        // An open loop never runs ahead: the last record is due at
        // 199 × 500 µs and cannot have left before that.
        let took = sent.last_byte - sent.first_byte;
        assert!(took >= Duration::from_micros(199 * 500), "took {took:?}");

        let received = server.join().unwrap();
        assert_eq!(
            received, wire.bytes,
            "the bytes written are the bytes stamped"
        );
        let base = sent.first_byte.duration_since(epoch).as_micros() as u64;
        for (i, line) in std::str::from_utf8(&received).unwrap().lines().enumerate() {
            let value = serde_json::parse_value(line).unwrap();
            let stamp = serde::field(value.as_object().unwrap(), "timestamp")
                .and_then(|v| v.as_u64())
                .unwrap();
            assert_eq!(
                stamp,
                base + i as u64 * 500,
                "record {i} carries its due time"
            );
        }
    }

    #[test]
    fn saturation_sends_every_record_once_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = swallow(listener);

        let messages: Vec<String> = (0..5_000)
            .map(|i| format!("saturation message {i} {}", "x".repeat(i % 90)))
            .collect();
        let mut wire = render(&messages);
        let mut stream = TcpStream::connect(addr).unwrap();
        let sent = saturate(&mut stream, &mut wire, Instant::now()).unwrap();
        drop(stream);
        assert_eq!(sent.records, 5_000);

        let received = server.join().unwrap();
        assert_eq!(received, wire.bytes);
        let mut last = 0;
        for (i, line) in std::str::from_utf8(&received).unwrap().lines().enumerate() {
            let value = serde_json::parse_value(line).unwrap();
            let entries = value.as_object().unwrap();
            let message = serde::field(entries, "message").and_then(|v| v.as_str());
            assert_eq!(message, Some(messages[i].as_str()));
            let stamp = serde::field(entries, "timestamp")
                .and_then(|v| v.as_u64())
                .unwrap();
            assert!(stamp >= last, "stamps never go back");
            last = stamp;
        }
    }
}
