//! Framed TCP implementations of the [`crate::wire`] transport traits.
//!
//! Both ends share one shape: the socket is owned by two dedicated threads
//! (one reading, one writing) bridged to the rest of the process by
//! channels, so no lock is ever held across socket I/O.
//!
//! ```text
//!  client                                        server
//!  ──────                                        ──────
//!  send() ──▶ [bounded queue] ──▶ writer thread  reader thread ──▶ [bounded queue] ──▶ recv()
//!   (any channel)                     │ frames      │ frames
//!                                     ▼             ▲
//!                                 TCP socket ═══════╝
//!  recv() ◀── [channel's queue] ◀── reader thread  writer thread ◀── [bounded queue] ◀── send()
//!                       (routed by request id)
//! ```
//!
//! One socket carries every channel of its link (see [`crate::wire`]): the
//! channels share the send queue and the two client threads, and the reader
//! thread routes each reply to its channel's queue by request id.
//!
//! Backpressure is structural, not advisory:
//!
//! * A **client** whose peer stops draining fills its bounded send queue, at
//!   which point [`crate::wire::Transport::send`] blocks (and the socket's
//!   own buffers push back on the writer thread).
//! * A **server** whose handler falls behind stops pulling from its bounded
//!   inbound queue; the reader thread blocks feeding it and stops reading
//!   the socket, so the kernel's receive window closes and the client's
//!   writes stall. Slow consumers slow *their* connection only.
//!
//! The client's reader thread never blocks on a channel: a channel whose
//! reply queue is full is closed (see [`crate::wire::CHANNEL_REPLY_DEPTH`]),
//! so one owner that stops reading cannot stall its siblings' replies.
//!
//! Any socket error, EOF, or [`crate::protocol::CodecError`] tears the
//! connection down: both threads exit, the socket is shut down, and every
//! queued operation on every channel surfaces [`ConnectionClosed`].

#![warn(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;

use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver, Sender};

use crate::protocol::FrameDecoder;
use crate::wire::{
    self, Connection, ConnectionClosed, ReplyEnvelope, RequestEnvelope, ServerEnd, ServerTransport,
};

// Historically defined here; now shared with the in-process transport so
// both exhibit the same backpressure envelope.
pub use crate::wire::SEND_QUEUE_DEPTH;

/// Bytes pulled from the socket per `read` call.
const READ_BUF_BYTES: usize = 64 * 1024;

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
    pravega_sync::spawn(name, f).map(|_| ())
}

/// Drains `rx`, encodes each message with `encode`, and writes frames to
/// the socket. Exits (shutting the socket down) on channel disconnect or
/// write error.
fn write_pump<T>(stream: TcpStream, rx: Receiver<T>, encode: impl Fn(&T, &mut BytesMut)) {
    let mut stream = stream;
    let mut out = BytesMut::new();
    while let Ok(msg) = rx.recv() {
        out.clear();
        encode(&msg, &mut out);
        // Coalesce whatever else is already queued into the same syscall —
        // this is where client-side append pipelining turns into large
        // writes instead of one syscall per event.
        while out.len() < READ_BUF_BYTES {
            match rx.try_recv() {
                Ok(next) => encode(&next, &mut out),
                Err(_) => break,
            }
        }
        pravega_sync::blocking("socket write");
        if stream.write_all(out.as_slice()).is_err() {
            break;
        }
    }
    pravega_sync::blocking("socket shutdown");
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads the socket, feeds the frame decoder, and forwards each decoded
/// message via `deliver`. Exits (shutting the socket down) on EOF, read
/// error, codec error, or when `deliver` reports the process side hung up.
fn read_pump<T>(
    stream: TcpStream,
    mut next: impl FnMut(&mut FrameDecoder) -> Result<Option<T>, crate::protocol::CodecError>,
    deliver: impl Fn(T) -> Result<(), ConnectionClosed>,
) {
    let mut stream = stream;
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; READ_BUF_BYTES];
    'io: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let Some(read) = buf.get(..n) else { break };
        decoder.feed(read);
        loop {
            match next(&mut decoder) {
                Ok(Some(msg)) => {
                    if deliver(msg).is_err() {
                        break 'io;
                    }
                }
                Ok(None) => break,
                // Unframed stream: nothing downstream is trustworthy.
                Err(_) => break 'io,
            }
        }
    }
    pravega_sync::blocking("socket shutdown");
    let _ = stream.shutdown(Shutdown::Both);
}

/// Opens a framed TCP connection to a segment store frontend.
///
/// The returned [`Connection`] behaves identically to an embedded one; the
/// caller cannot tell (and must not care) which transport backs it. It is
/// the first channel of the socket's link: [`Connection::channel`] opens
/// more on the same socket.
///
/// # Errors
///
/// Any I/O error from connecting or configuring the socket.
pub fn connect(addr: SocketAddr) -> std::io::Result<Connection> {
    let stream = TcpStream::connect(addr)?;
    connect_stream(stream)
}

/// Wraps an already-connected socket in the client transport (used by tests
/// that need to hold the raw fd, e.g. to sever it mid-flight).
///
/// # Errors
///
/// Any I/O error from configuring the socket or spawning pump threads.
pub fn connect_stream(stream: TcpStream) -> std::io::Result<Connection> {
    stream.set_nodelay(true)?;
    let (req_tx, req_rx) = bounded::<RequestEnvelope>(SEND_QUEUE_DEPTH);

    let writer_stream = stream.try_clone()?;
    spawn_named("tcp-cli-writer", move || {
        write_pump(writer_stream, req_rx, |env, out| {
            crate::protocol::encode_request(env, out);
        });
    })?;
    // The reader holds only the router, never a request sender: once every
    // channel is dropped the writer thread exits and shuts the socket, and
    // the reader follows on EOF.
    let (connection, router) = wire::link(req_tx);
    spawn_named("tcp-cli-reader", move || {
        read_pump(stream, |dec| dec.next_reply(), |env| router.deliver(env));
        router.close();
    })?;
    Ok(connection)
}

/// Server-side framed TCP transport for one accepted connection.
struct TcpServerTransport {
    rx: Receiver<RequestEnvelope>,
    tx: Sender<ReplyEnvelope>,
}

impl ServerTransport for TcpServerTransport {
    fn recv(&self) -> Result<RequestEnvelope, ConnectionClosed> {
        self.rx.recv().map_err(|_| ConnectionClosed)
    }

    fn send(&self, envelope: ReplyEnvelope) -> Result<(), ConnectionClosed> {
        self.tx.send(envelope).map_err(|_| ConnectionClosed)
    }
}

/// Wraps an accepted socket in the server transport: requests flow out of
/// [`ServerEnd::recv`], replies flow into [`ServerEnd::send`].
///
/// Both directions ride bounded queues sized [`SEND_QUEUE_DEPTH`]; see the
/// module docs for how that turns into per-connection backpressure.
///
/// # Errors
///
/// Any I/O error from configuring the socket or spawning pump threads.
pub fn serve_stream(stream: TcpStream) -> std::io::Result<ServerEnd> {
    stream.set_nodelay(true)?;
    let (req_tx, req_rx) = bounded::<RequestEnvelope>(SEND_QUEUE_DEPTH);
    let (rep_tx, rep_rx) = bounded::<ReplyEnvelope>(SEND_QUEUE_DEPTH);

    let writer_stream = stream.try_clone()?;
    spawn_named("tcp-srv-writer", move || {
        write_pump(writer_stream, rep_rx, |env, out| {
            crate::protocol::encode_reply(env, out);
        });
    })?;
    spawn_named("tcp-srv-reader", move || {
        read_pump(
            stream,
            |dec| dec.next_request(),
            // A full queue blocks here, which stops the socket reads: the
            // kernel receive window closes and the client stalls.
            |env| req_tx.send(env).map_err(|_| ConnectionClosed),
        );
    })?;

    Ok(ServerEnd::from_transport(Arc::new(TcpServerTransport {
        rx: req_rx,
        tx: rep_tx,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ScopedStream, SegmentId};
    use crate::wire::{Reply, Request, Wakeup};
    use std::net::TcpListener;

    fn seg() -> crate::id::ScopedSegment {
        ScopedStream::new("s", "t")
            .unwrap()
            .segment(SegmentId::new(0, 7))
    }

    #[test]
    fn request_and_reply_cross_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let server = serve_stream(sock).unwrap();
            let req = server.recv().unwrap();
            assert_eq!(req.request_id, 42);
            assert!(matches!(req.request, Request::GetSegmentInfo { .. }));
            server
                .send(ReplyEnvelope {
                    request_id: req.request_id,
                    reply: Reply::NoSuchSegment,
                })
                .unwrap();
        });
        let conn = connect(addr).unwrap();
        let reply = conn
            .call(42, Request::GetSegmentInfo { segment: seg() })
            .unwrap();
        assert_eq!(reply, Reply::NoSuchSegment);
        srv.join().unwrap();
    }

    #[test]
    fn severed_socket_surfaces_connection_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conn = connect(addr).unwrap();
        let (sock, _) = listener.accept().unwrap();
        drop(sock);
        // The reader notices EOF; every blocked and future op must fail.
        let err = conn.recv();
        assert_eq!(err, Err(ConnectionClosed));
    }

    #[test]
    fn pipelined_requests_keep_their_ids_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let server = serve_stream(sock).unwrap();
            for _ in 0..50 {
                let req = server.recv().unwrap();
                server
                    .send(ReplyEnvelope {
                        request_id: req.request_id,
                        reply: Reply::SegmentCreated,
                    })
                    .unwrap();
            }
        });
        let conn = connect(addr).unwrap();
        for id in 0..50u64 {
            conn.send(RequestEnvelope {
                request_id: id,
                request: Request::CreateSegment {
                    segment: seg(),
                    is_table: false,
                },
            })
            .unwrap();
        }
        let mut seen: Vec<u64> = (0..50).map(|_| conn.recv().unwrap().request_id).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        srv.join().unwrap();
    }

    fn info(request_id: u64) -> RequestEnvelope {
        RequestEnvelope {
            request_id,
            request: Request::GetSegmentInfo { segment: seg() },
        }
    }

    /// A server over the one socket `listener` accepts: it collects `batch`
    /// requests, then answers them in reverse order, and repeats until the
    /// client hangs up. Returns the wire ids it saw.
    fn reverse_echo(listener: TcpListener, batch: usize) -> std::thread::JoinHandle<Vec<u64>> {
        std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let server = serve_stream(sock).unwrap();
            let mut seen = Vec::new();
            loop {
                let mut ids = Vec::new();
                while ids.len() < batch {
                    match server.recv() {
                        Ok(req) => ids.push(req.request_id),
                        Err(_) => return seen,
                    }
                }
                for &request_id in ids.iter().rev() {
                    let reply = Reply::NoSuchSegment;
                    let _ = server.send(ReplyEnvelope { request_id, reply });
                }
                seen.extend(ids);
            }
        })
    }

    /// True if `wakeup` has a latched wake-up (its wait returns at once).
    fn woken(wakeup: &Wakeup) -> bool {
        let from = crate::clock::monotonic_now();
        wakeup.wait_until(from.checked_add(std::time::Duration::from_secs(2)));
        from.elapsed() < std::time::Duration::from_secs(1)
    }

    #[test]
    fn channels_share_one_socket_and_each_get_their_own_replies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = reverse_echo(listener, 20);
        let a = connect(addr).unwrap();
        let b = a.channel().unwrap();
        for id in 1..=10 {
            a.send(info(id)).unwrap();
            b.send(info(id)).unwrap();
        }
        let got = |conn: &Connection| -> Vec<u64> {
            (0..10).map(|_| conn.recv().unwrap().request_id).collect()
        };
        let expected: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(got(&a), expected);
        assert_eq!(got(&b), expected);
        drop((a, b));
        let mut wire = srv.join().unwrap();
        wire.sort_unstable();
        wire.dedup();
        assert_eq!(wire.len(), 20, "one socket, distinct ids on the wire");
    }

    #[test]
    fn a_reply_for_a_dropped_channel_is_discarded_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = reverse_echo(listener, 2);
        let a = connect(addr).unwrap();
        let b = a.channel().unwrap();
        b.send(info(1)).unwrap();
        drop(b);
        a.send(info(1)).unwrap();
        assert_eq!(a.recv().unwrap().request_id, 1);
        // b's reply was answered first and dropped on the way in.
        let c = a.channel().unwrap();
        c.send(info(2)).unwrap();
        a.send(info(3)).unwrap();
        assert_eq!(c.recv().unwrap().request_id, 2);
        assert_eq!(a.recv().unwrap().request_id, 3);
        assert_eq!(a.try_recv().unwrap().map(|e| e.request_id), None);
        drop((a, c));
        srv.join().unwrap();
    }

    #[test]
    fn a_severed_socket_closes_every_channel_and_wakes_each_owner() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = connect(addr).unwrap();
        let b = a.channel().unwrap();
        let (wake_a, wake_b) = (Arc::new(Wakeup::default()), Arc::new(Wakeup::default()));
        a.wake_on_reply(wake_a.clone());
        b.wake_on_reply(wake_b.clone());
        let (sock, _) = listener.accept().unwrap();
        drop(sock);
        assert_eq!(a.recv(), Err(ConnectionClosed));
        assert_eq!(b.recv(), Err(ConnectionClosed));
        assert!(
            woken(&wake_a) && woken(&wake_b),
            "a closed link wakes every owner"
        );
        assert_eq!(a.channel().err(), Some(ConnectionClosed));
        assert_eq!(b.channel().err(), Some(ConnectionClosed));
    }

    #[test]
    fn an_id_past_the_channel_id_space_is_refused_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = reverse_echo(listener, 1);
        let a = connect(addr).unwrap();
        let b = a.channel().unwrap();
        assert_eq!(
            b.send(info(crate::wire::CHANNEL_ID_MAX + 1)),
            Err(ConnectionClosed)
        );
        assert_eq!(b.try_recv(), Err(ConnectionClosed), "the channel closed");
        a.send(info(crate::wire::CHANNEL_ID_MAX)).unwrap();
        assert_eq!(a.recv().unwrap().request_id, crate::wire::CHANNEL_ID_MAX);
        drop((a, b));
        let wire = srv.join().unwrap();
        assert_eq!(wire, vec![crate::wire::CHANNEL_ID_MAX], "only a's id left");
    }
}
